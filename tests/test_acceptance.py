"""Acceptance suite: every headline quantitative result at a pinned tolerance.

Each test prints one PASS line on success.  Criterion 6 asserts the exact
sequential state entrywise: the averaged channel keeps Alice's marginal, so
away from alpha = 1/sqrt(2) the state leaves the white-noise family along
rho_A (x) I/2 while every witness statistic still follows q -> f(lam) q.
"""

import math

import numpy as np
from mpmath import mp, mpf
from mpmath import sqrt as mp_sqrt

from mdiew import linalg, measurement, protocol, states, witness

from conftest import random_separable_two_qubit

ALPHA_MAX = states.ALPHA_MAX

CHANNEL_LAMS = (0.0, 0.2, 1 / 3, 0.5, 0.8, 1.0)
CHANNEL_QS = (0.25, 0.5, 1.0)
CHANNEL_ALPHAS = (0.2, 0.4, ALPHA_MAX)


def _announce(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS")


def _mp_weight_sequence(steps: int) -> list[mpf]:
    """60-digit recomputation of q_{i+1} = f(1/(3 q_i)) q_i from q_1 = 1."""
    mp.dps = 60

    def decay(lam):
        return (1 + (mp_sqrt((1 + 3 * lam) * (1 - lam))
                     + mp_sqrt((3 - 3 * lam) * (3 + lam))) / 4) / 2

    weights = [mpf(1)]
    for _ in range(steps):
        lam = 1 / (3 * weights[-1])
        weights.append(decay(lam) * weights[-1])
    return weights


def test_criterion_01_threshold_protocol_fourteen_observers():
    trace = protocol.run_threshold_protocol(ALPHA_MAX)
    assert trace.n_success == 14

    oracle = _mp_weight_sequence(14)
    implementation = [record.q for record in trace.records]
    assert len(implementation) == 15
    for got, want in zip(implementation, oracle):
        assert abs(got - float(want)) < 1e-10
    assert implementation[13] > 1 / 3 > implementation[14]
    assert abs(implementation[14] - 0.3256) < 1e-4
    _announce(1, "threshold protocol reaches exactly fourteen observers")


def test_criterion_02_boundary_entanglement_for_fourteen():
    _, entropy = protocol.boundary_alpha_for_n(14)
    assert abs(entropy - 0.9349) <= 5e-4
    _announce(2, f"count-14 boundary at E = {entropy:.5f} = 0.9349 +- 0.0005")


def test_criterion_03_equal_sharpness_maxima():
    best_maximal, _ = protocol.n_max_over_lambda(ALPHA_MAX)
    assert best_maximal == 6
    best_near, _ = protocol.n_max_over_lambda(states.alpha_from_entanglement(0.935))
    assert best_near == 5
    _announce(3, "equal-sharpness maxima: 6 at E=1 and 5 at E=0.935")


def test_criterion_04_two_observers_survive_sharp_measurements():
    trace = protocol.run_equal_sharpness(ALPHA_MAX, 1.0)
    assert trace.n_success == 2
    _announce(4, "exactly two observers detect with fully sharp measurements")


def test_criterion_05_witness_closed_form_equivalence():
    beta = witness.werner_beta()
    worst = 0.0
    for q in np.linspace(0.0, 1.0, 5):
        for alpha in np.linspace(0.1, ALPHA_MAX, 5):
            rho = states.werner_alpha(q, alpha)
            for lam in np.linspace(0.0, 1.0, 5):
                numeric = witness.mdi_ew_numeric(rho, beta, lam)[0, 0]
                closed = witness.mdi_ew_closed_form_unsharp(q, alpha, lam)
                worst = max(worst, abs(numeric - closed))
    assert worst < 1e-10
    corner = witness.mdi_ew_numeric(states.werner_alpha(1.0, ALPHA_MAX), beta, 1.0)[0, 0]
    assert abs(corner - (-0.125)) < 1e-12
    assert abs(witness.mdi_ew_closed_form_unsharp(1.0, ALPHA_MAX, 1.0) - (-0.125)) < 1e-15
    _announce(5, f"witness numeric vs closed form, max dev {worst:.2e} < 1e-10")


def _colored_noise(alpha: float) -> np.ndarray:
    """rho_A (x) I/2 from an explicit rho_A = diag(alpha^2, 1 - alpha^2).

    Built with np.kron, independently of the library's partial trace.
    """
    reduced_a = np.diag([alpha**2, 1 - alpha**2]).astype(complex)
    return np.kron(reduced_a, np.eye(2) / 2)


def _sequential_state(fidelity_weight: float, q: float, alpha: float) -> np.ndarray:
    """a |psi><psi| + (q - a) rho_A (x) I/2 + (1 - q) I/4 with a = fidelity_weight."""
    return (fidelity_weight * states.werner_alpha(1.0, alpha)[0]
            + (q - fidelity_weight) * _colored_noise(alpha)
            + (1 - q) / 4 * np.eye(4))


def test_criterion_06_channel_recursion_entrywise_full_grid():
    """Entrywise state-level recursion of the averaged channel, full grid.

    The measurement acts on Bob's share only, so Alice's marginal rho_A is
    invariant and the weight a channel step takes off |psi><psi| moves onto
    rho_A (x) I/2, not onto white noise:
    rho(q, alpha) -> f q |psi><psi| + q(1-f) rho_A (x) I/2 + (1-q) I/4.
    Checked at tolerance 1e-12 for one step at every (lam, q, alpha) grid
    point, and at 1e-10 chained along CHANNEL_LAMS and along the threshold
    schedule, where the fidelity weight after k steps is the protocol's own
    q_k.  The white-noise shorthand rho(q, alpha) -> rho(f q, alpha) holds
    at alpha = 1/sqrt(2) only; elsewhere its deviation is asserted to equal
    q(1-f)(rho_A (x) I/2 - I/4).
    """
    worst_step = worst_chain = worst_shorthand = 0.0
    for alpha in CHANNEL_ALPHAS:
        colored_minus_white = _colored_noise(alpha) - np.eye(4) / 4
        for q in CHANNEL_QS:
            for lam in CHANNEL_LAMS:
                decay = protocol.f_of_lambda(lam)
                out = measurement.averaged_channel(states.werner_alpha(q, alpha), lam)
                target = _sequential_state(decay * q, q, alpha)
                worst_step = max(worst_step, float(np.abs(out[0] - target).max()))
                shorthand = states.werner_alpha(decay * q, alpha)[0]
                if alpha == ALPHA_MAX:
                    assert np.abs(out[0] - shorthand).max() < 1e-10
                deviation = out[0] - shorthand - q * (1 - decay) * colored_minus_white
                worst_shorthand = max(worst_shorthand, float(np.abs(deviation).max()))

            rho, weight = states.werner_alpha(q, alpha), q
            for lam in CHANNEL_LAMS:
                rho = measurement.averaged_channel(rho, lam)
                weight = protocol.f_of_lambda(lam) * weight
                target = _sequential_state(weight, q, alpha)
                worst_chain = max(worst_chain, float(np.abs(rho[0] - target).max()))

        records = protocol.run_threshold_protocol(alpha).records
        assert len(records) >= 2
        rho = states.werner_alpha(1.0, alpha)
        for current, following in zip(records, records[1:]):
            rho = measurement.averaged_channel(rho, current.lam)
            target = _sequential_state(following.q, 1.0, alpha)
            worst_chain = max(worst_chain, float(np.abs(rho[0] - target).max()))

    assert worst_step < 1e-12
    assert worst_chain < 1e-10
    assert worst_shorthand < 1e-10
    _announce(6, f"exact sequential state on the full grid: one step {worst_step:.1e}, "
                 f"chained {worst_chain:.1e}, shorthand deviation {worst_shorthand:.1e}")


def test_criterion_06_attainable_scope():
    """What the averaged channel's statistics satisfy, at the stated tolerances.

    (c) witness statistics follow q -> f(lam) q for every alpha; (d)
    decay-factor spot values.  The entrywise closure at alpha = 1/sqrt(2)
    and the exact output form (parts (a) and (b)) are asserted on the same
    grid by test_criterion_06_channel_recursion_entrywise_full_grid.
    """
    beta = witness.werner_beta()
    worst_stats = 0.0
    for lam in CHANNEL_LAMS:
        decay = protocol.f_of_lambda(lam)
        for q in CHANNEL_QS:
            for alpha in CHANNEL_ALPHAS:
                out = measurement.averaged_channel(states.werner_alpha(q, alpha), lam)
                for probe in (0.5, 1.0):
                    numeric = witness.mdi_ew_numeric(out, beta, probe)[0, 0]
                    closed = witness.mdi_ew_closed_form_unsharp(decay * q, alpha, probe)
                    worst_stats = max(worst_stats, abs(numeric - closed))
    assert worst_stats < 1e-10
    assert protocol.f_of_lambda(0.0) == 1.0
    assert protocol.f_of_lambda(1.0) == 0.5
    assert abs(protocol.f_of_lambda(1 / 3) - 0.9670862) < 1e-6
    _announce(6, "statistics recursion everywhere and decay-factor spot values")


def test_criterion_07_separable_states_never_flag():
    rng = np.random.default_rng(1234)
    beta = witness.werner_beta()
    lowest = math.inf
    for _ in range(200):
        rho = random_separable_two_qubit(rng)
        for lam in (0.25, 0.5, 1.0):
            lowest = min(lowest, witness.mdi_ew_numeric(rho[None], beta, lam)[0, 0])
    assert lowest >= -1e-10
    _announce(7, f"200 seeded separable states score >= {lowest:.3e} > -1e-10")


def test_criterion_08_negativity_consistency():
    worst_grid = 0.0
    for q in np.linspace(0.0, 1.0, 20):
        for alpha in np.linspace(0.05, ALPHA_MAX, 20):
            closed = protocol.negativity_walpha(q, alpha)
            oracle = linalg.negativity(states.werner_alpha(q, alpha))[0]
            worst_grid = max(worst_grid, abs(closed - oracle))
    assert worst_grid < 1e-10

    worst_identity = 0.0
    for negativity in np.arange(0.05, 0.501, 0.05):
        composed = ((1 + 4 * negativity) / 4
                    * (1 - protocol.f_of_lambda(protocol.threshold_from_negativity(negativity))))
        worst_identity = max(worst_identity,
                             abs(composed - protocol.delta_negativity_at_threshold(negativity)))
    assert worst_identity < 1e-12

    for negativity in np.linspace(0.0, 0.5, 11):
        previous = -math.inf
        for lam in np.linspace(0.0, 1.0, 51):
            loss = protocol.delta_negativity(negativity, lam)
            assert loss >= 0.0
            assert loss >= previous - 1e-15
            previous = loss
    _announce(8, f"negativity closed form vs oracle ({worst_grid:.2e}) and "
                 f"threshold-loss identity ({worst_identity:.2e})")


def test_criterion_09_sharpness_range_shape():
    _, widths = protocol._range_table(0.025)
    table = [(max(n for n, width in enumerate(row, 1) if width > 0), row) for row in widths]
    slack = 1e-5  # edges are exact to the success rule; the slack is a margin
    for (best_low, ranges_low), (best_high, ranges_high) in zip(table, table[1:]):
        for n in range(1, len(ranges_low) + 1):
            if n >= best_low and n >= best_high:
                # n is the best (or unachievable): range shrinks as E decreases
                assert ranges_low[n - 1] <= ranges_high[n - 1] + slack
            if n < best_low and n < best_high:
                # below the best: range grows as E decreases
                assert ranges_low[n - 1] >= ranges_high[n - 1] - slack
    _announce(9, "sharpness-range curves shrink (best n) / grow (smaller n) "
                 "as entanglement decreases")
