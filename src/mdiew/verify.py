"""Deterministic property suite backing the `verify` CLI command.

Each check recomputes one of the package's oracle equivalences or structural
properties and reports its worst deviation against a pinned tolerance.  The
suite is seeded and finishes in tens of milliseconds.  The grid checks build
and validate their states as stacks and evaluate them with the stacked
literal kernels, each the many-state, many-sharpness case of one public
function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, measurement, protocol, states, witness

DEFAULT_SEED = 1234

WITNESS_GRID_TOL = 1e-10
CHANNEL_TOL = 1e-10
SEPARABLE_BOUND = 1e-10
WITNESS_OPERATOR_TOL = 1e-15
NEGATIVITY_TOL = 1e-10
DELTA_IDENTITY_TOL = 1e-12
FIG3_SLACK = 1e-5

_QS = np.linspace(0.0, 1.0, 5)
_ALPHAS = np.linspace(0.1, states.ALPHA_MAX, 5)
_LAMS = np.linspace(0.0, 1.0, 5)

_SEPARABLE_LAMS = (0.25, 0.5, 1.0)
_CERTIFIED_SAMPLES = 4

_CHANNEL_LAMS = (0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0)
_CHANNEL_QS = (0.25, 0.5, 1.0)
_CHANNEL_ALPHAS = (0.2, 0.4, states.ALPHA_MAX)
_CHANNEL_PROBES = (0.5, 1.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    deviation: float
    tolerance: float
    detail: str


def _worst(deviations) -> float:
    """max(0.0, *deviations), except that one NaN deviation makes it NaN.

    Python's max keeps its running value when the next one is NaN, so a NaN
    from an oracle would pass its check; np.max propagates it.
    """
    worst = float(np.max(deviations, initial=0.0))
    return worst if worst > 0.0 or np.isnan(worst) else 0.0


def _result(name: str, deviation: float, tolerance: float, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(deviation <= tolerance), float(deviation),
                       float(tolerance), detail)


def check_witness_grid() -> CheckResult:
    """Full-trace payoff vs closed form on the 5x5x5 (q, alpha, lam) grid."""
    points = [(q, alpha) for q in _QS for alpha in _ALPHAS]
    matrices = states._werner_alphas(*zip(*points))
    numeric = witness._payoffs(matrices, witness.werner_beta(), _LAMS)
    deviations = [abs(numeric[row, column] - witness.mdi_ew_closed_form_unsharp(q, alpha, lam))
                  for column, (q, alpha) in enumerate(points) for row, lam in enumerate(_LAMS)]
    return _result("witness_numeric_vs_closed_grid", _worst(deviations), WITNESS_GRID_TOL)


def check_witness_sharp_corner() -> CheckResult:
    """Sharp maximal corner: payoff -1/8 for the pure singlet-weight state."""
    rho = states.werner_alpha(1.0, states.ALPHA_MAX)
    numeric = witness.mdi_ew_numeric(rho, witness.werner_beta(), 1.0)
    closed = witness.mdi_ew_closed_form_unsharp(1.0, states.ALPHA_MAX, 1.0)
    dev = _worst([abs(numeric + 0.125), abs(closed + 0.125)])
    return _result("witness_sharp_corner", dev, 1e-12)


def _random_separable_matrices(rng: np.random.Generator, samples: int,
                               max_terms: int = 4) -> np.ndarray:
    """Validated stack of `samples` random mixtures of up to `max_terms` pure product states.

    Each state draws its term count, then its weights, then one
    standard_normal(8 * terms): per term, re and im of Alice's vector, then
    of Bob's, the stream that 4 * terms calls of standard_normal(2) give.
    Every matrix takes the one-state operations: the norms as np.linalg.norm
    takes them, the same broadcast products as np.kron and np.outer, and the
    weighted terms added to zero one at a time.
    """
    counts, weights, normals = [], [], []
    for _ in range(samples):
        terms = int(rng.integers(1, max_terms + 1))
        counts.append(terms)
        weights.append(rng.dirichlet(np.ones(terms)))
        normals.append(rng.standard_normal(8 * terms))
    # parts[term, factor, re/im, component]; vecs[term, factor] is Alice's or Bob's vector.
    parts = np.concatenate(normals).reshape(-1, 2, 2, 2)
    vecs = parts[:, :, 0] + 1j * parts[:, :, 1]
    # np.linalg.norm of a complex vector is sqrt(re . re + im . im); a vector @ vector
    # matmul is that same dot product (np.vecdot would need NumPy 2).
    re, im = vecs.real[..., None, :], vecs.imag[..., None, :]
    norms = np.sqrt(re @ re.swapaxes(-2, -1) + im @ im.swapaxes(-2, -1))[..., 0]
    units = vecs / norms
    products = (units[:, 0, :, None] * units[:, 1, None, :]).reshape(-1, 4)
    outers = products[:, :, None] * products.conj()[:, None, :]
    weighted = np.concatenate(weights)[:, None, None] * outers
    owner = np.repeat(np.arange(samples), counts)
    position = np.concatenate([np.arange(terms) for terms in counts])
    matrices = np.zeros((samples, 4, 4), dtype=complex)
    for k in range(max_terms):
        rows = position == k
        matrices[owner[rows]] += weighted[rows]
    linalg._check_density_matrices(matrices)
    return matrices


def _separable_payoffs(seed: int, samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded separable state matrices and their payoffs tr(W(lam) rho) for the Werner table.

    The payoff array has one row per entry of _SEPARABLE_LAMS and one column
    per state.
    """
    matrices = _random_separable_matrices(np.random.default_rng(seed), samples)
    operators = witness._reduced_witness_operators(_SEPARABLE_LAMS, witness.werner_beta())
    return matrices, np.einsum("lij,nji->ln", operators, matrices).real


def check_separable_nonnegativity(seed: int = DEFAULT_SEED, samples: int = 200) -> CheckResult:
    """Separable states never score below zero, at any sharpness.

    The payoffs come from the 4x4 reduced operator W(lam), which is first
    certified against its closed form (1 + lam)/16 I - (lam/4) |psi-><psi-|
    on a 101-point sharpness grid and against the literal 16-dim trace on the
    first sampled states.
    """
    matrices, payoffs = _separable_payoffs(seed, samples)
    beta = witness.werner_beta()
    singlet = states.psi_alpha(states.ALPHA_MAX)
    singlet_projector = np.outer(singlet, singlet.conj())
    lams = np.linspace(0.0, 1.0, 101)[:, None, None]
    closed = (1.0 + lams) / 16.0 * np.eye(4) - lams / 4.0 * singlet_projector
    literal = witness._payoffs(matrices[:_CERTIFIED_SAMPLES], beta, _SEPARABLE_LAMS)
    certification = _worst([
        np.abs(witness._reduced_witness_operators(lams.ravel(), beta) - closed).max(),
        np.abs(payoffs[:, :_CERTIFIED_SAMPLES] - literal).max()])
    lowest = float(payoffs.min())
    deviation = _worst([-lowest])
    return CheckResult("separable_nonnegativity",
                       bool(deviation <= SEPARABLE_BOUND and certification <= WITNESS_OPERATOR_TOL),
                       deviation, SEPARABLE_BOUND,
                       f"min value {lowest:.3e} over {samples} seeded states; "
                       f"W(lam) certified to {certification:.1e}")


def check_channel_closure_maximal() -> CheckResult:
    """At alpha = 1/sqrt(2) the channel maps the family onto itself, q -> f q."""
    alpha = states.ALPHA_MAX
    matrices = states._werner_alphas(_CHANNEL_QS, alpha)
    outs = measurement._averaged_channel(matrices, _CHANNEL_LAMS)
    wants = states._werner_alphas(
        [protocol.f_of_lambda(lam) * q for lam in _CHANNEL_LAMS for q in _CHANNEL_QS], alpha)
    worst = float(np.abs(outs - wants).max())
    return _result("channel_closure_maximal_alpha", worst, CHANNEL_TOL)


def check_channel_statistics() -> CheckResult:
    """The payoff of the channel output equals the closed form at q -> f q, all alpha.

    For alpha < 1/sqrt(2) the output state itself is NOT the white-noise
    family member (the invariant noise is rho_A (x) I/2), but every witness
    statistic follows the q-recursion exactly.
    """
    points = [(q, alpha) for q in _CHANNEL_QS for alpha in _CHANNEL_ALPHAS]
    matrices = states._werner_alphas(*zip(*points))
    outs = measurement._averaged_channel(matrices, _CHANNEL_LAMS)
    numeric = witness._payoffs(outs, witness.werner_beta(), _CHANNEL_PROBES).reshape(
        len(_CHANNEL_PROBES), len(_CHANNEL_LAMS), len(points))
    deviations = []
    for block, lam in enumerate(_CHANNEL_LAMS):
        decay = protocol.f_of_lambda(lam)
        for index, (q, alpha) in enumerate(points):
            for row, probe in enumerate(_CHANNEL_PROBES):
                closed = witness.mdi_ew_closed_form_unsharp(decay * q, alpha, probe)
                deviations.append(abs(numeric[row, block, index] - closed))
    return _result("channel_statistics_general_alpha", _worst(deviations), CHANNEL_TOL)


def check_decay_spot_values() -> CheckResult:
    """f(0) = 1, f(1) = 1/2, f(1/3) = 0.9670862 within 1e-6."""
    dev = _worst([abs(protocol.f_of_lambda(0.0) - 1.0),
                  abs(protocol.f_of_lambda(1.0) - 0.5),
                  abs(protocol.f_of_lambda(1.0 / 3.0) - 0.9670862)])
    return _result("decay_factor_spot_values", dev, 1e-6)


def check_negativity_grid() -> CheckResult:
    """Closed-form negativity vs the partial-transpose eigenvalue oracle, 20x20."""
    points = [(q, alpha) for q in np.linspace(0.0, 1.0, 20)
              for alpha in np.linspace(0.05, states.ALPHA_MAX, 20)]
    matrices = states._werner_alphas(*zip(*points))
    oracles = linalg._negativities(matrices)
    deviations = [abs(protocol.negativity_walpha(q, alpha) - oracle)
                  for (q, alpha), oracle in zip(points, oracles)]
    return _result("negativity_closed_vs_oracle", _worst(deviations), NEGATIVITY_TOL)


def check_delta_negativity_identity() -> CheckResult:
    """Threshold-loss closed form vs composing the loss and threshold formulas."""
    deviations = []
    for negativity in np.arange(0.05, 0.501, 0.05):
        composed = ((1.0 + 4.0 * negativity) / 4.0
                    * (1.0 - protocol.f_of_lambda(protocol.threshold_from_negativity(negativity))))
        deviations.append(abs(composed - protocol.delta_negativity_at_threshold(negativity)))
    return _result("delta_negativity_threshold_identity", _worst(deviations), DELTA_IDENTITY_TOL)


def check_delta_negativity_monotone() -> CheckResult:
    """Loss is non-negative everywhere and non-decreasing in the sharpness."""
    deviations = []
    for negativity in np.linspace(0.0, 0.5, 11):
        previous = -np.inf
        for lam in np.linspace(0.0, 1.0, 101):
            loss = protocol.delta_negativity(negativity, lam)
            deviations += [-loss, previous - loss]
            previous = loss
    return _result("delta_negativity_monotone_in_lambda", _worst(deviations), 1e-15)


def check_threshold_protocol_count() -> CheckResult:
    """Fourteen observers succeed at maximal initial entanglement.

    The detail also gives why no state serves more: the strength c_15 that
    a fifteenth observer would need exceeds the largest, c(1/sqrt(2)) = 3.
    """
    count = protocol.run_threshold_protocol(states.ALPHA_MAX).n_success
    orbit = protocol._threshold_orbit()
    margin = 1.0 / orbit[-1] - states.werner_strength(states.ALPHA_MAX)
    return _result("threshold_protocol_count", abs(count - 14), 0.5,
                   detail=f"n_success = {count}; c_{len(orbit)} - 3 = {margin:.2e}")


def check_threshold_boundary() -> CheckResult:
    """The count-14 region starts at entanglement 0.9349 within 5e-4.

    The edge is a shipped literal, so the runner must also count 14 on it
    and 13 one float below it.
    """
    alpha, entropy = protocol.boundary_alpha_for_n(14)
    counts = [protocol.run_threshold_protocol(a).n_success
              for a in (alpha, np.nextafter(alpha, 0.0))]
    exact = counts == [14, 13]
    return _result("threshold_boundary_entanglement",
                   abs(entropy - 0.9349) if exact else np.inf, 5e-4,
                   detail=f"boundary E = {entropy:.6f}"
                          + ("" if exact else f"; runner counts {counts} at the edge and below"))


def check_equal_sharpness_maxima() -> CheckResult:
    """Best equal-sharpness counts: 6 at E = 1 and 5 at E = 0.935."""
    best_max, _ = protocol.n_max_over_lambda(states.ALPHA_MAX)
    best_935, _ = protocol.n_max_over_lambda(states.alpha_from_entanglement(0.935))
    dev = max(abs(best_max - 6), abs(best_935 - 5))
    return _result("equal_sharpness_maxima", dev, 0.5,
                   detail=f"n_max(E=1) = {best_max}, n_max(E=0.935) = {best_935}")


def check_sharp_survival() -> CheckResult:
    """Two observers survive fully sharp measurements at maximal entanglement."""
    count = protocol.run_equal_sharpness(states.ALPHA_MAX, 1.0).n_success
    return _result("sharp_measurement_survival", abs(count - 2), 0.5,
                   detail=f"n_success = {count}")


def check_decomposition_roundtrip() -> CheckResult:
    """Recomposing a decomposed witness operator reproduces it."""
    taus = omegas = states.input_ensemble()
    products = witness._input_products(taus, omegas)
    beta = witness.werner_beta()
    target = sum(beta.beta[s, t] * products[s, t] for s in range(4) for t in range(4))
    recovered = witness.decompose_witness(target, taus, omegas)
    dev = float(np.abs(recovered.beta - beta.beta).max())
    identity_beta = witness.decompose_witness(np.eye(4), taus, omegas)
    recomposed = sum(identity_beta.beta[s, t] * products[s, t]
                     for s in range(4) for t in range(4))
    dev = _worst([dev, np.abs(recomposed - np.eye(4)).max()])
    return _result("witness_decomposition_roundtrip", dev, 1e-10)


def check_range_shape(e_step: float = 0.025) -> CheckResult:
    """Shape of the sharpness-range curves against the initial entanglement.

    For the best achievable count the range shrinks as entanglement drops;
    for every smaller count it grows as entanglement drops.
    """
    grid = np.arange(0.5, 1.0 + 1e-9, e_step)
    table = {}
    for entropy in grid:
        alpha = states.alpha_from_entanglement(min(float(entropy), 1.0))
        achieved = dict(protocol.lambda_range_table(alpha))
        ranges = [achieved.get(n, 0.0) for n in range(1, 8)]
        best = max(n for n in range(1, 8) if ranges[n - 1] > 0)
        table[float(entropy)] = (best, ranges)
    keys = sorted(table)
    deviations = []
    for n in range(1, 8):
        for e_low, e_high in zip(keys, keys[1:]):
            best_low, ranges_low = table[e_low]
            best_high, ranges_high = table[e_high]
            if n >= best_low and n >= best_high:
                deviations.append(ranges_low[n - 1] - ranges_high[n - 1])
            if n < best_low and n < best_high:
                deviations.append(ranges_high[n - 1] - ranges_low[n - 1])
    return _result("sharpness_range_shape", _worst(deviations), FIG3_SLACK)


def run_all(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    return [
        check_witness_grid(),
        check_witness_sharp_corner(),
        check_separable_nonnegativity(seed),
        check_channel_closure_maximal(),
        check_channel_statistics(),
        check_decay_spot_values(),
        check_negativity_grid(),
        check_delta_negativity_identity(),
        check_delta_negativity_monotone(),
        check_threshold_protocol_count(),
        check_threshold_boundary(),
        check_equal_sharpness_maxima(),
        check_sharp_survival(),
        check_decomposition_roundtrip(),
        check_range_shape(),
    ]
