"""Deterministic property suite backing the `verify` CLI command.

Each check recomputes one of the package's oracle equivalences or structural
properties and reports its worst deviation against a pinned tolerance.  The
suite is seeded and finishes in tens of milliseconds.  The grid checks build
and validate their states as stacks (`states.werner_alpha`) and evaluate them
with the literal oracle kernels (`witness.mdi_ew_numeric`,
`witness.reduced_witness_operators`, `measurement.averaged_channel`,
`linalg.negativity`), each output equal to a one-state, one-sharpness call's
bit for bit.  Each closed form they compare against has one formula: f and c
come from the runner's own scalars, `protocol.f_of_lambda` and
`states.werner_strength`, entry by entry, so the channel rows check the f
that `run` steps with; the negativity is `protocol.negativity_walpha`, which
broadcasts the runner's formula.  Every deviation equals a per-point loop's.

Each pass builds each literal stack once, in `run_all`: the payoff stack of
the witness grid, whose (1, 1/sqrt(2), 1) entry the sharp-corner row reads,
and the channel stack of the statistics row, whose alpha = 1/sqrt(2) slice
the closure row reads.  The separable row scores its seeded samples with rows
of the same 101-point W(lam) grid that it certifies.  Nothing a pass computes
outlives it: the only process-wide caches are the read-only constants
`states.input_ensemble()` and `measurement.bell_projector()`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

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

_SEPARABLE_GRID = np.linspace(0.0, 1.0, 101)
# The samples' sharpness values, and their rows of _SEPARABLE_GRID, which hold them exactly.
_SEPARABLE_LAMS = (0.25, 0.5, 1.0)
_SEPARABLE_ROWS = [25, 50, 100]
_SEPARABLE_SAMPLES = 200
_SEPARABLE_TERMS = 4
_CERTIFIED_SAMPLES = 4
_RANGE_ENTROPY_STEP = 0.025

_CHANNEL_LAMS = (0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0)
_CHANNEL_QS = (0.25, 0.5, 1.0)
_CHANNEL_ALPHAS = (0.2, 0.4, states.ALPHA_MAX)
_CHANNEL_PROBES = (0.5, 1.0)


class CheckResult(NamedTuple):
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


def _pairs(qs, alphas) -> tuple[np.ndarray, np.ndarray]:
    """Every (q, alpha) pair of the two axes, q-major, as two flat arrays."""
    qs, alphas = np.meshgrid(qs, alphas, indexing="ij")
    return qs.ravel(), alphas.ravel()


def _result(name: str, deviation: float, tolerance: float, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(deviation <= tolerance), float(deviation),
                       float(tolerance), detail)


def _witness_payoffs() -> np.ndarray:
    """The literal payoffs that both witness rows read: one row per lam of _LAMS,
    one column per q-major (q, alpha) pair of _QS and _ALPHAS."""
    qs, alphas = _pairs(_QS, _ALPHAS)
    return witness.mdi_ew_numeric(states.werner_alpha(qs, alphas), witness.werner_beta(), _LAMS)


def check_witness_grid(payoffs: np.ndarray) -> CheckResult:
    """Full-trace payoffs (_witness_payoffs) vs closed form on the 5x5x5 (q, alpha, lam) grid."""
    qs, alphas = _pairs(_QS, _ALPHAS)
    closed = witness.mdi_ew_closed_form_unsharp(qs, alphas, _LAMS[:, None])
    return _result("witness_numeric_vs_closed_grid", _worst(np.abs(payoffs - closed)),
                   WITNESS_GRID_TOL)


def check_witness_sharp_corner(payoffs: np.ndarray) -> CheckResult:
    """Sharp maximal corner: payoff -1/8 for the pure singlet-weight state.

    It reads the last entry of _witness_payoffs: q = 1, alpha = 1/sqrt(2), lam = 1.
    """
    closed = witness.mdi_ew_closed_form_unsharp(1.0, states.ALPHA_MAX, 1.0)
    dev = _worst([abs(payoffs[-1, -1] + 0.125), abs(closed + 0.125)])
    return _result("witness_sharp_corner", dev, 1e-12)


def _random_separable_matrices(rng: np.random.Generator, samples: int) -> np.ndarray:
    """Validated stack of `samples` random mixtures of 1 to _SEPARABLE_TERMS pure product states.

    Three batched draws: each state's term count; _SEPARABLE_TERMS
    standard exponentials per state, kept for its first `count` terms and
    scaled to sum 1, which makes the weights Dirichlet(1, ..., 1); and the
    standard normal re and im parts of Alice's and Bob's vector in every
    term, normalised to Haar-random qubit states.
    """
    counts = rng.integers(1, _SEPARABLE_TERMS + 1, size=samples)
    draws = rng.standard_exponential((samples, _SEPARABLE_TERMS))
    draws *= np.arange(_SEPARABLE_TERMS) < counts[:, None]
    weights = draws / draws.sum(axis=1, keepdims=True)
    # vecs[state, term, factor] is Alice's or Bob's vector, from (re, im) pairs of normals.
    vecs = rng.standard_normal((samples, _SEPARABLE_TERMS, 2, 4)).view(complex)
    units = vecs / np.linalg.norm(vecs, axis=-1, keepdims=True)
    products = (units[..., 0, :, None] * units[..., 1, None, :]).reshape(samples, -1, 4)
    outers = products[..., :, None] * products.conj()[..., None, :]
    matrices = np.einsum("nk,nkij->nij", weights, outers)
    linalg.check_density_matrices(matrices)
    return matrices


def _separable_payoffs(seed: int, operators: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Seeded separable state matrices and their payoffs tr(W rho) for each W of `operators`.

    The payoff array has one row per operator and one column per state.
    """
    matrices = _random_separable_matrices(np.random.default_rng(seed), _SEPARABLE_SAMPLES)
    return matrices, np.einsum("lij,nji->ln", operators, matrices).real


def check_separable_nonnegativity(seed: int = DEFAULT_SEED) -> CheckResult:
    """Separable states never score below zero, at any sharpness.

    The bound is certified exactly: on a 101-point sharpness grid the 4x4
    reduced operator W(lam) matches its closed form
    (1 + lam)/16 I - (lam/4) |psi-><psi-|, and the spectrum of its partial
    transpose on B matches (1 - lam)/16 (three times) and (1 + 3 lam)/16,
    so W(lam)^T_B is PSD.  W is then decomposable, and
    tr(W rho) = tr(W^T_B rho^T_B) >= 0 on every PPT state, separable ones
    included.  The seeded states are the independent route: their payoffs,
    from the grid's W(lam) at _SEPARABLE_LAMS and checked against the
    literal 16-dim trace on the first few, must not go below zero.
    """
    beta = witness.werner_beta()
    singlet_projector = states.werner_alpha(1.0, states.ALPHA_MAX)[0]
    lams = _SEPARABLE_GRID
    operators = witness.reduced_witness_operators(lams, beta)
    matrices, payoffs = _separable_payoffs(seed, operators[_SEPARABLE_ROWS])
    grid = lams[:, None, None]
    closed = (1.0 + grid) / 16.0 * np.eye(4) - grid / 4.0 * singlet_projector
    spectra = np.linalg.eigvalsh(linalg.partial_transpose(operators))
    closed_spectra = np.stack([(1.0 - lams) / 16.0] * 3 + [(1.0 + 3.0 * lams) / 16.0], axis=-1)
    literal = witness.mdi_ew_numeric(matrices[:_CERTIFIED_SAMPLES], beta, _SEPARABLE_LAMS)
    certification = _worst([
        np.abs(operators - closed).max(),
        np.abs(spectra - closed_spectra).max(),
        np.abs(payoffs[:, :_CERTIFIED_SAMPLES] - literal).max()])
    lowest = float(payoffs.min())
    deviation = _worst([-lowest])
    return CheckResult("separable_nonnegativity",
                       bool(deviation <= SEPARABLE_BOUND and certification <= WITNESS_OPERATOR_TOL),
                       deviation, SEPARABLE_BOUND,
                       f"min value {lowest:.3e} over {_SEPARABLE_SAMPLES} seeded states; "
                       f"W(lam) and its T_B spectrum certified to {certification:.1e}")


def _channel_outputs() -> np.ndarray:
    """The channel stack that both channel rows read, built once per pass.

    The averaged channel of every (q, alpha) pair of _CHANNEL_QS and
    _CHANNEL_ALPHAS at every sharpness of _CHANNEL_LAMS: sharpness first,
    then q, then alpha.
    """
    qs, alphas = _pairs(_CHANNEL_QS, _CHANNEL_ALPHAS)
    return measurement.averaged_channel(states.werner_alpha(qs, alphas), _CHANNEL_LAMS)


def _channel_decays() -> np.ndarray:
    """f at each sharpness of _CHANNEL_LAMS, from the runner's own f_of_lambda."""
    return np.array([protocol.f_of_lambda(lam) for lam in _CHANNEL_LAMS])


def check_channel_closure_maximal(outs: np.ndarray) -> CheckResult:
    """At alpha = 1/sqrt(2) the channel maps the family onto itself, q -> f q.

    `outs` is the stack of _channel_outputs; the check reads its slice at
    alpha = 1/sqrt(2), the last entry of _CHANNEL_ALPHAS.  A decay that
    takes some f q out of [0, 1] fails the row, with the error as its detail.
    """
    name = "channel_closure_maximal_alpha"
    maximal = outs.reshape(len(_CHANNEL_LAMS), len(_CHANNEL_QS), len(_CHANNEL_ALPHAS), 4, 4)[:, :, -1]
    try:
        wants = states.werner_alpha((_channel_decays()[:, None] * _CHANNEL_QS).ravel(),
                                    states.ALPHA_MAX)
    except ValueError as error:
        return _result(name, math.inf, CHANNEL_TOL, detail=str(error))
    worst = float(np.abs(maximal.reshape(-1, 4, 4) - wants).max())
    return _result(name, worst, CHANNEL_TOL)


def check_channel_statistics(outs: np.ndarray) -> CheckResult:
    """The payoff of the channel output equals the closed form at q -> f q, all alpha.

    For alpha < 1/sqrt(2) the output state itself is NOT the white-noise
    family member (the invariant noise is rho_A (x) I/2), but every witness
    statistic follows the q-recursion exactly.  `outs` is the stack of
    _channel_outputs.  A decay that takes some f q out of [0, 1] fails the
    row, with the error as its detail.
    """
    name = "channel_statistics_general_alpha"
    qs, alphas = _pairs(_CHANNEL_QS, _CHANNEL_ALPHAS)
    # Axes: probe, channel sharpness, (q, alpha) point.
    numeric = witness.mdi_ew_numeric(outs, witness.werner_beta(), _CHANNEL_PROBES).reshape(
        len(_CHANNEL_PROBES), len(_CHANNEL_LAMS), len(qs))
    try:
        closed = witness.mdi_ew_closed_form_unsharp(_channel_decays()[:, None] * qs, alphas,
                                                    np.array(_CHANNEL_PROBES)[:, None, None])
    except ValueError as error:
        return _result(name, math.inf, CHANNEL_TOL, detail=str(error))
    return _result(name, _worst(np.abs(numeric - closed)), CHANNEL_TOL)


def check_decay_spot_values() -> CheckResult:
    """f(0) = 1, f(1) = 1/2, f(1/3) = 0.9670862 within 1e-6."""
    dev = _worst([abs(protocol.f_of_lambda(0.0) - 1.0),
                  abs(protocol.f_of_lambda(1.0) - 0.5),
                  abs(protocol.f_of_lambda(1.0 / 3.0) - 0.9670862)])
    return _result("decay_factor_spot_values", dev, 1e-6)


def check_negativity_grid() -> CheckResult:
    """Closed-form negativity vs the partial-transpose eigenvalue oracle, 20x20."""
    qs, alphas = _pairs(np.linspace(0.0, 1.0, 20), np.linspace(0.05, states.ALPHA_MAX, 20))
    oracles = linalg.negativity(states.werner_alpha(qs, alphas))
    deviations = np.abs(protocol.negativity_walpha(qs, alphas) - oracles)
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
    losses = protocol.delta_negativity(np.linspace(0.0, 0.5, 11)[:, None],
                                       np.linspace(0.0, 1.0, 101))
    # The loss one sharpness earlier minus the loss: positive where the loss falls.
    drops = losses[:, :-1] - losses[:, 1:]
    return _result("delta_negativity_monotone_in_lambda",
                   _worst(np.concatenate([-losses, drops], axis=1)), 1e-15)


def check_threshold_protocol_count() -> CheckResult:
    """Fourteen observers succeed at maximal initial entanglement.

    The detail also gives why no state serves more: the strength c_15 that
    a fifteenth observer would need exceeds the largest, c(1/sqrt(2)) = 3.
    """
    count = protocol.run_threshold_protocol(states.ALPHA_MAX).n_success
    margin = 1.0 / protocol._UNREACHED_THRESHOLD - states.werner_strength(states.ALPHA_MAX)
    return _result("threshold_protocol_count", abs(count - 14), 0.5, detail=(
        f"n_success = {count}; c_{len(protocol._COUNT_EDGES) + 1} - 3 = {margin:.2e}"))


def check_threshold_boundary() -> CheckResult:
    """The count-14 region starts at entanglement 0.9349 within 5e-4.

    The count edges are shipped literals, so the runner must also count n
    on edge n and n - 1 one float below it, for every n = 1, ..., 14; the
    detail names the first edge where it does not.
    """
    _, entropy = protocol.boundary_alpha_for_n(14)
    detail = f"boundary E = {entropy:.6f}"
    for n, edge in enumerate(protocol._COUNT_EDGES, 1):
        counts = [protocol.run_threshold_protocol(alpha).n_success
                  for alpha in (edge, math.nextafter(edge, 0.0))]
        if counts != [n, n - 1]:
            return _result("threshold_boundary_entanglement", np.inf, 5e-4, detail=(
                f"{detail}; runner counts {counts} at edge {n} and one float below"))
    return _result("threshold_boundary_entanglement", abs(entropy - 0.9349), 5e-4, detail=detail)


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
    products = witness.input_products()
    beta = witness.werner_beta()
    target = sum(beta.beta[s, t] * products[s, t] for s in range(4) for t in range(4))
    recovered = witness.decompose_witness(target)
    dev = float(np.abs(recovered.beta - beta.beta).max())
    identity_beta = witness.decompose_witness(np.eye(4))
    recomposed = sum(identity_beta.beta[s, t] * products[s, t]
                     for s in range(4) for t in range(4))
    dev = _worst([dev, np.abs(recomposed - np.eye(4)).max()])
    return _result("witness_decomposition_roundtrip", dev, 1e-10)


def check_range_shape() -> CheckResult:
    """Shape of the sharpness-range curves against the initial entanglement.

    For the best achievable count the range shrinks as entanglement drops;
    for every smaller count it grows as entanglement drops.  A row with no
    positive width has no best count and fails the check, naming its entropy.
    """
    entropies, table = protocol._range_table(_RANGE_ENTROPY_STEP)
    bests = [max((n for n, width in enumerate(widths, 1) if width > 0), default=0)
             for widths in table]
    if 0 in bests:
        return _result("sharpness_range_shape", math.inf, FIG3_SLACK, detail=(
            f"no count has a positive width at E = {entropies[bests.index(0)]:g}"))
    deviations = []
    for low, high, best_low, best_high in zip(table, table[1:], bests, bests[1:]):
        for n, (width_low, width_high) in enumerate(zip(low, high), 1):
            if n >= best_low and n >= best_high:
                deviations.append(width_low - width_high)
            if n < best_low and n < best_high:
                deviations.append(width_high - width_low)
    return _result("sharpness_range_shape", _worst(deviations), FIG3_SLACK)


def run_all(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    payoffs, channel_outputs = _witness_payoffs(), _channel_outputs()
    return [
        check_witness_grid(payoffs),
        check_witness_sharp_corner(payoffs),
        check_separable_nonnegativity(seed),
        check_channel_closure_maximal(channel_outputs),
        check_channel_statistics(channel_outputs),
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
