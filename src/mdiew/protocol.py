"""Sequential witnessing by many observers on one half of a shared pair.

Alice keeps her qubit; observers B_1, B_2, ... measure the other share one
after another, each jointly with a fresh referee input.  Non-selective
unsharp measurement at sharpness lam shrinks the mixing weight by

    f(lam) = 1/2 [1 + (sqrt((1+3 lam)(1-lam)) + sqrt((3-3 lam)(3+lam)))/4],

so q_{i+1} = f(lam_i) q_i from q_1 = 1.  Two policies are studied: every
observer at their personal threshold sharpness (maximizes the count), and
all observers at one common sharpness.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .states import alpha_from_entanglement, entanglement_entropy, werner_strength
from .witness import DETECTION_THRESHOLD, mdi_ew_closed_form_unsharp, threshold_lambda

# An exact-threshold measurement leaves the payoff at exactly zero, which the
# strict detection rule rejects; observer i counts as successful iff a valid
# sharpness exists at all, i.e. iff threshold(i) < 1 within this guard.
FEASIBILITY_TOL = 1e-12

LAMBDA_WINDOW = (1.0 / 3.0, 1.0)
ENDPOINT_REFINE_TOL = 1e-6

POLICY_THRESHOLD = "threshold"
POLICY_EQUAL = "equal-sharpness"


@dataclass(frozen=True)
class BobRecord:
    """State diagnostics and outcome for one observer in the sequence.

    `witness_value` is the payoff the observer's success rule inspects: the
    sharp-limit (lam = 1) payoff of the pre-measurement state under the
    threshold policy, the payoff at the common sharpness under the
    equal-sharpness policy.
    """

    index: int
    lam: float
    q: float
    witness_value: float
    negativity: float
    success: bool


@dataclass(frozen=True)
class ProtocolTrace:
    """Full run of one policy: records stop at the first failing observer."""

    alpha: float
    policy: str
    policy_param: float
    records: tuple[BobRecord, ...]
    n_success: int


def f_of_lambda(lam: float) -> float:
    """Mixing-weight decay factor of one non-selective unsharp measurement."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"sharpness must lie in [0, 1]; got {lam}")
    return 0.5 * (1.0 + (math.sqrt((1.0 + 3.0 * lam) * (1.0 - lam))
                         + math.sqrt((3.0 - 3.0 * lam) * (3.0 + lam))) / 4.0)


def negativity_walpha(q: float, alpha: float) -> float:
    """Closed-form negativity max{(q c - 1)/4, 0} of the noisy pair."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1]; got {q}")
    return max((q * werner_strength(alpha) - 1.0) / 4.0, 0.0)


def delta_negativity(negativity: float, lam: float) -> float:
    """Negativity lost to one unsharp measurement.

    (1 + 4N)/4 (1 - f(lam)) while the remaining state stays entangled; the
    full N once the measurement destroys the entanglement (clip at N).
    """
    if negativity < 0.0:
        raise ValueError(f"negativity must be non-negative; got {negativity}")
    return min((1.0 + 4.0 * negativity) / 4.0 * (1.0 - f_of_lambda(lam)), negativity)


def threshold_from_negativity(negativity: float) -> float:
    """Threshold sharpness 1/(4N + 1); N = 0 gives the infeasible boundary 1."""
    if negativity < 0.0:
        raise ValueError(f"negativity must be non-negative; got {negativity}")
    return 1.0 / (4.0 * negativity + 1.0)


def delta_negativity_at_threshold(negativity: float) -> float:
    """Negativity lost when measuring exactly at the threshold sharpness.

    Valid while the post-measurement state stays entangled.  Closed form
    [1 + 4N - sqrt(N(1+N)) - sqrt(3N(1+3N))]/8, identical to composing
    delta_negativity with threshold_from_negativity before the clip.
    """
    if negativity <= 0.0:
        raise ValueError(f"negativity must be positive; got {negativity}")
    return (1.0 + 4.0 * negativity
            - math.sqrt(negativity * (1.0 + negativity))
            - math.sqrt(3.0 * negativity * (1.0 + 3.0 * negativity))) / 8.0


def _sharp_payoff(q: float, alpha: float) -> float:
    return mdi_ew_closed_form_unsharp(q, alpha, 1.0)


def run_threshold_protocol(alpha: float, margin: float = 0.0) -> ProtocolTrace:
    """Every observer measures at their personal threshold plus `margin`.

    Observer i succeeds iff their threshold sharpness is strictly below 1;
    the trace ends with the first infeasible observer.  The recorded payoff
    is the sharp-limit value of the state observer i receives.
    """
    werner_strength(alpha)  # validates the range before the loop
    if margin < 0.0:
        raise ValueError(f"margin must be non-negative; got {margin}")
    records: list[BobRecord] = []
    q = 1.0
    index = 1
    while True:
        lam_th = threshold_lambda(q, alpha)
        feasible = lam_th < 1.0 - FEASIBILITY_TOL
        lam_used = min(lam_th + margin, 1.0)
        records.append(BobRecord(
            index=index,
            lam=lam_used,
            q=q,
            witness_value=_sharp_payoff(q, alpha),
            negativity=negativity_walpha(q, alpha),
            success=feasible,
        ))
        if not feasible:
            break
        q = f_of_lambda(lam_used) * q
        index += 1
    n_success = sum(record.success for record in records)
    return ProtocolTrace(float(alpha), POLICY_THRESHOLD, float(margin),
                         tuple(records), n_success)


def run_equal_sharpness(alpha: float, lam: float) -> ProtocolTrace:
    """Every observer measures at the same sharpness `lam`.

    Observer i succeeds iff the payoff of their state at `lam` is strictly
    negative; the trace ends with the first failure.
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"common sharpness must lie in (0, 1]; got {lam}")
    werner_strength(alpha)  # validates the range before the loop
    records: list[BobRecord] = []
    q = 1.0
    index = 1
    while True:
        value = mdi_ew_closed_form_unsharp(q, alpha, lam)
        success = value < -DETECTION_THRESHOLD
        records.append(BobRecord(
            index=index,
            lam=lam,
            q=q,
            witness_value=value,
            negativity=negativity_walpha(q, alpha),
            success=success,
        ))
        if not success:
            break
        q = f_of_lambda(lam) * q
        index += 1
    n_success = sum(record.success for record in records)
    return ProtocolTrace(float(alpha), POLICY_EQUAL, float(lam),
                         tuple(records), n_success)


def threshold_success_count(alpha: float) -> int:
    """Lean success counter of the threshold-schedule policy."""
    strength = werner_strength(alpha)
    q, count = 1.0, 0
    while q * strength > 1.0 / (1.0 - FEASIBILITY_TOL):
        lam = 1.0 / (q * strength)
        q = f_of_lambda(lam) * q
        count += 1
    return count


def equal_sharpness_count(alpha: float, lam: float) -> int:
    """Lean success counter of the equal-sharpness policy."""
    strength = werner_strength(alpha)
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"common sharpness must lie in (0, 1]; got {lam}")
    decay = f_of_lambda(lam)
    q, count = 1.0, 0
    while (1.0 - lam * q * strength) / 16.0 < -DETECTION_THRESHOLD:
        count += 1
        q *= decay
    return count


def max_bobs_vs_entanglement(alphas: Iterable[float]) -> list[tuple[float, float, int]]:
    """Rows (alpha, entanglement, threshold-policy count) for an alpha grid."""
    rows = []
    for alpha in alphas:
        rows.append((float(alpha), entanglement_entropy(alpha), threshold_success_count(alpha)))
    return rows


def boundary_alpha_for_n(n_target: int, e_lo: float = 1e-6, e_hi: float = 1.0,
                         e_tol: float = 1e-6) -> tuple[float, float]:
    """Smallest entanglement whose threshold-policy count reaches n_target.

    Bisection on the pure-state family; the count is non-decreasing in the
    entanglement.  Returns (alpha, entanglement) at the located boundary.
    """
    if threshold_success_count(alpha_from_entanglement(e_hi)) < n_target:
        raise ValueError(f"count never reaches {n_target} below E = {e_hi}")
    if threshold_success_count(alpha_from_entanglement(e_lo)) >= n_target:
        raise ValueError(f"count already reaches {n_target} at E = {e_lo}")
    lo, hi = e_lo, e_hi
    while hi - lo > e_tol:
        mid = 0.5 * (lo + hi)
        if threshold_success_count(alpha_from_entanglement(mid)) >= n_target:
            hi = mid
        else:
            lo = mid
    return alpha_from_entanglement(hi), hi


def _lambda_grid(step: float) -> np.ndarray:
    """Ascending grid inside (1/3, 1], anchored at 1 so the endpoint is exact."""
    lo, hi = LAMBDA_WINDOW
    count = int(math.floor((hi - lo) / step))
    return (hi - step * np.arange(count + 1))[::-1]


def _counts_on_grid(alpha: float, lams: np.ndarray) -> np.ndarray:
    """equal_sharpness_count evaluated elementwise, by vectorized iteration."""
    strength = werner_strength(alpha)
    decay = 0.5 * (1.0 + (np.sqrt((1.0 + 3.0 * lams) * (1.0 - lams))
                          + np.sqrt((3.0 - 3.0 * lams) * (3.0 + lams))) / 4.0)
    q = np.ones_like(lams)
    counts = np.zeros(lams.shape, dtype=int)
    while True:
        alive = (1.0 - lams * q * strength) / 16.0 < -DETECTION_THRESHOLD
        if not alive.any():
            return counts
        counts += alive
        q = np.where(alive, q * decay, q)


def _refine_boundary(alpha: float, level: int, lo: float, hi: float) -> float:
    """Bisect the edge of {lam : count(lam) >= level} between two grid points."""
    lo_sat = equal_sharpness_count(alpha, lo) >= level if lo > LAMBDA_WINDOW[0] else False
    while hi - lo > ENDPOINT_REFINE_TOL:
        mid = 0.5 * (lo + hi)
        if (equal_sharpness_count(alpha, mid) >= level) == lo_sat:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@functools.lru_cache(maxsize=64)
def _count_grid(alpha: float, step: float) -> tuple[np.ndarray, np.ndarray]:
    """(lams, counts) on the sharpness grid at `step`; read-only, shared by callers."""
    lams = _lambda_grid(step)
    counts = _counts_on_grid(alpha, lams)
    lams.flags.writeable = False
    counts.flags.writeable = False
    return lams, counts


def _true_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Inclusive (first, last) index pairs of the maximal runs of True in `mask`."""
    padded = np.concatenate(([False], mask, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return list(zip(edges[0::2].tolist(), (edges[1::2] - 1).tolist()))


@functools.lru_cache(maxsize=128)
def _superlevel_runs(alpha: float, level: int, step: float) -> tuple[tuple[float, float], ...]:
    """Maximal intervals of {lam in (1/3, 1] : count(lam) >= level}.

    Grid scan at `step` resolution, endpoints bisection-refined to 1e-6.
    Features narrower than the scan step can be missed by construction.
    """
    lams, counts = _count_grid(alpha, step)
    last = len(lams) - 1
    runs: list[tuple[float, float]] = []
    for i, j in _true_runs(counts >= level):
        lo = LAMBDA_WINDOW[0] if i == 0 else _refine_boundary(alpha, level, lams[i - 1], lams[i])
        hi = lams[j] if j == last else _refine_boundary(alpha, level, lams[j], lams[j + 1])
        runs.append((lo, hi))
    return tuple(runs)


def _superlevel_measure(alpha: float, level: int, step: float) -> float:
    return sum(hi - lo for lo, hi in _superlevel_runs(alpha, level, step))


def n_max_over_lambda(alpha: float, step: float = 1e-3) -> tuple[int, list[tuple[float, float]]]:
    """Best equal-sharpness count over the window (1/3, 1].

    Returns the maximum count and the sharpness interval(s) achieving it,
    endpoints refined to 1e-6.
    """
    if step > 1e-3:
        raise ValueError(f"grid step must be at most 1e-3; got {step}")
    _, counts = _count_grid(alpha, step)
    best = int(counts.max())
    if best == 0:
        return 0, []
    return best, list(_superlevel_runs(alpha, best, step))


def lambda_range(alpha: float, n: int, step: float = 1e-4) -> float:
    """Measure of the sharpness set where the count equals exactly n.

    Zero when no sharpness in the window achieves the count.
    """
    if n < 1:
        raise ValueError(f"observer count must be positive; got {n}")
    measure = (_superlevel_measure(alpha, n, step)
               - _superlevel_measure(alpha, n + 1, step))
    return max(measure, 0.0)


def lambda_range_table(alpha: float, step: float = 1e-4) -> list[tuple[int, float]]:
    """(n, lambda_range) for every achievable count of this state."""
    _, counts = _count_grid(alpha, step)
    best = int(counts.max())
    return [(n, lambda_range(alpha, n, step)) for n in range(1, best + 1)]


def equal_sharpness_curve(alpha: float, step: float = 1e-3) -> list[tuple[float, int]]:
    """(lambda, count) over the ascending sharpness grid inside (1/3, 1]."""
    lams = _lambda_grid(step)
    counts = _counts_on_grid(alpha, lams)
    return [(float(lam), int(count)) for lam, count in zip(lams, counts)]
