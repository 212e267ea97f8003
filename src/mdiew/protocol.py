"""Sequential witnessing by many observers on one half of a shared pair.

Alice keeps her qubit; observers B_1, B_2, ... measure the other share one
after another, each jointly with a fresh referee input.  Non-selective
unsharp measurement at sharpness lam shrinks the mixing weight by

    f(lam) = 1/2 [1 + (sqrt((1+3 lam)(1-lam)) + sqrt((3-3 lam)(3+lam)))/4],

so q_{i+1} = f(lam_i) q_i from q_1 = 1.  Two policies are studied: every
observer at their personal threshold sharpness, and all observers at one
common sharpness.

With x_i = q_i c, observer i's threshold is 1/x_i and the threshold policy
passes on x_{i+1} = g(x_i) = x_i f(1/x_i); the state enters only as x_1 = c.
Observer i succeeds only at a sharpness of at least 1/x_i, and f decreases on
[0, 1], so any successful measurement leaves at most g(x_i); g increases on
[1, 3], so no schedule ever gets ahead of the threshold one.  Measuring at the
threshold therefore maximizes the count over every sharpness schedule.
"""

from __future__ import annotations

import bisect
import math
from typing import TYPE_CHECKING

from .states import (
    ALPHA_MAX,
    _alphas_from_entanglement,
    _check_alpha,
    _checked,
    alpha_from_entanglement,
    entanglement_entropy,
    werner_strength,
)
from .witness import DETECTION_THRESHOLD, threshold_lambda

if TYPE_CHECKING:  # the array functions import NumPy where they run
    import numpy as np

# An exact-threshold measurement leaves the payoff at exactly zero, which the
# strict detection rule rejects; observer i counts as successful iff a valid
# sharpness exists at all, i.e. iff threshold(i) < 1 within this guard.
FEASIBILITY_TOL = 1e-12

LAMBDA_WINDOW = (1.0 / 3.0, 1.0)

# Lower end of fig3's entropy grid; the grid runs up to E = 1.
FIG3_E_MIN = 0.5

POLICY_THRESHOLD = "threshold"
POLICY_EQUAL = "equal-sharpness"


def _fields_repr(record) -> str:
    """`Name(field=value, ...)` over the record's slots, as a dataclass prints."""
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in record.__slots__)
    return f"{type(record).__name__}({fields})"


class BobRecord:
    """State diagnostics and outcome for one observer in the sequence.

    `witness_value` is the payoff the observer's success rule inspects: the
    sharp-limit (lam = 1) payoff of the pre-measurement state under the
    threshold policy, the payoff at the common sharpness under the
    equal-sharpness policy.

    A plain record with slots, so its fields are assignable and records
    compare by identity: a frozen record would pay one object.__setattr__
    per field, the largest cost of a short `run` query.
    """

    __slots__ = ("index", "lam", "q", "witness_value", "negativity", "success")

    def __init__(self, index: int, lam: float, q: float, witness_value: float,
                 negativity: float, success: bool) -> None:
        self.index = index
        self.lam = lam
        self.q = q
        self.witness_value = witness_value
        self.negativity = negativity
        self.success = success

    __repr__ = _fields_repr


class ProtocolTrace:
    """Full run of one policy: records stop at the first failing observer."""

    __slots__ = ("policy", "records", "n_success")

    def __init__(self, policy: str, records: tuple[BobRecord, ...], n_success: int) -> None:
        self.policy = policy
        self.records = records
        self.n_success = n_success

    __repr__ = _fields_repr


def f_of_lambda(lam: float) -> float:
    """Mixing-weight decay factor of one non-selective unsharp measurement."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"sharpness must lie in [0, 1]; got {lam}")
    return 0.5 * (1.0 + (math.sqrt((1.0 + 3.0 * lam) * (1.0 - lam))
                         + math.sqrt((3.0 - 3.0 * lam) * (3.0 + lam))) / 4.0)


def negativity_walpha(q, alpha) -> float | np.ndarray:
    """Closed-form negativity max{(q c - 1)/4, 0} of the noisy pair.

    Evaluated as q alpha sqrt(1 - alpha^2) - (1 - q)/4, which keeps its
    relative accuracy for tiny alpha, where q c - 1 rounds away.  The
    arguments broadcast, and scalars give a float.  Every q is checked
    before any alpha; the first bad entry, NaN included, raises its error.
    Each entry takes _negativity's operations in the same order.
    """
    import numpy as np

    qs, alphas = _checked(q, "q"), _checked(alpha, "alpha")
    values = qs * alphas * np.sqrt(1.0 - alphas * alphas) - (1.0 - qs) / 4.0
    # Python's max(value, 0.0) keeps `value` unless 0.0 exceeds it
    values = np.where(0.0 > values, 0.0, values)
    return values if values.ndim else float(values)


def _negativity(q: float, alpha: float, root: float) -> float:
    """negativity_walpha for one checked q and alpha, given root = sqrt(1 - alpha^2),
    without NumPy: the runner's records take it."""
    return max(q * alpha * root - (1.0 - q) / 4.0, 0.0)


def delta_negativity(negativity, lam) -> float | np.ndarray:
    """Negativity lost to one unsharp measurement.

    (1 + 4N)/4 (1 - f(lam)) while the remaining state stays entangled; the
    full N once the measurement destroys the entanglement (clip at N).  The
    arguments broadcast, and scalars give a float.  Every negativity is
    checked before any sharpness; the first bad entry, NaN included, raises
    its error.  Each f is f_of_lambda's, entry by entry.
    """
    import numpy as np

    negativities = _checked(negativity, "negativity")
    lams = np.asarray(lam, dtype=float)
    decays = np.reshape([f_of_lambda(x) for x in lams.ravel().tolist()], lams.shape)
    losses = (1.0 + 4.0 * negativities) / 4.0 * (1.0 - decays)
    losses = np.where(negativities < losses, negativities, losses)
    return losses if losses.ndim else float(losses)


def threshold_from_negativity(negativity: float) -> float:
    """Threshold sharpness 1/(4N + 1); N = 0 gives the infeasible boundary 1."""
    if not 0.0 <= negativity <= 0.5:
        raise ValueError(f"negativity must be in [0, 1/2]; got {negativity}")
    return 1.0 / (4.0 * negativity + 1.0)


def delta_negativity_at_threshold(negativity: float) -> float:
    """Negativity lost when measuring exactly at the threshold sharpness.

    Valid while the post-measurement state stays entangled.  Closed form
    [1 + 4N - sqrt(N(1+N)) - sqrt(3N(1+3N))]/8, identical to composing
    delta_negativity with threshold_from_negativity before the clip.
    """
    if not 0.0 < negativity <= 0.5:
        raise ValueError(f"negativity must be in (0, 1/2]; got {negativity}")
    return (1.0 + 4.0 * negativity
            - math.sqrt(negativity * (1.0 + negativity))
            - math.sqrt(3.0 * negativity * (1.0 + 3.0 * negativity))) / 8.0


def _observers(alpha: float, margin: float = 0.0, lam: float | None = None):
    """Yield (q, lam_i, payoff, success) for observers 1, 2, ... up to the first failure.

    With lam None each observer measures at their threshold 1/(q c) plus
    `margin` and succeeds iff that threshold is below 1 - FEASIBILITY_TOL;
    the payoff is the sharp-limit (lam = 1) value.  Otherwise everyone
    measures at `lam` and succeeds iff the payoff there is below
    -DETECTION_THRESHOLD.  Callers validate `margin` and `lam`.
    """
    strength = werner_strength(alpha)
    q = 1.0
    while True:
        if lam is None:
            threshold = threshold_lambda(q, alpha)
            success = threshold < 1.0 - FEASIBILITY_TOL
            lam_i = min(threshold + margin, 1.0)
            payoff = (1.0 - q * strength) / 16.0
        else:
            lam_i = lam
            payoff = (1.0 - lam * q * strength) / 16.0
            success = payoff < -DETECTION_THRESHOLD
        yield q, lam_i, payoff, success
        if not success:
            return
        q = f_of_lambda(lam_i) * q


def _trace(alpha: float, policy: str, steps) -> ProtocolTrace:
    """The records of `steps` from _observers, for an alpha the caller has checked."""
    root = math.sqrt(1.0 - alpha * alpha)
    records = tuple([
        BobRecord(index, lam_i, q, payoff, _negativity(q, alpha, root), success)
        for index, (q, lam_i, payoff, success) in enumerate(steps, 1)])
    return ProtocolTrace(policy, records, len(records) - 1)


def run_threshold_protocol(alpha: float, margin: float = 0.0) -> ProtocolTrace:
    """Every observer measures at their personal threshold plus `margin`.

    Observer i succeeds iff their threshold sharpness is strictly below 1;
    the trace ends with the first infeasible observer.  The recorded payoff
    is the sharp-limit value of the state observer i receives.
    """
    _check_alpha(alpha)  # before the margin check
    if not 0.0 <= margin < math.inf:
        raise ValueError(f"margin must be non-negative and finite; got {margin}")
    return _trace(alpha, POLICY_THRESHOLD, _observers(alpha, margin))


def run_equal_sharpness(alpha: float, lam: float) -> ProtocolTrace:
    """Every observer measures at the same sharpness `lam`.

    Observer i succeeds iff the payoff of their state at `lam` is strictly
    negative; the trace ends with the first failure.
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"common sharpness must lie in (0, 1]; got {lam}")
    _check_alpha(alpha)  # before _trace takes sqrt(1 - alpha^2)
    return _trace(alpha, POLICY_EQUAL, _observers(alpha, lam=lam))


# Smallest alpha whose threshold-policy count is n or more, for n = 1, ..., 14:
# the first float where the runner's rule (_observers) reaches n.  State-free,
# so shipped as literals; tests pin each by bisection down to adjacent floats.
_COUNT_EDGES = (
    2.499944695699696e-13, 0.06457799631805435, 0.11754009847653216,
    0.16447426458941805, 0.20773802690729581, 0.24865255387568064,
    0.288101078060725, 0.3267682402888721, 0.3652690871865642,
    0.4042498335544099, 0.4445122823605686, 0.48724615375507346,
    0.5346391382748162, 0.5923410886765756,
)

# First-observer threshold 1/c_15 that a fifteenth success would need: the step
# of the edges' backward orbit past the last edge, out of reach as 1/c >= 1/3.
# State-free, so shipped as a literal; tests pin it by the orbit's Newton solves.
_UNREACHED_THRESHOLD = 0.3325051238502447


def boundary_alpha_for_n(n_target: int) -> tuple[float, float]:
    """Smallest alpha whose threshold-policy count reaches n_target.

    Exact to adjacent floats: the count is n_target or more at the returned
    alpha and below it one float lower.  Returns (alpha, entanglement) at
    that edge, read from the state-free edge table.
    """
    if n_target < 1:
        raise ValueError(f"observer count must be positive; got {n_target}")
    if n_target > len(_COUNT_EDGES):
        raise ValueError(f"count never reaches {n_target}, even at alpha = {ALPHA_MAX}")
    alpha = _COUNT_EDGES[n_target - 1]
    return alpha, entanglement_entropy(alpha)


def _lambda_grid(step: float) -> list[float]:
    """Ascending grid 1 - step k inside (1/3, 1], anchored at 1 so the endpoint is exact."""
    lo, hi = LAMBDA_WINDOW
    count = int(math.floor((hi - lo) / step))
    lams = [hi - step * k for k in range(count, -1, -1)]
    # the lowest point rounds to lo or below for some steps; the next lies a step above
    return lams if lams[0] > lo else lams[1:]


def _log_gain(lam: float, level: int) -> float:
    """log(lam f(lam)^(level - 1)).

    Observer `level` succeeds at common sharpness lam iff lam f^(level-1) c
    exceeds 1 + 16 DETECTION_THRESHOLD, i.e. iff this exceeds
    log((1 + 16 DETECTION_THRESHOLD)/c).  For level >= 1 it is concave in
    lam, so each superlevel set is one interval.
    """
    return math.log(lam) + (level - 1) * math.log(f_of_lambda(lam))


# Maximizer of _log_gain over [1/3, 1] at levels 1, ..., 7, to adjacent floats
# (tests pin each by bisection on the slope); the state does not enter it.
# Level 7's peak gain is below every state's target, so no search reads further.
_PEAKS = (
    1.0, 0.8674707359729112, 0.7439617302096454, 0.6570849473024226,
    0.5932635070975607, 0.5441866861378104, 0.5050630441370485,
)


def _superlevel_windows(alphas) -> list[list[tuple[float, float]]]:
    """Per state of `alphas`, the intervals {lam in (1/3, 1] : count(lam) >= n}
    for n = 1, 2, ..., while nonempty.

    Count >= n iff observer n succeeds, since q falls along the sequence.
    An edge is the window end when the rule already holds there, else the
    root of the log-margin on its side of the peak, by bracketed Newton.
    The states are solved as one sweep: each solve starts from the
    extrapolation of the same edge in earlier states (_edge_start), so a
    one-state sweep keeps the cold starts and a smooth grid of states takes
    ~40% fewer evaluations.  A swept edge lands within a few ulps of the
    state's one-state edge, inside the same rounding-noise band around the
    exact root.
    """
    lo, hi = LAMBDA_WINDOW
    # (peak, gain at peak, gain at 1/3, gain at 1) per tabled level: state-free,
    # so built once per sweep, and each state only compares them to its target
    profiles = [(peak, _log_gain(peak, level), _log_gain(lo, level), _log_gain(hi, level))
                for level, peak in enumerate(_PEAKS, 1)]
    solved: dict[tuple[int, float], list[tuple[float, float]]] = {}
    sweep = []
    for alpha in alphas:
        log_target = math.log1p(16.0 * DETECTION_THRESHOLD) - math.log(werner_strength(alpha))
        windows = []
        level = 1
        while True:
            # a state that went past the table would raise here, not stop quietly
            peak, gain_peak, gain_lo, gain_hi = profiles[level - 1]
            if gain_peak <= log_target:
                break
            lo, hi = LAMBDA_WINDOW
            if gain_lo <= log_target:
                lo = _edge(solved, level, 1.0, log_target, lo, peak, lo)
            if gain_hi <= log_target:
                hi = _edge(solved, level, -1.0, log_target, peak, hi, 0.5 * (peak + hi))
            windows.append((lo, hi))
            level += 1
        sweep.append(windows)
    return sweep


def _edge(solved: dict, level: int, sign: float, log_target: float,
          lower: float, upper: float, start: float) -> float:
    """The edge of `level` on the side `sign` in (lower, upper], by bracketed Newton.

    `solved` maps (level, sign) to the (log-target, edge) pairs of the
    sweep's earlier solves of this edge, and gains this one.  The solve
    starts at `start` unless their extrapolation lies strictly inside the
    bracket; a fresh dict starts it cold.

    The residual is sign (_log_gain(x, level) - log_target), which rises
    through the edge: sign 1 left of the peak, sign -1 right of it (the
    slope tends to -inf at 1).  Its two square roots are taken once with
    the slope, and the gain takes f_of_lambda's operations in the same
    order.  A Newton step that leaves the bracket kept around the root, or
    a zero slope, is replaced by bisection; the solve stops when the step
    or the bracket falls to rounding size, the bracket where rounding noise
    in the residual keeps the steps from shrinking further.  The tests'
    generic callback solve, conftest.increasing_root on conftest.log_margin,
    takes the same iterates bit for bit.
    """
    past = solved.setdefault((level, sign), [])
    guess = _edge_start(past, log_target)
    x = guess if lower < guess < upper else start
    power = level - 1
    for _ in range(200):
        root_a = math.sqrt((1.0 + 3.0 * x) * (1.0 - x))
        root_b = math.sqrt((3.0 - 3.0 * x) * (3.0 + x))
        decay = 0.5 * (1.0 + (root_a + root_b) / 4.0)
        decay_slope = ((1.0 - 3.0 * x) / root_a - 3.0 * (1.0 + x) / root_b) / 8.0
        value = sign * (math.log(x) + power * math.log(decay) - log_target)
        slope = sign * (1.0 / x + power * decay_slope / decay)
        if value < 0.0:
            lower = x
        else:
            upper = x
        step = value / slope if slope else math.inf
        if abs(step) <= 4e-16 * x:
            x -= step
            break
        if upper - lower <= 4e-16 * x:
            break
        x = x - step if lower < x - step < upper else 0.5 * (lower + upper)
    past.append((log_target, x))
    return x


def _edge_start(past: list[tuple[float, float]], log_target: float) -> float:
    """The polynomial through the last three (log-target, edge) pairs of `past`
    (fewer while fewer are known) at `log_target`; NaN with none or with a
    repeated log-target."""
    if len(past) >= 3:
        (t0, e0), (t1, e1), (t2, e2) = past[-3:]
        if t0 == t1 or t1 == t2 or t0 == t2:
            return math.nan
        slope = (e2 - e1) / (t2 - t1)
        curve = (slope - (e1 - e0) / (t1 - t0)) / (t2 - t0)
        return e2 + (log_target - t2) * (slope + (log_target - t1) * curve)
    if len(past) == 2:
        (t1, e1), (t2, e2) = past
        if t1 == t2:
            return math.nan
        return e2 + (log_target - t2) * (e2 - e1) / (t2 - t1)
    return past[0][1] if past else math.nan


def _range_table(step: float) -> tuple[list[float], list[list[float]]]:
    """fig3's table: the entropy grid min(FIG3_E_MIN + k step, 1), ascending, and
    per entropy the measure of the sharpness set where the count equals exactly
    n, for n = 1 up to the grid's best count (zero past the state's own best),
    from one window sweep."""
    count = int((1.0 - FIG3_E_MIN) / step + 1e-9)
    entropies = [min(FIG3_E_MIN + k * step, 1.0) for k in range(count + 1)]
    sweep = _superlevel_windows([alpha_from_entanglement(e) for e in entropies])
    top = max(map(len, sweep))
    widths = []
    for windows in sweep:
        lengths = [hi - lo for lo, hi in windows] + [0.0] * (top + 1 - len(windows))
        widths.append([max(lengths[n] - lengths[n + 1], 0.0) for n in range(top)])
    return entropies, widths


def _count_table(step: float) -> list[tuple[float, float, int]]:
    """fig1's rows (alpha, entropy, threshold-policy count) over the ascending grid
    E = k step <= 1, plus the top count's exact edge row unless a grid row sits on it."""
    import numpy as np

    entropies = step * np.arange(1, int(1.0 / step) + 2)
    entropies = entropies[entropies <= 1.0]
    alphas, entropies = _alphas_from_entanglement(entropies).tolist(), entropies.tolist()
    # alpha rises with E far faster than its few ulps of error, so the list is
    # ascending; count >= n iff alpha >= edge n, a window open to the right
    counts = _window_counts(alphas, [(edge, math.inf) for edge in _COUNT_EDGES])
    rows = list(zip(alphas, entropies, counts))
    boundary_alpha, boundary_e = boundary_alpha_for_n(len(_COUNT_EDGES))
    top = bisect.bisect_left(alphas, boundary_alpha)
    if alphas[top:top + 1] != [boundary_alpha]:
        rows.insert(bisect.bisect_right(entropies, boundary_e),
                    (boundary_alpha, boundary_e, len(_COUNT_EDGES)))
    return rows


def n_max_over_lambda(alpha: float) -> tuple[int, list[tuple[float, float]]]:
    """Best equal-sharpness count over the window (1/3, 1].

    Returns the maximum count and the sharpness interval achieving it, as a
    one-element list (empty when no sharpness succeeds).
    """
    windows = _superlevel_windows([alpha])[0]
    return len(windows), windows[-1:]


def equal_sharpness_curve(alpha: float, step: float) -> list[tuple[float, int]]:
    """(lambda, count) over the ascending sharpness grid inside (1/3, 1].

    A grid point's count is the number of the state's superlevel windows
    that hold it, ends included, as for fig3's widths.  The grid holds
    ~(2/3)/step floats, so `step` is floored at the CLI's 1e-6.
    """
    if not 1e-6 <= step < math.inf:
        raise ValueError(f"grid step must be finite and at least 1e-06; got {step}")
    lams = _lambda_grid(step)
    return list(zip(lams, _window_counts(lams, _superlevel_windows([alpha])[0])))


def _window_counts(points: list[float], windows: list[tuple[float, float]]) -> list[int]:
    """Per point of the ascending `points`, how many of the nested closed
    `windows`, outer first, hold it."""
    # the bounds ascend, and the count between adjacent ones climbs to len(windows) and back
    starts = [bisect.bisect_left(points, lo) for lo, _ in windows]
    stops = [bisect.bisect_right(points, hi) for _, hi in reversed(windows)]
    bounds = [0] + starts + stops + [len(points)]
    levels = list(range(len(windows) + 1)) + list(range(len(windows) - 1, -1, -1))
    counts = []
    for n, start, stop in zip(levels, bounds, bounds[1:]):
        counts += [n] * (stop - start)
    return counts
