import math

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from mdiew import verify
from mdiew.linalg import HERMITICITY_ATOL, PSD_ATOL, TRACE_ATOL
from mdiew.protocol import FEASIBILITY_TOL, LAMBDA_WINDOW
from mdiew.states import (
    _LN2,
    ALPHA_MAX,
    _checked,
    werner_alpha,
    werner_strength,
)
from mdiew.witness import DETECTION_THRESHOLD

settings.register_profile(
    "suite",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(20240809)


def random_density_matrix(rng, dim):
    """Random full-rank density matrix via a Ginibre square."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / rho.trace()


def werner_and_random_states(rng, size):
    """Stack of `size` two-qubit states, alternating Werner-alpha and random full-rank ones."""
    states = []
    for index in range(size):
        if index % 2:
            states.append(random_density_matrix(rng, 4))
        else:
            states.append(werner_alpha(rng.uniform(), rng.uniform(0.01, ALPHA_MAX))[0])
    return np.stack(states)


def pure_state(alpha):
    """The unit vector alpha |01> - sqrt(1 - alpha^2) |10> (test reference)."""
    return np.array([0.0, alpha, -math.sqrt(1.0 - alpha * alpha), 0.0], dtype=complex)


def random_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def _require_hermitian(matrix, caller):
    """Raise ValueError unless `matrix` equals its conjugate transpose within 1e-12 (test oracle)."""
    matrix = np.asarray(matrix)
    if not np.abs(matrix - matrix.conj().T).max() <= HERMITICITY_ATOL:
        raise ValueError(f"{caller} requires a Hermitian matrix")


def check_density_matrices_by_eigvalsh(matrices):
    """linalg.check_density_matrices with positivity decided by eigvalsh alone (test oracle).

    The same three checks in the same order, raising the same ValueError
    messages, without the shifted-Cholesky certificate.
    """
    def first(flags):
        index = int(np.argmax(flags))
        return index, (f" (stack index {index})" if len(matrices) > 1 else "")

    # A NaN or infinite entry (inf - inf) makes the asymmetry NaN, which fails the check.
    with np.errstate(invalid="ignore"):
        asymmetry = np.abs(matrices - matrices.conj().swapaxes(-2, -1)).max(axis=(-2, -1))
        not_hermitian = ~(asymmetry <= HERMITICITY_ATOL)
    if not_hermitian.any():
        _, where = first(not_hermitian)
        raise ValueError("density operator is not Hermitian within 1e-12" + where)
    traces = np.trace(matrices, axis1=-2, axis2=-1)
    off_trace = np.abs(traces - 1.0) > TRACE_ATOL
    if off_trace.any():
        index, where = first(off_trace)
        raise ValueError(f"density operator trace {traces[index]} is not 1 within 1e-12" + where)
    lows = np.linalg.eigvalsh(matrices)[:, 0]
    negative = lows < -PSD_ATOL
    if negative.any():
        index, where = first(negative)
        raise ValueError(f"density operator has negative eigenvalue {float(lows[index])}" + where)


def min_eigenvalue(matrix):
    """Smallest eigenvalue of a Hermitian matrix (test oracle)."""
    _require_hermitian(matrix, "min_eigenvalue")
    return float(np.linalg.eigvalsh(matrix)[0])


def partial_trace(matrix, keep):
    """Reduced 2x2 state on qubit `keep` ("A" or "B") of a 4x4 matrix on (A, B) (test oracle)."""
    if keep not in ("A", "B"):
        raise ValueError(f"unknown qubit {keep!r}; have 'A' and 'B'")
    tensor_form = np.asarray(matrix).reshape(2, 2, 2, 2)
    if keep == "A":
        return tensor_form.trace(axis1=1, axis2=3)
    return tensor_form.trace(axis1=0, axis2=2)


def herm_sqrt(matrix):
    """Positive square root of a Hermitian PSD matrix via eigendecomposition (test oracle).

    Rounding can leave the eigenvalues of a PSD matrix slightly negative:
    those in [-PSD_ATOL, 0) are set to zero, and any below -PSD_ATOL raise
    ValueError.  Every non-negative eigenvalue keeps its own square root.
    """
    matrix = np.asarray(matrix, dtype=complex)
    _require_hermitian(matrix, "herm_sqrt")
    eigvals, eigvecs = np.linalg.eigh(matrix)
    if eigvals[0] < -PSD_ATOL:
        raise ValueError(f"herm_sqrt requires a PSD matrix; min eigenvalue {eigvals[0]}")
    eigvals = np.where(eigvals < 0.0, 0.0, eigvals)
    return (eigvecs * np.sqrt(eigvals)) @ eigvecs.conj().T


def generic_root_tolerance(lam, smallest_eigenvalue):
    """Bound on |unsharp-effect root - herm_sqrt| that follows float64 conditioning (test oracle).

    Exactly 1e-12 for 1 - lam >= 1e-6.  Closer to lam = 1 the effect's
    smallest eigenvalue mu sinks below the rounding of its 0.5-scale entries,
    so any eigen-route's root carries an error ~ eps/sqrt(mu); the measured
    worst case is 0.88 eps/sqrt(max(mu, eps)), bounded here with c = 4.
    """
    eps = np.finfo(float).eps
    if 1.0 - lam >= 1e-6:
        return 1e-12
    return 1e-12 + 4.0 * eps / np.sqrt(max(smallest_eigenvalue, eps))


def mp_alpha_from_entanglement(entropy):
    """alpha with H(alpha^2) = entropy, as a 50-digit mpmath number.

    The unknown is u = log(alpha^2), so alpha^2 far below the float range is
    no problem, and (1 - x) log(1 - x) uses log1p: at 50 digits without it
    the term loses x entirely below x ~ 1e-50.  Forty bisection halvings on
    u in [-800, -log 2] bracket the unique root; the secant method then
    polishes it, and findroot raises unless the residual is at working
    precision.
    """
    with mpmath.workdps(50):
        target = mpmath.mpf(entropy)
        if target == 1:
            return mpmath.sqrt(mpmath.mpf(1) / 2)

        def excess(u):
            x = mpmath.exp(u)
            return (-x * u - (1 - x) * mpmath.log1p(-x)) / mpmath.log(2) - target

        lo, hi = mpmath.mpf(-800), -mpmath.log(2)
        for _ in range(40):
            mid = (lo + hi) / 2
            if excess(mid) < 0:
                lo = mid
            else:
                hi = mid
        return mpmath.exp(mpmath.findroot(excess, (lo, hi)) / 2)


def increasing_root(func, lower, upper, x):
    """Root in (lower, upper] of an increasing func with func(upper) >= 0 (test oracle).

    The generic callback solve that the library's Newton loops (protocol._edge
    and the scalar and array entropy inverses) write out for their own
    residuals, each with these iterates bit for bit.  func(x) returns
    (value, slope).  Newton steps start at x in the bracket; a step that
    leaves the bracket kept around the root, or a zero slope, is replaced
    by bisection.  The solve stops when the step or the bracket falls to
    rounding size; the bracket stops it where rounding noise in func keeps
    the steps from shrinking further.
    """
    for _ in range(200):
        value, slope = func(x)
        if value < 0.0:
            lower = x
        else:
            upper = x
        step = value / slope if slope else math.inf
        if abs(step) <= 4e-16 * x:
            return x - step
        if upper - lower <= 4e-16 * x:
            return x
        x = x - step if lower < x - step < upper else 0.5 * (lower + upper)
    return x


def log_margin(level, log_target, sign, lam):
    """sign (protocol._log_gain(lam, level) - log_target) and its derivative in lam, for lam < 1.

    The residual of one window-edge solve as a callback for increasing_root
    (test oracle), with the state and the side bound first: sign 1 rises
    through the edge left of the peak, sign -1 right of it (the slope tends
    to -inf at 1).  The two square roots are taken once; the gain takes
    f_of_lambda's operations in the same order, so with log_target 0 and
    sign 1 the value equals _log_gain bit for bit, and sign -1 gives
    log_target - gain exactly.
    """
    root_a = math.sqrt((1.0 + 3.0 * lam) * (1.0 - lam))
    root_b = math.sqrt((3.0 - 3.0 * lam) * (3.0 + lam))
    decay = 0.5 * (1.0 + (root_a + root_b) / 4.0)
    decay_slope = ((1.0 - 3.0 * lam) / root_a - 3.0 * (1.0 + lam) / root_b) / 8.0
    return (sign * (math.log(lam) + (level - 1) * math.log(decay) - log_target),
            sign * (1.0 / lam + (level - 1) * decay_slope / decay))


def alpha_from_entanglement_by_callbacks(entropy):
    """states.alpha_from_entanglement as increasing_root on each branch's residual (test oracle).

    The residual callbacks the scalar inverse's inline loop replaced, with
    the same brackets and starts.
    """
    if entropy == 1.0:
        return ALPHA_MAX
    if entropy < 0.5:
        target = math.sqrt(entropy) * math.sqrt(_LN2)

        def sqrt_entropy(alpha):
            t = alpha * alpha
            log_alpha = math.log(alpha)
            log1p_t = math.log1p(-t)
            root_h = math.sqrt(-2.0 * log_alpha - (1.0 - t) * (log1p_t / t if t else -1.0))
            return alpha * root_h - target, (log1p_t - 2.0 * log_alpha) / root_h

        return increasing_root(sqrt_entropy, 0.0, target, target)
    gap = 1.0 - entropy

    def entropy_gap(y):
        atanh = math.atanh(y)
        return (2.0 * y * atanh + math.log1p(-y * y)) / (2.0 * _LN2) - gap, atanh / _LN2

    start = math.sqrt(2.0 * _LN2 * gap)
    return math.sqrt(0.5 * (1.0 - increasing_root(entropy_gap, 0.0, start, start)))


def increasing_roots(func, upper):
    """increasing_root elementwise, each root in (0, upper] and started at upper (test oracle).

    func(x, index) returns (values, slopes) at the points x of the entries
    `index`.  Every entry takes the scalar solve's steps and stopping rules,
    and an entry leaves the loop, compacted away, once it stops.
    """
    roots = np.empty_like(upper)
    index = np.arange(len(upper))
    x, lower = upper, np.zeros_like(upper)
    for _ in range(200):
        if not len(index):
            break
        value, slope = func(x, index)
        below = value < 0.0
        lower = np.where(below, x, lower)
        upper = np.where(below, upper, x)
        step = np.divide(value, slope, out=np.full_like(value, math.inf), where=slope != 0.0)
        tol = 4e-16 * x
        converged = np.abs(step) <= tol
        roots[index[converged]] = (x - step)[converged]
        pinched = ~converged & (upper - lower <= tol)
        roots[index[pinched]] = x[pinched]
        newton = x - step
        x = np.where((lower < newton) & (newton < upper), newton, 0.5 * (lower + upper))
        going = ~(converged | pinched)
        index, x, lower, upper = index[going], x[going], lower[going], upper[going]
    roots[index] = x
    return roots


def alphas_from_entanglement_by_branches(entropies):
    """states._alphas_from_entanglement as one increasing_roots solve per branch (test oracle).

    The two-branch array inverse that the one-loop solve replaced, for
    entropies in (0, 1].
    """
    entropies = np.asarray(entropies, dtype=float)
    alphas = np.full(entropies.shape, ALPHA_MAX)
    low = entropies < 0.5
    if low.any():
        target = np.sqrt(entropies[low]) * math.sqrt(_LN2)

        def sqrt_entropy(alpha, index):
            t = alpha * alpha
            log_alpha = np.log(alpha)
            log1p_t = np.log1p(-t)
            ratio = np.divide(log1p_t, t, out=np.full_like(t, -1.0), where=t != 0.0)
            root_h = np.sqrt(-2.0 * log_alpha - (1.0 - t) * ratio)
            return alpha * root_h - target[index], (log1p_t - 2.0 * log_alpha) / root_h

        alphas[low] = increasing_roots(sqrt_entropy, target)
    high = (entropies >= 0.5) & (entropies < 1.0)
    if high.any():
        gap = 1.0 - entropies[high]

        def entropy_gap(y, index):
            atanh = np.arctanh(y)
            return (2.0 * y * atanh + np.log1p(-y * y)) / (2.0 * _LN2) - gap[index], atanh / _LN2

        y = increasing_roots(entropy_gap, np.sqrt(2.0 * _LN2 * gap))
        alphas[high] = np.sqrt(0.5 * (1.0 - y))
    return alphas


def random_separable_two_qubit(rng):
    """A random mixture of 1 to 4 pure product states: one 4x4 sample of verify's sampler."""
    return verify._random_separable_matrices(rng, 1)[0]


def assert_bit_identical(array, scalars):
    """`array` holds the scalar results: == entry by entry, and zeros with the same sign."""
    scalars = np.array(scalars, dtype=float)
    assert array.shape == scalars.shape
    assert np.array_equal(array, scalars)
    assert np.array_equal(np.copysign(1.0, array), np.copysign(1.0, scalars))


def decays(lams):
    """f_of_lambda's formula over an array of sharpness values (test oracle)."""
    return 0.5 * (1.0 + (np.sqrt((1.0 + 3.0 * lams) * (1.0 - lams))
                         + np.sqrt((3.0 - 3.0 * lams) * (3.0 + lams))) / 4.0)


def threshold_success_count(alpha):
    """Success count of the threshold-schedule policy as an array recursion (test oracle).

    A scalar alpha gives an int; an array of alphas gives an int array of
    the same shape, each entry equal to the scalar count.  The first alpha
    outside (0, 1/sqrt(2)] raises.
    """
    alphas = _checked(np.ravel(alpha), "alpha")
    strength = 1.0 + 4.0 * alphas * np.sqrt(1.0 - alphas * alphas)  # werner_strength's formula
    q = np.ones_like(strength)
    counts = np.zeros(strength.shape, dtype=int)
    while True:
        lam = 1.0 / (q * strength)  # threshold_lambda, tested as protocol._observers does
        alive = lam < 1.0 - FEASIBILITY_TOL
        if not alive.any():
            return counts.reshape(np.shape(alpha)) if np.ndim(alpha) else int(counts[0])
        counts += alive
        # q only falls, so a failed entry stays failed while the loop runs on;
        # the clip keeps its sharpness, at least 1 - FEASIBILITY_TOL, in range
        q = decays(np.minimum(lam, 1.0)) * q


def equal_sharpness_count(alpha, lam):
    """Success count of the equal-sharpness policy as an array recursion (test oracle).

    A scalar lam gives an int; an array of sharpness values gives an int
    array of the same shape, each entry equal to the scalar count.  The first
    entry outside (0, 1] raises.
    """
    strength = werner_strength(alpha)
    lams = np.asarray(lam, dtype=float)
    outside = ~((lams > 0.0) & (lams <= 1.0))
    if outside.any():
        raise ValueError(f"common sharpness must lie in (0, 1]; got {float(lams[outside][0])}")
    decay = decays(lams)
    q = np.ones_like(lams)
    counts = np.zeros(lams.shape, dtype=int)
    while True:
        alive = (1.0 - lams * q * strength) / 16.0 < -DETECTION_THRESHOLD
        if not alive.any():
            return counts if counts.ndim else int(counts)
        counts += alive
        q = q * decay  # q only falls, so a failed entry stays failed


def peak_sharpness(level):
    """Maximizer of protocol._log_gain over [1/3, 1] at `level` (test oracle).

    Bisection on the sign of the decreasing slope, down to adjacent floats.
    """
    lo, hi = LAMBDA_WINDOW
    if log_margin(level, 0.0, 1.0, lo)[1] <= 0.0:
        return lo
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if log_margin(level, 0.0, 1.0, mid)[1] > 0.0:
            lo = mid
        else:
            hi = mid
    return hi
