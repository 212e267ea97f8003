"""States and referee input ensembles used by the witnessing game.

The shared family is the noisy partially entangled pair

    rho(q, alpha) = q |psi><psi| + (1 - q)/4 I_4,
    |psi> = alpha |01> - sqrt(1 - alpha^2) |10>,   0 < alpha <= 1/sqrt(2),

and the referee hands out the four qubit states sigma_s (I + n.sigma)/2 sigma_s
with n = (1, 1, 1)/sqrt(3), as tau_s to Alice and as omega_t to Bob.  A shared
state's qubits are ordered (A, B), Alice's share first.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # the array functions import NumPy where they run
    import numpy as np

    from .linalg import DensityOperator

ALPHA_MAX = 2 ** -0.5
_LN2 = math.log(2.0)

BLOCH_AXIS = (1.0 / math.sqrt(3.0),) * 3


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha <= ALPHA_MAX:
        raise ValueError(f"alpha must lie in (0, 1/sqrt(2)]; got {alpha}")
    return alpha


def _check_alphas(alphas) -> np.ndarray:
    """_check_alpha over an array: the first entry outside (0, 1/sqrt(2)] raises."""
    import numpy as np

    alphas = np.asarray(alphas, dtype=float)
    outside = ~((alphas > 0.0) & (alphas <= ALPHA_MAX))
    if outside.any():
        raise ValueError(f"alpha must lie in (0, 1/sqrt(2)]; got {float(alphas[outside][0])}")
    return alphas


def _check_qs(qs) -> np.ndarray:
    """Mixing weights as a float array; the first entry outside [0, 1] raises."""
    import numpy as np

    qs = np.asarray(qs, dtype=float)
    outside = ~((qs >= 0.0) & (qs <= 1.0))
    if outside.any():
        raise ValueError(f"q must lie in [0, 1]; got {float(qs[outside][0])}")
    return qs


def _check_lams(lams) -> np.ndarray:
    """Sharpness values as a float array; the first entry outside [0, 1] raises."""
    import numpy as np

    lams = np.asarray(lams, dtype=float)
    outside = ~((lams >= 0.0) & (lams <= 1.0))
    if outside.any():
        raise ValueError(f"sharpness must lie in [0, 1]; got {float(lams[outside][0])}")
    return lams


def psi_alpha(alpha: float) -> np.ndarray:
    """Unit vector alpha |01> - sqrt(1 - alpha^2) |10>."""
    import numpy as np

    alpha = _check_alpha(alpha)
    vec = np.zeros(4, dtype=complex)
    vec[1] = alpha
    vec[2] = -math.sqrt(1.0 - alpha * alpha)
    return vec


def bell_phi_plus() -> np.ndarray:
    """Unit vector (|00> + |11>)/sqrt(2)."""
    import numpy as np

    vec = np.zeros(4, dtype=complex)
    vec[0] = vec[3] = 2 ** -0.5
    return vec


def _werner_alphas(qs, alphas) -> np.ndarray:
    """Validated matrices of werner_alpha(q, alpha), one per pair of `qs` and `alphas`.

    The two 1-D sequences broadcast against each other.  All q are checked
    before all alpha, and the whole stack is validated once.  Every matrix
    takes the one-state operations: q times the outer product of
    psi_alpha(alpha) with its conjugate, plus (1 - q)/4 I.
    """
    import numpy as np

    from .linalg import _check_density_matrices

    qs = _check_qs(qs)
    alphas = _check_alphas(alphas)
    qs, alphas = np.broadcast_arrays(qs, alphas)
    vecs = np.zeros((len(alphas), 4), dtype=complex)
    vecs[:, 1] = alphas
    vecs[:, 2] = -np.sqrt(1.0 - alphas * alphas)
    projectors = vecs[:, :, None] * vecs.conj()[:, None, :]
    matrices = qs[:, None, None] * projectors + ((1.0 - qs) / 4.0)[:, None, None] * np.eye(4)
    _check_density_matrices(matrices)
    return matrices


def werner_alpha(q: float, alpha: float) -> DensityOperator:
    """Mixing weight q on |psi(alpha)><psi(alpha)|, white noise otherwise."""
    from .linalg import DensityOperator

    return DensityOperator(_werner_alphas([q], [alpha])[0], validate=False)


def werner_strength(alpha: float) -> float:
    """The factor c = 1 + 4 alpha sqrt(1 - alpha^2).

    rho(q, alpha) is entangled iff q*c > 1; its negativity is (q*c - 1)/4 then.
    """
    alpha = _check_alpha(alpha)
    return 1.0 + 4.0 * alpha * math.sqrt(1.0 - alpha * alpha)


def _werner_strengths(alphas) -> np.ndarray:
    """werner_strength elementwise, with the same operations in the same order."""
    import numpy as np

    alphas = _check_alphas(alphas)
    return 1.0 + 4.0 * alphas * np.sqrt(1.0 - alphas * alphas)


@functools.cache
def input_ensemble() -> np.ndarray:
    """The four referee inputs sigma_s (I + n.sigma)/2 sigma_s as one read-only (4, 2, 2) stack.

    Input s goes to Alice on A' as tau_s or to Bob on B' as omega_s: the two
    families follow the same formula, so one stack serves both.  The referee
    draws each with weight 1/4.
    """
    import numpy as np

    from .linalg import PAULI, _check_density_matrices

    base = (PAULI[0] + BLOCH_AXIS[0] * PAULI[1] + BLOCH_AXIS[1] * PAULI[2]
            + BLOCH_AXIS[2] * PAULI[3]) / 2.0
    stack = np.stack([PAULI[s] @ base @ PAULI[s] for s in range(4)])
    _check_density_matrices(stack)
    stack.flags.writeable = False
    return stack


def entanglement_entropy(alpha: float) -> float:
    """Entropy of a reduced half of |psi(alpha)>, in ebits."""
    alpha = _check_alpha(alpha)
    return _binary_entropy(alpha * alpha)


def _binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log1p(-x) / _LN2


def _increasing_root(func, lower: float, upper: float, x: float) -> float:
    """Root in (lower, upper] of an increasing func with func(upper) >= 0.

    func(x) returns (value, slope).  Newton steps start at x in the bracket;
    a step that leaves the bracket kept around the root, or a zero slope,
    is replaced by bisection.  The solve stops when the step or the bracket
    falls to rounding size; the bracket stops it where rounding noise in
    func keeps the steps from shrinking further.
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


def alpha_from_entanglement(entropy: float) -> float:
    """Inverse of entanglement_entropy on (0, 1], to within a few ulps of alpha.

    Below E = 1/2 the unknown is alpha itself: sqrt(E ln 2) = alpha sqrt(h)
    with h = -2 log(alpha) - (1 - t) log1p(-t) / t and t = alpha^2, the
    entropy in nats over t.  This holds even where t underflows.  From
    E = 1/2 up the unknown is y = 1 - 2 alpha^2, and the exact gap is
    1 - E = (2 y atanh(y) + log1p(-y^2)) / (2 ln 2).  This stays well
    conditioned at alpha^2 = 1/2, where the entropy is flat.  Both starting
    points lie above the root: sqrt(E ln 2) >= alpha and
    sqrt(2 ln 2 (1 - E)) >= y.
    """
    entropy = float(entropy)
    if not 0.0 < entropy <= 1.0:
        raise ValueError(f"entanglement must lie in (0, 1]; got {entropy}")
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

        return _increasing_root(sqrt_entropy, 0.0, target, target)
    gap = 1.0 - entropy

    def entropy_gap(y):
        atanh = math.atanh(y)
        return (2.0 * y * atanh + math.log1p(-y * y)) / (2.0 * _LN2) - gap, atanh / _LN2

    start = math.sqrt(2.0 * _LN2 * gap)
    y = _increasing_root(entropy_gap, 0.0, start, start)
    return math.sqrt(0.5 * (1.0 - y))


def _increasing_roots(func, upper: np.ndarray) -> np.ndarray:
    """_increasing_root elementwise, each root bracketed in (0, upper] and started at upper.

    func(x, index) returns (values, slopes) at the points x of the entries
    `index`.  Every entry takes the scalar solve's steps and stopping rules;
    an entry leaves the loop once it stops.
    """
    import numpy as np

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


def _alphas_from_entanglement(entropies) -> np.ndarray:
    """alpha_from_entanglement elementwise, each entry within a few ulps of the scalar solve.

    The same residuals, start points and stopping rules, taken with NumPy's
    log, log1p, sqrt and arctanh.  The first entry outside (0, 1] raises.
    One scalar call is faster than a one-entry array; this is for grids.
    """
    import numpy as np

    entropies = np.asarray(entropies, dtype=float)
    outside = ~((entropies > 0.0) & (entropies <= 1.0))
    if outside.any():
        raise ValueError(f"entanglement must lie in (0, 1]; got {float(entropies[outside][0])}")
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

        alphas[low] = _increasing_roots(sqrt_entropy, target)
    high = (entropies >= 0.5) & (entropies < 1.0)
    if high.any():
        gap = 1.0 - entropies[high]

        def entropy_gap(y, index):
            atanh = np.arctanh(y)
            return (2.0 * y * atanh + np.log1p(-y * y)) / (2.0 * _LN2) - gap[index], atanh / _LN2

        y = _increasing_roots(entropy_gap, np.sqrt(2.0 * _LN2 * gap))
        alphas[high] = np.sqrt(0.5 * (1.0 - y))
    return alphas
