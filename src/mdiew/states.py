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

ALPHA_MAX = 2 ** -0.5
_LN2 = math.log(2.0)

BLOCH_AXIS = (1.0 / math.sqrt(3.0),) * 3


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha <= ALPHA_MAX:
        raise ValueError(f"alpha must lie in (0, 1/sqrt(2)]; got {alpha}")
    return alpha


# The range of each array argument: (lower bound, upper bound, whether the
# lower bound is excluded, the message's start).  The scalar checks next to
# each quantity raise the same messages.
_RANGES = {
    "q": (0.0, 1.0, False, "q must lie in [0, 1]"),
    "sharpness": (0.0, 1.0, False, "sharpness must lie in [0, 1]"),
    "alpha": (0.0, ALPHA_MAX, True, "alpha must lie in (0, 1/sqrt(2)]"),
    "negativity": (0.0, 0.5, False, "negativity must be in [0, 1/2]"),
    "entanglement": (0.0, 1.0, True, "entanglement must lie in (0, 1]"),
}


def _checked(values, quantity: str) -> np.ndarray:
    """`values` as a float array in the range of `quantity` (a key of _RANGES).

    The first entry outside the range, NaN included, raises ValueError
    naming it: NumPy's summary of a large array would hide it.
    """
    import numpy as np

    low, high, low_open, message = _RANGES[quantity]
    values = np.asarray(values, dtype=float)
    inside = ((values > low) if low_open else (values >= low)) & (values <= high)
    if not inside.all():
        raise ValueError(f"{message}; got {float(values[~inside][0])}")
    return values


def werner_alpha(qs, alphas) -> np.ndarray:
    """Mixing weight q on |psi(alpha)><psi(alpha)|, white noise otherwise, as a validated stack.

    One (n, 4, 4) matrix per pair of the broadcast `qs` and `alphas`, in C
    order; scalars give a stack of one.  All q are checked before all alpha,
    and the whole stack is validated once.  Every matrix takes the one-state
    operations: q times the outer product of |psi(alpha)> with its
    conjugate, plus (1 - q)/4 I.  At q = 1 the matrix is that projector.
    """
    import numpy as np

    from .linalg import check_density_matrices

    qs = _checked(qs, "q")
    alphas = _checked(alphas, "alpha")
    qs, alphas = (np.ravel(values) for values in np.broadcast_arrays(qs, alphas))
    vecs = np.zeros((len(alphas), 4), dtype=complex)
    vecs[:, 1] = alphas
    vecs[:, 2] = -np.sqrt(1.0 - alphas * alphas)
    projectors = vecs[:, :, None] * vecs.conj()[:, None, :]
    matrices = qs[:, None, None] * projectors + ((1.0 - qs) / 4.0)[:, None, None] * np.eye(4)
    check_density_matrices(matrices)
    return matrices


def werner_strength(alpha: float) -> float:
    """The factor c = 1 + 4 alpha sqrt(1 - alpha^2).

    rho(q, alpha) is entangled iff q*c > 1; its negativity is (q*c - 1)/4 then.
    """
    alpha = _check_alpha(alpha)
    return 1.0 + 4.0 * alpha * math.sqrt(1.0 - alpha * alpha)


@functools.cache
def input_ensemble() -> np.ndarray:
    """The four referee inputs sigma_s (I + n.sigma)/2 sigma_s as one read-only (4, 2, 2) stack.

    Input s goes to Alice on A' as tau_s or to Bob on B' as omega_s: the two
    families follow the same formula, so one stack serves both.  The referee
    draws each with weight 1/4.
    """
    import numpy as np

    from .linalg import PAULI, check_density_matrices

    base = (PAULI[0] + BLOCH_AXIS[0] * PAULI[1] + BLOCH_AXIS[1] * PAULI[2]
            + BLOCH_AXIS[2] * PAULI[3]) / 2.0
    stack = np.stack([PAULI[s] @ base @ PAULI[s] for s in range(4)])
    check_density_matrices(stack)
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

    Each branch is one Newton loop on its residual, bracketed in (0, start]
    and started at the top: a step that leaves the bracket, or a zero
    slope, is replaced by bisection, and the solve stops when the step or
    the bracket falls to rounding size.  Every iterate and the root are
    those of the tests' generic callback solve, conftest.increasing_root,
    on the same residuals, bit for bit.
    """
    entropy = float(entropy)
    if not 0.0 < entropy <= 1.0:
        raise ValueError(f"entanglement must lie in (0, 1]; got {entropy}")
    if entropy == 1.0:
        return ALPHA_MAX
    low = entropy < 0.5
    if low:
        target = math.sqrt(entropy) * math.sqrt(_LN2)
        x = target
    else:
        gap = 1.0 - entropy
        x = math.sqrt(2.0 * _LN2 * gap)
    lower, upper = 0.0, x
    for _ in range(200):
        if low:  # x is alpha
            t = x * x
            log_alpha = math.log(x)
            log1p_t = math.log1p(-t)
            root_h = math.sqrt(-2.0 * log_alpha - (1.0 - t) * (log1p_t / t if t else -1.0))
            value, slope = x * root_h - target, (log1p_t - 2.0 * log_alpha) / root_h
        else:  # x is y
            atanh = math.atanh(x)
            value = (2.0 * x * atanh + math.log1p(-x * x)) / (2.0 * _LN2) - gap
            slope = atanh / _LN2
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
    return x if low else math.sqrt(0.5 * (1.0 - x))


def _alphas_from_entanglement(entropies) -> np.ndarray:
    """alpha_from_entanglement elementwise, each entry within a few ulps of the scalar solve.

    The same residuals, start points and stopping rules, taken with NumPy's
    log, log1p, sqrt and arctanh.  The first entry outside (0, 1] raises.
    One scalar call is faster than a one-entry array; this is for grids.

    Both branches run in one loop over every entry below E = 1: each step
    takes both residuals everywhere and keeps the entry's own, which is
    defined on both branches' brackets, and a live mask records each root
    where its entry stops.  The selected slope is positive on the brackets,
    so the step needs no guard against a zero slope.  Each entry takes the
    scalar loop's iterates, and its root is that of conftest.increasing_root
    on the NumPy residual.
    """
    import numpy as np

    entropies = _checked(entropies, "entanglement")
    alphas = np.full(entropies.shape, ALPHA_MAX)
    solving = entropies < 1.0
    entropies = entropies[solving]
    low = entropies < 0.5  # x is alpha there, y = 1 - 2 alpha^2 elsewhere
    target = np.sqrt(entropies) * math.sqrt(_LN2)
    gap = 1.0 - entropies
    x = upper = np.where(low, target, np.sqrt(2.0 * _LN2 * gap))
    lower = np.zeros_like(x)
    roots = np.empty_like(x)
    live = np.ones(x.shape, dtype=bool)
    for _ in range(200):
        if not live.any():
            break
        t = x * x
        log_alpha = np.log(x)
        log1p_t = np.log1p(-t)  # -y * y is -(y * y) bit for bit
        ratio = np.divide(log1p_t, t, out=np.full_like(t, -1.0), where=t != 0.0)
        root_h = np.sqrt(-2.0 * log_alpha - (1.0 - t) * ratio)
        atanh = np.arctanh(x)
        value = np.where(low, x * root_h - target,
                         (2.0 * x * atanh + log1p_t) / (2.0 * _LN2) - gap)
        slope = np.where(low, (log1p_t - 2.0 * log_alpha) / root_h, atanh / _LN2)
        below = value < 0.0
        lower = np.where(below, x, lower)
        upper = np.where(below, upper, x)
        step = value / slope
        newton = x - step
        tol = 4e-16 * x
        converged = np.abs(step) <= tol
        stopped = live & (converged | (upper - lower <= tol))
        roots = np.where(stopped, np.where(converged, newton, x), roots)
        live ^= stopped
        x = np.where((lower < newton) & (newton < upper), newton, 0.5 * (lower + upper))
    else:
        roots = np.where(live, x, roots)
    alphas[solving] = np.where(low, roots, np.sqrt(0.5 * (1.0 - roots)))
    return alphas
