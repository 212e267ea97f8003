"""Two-outcome joint measurements, sharp and unsharp, and their back-action.

The '+' outcome of the sharp measurement projects a (share, input) qubit
pair onto |Phi+> = (|00> + |11>)/sqrt(2).  The unsharp version with
sharpness lam uses the effects

    E+ = lam P+ + (1 - lam)/4 I_4,      E- = I_4 - E+,

and updates the state through the square-root (Lueders) rule.  Bob measures
the qubits (B, B') of the space (A, B, B'), so each Kraus operator is
I_2 (x) sqrt(E) in that order.  Effects, roots and the channel are built for
whole stacks of sharpness values; the one-sharpness functions are their
stacks of one.
"""

from __future__ import annotations

import functools

import numpy as np

from .linalg import DensityOperator, _kron, _read_only, _two_qubit_matrix
from .states import bell_phi_plus, input_ensemble

OUTCOMES = ("+", "-")


@functools.cache
def bell_projector() -> np.ndarray:
    """|Phi+><Phi+|, cached and read-only: every effect and channel reads this one array."""
    vec = bell_phi_plus()
    return _read_only(np.outer(vec, vec.conj()))


def _effects(lams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Plus effects, plus roots and minus roots at each sharpness of `lams`, as (len(lams), 4, 4) stacks.

    The first entry outside [0, 1], NaN included, raises ValueError.  Each
    root is (a - b) P+ + b I, with a and b the square roots of the effect's
    eigenvalues on |Phi+> and off it, and every entry takes the
    one-sharpness operations elementwise.
    """
    lams = np.asarray(lams, dtype=float)
    outside = ~((lams >= 0.0) & (lams <= 1.0))
    if outside.any():
        raise ValueError(f"sharpness must lie in [0, 1]; got {float(lams[outside][0])}")
    projector, identity = bell_projector(), np.eye(4)
    lams = lams[:, None, None]

    def root(on_bell, off_bell):
        on_bell, off_bell = np.sqrt(on_bell), np.sqrt(off_bell)
        return (on_bell - off_bell) * projector + off_bell * identity

    plus = lams * projector + (1.0 - lams) / 4.0 * identity
    return (plus, root((1.0 + 3.0 * lams) / 4.0, (1.0 - lams) / 4.0),
            root((3.0 - 3.0 * lams) / 4.0, (3.0 + lams) / 4.0))


def unsharp_pair(lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Effects (plus, minus) interpolating between the trivial (lam=0) and sharp (lam=1) measurement.

    The plus effect has eigenvalue (1+3 lam)/4 on |Phi+> and (1-lam)/4 on its
    complement; minus is built as I - plus so the pair sums to the identity
    exactly.  The one-sharpness case of the effect stack.
    """
    plus = _effects([float(lam)])[0][0]
    return plus, np.eye(4) - plus


def effect_sqrt(lam: float, outcome: str) -> np.ndarray:
    """Square root of an unsharp effect via its two-eigenspace spectral form.

    Exact fast path; it squares back to the effect within 1e-15.  A generic
    eigendecomposition route agrees with it within 1e-12 for
    1 - lam >= 1e-6.  Closer to lam = 1 the effect's smallest eigenvalue mu
    sinks towards the rounding of its entries, and the generic route's error
    grows like eps/sqrt(mu) (eps = float64 machine epsilon); this form keeps
    its accuracy there.  The one-sharpness case of the effect stack.
    """
    _, plus_roots, minus_roots = _effects([float(lam)])
    if outcome == "+":
        return plus_roots[0]
    if outcome == "-":
        return minus_roots[0]
    raise ValueError(f"outcome must be '+' or '-'; got {outcome!r}")


def _averaged_channel(matrices: np.ndarray, lams) -> np.ndarray:
    """averaged_channel of a stack of 4x4 shared-state matrices at each sharpness of `lams`.

    Returns the (len(lams) * len(matrices), 4, 4) stack ordered sharpness
    first.  Every output takes the operations of a one-state, one-sharpness
    call: the Kraus products kraus @ eta @ kraus summed input by input,
    outcome by outcome, on (A, B, B'), then the trace over the input B'.
    """
    _, plus_roots, minus_roots = _effects(lams)
    # krauses[outcome, l] = I_2 (x) sqrt(E_outcome) at sharpness l, broadcast over the states.
    krauses = _kron(np.eye(2), np.stack([plus_roots, minus_roots]))[:, :, None]
    total = np.zeros((len(plus_roots), len(matrices), 8, 8), dtype=complex)
    for omega in input_ensemble():
        etas = _kron(matrices, omega)
        for kraus in krauses:
            total += 0.25 * (kraus @ etas @ kraus)
    return total.reshape(-1, 4, 2, 4, 2).trace(axis1=2, axis2=4)


def averaged_channel(rho: DensityOperator, lam: float) -> DensityOperator:
    """Shared state left for the next observer after one unsharp measurement.

    Attaches each referee input on B' with weight 1/4, applies the
    square-root update non-selectively (both outcomes summed), and traces the
    input back out.  The measured share is B, the second qubit of `rho`.
    """
    matrix = _two_qubit_matrix(rho, "averaged_channel")
    return DensityOperator(_averaged_channel(matrix[None], [float(lam)])[0], validate=False)
