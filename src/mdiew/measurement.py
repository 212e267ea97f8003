"""Two-outcome joint measurements, sharp and unsharp, and their back-action.

The '+' outcome of the sharp measurement projects a (share, input) qubit
pair onto |Phi+> = (|00> + |11>)/sqrt(2).  The unsharp version with
sharpness lam uses the effects

    E+ = lam P+ + (1 - lam)/4 I_4,      E- = I_4 - E+,

and updates the state through the square-root (Lueders) rule.  Bob measures
the qubits (B, B') of the space (A, B, B'), so each Kraus operator is
I_2 (x) sqrt(E) in that order.  Effects, roots and the channel are built for
whole stacks of sharpness values, and the channel for (n, 4, 4) stacks of
shared states.
"""

from __future__ import annotations

import functools

import numpy as np

from .linalg import _kron, _read_only, _two_qubit_stack
from .states import _checked, input_ensemble


@functools.cache
def bell_projector() -> np.ndarray:
    """|Phi+><Phi+|, cached and read-only: every effect and channel reads this one array."""
    vec = np.zeros(4, dtype=complex)
    vec[0] = vec[3] = 2 ** -0.5
    return _read_only(np.outer(vec, vec.conj()))


def _effects(lams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Plus effects, plus roots and minus roots at each sharpness of `lams`, as (len(lams), 4, 4) stacks.

    A scalar `lams` counts as a sequence of one.

    The plus effect has eigenvalue (1+3 lam)/4 on |Phi+> and (1-lam)/4 on its
    complement; the minus effect is I - plus.  The first entry outside
    [0, 1], NaN included, raises ValueError.  Each root is (a - b) P+ + b I,
    with a and b the square roots of the effect's eigenvalues on |Phi+> and
    off it, and every entry takes the one-sharpness operations elementwise.

    This two-eigenspace form squares back to the effect within 1e-15.  A
    generic eigendecomposition route agrees with it within 1e-12 for
    1 - lam >= 1e-6.  Closer to lam = 1 the effect's smallest eigenvalue mu
    sinks towards the rounding of its entries, and the generic route's error
    grows like eps/sqrt(mu) (eps = float64 machine epsilon); this form keeps
    its accuracy there.
    """
    lams = _checked(lams, "sharpness").reshape(-1)
    projector, identity = bell_projector(), np.eye(4)
    lams = lams[:, None, None]

    def root(on_bell, off_bell):
        on_bell, off_bell = np.sqrt(on_bell), np.sqrt(off_bell)
        return (on_bell - off_bell) * projector + off_bell * identity

    plus = lams * projector + (1.0 - lams) / 4.0 * identity
    return (plus, root((1.0 + 3.0 * lams) / 4.0, (1.0 - lams) / 4.0),
            root((3.0 - 3.0 * lams) / 4.0, (3.0 + lams) / 4.0))


def averaged_channel(matrices, lams) -> np.ndarray:
    """Shared states left for the next observer after one unsharp measurement.

    Takes an (n, 4, 4) stack of shared-state matrices and one sharpness or a
    sequence of them, and returns the (len(lams) * n, 4, 4) stack of outputs
    ordered sharpness first.  Each output attaches every referee input on B'
    with weight 1/4, applies the square-root update non-selectively (both
    outcomes summed), and traces the input back out; the measured share is
    B, the second qubit.  Every output takes the operations of a one-state,
    one-sharpness call: the Kraus products kraus @ eta @ kraus summed input
    by input, outcome by outcome, on (A, B, B'), then the trace over the
    input B'.  A state with a non-finite entry raises ValueError.
    """
    matrices = _two_qubit_stack(matrices, "averaged_channel")
    _, plus_roots, minus_roots = _effects(lams)
    # krauses[outcome, l] = I_2 (x) sqrt(E_outcome) at sharpness l, broadcast over the states.
    krauses = _kron(np.eye(2), np.stack([plus_roots, minus_roots]))[:, :, None]
    total = np.zeros((len(plus_roots), len(matrices), 8, 8), dtype=complex)
    for omega in input_ensemble():
        etas = _kron(matrices, omega)
        for kraus in krauses:
            total += 0.25 * (kraus @ etas @ kraus)
    return total.reshape(-1, 4, 2, 4, 2).trace(axis1=2, axis2=4)
