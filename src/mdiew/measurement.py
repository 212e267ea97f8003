"""Two-outcome joint measurements, sharp and unsharp, and their back-action.

The '+' outcome of the sharp measurement projects a (share, input) qubit
pair onto |Phi+> = (|00> + |11>)/sqrt(2).  The unsharp version with
sharpness lam uses the effects

    E+ = lam P+ + (1 - lam)/4 I_4,      E- = I_4 - E+,

and updates the state through the square-root (Lueders) rule.  Bob measures
the qubits (B, B') of the space (A, B, B'), so each Kraus operator is
I_2 (x) sqrt(E) in that order.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .linalg import DensityOperator, _kron, _two_qubit_matrix
from .states import bell_phi_plus, input_ensemble

OUTCOMES = ("+", "-")


@functools.cache
def bell_projector() -> np.ndarray:
    vec = bell_phi_plus()
    return np.outer(vec, vec.conj())


def _check_lambda(lam: float) -> float:
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"sharpness must lie in [0, 1]; got {lam}")
    return lam


def unsharp_pair(lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Effects (plus, minus) interpolating between the trivial (lam=0) and sharp (lam=1) measurement.

    The plus effect has eigenvalue (1+3 lam)/4 on |Phi+> and (1-lam)/4 on its
    complement; minus is built as I - plus so the pair sums to the identity
    exactly.
    """
    lam = _check_lambda(lam)
    plus = lam * bell_projector() + (1.0 - lam) / 4.0 * np.eye(4)
    return plus, np.eye(4) - plus


def effect_sqrt(lam: float, outcome: str) -> np.ndarray:
    """Square root of an unsharp effect via its two-eigenspace spectral form.

    Exact fast path; it squares back to the effect within 1e-15.  A generic
    eigendecomposition route agrees with it within 1e-12 for
    1 - lam >= 1e-6.  Closer to lam = 1 the effect's smallest eigenvalue mu
    sinks towards the rounding of its entries, and the generic route's error
    grows like eps/sqrt(mu) (eps = float64 machine epsilon); this form keeps
    its accuracy there.
    """
    lam = _check_lambda(lam)
    if outcome == "+":
        on_bell = math.sqrt((1.0 + 3.0 * lam) / 4.0)
        off_bell = math.sqrt((1.0 - lam) / 4.0)
    elif outcome == "-":
        on_bell = math.sqrt((3.0 - 3.0 * lam) / 4.0)
        off_bell = math.sqrt((3.0 + lam) / 4.0)
    else:
        raise ValueError(f"outcome must be '+' or '-'; got {outcome!r}")
    return (on_bell - off_bell) * bell_projector() + off_bell * np.eye(4)


def _averaged_channel(matrices: np.ndarray, lam: float) -> np.ndarray:
    """averaged_channel on a stack of 4x4 shared-state matrices.

    Every output takes the same operations as a one-state call: the Kraus
    products kraus @ eta @ kraus summed input by input, outcome by outcome,
    on (A, B, B'), then the trace over the input B'.
    """
    krauses = [_kron(np.eye(2), effect_sqrt(lam, outcome)) for outcome in OUTCOMES]
    total = np.zeros((len(matrices), 8, 8), dtype=complex)
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
    lam = _check_lambda(lam)
    return DensityOperator(_averaged_channel(matrix[None], lam)[0], validate=False)
