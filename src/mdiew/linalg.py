"""Dense complex linear algebra on the witness game's fixed qubit order.

Operators are plain complex numpy arrays, and a :class:`DensityOperator` is
a validated square matrix.  A shared state is a 4x4 matrix on the qubits
(A, B), Alice's share first; the partial transpose and the negativity act
on B.  The full game space orders its qubits (A', A, B, B'): Alice's quantum
input, Alice's share, Bob's share, Bob's quantum input.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
PSD_ATOL = 1e-10


def _read_only(matrix: np.ndarray) -> np.ndarray:
    matrix.flags.writeable = False
    return matrix


# Shared module state, so read-only: an in-place write would move every later input state.
PAULI = tuple(_read_only(np.array(matrix, dtype=complex)) for matrix in (
    np.eye(2),
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A square density matrix.

    Construction validates Hermiticity, unit trace and positivity unless
    `validate=False`.  That skips checks already done or not wanted: on
    matrices of a stack that `_check_density_matrices` has checked
    (`werner_alpha`), on the output of the averaged channel, and on
    non-states in tests.
    """

    matrix: np.ndarray
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool) -> None:
        matrix = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"density matrix must be square; got shape {matrix.shape}")
        if validate:
            _check_density_matrices(matrix[None])


def _two_qubit_matrix(rho: DensityOperator, caller: str) -> np.ndarray:
    """The matrix of `rho`, which `caller` needs to be a two-qubit (A, B) state."""
    if rho.matrix.shape != (4, 4):
        raise ValueError(f"{caller} expects a two-qubit (4x4) state; got shape {rho.matrix.shape}")
    return rho.matrix


def _check_density_matrices(matrices: np.ndarray) -> None:
    """DensityOperator's checks on every matrix of a stack: Hermitian, unit trace, PSD.

    Each check runs over the whole stack before the next one starts; the
    first matrix that fails raises ValueError, and in a stack of more than
    one the message names its index.

    Positivity (lowest eigenvalue >= -PSD_ATOL) is certified by one stacked
    Cholesky factorization of M + (PSD_ATOL/2) I.  Cholesky is backward
    stable, so on a Hermitian matrix of unit trace a success proves every
    eigenvalue of M above -PSD_ATOL/2 - O(1e-15), and the whole stack passes.
    When some factorization fails, `eigvalsh` decides, and words every
    failure: the Cholesky step moves no decision and no message.
    """
    def first(flags: np.ndarray) -> tuple[int, str]:
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
    try:
        np.linalg.cholesky(matrices + PSD_ATOL / 2.0 * np.eye(matrices.shape[-1]))
        return
    except np.linalg.LinAlgError:
        pass
    lows = np.linalg.eigvalsh(matrices)[:, 0]
    negative = lows < -PSD_ATOL
    if negative.any():
        index, where = first(negative)
        raise ValueError(f"density operator has negative eigenvalue {float(lows[index])}" + where)


def _check_finite(matrices: np.ndarray) -> None:
    """Raise ValueError naming the first matrix of a stack with a NaN or infinite entry.

    An unvalidated state (DensityOperator(..., validate=False)) can carry
    one, and the kernels would turn it into a wrong answer without an error:
    a zero negativity, an all-NaN channel output, a payoff that skips it.
    """
    if not np.isfinite(matrices).all():
        index = np.flatnonzero(~np.isfinite(matrices).all(axis=(-2, -1)))[0]
        raise ValueError(f"state {index} of the stack has a non-finite entry")


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of the last two axes, broadcast over leading axes.

    Every entry is the single product a[.., i, j] * b[.., k, l], laid out as
    np.kron lays it out, so 2-D results are bit-identical to np.kron.
    """
    (m, n), (p, q) = a.shape[-2:], b.shape[-2:]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], m * p, n * q)


def _partial_transposes(matrices: np.ndarray) -> np.ndarray:
    """Transpose B, the second qubit, of each 4x4 matrix in a stack."""
    return matrices.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(-1, 4, 4)


def _negativities(matrices: np.ndarray) -> np.ndarray:
    """negativity of each matrix in a stack: one eigvalsh over the stacked partial transposes.

    eigvalsh sorts ascending, so the negative eigenvalues lead each row and
    adding the zeros that replace the rest leaves their sum unchanged.  The
    result is 0.0 minus that sum, not its negation, so a state with no
    negative eigenvalue reads +0.0 rather than -0.0.  A non-finite entry
    raises ValueError.
    """
    _check_finite(matrices)
    eigvals = np.linalg.eigvalsh(_partial_transposes(matrices))
    return 0.0 - np.where(eigvals < 0, eigvals, 0.0).sum(axis=-1)


def negativity(rho: DensityOperator) -> float:
    """Entanglement negativity across A|B: |sum of negative eigenvalues| of the partial transpose."""
    return float(_negativities(_two_qubit_matrix(rho, "negativity")[None])[0])
