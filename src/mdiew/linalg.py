"""Dense complex linear algebra on the witness game's fixed qubit order.

Operators are plain complex numpy arrays.  A shared state is a 4x4 matrix
on the qubits (A, B), Alice's share first, and the oracle kernels here and
in `measurement` and `witness` take and return (n, 4, 4) stacks of them;
the partial transpose and the negativity act on B.  The full game space
orders its qubits (A', A, B, B'): Alice's quantum input, Alice's share,
Bob's share, Bob's quantum input.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """A square density matrix, validated on construction.

    No kernel takes one; the class stays because the benchmark's tracer instruments it.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"density matrix must be square; got shape {matrix.shape}")
        check_density_matrices(matrix[None])


def _two_qubit_stack(matrices, caller: str) -> np.ndarray:
    """`matrices` as a complex array; anything but the finite (n, 4, 4) stack `caller` needs raises.

    The kernels would read a bare 4x4 matrix, or an 8x8 one, as some other
    stack, and turn a NaN or infinite entry into a wrong answer without an
    error: a zero negativity, an all-NaN channel output, a payoff that skips
    it.  The first state with one raises ValueError naming its index.
    """
    matrices = np.asarray(matrices, dtype=complex)
    if matrices.ndim != 3 or matrices.shape[1:] != (4, 4):
        raise ValueError(f"{caller} expects an (n, 4, 4) stack of two-qubit matrices; "
                         f"got shape {matrices.shape}")
    if not np.isfinite(matrices).all():
        index = np.flatnonzero(~np.isfinite(matrices).all(axis=(-2, -1)))[0]
        raise ValueError(f"state {index} of the stack has a non-finite entry")
    return matrices


def check_density_matrices(matrices: np.ndarray) -> None:
    """Density-matrix checks on every matrix of an (n, d, d) stack: Hermitian, unit trace, PSD.

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
    matrices = np.asarray(matrices)
    if matrices.ndim != 3 or matrices.shape[1] != matrices.shape[2]:
        raise ValueError("check_density_matrices expects an (n, d, d) stack of square matrices; "
                         f"got shape {matrices.shape}")

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


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of the last two axes, broadcast over leading axes.

    Every entry is the single product a[.., i, j] * b[.., k, l], laid out as
    np.kron lays it out, so 2-D results are bit-identical to np.kron.
    """
    (m, n), (p, q) = a.shape[-2:], b.shape[-2:]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], m * p, n * q)


def partial_transpose(matrices) -> np.ndarray:
    """Transpose B, the second qubit, of each matrix in an (n, 4, 4) stack."""
    matrices = _two_qubit_stack(matrices, "partial_transpose")
    return matrices.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(-1, 4, 4)


def negativity(matrices) -> np.ndarray:
    """Negativity across A|B of each matrix in an (n, 4, 4) stack.

    The negativity is |sum of negative eigenvalues| of the partial
    transpose, from one eigvalsh over the stacked partial transposes.
    eigvalsh sorts ascending, so the negative eigenvalues lead each row and
    adding the zeros that replace the rest leaves their sum unchanged.  The
    result is 0.0 minus that sum, not its negation, so a state with no
    negative eigenvalue reads +0.0 rather than -0.0.  A non-finite entry
    raises ValueError.
    """
    matrices = _two_qubit_stack(matrices, "negativity")
    eigvals = np.linalg.eigvalsh(partial_transpose(matrices))
    return 0.0 - np.where(eigvals < 0, eigvals, 0.0).sum(axis=-1)
