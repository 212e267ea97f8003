"""Dense complex linear algebra over small labeled tensor-product spaces.

Operators are plain complex numpy arrays.  A :class:`SubsystemLayout` names
the tensor factors of a composite space, and a :class:`DensityOperator`
couples a matrix to such a layout.  The canonical ordering used by the
witness game is (A', 2), (A, 2), (B, 2), (B', 2): Alice's quantum input,
Alice's share, Bob's share, Bob's quantum input.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Iterable, Sequence

import numpy as np

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
PSD_ATOL = 1e-10


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered (label, local dimension) factors of a tensor-product space."""

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        factors = tuple((str(label), int(dim)) for label, dim in self.factors)
        object.__setattr__(self, "factors", factors)
        labels = [label for label, _ in factors]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate subsystem labels in {labels}")
        if any(dim < 1 for _, dim in factors):
            raise ValueError("subsystem dimensions must be positive")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.factors)

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    def position(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown subsystem label {label!r}; have {self.labels}") from None

    def keep(self, labels: Iterable[str]) -> "SubsystemLayout":
        """Sub-layout containing `labels`, in their original relative order."""
        wanted = set(labels)
        missing = wanted - set(self.labels)
        if missing:
            raise ValueError(f"unknown subsystem labels {sorted(missing)}; have {self.labels}")
        return SubsystemLayout(tuple(f for f in self.factors if f[0] in wanted))

    def concat(self, other: "SubsystemLayout") -> "SubsystemLayout":
        return SubsystemLayout(self.factors + other.factors)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A matrix over a labeled tensor factorization.

    Construction validates Hermiticity, unit trace and positivity unless
    `validate=False`, which internal routines use to carry unnormalized
    (e.g. post-measurement) operators in the same container.
    """

    matrix: np.ndarray
    layout: SubsystemLayout
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool) -> None:
        matrix = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", matrix)
        dim = self.layout.dim
        if matrix.shape != (dim, dim):
            raise ValueError(f"matrix shape {matrix.shape} does not match layout dimension {dim}")
        if validate:
            _check_density_matrices(matrix[None])

    @property
    def dims(self) -> tuple[int, ...]:
        return self.layout.dims

    @property
    def labels(self) -> tuple[str, ...]:
        return self.layout.labels


def is_hermitian(matrix: np.ndarray, atol: float = HERMITICITY_ATOL) -> bool:
    matrix = np.asarray(matrix)
    return bool(np.max(np.abs(matrix - matrix.conj().T)) <= atol)


def _check_density_matrices(matrices: np.ndarray) -> None:
    """DensityOperator's checks on every matrix of a stack: Hermitian, unit trace, PSD.

    Each check runs over the whole stack before the next one starts; the
    first matrix that fails raises ValueError, and in a stack of more than
    one the message names its index.
    """
    def first(flags: np.ndarray) -> tuple[int, str]:
        index = int(np.argmax(flags))
        return index, (f" (stack index {index})" if len(matrices) > 1 else "")

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


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of the last two axes, broadcast over leading axes.

    Every entry is the single product a[.., i, j] * b[.., k, l], laid out as
    np.kron lays it out, so 2-D results are bit-identical to np.kron.
    """
    (m, n), (p, q) = a.shape[-2:], b.shape[-2:]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], m * p, n * q)


def tensor(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product with the first argument's indices most significant."""
    if not ops:
        raise ValueError("tensor() needs at least one operator")
    arrays = [np.asarray(op, dtype=complex) for op in ops]
    for array in arrays:
        if array.ndim != 2:
            raise ValueError(f"tensor() operands must be 2-D matrices; got shape {array.shape}")
    out = arrays[0]
    for array in arrays[1:]:
        out = _kron(out, array)
    return out


def _permute(matrix: np.ndarray, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    n = len(dims)
    dim = int(np.prod(dims))
    tensor_form = np.asarray(matrix, dtype=complex).reshape(*dims, *dims)
    axes = [*perm, *(p + n for p in perm)]
    return tensor_form.transpose(axes).reshape(dim, dim)


def embed_operator(op: np.ndarray, layout: SubsystemLayout, acting_on: Sequence[str]) -> np.ndarray:
    """Extend `op`, defined on the `acting_on` factors, by identity elsewhere."""
    op = np.asarray(op, dtype=complex)
    positions = [layout.position(label) for label in acting_on]
    if len(set(positions)) != len(positions):
        raise ValueError("acting_on labels must be distinct")
    sub_dim = int(np.prod([layout.dims[p] for p in positions]))
    if op.shape != (sub_dim, sub_dim):
        raise ValueError(f"operator shape {op.shape} does not match acting_on dimension {sub_dim}")
    rest = [p for p in range(len(layout.factors)) if p not in positions]
    if not rest:
        built = op
        built_order = positions
    else:
        rest_dim = int(np.prod([layout.dims[p] for p in rest]))
        built = _kron(op, np.eye(rest_dim))
        built_order = positions + rest
    dims_built = [layout.dims[p] for p in built_order]
    perm = [built_order.index(k) for k in range(len(layout.factors))]
    return _permute(built, dims_built, perm)


def partial_trace(rho: DensityOperator, keep: Iterable[str]) -> DensityOperator:
    """Trace out every factor not named in `keep` (trace preserving).

    Kept factors stay in their original relative order.
    """
    keep = tuple(keep)
    if not keep:
        raise ValueError("must keep at least one subsystem")
    new_layout = rho.layout.keep(keep)
    traced = [p for p, label in enumerate(rho.labels) if label not in set(keep)]
    dims = list(rho.dims)
    out = rho.matrix.reshape(*dims, *dims)
    for p in sorted(traced, reverse=True):
        out = out.trace(axis1=p, axis2=p + len(dims))
        del dims[p]
    dim = int(np.prod(dims))
    return DensityOperator(out.reshape(dim, dim), new_layout, validate=False)


def _partial_transposes(matrices: np.ndarray, layout: SubsystemLayout,
                        subsystem: str) -> np.ndarray:
    """Transpose one factor of each matrix in a stack over a two-factor layout."""
    if len(layout.factors) != 2:
        raise ValueError("partial_transpose expects a two-factor layout")
    pos = layout.position(subsystem)
    da, db = layout.dims
    tensor_form = matrices.reshape(-1, da, db, da, db)
    axes = (0, 3, 2, 1, 4) if pos == 0 else (0, 1, 4, 3, 2)
    return tensor_form.transpose(axes).reshape(-1, da * db, da * db)


def partial_transpose(rho: DensityOperator, subsystem: str) -> np.ndarray:
    """Transpose one factor of a two-factor state."""
    return _partial_transposes(rho.matrix[None], rho.layout, subsystem)[0]


def _negativities(matrices: np.ndarray, layout: SubsystemLayout, subsystem: str) -> np.ndarray:
    """negativity of each matrix in a stack: one eigvalsh over the stacked partial transposes.

    eigvalsh sorts ascending, so the negative eigenvalues lead each row and
    adding the zeros that replace the rest leaves their sum unchanged.
    """
    eigvals = np.linalg.eigvalsh(_partial_transposes(matrices, layout, subsystem))
    return -np.where(eigvals < 0, eigvals, 0.0).sum(axis=-1)


def negativity(rho: DensityOperator, subsystem: str) -> float:
    """Entanglement negativity: |sum of negative eigenvalues| of the partial transpose."""
    return float(_negativities(rho.matrix[None], rho.layout, subsystem)[0])
