"""Measurement-device-independent entanglement witnessing.

The payoff of the semi-quantum game is

    I_lam(rho) = sum_st beta_st P_lam(1,1 | tau_s, omega_t),

evaluated here by the full 16-dimensional trace (the literal 16x16
operators, contracted entry by entry without forming their product), as
tr(W(lam) rho) with the reduced 4x4 witness operator W(lam), and by the
closed form (1 - lam q c)/16
for the noisy partially entangled family, where
c = 1 + 4 alpha sqrt(1 - alpha^2).  A strictly negative value certifies
entanglement; separable states can never go below zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .states import input_ensemble, werner_strength

if TYPE_CHECKING:  # the array functions import NumPy where they run
    import numpy as np

    from .linalg import DensityOperator

DETECTION_THRESHOLD = 1e-12

class SingularEnsembleError(ValueError):
    """Raised when the input ensembles do not span the operator space."""


@dataclass(frozen=True, eq=False)
class WitnessCoefficients:
    """Real 4x4 table beta[s, t] weighting the joint-success probabilities."""

    beta: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np

        beta = np.asarray(self.beta, dtype=float)
        if beta.shape != (4, 4):
            raise ValueError(f"beta table must be 4x4; got shape {beta.shape}")
        object.__setattr__(self, "beta", beta)


def werner_beta() -> WitnessCoefficients:
    """Coefficients 5/8 on matched inputs, -1/8 on mismatched ones."""
    import numpy as np

    beta = np.full((4, 4), -1.0 / 8.0)
    np.fill_diagonal(beta, 5.0 / 8.0)
    return WitnessCoefficients(beta)


def _payoffs(matrices: np.ndarray, beta: WitnessCoefficients, lams) -> np.ndarray:
    """Payoffs by the full 16-dimensional trace, one row per sharpness, one column per state.

    `matrices` is a stack of 4x4 two-qubit density matrices and `lams` a
    sequence of sharpness values.  Every operator P+ (x) E+_lam and
    tau_s (x) rho (x) omega_t is built in full, and each trace is taken as
    tr(op eta) = vec(op^T) . vec(eta), without forming the product op @ eta.
    Every payoff takes the same operations as a one-state call: one
    contraction over all the flattened operators, and the beta sum
    accumulated pair by pair.
    """
    import numpy as np

    from .linalg import _kron
    from .measurement import _effects, bell_projector

    taus = omegas = input_ensemble()
    ops = _kron(bell_projector(), _effects(lams)[0])
    # etas[n, s, t] = tau_s (x) rho_n (x) omega_t, each a full 16x16 operator.
    etas = _kron(_kron(taus, matrices[:, None])[:, :, None], omegas)
    # tr(op eta) = sum_jk op[j, k] eta[k, j]: each op transposed and flattened
    # against each eta flattened.  One einsum, not a BLAS product: NumPy would
    # send a one-sharpness call to gemv and a stacked one to gemm, which round
    # differently.
    traces = np.einsum("lk,nk->ln", ops.swapaxes(-1, -2).reshape(-1, 256),
                       etas.reshape(-1, 256)).real.reshape(len(ops), *etas.shape[:3])
    # Row-major accumulation, one pair at a time: a contraction over (s, t)
    # would reorder the sum and move the result in its last bits.
    values = np.zeros(traces.shape[:2])
    for s in range(4):
        for t in range(4):
            values += beta.beta[s, t] * traces[..., s, t]
    return values


def mdi_ew_numeric(rho: DensityOperator, beta: WitnessCoefficients, lam: float) -> float:
    """Witness payoff by the full 16-dimensional trace."""
    from .linalg import _two_qubit_matrix

    matrix = _two_qubit_matrix(rho, "mdi_ew_numeric")
    return float(_payoffs(matrix[None], beta, (lam,))[0, 0])


def _reduced_witness_operators(lams, beta: WitnessCoefficients) -> np.ndarray:
    """reduced_witness_operator at each sharpness of `lams`, as one (len(lams), 4, 4) stack.

    One contraction over the stacked literal operators P+ (x) E+_lam.
    """
    import numpy as np

    from .linalg import _kron
    from .measurement import _effects, bell_projector

    taus = omegas = input_ensemble()
    # Axes: sharpness, then (A', A, B, B') of the output index, then of the input index.
    ops = _kron(bell_projector(), _effects(lams)[0])
    inputs = np.einsum("st,sea,thd->eahd", beta.beta, taus, omegas)
    return np.einsum("labcdefgh,eahd->lbcfg", ops.reshape(-1, *(2,) * 8), inputs).reshape(-1, 4, 4)


def reduced_witness_operator(lam: float, beta: WitnessCoefficients) -> np.ndarray:
    """4x4 operator W(lam) on (A, B) with mdi_ew_numeric(rho, beta, lam) = tr(W(lam) rho).

    The payoff is linear in rho, so the literal P+ (x) E+_lam contracted with
    sum_st beta_st tau_s (x) omega_t over A' and B' leaves W(lam).  For
    werner_beta() it is (1 + lam)/16 I - (lam/4) |psi-><psi-|.
    """
    return _reduced_witness_operators((lam,), beta)[0]


def mdi_ew_closed_form_unsharp(q: float, alpha: float, lam: float) -> float:
    """Payoff (1 - lam q c)/16 with c = 1 + 4 alpha sqrt(1 - alpha^2).

    Equivalently -lam q alpha sqrt(1-alpha^2)/4 + (1 - lam q)/16; at lam = 1,
    alpha = 1/sqrt(2) it is the sharp isotropic payoff (1 - 3q)/16.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1]; got {q}")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"sharpness must lie in [0, 1]; got {lam}")
    return (1.0 - lam * q * werner_strength(alpha)) / 16.0


def threshold_lambda(q: float, alpha: float) -> float:
    """Minimal sharpness 1/(q c) with strictly negative payoff beyond it.

    Values >= 1 (including inf at q = 0) mean no admissible sharpness can
    witness the state.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1]; got {q}")
    strength = werner_strength(alpha)
    if q == 0.0:
        return math.inf
    return 1.0 / (q * strength)


def _input_products(taus: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """The (4, 4, 4, 4) stack of tau_s^T (x) omega_t^T over the pairs (s, t), as tensor builds each."""
    import numpy as np

    from .linalg import _kron

    taus, omegas = (np.asarray(inputs, dtype=complex).swapaxes(-1, -2) for inputs in (taus, omegas))
    return _kron(taus[:, None], omegas[None])


def decompose_witness(w: np.ndarray, taus: np.ndarray, omegas: np.ndarray) -> WitnessCoefficients:
    """Solve sum_st beta_st tau_s^T (x) omega_t^T = w for a real beta table.

    `taus` and `omegas` are stacks of four 2x2 inputs, as input_ensemble() gives.

    Raises SingularEnsembleError when the sixteen products do not span the
    Hermitian operator space (e.g. duplicated inputs).
    """
    import numpy as np

    from .linalg import is_hermitian

    w = np.asarray(w, dtype=complex)
    if w.shape != (4, 4):
        raise ValueError(f"witness operator must be 4x4; got shape {w.shape}")
    if not is_hermitian(w):
        raise ValueError("witness operator must be Hermitian")
    columns = _input_products(taus, omegas).reshape(16, 16).T
    system = np.vstack([columns.real, columns.imag])
    if np.linalg.matrix_rank(system) < 16:
        raise SingularEnsembleError("input ensembles do not span the two-qubit operator space")
    target = np.concatenate([w.reshape(-1).real, w.reshape(-1).imag])
    beta, *_ = np.linalg.lstsq(system, target, rcond=None)
    residual = np.abs(columns @ beta - w.reshape(-1)).max()
    if residual > 1e-10:
        raise SingularEnsembleError(f"decomposition residual {residual} exceeds 1e-10")
    return WitnessCoefficients(beta.reshape(4, 4))
