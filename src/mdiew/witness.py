"""Measurement-device-independent entanglement witnessing.

The payoff of the semi-quantum game is

    I_lam(rho) = sum_st beta_st P_lam(1,1 | tau_s, omega_t),

evaluated here by the full 16-dimensional trace (the literal 16x16
operators, contracted entry by entry without forming their product: every
nonzero term of tr(op eta) in the dense order, skipping only the exact
zeros of the literal operator), as tr(W(lam) rho) with the reduced 4x4
witness operator W(lam), and by the closed form (1 - lam q c)/16
for the noisy partially entangled family, where
c = 1 + 4 alpha sqrt(1 - alpha^2).  A strictly negative value certifies
entanglement; separable states can never go below zero.  The literal trace
and W(lam) are built for whole stacks of states and sharpness values.

The referee's inputs are a tetrahedral qubit SIC, so their duals
D_s = (3 tau_s^T - I)/2 satisfy tr(D_s tau_t^T) = delta_st, and a Hermitian
W = sum_st beta_st tau_s^T (x) omega_t^T has beta_st = tr(W (D_s (x) D_t)).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .states import _checked, input_ensemble, werner_strength

if TYPE_CHECKING:  # the array functions import NumPy where they run
    import numpy as np

DETECTION_THRESHOLD = 1e-12


class WitnessCoefficients:
    """Real 4x4 table beta[s, t] weighting the joint-success probabilities."""

    __slots__ = ("beta",)

    def __init__(self, beta: np.ndarray) -> None:
        import numpy as np

        beta = np.asarray(beta)
        if np.iscomplexobj(beta) and (beta.imag != 0).any():
            raise ValueError("beta table must be real; got a nonzero imaginary part")
        beta = np.asarray(beta.real, dtype=float)
        if beta.shape != (4, 4):
            raise ValueError(f"beta table must be 4x4; got shape {beta.shape}")
        if not np.isfinite(beta).all():
            raise ValueError("beta table must be finite; got a NaN or infinite entry")
        self.beta = beta

    def __repr__(self) -> str:
        return f"WitnessCoefficients(beta={self.beta!r})"


def werner_beta() -> WitnessCoefficients:
    """Coefficients 5/8 on matched inputs, -1/8 on mismatched ones."""
    import numpy as np

    beta = np.full((4, 4), -1.0 / 8.0)
    np.fill_diagonal(beta, 5.0 / 8.0)
    return WitnessCoefficients(beta)


def mdi_ew_numeric(matrices, beta: WitnessCoefficients, lams) -> np.ndarray:
    """Payoffs by the full 16-dimensional trace, one row per sharpness, one column per state.

    `matrices` is an (n, 4, 4) stack of two-qubit density matrices and
    `lams` one sharpness value or a sequence of them.  Every operator
    P+ (x) E+_lam is built in full, and each trace is taken as
    tr(op eta) = vec(op^T) . vec(eta), without forming the product op @ eta.
    The sum runs over every entry where some op of the stack is nonzero, in
    the dense order, and builds only those entries of
    tau_s (x) rho (x) omega_t.  The terms it skips are exact zeros of the
    literal operators, and adding +-0 leaves the sum's bits unchanged, so
    every payoff equals the dense 256-term sum bit for bit.  Every payoff
    takes the same operations as a one-state, one-sharpness call: one
    contraction over all the gathered entries, and the beta sum accumulated
    pair by pair.

    Raises ValueError naming the first state of the stack with a non-finite
    entry: a skipped entry would otherwise drop its NaN silently.
    """
    import numpy as np

    from .linalg import _kron, _two_qubit_stack
    from .measurement import _effects, bell_projector

    matrices = _two_qubit_stack(matrices, "mdi_ew_numeric")
    taus = omegas = input_ensemble()
    # tr(op eta) = sum_jk op[j, k] eta[k, j]: each op transposed and flattened
    # against each eta flattened, over the support, the entries where some op
    # of the stack is nonzero.
    ops = _kron(bell_projector(), _effects(lams)[0]).swapaxes(-1, -2).reshape(-1, 256)
    support = np.flatnonzero((ops != 0).any(axis=0))
    # Entry (row, col) of tau_s (x) rho (x) omega_t, with row = (4 i + a) 2 + m
    # and col = (4 j + b) 2 + n, is the single product that _kron forms:
    # (tau_s[i, j] rho[a, b]) omega_t[m, n].
    i, a, m, j, b, n = np.unravel_index(support, (2, 4, 2) * 2)
    etas = (taus[:, i, j] * matrices[:, None, a, b])[:, :, None] * omegas[:, m, n]
    # One einsum, not a BLAS product: NumPy would send a one-sharpness call to
    # gemv and a stacked one to gemm, which round differently.
    traces = np.einsum("lk,nk->ln", ops[:, support],
                       etas.reshape(-1, len(support))).real.reshape(len(ops), *etas.shape[:3])
    # Row-major accumulation, one pair at a time: a contraction over (s, t)
    # would reorder the sum and move the result in its last bits.
    values = np.zeros(traces.shape[:2])
    for s in range(4):
        for t in range(4):
            values += beta.beta[s, t] * traces[..., s, t]
    return values


def reduced_witness_operators(lams, beta: WitnessCoefficients) -> np.ndarray:
    """4x4 operators W(lam) on (A, B) with tr(W(lam) rho) the mdi_ew_numeric payoff of rho.

    One (len(lams), 4, 4) stack, one entry per sharpness of `lams`.  The
    payoff is linear in rho, so the literal P+ (x) E+_lam contracted with
    sum_st beta_st tau_s (x) omega_t over A' and B' leaves W(lam), all in one
    contraction over the stacked literal operators.  For werner_beta() it is
    W(lam) = (1 + lam)/16 I - (lam/4) |psi-><psi-|.
    """
    import numpy as np

    from .linalg import _kron
    from .measurement import _effects, bell_projector

    taus = omegas = input_ensemble()
    # Axes: sharpness, then (A', A, B, B') of the output index, then of the input index.
    ops = _kron(bell_projector(), _effects(lams)[0])
    inputs = np.einsum("st,sea,thd->eahd", beta.beta, taus, omegas)
    return np.einsum("labcdefgh,eahd->lbcfg", ops.reshape(-1, *(2,) * 8), inputs).reshape(-1, 4, 4)


def mdi_ew_closed_form_unsharp(q, alpha, lam) -> float | np.ndarray:
    """Payoff (1 - lam q c)/16 with c = 1 + 4 alpha sqrt(1 - alpha^2).

    Equivalently -lam q alpha sqrt(1-alpha^2)/4 + (1 - lam q)/16; at lam = 1,
    alpha = 1/sqrt(2) it is the sharp isotropic payoff (1 - 3q)/16.  The
    arguments broadcast, and scalars give a float.  Every q is checked, then
    every sharpness, then every alpha; the first bad entry, NaN included,
    raises its error.  Each c is werner_strength's, entry by entry.
    """
    import numpy as np

    qs, lams = _checked(q, "q"), _checked(lam, "sharpness")
    alphas = np.asarray(alpha, dtype=float)
    strengths = np.reshape([werner_strength(a) for a in alphas.ravel().tolist()], alphas.shape)
    values = (1.0 - lams * qs * strengths) / 16.0
    return values if values.ndim else float(values)


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


def input_products() -> np.ndarray:
    """The (4, 4, 4, 4) stack of tau_s^T (x) omega_t^T, each as np.kron builds it."""
    from .linalg import _kron

    inputs = input_ensemble().swapaxes(-1, -2)
    return _kron(inputs[:, None], inputs[None])


def decompose_witness(w: np.ndarray) -> WitnessCoefficients:
    """The real beta table with sum_st beta_st tau_s^T (x) omega_t^T = w.

    The inputs are a qubit SIC, so the dual frame D_s = (3 tau_s^T - I)/2 has
    tr(D_s tau_t^T) = delta_st and beta_st = tr(w (D_s (x) D_t)): one
    contraction, no linear solve.  The trace is real for Hermitian w.
    """
    import numpy as np

    from .linalg import HERMITICITY_ATOL

    w = np.asarray(w, dtype=complex)
    if w.shape != (4, 4):
        raise ValueError(f"witness operator must be 4x4; got shape {w.shape}")
    if not np.max(np.abs(w - w.conj().T)) <= HERMITICITY_ATOL:
        raise ValueError("witness operator must be Hermitian")
    duals = (3.0 * input_ensemble().swapaxes(-1, -2) - np.eye(2)) / 2.0
    # tr(w (D_s (x) D_t)) = sum w[(i, k), (j, l)] D_s[j, i] D_t[l, k]
    beta = np.einsum("ikjl,sji,tlk->st", w.reshape(2, 2, 2, 2), duals, duals)
    return WitnessCoefficients(beta.real)
