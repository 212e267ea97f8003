import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdiew.linalg import DensityOperator, tensor
from mdiew.measurement import bell_projector, unsharp_pair
from mdiew.states import (
    ALPHA_MAX,
    input_ensemble,
    psi_alpha,
    werner_alpha,
    werner_strength,
)
from mdiew.witness import (
    SingularEnsembleError,
    WitnessCoefficients,
    _input_products,
    _payoffs,
    _reduced_witness_operators,
    decompose_witness,
    mdi_ew_closed_form_unsharp,
    mdi_ew_numeric,
    reduced_witness_operator,
    threshold_lambda,
    werner_beta,
)

from conftest import (
    random_density_matrix,
    random_hermitian,
    random_separable_two_qubit,
    werner_and_random_states,
)

qs = st.floats(0.0, 1.0)
alphas = st.floats(0.01, ALPHA_MAX)
lambdas = st.floats(0.0, 1.0)

# Pairing the game probabilities with a witness operator W carries a fixed
# factor from the two |Phi+> contractions: sum_st beta_st P(1,1|.) = tr(W rho)/4
# when beta decomposes W over the transposed inputs.  Each sharp projection
# gives <Phi+| X (x) Y |Phi+> = tr(X^T Y)/2, so at lam = 1 the reduced operator
# of the identity target, reduced_witness_operator(1.0, beta), is I/4.
CONTRACTION_FACTOR = 0.25


def recompose(beta, taus, omegas):
    return sum(beta[s, t] * tensor(taus[s].T, omegas[t].T)
               for s in range(4) for t in range(4))


# --- coefficient table -----------------------------------------------------

def test_werner_beta_table():
    beta = werner_beta().beta
    assert beta[0, 0] == pytest.approx(0.625)
    assert beta[0, 1] == pytest.approx(-0.125)
    assert np.allclose(beta.sum(axis=1), 0.25)
    assert beta.shape == (4, 4)


def test_coefficients_reject_wrong_shape():
    with pytest.raises(ValueError, match="4x4"):
        WitnessCoefficients(np.zeros((3, 3)))


# --- numeric evaluation ------------------------------------------------------

def test_numeric_payoff_spot_values():
    beta = werner_beta()
    singlet = werner_alpha(1.0, ALPHA_MAX)
    assert mdi_ew_numeric(singlet, beta, 1.0) == pytest.approx(-0.125, abs=1e-12)
    noise = werner_alpha(0.0, ALPHA_MAX)
    assert mdi_ew_numeric(noise, beta, 1.0) == pytest.approx(1 / 16, abs=1e-12)
    assert abs(mdi_ew_numeric(singlet, beta, 1 / 3)) < 1e-12


def joint_success_probability(rho, lam, s, t):
    """Reference: P_lam(1,1 | tau_s, omega_t) from one tau_s (x) rho (x) omega_t trace.

    Alice measures sharply on (A', A); Bob applies the unsharp plus effect on
    (B, B').
    """
    taus = omegas = input_ensemble()
    plus, _ = unsharp_pair(lam)
    op = tensor(bell_projector(), plus)
    eta = tensor(taus[s], rho.matrix, omegas[t])
    return float(np.trace(op @ eta).real)


def test_numeric_uses_single_probabilities():
    beta = werner_beta()
    rho = werner_alpha(0.7, 0.5)
    lam = 0.6
    total = sum(beta.beta[s, t] * joint_success_probability(rho, lam, s, t)
                for s in range(4) for t in range(4))
    assert mdi_ew_numeric(rho, beta, lam) == pytest.approx(total, abs=1e-14)


def _flattened_trace(op, eta):
    """tr(op @ eta) by the payoff kernel's contraction: op^T flattened against eta flattened."""
    return np.einsum("lk,nk->ln", op.T.reshape(1, -1), eta.reshape(1, -1))[0, 0].real


def _product_trace(op, eta):
    """tr(op @ eta) from the full 16x16 product."""
    return np.trace(op @ eta).real


def _per_pair_loop_payoff(rho, beta, lam, trace=_flattened_trace):
    """Reference: one np.kron-built 16x16 operator and trace per (s, t) pair."""
    taus = omegas = input_ensemble()
    plus, _ = unsharp_pair(lam)
    op = np.kron(bell_projector(), plus)
    value = 0.0
    for s in range(4):
        tau = taus[s]
        for t in range(4):
            eta = np.kron(np.kron(tau, rho.matrix), omegas[t])
            value += beta.beta[s, t] * trace(op, eta)
    return float(value)


def _reference_states():
    rng = np.random.default_rng(20241017)
    werner = [werner_alpha(q, alpha) for q in (0.0, 0.4, 1.0) for alpha in (0.2, ALPHA_MAX)]
    werner += [werner_alpha(rng.uniform(), rng.uniform(0.0, ALPHA_MAX)) for _ in range(6)]
    return werner + [random_separable_two_qubit(rng) for _ in range(12)]


@pytest.mark.parametrize("lam", [0.0, 1.0 / 3.0, 0.5, 1.0])
def test_numeric_is_bit_identical_to_per_pair_loop(lam):
    beta = werner_beta()
    rng = np.random.default_rng(7)
    tables = [beta, WitnessCoefficients(rng.standard_normal((4, 4)))]
    for rho in _reference_states():
        for table in tables:
            assert mdi_ew_numeric(rho, table, lam) == _per_pair_loop_payoff(rho, table, lam)


@pytest.mark.parametrize("lam", [0.0, 1.0 / 3.0, 0.5, 1.0])
def test_numeric_is_within_few_ulps_of_the_product_trace(lam):
    # Each pair's trace is a probability in [0, 1]; the flattened contraction
    # sums its 256 terms in another order than np.trace(op @ eta), so allow
    # two ulps of 1 per pair, weighted by |beta_st|.
    rng = np.random.default_rng(7)
    tables = [werner_beta(), WitnessCoefficients(rng.standard_normal((4, 4)))]
    for rho in _reference_states():
        for table in tables:
            bound = 2.0 * np.finfo(float).eps * np.abs(table.beta).sum()
            reference = _per_pair_loop_payoff(rho, table, lam, trace=_product_trace)
            assert abs(mdi_ew_numeric(rho, table, lam) - reference) <= bound


@pytest.mark.parametrize("size", [1, 2, 7])
def test_payoff_kernel_is_bit_identical_to_per_state_calls(size):
    rhos = werner_and_random_states(np.random.default_rng(size), size)
    matrices = np.stack([rho.matrix for rho in rhos])
    lams = (0.0, 1.0 / 3.0, 0.5, 1.0)
    random_table = WitnessCoefficients(np.random.default_rng(7).standard_normal((4, 4)))
    for table in (werner_beta(), random_table):
        per_state = [[mdi_ew_numeric(rho, table, lam) for rho in rhos] for lam in lams]
        assert np.array_equal(_payoffs(matrices, table, lams), per_state)


@pytest.mark.parametrize("n_lams, n_states", [(1, 7), (4, 1)])
def test_payoff_kernel_is_bit_identical_to_per_point_calls(n_lams, n_states):
    # one sharpness against many states and many sharpness values against one
    # state: the shapes at which a BLAS product would switch between gemv and gemm
    rhos = werner_and_random_states(np.random.default_rng(3), n_states)
    matrices = np.stack([rho.matrix for rho in rhos])
    lams = (0.6, 0.0, 1.0 / 3.0, 1.0)[:n_lams]
    random_table = WitnessCoefficients(np.random.default_rng(9).standard_normal((4, 4)))
    for table in (werner_beta(), random_table):
        got = _payoffs(matrices, table, lams)
        assert got.shape == (n_lams, n_states)
        assert np.array_equal(got, [[mdi_ew_numeric(rho, table, lam) for rho in rhos]
                                    for lam in lams])


def test_numeric_rejects_wrong_layout(rng):
    three_qubits = DensityOperator(random_density_matrix(rng, 8))
    with pytest.raises(ValueError, match="two-qubit"):
        mdi_ew_numeric(three_qubits, werner_beta(), 1.0)


# --- reduced 4x4 operator --------------------------------------------------------

@example(seed=1, lam=0.0)
@example(seed=2, lam=1.0 / 3.0)
@example(seed=3, lam=1.0)
@given(seed=st.integers(0, 2**32 - 1), lam=lambdas)
def test_reduced_operator_reproduces_literal_payoff(seed, lam):
    rho = DensityOperator(random_density_matrix(np.random.default_rng(seed), 4))
    beta = werner_beta()
    reduced = np.trace(reduced_witness_operator(lam, beta) @ rho.matrix).real
    assert abs(reduced - mdi_ew_numeric(rho, beta, lam)) <= 1e-15


def test_reduced_operator_matches_closed_form():
    singlet = psi_alpha(ALPHA_MAX)
    projector = np.outer(singlet, singlet.conj())
    for lam in np.linspace(0.0, 1.0, 101):
        closed = (1.0 + lam) / 16.0 * np.eye(4) - lam / 4.0 * projector
        assert np.abs(reduced_witness_operator(lam, werner_beta()) - closed).max() <= 1e-15


def test_stacked_reduced_operators_are_bit_identical_to_per_lambda_calls(rng):
    lams = np.linspace(0.0, 1.0, 101)
    taus = omegas = input_ensemble()
    for beta in (werner_beta(), decompose_witness(random_hermitian(rng, 4), taus, omegas)):
        got = _reduced_witness_operators(lams, beta)
        assert np.array_equal(got, [reduced_witness_operator(lam, beta) for lam in lams])


def test_reduced_operator_of_decomposed_target_is_a_quarter_of_it(rng):
    # the derivation of CONTRACTION_FACTOR: at lam = 1, W = CONTRACTION_FACTOR * target
    taus = omegas = input_ensemble()
    targets = [np.eye(4)] + [random_hermitian(rng, 4) for _ in range(10)]
    for target in targets:
        reduced = reduced_witness_operator(1.0, decompose_witness(target, taus, omegas))
        assert np.abs(reduced - CONTRACTION_FACTOR * target).max() <= 1e-15


# --- closed forms ---------------------------------------------------------------

def test_closed_form_spot_values():
    # sharp measurement on the isotropic singlet mixture: (1 - 3q)/16
    assert mdi_ew_closed_form_unsharp(1.0, ALPHA_MAX, 1.0) == pytest.approx(-0.125, abs=0)
    assert mdi_ew_closed_form_unsharp(1 / 3, ALPHA_MAX, 1.0) == pytest.approx(0.0, abs=1e-16)
    assert mdi_ew_closed_form_unsharp(0.0, ALPHA_MAX, 1.0) == pytest.approx(0.0625, abs=0)


def test_unsharp_closed_form_spot_values():
    assert mdi_ew_closed_form_unsharp(1.0, ALPHA_MAX, 1.0) == pytest.approx(-0.125, abs=1e-15)
    assert abs(mdi_ew_closed_form_unsharp(1.0, ALPHA_MAX, 1 / 3)) < 1e-12
    assert abs(mdi_ew_closed_form_unsharp(0.5, ALPHA_MAX, 2 / 3)) < 1e-12


@given(qs)
def test_unsharp_reduces_to_sharp_form(q):
    sharp = mdi_ew_closed_form_unsharp(q, ALPHA_MAX, 1.0)
    assert sharp == pytest.approx((1 - 3 * q) / 16, abs=1e-14)


def test_unsharp_matches_product_form():
    # -lam q alpha sqrt(1-alpha^2)/4 + (1 - lam q)/16, same expression regrouped
    for q, alpha, lam in [(0.8, 0.3, 0.9), (0.4, 0.6, 0.5), (1.0, 0.1, 1.0)]:
        explicit = (-lam * q * alpha * math.sqrt(1 - alpha**2) / 4
                    + (1 - lam * q) / 16)
        assert mdi_ew_closed_form_unsharp(q, alpha, lam) == pytest.approx(explicit, abs=1e-15)


@settings(max_examples=40)
@given(qs, alphas, lambdas)
def test_numeric_equals_closed_form(q, alpha, lam):
    numeric = mdi_ew_numeric(werner_alpha(q, alpha), werner_beta(), lam)
    closed = mdi_ew_closed_form_unsharp(q, alpha, lam)
    assert abs(numeric - closed) < 1e-10


@given(qs.filter(lambda q: q > 0.05), alphas)
def test_payoff_strictly_decreasing_in_sharpness(q, alpha):
    values = [mdi_ew_closed_form_unsharp(q, alpha, lam)
              for lam in np.linspace(0.0, 1.0, 9)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_payoff_negative_exactly_beyond_threshold():
    q, alpha = 0.9, 0.45
    lam_th = threshold_lambda(q, alpha)
    assert mdi_ew_closed_form_unsharp(q, alpha, lam_th * (1 + 1e-6)) < 0
    assert mdi_ew_closed_form_unsharp(q, alpha, lam_th * (1 - 1e-6)) > 0


# --- threshold sharpness -----------------------------------------------------------

def test_threshold_spot_values():
    assert threshold_lambda(1.0, ALPHA_MAX) == pytest.approx(1 / 3, abs=1e-14)
    assert threshold_lambda(1 / 3, ALPHA_MAX) == pytest.approx(1.0, abs=1e-12)
    assert threshold_lambda(1.0, 0.1) == pytest.approx(1 / (1 + 0.4 * math.sqrt(0.99)),
                                                       abs=1e-14)
    assert threshold_lambda(1.0, 0.1) == pytest.approx(0.7153101534664353, abs=1e-12)


def test_threshold_infeasible_cases():
    assert threshold_lambda(0.0, 0.5) == math.inf
    assert threshold_lambda(0.2, 0.5) > 1.0
    with pytest.raises(ValueError, match="q"):
        threshold_lambda(1.5, 0.5)


# --- separable bound -----------------------------------------------------------------

@settings(max_examples=25)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.25, 0.5, 1.0]))
def test_separable_states_never_score_negative(seed, lam):
    rho = random_separable_two_qubit(np.random.default_rng(seed))
    value = mdi_ew_numeric(rho, werner_beta(), lam)
    assert value >= -1e-10


# --- decomposition ---------------------------------------------------------------------

def test_decompose_round_trips_werner_table():
    taus = omegas = input_ensemble()
    beta = werner_beta().beta
    target = recompose(beta, taus, omegas)
    recovered = decompose_witness(target, taus, omegas)
    assert np.abs(recovered.beta - beta).max() < 1e-10


def test_decompose_witness_of_singlet_projector_gives_werner_table():
    # the 5/8 / -1/8 table decomposes exactly W = I/2 - |psi_max><psi_max|
    taus = omegas = input_ensemble()
    vec = psi_alpha(ALPHA_MAX)
    witness_op = np.eye(4) / 2 - np.outer(vec, vec.conj())
    recovered = decompose_witness(witness_op, taus, omegas)
    assert np.abs(recovered.beta - werner_beta().beta).max() < 1e-10


def test_decompose_identity_target():
    taus = omegas = input_ensemble()
    beta = decompose_witness(np.eye(4), taus, omegas)
    assert np.abs(recompose(beta.beta, taus, omegas) - np.eye(4)).max() < 1e-10


def test_input_products_are_bit_identical_to_tensor_calls(rng):
    ensembles = [input_ensemble(), np.stack([random_hermitian(rng, 2) for _ in range(4)])]
    for taus in ensembles:
        for omegas in ensembles:
            products = _input_products(taus, omegas)
            for s in range(4):
                for t in range(4):
                    assert np.array_equal(products[s, t], tensor(taus[s].T, omegas[t].T))


def test_decompose_rejects_degenerate_ensemble():
    taus = input_ensemble()
    duplicated = np.stack([taus[0]] * 4)
    with pytest.raises(SingularEnsembleError):
        decompose_witness(np.eye(4), duplicated, taus)


def test_decompose_rejects_non_hermitian():
    taus = omegas = input_ensemble()
    with pytest.raises(ValueError, match="Hermitian"):
        decompose_witness(np.triu(np.ones((4, 4))), taus, omegas)


def test_contraction_factor_calibration(rng):
    # beta-weighted success probabilities evaluate tr(W rho) times a fixed
    # constant; calibrate it on the identity target, then cross-check
    taus = omegas = input_ensemble()
    identity_beta = decompose_witness(np.eye(4), taus, omegas)
    rho = DensityOperator(random_density_matrix(rng, 4))
    calibrated = mdi_ew_numeric(rho, identity_beta, 1.0)  # tr(I rho) * k = k
    assert calibrated == pytest.approx(CONTRACTION_FACTOR, abs=1e-12)
    for _ in range(5):
        target = random_hermitian(rng, 4)
        beta = decompose_witness(target, taus, omegas)
        value = mdi_ew_numeric(rho, beta, 1.0)
        expected = CONTRACTION_FACTOR * np.trace(target @ rho.matrix).real
        assert value == pytest.approx(expected, abs=1e-10)
