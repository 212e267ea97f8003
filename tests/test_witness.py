import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdiew.measurement import _effects, bell_projector
from mdiew.states import (
    ALPHA_MAX,
    input_ensemble,
    werner_alpha,
    werner_strength,
)
from mdiew.witness import (
    WitnessCoefficients,
    decompose_witness,
    input_products,
    mdi_ew_closed_form_unsharp,
    mdi_ew_numeric,
    reduced_witness_operators,
    threshold_lambda,
    werner_beta,
)

from conftest import (
    assert_bit_identical,
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
# of the identity target, reduced_witness_operators([1.0], beta)[0], is I/4.
CONTRACTION_FACTOR = 0.25


def recompose(beta):
    """sum_st beta_st tau_s^T (x) omega_t^T over the referee's inputs, one np.kron per pair."""
    taus = omegas = input_ensemble()
    return sum(beta[s, t] * np.kron(taus[s].T, omegas[t].T)
               for s in range(4) for t in range(4))


def payoff(rho, beta, lam):
    """The literal payoff of one 4x4 state at one sharpness: the kernel's stack of one."""
    return mdi_ew_numeric(rho[None], beta, lam)[0, 0]


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_coefficients_reject_non_finite_entries(bad):
    beta = werner_beta().beta.copy()
    beta[2, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        WitnessCoefficients(beta)
    with pytest.raises(ValueError, match="finite"):
        WitnessCoefficients(np.full((4, 4), bad))


def test_coefficients_reject_imaginary_parts():
    with pytest.raises(ValueError, match="real"):
        WitnessCoefficients(np.full((4, 4), 0.25 + 0.5j))
    beta = werner_beta().beta.astype(complex)
    beta[1, 3] += 1e-300j
    with pytest.raises(ValueError, match="real"):
        WitnessCoefficients(beta)
    assert np.array_equal(WitnessCoefficients(werner_beta().beta + 0j).beta, werner_beta().beta)


# --- numeric evaluation ------------------------------------------------------

def test_numeric_payoff_spot_values():
    beta = werner_beta()
    singlet = werner_alpha(1.0, ALPHA_MAX)[0]
    assert payoff(singlet, beta, 1.0) == pytest.approx(-0.125, abs=1e-12)
    noise = werner_alpha(0.0, ALPHA_MAX)[0]
    assert payoff(noise, beta, 1.0) == pytest.approx(1 / 16, abs=1e-12)
    assert abs(payoff(singlet, beta, 1 / 3)) < 1e-12


def joint_success_probability(rho, lam, s, t):
    """Reference: P_lam(1,1 | tau_s, omega_t) from one tau_s (x) rho (x) omega_t trace.

    Alice measures sharply on (A', A); Bob applies the unsharp plus effect on
    (B, B').
    """
    taus = omegas = input_ensemble()
    op = np.kron(bell_projector(), _effects([lam])[0][0])
    eta = np.kron(np.kron(taus[s], rho), omegas[t])
    return float(np.trace(op @ eta).real)


def test_numeric_uses_single_probabilities():
    beta = werner_beta()
    rho = werner_alpha(0.7, 0.5)[0]
    lam = 0.6
    total = sum(beta.beta[s, t] * joint_success_probability(rho, lam, s, t)
                for s in range(4) for t in range(4))
    assert payoff(rho, beta, lam) == pytest.approx(total, abs=1e-14)


def _flattened_trace(op, eta):
    """tr(op @ eta) by the payoff kernel's contraction: op^T flattened against eta flattened."""
    return np.einsum("lk,nk->ln", op.T.reshape(1, -1), eta.reshape(1, -1))[0, 0].real


def _product_trace(op, eta):
    """tr(op @ eta) from the full 16x16 product."""
    return np.trace(op @ eta).real


def _per_pair_loop_payoff(rho, beta, lam, trace=_flattened_trace):
    """Reference: one np.kron-built 16x16 operator and trace per (s, t) pair."""
    taus = omegas = input_ensemble()
    op = np.kron(bell_projector(), _effects([lam])[0][0])
    value = 0.0
    for s in range(4):
        tau = taus[s]
        for t in range(4):
            eta = np.kron(np.kron(tau, rho), omegas[t])
            value += beta.beta[s, t] * trace(op, eta)
    return float(value)


def _reference_states():
    rng = np.random.default_rng(20241017)
    werner = [werner_alpha(q, alpha)[0] for q in (0.0, 0.4, 1.0) for alpha in (0.2, ALPHA_MAX)]
    werner += [werner_alpha(rng.uniform(), rng.uniform(0.0, ALPHA_MAX))[0] for _ in range(6)]
    return werner + [random_separable_two_qubit(rng) for _ in range(12)]


@pytest.mark.parametrize("lam", [0.0, 1.0 / 3.0, 0.5, 1.0])
def test_numeric_is_bit_identical_to_per_pair_loop(lam):
    beta = werner_beta()
    rng = np.random.default_rng(7)
    tables = [beta, WitnessCoefficients(rng.standard_normal((4, 4)))]
    for rho in _reference_states():
        for table in tables:
            assert payoff(rho, table, lam) == _per_pair_loop_payoff(rho, table, lam)


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
            assert abs(payoff(rho, table, lam) - reference) <= bound


@pytest.mark.parametrize("size", [1, 2, 7])
def test_payoff_kernel_is_bit_identical_to_per_state_calls(size):
    matrices = werner_and_random_states(np.random.default_rng(size), size)
    lams = (0.0, 1.0 / 3.0, 0.5, 1.0)
    random_table = WitnessCoefficients(np.random.default_rng(7).standard_normal((4, 4)))
    for table in (werner_beta(), random_table):
        per_state = [[payoff(rho, table, lam) for rho in matrices] for lam in lams]
        assert np.array_equal(mdi_ew_numeric(matrices, table, lams), per_state)


@pytest.mark.parametrize("n_lams, n_states", [(1, 7), (4, 1)])
def test_payoff_kernel_is_bit_identical_to_per_point_calls(n_lams, n_states):
    # one sharpness against many states and many sharpness values against one
    # state: the shapes at which a BLAS product would switch between gemv and gemm
    matrices = werner_and_random_states(np.random.default_rng(3), n_states)
    lams = (0.6, 0.0, 1.0 / 3.0, 1.0)[:n_lams]
    random_table = WitnessCoefficients(np.random.default_rng(9).standard_normal((4, 4)))
    for table in (werner_beta(), random_table):
        got = mdi_ew_numeric(matrices, table, lams)
        assert got.shape == (n_lams, n_states)
        assert np.array_equal(got, [[payoff(rho, table, lam) for rho in matrices]
                                    for lam in lams])


@pytest.mark.parametrize("size", [1, 2, 7])
def test_payoff_kernel_is_bit_identical_to_the_dense_kron_oracle(size):
    # The kernel sums only the entries where some literal operator of the
    # stack is nonzero; the oracle builds every 16x16 operator with np.kron and
    # sums all 256 terms.  Sharp, trivial and interior sharpness values mixed.
    matrices = werner_and_random_states(np.random.default_rng(100 + size), size)
    random_table = WitnessCoefficients(np.random.default_rng(11).standard_normal((4, 4)))
    for lams in [(0.0, 0.37, 1.0 / 3.0, 1.0), (1.0, 0.0), (0.81, 1.0 / 3.0), (0.0,), (0.52,)]:
        for table in (werner_beta(), random_table):
            assert_bit_identical(mdi_ew_numeric(matrices, table, lams),
                                 [[_per_pair_loop_payoff(rho, table, lam) for rho in matrices]
                                  for lam in lams])


def _trivial_effect_reads(row, col):
    """Whether P+ (x) E+_0 = P+ (x) I/4 has a nonzero term on rho[row, col].

    Read off the dense np.kron operator: rho[row, col] enters tr(op eta) only
    through entries of op^T on the rows and columns where (A, B) is (row, col).
    """
    op = np.kron(bell_projector(), _effects([0.0])[0][0]).T.reshape((2, 4, 2) * 2)
    return bool(np.any(op[:, row, :, :, col, :] != 0))


def test_skipped_terms_are_the_zeros_of_the_literal_operator():
    # P+ (x) I/4 leaves B's row and column index equal, so at lam = 0 the
    # kernel reads only the eight rho[(a, b), (c, b)] and drops the terms of
    # the other eight entries: changing one of those leaves the payoff's bits
    # as they are, for any beta table, and the dense oracle agrees.  Under a
    # random table, changing a read entry moves them (the Werner table's
    # lam = 0 witness is a multiple of I, which sees the diagonal only), and
    # an interior sharpness reads every entry.
    read = [(row, col) for row in range(4) for col in range(4) if _trivial_effect_reads(row, col)]
    assert read == [(row, col) for row in range(4) for col in range(4) if row % 2 == col % 2]
    rho = random_density_matrix(np.random.default_rng(5), 4)
    lams = (0.0, 0.6)
    random_table = WitnessCoefficients(np.random.default_rng(7).standard_normal((4, 4)))
    for table in (werner_beta(), random_table):
        before = mdi_ew_numeric(rho[None], table, lams)
        for row in range(4):
            for col in range(4):
                perturbed = rho.copy()
                perturbed[row, col] += 0.25 - 0.125j
                after = mdi_ew_numeric(perturbed[None], table, lams)
                if (row, col) not in read:
                    assert after[0].tobytes() == before[0].tobytes()
                    assert_bit_identical(after[0], [_per_pair_loop_payoff(perturbed, table, 0.0)])
                elif table is random_table:
                    assert after[0, 0] != before[0, 0]
                if table is random_table:
                    assert after[1, 0] != before[1, 0]


@pytest.mark.parametrize("entry", [(0, 2), (0, 1)])
def test_numeric_rejects_non_finite_states(entry):
    # rho[0, 2] is one of the entries the lam = 0 operator reads, rho[0, 1]
    # one it skips: either way the NaN must not turn into a finite payoff.
    matrix = np.eye(4, dtype=complex) / 4
    matrix[entry] = math.nan
    for lam in (0.0, 0.5, 1.0):
        with pytest.raises(ValueError, match="state 0 .*non-finite"):
            mdi_ew_numeric(matrix[None], werner_beta(), lam)


def test_payoff_kernel_names_the_first_non_finite_state():
    matrices = np.stack([np.eye(4, dtype=complex) / 4] * 5)
    matrices[3, 1, 0] = complex(0.0, math.inf)
    matrices[4, 2, 2] = math.nan
    with pytest.raises(ValueError, match="state 3 of the stack has a non-finite entry"):
        mdi_ew_numeric(matrices, werner_beta(), (0.0, 0.5))


def test_numeric_rejects_wrong_layout(rng):
    three_qubits = random_density_matrix(rng, 8)[None]
    with pytest.raises(ValueError, match="two-qubit"):
        mdi_ew_numeric(three_qubits, werner_beta(), 1.0)


# --- reduced 4x4 operator --------------------------------------------------------

@example(seed=1, lam=0.0)
@example(seed=2, lam=1.0 / 3.0)
@example(seed=3, lam=1.0)
@given(seed=st.integers(0, 2**32 - 1), lam=lambdas)
def test_reduced_operator_reproduces_literal_payoff(seed, lam):
    rho = random_density_matrix(np.random.default_rng(seed), 4)
    beta = werner_beta()
    reduced = np.trace(reduced_witness_operators([lam], beta)[0] @ rho).real
    assert abs(reduced - payoff(rho, beta, lam)) <= 1e-15


def test_reduced_operator_matches_closed_form():
    projector = werner_alpha(1.0, ALPHA_MAX)[0]
    for lam in np.linspace(0.0, 1.0, 101):
        closed = (1.0 + lam) / 16.0 * np.eye(4) - lam / 4.0 * projector
        assert np.abs(reduced_witness_operators([lam], werner_beta())[0] - closed).max() <= 1e-15


def test_stacked_reduced_operators_are_bit_identical_to_per_lambda_calls(rng):
    lams = np.linspace(0.0, 1.0, 101)
    for beta in (werner_beta(), decompose_witness(random_hermitian(rng, 4))):
        got = reduced_witness_operators(lams, beta)
        assert np.array_equal(got, [reduced_witness_operators([lam], beta)[0] for lam in lams])


def test_reduced_operator_of_decomposed_target_is_a_quarter_of_it(rng):
    # the derivation of CONTRACTION_FACTOR: at lam = 1, W = CONTRACTION_FACTOR * target
    targets = [np.eye(4)] + [random_hermitian(rng, 4) for _ in range(10)]
    for target in targets:
        reduced = reduced_witness_operators([1.0], decompose_witness(target))[0]
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
    numeric = payoff(werner_alpha(q, alpha)[0], werner_beta(), lam)
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


def test_closed_form_gives_a_float_for_scalars():
    assert type(mdi_ew_closed_form_unsharp(1.0, ALPHA_MAX, 1.0)) is float
    assert type(mdi_ew_closed_form_unsharp(1, ALPHA_MAX, np.float64(0.5))) is float


def test_closed_form_twin_broadcasts_sharpness_rows_against_state_columns():
    qs, alphas, lams = [0.0, 0.4, 1.0], [0.1, 0.5, ALPHA_MAX], np.linspace(0.0, 1.0, 5)
    loop = [[mdi_ew_closed_form_unsharp(q, alpha, lam) for q, alpha in zip(qs, alphas)]
            for lam in lams]
    assert_bit_identical(mdi_ew_closed_form_unsharp(qs, alphas, lams[:, None]), loop)


@pytest.mark.parametrize("closed_form, message", [
    (lambda qs: mdi_ew_closed_form_unsharp(qs, 0.5, 0.5), r"q must lie in \[0, 1\]"),
    (lambda alphas: mdi_ew_closed_form_unsharp(0.5, alphas, 0.5),
     r"alpha must lie in \(0, 1/sqrt\(2\)\]"),
    (lambda lams: mdi_ew_closed_form_unsharp(0.5, 0.5, lams), r"sharpness must lie in \[0, 1\]"),
], ids=["q", "alpha", "sharpness"])
@pytest.mark.parametrize("bad, shown", [(math.nan, "nan"), (1.5, "1.5")])
def test_closed_form_twin_names_its_first_bad_entry(closed_form, message, bad, shown):
    entries = np.linspace(0.01, 0.5, 2000)
    entries[5] = bad
    entries[1000] = -0.5
    with pytest.raises(ValueError, match=rf"^{message}; got {shown}$"):
        closed_form(entries)


def test_closed_form_twin_checks_q_then_sharpness_then_alpha():
    with pytest.raises(ValueError, match="q must"):
        mdi_ew_closed_form_unsharp([0.5, 2.0], [0.9], [1.5])
    with pytest.raises(ValueError, match="sharpness must"):
        mdi_ew_closed_form_unsharp([0.5], [0.9], [1.5])


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
    value = payoff(rho, werner_beta(), lam)
    assert value >= -1e-10


# --- decomposition ---------------------------------------------------------------------

def test_dual_frame_is_biorthogonal_to_the_inputs():
    # decompose_witness is exact because D_s = (3 tau_s^T - I)/2 has
    # tr(D_s tau_t^T) = delta_st, which holds when the inputs form a qubit SIC
    inputs = input_ensemble()
    duals = (3.0 * inputs.swapaxes(-1, -2) - np.eye(2)) / 2.0
    gram = np.array([[np.trace(dual @ tau.T) for tau in inputs] for dual in duals])
    assert np.abs(gram - np.eye(4)).max() <= 1e-15


def test_decompose_round_trips_werner_table():
    beta = werner_beta().beta
    target = recompose(beta)
    recovered = decompose_witness(target)
    assert np.abs(recovered.beta - beta).max() < 1e-10


def test_decompose_witness_of_singlet_projector_gives_werner_table():
    # the 5/8 / -1/8 table decomposes exactly W = I/2 - |psi_max><psi_max|
    witness_op = np.eye(4) / 2 - werner_alpha(1.0, ALPHA_MAX)[0]
    recovered = decompose_witness(witness_op)
    assert np.abs(recovered.beta - werner_beta().beta).max() < 1e-10


def test_decompose_identity_target(rng):
    beta = decompose_witness(np.eye(4))
    assert np.abs(recompose(beta.beta) - np.eye(4)).max() < 1e-10
    for _ in range(1000):
        target = random_hermitian(rng, 4)
        recomposed = recompose(decompose_witness(target).beta)
        assert np.abs(recomposed - target).max() <= 1.5e-15 * np.abs(target).max()


def test_input_products_are_bit_identical_to_tensor_calls():
    taus = omegas = input_ensemble()
    products = input_products()
    for s in range(4):
        for t in range(4):
            assert np.array_equal(products[s, t], np.kron(taus[s].T, omegas[t].T))


def test_decompose_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        decompose_witness(np.triu(np.ones((4, 4))))


def test_decompose_rejects_wrong_shape():
    with pytest.raises(ValueError, match="must be 4x4; got shape \\(2, 2\\)"):
        decompose_witness(np.eye(2))


def test_contraction_factor_calibration(rng):
    # beta-weighted success probabilities evaluate tr(W rho) times a fixed
    # constant; calibrate it on the identity target, then cross-check
    identity_beta = decompose_witness(np.eye(4))
    rho = random_density_matrix(rng, 4)
    calibrated = payoff(rho, identity_beta, 1.0)  # tr(I rho) * k = k
    assert calibrated == pytest.approx(CONTRACTION_FACTOR, abs=1e-12)
    for _ in range(5):
        target = random_hermitian(rng, 4)
        beta = decompose_witness(target)
        value = payoff(rho, beta, 1.0)
        expected = CONTRACTION_FACTOR * np.trace(target @ rho).real
        assert value == pytest.approx(expected, abs=1e-10)
