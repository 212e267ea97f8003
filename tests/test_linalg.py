import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mdiew import verify
from mdiew.linalg import (
    PAULI,
    PSD_ATOL,
    DensityOperator,
    _kron,
    check_density_matrices,
    negativity,
    partial_transpose,
)
from mdiew.measurement import averaged_channel
from mdiew.states import werner_alpha
from mdiew.witness import mdi_ew_numeric, werner_beta

from conftest import (
    check_density_matrices_by_eigvalsh,
    herm_sqrt,
    min_eigenvalue,
    partial_trace,
    random_density_matrix,
    random_hermitian,
    werner_and_random_states,
)

I2 = np.eye(2)
I4 = np.eye(4)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SINGLET = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)

def test_density_operator_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        DensityOperator(np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        DensityOperator(np.eye(4))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityOperator(np.diag([1.5, -0.5, 0, 0]).astype(complex))


ONE_BAD_MEMBER = {
    "Hermitian": np.eye(4) / 4 + np.triu(np.full((4, 4), 1e-9), 1),
    "trace": np.eye(4) / 2,
    "negative eigenvalue": np.diag([1.5, -0.5, 0, 0]),
}


@pytest.mark.parametrize("message", ONE_BAD_MEMBER)
def test_stacked_validation_names_the_one_bad_member(message, rng):
    stack = np.stack([random_density_matrix(rng, 4) for _ in range(6)])
    check_density_matrices(stack)
    stack[3] = ONE_BAD_MEMBER[message]
    with pytest.raises(ValueError, match=rf"{message}.*\(stack index 3\)$"):
        check_density_matrices(stack)
    with pytest.raises(ValueError, match=message) as one:
        DensityOperator(stack[3])
    assert "stack index" not in str(one.value)


def test_stacked_validation_runs_each_check_over_the_whole_stack(rng):
    stack = np.stack([random_density_matrix(rng, 4) for _ in range(6)])
    stack[1] = ONE_BAD_MEMBER["trace"]
    stack[4] = ONE_BAD_MEMBER["Hermitian"]
    with pytest.raises(ValueError, match=r"Hermitian.*\(stack index 4\)$"):
        check_density_matrices(stack)
    with pytest.raises(ValueError, match="square; got shape"):
        DensityOperator(np.ones((2, 4)) / 2)


# --- positivity: the shifted Cholesky certificate against eigvalsh alone ------------

def _validation_outcome(check, matrices):
    """None if `check` passes the stack, else its ValueError message."""
    try:
        check(matrices)
    except ValueError as err:
        return str(err)
    return None


def _assert_same_outcome_as_eigvalsh(matrices):
    """The fast path passes or raises exactly as the eigvalsh-only oracle does; returns that."""
    outcome = _validation_outcome(check_density_matrices, matrices)
    assert outcome == _validation_outcome(check_density_matrices_by_eigvalsh, matrices)
    return outcome


def _state_with_spectrum(rng, eigvals):
    """Hermitian unit-trace 4x4 matrix with the given spectrum in a random eigenbasis."""
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    unitary, _ = np.linalg.qr(g)
    matrix = (unitary * eigvals) @ unitary.conj().T
    return (matrix + matrix.conj().T) / 2


@pytest.mark.parametrize("index", [0, 3, 5])
@pytest.mark.parametrize("lowest", [0.0, -0.25, -0.5 - 1e-3, -0.5, -0.5 + 1e-3, -0.75,
                                    -1.0 - 1e-3, -1.0, -1.0 + 1e-3, -2.0])
def test_psd_certificate_decides_as_eigvalsh_alone(rng, lowest, index):
    # `lowest` is in units of PSD_ATOL: the Cholesky shift sits at -0.5, the rejection at -1.
    stack = np.stack([random_density_matrix(rng, 4) for _ in range(6)])
    rest = rng.dirichlet(np.ones(3)) * (1.0 - lowest * PSD_ATOL)
    stack[index] = _state_with_spectrum(rng, np.concatenate([[lowest * PSD_ATOL], rest]))
    outcome = _assert_same_outcome_as_eigvalsh(stack)
    if lowest >= -0.75:
        assert outcome is None
    if lowest <= -1.0 - 1e-3:
        assert outcome.startswith("density operator has negative eigenvalue -")
        assert outcome.endswith(f"(stack index {index})")
    one = _assert_same_outcome_as_eigvalsh(stack[index][None])
    assert (one is None) == (outcome is None)


@pytest.mark.parametrize("dim", [2, 4, 16])
def test_psd_certificate_passes_rank_one_pure_states(rng, dim):
    vecs = rng.standard_normal((8, dim)) + 1j * rng.standard_normal((8, dim))
    vecs /= np.linalg.norm(vecs, axis=-1, keepdims=True)
    stack = vecs[:, :, None] * vecs.conj()[:, None, :]
    assert _assert_same_outcome_as_eigvalsh(stack) is None
    assert _assert_same_outcome_as_eigvalsh(stack[:1]) is None


@pytest.mark.parametrize("seed", [1234, 1, 7])
def test_psd_certificate_passes_the_seeded_separable_samples(seed):
    matrices = verify._random_separable_matrices(np.random.default_rng(seed), 200)
    assert _assert_same_outcome_as_eigvalsh(matrices) is None


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [(0, 0), (1, 2)])
def test_non_finite_entries_fail_hermiticity_before_positivity(rng, bad, entry):
    stack = np.stack([random_density_matrix(rng, 4) for _ in range(3)])
    stack[1][entry] = stack[1][entry[::-1]] = bad
    outcome = _assert_same_outcome_as_eigvalsh(stack)
    assert outcome == "density operator is not Hermitian within 1e-12 (stack index 1)"


# --- Kronecker product ---------------------------------------------------------

def test_pauli_matrices_are_read_only():
    for pauli in PAULI:
        with pytest.raises(ValueError, match="read-only"):
            pauli *= 2
        with pytest.raises(ValueError, match="read-only"):
            pauli[0, 0] = 5.0
    assert np.array_equal(PAULI[3], SZ)


def test_tensor_identities():
    assert np.array_equal(_kron(I2, I2), I4)
    assert np.array_equal(_kron(SZ, SZ), np.diag([1, -1, -1, 1]).astype(complex))


def test_tensor_block_structure_matches_index_expansion():
    ket0 = np.diag([1.0, 0.0]).astype(complex)
    got = _kron(ket0, SX)
    # oracle: out[2i+k, 2j+l] = a[i,j] * b[k,l]
    want = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    want[2 * i + k, 2 * j + l] = ket0[i, j] * SX[k, l]
    assert np.array_equal(got, want)
    assert np.array_equal(got[:2, :2], SX)
    assert np.all(got[2:, :] == 0) and np.all(got[:, 2:] == 0)


@given(st.integers(0, 2**32 - 1))
def test_tensor_associative(seed):
    rng = np.random.default_rng(seed)
    # exact-product entries (small Gaussian integers): associativity is bitwise
    ints = [rng.integers(-8, 9, (2, 2)) + 1j * rng.integers(-8, 9, (2, 2))
            for _ in range(3)]
    a, b, c = ints
    assert np.array_equal(_kron(_kron(a, b), c), _kron(a, _kron(b, c)))
    # generic floats agree up to rounding of the reassociated products
    x, y, z = (random_hermitian(rng, 2) for _ in range(3))
    assert np.abs(_kron(_kron(x, y), z) - _kron(x, _kron(y, z))).max() < 1e-14


matrix_shapes = st.tuples(st.integers(1, 4), st.integers(1, 4))
finite = {"allow_nan": False, "allow_infinity": False}
real_matrices = hnp.arrays(np.float64, matrix_shapes,
                           elements=st.floats(-1e6, 1e6, **finite))
complex_matrices = hnp.arrays(np.complex128, matrix_shapes,
                              elements=st.complex_numbers(max_magnitude=1e6, **finite))
matrices = st.one_of(real_matrices, complex_matrices)


@given(matrices, matrices)
@example(np.array([[2.0 - 1.0j]]), SX)
@example(SX, np.array([[2.0 - 1.0j]]))
@example(np.array([[3.0]]), np.array([[-0.5]]))
def test_kron_helper_is_bit_identical_to_np_kron(a, b):
    got = _kron(a, b)
    want = np.kron(a, b)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@given(complex_matrices, complex_matrices, complex_matrices)
def test_tensor_of_three_is_bit_identical_to_nested_np_kron(a, b, c):
    assert np.array_equal(_kron(_kron(a, b), c), np.kron(np.kron(a, b), c))


@given(st.integers(0, 2**32 - 1))
def test_kron_helper_broadcasts_over_leading_axes_bit_exactly(seed):
    rng = np.random.default_rng(seed)
    left = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    middle = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    right = rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2))
    stack = _kron(_kron(left, middle)[:, None], right)
    assert stack.shape == (3, 5, 16, 16)
    for s in range(3):
        for t in range(5):
            assert np.array_equal(stack[s, t], np.kron(np.kron(left[s], middle), right[t]))


# --- partial trace (the test oracle for Alice's marginal) -----------------------

@given(st.integers(0, 2**32 - 1))
def test_partial_trace_recovers_product_factor(seed):
    rng = np.random.default_rng(seed)
    rho1 = random_density_matrix(rng, 2)
    rho2 = random_density_matrix(rng, 2)
    joint = np.kron(rho1, rho2)
    assert np.abs(partial_trace(joint, "A") - rho1).max() < 1e-12
    assert np.abs(partial_trace(joint, "B") - rho2).max() < 1e-12


def test_partial_trace_of_bell_is_maximally_mixed():
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    rho = np.outer(phi, phi.conj())
    for keep in ("A", "B"):
        assert np.abs(partial_trace(rho, keep) - I2 / 2).max() < 1e-14


def test_partial_trace_preserves_trace_and_checks_labels(rng):
    rho = random_density_matrix(rng, 4)
    for keep in ("A", "B"):
        assert abs(partial_trace(rho, keep).trace() - 1.0) < 1e-12
    with pytest.raises(ValueError, match="unknown"):
        partial_trace(rho, "Q")


# --- partial transpose -------------------------------------------------------

def test_partial_transpose_keeps_product_states_positive(rng):
    rho = np.kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2))
    assert min_eigenvalue(partial_transpose(rho[None])[0]) >= -1e-12


def test_partial_transpose_of_singlet():
    rho = np.outer(SINGLET, SINGLET.conj())
    pt = partial_transpose(rho[None])[0]
    assert np.abs(pt - pt.conj().T).max() < 1e-14
    assert abs(pt.trace() - 1.0) < 1e-14
    assert abs(min_eigenvalue(pt) + 0.5) < 1e-12


def test_partial_transpose_is_involution(rng):
    rho = random_density_matrix(rng, 4)
    once = partial_transpose(rho[None])
    assert np.array_equal(partial_transpose(once)[0], rho)


# --- spectral helpers ---------------------------------------------------------

def test_min_eigenvalue_spot_values():
    assert min_eigenvalue(I2) == pytest.approx(1.0, abs=1e-12)
    assert min_eigenvalue(SZ) == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(ValueError, match="Hermitian"):
        min_eigenvalue(np.array([[0, 1], [0, 0]], dtype=complex))


def test_herm_sqrt_identity():
    assert np.abs(herm_sqrt(I4) - I4).max() < 1e-14


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4, 16]))
def test_herm_sqrt_squares_back(seed, dim):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    psd = g @ g.conj().T
    root = herm_sqrt(psd)
    assert np.abs(root @ root - psd).max() < 1e-10
    assert np.abs(root - root.conj().T).max() < 1e-10
    assert min_eigenvalue(root) >= -1e-12


def test_herm_sqrt_rejects_bad_inputs():
    with pytest.raises(ValueError, match="PSD"):
        herm_sqrt(np.diag([1.0, -1e-6]))
    with pytest.raises(ValueError, match="Hermitian"):
        herm_sqrt(np.array([[0, 1], [0, 0]], dtype=complex))


def test_negativity_spot_values(rng):
    singlet = np.outer(SINGLET, SINGLET.conj())
    assert negativity(singlet[None])[0] == pytest.approx(0.5, abs=1e-12)
    product = np.kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2))
    assert negativity(product[None])[0] < 1e-12


def test_negativity_of_a_ppt_state_is_positive_zero():
    # two sharp observers leave every partially entangled pure state separable
    rho = averaged_channel(averaged_channel(werner_alpha(1.0, 0.1), 1.0), 1.0)
    assert np.linalg.eigvalsh(partial_transpose(rho)[0])[0] > 0.0
    assert negativity(rho)[0] == 0.0
    assert np.copysign(1.0, negativity(rho)[0]) == 1.0


def _masked_sum_negativity(rho):
    """Reference: the partial transpose of B by explicit axis swap, then a boolean-mask sum."""
    transposed = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    eigvals = np.linalg.eigvalsh(transposed)
    return float(-eigvals[eigvals < 0].sum())


@pytest.mark.parametrize("size", [1, 2, 7])
def test_negativity_kernel_is_bit_identical_to_per_state_calls(size):
    matrices = werner_and_random_states(np.random.default_rng(size), size)
    got = negativity(matrices)
    assert np.array_equal(got, [negativity(rho[None])[0] for rho in matrices])
    assert np.array_equal(got, [_masked_sum_negativity(rho) for rho in matrices])


# --- shape guards ------------------------------------------------------------------

TWO_QUBIT_FUNCTIONS = {
    "negativity": negativity,
    "partial_transpose": partial_transpose,
    "averaged_channel": lambda matrices: averaged_channel(matrices, 0.5),
    "mdi_ew_numeric": lambda matrices: mdi_ew_numeric(matrices, werner_beta(), 0.5),
}


def _shape_error(name, shape):
    return (rf"^{name} expects an \(n, 4, 4\) stack of two-qubit matrices; "
            rf"got shape {re.escape(str(shape))}$")


@pytest.mark.parametrize("dim", [2, 8])
@pytest.mark.parametrize("name", TWO_QUBIT_FUNCTIONS)
def test_two_qubit_functions_reject_other_shapes(name, dim, rng):
    # the kernels would read the 64 entries of an 8x8 matrix as four 4x4 matrices
    matrices = random_density_matrix(rng, dim)[None]
    with pytest.raises(ValueError, match=_shape_error(name, (1, dim, dim))):
        TWO_QUBIT_FUNCTIONS[name](matrices)


@pytest.mark.parametrize("shape", [(4, 4), (2, 2, 8), (16,), (2, 4, 4, 1)],
                         ids=["bare-4x4", "2x2x8", "flat", "4-d"])
@pytest.mark.parametrize("name", TWO_QUBIT_FUNCTIONS)
def test_two_qubit_functions_take_only_stacks(name, shape):
    # Read as a stack, a bare 4x4 state gave a (4, 4, 4) channel output and a
    # (2, 2, 8) array two negativities, with no error.
    with pytest.raises(ValueError, match=_shape_error(name, shape)):
        TWO_QUBIT_FUNCTIONS[name](np.full(shape, 0.25))


def test_two_qubit_functions_take_nested_lists():
    rows = werner_alpha(0.5, 0.3).tolist()
    assert np.array_equal(negativity(rows), negativity(werner_alpha(0.5, 0.3)))


def test_density_checks_take_only_stacks_of_square_matrices():
    check_density_matrices([np.eye(2) / 2])
    for shape in [(4, 4), (1, 2, 4), (1, 1, 4, 4)]:
        with pytest.raises(ValueError, match=rf"^check_density_matrices expects an \(n, d, d\) "
                                             rf"stack of square matrices; got shape "
                                             rf"{re.escape(str(shape))}$"):
            check_density_matrices(np.full(shape, 0.25))


# --- non-finite states ------------------------------------------------------------

NON_FINITE_KERNELS = {
    "negativity": negativity,
    "partial_transpose": partial_transpose,
    "averaged_channel": lambda matrices: averaged_channel(matrices, (0.0, 0.5)),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)],
                         ids=["nan", "inf", "imaginary-inf"])
@pytest.mark.parametrize("name", NON_FINITE_KERNELS)
def test_kernels_reject_non_finite_states(name, bad):
    # One helper validates every kernel's stack; without its finiteness
    # check a NaN state reads negativity 0.0, passes through the partial
    # transpose and leaves an all-NaN channel output, with no error.  The
    # payoff kernel reaches the same check; test_witness covers it.
    matrices = np.stack([np.eye(4, dtype=complex) / 4] * 4)
    matrices[2, 0, 1] = bad
    matrices[3, 3, 3] = bad
    with pytest.raises(ValueError, match="^state 2 of the stack has a non-finite entry$"):
        NON_FINITE_KERNELS[name](matrices)
    with pytest.raises(ValueError, match="^state 0 of the stack has a non-finite entry$"):
        TWO_QUBIT_FUNCTIONS[name](matrices[2:3])
