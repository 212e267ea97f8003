import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mdiew.linalg import (
    PAULI,
    DensityOperator,
    _check_density_matrices,
    _kron,
    _negativities,
    negativity,
    partial_transpose,
    tensor,
)
from mdiew.measurement import averaged_channel
from mdiew.witness import mdi_ew_numeric, werner_beta

from conftest import (
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
    _check_density_matrices(stack)
    stack[3] = ONE_BAD_MEMBER[message]
    with pytest.raises(ValueError, match=rf"{message}.*\(stack index 3\)$"):
        _check_density_matrices(stack)
    with pytest.raises(ValueError, match=message) as one:
        DensityOperator(stack[3])
    assert "stack index" not in str(one.value)


def test_stacked_validation_runs_each_check_over_the_whole_stack(rng):
    stack = np.stack([random_density_matrix(rng, 4) for _ in range(6)])
    stack[1] = ONE_BAD_MEMBER["trace"]
    stack[4] = ONE_BAD_MEMBER["Hermitian"]
    with pytest.raises(ValueError, match=r"Hermitian.*\(stack index 4\)$"):
        _check_density_matrices(stack)
    with pytest.raises(ValueError, match="square; got shape"):
        DensityOperator(np.ones((2, 4)) / 2)


# --- tensor ----------------------------------------------------------------

def test_pauli_matrices_are_read_only():
    for pauli in PAULI:
        with pytest.raises(ValueError, match="read-only"):
            pauli *= 2
        with pytest.raises(ValueError, match="read-only"):
            pauli[0, 0] = 5.0
    assert np.array_equal(PAULI[3], SZ)


def test_tensor_identities():
    assert np.array_equal(tensor(I2, I2), I4)
    assert np.array_equal(tensor(SZ, SZ), np.diag([1, -1, -1, 1]).astype(complex))


def test_tensor_block_structure_matches_index_expansion():
    ket0 = np.diag([1.0, 0.0]).astype(complex)
    got = tensor(ket0, SX)
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
    assert np.array_equal(tensor(tensor(a, b), c), tensor(a, tensor(b, c)))
    # generic floats agree up to rounding of the reassociated products
    x, y, z = (random_hermitian(rng, 2) for _ in range(3))
    assert np.abs(tensor(tensor(x, y), z) - tensor(x, tensor(y, z))).max() < 1e-14


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
    assert np.array_equal(tensor(a, b), np.kron(a.astype(complex), b.astype(complex)))


@given(complex_matrices, complex_matrices, complex_matrices)
def test_tensor_of_three_is_bit_identical_to_nested_np_kron(a, b, c):
    assert np.array_equal(tensor(a, b, c), np.kron(np.kron(a, b), c))


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


@pytest.mark.parametrize("bad", [
    np.array([1.0, 0.0]),                 # vector
    np.array(1.0),                        # scalar
    np.zeros((2, 2, 2)),                  # stack of matrices
])
def test_tensor_rejects_non_matrix_operands(bad):
    with pytest.raises(ValueError, match="2-D"):
        tensor(SX, bad)
    with pytest.raises(ValueError, match="2-D"):
        tensor(bad, SX)
    with pytest.raises(ValueError, match="2-D"):
        tensor(bad)


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
    rho = DensityOperator(np.kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2)))
    assert min_eigenvalue(partial_transpose(rho)) >= -1e-12


def test_partial_transpose_of_singlet():
    rho = DensityOperator(np.outer(SINGLET, SINGLET.conj()))
    pt = partial_transpose(rho)
    assert np.abs(pt - pt.conj().T).max() < 1e-14
    assert abs(pt.trace() - 1.0) < 1e-14
    assert abs(min_eigenvalue(pt) + 0.5) < 1e-12


def test_partial_transpose_is_involution(rng):
    rho = DensityOperator(random_density_matrix(rng, 4))
    once = partial_transpose(rho)
    # the intermediate operator may be non-positive, so skip validation
    twice = partial_transpose(DensityOperator(once, validate=False))
    assert np.array_equal(twice, rho.matrix)


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
    singlet = DensityOperator(np.outer(SINGLET, SINGLET.conj()))
    assert negativity(singlet) == pytest.approx(0.5, abs=1e-12)
    product = DensityOperator(np.kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2)))
    assert negativity(product) < 1e-12


def _masked_sum_negativity(rho):
    """Reference: the partial transpose of B by explicit axis swap, then a boolean-mask sum."""
    transposed = rho.matrix.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    eigvals = np.linalg.eigvalsh(transposed)
    return float(-eigvals[eigvals < 0].sum())


@pytest.mark.parametrize("size", [1, 2, 7])
def test_negativity_kernel_is_bit_identical_to_per_state_calls(size):
    rhos = werner_and_random_states(np.random.default_rng(size), size)
    matrices = np.stack([rho.matrix for rho in rhos])
    got = _negativities(matrices)
    assert np.array_equal(got, [negativity(rho) for rho in rhos])
    assert np.array_equal(got, [_masked_sum_negativity(rho) for rho in rhos])


# --- shape guards ------------------------------------------------------------------

TWO_QUBIT_FUNCTIONS = {
    "negativity": negativity,
    "partial_transpose": partial_transpose,
    "averaged_channel": lambda rho: averaged_channel(rho, 0.5),
    "mdi_ew_numeric": lambda rho: mdi_ew_numeric(rho, werner_beta(), 0.5),
}


@pytest.mark.parametrize("dim", [2, 8])
@pytest.mark.parametrize("name", TWO_QUBIT_FUNCTIONS)
def test_two_qubit_functions_reject_other_shapes(name, dim, rng):
    # the stacked kernels would read the 64 entries of an 8x8 matrix as four 4x4 matrices
    rho = DensityOperator(random_density_matrix(rng, dim))
    with pytest.raises(ValueError, match=rf"^{name} expects a two-qubit \(4x4\) state; "
                                         rf"got shape \({dim}, {dim}\)$"):
        TWO_QUBIT_FUNCTIONS[name](rho)
