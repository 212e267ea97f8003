import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mdiew import verify
from mdiew.cli import FIG1_DEFAULT_STEP
from mdiew.linalg import PAULI, partial_transpose
from mdiew.measurement import bell_projector
from mdiew.states import (
    ALPHA_MAX,
    _alphas_from_entanglement,
    alpha_from_entanglement,
    entanglement_entropy,
    input_ensemble,
    werner_alpha,
    werner_strength,
)

from conftest import (
    alpha_from_entanglement_by_callbacks,
    alphas_from_entanglement_by_branches,
    assert_bit_identical,
    min_eigenvalue,
    mp_alpha_from_entanglement,
    pure_state,
    random_hermitian,
)

alphas = st.floats(0.01, ALPHA_MAX)
qs = st.floats(0.0, 1.0)


# --- pure state: |psi(alpha)><psi(alpha)| is werner_alpha at q = 1 --------------

def test_psi_alpha_maximal_is_singlet():
    singlet = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    assert np.abs(werner_alpha(1.0, ALPHA_MAX)[0] - np.outer(singlet, singlet)).max() < 1e-15


def test_psi_alpha_direct_substitution():
    # alpha |01> - sqrt(1 - alpha^2) |10> at alpha = 1/2, in the (01, 10) block
    projector = werner_alpha(1.0, 0.5)[0]
    block = [[0.25, -0.5 * math.sqrt(0.75)], [-0.5 * math.sqrt(0.75), 0.75]]
    assert np.abs(projector[1:3, 1:3] - block).max() < 1e-15
    assert np.count_nonzero(projector) == 4


@given(alphas)
def test_psi_alpha_unit_norm(alpha):
    projector = werner_alpha(1.0, alpha)[0]
    assert np.trace(projector).real == pytest.approx(1.0, abs=1e-12)
    assert np.abs(projector @ projector - projector).max() < 1e-12


@pytest.mark.parametrize("alpha", [0.0, -0.1, 0.71, 1.0])
def test_psi_alpha_range_errors(alpha):
    with pytest.raises(ValueError, match="alpha"):
        werner_alpha(1.0, alpha)


# --- noisy family -----------------------------------------------------------

def test_werner_alpha_pure_noise_limit():
    for alpha in (0.2, ALPHA_MAX):
        assert np.abs(werner_alpha(0.0, alpha) - np.eye(4) / 4).max() < 1e-15


def test_werner_alpha_pure_limit_is_projector():
    rho = werner_alpha(1.0, ALPHA_MAX)[0]
    vec = pure_state(ALPHA_MAX)
    assert np.abs(rho - np.outer(vec, vec.conj())).max() < 1e-15
    assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)


def test_werner_alpha_eigenvalues_at_half():
    eigvals = np.sort(np.linalg.eigvalsh(werner_alpha(0.5, ALPHA_MAX)[0]))
    assert np.abs(eigvals - [0.125, 0.125, 0.125, 0.625]).max() < 1e-12


@given(qs, alphas)
def test_werner_alpha_is_valid_density_operator(q, alpha):
    rho = werner_alpha(q, alpha)  # construction validates
    assert rho.shape == (1, 4, 4)


def test_werner_alpha_state_rejects_bad_parameters():
    with pytest.raises(ValueError, match="q"):
        werner_alpha(1.2, 0.5)
    with pytest.raises(ValueError, match="alpha"):
        werner_alpha(0.5, 0.9)


# --- stacked builders ------------------------------------------------------------

VERIFY_GRIDS = {
    "witness_grid": (verify._QS, verify._ALPHAS),
    "channel_grid": (verify._CHANNEL_QS, verify._CHANNEL_ALPHAS),
    "negativity_grid": (np.linspace(0.0, 1.0, 20), np.linspace(0.05, ALPHA_MAX, 20)),
}


@pytest.mark.parametrize("grid", VERIFY_GRIDS.values(), ids=VERIFY_GRIDS.keys())
def test_stacked_werner_builder_is_bit_identical_on_verify_grids(grid):
    points = [(q, alpha) for q in grid[0] for alpha in grid[1]]
    got = werner_alpha(*zip(*points))
    assert np.array_equal(got, [werner_alpha(q, alpha)[0] for q, alpha in points])


def _outer_product_werner(q, alpha):
    """Reference: the noisy pair written with np.outer and the scalar pure_state."""
    vec = pure_state(alpha)
    return q * np.outer(vec, vec.conj()) + (1.0 - q) / 4.0 * np.eye(4)


@given(st.lists(st.tuples(qs, st.floats(0.0, ALPHA_MAX, exclude_min=True)), min_size=1, max_size=30))
def test_stacked_werner_builder_is_bit_identical_to_per_state_calls(points):
    got = werner_alpha(*zip(*points))
    assert np.array_equal(got, [werner_alpha(q, alpha)[0] for q, alpha in points])
    assert np.array_equal(got, [_outer_product_werner(q, alpha) for q, alpha in points])


def test_stacked_werner_builder_broadcasts_its_arguments_in_c_order():
    qs, alphas = (0.0, 0.5, 1.0), (0.2, ALPHA_MAX)
    got = werner_alpha(np.array(qs)[:, None], alphas)
    assert got.shape == (6, 4, 4)
    assert np.array_equal(got, [werner_alpha(q, alpha)[0] for q in qs for alpha in alphas])


def test_stacked_werner_builder_rejects_bad_parameters_with_scalar_messages():
    with pytest.raises(ValueError, match=r"q must lie in \[0, 1\]; got 1.2$"):
        werner_alpha([0.5, 1.2, -1.0], 0.3)
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1/sqrt\(2\)\]; got 0.9$"):
        werner_alpha(0.5, [0.3, 0.9, 0.0])
    with pytest.raises(ValueError, match="q must"):  # every q is checked before any alpha
        werner_alpha([0.5, 2.0], [0.9, 0.3])
    with pytest.raises(ValueError, match="alpha must.*got nan"):
        werner_alpha(0.5, [0.3, math.nan])


def test_entangled_iff_strength_exceeds_one():
    # spot-check the closed boundary against the partial-transpose oracle
    for q in np.linspace(0.05, 1.0, 20):
        for alpha in np.linspace(0.05, ALPHA_MAX, 20):
            entangled = q * werner_strength(alpha) > 1.0
            low = min_eigenvalue(partial_transpose(werner_alpha(q, alpha))[0])
            assert (low < -1e-12) == entangled or abs(q * werner_strength(alpha) - 1) < 1e-9


# --- referee inputs -----------------------------------------------------------

def bloch_vector(matrix):
    return np.array([np.trace(matrix @ PAULI[k]).real for k in (1, 2, 3)])


def test_input_state_bloch_vectors():
    root3 = 1 / math.sqrt(3)
    assert np.abs(bloch_vector(input_ensemble()[0]) - [root3, root3, root3]).max() < 1e-12
    # conjugation by the third Pauli flips the first two components
    assert np.abs(bloch_vector(input_ensemble()[3]) - [-root3, -root3, root3]).max() < 1e-12


def test_input_states_are_rank_one_with_unit_bloch():
    for state in input_ensemble():
        assert abs(state.trace() - 1.0) < 1e-14
        eigvals = np.sort(np.linalg.eigvalsh(state))
        assert np.abs(eigvals - [0.0, 1.0]).max() < 1e-12
        assert np.linalg.norm(bloch_vector(state)) == pytest.approx(1.0, abs=1e-12)


def test_input_ensemble_gram_matrix_nonsingular():
    ensemble = input_ensemble()
    gram = np.array([[np.trace(a @ b).real for b in ensemble] for a in ensemble])
    assert abs(np.linalg.det(gram)) > 1e-6


def test_input_ensemble_is_a_read_only_stack_of_the_inputs():
    ensemble = input_ensemble()
    assert ensemble.shape == (4, 2, 2)
    # sigma_s (I + n.sigma)/2 sigma_s with n = (1, 1, 1)/sqrt(3), bit for bit
    root3 = 1 / math.sqrt(3)
    base = (PAULI[0] + root3 * PAULI[1] + root3 * PAULI[2] + root3 * PAULI[3]) / 2.0
    assert all(np.array_equal(ensemble[s], PAULI[s] @ base @ PAULI[s]) for s in range(4))
    with pytest.raises(ValueError, match="read-only"):
        ensemble[0, 0, 0] = 0.0


# --- Bell state ----------------------------------------------------------------

def test_bell_phi_plus_overlaps():
    projector = bell_projector()
    singlet = pure_state(ALPHA_MAX)
    assert abs(np.trace(projector) - 1.0) < 1e-14
    assert np.abs(projector @ projector - projector).max() < 1e-14
    assert abs(np.vdot(singlet, projector @ singlet)) < 1e-14
    # |Phi+> built as (|00> + |11>)/sqrt(2), with 2 ** -0.5 squared to 0.5000000000000001
    assert projector[0, 0] == projector[0, 3] == projector[3, 3] == (2 ** -0.5) ** 2


@given(st.integers(0, 2**32 - 1))
def test_bell_contraction_identity(seed):
    rng = np.random.default_rng(seed)
    x, y = random_hermitian(rng, 2), random_hermitian(rng, 2)
    lhs = np.trace(bell_projector() @ np.kron(x, y))
    rhs = np.trace(x @ y.T) / 2
    assert abs(lhs - rhs) < 1e-12


# --- entanglement entropy --------------------------------------------------------

def test_entropy_spot_values():
    assert entanglement_entropy(ALPHA_MAX) == pytest.approx(1.0, abs=1e-12)
    assert entanglement_entropy(1e-8) < 1e-12


@given(st.tuples(alphas, alphas).filter(lambda t: abs(t[0] - t[1]) > 1e-9))
def test_entropy_strictly_increasing(pair):
    low, high = sorted(pair)
    assert entanglement_entropy(low) < entanglement_entropy(high)


def test_entropy_inverse_against_bisection_oracle():
    target = 0.9349
    # independent oracle: bisect the binary entropy of x = alpha^2
    def entropy_of_x(x):
        return -x * math.log2(x) - (1 - x) * math.log2(1 - x)
    lo, hi = 1e-12, 0.5
    while hi - lo > 1e-14:
        mid = (lo + hi) / 2
        if entropy_of_x(mid) < target:
            lo = mid
        else:
            hi = mid
    x_oracle = (lo + hi) / 2
    assert x_oracle == pytest.approx(0.351, abs=5e-4)
    alpha = alpha_from_entanglement(target)
    assert alpha**2 == pytest.approx(x_oracle, abs=1e-10)
    assert entanglement_entropy(alpha) == pytest.approx(target, abs=1e-12)


def test_entropy_inverse_round_trip():
    for entropy in (0.1, 0.5, 0.935, 1.0):
        alpha = alpha_from_entanglement(entropy)
        assert entanglement_entropy(alpha) == pytest.approx(entropy, abs=1e-10)
    assert alpha_from_entanglement(1.0) == ALPHA_MAX


def test_entropy_range_errors():
    with pytest.raises(ValueError):
        entanglement_entropy(0.0)
    with pytest.raises(ValueError):
        alpha_from_entanglement(0.0)
    with pytest.raises(ValueError):
        alpha_from_entanglement(1.1)


def test_werner_strength_spot_values():
    assert werner_strength(ALPHA_MAX) == pytest.approx(3.0, abs=1e-12)
    assert werner_strength(0.1) == pytest.approx(1.0 + 0.4 * math.sqrt(0.99), abs=1e-15)


# E log-uniform in [1e-300, 1/2], and 1 - E log-uniform in [1e-16, 1/2].
entropies = st.one_of(
    st.floats(-300.0, math.log10(0.5)).map(lambda k: 10.0 ** k),
    st.floats(-16.0, math.log10(0.5)).map(lambda k: 1.0 - 10.0 ** k),
)


@given(entropies)
@example(1e-300)
@example(1e-16)
@example(1e-14)
@example(0.0005)
@example(0.5)
@example(0.935)
@example(math.nextafter(1.0, 0.0))
@example(1.0)
@example(5e-324)  # smallest subnormal: alpha^2 underflows, alpha does not
def test_alpha_from_entanglement_matches_mpmath_root(entropy):
    reference = mp_alpha_from_entanglement(entropy)
    assert abs((alpha_from_entanglement(entropy) - reference) / reference) <= 1e-15


@given(entropies)
@example(5e-324)
@example(1e-300)
@example(0.5)
@example(math.nextafter(1.0, 0.0))
@example(1.0)
def test_inverse_equals_increasing_root_on_the_branch_residuals(entropy):
    # the inline loop takes increasing_root's iterates, so its root bit for bit
    assert alpha_from_entanglement(entropy) == alpha_from_entanglement_by_callbacks(entropy)


@given(entropies)
@example(1e-300)
@example(math.nextafter(1.0, 0.0))
def test_entropy_of_inverse_round_trips(entropy):
    # alpha is within 1e-15 relative (above), squaring doubles that, and
    # the entropy's slope in log x is at most 1: 2e-15 plus a few roundings.
    back = entanglement_entropy(alpha_from_entanglement(entropy))
    assert abs(back - entropy) <= 3e-15 * entropy


# --- the array inverse takes the scalar solve's steps elementwise ------------

_ARRAY_EXAMPLES = [1e-300, 0.5, math.nextafter(1.0, 0.0), 1.0]
# fig1's default grid by _count_table's rule: E = k step for k up to int(1 / step) + 1, kept <= 1
_FIG1_GRID = FIG1_DEFAULT_STEP * np.arange(1, int(1.0 / FIG1_DEFAULT_STEP) + 2)
_FIG1_GRID = _FIG1_GRID[_FIG1_GRID <= 1.0]


@given(st.lists(entropies, min_size=1, max_size=30))
@example(_ARRAY_EXAMPLES)
@example([1e-300])
@example([0.5])
@example([math.nextafter(1.0, 0.0)])
@example([1.0])
def test_array_inverse_is_within_four_ulp_of_the_scalar(grid):
    # NumPy's log, log1p and arctanh may round differently from math's, by an ulp
    scalar = np.array([alpha_from_entanglement(entropy) for entropy in grid])
    array = _alphas_from_entanglement(grid)
    assert array.shape == scalar.shape
    assert np.all(np.abs(array - scalar) <= 4 * np.spacing(scalar))
    assert np.all(array[np.asarray(grid) == 1.0] == ALPHA_MAX)


@given(st.lists(entropies, min_size=1, max_size=30))
@example(_ARRAY_EXAMPLES)
@example([5e-324, 1e-300, 0.5, math.nextafter(1.0, 0.0), 1.0])
@example([1.0, 1.0])
@example([0.7, 0.2, 0.7, 1e-300, 0.5])
@example(_FIG1_GRID.tolist())
def test_array_inverse_equals_the_two_branch_solve(grid):
    # one loop over both branches, with a live mask in place of compaction,
    # takes each entry through the same NumPy operations
    assert_bit_identical(_alphas_from_entanglement(grid), alphas_from_entanglement_by_branches(grid))


@given(st.lists(entropies, min_size=1, max_size=5))
@example(_ARRAY_EXAMPLES)
@example([5e-324, 1e-16, 0.0005, 0.935])
def test_array_inverse_matches_mpmath_root(grid):
    for entropy, alpha in zip(grid, _alphas_from_entanglement(grid)):
        reference = mp_alpha_from_entanglement(entropy)
        assert abs((alpha - reference) / reference) <= 1e-15


def test_array_inverse_on_the_fig1_grid_is_within_four_ulp_of_the_scalar():
    scalar = np.array([alpha_from_entanglement(entropy) for entropy in _FIG1_GRID])
    assert np.all(np.abs(_alphas_from_entanglement(_FIG1_GRID) - scalar) <= 4 * np.spacing(scalar))


@pytest.mark.parametrize("grid, bad", [
    ([0.5, 0.0, 1.1], "0.0"),
    ([0.5, 1.1, 0.0], "1.1"),
    ([-1e-300], "-1e-300"),
    ([0.3, math.nan], "nan"),
    ([math.inf], "inf"),
])
def test_array_inverse_rejects_the_first_entry_outside_its_range(grid, bad):
    with pytest.raises(ValueError, match=rf"entanglement must lie in \(0, 1\]; got {bad}$"):
        _alphas_from_entanglement(grid)
