import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mdiew.measurement import _effects, averaged_channel, bell_projector
from mdiew.protocol import f_of_lambda
from mdiew.states import ALPHA_MAX, input_ensemble, werner_alpha
from mdiew.witness import mdi_ew_numeric, werner_beta

from conftest import (
    generic_root_tolerance,
    herm_sqrt,
    min_eigenvalue,
    partial_trace,
    random_density_matrix,
    random_separable_two_qubit,
    werner_and_random_states,
)

I4 = np.eye(4)
lambdas = st.floats(0.0, 1.0)


def effect_pair(lam):
    """Plus and minus effect at one sharpness: the kernel's plus, and minus = I - plus."""
    plus = _effects([lam])[0][0]
    return plus, I4 - plus


def effect_roots(lam):
    """Plus and minus root at one sharpness, from the kernel's stack of one."""
    _, plus_roots, minus_roots = _effects([lam])
    return plus_roots[0], minus_roots[0]


# --- effects ------------------------------------------------------------------

def test_sharp_limit_gives_projectors():
    plus, minus = effect_pair(1.0)
    assert np.abs(plus - bell_projector()).max() < 1e-14
    assert np.abs(minus - (I4 - bell_projector())).max() < 1e-14
    assert np.array_equal(plus + minus, I4)


def test_trivial_limit_gives_scaled_identities():
    plus, minus = effect_pair(0.0)
    assert np.abs(plus - I4 / 4).max() < 1e-15
    assert np.abs(minus - 3 * I4 / 4).max() < 1e-15


def test_effect_spectrum_at_one_third():
    plus, _ = effect_pair(1 / 3)
    eigvals = np.sort(np.linalg.eigvalsh(plus))
    assert np.abs(eigvals - [1 / 6, 1 / 6, 1 / 6, 0.5]).max() < 1e-12


@given(lambdas)
def test_effects_sum_to_identity_exactly(lam):
    plus, minus = effect_pair(lam)
    assert np.array_equal(plus + minus, I4)
    assert min_eigenvalue(plus) >= -1e-14
    assert min_eigenvalue(minus) >= -1e-14


def test_unsharp_pair_range_errors():
    for lam in (-0.01, 1.01):
        with pytest.raises(ValueError, match="sharpness"):
            effect_pair(lam)


def test_bell_projector_is_read_only():
    projector = bell_projector()
    with pytest.raises(ValueError, match="read-only"):
        projector *= 2
    with pytest.raises(ValueError, match="read-only"):
        projector[0, 0] = 1.0
    assert bell_projector() is projector
    assert np.array_equal(effect_pair(1.0)[0], projector)


# Sharpness grid of the effect-stack tests: 101 points from 0 to 1, then 1/3.
STACK_LAMS = np.append(np.linspace(0.0, 1.0, 101), 1.0 / 3.0)


def scalar_effects(lam):
    """Reference: the plus effect and both Kraus roots by the one-sharpness scalar formulas."""
    proj = bell_projector()
    plus = lam * proj + (1.0 - lam) / 4.0 * I4
    roots = []
    for on_bell, off_bell in (((1.0 + 3.0 * lam) / 4.0, (1.0 - lam) / 4.0),
                              ((3.0 - 3.0 * lam) / 4.0, (3.0 + lam) / 4.0)):
        on_bell, off_bell = math.sqrt(on_bell), math.sqrt(off_bell)
        roots.append((on_bell - off_bell) * proj + off_bell * I4)
    return plus, *roots


def test_effect_stack_is_bit_identical_to_one_sharpness_calls():
    plus, plus_roots, minus_roots = _effects(STACK_LAMS)
    assert plus.shape == plus_roots.shape == minus_roots.shape == (len(STACK_LAMS), 4, 4)
    for index, lam in enumerate(STACK_LAMS):
        one = _effects([lam])
        assert np.array_equal(plus[index], one[0][0])
        assert np.array_equal(plus_roots[index], one[1][0])
        assert np.array_equal(minus_roots[index], one[2][0])
        reference = scalar_effects(float(lam))
        for got, want in zip((plus[index], plus_roots[index], minus_roots[index]), reference):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("bad, shown", [(math.nan, "nan"), (1.5, "1.5")])
def test_sharpness_stack_names_its_first_bad_entry(bad, shown):
    lams = np.linspace(0.0, 1.0, 2000)
    lams[5] = bad
    lams[1000] = -0.5
    matrices = werner_alpha(0.5, ALPHA_MAX)
    for build in (_effects, lambda lams: averaged_channel(matrices, lams),
                  lambda lams: mdi_ew_numeric(matrices, werner_beta(), lams)):
        with pytest.raises(ValueError, match=rf"sharpness must lie in \[0, 1\]; got {shown}$"):
            build(lams)


def test_a_scalar_sharpness_is_a_sequence_of_one():
    matrices = werner_alpha([0.5, 1.0], [0.3, ALPHA_MAX])
    for lam in (0.0, 0.37, 1.0):
        assert all(np.array_equal(got, want) for got, want in zip(_effects(lam), _effects([lam])))
        assert np.array_equal(averaged_channel(matrices, lam), averaged_channel(matrices, [lam]))
        payoffs = mdi_ew_numeric(matrices, werner_beta(), lam)
        assert payoffs.shape == (1, 2)
        assert np.array_equal(payoffs, mdi_ew_numeric(matrices, werner_beta(), [lam]))


# --- effect square roots ----------------------------------------------------------

@given(lambdas)
@example(0.0)
@example(1.0)
@example(float(np.nextafter(1.0, 0.0)))
@example(1.0 - 3.9e-10)
def test_effect_sqrt_agrees_with_generic_path(lam):
    plus, minus = effect_pair(lam)
    plus_root, minus_root = effect_roots(lam)
    for root, effect, smallest in ((plus_root, plus, (1.0 - lam) / 4.0),
                                   (minus_root, minus, (3.0 - 3.0 * lam) / 4.0)):
        assert np.abs(root @ root - effect).max() < 1e-15
        tolerance = generic_root_tolerance(lam, smallest)
        assert np.abs(root - herm_sqrt(effect)).max() < tolerance
    # the two Kraus operators are complete, so the update preserves the trace
    assert np.abs(plus_root @ plus_root + minus_root @ minus_root - I4).max() < 2e-15


def test_effect_sqrt_closed_spectral_form():
    lam = 0.37
    proj = bell_projector()
    plus_root = (np.sqrt((1 + 3 * lam) / 4) * proj
                 + np.sqrt((1 - lam) / 4) * (I4 - proj))
    minus_root = (np.sqrt((3 - 3 * lam) / 4) * proj
                  + np.sqrt((3 + lam) / 4) * (I4 - proj))
    got_plus, got_minus = effect_roots(lam)
    assert np.abs(got_plus - plus_root).max() < 1e-14
    assert np.abs(got_minus - minus_root).max() < 1e-14


# --- averaged channel -------------------------------------------------------------------

def test_channel_fixes_white_noise():
    noise = werner_alpha(0.0, 0.5)
    for lam in (0.3, 1.0):
        out = averaged_channel(noise, lam)
        assert np.abs(out - np.eye(4) / 4).max() < 1e-14


def test_channel_closure_at_maximal_alpha():
    for lam in (0.0, 0.2, 1 / 3, 0.5, 0.8, 1.0):
        for q in (0.25, 0.5, 1.0):
            out = averaged_channel(werner_alpha(q, ALPHA_MAX), lam)
            want = werner_alpha(f_of_lambda(lam) * q, ALPHA_MAX)
            assert np.abs(out - want).max() < 1e-10


def test_channel_output_form_general_alpha():
    # the invariant noise is rho_A (x) I/2, which preserves Alice's marginal;
    # it coincides with white noise only at alpha = 1/sqrt(2)
    for alpha in (0.2, 0.4, 0.6):
        proj = werner_alpha(1.0, alpha)[0]
        rho_a = np.diag([alpha**2, 1 - alpha**2]).astype(complex)
        for lam in (0.3, 0.7, 1.0):
            for q in (0.5, 1.0):
                out = averaged_channel(werner_alpha(q, alpha), lam)
                decay = f_of_lambda(lam)
                want = (decay * q * proj
                        + q * (1 - decay) * np.kron(rho_a, np.eye(2) / 2)
                        + (1 - q) / 4 * np.eye(4))
                assert np.abs(out[0] - want).max() < 1e-12
                marginal = partial_trace(out[0], "A")
                input_marginal = partial_trace(werner_alpha(q, alpha)[0], "A")
                assert np.abs(marginal - input_marginal).max() < 1e-12


def test_nonselective_sharp_step_halves_the_weight():
    # full averaging at lam=1 on the pure maximally entangled state
    out = averaged_channel(werner_alpha(1.0, ALPHA_MAX), 1.0)
    assert np.abs(out - werner_alpha(0.5, ALPHA_MAX)).max() < 1e-12


def _eight_embed_channel(rho, lam):
    """Reference: the channel with both Kraus operators embedded anew for every input.

    On (A, B, B') each Kraus operator is I_2 (x) sqrt(E) by np.kron; the
    trace over B' adds the two diagonal blocks of that qubit by hand.
    """
    total = np.zeros((8, 8), dtype=complex)
    for omega in input_ensemble():
        eta = np.kron(rho, omega)
        for root in effect_roots(lam):
            kraus = np.kron(np.eye(2), root)
            total += 0.25 * (kraus @ eta @ kraus)
    blocks = total.reshape(4, 2, 4, 2)
    return blocks[:, 0, :, 0] + blocks[:, 1, :, 1]


@pytest.mark.parametrize("lam", [0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0])
def test_channel_is_bit_identical_to_eight_embed_loop(lam):
    rng = np.random.default_rng(11)
    inputs = [werner_alpha(q, alpha)[0] for q in (0.25, 1.0) for alpha in (0.2, ALPHA_MAX)]
    inputs += [random_separable_two_qubit(rng) for _ in range(4)]
    inputs.append(random_density_matrix(rng, 4))
    for rho in inputs:
        assert np.array_equal(averaged_channel(rho[None], lam)[0], _eight_embed_channel(rho, lam))


@pytest.mark.parametrize("size", [1, 2, 7])
def test_channel_kernel_is_bit_identical_to_per_state_calls(size):
    matrices = werner_and_random_states(np.random.default_rng(size), size)
    for lam in (0.0, 1.0 / 3.0, 0.5, 1.0):
        per_state = np.concatenate([averaged_channel(rho[None], lam) for rho in matrices])
        assert np.array_equal(averaged_channel(matrices, (lam,)), per_state)


def test_channel_over_a_sharpness_stack_is_bit_identical_to_per_lambda_calls():
    matrices = werner_and_random_states(np.random.default_rng(5), 3)
    lams = (0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0)
    stacked = averaged_channel(matrices, lams)
    assert stacked.shape == (len(lams) * len(matrices), 4, 4)
    per_lambda = [averaged_channel(rho[None], lam) for lam in lams for rho in matrices]
    assert np.array_equal(stacked, np.concatenate(per_lambda))
