import numpy as np
import pytest

from mdiew import verify, witness
from mdiew.verify import check_separable_nonnegativity, random_separable_two_qubit


def _kron_outer_sampler(rng, max_terms=4):
    """Reference: the sampler written with np.kron and np.outer."""
    terms = int(rng.integers(1, max_terms + 1))
    weights = rng.dirichlet(np.ones(terms))
    matrix = np.zeros((4, 4), dtype=complex)
    for weight in weights:
        vec_a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        vec_b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        vec = np.kron(vec_a / np.linalg.norm(vec_a), vec_b / np.linalg.norm(vec_b))
        matrix += weight * np.outer(vec, vec.conj())
    return matrix


@pytest.mark.parametrize("seed", [1234, 1, 7, 99, 2**31 - 1])
def test_sampler_is_bit_identical_to_kron_outer_route(seed):
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(200):
        got = random_separable_two_qubit(rng).matrix
        assert np.array_equal(got, _kron_outer_sampler(reference_rng))


@pytest.mark.parametrize("seed", [1234, 7])
def test_batched_separable_minimum_matches_literal_path(seed):
    _, payoffs = verify._separable_payoffs(seed, 200)
    rng = np.random.default_rng(seed)
    beta = witness.werner_beta()
    literal = np.inf
    for _ in range(200):
        rho = random_separable_two_qubit(rng)
        for lam in (0.25, 0.5, 1.0):
            literal = min(literal, witness.mdi_ew_numeric(rho, beta, lam).value)
    assert abs(payoffs.min() - literal) <= 1e-15
    result = check_separable_nonnegativity(seed)
    assert result.passed
    assert result.detail.startswith(f"min value {literal:.3e} over 200 seeded states")


def test_separable_check_certifies_the_reduced_operator(monkeypatch):
    exact = witness.reduced_witness_operator

    def shifted(lam, beta):
        return exact(lam, beta) + 1e-13

    monkeypatch.setattr(witness, "reduced_witness_operator", shifted)
    result = check_separable_nonnegativity()
    assert result.deviation <= verify.SEPARABLE_BOUND
    assert not result.passed
