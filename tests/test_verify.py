import csv
import io
import json
import pathlib
import re

import numpy as np
import pytest

from mdiew import cli, linalg, measurement, protocol, states, verify, witness
from mdiew.verify import check_separable_nonnegativity


SEEDS = [1234, 1, 7, 99, 2**31 - 1]


@pytest.mark.parametrize("seed", SEEDS)
def test_sampler_draws_separable_states_of_every_term_count(seed):
    matrices = verify._random_separable_matrices(np.random.default_rng(seed), 200)
    assert matrices.shape == (200, 4, 4)
    # PPT: for two qubits that is exactly separability (Peres-Horodecki).
    assert linalg.negativity(matrices).max() <= 1e-15
    # A mixture of k random product states has rank k, so the ranks are the term counts.
    counts = np.random.default_rng(seed).integers(1, verify._SEPARABLE_TERMS + 1, size=200)
    ranks = np.linalg.matrix_rank(matrices, tol=1e-10, hermitian=True)
    assert np.array_equal(ranks, counts)
    assert set(ranks) == {1, 2, 3, 4}


@pytest.mark.parametrize("seed", SEEDS)
def test_sampler_is_three_batched_draws(seed):
    rng = np.random.default_rng(seed)
    matrices = verify._random_separable_matrices(rng, 200)
    again = verify._random_separable_matrices(np.random.default_rng(seed), 200)
    assert again.tobytes() == matrices.tobytes()
    reference = np.random.default_rng(seed)
    reference.integers(1, verify._SEPARABLE_TERMS + 1, size=200)
    reference.standard_exponential((200, verify._SEPARABLE_TERMS))
    reference.standard_normal(200 * verify._SEPARABLE_TERMS * 8)
    assert rng.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
def test_normalised_exponential_draws_are_the_dirichlet_weights(seed):
    # The sampler's weights are standard exponential draws scaled to sum 1:
    # dirichlet(np.ones(k)) draws k gamma(1), that is standard_exponential,
    # variates and scales them the same way, so the weights are Dirichlet(1, ..., 1).
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for terms in (1, 2, 3, 4) * 50:
        draws = rng.standard_exponential(terms)
        total = 0.0
        for draw in draws:
            total += draw
        assert np.array_equal(draws * (1.0 / total), reference_rng.dirichlet(np.ones(terms)))
    assert rng.bit_generator.state == reference_rng.bit_generator.state


@pytest.mark.parametrize("seed", [1234, 7])
def test_batched_separable_minimum_matches_literal_path(seed):
    beta = witness.werner_beta()
    operators = witness.reduced_witness_operators(verify._SEPARABLE_GRID, beta)
    matrices, payoffs = verify._separable_payoffs(seed, operators[verify._SEPARABLE_ROWS])
    literal = np.array([[witness.mdi_ew_numeric(matrix[None], beta, lam)[0, 0]
                         for matrix in matrices] for lam in verify._SEPARABLE_LAMS])
    assert np.abs(payoffs - literal).max() <= 1e-15
    result = check_separable_nonnegativity(seed)
    assert result.passed
    assert result.detail.startswith(f"min value {literal.min():.3e} over 200 seeded states")


def test_separable_detail_pins_the_seeded_stream():
    stream, certificate = check_separable_nonnegativity(1234).detail.split("; ")
    assert stream == "min value 3.177e-04 over 200 seeded states"
    # Only the digits come from LAPACK's eigvalsh, whose rounding may differ between builds.
    assert re.fullmatch(r"W\(lam\) and its T_B spectrum certified to \d\.\de-1[67]", certificate)


def test_separable_check_certifies_the_partial_transpose_spectrum(monkeypatch):
    # Without the transpose the spectrum is W's own, whose lowest eigenvalue
    # (1 - 3 lam)/16 goes negative: the row must fail on the certificate alone.
    monkeypatch.setattr(linalg, "partial_transpose", lambda matrices: matrices)
    result = check_separable_nonnegativity()
    assert result.deviation <= verify.SEPARABLE_BOUND
    assert not result.passed


def test_separable_check_certifies_the_reduced_operator(monkeypatch):
    exact = witness.reduced_witness_operators

    def shifted(lams, beta):
        return exact(lams, beta) + 1e-13

    monkeypatch.setattr(witness, "reduced_witness_operators", shifted)
    result = check_separable_nonnegativity()
    assert result.deviation <= verify.SEPARABLE_BOUND
    assert not result.passed


# --- one literal stack per pass -------------------------------------------------

@pytest.fixture
def cholesky_failures(monkeypatch):
    """Every stack whose shifted Cholesky fails, so that eigvalsh decides its validation.

    Also counts the factorizations, so a test can tell that the fast path ran.
    """
    factor, calls, failures = np.linalg.cholesky, [], []

    def recording(matrices):
        calls.append(len(matrices))
        try:
            return factor(matrices)
        except np.linalg.LinAlgError:
            failures.append(matrices)
            raise

    monkeypatch.setattr(np.linalg, "cholesky", recording)
    return calls, failures


def _counting(monkeypatch, module, name):
    """Patch module.name with a wrapper that records each call's arguments; returns that list."""
    kernel, calls = getattr(module, name), []

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_run_all_builds_each_literal_stack_once(monkeypatch, cholesky_failures):
    payoffs = _counting(monkeypatch, witness, "mdi_ew_numeric")
    channels = _counting(monkeypatch, measurement, "averaged_channel")
    results = verify.run_all()
    assert all(r.passed for r in results)
    # The witness grid, the separable row's certified samples and the channel statistics.
    assert len(payoffs) == 3
    assert len(channels) == 1
    # A passing pass never reaches the eigvalsh fallback of the validation.
    calls, failures = cholesky_failures
    assert calls and not failures
    operators = _counting(monkeypatch, witness, "reduced_witness_operators")
    assert check_separable_nonnegativity().passed
    assert len(operators) == 1


def test_closure_slice_equals_the_three_state_channel():
    outs = verify._channel_outputs().reshape(
        len(verify._CHANNEL_LAMS), len(verify._CHANNEL_QS), len(verify._CHANNEL_ALPHAS), 4, 4)
    alone = measurement.averaged_channel(
        states.werner_alpha(verify._CHANNEL_QS, states.ALPHA_MAX), verify._CHANNEL_LAMS)
    assert verify._CHANNEL_ALPHAS[-1] == states.ALPHA_MAX
    assert np.ascontiguousarray(outs[:, :, -1]).reshape(-1, 4, 4).tobytes() == alone.tobytes()


def test_sharp_corner_entry_equals_the_one_state_payoff():
    assert (verify._QS[-1], verify._ALPHAS[-1], verify._LAMS[-1]) == (1.0, states.ALPHA_MAX, 1.0)
    alone = witness.mdi_ew_numeric(states.werner_alpha(1.0, states.ALPHA_MAX),
                                   witness.werner_beta(), 1.0)
    assert verify._witness_payoffs()[-1:, -1:].tobytes() == alone.tobytes()


def test_sharp_corner_row_reads_the_shared_payoff_stack():
    payoffs = verify._witness_payoffs()
    assert verify.check_witness_sharp_corner(payoffs).passed
    payoffs[-1, -1] += 1e-11
    assert not verify.check_witness_sharp_corner(payoffs).passed
    assert verify.check_witness_grid(payoffs).passed


def test_separable_rows_equal_the_three_sharpness_operators():
    assert verify._SEPARABLE_GRID[verify._SEPARABLE_ROWS].tolist() == list(verify._SEPARABLE_LAMS)
    beta = witness.werner_beta()
    rows = witness.reduced_witness_operators(verify._SEPARABLE_GRID, beta)[verify._SEPARABLE_ROWS]
    alone = witness.reduced_witness_operators(verify._SEPARABLE_LAMS, beta)
    assert rows.tobytes() == alone.tobytes()


def test_channel_noise_fails_both_channel_rows(monkeypatch):
    # 0.1% white noise on every channel output: sharing one stack must not
    # blind either row to it.
    exact = measurement.averaged_channel

    def noisy(matrices, lams):
        return 0.999 * exact(matrices, lams) + 0.001 * np.eye(4) / 4.0

    monkeypatch.setattr(measurement, "averaged_channel", noisy)
    results = {r.name: r for r in verify.run_all()}
    assert not results["channel_closure_maximal_alpha"].passed
    assert not results["channel_statistics_general_alpha"].passed


def _patched(module, name, wrap):
    """A fault that replaces module.name with wrap(module.name)."""
    return lambda monkeypatch: monkeypatch.setattr(module, name, wrap(getattr(module, name)))


def _peak_moved(monkeypatch):
    peaks = list(protocol._PEAKS)
    peaks[5] = 0.34
    monkeypatch.setattr(protocol, "_PEAKS", tuple(peaks))


def _rows_reversed(build):
    def reversed_rows(step):
        entropies, widths = build(step)
        return entropies, widths[::-1]
    return reversed_rows


def _widths_zeroed(build):
    def zero_widths(step):
        entropies, widths = build(step)
        return entropies, [[0.0] * len(row) for row in widths]
    return zero_widths


# One fault per row that no other test breaks, and the rows each must fail.
ROW_FAULTS = {
    # f(0) q leaves [0, 1]: the channel rows fail on the closed form's error
    "decay_factor_up_1e-5": (
        _patched(protocol, "f_of_lambda", lambda f: lambda lam: f(lam) * (1.0 + 1e-5)),
        {"decay_factor_spot_values", "channel_closure_maximal_alpha",
         "channel_statistics_general_alpha"}),
    "decay_factor_down_1e-9": (
        _patched(protocol, "f_of_lambda", lambda f: lambda lam: f(lam) * (1.0 - 1e-9)),
        {"channel_closure_maximal_alpha", "channel_statistics_general_alpha"}),
    "threshold_loss_up_1e-9": (
        _patched(protocol, "delta_negativity_at_threshold", lambda g: lambda n: g(n) + 1e-9),
        {"delta_negativity_threshold_identity"}),
    "decay_factor_halved": (
        _patched(protocol, "f_of_lambda", lambda f: lambda lam: f(lam) * 0.5),
        {"threshold_protocol_count", "sharp_measurement_survival"}),
    "level_6_peak_at_0.34": (_peak_moved, {"equal_sharpness_maxima"}),
    "input_products_reversed": (
        _patched(witness, "input_products", lambda products: lambda: products()[::-1]),
        {"witness_decomposition_roundtrip"}),
    "closed_form_up_1e-11": (
        _patched(witness, "mdi_ew_closed_form_unsharp", lambda w: lambda *args: w(*args) + 1e-11),
        {"witness_sharp_corner"}),
    "range_rows_reversed": (_patched(protocol, "_range_table", _rows_reversed),
                            {"sharpness_range_shape"}),
    # no row has a best count to compare
    "range_widths_zero": (_patched(protocol, "_range_table", _widths_zeroed),
                          {"sharpness_range_shape"}),
}


@pytest.mark.parametrize("fault, rows", ROW_FAULTS.values(), ids=ROW_FAULTS)
def test_fault_fails_its_row(monkeypatch, fault, rows):
    fault(monkeypatch)
    results = verify.run_all()
    assert len(results) == 15
    by_name = {r.name: r for r in results}
    assert rows <= set(by_name)
    assert not any(by_name[row].passed for row in rows)


def test_range_row_without_a_positive_width_fails_naming_the_entropy(monkeypatch, capsys):
    _patched(protocol, "_range_table", _widths_zeroed)(monkeypatch)
    row = verify.check_range_shape()
    assert not row.passed
    assert row.deviation == np.inf
    assert row.detail == "no count has a positive width at E = 0.5"
    assert cli.main(["verify"]) == 1
    assert "sharpness_range_shape,false,inf,1e-05,no count has a positive width at E = 0.5" in (
        capsys.readouterr().out.splitlines())


@pytest.mark.parametrize("fault", [None, ROW_FAULTS["decay_factor_up_1e-5"][0]],
                         ids=["no_fault", "decay_factor_up_1e-5"])
def test_verify_csv_reads_back_five_fields_per_line(monkeypatch, capsys, fault):
    # details hold commas: "n_max(E=1) = 6, n_max(E=0.935) = 5" always, and
    # "q must lie in [0, 1]; ..." on the channel rows under the fault
    if fault is not None:
        fault(monkeypatch)
    results = verify.run_all()
    cli.main(["verify"])
    lines = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert [len(line) for line in lines] == [5] * (len(results) + 1)
    assert [line[4] for line in lines[1:]] == [r.detail for r in results]


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_verify_json_writes_an_infinite_deviation_as_null(monkeypatch, capsys):
    ROW_FAULTS["range_widths_zero"][0](monkeypatch)
    assert cli.main(["verify", "--format", "json"]) == 1
    rows = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)["rows"]
    assert [row[1:4] for row in rows if row[0] == "sharpness_range_shape"] == [[False, None, 1e-05]]


def test_separable_row_passes_on_seeds_0_to_199_without_eigvalsh_fallback(cholesky_failures):
    # `verify --seed` takes any seed (the oracle benchmark draws a fresh one per pass),
    # so one seed that fails is a failed pass.
    failed = [seed for seed in range(200) if not check_separable_nonnegativity(seed).passed]
    assert failed == []
    calls, failures = cholesky_failures
    assert len(calls) >= 200 and not failures


# --- stacked checks against per-point loops of one-state calls --------------------

def _witness_grid_loop():
    worst = 0.0
    for q in np.linspace(0.0, 1.0, 5):
        for alpha in np.linspace(0.1, states.ALPHA_MAX, 5):
            rho = states.werner_alpha(q, alpha)
            for lam in np.linspace(0.0, 1.0, 5):
                numeric = witness.mdi_ew_numeric(rho, witness.werner_beta(), lam)[0, 0]
                worst = max(worst, abs(numeric - witness.mdi_ew_closed_form_unsharp(q, alpha, lam)))
    return worst


_CHANNEL_LAMS = (0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0)
_CHANNEL_QS = (0.25, 0.5, 1.0)


def _channel_closure_loop():
    worst = 0.0
    for lam in _CHANNEL_LAMS:
        for q in _CHANNEL_QS:
            out = measurement.averaged_channel(states.werner_alpha(q, states.ALPHA_MAX), lam)
            want = states.werner_alpha(protocol.f_of_lambda(lam) * q, states.ALPHA_MAX)
            worst = max(worst, float(np.abs(out - want).max()))
    return worst


def _channel_statistics_loop():
    worst = 0.0
    for lam in _CHANNEL_LAMS:
        for q in _CHANNEL_QS:
            for alpha in (0.2, 0.4, states.ALPHA_MAX):
                out = measurement.averaged_channel(states.werner_alpha(q, alpha), lam)
                for probe in (0.5, 1.0):
                    numeric = witness.mdi_ew_numeric(out, witness.werner_beta(), probe)[0, 0]
                    closed = witness.mdi_ew_closed_form_unsharp(
                        protocol.f_of_lambda(lam) * q, alpha, probe)
                    worst = max(worst, abs(numeric - closed))
    return worst


def _negativity_grid_loop():
    worst = 0.0
    for q in np.linspace(0.0, 1.0, 20):
        for alpha in np.linspace(0.05, states.ALPHA_MAX, 20):
            oracle = linalg.negativity(states.werner_alpha(q, alpha))[0]
            worst = max(worst, abs(protocol.negativity_walpha(q, alpha) - oracle))
    return worst


def _delta_negativity_identity_loop():
    worst = 0.0
    for negativity in np.arange(0.05, 0.501, 0.05):
        threshold = protocol.threshold_from_negativity(negativity)
        composed = (1.0 + 4.0 * negativity) / 4.0 * (1.0 - protocol.f_of_lambda(threshold))
        worst = max(worst, abs(composed - protocol.delta_negativity_at_threshold(negativity)))
    return worst


def _delta_negativity_monotone_loop():
    worst = 0.0
    for negativity in np.linspace(0.0, 0.5, 11):
        previous = -np.inf
        for lam in np.linspace(0.0, 1.0, 101):
            loss = protocol.delta_negativity(negativity, lam)
            worst = max(worst, -loss, previous - loss)
            previous = loss
    return worst


def _on_witness_payoffs(check):
    """`check` on a payoff stack built at call time, as run_all passes it."""
    return lambda: check(verify._witness_payoffs())


def _on_channel_outputs(check):
    """`check` on a channel stack built at call time, as run_all passes it."""
    return lambda: check(verify._channel_outputs())


@pytest.mark.parametrize("check, loop", [
    (_on_witness_payoffs(verify.check_witness_grid), _witness_grid_loop),
    (_on_channel_outputs(verify.check_channel_closure_maximal), _channel_closure_loop),
    (_on_channel_outputs(verify.check_channel_statistics), _channel_statistics_loop),
    (verify.check_negativity_grid, _negativity_grid_loop),
    (verify.check_delta_negativity_identity, _delta_negativity_identity_loop),
    (verify.check_delta_negativity_monotone, _delta_negativity_monotone_loop),
], ids=["witness_grid", "channel_closure_maximal", "channel_statistics", "negativity_grid",
        "delta_negativity_identity", "delta_negativity_monotone"])
def test_stacked_check_equals_per_point_loop(check, loop):
    result = check()
    assert result.passed
    assert result.deviation == loop()


# --- a NaN from a literal oracle fails its check ------------------------------

def _with_one_nan(kernel):
    def patched(*args, **kwargs):
        values = kernel(*args, **kwargs).copy()
        values.flat[values.size // 2] = np.nan
        return values
    return patched


@pytest.mark.parametrize("module, kernel, check", [
    (witness, "mdi_ew_numeric", _on_witness_payoffs(verify.check_witness_grid)),
    (witness, "mdi_ew_numeric", _on_channel_outputs(verify.check_channel_statistics)),
    (linalg, "negativity", verify.check_negativity_grid),
], ids=["witness_grid", "channel_statistics", "negativity_grid"])
def test_one_nan_from_the_oracle_fails_the_check(monkeypatch, module, kernel, check):
    monkeypatch.setattr(module, kernel, _with_one_nan(getattr(module, kernel)))
    result = check()
    assert not result.passed
    assert np.isnan(result.deviation)


@pytest.mark.parametrize("module, closed_form, check", [
    (witness, "mdi_ew_closed_form_unsharp", _on_witness_payoffs(verify.check_witness_grid)),
    (witness, "mdi_ew_closed_form_unsharp", _on_channel_outputs(verify.check_channel_statistics)),
    (protocol, "negativity_walpha", verify.check_negativity_grid),
    (protocol, "delta_negativity", verify.check_delta_negativity_monotone),
], ids=["witness_grid", "channel_statistics", "negativity_grid", "delta_negativity_monotone"])
def test_one_nan_from_a_closed_form_twin_fails_the_check(monkeypatch, module, closed_form, check):
    monkeypatch.setattr(module, closed_form, _with_one_nan(getattr(module, closed_form)))
    result = check()
    assert not result.passed
    assert np.isnan(result.deviation)


def test_worst_deviation_propagates_nan_and_floors_at_zero():
    assert np.isnan(verify._worst([1e-17, np.nan, 2e-17]))
    assert np.isnan(verify._worst([np.nan, 1e-17]))
    assert verify._worst([3e-17, 1e-17]) == 3e-17
    assert verify._worst([-1.0, -0.0]) == 0.0
    assert np.copysign(1.0, verify._worst([-0.0])) == 1.0
    assert verify._worst([]) == 0.0


@pytest.mark.parametrize("toward", [0.0, 1.0])
def test_boundary_check_reruns_the_shipped_edge(monkeypatch, toward):
    passed = verify.check_threshold_boundary()
    assert passed.passed
    assert passed.detail == "boundary E = 0.934841"
    # an edge literal one float off: the runner's counts give it away, even
    # though the entropy stays well inside the tolerance
    edges = list(protocol._COUNT_EDGES)
    edges[13] = float(np.nextafter(edges[13], toward))
    monkeypatch.setattr(protocol, "_COUNT_EDGES", tuple(edges))
    failed = verify.check_threshold_boundary()
    assert not failed.passed
    assert failed.deviation == np.inf
    assert failed.detail.startswith(passed.detail + "; runner counts [")
    assert failed.detail.endswith(" at edge 14 and one float below")


@pytest.mark.parametrize("shift", [1e-6, -1e-6])
@pytest.mark.parametrize("n", [7, 13])
def test_moved_count_edge_fails_the_boundary_row(monkeypatch, n, shift):
    # an inner edge 1e-6 off moves fig1's counts but not the count-14 entropy
    edges = list(protocol._COUNT_EDGES)
    edges[n - 1] += shift
    monkeypatch.setattr(protocol, "_COUNT_EDGES", tuple(edges))
    results = {r.name: r for r in verify.run_all()}
    row = results["threshold_boundary_entanglement"]
    assert not row.passed
    assert row.deviation == np.inf
    expected = [n, n] if shift > 0 else [n - 1, n - 1]
    assert row.detail == (f"boundary E = 0.934841; runner counts {expected} "
                          f"at edge {n} and one float below")


def _claims_ledger():
    """README's claims ledger: its text, and each table line as a dict keyed by the header."""
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("## Claims ledger", 1)[1].split("\n## ", 1)[0]
    table = [[cell.strip() for cell in line.strip("|").split("|")]
             for line in section.splitlines() if line.startswith("| ")]
    return section, [dict(zip(table[0], cells)) for cells in table[1:]]


def test_claims_ledger_names_only_rows_that_verify_runs():
    section, lines = _claims_ledger()
    named = {line["verify row"].strip("`") for line in lines} - {"none"}
    assert len(lines) >= 7 and len(named) >= 5
    assert named <= {result.name for result in verify.run_all()}
    assert all(line["model"].split()[0] in ("exact", "white-noise") for line in lines)
    assert "Not yet shown" in section
