import ast
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mdiew
from mdiew import cli, protocol, states, verify

from conftest import mp_alpha_from_entanglement, threshold_success_count

ALPHA_MAX = 2 ** -0.5


def run_cli(args, capsys=None):
    code = cli.main(args)
    return code


def read_csv(path):
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        return list(reader)


def test_fig1_output(tmp_path):
    out = tmp_path / "fig1.csv"
    # coarse grid keeps the test fast; the boundary row is always added
    assert cli.main(["fig1", "--grid-step", "0.01", "--out", str(out)]) == 0
    rows = read_csv(str(out))
    assert list(rows[0]) == ["alpha", "e_alpha", "n"]
    entropies = [float(r["e_alpha"]) for r in rows]
    counts = [int(r["n"]) for r in rows]
    assert all(a < b for a, b in zip(entropies, entropies[1:]))
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    assert counts[-1] == 14
    assert entropies[-1] == 1.0
    # the bisected first-count-14 row is included
    boundary = [r for r in rows if int(r["n"]) == 14][0]
    assert abs(float(boundary["e_alpha"]) - 0.9349) < 5e-4


def test_fig2_output(tmp_path):
    out = tmp_path / "fig2.csv"
    assert cli.main(["fig2", "--entanglement", "1.0", "--out", str(out)]) == 0
    rows = read_csv(str(out))
    assert list(rows[0]) == ["lambda", "n"]
    lams = [float(r["lambda"]) for r in rows]
    counts = [int(r["n"]) for r in rows]
    assert all(1 / 3 < lam <= 1.0 for lam in lams)
    assert max(counts) == 6
    assert counts[lams.index(1.0)] == 2


def test_fig2_near_maximal_entanglement(tmp_path):
    out = tmp_path / "fig2b.csv"
    assert cli.main(["fig2", "--entanglement", "0.935", "--out", str(out)]) == 0
    counts = [int(r["n"]) for r in read_csv(str(out))]
    assert max(counts) == 5


def test_fig3_output(tmp_path):
    out = tmp_path / "fig3.csv"
    assert cli.main(["fig3", "--grid-step", "0.05", "--out", str(out)]) == 0
    rows = read_csv(str(out))
    assert list(rows[0]) == ["e_alpha", "n", "delta_lambda_n"]
    for row in rows:
        measure = float(row["delta_lambda_n"])
        assert 0.0 <= measure <= 2 / 3 + 1e-9
    entropies = sorted({float(r["e_alpha"]) for r in rows})
    assert entropies[0] == 0.5 and entropies[-1] == 1.0


def test_run_threshold_trace(tmp_path):
    out = tmp_path / "trace.csv"
    assert cli.main(["run", "--alpha", repr(ALPHA_MAX), "--out", str(out)]) == 0
    rows = read_csv(str(out))
    assert list(rows[0]) == ["i", "lambda_i", "q_i", "witness_value", "negativity", "success"]
    assert sum(r["success"] == "true" for r in rows) == 14
    assert rows[-1]["success"] == "false"
    first = rows[0]
    assert float(first["lambda_i"]) == pytest.approx(1 / 3, abs=1e-9)
    assert float(first["q_i"]) == 1.0
    assert float(first["witness_value"]) == pytest.approx(-0.125, abs=1e-9)
    assert float(first["negativity"]) == pytest.approx(0.5, abs=1e-9)
    qs = [float(r["q_i"]) for r in rows]
    assert all(a > b for a, b in zip(qs, qs[1:]))
    negs = [float(r["negativity"]) for r in rows]
    assert all(a >= b for a, b in zip(negs, negs[1:]))


def test_run_equal_trace(tmp_path):
    out = tmp_path / "trace.csv"
    assert cli.main(["run", "--entanglement", "1.0", "--lambda", "1.0",
                     "--out", str(out)]) == 0
    rows = read_csv(str(out))
    assert [r["success"] for r in rows] == ["true", "true", "false"]


def test_json_format_carries_schema(tmp_path):
    out = tmp_path / "fig2.json"
    assert cli.main(["fig2", "--alpha", "0.5", "--grid-step", "0.01",
                     "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == "1"
    assert payload["command"] == "fig2"
    assert payload["columns"] == ["lambda", "n"]
    assert payload["params"]["alpha"] == 0.5
    assert all(len(row) == 2 for row in payload["rows"])


def test_byte_identical_reruns(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    args = ["run", "--entanglement", "0.9", "--lambda", "0.6"]
    assert cli.main(args + ["--out", str(first)]) == 0
    assert cli.main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    jf = tmp_path / "a.json"
    js = tmp_path / "b.json"
    vargs = ["verify", "--format", "json", "--seed", "7"]
    assert cli.main(vargs + ["--out", str(jf)]) == 0
    assert cli.main(vargs + ["--out", str(js)]) == 0
    assert jf.read_bytes() == js.read_bytes()


# sha256 of the default-grid CSV on stdout.  Refactors keep these bytes; a
# change that makes a figure more exact updates its hash and says by how much
# in CHANGES.md.  fig1 was re-pinned when the exact entropy inverse moved its
# E = 0.0005 row to the correctly rounded alpha (see
# test_fig1_small_entanglement_row_matches_mpmath).  fig3 was re-pinned when
# exact window edges replaced the grid scan with 1e-6 bisection: the same 306
# rows and zero pattern, delta_lambda_n moved by at most 9.8e-7.
# fig1 re-pinned: boundary row alpha, e_alpha moved to the exact 13 -> 14 edge.
GOLDEN_FIGURE_SHA256 = {
    ("fig1",): "f410d853aa3b26efdb9e427df881ae7204623466cfc9b071f61ca498b958c91d",
    ("fig2", "--entanglement", "1.0"):
        "f1dc575b63b858f361411cd82b6335c30dcb177b0a9237a02414c5e558caa4c5",
    ("fig2", "--entanglement", "0.935"):
        "cb6827e5a02d49c836f6d4a3afe169564e988f96cc9c5dc3c121174ce2a8c01c",
    ("fig3",): "3421eaecb32b8cfe584ee6dedb1f3d7817b8be4f7ffc77e2738d2d9c1208edf3",
    # taken while each state's windows were solved on their own, before fig3
    # solved its grid as one warm-started sweep; the sweep keeps these bytes
    ("fig3", "--grid-step", "0.05"):
        "896ec1dd6a1f4e9f1ca600505ff7f4478b30db2cf22b13493f596dd5477d890a",
    ("fig3", "--grid-step", "0.005"):
        "a79c33458cb6bed87674f7da3f8ff5aaf916d8e3604980c2e3316e046bd5524a",
}


# sha256 of other tables on stdout: the JSON writer, and CSV rows with int and
# bool columns.  Taken before the CSV writer switched to one format template
# per table, and the JSON ones before the JSON writer left json.dumps, which
# kept every byte.
GOLDEN_TABLE_SHA256 = {
    ("run", "--entanglement", "0.8", "--margin", "0.01"):
        "2afc8045bccce4d23e79c4991afff1a77b776df9a4ef1fa63808aa5b7fdb0e8f",
    ("run", "--entanglement", "0.8", "--margin", "0.01", "--format", "json"):
        "35e5542bf8fe5d73e3a2bc09fe90bdd188a485256e0b326ed8aea463be42b346",
    ("run", "--alpha", "0.5", "--lambda", "0.6"):
        "894e35f47890c955da9b961c5cc79826e701aeb012049e94b70de46a5aa9c645",
    ("fig1", "--format", "json"):
        "f90ab44c505bc8df2a9ef1a7496d5dc21740beb83ad01cdc257f251ae10339ad",
    ("fig3", "--format", "json"):
        "01c7355471e5be9ffdb499e0a5f795b77525ca319526608c0f9a2dd6014be7c6",
    ("run", "--alpha", "0.5", "--lambda", "0.6", "--format", "json"):
        "ddfde2103abba49385b2624c6462058dea07a1aabffe48824c18586a02560919",
}


def tree_spelling(args):
    """`args` with each `--option value` pair spelled `--option=value`, which
    only the argparse tree parses; an argv without options gets the default
    `--format=csv`."""
    pairs = ["=".join(pair) for pair in zip(args[1::2], args[2::2])]
    return [args[0], *(pairs or ["--format=csv"])]


def stdout_sha256(args, capsys):
    assert cli.main(list(args)) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("args", list(GOLDEN_FIGURE_SHA256), ids=" ".join)
def test_figure_stdout_matches_golden_hash(args, capsys):
    assert stdout_sha256(args, capsys) == GOLDEN_FIGURE_SHA256[args]
    assert cli._scan(tree_spelling(args)) is None
    assert stdout_sha256(tree_spelling(args), capsys) == GOLDEN_FIGURE_SHA256[args]


@pytest.mark.parametrize("args", list(GOLDEN_TABLE_SHA256), ids=" ".join)
def test_table_stdout_matches_golden_hash(args, capsys):
    assert stdout_sha256(args, capsys) == GOLDEN_TABLE_SHA256[args]
    assert cli._scan(tree_spelling(args)) is None
    assert stdout_sha256(tree_spelling(args), capsys) == GOLDEN_TABLE_SHA256[args]


@pytest.mark.parametrize("args", [
    ("fig1", "--grid-step", "0.05", "--format", "json"),
    ("fig2", "--entanglement", "0.935", "--format", "json"),
    ("fig3", "--format", "json"),
    ("run", "--entanglement", "0.8", "--margin", "0.01", "--format", "json"),
    ("run", "--alpha", "0.5", "--lambda", "0.6", "--format", "json"),
    ("verify", "--format", "json"),
], ids=" ".join)
def test_json_output_is_json_dumps_of_its_payload(args, capsys):
    assert cli.main(list(args)) == 0
    out = capsys.readouterr().out
    assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out


_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text())
_TRICKY_TEXT = ['q"uote', "back\\slash", "new\nline", "caf\u00e9 \u20ac \U0001f600",
                "],\n      [", "],\n    ],\n    [\n      ", ""]
# Integral values, a 12-digit integer text, texts that %g puts in exponent form
# while repr stays positional (and the reverse at 1e16), the low exponent switch
# and subnormal or tiny values
_TRICKY_FLOATS = [1.0, -0.0, 2.0, 999999999999.4, 999999999999.5, 123456789012345.0, 1e16,
                  1e-4, 1e-5, 5e-324, -1e-300]


def _rounded(value):
    """`value`, a float rounded to 12 significant digits as the JSON tables
    print it, and None for a non-finite float, which they print as null."""
    if not isinstance(value, float):
        return value
    return float(f"{value:.12g}") if math.isfinite(value) else None


@given(st.dictionaries(st.text(), _JSON_SCALARS), st.lists(st.text()),
       st.lists(st.lists(_JSON_SCALARS, min_size=1)))
@example({}, [], [])
@example({"alpha": math.nan, "lambda": math.inf, "margin": -math.inf, **dict.fromkeys(_TRICKY_TEXT, 0)},
         _TRICKY_TEXT, [[math.nan, math.inf, -math.inf, -0.0], _TRICKY_TEXT, [1], [True, None]])
@example({"e": 1.0}, ["x"], [["],\n      ["], ["a", "],\n      [", "b"]])
@example(dict(zip("abcdefghijk", _TRICKY_FLOATS)), ["x"],
         [_TRICKY_FLOATS, [-x for x in _TRICKY_FLOATS]])
def test_json_writer_matches_json_dumps(params, columns, rows):
    payload = {"schema_version": "1", "command": "run",
               "params": {key: _rounded(value) for key, value in params.items()},
               "columns": columns, "rows": [list(map(_rounded, row)) for row in rows]}
    assert (cli._json_table("run", columns, rows, params)
            == json.dumps(payload, sort_keys=True, indent=2))


def test_shared_parser_keeps_no_per_call_state(capsys):
    # a usage error and an equal-sharpness run leave no --lambda behind for
    # the threshold run that follows; the `=` spelling sends every call
    # through the argparse tree
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["run", "--entanglement=2"])
    assert excinfo.value.code == 2
    assert cli.main(["run", "--lambda=0.6", "--alpha=0.5"]) == 0
    capsys.readouterr()
    args = ("run", "--entanglement", "0.8", "--margin", "0.01")
    assert stdout_sha256(tree_spelling(args), capsys) == GOLDEN_TABLE_SHA256[args]


# Each command's option strings, and values of each kind the scanner must
# parse or decline exactly as argparse does
COMMAND_OPTIONS = {
    "fig1": ("--grid-step", "--format", "--out"),
    "fig2": ("--alpha", "--entanglement", "--grid-step", "--format", "--out"),
    "fig3": ("--grid-step", "--format", "--out"),
    "run": ("--alpha", "--entanglement", "--format", "--out", "--lambda", "--margin"),
    "verify": ("--format", "--out", "--seed"),
}
OPTIONS = tuple(sorted({flag for flags in COMMAND_OPTIONS.values() for flag in flags}))
VALUES = ("0.5", "0.935", "1.0", "7", "-1", "-0.5", "nan", "inf", "-inf", "1e-300", "",
          " 2", "1_0", "0x1", "json", "yaml", "csv", "out.csv", "a=b", "fig1", "-")
commands = st.sampled_from(list(COMMAND_OPTIONS))
values = st.sampled_from(VALUES) | st.text(max_size=4)
tokens = (commands | st.sampled_from(OPTIONS + ("-h", "--help", "--")) | values
          | st.builds("{}={}".format, st.sampled_from(OPTIONS), values)
          | st.sampled_from(OPTIONS).flatmap(lambda flag: st.sampled_from(
              [flag[:k] for k in range(3, len(flag))])))
plain_values = st.sampled_from(("0.5", "1", "nan", "inf", "-inf", "-1", "1e-300", " 2", "1_0",
                                "csv", "json"))


def command_lines(command, flags, values):
    """`command` and up to four `--option value` pairs drawn from `flags` and `values`."""
    pairs = st.lists(st.tuples(flags, values), max_size=4)
    return pairs.map(lambda pairs: [command, *(token for pair in pairs for token in pair)])


# any tokens; any options and values after a command; its own options with
# plain values, which are often well-formed
argvs = (st.lists(tokens, max_size=7)
         | commands.flatmap(lambda command: command_lines(
             command, st.sampled_from(OPTIONS), values))
         | commands.flatmap(lambda command: command_lines(
             command, st.sampled_from(COMMAND_OPTIONS[command]), plain_values)))


def tree_parse(argv):
    """The argparse tree's values for `argv`, or its exit code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._build_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code


def typed(parsed):
    # by type and repr, so that nan equals nan and 0.0 differs from -0.0 and 0
    return {key: (type(value), repr(value)) for key, value in parsed.items()}


@settings(max_examples=400)
@given(argvs)
@example(["run", "--margin", "-inf"])            # not a negative number to argparse
@example(["run", "--out", "--format"])           # an option where a value belongs
@example(["fig2", "--alpha", "0.5", "--entanglement", "0.5"])
@example(["fig1", "--format", "yaml"])
@example(["fig1", "--format"])
def test_scanner_agrees_with_the_argparse_tree(argv):
    scanned = cli._scan(argv)
    if scanned is not None:
        parsed = tree_parse(argv)
        assert isinstance(parsed, dict), f"the tree exits {parsed} on an accepted argv"
        assert typed(scanned) == typed(parsed)


# One argv of each shape the benchmark workloads send
BENCHMARK_ARGV_SHAPES = (
    ("fig1",),
    ("fig2", "--entanglement", "0.935"),
    ("fig3",),
    ("verify", "--seed", "1234567"),
    *(("run", state, "0.8", policy, value, "--format", fmt)
      for state in ("--alpha", "--entanglement")
      for policy, value in (("--margin", "0.01"), ("--lambda", "0.6"))
      for fmt in ("csv", "json")),
)


@pytest.mark.parametrize("argv", BENCHMARK_ARGV_SHAPES, ids=" ".join)
def test_scanner_takes_every_benchmark_argv_shape(argv):
    scanned = cli._scan(argv)
    assert scanned is not None
    assert typed(scanned) == typed(tree_parse(argv))


@pytest.mark.parametrize("argv", [
    (), ("--help",), ("run", "-h"), ("fig2", "--help"), ("run", "--", "--alpha", "0.5"),
    ("run", "--alpha=0.5"), ("run", "--alph", "0.5"), ("fig1", "--seed", "3"),
    ("run", "--out", ""), ("verify", "--seed", "-1"), ("run", "--margin", "x"),
    ("verify", "--seed", "1.5"), ("fig3", "--format", "yaml"), ("fig1", "--format"),
    ("run", "--alpha", "0.5", "--entanglement", "0.5"),
    ("run", "--lambda", "0.6", "--margin", "0.01"),
], ids=repr)
def test_scanner_declines_what_only_argparse_may_answer(argv):
    assert cli._scan(argv) is None


# 0.00032 reaches E = 1 only at k = int(1 / step) + 1 = 3125, and 0.2337... puts a
# grid point on n = 13 within 1e-12 below the 13 -> 14 edge
@pytest.mark.parametrize("step", ["0.0005", "0.0001", "0.00037", "0.00032",
                                  "0.23371020854850043"])
def test_fig1_rows_match_the_scalar_inverse(step, capsys):
    assert cli.main(["fig1", "--grid-step", step]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [row["n"] for row in rows] == sorted((row["n"] for row in rows), key=int)
    boundary_alpha, boundary_e = protocol.boundary_alpha_for_n(14)
    rows.remove({"alpha": f"{boundary_alpha:.12g}", "e_alpha": f"{boundary_e:.12g}", "n": "14"})
    step = float(step)
    entropies = [step * k for k in range(1, int(1.0 / step) + 2) if step * k <= 1.0]
    alphas = [states.alpha_from_entanglement(entropy) for entropy in entropies]
    counts = threshold_success_count(np.array(alphas))
    assert rows == [{"alpha": f"{alpha:.12g}", "e_alpha": f"{entropy:.12g}", "n": str(n)}
                    for alpha, entropy, n in zip(alphas, entropies, counts)]


def fig1_rows_by_searchsorted(step):
    """fig1's rows with each count from np.searchsorted over the edge table
    and the boundary row placed by np.searchsorted over the entropies (test
    oracle)."""
    entropies = step * np.arange(1, int(1.0 / step) + 2)
    entropies = entropies[entropies <= 1.0]
    alphas = states._alphas_from_entanglement(entropies)
    edges = protocol._COUNT_EDGES
    counts = np.searchsorted(edges, alphas, side="right")
    rows = list(zip(alphas.tolist(), entropies.tolist(), counts.tolist()))
    boundary_alpha, boundary_e = protocol.boundary_alpha_for_n(len(edges))
    if not np.any(alphas == boundary_alpha):
        rows.insert(int(np.searchsorted(entropies, boundary_e, side="right")),
                    (boundary_alpha, boundary_e, len(edges)))
    return rows


# 0.23371020854850043 puts a grid row on n = 13 within 1e-12 below the
# 13 -> 14 edge; 0.23371020854855265 puts one exactly on the edge, so no
# boundary row is added
@pytest.mark.parametrize("step", [0.25, 1e-3, 3e-4, 1e-4, 1e-5, 0.23371020854850043,
                                  0.23371020854855265])
def test_fig1_bisect_counts_equal_searchsorted(step, capsys):
    assert cli.main(["fig1", "--grid-step", repr(step)]) == 0
    rows = fig1_rows_by_searchsorted(step)
    assert capsys.readouterr().out == "\n".join(cli._csv_lines(("alpha", "e_alpha", "n"), rows)) + "\n"
    assert sum(row[2] == 14 and row[0] == protocol._COUNT_EDGES[-1] for row in rows) == 1


# Each step's multiple round(1 / step) step is exactly 1, so the grid ends on
# the maximally entangled state, even where int(1 / step) falls one short
@pytest.mark.parametrize("step", [1e-5, 2e-5, 4e-5, 8e-5, 1.6e-4, 3.2e-4, 5e-4, 0.05])
def test_fig1_ends_at_maximal_entanglement(step, capsys):
    assert step * round(1 / step) == 1.0
    assert cli.main(["fig1", "--grid-step", repr(step)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "0.707106781187,1,14"


def test_verify_reports_pass(tmp_path, capsys):
    out = tmp_path / "verify.csv"
    assert cli.main(["verify", "--out", str(out)]) == 0
    rows = read_csv(str(out))
    assert list(rows[0]) == ["check", "passed", "deviation", "tolerance", "detail"]
    assert all(r["passed"] == "true" for r in rows)
    assert len(rows) >= 12


def test_verify_fails_nonzero(monkeypatch, capsys):
    failing = verify.CheckResult("forced", False, 1.0, 0.0, "forced failure")
    monkeypatch.setattr(verify, "run_all", lambda seed: [failing])
    assert cli.main(["verify"]) == 1
    captured = capsys.readouterr()
    assert "forced" in captured.out


def test_stdout_default(capsys):
    assert cli.main(["run", "--alpha", "0.5", "--lambda", "0.9"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("i,lambda_i,q_i,")


# Each usage error and the exact last line it writes to stderr
USAGE_ERRORS = {
    ("fig2",):  # missing state
        "mdiew: error: one of --alpha or --entanglement is required",
    ("fig2", "--alpha", "0.9"):  # alpha out of range
        "mdiew: error: alpha must lie in (0, 1/sqrt(2)]; got 0.9",
    ("fig2", "--alpha", "0.5", "--entanglement", "0.5"):  # mutually exclusive
        "mdiew fig2: error: argument --entanglement: not allowed with argument --alpha",
    ("fig2", "--entanglement", "1.5"):  # entanglement range
        "mdiew: error: entanglement must lie in (0, 1]; got 1.5",
    ("run", "--alpha", "0.5", "--lambda", "1.5"):  # sharpness range
        "mdiew: error: common sharpness must lie in (0, 1]; got 1.5",
    ("run", "--alpha", "0.5", "--lambda", "0.5", "--margin", "0.1"):
        "mdiew run: error: argument --margin: not allowed with argument --lambda",
    ("run", "--alpha", "0.5", "--margin", "-1"):
        "mdiew: error: margin must be non-negative and finite; got -1.0",
    ("fig1", "--grid-step", "0"):
        "mdiew: error: --grid-step must lie in [1e-06, 0.25]; got 0.0",
    ("fig3", "--grid-step", "9e-7"):  # a finer grid would run for minutes or exhaust memory
        "mdiew: error: --grid-step must lie in [1e-06, 0.25]; got 9e-07",
    ("fig1", "--format", "yaml"):
        "mdiew fig1: error: argument --format: invalid choice: 'yaml' (choose from 'csv', 'json')",
    ("bogus",):
        "mdiew: error: argument command: invalid choice: 'bogus' "
        "(choose from 'fig1', 'fig2', 'fig3', 'run', 'verify')",
    ("run", "--alpha", "0.5", "--seed", "3"):  # --seed is verify's only
        "mdiew: error: unrecognized arguments: --seed 3",
    ("fig1", "--seed", "3"):
        "mdiew: error: unrecognized arguments: --seed 3",
    ("run", "--alpha", "0.5", "--grid-step", "0.1"):  # --grid-step is the figures' only
        "mdiew: error: unrecognized arguments: --grid-step 0.1",
    ("verify", "--grid-step", "0.1"):
        "mdiew: error: unrecognized arguments: --grid-step 0.1",
    ("run", "--entanglement", "1e-30", "--margin", "nan"):  # NaN margin
        "mdiew: error: margin must be non-negative and finite; got nan",
    ("run", "--entanglement", "0.9", "--margin", "inf", "--format", "json"):  # infinite margin
        "mdiew: error: margin must be non-negative and finite; got inf",
    ("verify", "--seed", "-1"):  # negative seed
        "mdiew: error: --seed must be a non-negative integer; got -1",
    # the library's own range checks, reached through a well-formed line
    ("run", "--alpha", "0.5", "--lambda", "0"):
        "mdiew: error: common sharpness must lie in (0, 1]; got 0.0",
    ("run", "--alpha", "0.5", "--lambda", "nan"):
        "mdiew: error: common sharpness must lie in (0, 1]; got nan",
    ("fig2", "--entanglement", "0"):
        "mdiew: error: entanglement must lie in (0, 1]; got 0.0",
    ("fig2", "--entanglement", "nan"):
        "mdiew: error: entanglement must lie in (0, 1]; got nan",
}


@pytest.mark.parametrize("args", [list(args) for args in USAGE_ERRORS])
def test_usage_errors_exit_two(args, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(args)
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == USAGE_ERRORS[tuple(args)]


def test_tiny_entanglement_runs(tmp_path):
    out = tmp_path / "trace.json"
    assert cli.main(["run", "--entanglement", "1e-300", "--format", "json",
                     "--out", str(out)]) == 0
    alpha = json.loads(out.read_text())["params"]["alpha"]
    assert alpha == float(mpmath.nstr(mp_alpha_from_entanglement(1e-300), 12))


def test_fig1_small_entanglement_row_matches_mpmath(capsys):
    assert cli.main(["fig1"]) == 0
    rows = csv.DictReader(capsys.readouterr().out.splitlines())
    row = next(r for r in rows if r["e_alpha"] == "0.0005")
    assert row["alpha"] == mpmath.nstr(mp_alpha_from_entanglement(0.0005), 12)


# Commands that need no arrays, the exit code each gives, and whether argparse
# is loaded after it: only help and usage errors build the argparse tree, and
# the well-formed calls come first.
NUMPY_FREE_CALLS = (
    (("run", "--entanglement", "0.8", "--margin", "0.01"), 0, False),
    (("run", "--alpha", "0.5", "--lambda", "0.6", "--format", "json"), 0, False),
    (("fig3", "--grid-step", "0.25"), 0, False),
    (("fig3", "--grid-step", "0.25", "--format", "json"), 0, False),
    (("fig2", "--entanglement", "0.935"), 0, False),
    (("fig2", "--entanglement", "0.935", "--format", "json"), 0, False),
    (("--help",), 0, True),
    (("run", "--entanglement", "2"), 2, True),
)

# In a fresh interpreter: the imported scipy, numpy, argparse and json modules
# after `import mdiew.cli` (the probe imports json only after that), then the
# exit code, the numpy modules and whether argparse is loaded after each call.
# Every entry also says whether dataclasses and inspect are loaded.
_IMPORT_PROBE = """
import sys
def loaded(package):
    return sorted(m for m in sys.modules if m.split(".")[0] == package)
def dataclass_machinery():
    return [name in sys.modules for name in ("dataclasses", "inspect")]
import mdiew.cli
report = [loaded("scipy"), loaded("numpy"), loaded("argparse"), loaded("json"),
          dataclass_machinery()]
import contextlib, io, json
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = mdiew.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    report.append([code, loaded("numpy"), "argparse" in sys.modules, dataclass_machinery()])
print(json.dumps(report))
"""

def _fresh_env():
    """Environment for a fresh interpreter that imports this checkout's mdiew."""
    env = dict(os.environ)
    src = str(pathlib.Path(mdiew.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_import_does_not_load_scipy():
    # fresh interpreters, so modules imported by other tests do not count
    env = _fresh_env()
    argvs = json.dumps([argv for argv, _, _ in NUMPY_FREE_CALLS])
    result = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, argvs], env=env,
                            capture_output=True, text=True, timeout=120, check=True)
    scipy_modules, numpy_modules, argparse_modules, json_modules, machinery, *calls = (
        json.loads(result.stdout))
    assert scipy_modules == []
    assert numpy_modules == []
    assert argparse_modules == []
    assert json_modules == []
    assert machinery == [False, False]  # neither dataclasses nor inspect
    assert calls == [[code, [], argparse, [False, False]] for _, code, argparse in NUMPY_FREE_CALLS]
    # the figure that does load numpy, from a process that starts without it
    args = ("fig1",)
    result = subprocess.run([sys.executable, "-m", "mdiew.cli", *args], env=env,
                            capture_output=True, timeout=120, check=True)
    assert hashlib.sha256(result.stdout).hexdigest() == GOLDEN_FIGURE_SHA256[args]


def test_count_edge_table_loads_no_numpy():
    # the edges are a literal table, read in a fresh interpreter
    probe = ("import sys; from mdiew import protocol; "
             "print(repr(protocol.boundary_alpha_for_n(14)[0]), 'numpy' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", probe], env=_fresh_env(),
                            capture_output=True, text=True, timeout=120, check=True)
    assert result.stdout.split() == ["0.5923410886765756", "False"]


# Every public top-level name of the package, per module.  Growing this set
# is a reviewed edit: a name earns its place when the CLI, `verify` or a
# paper result needs it.
PUBLIC_SURFACE = {
    "__init__": set(),
    "cli": {"FIG1_DEFAULT_STEP", "FIG2_DEFAULT_STEP", "FIG3_DEFAULT_STEP", "SCHEMA_VERSION",
            "cmd_fig1", "cmd_fig2", "cmd_fig3", "cmd_run", "cmd_verify", "main"},
    "linalg": {"DensityOperator", "HERMITICITY_ATOL", "PAULI", "PSD_ATOL", "TRACE_ATOL",
               "check_density_matrices", "negativity", "partial_transpose"},
    "measurement": {"averaged_channel", "bell_projector"},
    "protocol": {"BobRecord", "FEASIBILITY_TOL", "FIG3_E_MIN", "LAMBDA_WINDOW", "POLICY_EQUAL",
                 "POLICY_THRESHOLD", "ProtocolTrace", "boundary_alpha_for_n",
                 "delta_negativity", "delta_negativity_at_threshold", "equal_sharpness_curve",
                 "f_of_lambda", "n_max_over_lambda", "negativity_walpha",
                 "run_equal_sharpness", "run_threshold_protocol", "threshold_from_negativity"},
    "states": {"ALPHA_MAX", "BLOCH_AXIS", "alpha_from_entanglement", "entanglement_entropy",
               "input_ensemble", "werner_alpha", "werner_strength"},
    "verify": {"CHANNEL_TOL", "CheckResult", "DEFAULT_SEED", "DELTA_IDENTITY_TOL", "FIG3_SLACK",
               "NEGATIVITY_TOL", "SEPARABLE_BOUND", "WITNESS_GRID_TOL", "WITNESS_OPERATOR_TOL",
               "check_channel_closure_maximal", "check_channel_statistics",
               "check_decay_spot_values", "check_decomposition_roundtrip",
               "check_delta_negativity_identity", "check_delta_negativity_monotone",
               "check_equal_sharpness_maxima", "check_negativity_grid", "check_range_shape",
               "check_separable_nonnegativity", "check_sharp_survival",
               "check_threshold_boundary", "check_threshold_protocol_count",
               "check_witness_grid", "check_witness_sharp_corner", "run_all"},
    "witness": {"DETECTION_THRESHOLD", "WitnessCoefficients",
                "decompose_witness", "input_products", "mdi_ew_closed_form_unsharp",
                "mdi_ew_numeric", "reduced_witness_operators", "threshold_lambda",
                "werner_beta"},
}


def _public_names(source):
    """Top-level def, class and assigned names of a module's source without a leading underscore."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(leaf.id for target in targets for leaf in ast.walk(target)
                         if isinstance(leaf, ast.Name))
    return {name for name in names if not name.startswith("_")}


def test_public_surface_is_pinned():
    package = pathlib.Path(mdiew.__file__).parent
    surface = {path.stem: _public_names(path.read_text()) for path in package.glob("*.py")}
    assert surface == PUBLIC_SURFACE


# The private names of other modules that the CLI and `verify` use, per
# module: the table builders of fig1 and fig3, and the protocol internals that
# verify's rows check.  Pinned by equality, so a name a module no longer uses
# leaves its set too.  The oracle kernels are public, so none of them belongs here.
PRIVATE_REACH = {
    "cli": {"protocol._count_table", "protocol._range_table"},
    "verify": {"protocol._COUNT_EDGES", "protocol._UNREACHED_THRESHOLD", "protocol._range_table"},
}


def _private_reach(source):
    """`module._name` for every private name of another package module that `source` uses."""
    tree = ast.parse(source)
    modules, reached = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                modules.update(alias.asname or alias.name for alias in node.names)
            else:
                reached.update(f"{node.module}.{alias.name}" for alias in node.names
                               if alias.name.startswith("_"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            reached.add(f"{node.value.id}.{node.attr}")
    return reached


def test_private_reach_names_only_the_allowed_internals():
    assert _private_reach("from . import witness\nwitness._payoffs(m)\n") == {"witness._payoffs"}
    assert _private_reach("from .linalg import _kron\n") == {"linalg._kron"}
    package = pathlib.Path(mdiew.__file__).parent
    for name, reach in PRIVATE_REACH.items():
        assert _private_reach((package / f"{name}.py").read_text()) == reach


def test_unwritable_path_is_usage_error(tmp_path):
    target = tmp_path / "missing" / "out.csv"
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["run", "--alpha", "0.5", "--lambda", "0.9", "--out", str(target)])
    assert excinfo.value.code == 2


def test_floats_use_twelve_significant_digits(tmp_path):
    out = tmp_path / "trace.csv"
    assert cli.main(["run", "--alpha", repr(ALPHA_MAX), "--out", str(out)]) == 0
    row = read_csv(str(out))[1]
    # 0.9670861794813578 rounded to 12 significant digits
    assert row["q_i"] == "0.967086179481"
