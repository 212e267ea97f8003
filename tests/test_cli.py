import csv
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import mpmath
import numpy as np
import pytest

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
}


# sha256 of other tables on stdout: the JSON writer, and CSV rows with int and
# bool columns.  Taken before the CSV writer switched to one format template
# per table, which kept every byte.
GOLDEN_TABLE_SHA256 = {
    ("run", "--entanglement", "0.8", "--margin", "0.01"):
        "2afc8045bccce4d23e79c4991afff1a77b776df9a4ef1fa63808aa5b7fdb0e8f",
    ("run", "--entanglement", "0.8", "--margin", "0.01", "--format", "json"):
        "35e5542bf8fe5d73e3a2bc09fe90bdd188a485256e0b326ed8aea463be42b346",
    ("run", "--alpha", "0.5", "--lambda", "0.6"):
        "894e35f47890c955da9b961c5cc79826e701aeb012049e94b70de46a5aa9c645",
    ("fig1", "--format", "json"):
        "f90ab44c505bc8df2a9ef1a7496d5dc21740beb83ad01cdc257f251ae10339ad",
}


@pytest.mark.parametrize("args", list(GOLDEN_FIGURE_SHA256), ids=" ".join)
def test_figure_stdout_matches_golden_hash(args, capsys):
    assert cli.main(list(args)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_FIGURE_SHA256[args]


@pytest.mark.parametrize("args", list(GOLDEN_TABLE_SHA256), ids=" ".join)
def test_table_stdout_matches_golden_hash(args, capsys):
    assert cli.main(list(args)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_TABLE_SHA256[args]


def test_shared_parser_keeps_no_per_call_state(capsys):
    # a usage error and an equal-sharpness run on the one parser leave no
    # --lambda behind for the threshold run that follows
    assert cli._build_parser() is cli._build_parser()
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["run", "--entanglement", "2"])
    assert excinfo.value.code == 2
    assert cli.main(["run", "--lambda", "0.6", "--alpha", "0.5"]) == 0
    capsys.readouterr()
    args = ("run", "--entanglement", "0.8", "--margin", "0.01")
    assert cli.main(list(args)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_TABLE_SHA256[args]


# 0.2337... puts a grid point on n = 13 within 1e-12 below the 13 -> 14 edge
@pytest.mark.parametrize("step", ["0.0005", "0.0001", "0.00037", "0.23371020854850043"])
def test_fig1_rows_match_the_scalar_inverse(step, capsys):
    assert cli.main(["fig1", "--grid-step", step]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [row["n"] for row in rows] == sorted((row["n"] for row in rows), key=int)
    boundary_alpha, boundary_e = protocol.boundary_alpha_for_n(14)
    rows.remove({"alpha": f"{boundary_alpha:.12g}", "e_alpha": f"{boundary_e:.12g}", "n": "14"})
    step = float(step)
    entropies = [step * k for k in range(1, int(1.0 / step) + 1) if step * k <= 1.0]
    alphas = [states.alpha_from_entanglement(entropy) for entropy in entropies]
    counts = threshold_success_count(np.array(alphas))
    assert rows == [{"alpha": f"{alpha:.12g}", "e_alpha": f"{entropy:.12g}", "n": str(n)}
                    for alpha, entropy, n in zip(alphas, entropies, counts)]


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


@pytest.mark.parametrize("args", [
    ["fig2"],                                            # missing state
    ["fig2", "--alpha", "0.9"],                          # alpha out of range
    ["fig2", "--alpha", "0.5", "--entanglement", "0.5"],  # mutually exclusive
    ["fig2", "--entanglement", "1.5"],                   # entanglement range
    ["run", "--alpha", "0.5", "--lambda", "1.5"],        # sharpness range
    ["run", "--alpha", "0.5", "--lambda", "0.5", "--margin", "0.1"],
    ["run", "--alpha", "0.5", "--margin", "-1"],
    ["fig1", "--grid-step", "0"],
    ["fig1", "--format", "yaml"],
    ["bogus"],
    ["run", "--alpha", "0.5", "--seed", "3"],            # --seed is verify's only
    ["fig1", "--seed", "3"],
    ["run", "--alpha", "0.5", "--grid-step", "0.1"],     # --grid-step is the figures' only
    ["verify", "--grid-step", "0.1"],
    ["run", "--entanglement", "1e-30", "--margin", "nan"],  # NaN margin
    ["run", "--entanglement", "0.9", "--margin", "inf", "--format", "json"],  # infinite margin
    ["verify", "--seed", "-1"],                          # negative seed
])
def test_usage_errors_exit_two(args, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(args)
    assert excinfo.value.code == 2
    if "--seed" in args:
        assert "--seed" in capsys.readouterr().err


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


# Commands that need no arrays, and the exit code each gives
NUMPY_FREE_CALLS = (
    (("run", "--entanglement", "0.8", "--margin", "0.01"), 0),
    (("run", "--alpha", "0.5", "--lambda", "0.6", "--format", "json"), 0),
    (("fig3", "--grid-step", "0.25"), 0),
    (("--help",), 0),
    (("run", "--entanglement", "2"), 2),
)

# In a fresh interpreter: the imported scipy and numpy modules after
# `import mdiew.cli`, then the exit code and the numpy modules after each call.
_IMPORT_PROBE = """
import contextlib, io, json, sys
def loaded(package):
    return sorted(m for m in sys.modules if m.split(".")[0] == package)
import mdiew.cli
report = [loaded("scipy"), loaded("numpy")]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = mdiew.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    report.append([code, loaded("numpy")])
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
    argvs = json.dumps([argv for argv, _ in NUMPY_FREE_CALLS])
    result = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, argvs], env=env,
                            capture_output=True, text=True, timeout=120, check=True)
    scipy_modules, numpy_modules, *calls = json.loads(result.stdout)
    assert scipy_modules == []
    assert numpy_modules == []
    assert calls == [[code, []] for _, code in NUMPY_FREE_CALLS]
    # the figures that do load numpy, each from a process that starts without it
    for args in [("fig1",), ("fig2", "--entanglement", "0.935")]:
        result = subprocess.run([sys.executable, "-m", "mdiew.cli", *args], env=env,
                                capture_output=True, timeout=120, check=True)
        assert hashlib.sha256(result.stdout).hexdigest() == GOLDEN_FIGURE_SHA256[args]


def test_count_edge_table_loads_no_numpy():
    # the table is built from the runner's scalar rule, in a fresh interpreter
    probe = ("import sys; from mdiew import protocol; "
             "print(repr(protocol.boundary_alpha_for_n(14)[0]), 'numpy' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", probe], env=_fresh_env(),
                            capture_output=True, text=True, timeout=120, check=True)
    assert result.stdout.split() == ["0.5923410886765756", "False"]


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
