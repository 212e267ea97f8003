"""Seeded workload inputs and the correctness check of every operation.

An operation is a list of `Call`s that the worker times as one unit: one
`verify` pass (oracle), one pass over the paper's four figure commands
(figures), or one `run` query (traces).  Inputs depend only on the workload
seed.  `check` returns None for a correct output and a one-line reason
otherwise; it parses the CLI's output and never imports the program.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Iterator

WORKLOADS = ("oracle", "figures", "traces")

VERIFY_CHECKS = 15
FIG1_MAX_N = 14
FIG1_BOUNDARY_E = 0.9349
FIG1_BOUNDARY_TOL = 5e-4
FIG2_MAX_N = {"1.0": 6, "0.935": 5}
FIG2_SHARP_N = 2
# fig3 has 51 entanglement values (0.5 to 1 in steps of 0.01), each with one
# row per count 1..6, the best equal-sharpness count at E = 1.
FIG3_ROWS = 51 * 6


@dataclass(frozen=True)
class Call:
    """One CLI invocation; `label` names the metric its time feeds."""

    label: str
    argv: tuple[str, ...]


FIGURE_CALLS = (
    Call("fig1", ("fig1",)),
    Call("fig2", ("fig2", "--entanglement", "1.0")),
    Call("fig2", ("fig2", "--entanglement", "0.935")),
    Call("fig3", ("fig3",)),
)


def operations(workload: str, seed: int) -> Iterator[list[Call]]:
    """Endless seeded stream of operations for `workload`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    while True:
        if workload == "oracle":
            yield [Call("verify", ("verify", "--seed", str(rng.randrange(2 ** 31))))]
        elif workload == "figures":
            calls = list(FIGURE_CALLS)
            rng.shuffle(calls)
            yield calls
        else:
            yield [Call("run", _trace_query(rng))]


def _trace_query(rng: random.Random) -> tuple[str, ...]:
    entanglement = 1.0 - 0.5 * rng.random()            # (0.5, 1]
    if rng.random() < 0.5:
        policy = ("--margin", repr(0.05 * rng.random()))  # [0, 0.05)
    else:
        policy = ("--lambda", repr(1.0 - 2.0 / 3.0 * rng.random()))  # (1/3, 1]
    fmt = "csv" if rng.random() < 0.5 else "json"
    return ("run", "--entanglement", repr(entanglement), *policy, "--format", fmt)


def parse_table(text: str, columns: int) -> list[list[str]]:
    """Rows of a CLI table, CSV or JSON, as strings; the last CSV column may hold commas."""
    if text.startswith("{"):
        return [[json.dumps(v) if isinstance(v, bool) else str(v) for v in row]
                for row in json.loads(text)["rows"]]
    lines = text.splitlines()
    return [line.split(",", columns - 1) for line in lines[1:]]


def check(call: Call, code: int, output: str) -> str | None:
    """None if the call's exit code and output are correct, else the reason."""
    if code != 0:
        return f"exit code {code}"
    try:
        return _CHECKS[call.argv[0]](call, output)
    except (ValueError, KeyError, IndexError) as err:
        return f"unparsable output: {err!r}"


def _check_verify(call: Call, output: str) -> str | None:
    rows = parse_table(output, 5)
    failed = [row[0] for row in rows if row[1] != "true"]
    if len(rows) != VERIFY_CHECKS or failed:
        return f"{len(rows)} checks, failed: {failed}"
    return None


def _check_fig1(call: Call, output: str) -> str | None:
    rows = [(float(e), int(n)) for _, e, n in parse_table(output, 3)]
    if rows[-1] != (1.0, FIG1_MAX_N):
        return f"last row (E, n) = {rows[-1]}, want (1.0, {FIG1_MAX_N})"
    first = next(k for k, (_, n) in enumerate(rows) if n == FIG1_MAX_N)
    boundary_e = rows[first][0]
    if rows[first - 1][1] != FIG1_MAX_N - 1 or abs(boundary_e - FIG1_BOUNDARY_E) > FIG1_BOUNDARY_TOL:
        return f"13->14 boundary at E = {boundary_e} after n = {rows[first - 1][1]}"
    return None


def _check_fig2(call: Call, output: str) -> str | None:
    rows = [(float(lam), int(n)) for lam, n in parse_table(output, 2)]
    best = max(n for _, n in rows)
    want = FIG2_MAX_N[call.argv[2]]
    if best != want:
        return f"max n = {best}, want {want}"
    if rows[-1] != (1.0, FIG2_SHARP_N):
        return f"last row (lambda, n) = {rows[-1]}, want (1.0, {FIG2_SHARP_N})"
    return None


def _check_fig3(call: Call, output: str) -> str | None:
    rows = parse_table(output, 3)
    if len(rows) != FIG3_ROWS:
        return f"{len(rows)} rows, want {FIG3_ROWS}"
    negative = [row for row in rows if float(row[2]) < 0.0]
    if negative:
        return f"negative delta_lambda_n in {negative[:3]}"
    return None


def _check_run(call: Call, output: str) -> str | None:
    rows = parse_table(output, 6)
    success = [row[5] for row in rows]
    if not rows or success[-1] != "false" or any(s != "true" for s in success[:-1]):
        return f"success column {success}"
    q = [float(row[2]) for row in rows]
    if any(later > earlier for earlier, later in zip(q, q[1:])):
        return f"q_i increases: {q}"
    return None


_CHECKS = {
    "verify": _check_verify,
    "fig1": _check_fig1,
    "fig2": _check_fig2,
    "fig3": _check_fig3,
    "run": _check_run,
}


def output_rows(output: str) -> int:
    """Number of data rows in a CLI table, CSV or JSON."""
    if output.startswith("{"):
        return len(json.loads(output)["rows"])
    return max(output.count("\n") - 1, 0)
