"""Command-line surface producing machine-readable protocol data.

Commands
--------
fig1    threshold-policy observer count vs initial entanglement
fig2    equal-sharpness observer count vs the common sharpness
fig3    sharpness-range per observer count vs initial entanglement
run     full trace of one protocol run (one row per observer)
verify  deterministic oracle and property suite

Output is CSV by default (lowercase snake_case headers, 12 significant
digits, '.' decimal separator) or JSON with a schema_version field.
Identical invocations produce byte-identical files.  Exit codes: 0 success,
1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from typing import Sequence

from . import protocol, states

SCHEMA_VERSION = "1"

FIG1_DEFAULT_STEP = 0.0005
FIG2_DEFAULT_STEP = 0.001
FIG3_DEFAULT_STEP = 0.01
FIG3_E_MIN = 0.5

_BOOL_TEXT = ("false", "true")


@dataclass(frozen=True)
class RunConfig:
    """Resolved parameters of one invocation; equal configs give equal bytes."""

    command: str
    lam: float | None = None
    margin: float | None = None
    grid_step: float | None = None
    out: str | None = None
    fmt: str = "csv"
    seed: int | None = None  # verify's --seed; None takes verify.DEFAULT_SEED


def _csv_lines(columns: Sequence[str], rows: list[tuple]) -> list[str]:
    """Header and rows as CSV lines: floats to 12 significant digits, bools as
    true/false, anything else as str.

    Each column holds one type, so the first row fixes one printf-style
    template for the table; bool columns are spelled out column by column
    first.
    """
    lines = [",".join(columns)]
    if not rows:
        return lines
    template = ",".join("%.12g" if isinstance(v, float) else "%s" for v in rows[0])
    bools = [i for i, v in enumerate(rows[0]) if isinstance(v, bool)]
    if bools:
        cells = list(zip(*rows))
        for i in bools:
            cells[i] = [_BOOL_TEXT[v] for v in cells[i]]
        rows = zip(*cells)
    lines += [template % row for row in rows]
    return lines


def _json_value(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    return value


def _write_table(config: RunConfig, columns: Sequence[str], rows: list[tuple],
                 params: dict) -> None:
    if config.fmt == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": config.command,
            "params": {k: _json_value(v) for k, v in sorted(params.items())},
            "columns": list(columns),
            "rows": [[_json_value(v) for v in row] for row in rows],
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = "\n".join(_csv_lines(columns, rows)) + "\n"
    if config.out is None:
        sys.stdout.write(text)
    else:
        with open(config.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _resolve_alpha(parser: argparse.ArgumentParser, args: argparse.Namespace) -> float:
    if args.alpha is None and args.entanglement is None:
        parser.error("one of --alpha or --entanglement is required")
    try:
        if args.alpha is not None:
            states.werner_strength(args.alpha)  # range check
            return float(args.alpha)
        return states.alpha_from_entanglement(args.entanglement)
    except ValueError as err:
        parser.error(str(err))
    raise AssertionError("unreachable")


def cmd_fig1(config: RunConfig) -> int:
    import numpy as np

    step = config.grid_step if config.grid_step is not None else FIG1_DEFAULT_STEP
    entropies = step * np.arange(1, int(1.0 / step) + 1)
    entropies = entropies[entropies <= 1.0]
    alphas = states._alphas_from_entanglement(entropies)
    edges = protocol._count_edges()
    counts = np.searchsorted(edges, alphas, side="right")
    rows = list(zip(alphas.tolist(), entropies.tolist(), counts.tolist()))
    # the exact edge of the top count, unless a grid row already sits on it
    boundary_alpha, boundary_e = protocol.boundary_alpha_for_n(len(edges))
    if not np.any(alphas == boundary_alpha):
        rows.insert(int(np.searchsorted(entropies, boundary_e, side="right")),
                    (boundary_alpha, boundary_e, len(edges)))
    _write_table(config, ("alpha", "e_alpha", "n"), rows,
                 {"grid_step": step})
    return 0


def cmd_fig2(config: RunConfig, alpha: float) -> int:
    step = config.grid_step if config.grid_step is not None else FIG2_DEFAULT_STEP
    rows = protocol.equal_sharpness_curve(alpha, step)
    _write_table(config, ("lambda", "n"), rows,
                 {"alpha": alpha, "grid_step": step})
    return 0


def cmd_fig3(config: RunConfig) -> int:
    step = config.grid_step if config.grid_step is not None else FIG3_DEFAULT_STEP
    count = int((1.0 - FIG3_E_MIN) / step + 1e-9)
    entropies = [min(FIG3_E_MIN + k * step, 1.0) for k in range(count + 1)]
    tables = []
    max_n = 0
    for entropy in entropies:
        alpha = states.alpha_from_entanglement(entropy)
        table = dict(protocol.lambda_range_table(alpha))
        tables.append((entropy, table))
        max_n = max(max_n, max(table, default=0))
    rows = []
    for entropy, table in tables:
        for n in range(1, max_n + 1):
            rows.append((entropy, n, table.get(n, 0.0)))
    _write_table(config, ("e_alpha", "n", "delta_lambda_n"), rows,
                 {"e_min": FIG3_E_MIN, "grid_step": step})
    return 0


def cmd_run(config: RunConfig, alpha: float) -> int:
    if config.lam is not None:
        trace = protocol.run_equal_sharpness(alpha, config.lam)
        params = {"alpha": alpha, "policy": trace.policy, "lambda": config.lam}
    else:
        margin = config.margin if config.margin is not None else 0.0
        trace = protocol.run_threshold_protocol(alpha, margin)
        params = {"alpha": alpha, "policy": trace.policy, "margin": margin}
    rows = [(r.index, r.lam, r.q, r.witness_value, r.negativity, r.success)
            for r in trace.records]
    _write_table(config, ("i", "lambda_i", "q_i", "witness_value", "negativity", "success"),
                 rows, params)
    return 0


def cmd_verify(config: RunConfig) -> int:
    from . import verify

    seed = verify.DEFAULT_SEED if config.seed is None else config.seed
    results = verify.run_all(seed)
    rows = [(r.name, r.passed, r.deviation, r.tolerance, r.detail) for r in results]
    _write_table(config, ("check", "passed", "deviation", "tolerance", "detail"),
                 rows, {"seed": seed})
    return 0 if all(r.passed for r in results) else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later call.

    Parsing keeps no state on the parser, so each `main` call sees a fresh
    namespace; building it costs far more than a `run` query's own work.
    """
    parser = argparse.ArgumentParser(
        prog="mdiew",
        description="Sequential measurement-device-independent entanglement witnessing.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, state: bool = False,
                   grid: bool = False) -> None:
        if state:
            group = p.add_mutually_exclusive_group()
            group.add_argument("--alpha", type=float,
                               help="pure-state amplitude in (0, 1/sqrt(2)]")
            group.add_argument("--entanglement", type=float,
                               help="initial entanglement in ebits, in (0, 1]")
        if grid:
            p.add_argument("--grid-step", type=float, dest="grid_step")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", help="output path (default: stdout)")

    p_fig1 = sub.add_parser("fig1", help="threshold-policy count vs entanglement")
    add_common(p_fig1, grid=True)

    p_fig2 = sub.add_parser("fig2", help="equal-sharpness count vs common sharpness")
    add_common(p_fig2, state=True, grid=True)

    p_fig3 = sub.add_parser("fig3", help="sharpness ranges vs entanglement")
    add_common(p_fig3, grid=True)

    p_run = sub.add_parser("run", help="trace one protocol run")
    add_common(p_run, state=True)
    policy = p_run.add_mutually_exclusive_group()
    policy.add_argument("--lambda", type=float, dest="lam",
                        help="common sharpness (selects the equal-sharpness policy)")
    policy.add_argument("--margin", type=float,
                        help="threshold-policy sharpness margin (default 0)")

    p_verify = sub.add_parser("verify", help="run the oracle and property suite")
    add_common(p_verify)
    p_verify.add_argument("--seed", type=int)

    return parser


def _validate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    step = getattr(args, "grid_step", None)
    if step is not None and not 0.0 < step <= 0.25:
        parser.error(f"--grid-step must lie in (0, 0.25]; got {step}")
    lam = getattr(args, "lam", None)
    if lam is not None and not 0.0 < lam <= 1.0:
        parser.error(f"--lambda must lie in (0, 1]; got {lam}")
    margin = getattr(args, "margin", None)
    if margin is not None and not 0.0 <= margin < math.inf:
        parser.error(f"--margin must be non-negative and finite; got {margin}")
    entanglement = getattr(args, "entanglement", None)
    if entanglement is not None and not 0.0 < entanglement <= 1.0:
        parser.error(f"--entanglement must lie in (0, 1]; got {entanglement}")
    seed = getattr(args, "seed", None)
    if seed is not None and seed < 0:
        parser.error(f"--seed must be a non-negative integer; got {seed}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    config = RunConfig(
        command=args.command,
        lam=getattr(args, "lam", None),
        margin=getattr(args, "margin", None),
        grid_step=getattr(args, "grid_step", None),
        out=args.out,
        fmt=args.format,
        seed=getattr(args, "seed", None),
    )
    try:
        if args.command == "fig1":
            return cmd_fig1(config)
        if args.command == "fig2":
            return cmd_fig2(config, _resolve_alpha(parser, args))
        if args.command == "fig3":
            return cmd_fig3(config)
        if args.command == "run":
            return cmd_run(config, _resolve_alpha(parser, args))
        if args.command == "verify":
            return cmd_verify(config)
    except OSError as err:
        parser.error(f"cannot write output: {err}")
    except ValueError as err:
        parser.error(str(err))
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
