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

import sys
from typing import TYPE_CHECKING, NoReturn, Sequence

from . import protocol, states

if TYPE_CHECKING:
    import argparse

SCHEMA_VERSION = "1"

FIG1_DEFAULT_STEP = 0.0005
FIG2_DEFAULT_STEP = 0.001
FIG3_DEFAULT_STEP = 0.01

_BOOL_TEXT = ("false", "true")


def _csv_field(text: str) -> str:
    """`text` as one CSV field: quoted, with its quotes doubled, when it holds
    a comma, a quote or a line break (RFC 4180)."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_lines(columns: Sequence[str], rows: list[tuple]) -> list[str]:
    """Header and rows as CSV lines: floats to 12 significant digits, bools as
    true/false, strings as CSV fields, anything else as str.

    Each column holds one type, so the first row fixes one printf-style
    template for the table; bool and string columns are spelled out column
    by column first.
    """
    lines = [",".join(columns)]
    if not rows:
        return lines
    template = ",".join("%.12g" if isinstance(v, float) else "%s" for v in rows[0])
    spellers = [(i, _BOOL_TEXT.__getitem__ if isinstance(v, bool) else _csv_field)
                for i, v in enumerate(rows[0]) if isinstance(v, (bool, str))]
    if spellers:
        cells = list(zip(*rows))
        for i, spell in spellers:
            cells[i] = map(spell, cells[i])
        rows = zip(*cells)
    lines += [template % row for row in rows]
    return lines


def _json_table(command: str, columns: Sequence[str], rows: list[tuple], params: dict) -> str:
    """json.dumps(payload, sort_keys=True, indent=2) of the table payload, each
    float first rounded to 12 significant digits, written in one pass.

    A float's %.12g text is its JSON spelling, with '.0' added when it is a
    plain integer: no other decimal of at most 12 digits rounds to the same
    double, so repr gives the same digits, and the two differ only by repr's
    '.0' and where each switches to an exponent (1e16 for repr, 1e12 for %g).
    A text with an exponent takes json's own spelling of float(text).  Strict
    JSON has no inf or nan, so a non-finite float is written as null, as if
    the payload held None there.  Ints, bools and None are written as json
    writes them, and strings go through json's encoder.
    """
    import json

    string = json.encoder.encode_basestring_ascii

    def scalar(value) -> str:
        if isinstance(value, float):
            text = "%.12g" % value
            if "n" in text:  # inf or nan
                return "null"
            if "e" in text:
                return json.dumps(float(text))
            return text if "." in text else text + ".0"
        if isinstance(value, bool):
            return _BOOL_TEXT[value]
        if isinstance(value, int):
            return int.__repr__(value)
        if isinstance(value, str):
            return string(value)
        if value is None:
            return "null"
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    def block(items: list[str], indent: str, brackets: str) -> str:
        if not items:
            return brackets
        inner = f"\n{indent}  "
        return brackets[0] + inner + f",{inner}".join(items) + f"\n{indent}{brackets[1]}"

    columns_text = block(list(map(string, columns)), "  ", "[]")
    params_text = block([f"{string(key)}: {scalar(value)}" for key, value in sorted(params.items())],
                        "  ", "{}")
    rows_text = block([block(list(map(scalar, row)), "    ", "[]") for row in rows], "  ", "[]")
    return (f'{{\n  "columns": {columns_text},\n  "command": {string(command)},\n'
            f'  "params": {params_text},\n  "rows": {rows_text},\n'
            f'  "schema_version": {string(SCHEMA_VERSION)}\n}}')


def _write_table(args: dict, columns: Sequence[str], rows: list[tuple],
                 params: dict) -> None:
    """Write the table as args["format"] to args["out"] or stdout.

    `args`, here and in every cmd_*, is the parsed command line: the dict
    `_scan` or the argparse tree returns, keyed by option dest.
    """
    if args["format"] == "json":
        text = _json_table(args["command"], columns, rows, params) + "\n"
    else:
        text = "\n".join(_csv_lines(columns, rows)) + "\n"
    if args["out"] is None:
        sys.stdout.write(text)
    else:
        with open(args["out"], "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _resolve_alpha(args: dict) -> float:
    if args["alpha"] is None and args["entanglement"] is None:
        _usage_error("one of --alpha or --entanglement is required")
    if args["alpha"] is not None:
        return args["alpha"]
    return states.alpha_from_entanglement(args["entanglement"])


def cmd_fig1(args: dict) -> int:
    step = args["grid_step"] if args["grid_step"] is not None else FIG1_DEFAULT_STEP
    _write_table(args, ("alpha", "e_alpha", "n"), protocol._count_table(step),
                 {"grid_step": step})
    return 0


def cmd_fig2(args: dict) -> int:
    alpha = _resolve_alpha(args)
    step = args["grid_step"] if args["grid_step"] is not None else FIG2_DEFAULT_STEP
    rows = protocol.equal_sharpness_curve(alpha, step)
    _write_table(args, ("lambda", "n"), rows,
                 {"alpha": alpha, "grid_step": step})
    return 0


def cmd_fig3(args: dict) -> int:
    step = args["grid_step"] if args["grid_step"] is not None else FIG3_DEFAULT_STEP
    entropies, widths = protocol._range_table(step)
    rows = [(entropy, n, width)
            for entropy, row in zip(entropies, widths) for n, width in enumerate(row, 1)]
    _write_table(args, ("e_alpha", "n", "delta_lambda_n"), rows,
                 {"e_min": protocol.FIG3_E_MIN, "grid_step": step})
    return 0


def cmd_run(args: dict) -> int:
    alpha = _resolve_alpha(args)
    if args["lam"] is not None:
        trace = protocol.run_equal_sharpness(alpha, args["lam"])
        params = {"alpha": alpha, "policy": trace.policy, "lambda": args["lam"]}
    else:
        trace = protocol.run_threshold_protocol(alpha, args["margin"])
        params = {"alpha": alpha, "policy": trace.policy, "margin": args["margin"]}
    rows = [(r.index, r.lam, r.q, r.witness_value, r.negativity, r.success)
            for r in trace.records]
    _write_table(args, ("i", "lambda_i", "q_i", "witness_value", "negativity", "success"),
                 rows, params)
    return 0


def cmd_verify(args: dict) -> int:
    from . import verify

    seed = verify.DEFAULT_SEED if args["seed"] is None else args["seed"]
    results = verify.run_all(seed)
    _write_table(args, ("check", "passed", "deviation", "tolerance", "detail"),
                 results, {"seed": seed})
    return 0 if all(r.passed for r in results) else 1


# Each command's options, in --help order, as (flag, dest, type, choices,
# default, help, mutually exclusive partner).  Both the argparse tree and the
# scanner of well-formed command lines read this table.
_ALPHA = ("--alpha", "alpha", float, None, None,
          "pure-state amplitude in (0, 1/sqrt(2)]", "--entanglement")
_ENTANGLEMENT = ("--entanglement", "entanglement", float, None, None,
                 "initial entanglement in ebits, in (0, 1]", "--alpha")
_GRID_STEP = ("--grid-step", "grid_step", float, None, None, None, None)
_FORMAT = ("--format", "format", str, ("csv", "json"), "csv", None, None)
_OUT = ("--out", "out", str, None, None, "output path (default: stdout)", None)
_LAMBDA = ("--lambda", "lam", float, None, None,
           "common sharpness (selects the equal-sharpness policy)", "--margin")
_MARGIN = ("--margin", "margin", float, None, 0.0,
           "threshold-policy sharpness margin (default 0)", "--lambda")
_SEED = ("--seed", "seed", int, None, None, None, None)

_COMMANDS = {
    "fig1": ("threshold-policy count vs entanglement", (_GRID_STEP, _FORMAT, _OUT)),
    "fig2": ("equal-sharpness count vs common sharpness",
             (_ALPHA, _ENTANGLEMENT, _GRID_STEP, _FORMAT, _OUT)),
    "fig3": ("sharpness ranges vs entanglement", (_GRID_STEP, _FORMAT, _OUT)),
    "run": ("trace one protocol run", (_ALPHA, _ENTANGLEMENT, _FORMAT, _OUT, _LAMBDA, _MARGIN)),
    "verify": ("run the oracle and property suite", (_FORMAT, _OUT, _SEED)),
}
_FLAGS = {command: {option[0]: option for option in options}
          for command, (_, options) in _COMMANDS.items()}


def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree of `_COMMANDS`, built on each call: only help, usage
    errors and command lines the scanner declines need it, so argparse is
    imported here."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="mdiew",
        description="Sequential measurement-device-independent entanglement witnessing.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        groups = {}
        for flag, dest, kind, choices, default, text, partner in options:
            if partner is None:
                container = p
            elif partner in groups:
                container = groups[partner]
            else:
                container = groups[flag] = p.add_mutually_exclusive_group()
            container.add_argument(flag, dest=dest, type=kind, choices=choices,
                                   default=default, help=text)
    return parser


def _scan(argv: Sequence[str]) -> dict | None:
    """The parsed values of a well-formed command line, or None.

    Well-formed is a known command followed by exact `--option value` pairs
    that belong to it, each value non-empty, not starting with '-', and
    passing its type and choices, with at most one option of each mutually
    exclusive pair.  On such a line argparse would return the same values; on
    any other line (help, `--`, `=` spellings, abbreviations, errors) the
    caller parses with the argparse tree, so argparse writes every help text
    and usage error.
    """
    if len(argv) % 2 == 0 or argv[0] not in _FLAGS:  # no argv, or an option without value
        return None
    flags = _FLAGS[argv[0]]
    values = {"command": argv[0]}
    for _, dest, _, _, default, _, _ in flags.values():
        values[dest] = default
    given = set()
    for flag, text in zip(argv[1::2], argv[2::2]):
        option = flags.get(flag)
        if option is None or not text or text[0] == "-":
            return None
        _, dest, kind, choices, _, _, partner = option
        try:
            value = kind(text)
        except ValueError:
            return None
        if (choices is not None and value not in choices) or partner in given:
            return None
        values[dest] = value
        given.add(flag)
    return values


def _usage_error(message: str) -> NoReturn:
    """Exit 2 with `message` under the top-level usage line, as argparse does."""
    _build_parser().error(message)


def _validate(args: dict) -> None:
    """Check --grid-step and --seed; the library's ValueErrors word every other range error."""
    step = args.get("grid_step")
    # The floor keeps a figure's grid at a few million points at most.
    if step is not None and not 1e-6 <= step <= 0.25:
        _usage_error(f"--grid-step must lie in [1e-06, 0.25]; got {step}")
    seed = args.get("seed")
    if seed is not None and seed < 0:
        _usage_error(f"--seed must be a non-negative integer; got {seed}")


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _scan(argv)
    if args is None:
        args = vars(_build_parser().parse_args(argv))
    _validate(args)
    try:
        # built per call, so a cmd_* rebound on the module (say, by a profiler) is the one run
        return {"fig1": cmd_fig1, "fig2": cmd_fig2, "fig3": cmd_fig3, "run": cmd_run,
                "verify": cmd_verify}[args["command"]](args)
    except OSError as err:
        _usage_error(f"cannot write output: {err}")
    except ValueError as err:
        _usage_error(str(err))


if __name__ == "__main__":
    sys.exit(main())
