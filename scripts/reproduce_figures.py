#!/usr/bin/env python3
"""Regenerate the three headline data files plus protocol traces.

Writes CSVs into --outdir (default out/) through the same code paths as the
`mdiew` command, so the files are byte-reproducible.

Usage:
  python scripts/reproduce_figures.py [--outdir out] [--fast]
"""

import argparse
import sys
from pathlib import Path

from mdiew import cli
from mdiew.states import ALPHA_MAX


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out")
    parser.add_argument("--fast", action="store_true",
                        help="coarser grids, a few seconds total")
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    fig1_step = "0.005" if args.fast else "0.0005"
    fig3_step = "0.05" if args.fast else "0.01"

    jobs = [
        ("fig1.csv", ["fig1", "--grid-step", fig1_step]),
        ("fig2_e1.csv", ["fig2", "--entanglement", "1.0"]),
        ("fig2_e0935.csv", ["fig2", "--entanglement", "0.935"]),
        ("fig3.csv", ["fig3", "--grid-step", fig3_step]),
        ("trace_threshold.csv", ["run", "--alpha", repr(ALPHA_MAX)]),
        ("trace_sharp.csv", ["run", "--alpha", repr(ALPHA_MAX), "--lambda", "1.0"]),
        ("verify.csv", ["verify"]),
    ]
    status = 0
    for name, argv in jobs:
        target = outdir / name
        code = cli.main(argv + ["--out", str(target)])
        print(f"{name}: exit {code}")
        status = max(status, code)
    return status


if __name__ == "__main__":
    sys.exit(main())
