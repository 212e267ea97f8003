"""Run every workload timed and traced, print all metrics, save one result file.

Usage (from the repository root):

    python3 perfbench/baseline.py OUT.json [--seed N] [--seconds S]

Prints, per workload, the named end-to-end metrics (setup_s, fail_ratio,
verify_s_p50, fig1_s, fig2_s, fig3_s, figures_s_p50, traces_per_s,
trace_ms_p50, trace_ms_p99), the gated end-to-end metrics, and the
traced run's overhead and coverage.  OUT.json holds the full reports,
including provenance, figure hashes and per-operation span tables.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args(argv)
    reports = {}
    for workload in run.WORKLOADS:
        for trace in (False, True):
            report = run.measure(workload, args.seed, args.seconds, trace)
            reports[f"{workload}.{'traced' if trace else 'timed'}"] = report
            rows = dict(report["named"])
            rows.update(report["metrics"] if not trace else
                        {k: report["metrics"][k] for k in ("trace.overhead_ratio",
                                                           "trace.covered_share")})
            for name, stats in rows.items():
                print(f"{workload:8s} {'traced' if trace else 'timed':6s} "
                      f"{name:22s} {stats['value']:.6g} {stats['unit']}")
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(reports, handle, indent=1, sort_keys=True)
        handle.write("\n")
    failed = sum(report["failed"] for report in reports.values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
