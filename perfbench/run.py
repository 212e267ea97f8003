"""Benchmark of the mdiew CLI: one seeded workload, timed or traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload {oracle,figures,traces} --seed N \
        --seconds S --trace {0,1}

The program runs from `src/` (PYTHONPATH=src); nothing is installed or
built.  `--trace 0` times set-up (cold `import mdiew.cli` in fresh
interpreters) and then runs the workload for S seconds in one child
interpreter, untraced.  `--trace 1` measures per-layer numbers instead:
import times from `-X importtime`, then S seconds alternating untraced
operations with traced ones, in which every public `mdiew` function is
wrapped in a span; their ratio is the tracing overhead.  Every operation's output is checked; a failed
check is counted and reported, never fatal.

Human-readable lines come first; the last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.  The metric names and
units are the ones `BENCHMARK.json` declares: its `end_to_end` list for
`--trace 0`, its `per_layer` list for `--trace 1`.  Exit code 0 on a
completed run, 1 when no result could be produced (program or spec missing,
worker crashed or timed out).
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("oracle", "figures", "traces")
# Cold imports are timed before and after the workload, this many each time,
# so that their median spans the run instead of one moment of a noisy host.
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
RUN_LIMIT_S = 150.0  # worker deadline; the cold imports after it still fit in 180 s
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10
SPAN_STATS = ("calls", "self_s", "total_s")
# Nominal duration of worker.probe_seconds on a quiet host; op_ms_norm is an
# operation's time rescaled to the host speed at which the probe takes this.
REFERENCE_PROBE_S = 0.020
# Small matrices only: BLAS threads would add scheduling noise and no speed.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _run(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run a child in its own process group; on timeout kill the whole group."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchmarkError(f"{argv[1:3]} timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"{argv[1:3]} exited with {proc.returncode}: {err.strip()[-2000:]}")
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


IMPORT_ARGV = [sys.executable, "-c", "import mdiew.cli"]


def setup_seconds(warm_up: bool) -> list[float]:
    """Wall times of fresh interpreters importing mdiew.cli."""
    if warm_up:
        _run(IMPORT_ARGV, 60)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        _run(IMPORT_ARGV, 60)
        times.append(time.perf_counter() - start)
    return times


def import_breakdown() -> dict[str, float]:
    """Median self import time of numpy, scipy and mdiew modules, from -X importtime."""
    _run(IMPORT_ARGV, 60)
    samples: dict[str, list[float]] = {"numpy": [], "scipy": [], "mdiew": []}
    argv = [sys.executable, "-X", "importtime", "-c", "import mdiew.cli"]
    for _ in range(IMPORTTIME_REPEATS):
        totals = dict.fromkeys(samples, 0.0)
        for line in _run(argv, 60).stderr.splitlines():
            match = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)", line)
            if match:
                package = match.group(2).split(".")[0]
                if package in totals:
                    totals[package] += int(match.group(1)) * 1e-6
        for package, total in totals.items():
            samples[package].append(total)
    return {package: statistics.median(values) for package, values in samples.items()}


def tail(samples: list[float]) -> tuple[str, float] | None:
    """Highest percentile with at least ten samples beyond it, by nearest rank."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= TAIL_MIN_BEYOND:
            return f"p{p:g}".replace(".", "_"), ordered[rank - 1]
    return None


def timing(median_name: str, stem: str, samples: list[float], scale: float, unit: str) -> dict:
    """Named median and tail percentile (when there are enough samples), with the count."""
    out = {median_name: {"value": statistics.median(samples) * scale, "unit": unit, "n": len(samples)}}
    high = tail(samples)
    if high is not None:
        out[f"{stem}_{high[0]}"] = {"value": high[1] * scale, "unit": unit, "n": len(samples)}
    return out


def provenance(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """What ran, on which code, library versions and machine."""
    commit = dirty = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
            dirty = bool(subprocess.run(["git", "-C", ROOT, "status", "--porcelain", "--", "src"],
                                        capture_output=True, text=True, timeout=30,
                                        check=True).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            commit = dirty = None
    source = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        source.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as handle:
            source.update(handle.read())
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "git_dirty_src": dirty,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "argv": sys.argv,
    }


def run_worker(workload: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    config = json.dumps({"workload": workload, "seed": seed, "seconds": seconds, "trace": trace})
    timeout = max(deadline - time.perf_counter(), 1.0)
    result = _run([sys.executable, os.path.join(HERE, "worker.py"), config], timeout)
    return json.loads(result.stdout.splitlines()[-1])


def end_to_end(workload: str, phase: dict, probes: list[float], setup: list[float]) -> tuple[dict, dict]:
    """The gated metrics and the workload's named timings from an untraced phase."""
    op_s = phase["op_s"]
    # Each operation is bracketed by the last probe before it and the next after it.
    normalized = [seconds * REFERENCE_PROBE_S / ((probes[j] + probes[j + 1]) / 2)
                  for seconds, j in zip(op_s, phase["op_probe"])]
    metrics = {
        "setup_s": statistics.median(setup),
        "op_ms_norm": statistics.median(normalized) * 1e3,
    }
    named = timing("setup_s", "setup_s", setup, 1.0, "s")
    named["op_ms_norm"] = {"value": metrics["op_ms_norm"], "unit": "ms", "n": len(normalized)}
    named.update(timing("probe_ms_p50", "probe_ms", probes, 1e3, "ms"))
    if workload == "oracle":
        named.update(timing("verify_s_p50", "verify_s", op_s, 1.0, "s"))
    elif workload == "figures":
        for label in ("fig1", "fig2", "fig3"):
            named.update(timing(f"{label}_s", f"{label}_s", phase["label_s"][label], 1.0, "s"))
        named.update(timing("figures_s_p50", "figures_s", op_s, 1.0, "s"))
    else:
        named["traces_per_s"] = {"value": len(op_s) / sum(op_s), "unit": "1/s", "n": len(op_s)}
        named.update(timing("trace_ms_p50", "trace_ms", op_s, 1e3, "ms"))
    return metrics, named


def per_layer(names: list[str], plain: dict, traced: dict, imports: dict) -> dict:
    """Per-operation layer numbers of the traced phase, by BENCHMARK.json name."""
    ops = traced["ops"]
    hits, misses = traced["cache"]
    special = {
        "protocol.records": traced["spans"].get("protocol.BobRecord", [0, 0.0])[0] / ops,
        "protocol.superlevel_cache.hits": hits / ops,
        "protocol.superlevel_cache.misses": misses / ops,
        "protocol.superlevel_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cli.rows_written": traced["rows"] / ops,
        "cli.bytes_written": traced["bytes"] / ops,
        "setup.import.numpy_s": imports["numpy"],
        "setup.import.scipy_s": imports["scipy"],
        "setup.import.mdiew_self_s": imports["mdiew"],
        "trace.overhead_ratio": (traced["wall_s"] / ops) / (plain["wall_s"] / plain["ops"]),
        "trace.covered_share": traced["root_s"] / (traced["wall_s"] - traced["span_post_s"]),
    }
    values = {}
    for name in names:
        if name in special:
            values[name] = special[name]
            continue
        span, _, stat = name.rpartition(".")
        if stat not in SPAN_STATS:
            raise BenchmarkError(f"no rule for per-layer metric {name!r}")
        values[name] = traced["spans"].get(span, [0, 0.0, 0.0])[SPAN_STATS.index(stat)] / ops
    return values


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One benchmark run; returns the full report (see the module docstring)."""
    start = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "mdiew", "cli.py")):
        raise BenchmarkError(f"program source not found under {SRC}")
    with open(SPEC, encoding="utf-8") as handle:
        spec = json.load(handle)
    report = {"provenance": provenance(workload, seed, seconds, trace)}
    deadline = start + RUN_LIMIT_S
    if trace:
        imports = import_breakdown()
        plain, traced = run_worker(workload, seed, seconds, True, deadline)["phases"]
        declared = spec["per_layer"]
        values = per_layer([m["name"] for m in declared], plain, traced, imports)
        report["spans_per_op"] = {name: dict(zip(SPAN_STATS, (v / traced["ops"] for v in stats)))
                                  for name, stats in sorted(traced["spans"].items())}
        phases = [plain, traced]
    else:
        setup = setup_seconds(warm_up=True)
        result = run_worker(workload, seed, seconds, False, deadline)
        setup += setup_seconds(warm_up=False)
        (plain,) = result["phases"]
        declared = spec["end_to_end"]
        values, report["named"] = end_to_end(workload, plain, result["probe_s"], setup)
        phases = [plain]
    report["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    report["attempted"] = sum(p["attempted"] for p in phases)
    report["failures"] = [f for p in phases for f in p["failures"]]
    report["failed"] = len(report["failures"])
    report.setdefault("named", {})["fail_ratio"] = {
        "value": report["failed"] / report["attempted"], "unit": "ratio",
        "failed": report["failed"], "attempted": report["attempted"]}
    report["figure_sha256"] = {k: v for p in phases for k, v in p["hashes"].items()}
    return report


def _print_report(report: dict) -> None:
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    for name, stats in report["named"].items():
        base = " ".join(f"{k}={v}" for k, v in stats.items() if k not in ("value", "unit"))
        print(f"metric {name} = {stats['value']:.6g} {stats['unit']} ({base})")
    for failure in report["failures"][:20]:
        print(f"failed {' '.join(failure['argv'])}: {failure['reason']}")
    for argv, digests in sorted(report["figure_sha256"].items()):
        print(f"sha256 {argv}: {' '.join(digests)}")
    spans = report.get("spans_per_op", {})
    for name, stats in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"])[:15]:
        print(f"span {name}: " + " ".join(f"{k}/op={v:.6g}" for k, v in stats.items()))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, OSError, ValueError) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    _print_report(report)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
