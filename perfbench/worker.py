"""Benchmark child process: one client running a workload in a closed loop.

Usage: python3 perfbench/worker.py '{"workload": ..., "seed": ..., "seconds": ..., "trace": ...}'

`mdiew` must be importable (run.py puts `src/` on PYTHONPATH).  The worker
runs operations back to back until the time is up, then prints one JSON
summary on stdout: one phase, or an untraced and a traced phase when
`trace` is set, and the probe times (see `probe_seconds`), taken at the
start, at most every PROBE_EVERY_S between operations, and at the end.
Every CLI call goes through `mdiew.cli.main` with its output captured in
memory; the timer covers the call only, and the output is checked after.

The figures workload forks a fresh child for every pass from this process,
which has imported `mdiew.cli` but run nothing, so every pass starts with
the cold in-process caches a CLI user gets.  One child runs at a time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import time
import traceback

import numpy as np

import workloads
from tracer import Tracer, self_times


PROBE_EVERY_S = 0.25
_PROBE_RNG = np.random.default_rng(0)
_PROBE_SMALL = _PROBE_RNG.standard_normal((4, 4)) + 1j * _PROBE_RNG.standard_normal((4, 4))
_PROBE_MID = _PROBE_RNG.standard_normal((16, 16)) + 1j * _PROBE_RNG.standard_normal((16, 16))


def probe_seconds() -> float:
    """Time of fixed work in three parts: small NumPy products and eigensolves,
    a plain-Python float loop, and building and formatting small rows.

    A shared host's speed can swing by 1.5-2x from second to second, and the
    probe slows down with the program, so run.py divides each operation's
    time by the probe times measured around it.  The probe never calls the program, so
    changes to the program leave it alone.  About 20 ms on a quiet host.
    """
    start = time.perf_counter()
    for _ in range(170):
        np.trace(np.kron(_PROBE_SMALL, _PROBE_SMALL) @ _PROBE_MID)
        np.linalg.eigvalsh(_PROBE_SMALL + _PROBE_SMALL.conj().T)
    total = 0.0
    for i in range(45000):
        total += math.sqrt(i * 0.5) / (1.0 + i)
    for _ in range(80):
        rows = [{"i": k, "q": k / 7.0, "ok": k % 3 == 0} for k in range(40)]
        text = "\n".join(",".join(f"{v:.12g}" if isinstance(v, float) else str(v)
                                  for v in row.values()) for row in rows)
        text.split("\n")
    return time.perf_counter() - start


def _cache_counts(protocol) -> tuple[int, int]:
    """(hits, misses) of protocol's superlevel memo cache, zeros once it is gone."""
    info = getattr(getattr(protocol, "_superlevel_runs", None), "cache_info", None)
    if info is None:
        return 0, 0
    stats = info()
    return stats.hits, stats.misses


class Phase:
    """Measurements of one phase, summed over its operations; wall_s is per-op wall time."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.op_s: list[float] = []
        self.op_probe: list[int] = []
        self.label_s: dict[str, list[float]] = {}
        self.attempted = 0
        self.failures: list[dict] = []
        self.hashes: dict[str, list[str]] = {}
        self.rows = 0
        self.bytes = 0
        self.spans: dict[str, list[float]] = {}  # name -> [calls, self_s, total_s]
        self.root_s = 0.0
        self.cache = [0, 0]
        self.span_post_s = 0.0
        self.ops = 0
        self.wall_s = 0.0

    def add(self, op: dict, probe: int) -> None:
        self.ops += 1
        if op["label_s"]:
            self.op_s.append(sum(op["label_s"].values()))
            self.op_probe.append(probe)
        for label, seconds in op["label_s"].items():
            self.label_s.setdefault(label, []).append(seconds)
        self.attempted += op["attempted"]
        self.failures += op["failures"]
        for argv, digest in op["hashes"].items():
            seen = self.hashes.setdefault(argv, [])
            if digest not in seen:
                seen.append(digest)
        self.rows += op["rows"]
        self.bytes += op["bytes"]
        for name, stats in op["spans"].items():
            total = self.spans.setdefault(name, [0, 0.0, 0.0])
            for k, value in enumerate(stats):
                total[k] += value
        self.root_s += op["root_s"]
        self.cache[0] += op["cache"][0]
        self.cache[1] += op["cache"][1]
        self.span_post_s += op["span_post_s"]


def _empty_op() -> dict:
    return {"label_s": {}, "attempted": 0, "failures": [], "hashes": {}, "rows": 0,
            "bytes": 0, "spans": {}, "root_s": 0.0, "cache": [0, 0], "span_post_s": 0.0}


def run_op(calls, cli, protocol, tracer: Tracer | None) -> dict:
    """Run one operation's calls, time each, check each, aggregate spans."""
    op = _empty_op()
    hits, misses = _cache_counts(protocol)
    outputs = []
    for call in calls:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            start = time.perf_counter()
            try:
                code = cli.main(list(call.argv))
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
            except Exception as exc:  # a crash is a failed operation, not a crashed run
                code = f"raised {exc!r}"
            elapsed = time.perf_counter() - start
        op["label_s"][call.label] = op["label_s"].get(call.label, 0.0) + elapsed
        outputs.append((call, code, buffer.getvalue()))
    now_hits, now_misses = _cache_counts(protocol)
    op["cache"] = [now_hits - hits, now_misses - misses]
    if tracer is not None:
        post_start = time.perf_counter()
        spans = tracer.drain()
        for (name, parent, start, end), own in zip(spans, self_times(spans)):
            total = op["spans"].setdefault(name, [0, 0.0, 0.0])
            total[0] += 1
            total[1] += own
            total[2] += end - start
            if parent < 0:
                op["root_s"] += end - start
        op["span_post_s"] = time.perf_counter() - post_start
    for call, code, text in outputs:
        op["attempted"] += 1
        reason = workloads.check(call, code, text) if isinstance(code, int) else str(code)
        if reason is not None:
            op["failures"].append({"argv": list(call.argv), "reason": reason})
        if call.argv[0].startswith("fig"):
            op["hashes"][" ".join(call.argv)] = hashlib.sha256(text.encode()).hexdigest()
        op["rows"] += workloads.output_rows(text) if reason is None else 0
        op["bytes"] += len(text.encode())
    return op


def run_forked(calls, cli, protocol, tracer: Tracer | None) -> dict:
    """run_op in a forked child, so that no state carries over between passes."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(json.dumps(run_op(calls, cli, protocol, tracer)).encode())
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        op = _empty_op()
        op["attempted"] = len(calls)
        op["failures"] = [{"argv": list(call.argv), "reason": f"pass child exited with status {status}"}
                          for call in calls]
        return op
    return json.loads(data)


def main() -> int:
    config = json.loads(sys.argv[1])
    # One CPU for the probe, the operations and the forked figures passes, so
    # the probe gauges the CPU the operations run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    from mdiew import cli, linalg, protocol

    execute = run_forked if config["workload"] == "figures" else run_op
    ops = workloads.operations(config["workload"], config["seed"])
    traced_classes = tuple(cls for cls in (linalg.DensityOperator,
                                           getattr(protocol, "BobRecord", None))
                           if isinstance(cls, type) and "__init__" in vars(cls))
    tracer = Tracer("mdiew", traced_classes) if config["trace"] else None
    # A traced run alternates untraced and traced operations, so that a drift
    # in the host's speed hits both halves of the overhead ratio alike.
    phases = [Phase(False)] + ([Phase(True)] if tracer else [])
    probes = [probe_seconds()]
    last_probe = time.perf_counter()
    deadline = last_probe + config["seconds"]
    count = 0
    while count < len(phases) or time.perf_counter() < deadline:
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            probes.append(probe_seconds())
            last_probe = time.perf_counter()
        phase = phases[count % len(phases)]
        with tracer if phase.traced else contextlib.nullcontext():
            start = time.perf_counter()
            op = execute(next(ops), cli, protocol, tracer if phase.traced else None)
            phase.wall_s += time.perf_counter() - start
        phase.add(op, len(probes) - 1)
        count += 1
    probes.append(probe_seconds())
    sys.stdout.write(json.dumps({"phases": [vars(phase) for phase in phases],
                                 "probe_s": probes}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
