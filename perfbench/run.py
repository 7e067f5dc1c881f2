"""Benchmark entry point for ``redwords``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from its
``src`` directory.  With ``--trace 0`` it prints the end-to-end metrics of
an untraced run, timed in seconds at reference speed (see ``speed.py``);
the info line also has the main times as measured.  With ``--trace 1`` it
runs the same inputs untraced and then traced, without speed probes, and
prints the per-layer metrics.  The last line of standard
output is the result object; the line before it records the machine, the
commit and the inputs.  Exits 2 without a result when the package source is
missing or the arguments are malformed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import speed
import tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = tracer.PACKAGE
SETUP_REPEATS = 11


def import_package() -> SimpleNamespace:
    """Import the package afresh, dropping any copy already loaded."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(PACKAGE)
    return SimpleNamespace(
        **{m: importlib.import_module(f"{PACKAGE}.{m}") for m in tracer.LAYERS}
    )


def setup(workload: str, seed: int, seconds: int):
    """Import plus input generation, repeated; returns each repeat's
    ``perf_counter`` interval and the last repeat's modules and inputs."""
    make_inputs = WORKLOADS[workload][0]
    import_package()  # compile and cache bytecode outside the timed repeats
    spans = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        rw = import_package()
        state, record = make_inputs(seed, seconds)
        spans.append((t0, time.perf_counter()))
    return spans, rw, state, record


def as_measured(t0: float, t1: float) -> float:
    return t1 - t0


class Times:
    """A run's times in seconds under one clock: ``as_measured`` or a
    sampler's ``reference_s``."""

    def __init__(self, tally, setup_spans, clock):
        self.wall_s = clock(tally.start, tally.end)
        self.job_s = [clock(t0, t1) for t0, t1 in tally.jobs]
        self.setup_s = statistics.median(clock(t0, t1) for t0, t1 in setup_spans)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(tally, times: Times) -> dict:
    return {
        "wall_s": metric(times.wall_s, "s"),
        "setup_s": metric(times.setup_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_share": metric((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        "elements_per_s": metric(tally.elements / times.wall_s, "1/s"),
        "jobs_per_s": metric(len(times.job_s) / times.wall_s, "1/s"),
        "job_p50_ms": metric(1000 * statistics.median(times.job_s), "ms"),
    }


def per_layer(trace: tracer.Tracer, untraced_wall: float) -> tuple[dict, bool]:
    """Per-layer metrics and whether the self times add up to the wall."""
    root = trace.root
    own = tracer.self_times(root)
    calls = tracer.layer_calls(root)
    counters = trace.counters
    out = {}
    for layer in tracer.LAYERS:
        out[f"{layer}.calls"] = metric(calls.get(layer, 0), "count")
        out[f"{layer}.self_s"] = metric(own.get(layer, 0.0), "s")
    out["bench.self_s"] = metric(own[tracer.ROOT_LAYER], "s")
    built = {
        "perms.permutations_built": ("perms", "Permutation.__new__"),
        "words.words_built": ("words", "Word.__new__"),
        "diagrams.fillings_built": ("diagrams", "Filling.__init__"),
        "graphs.bfs_runs": ("graphs", "_bfs"),
    }
    for name, (layer, fn) in built.items():
        out[name] = metric(tracer.calls_of(root, layer, fn), "count")
    for name in ("graphs.bfs_visits", "graphs.move_attempts", "graphs.vertices",
                 "graphs.edges", "bijection.descent_steps"):
        out[name] = metric(counters[name], "count")
    attempts = counters["graphs.move_attempts"]
    out["graphs.move_yield"] = metric(
        counters["graphs.move_nontrivial"] / attempts if attempts else 0.0, "ratio"
    )
    out["trace.wall_s"] = metric(root.total, "s")
    out["trace.overhead_ratio"] = metric(root.total / untraced_wall, "ratio")
    out["trace.spans"] = metric(sum(n.calls for n in root.walk()) - 1, "count")
    balanced = math.isclose(sum(own.values()), root.total, rel_tol=1e-9, abs_tol=1e-9)
    return out, balanced


def hottest(root: tracer.Span, limit: int = 12) -> list[dict]:
    """The (layer, name) pairs with the most self time, summed over paths."""
    acc: dict = {}
    for node in root.walk():
        key = f"{node.layer}.{node.name}"
        self_s = node.total - sum(c.total for c in node.children.values())
        calls, total = acc.get(key, (0, 0.0))
        acc[key] = (calls + node.calls, total + self_s)
    ranked = sorted(acc.items(), key=lambda kv: -kv[1][1])[:limit]
    return [{"span": k, "calls": c, "self_s": round(s, 6)} for k, (c, s) in ranked]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"run.py: no package source at {SRC / PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    load = os.getloadavg()
    run = WORKLOADS[args.workload][1]
    sampler = speed.Sampler()
    with sampler if not args.trace else contextlib.nullcontext():
        setup_spans, rw, state, record = setup(args.workload, args.seed, args.seconds)
        gc.collect()  # start every run from the same heap, free of set-up garbage
        tally = run(state, rw)
    measured = Times(tally, setup_spans, as_measured)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "loadavg_start": load,
        "inputs": record,
        "jobs": len(tally.jobs),
        "measured": {
            "wall_s": measured.wall_s,
            "setup_s": measured.setup_s,
            "job_p50_ms": 1000 * statistics.median(measured.job_s),
        },
    }
    correct = tally.failed == 0
    attempted, failed = tally.attempted, tally.failed
    if args.trace:
        with tracer.Tracer() as trace:
            traced = run(state, rw)
        metrics, balanced = per_layer(trace, measured.wall_s)
        info["self_time_balanced"] = balanced
        info["hottest_spans"] = hottest(trace.root)
        correct = correct and traced.failed == 0 and balanced
        attempted += traced.attempted
        failed += traced.failed
    else:
        times = Times(tally, setup_spans, sampler.reference_s)
        metrics = end_to_end(tally, times)
        info["speed"] = sampler.summary()
        if len(times.job_s) >= 1000:
            info["job_p99_ms"] = 1000 * percentile(times.job_s, 0.99)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
