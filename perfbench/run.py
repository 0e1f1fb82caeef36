"""Run one workload of the hybridmm benchmark and print its metrics.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0

It imports hybridmm from the ``src`` directory next to this one.  With
``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics.  Human-readable lines come first, then the provenance,
and the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The full record (and,
traced, every span) is also written under ``perfbench/out/``.

Exit status: 0 when every check passed, 1 when one failed, 2 when the
sources or the arguments are missing.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types
from dataclasses import dataclass
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MAX_THREADS = 2
# reference_work()'s host time on an idle 2-core x86-64 machine: setup_s is
# set-up time over reference time, reported in seconds at that speed because
# the set-up metric is declared in seconds; the constant cancels in comparisons
REFERENCE_SECONDS = 0.02


def _loaded_hybridmm():
    return {k: v for k, v in sys.modules.items() if k == "hybridmm" or k.startswith("hybridmm.")}


def import_hybridmm():
    """Import hybridmm afresh from SRC, dropping any loaded copy from
    ``sys.modules``.  Returns a namespace of the layer modules."""
    for name in _loaded_hybridmm():
        del sys.modules[name]
    pkg = importlib.import_module("hybridmm")
    if Path(pkg.__file__).resolve().parent != SRC / "hybridmm":
        raise ImportError(f"hybridmm was imported from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"hybridmm.{name}") for name in tracing.LAYERS})


def timed_setup(setup, seed, keep=False):
    """One set-up (import, plans, seeded operands) and its host time.

    Unless ``keep``, the modules loaded before it are put back afterwards,
    so the passes keep running on the modules of the first set-up.
    """
    before = _loaded_hybridmm()
    t0 = time.perf_counter()
    hm = import_hybridmm()
    points = setup(hm, seed)
    elapsed = time.perf_counter() - t0
    if not keep:
        for name in _loaded_hybridmm():
            del sys.modules[name]
        sys.modules.update(before)
    return elapsed, hm, points


def reference_work() -> float:
    """Host time of fixed work that shares no code with hybridmm: dict, list
    and integer operations like the schedule and CDAG code, and an int64
    matmul like the ring kernel.  It tracks how fast this machine is at the
    moment, for ``wall_over_ref``."""
    import numpy as np

    t0 = time.perf_counter()
    table, buf, acc = {}, [], 0
    for i in range(40_000):
        table[i & 1023] = (i, acc)
        acc = (acc + i * i) % 65521
        buf.append((i, acc))
        if len(buf) > 512:
            buf.clear()
    x = np.arange(160 * 160, dtype=np.int64).reshape(160, 160)
    (x @ x) % 65521
    return time.perf_counter() - t0


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "hybridmm").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def ratio(num, den):
    return num / den if den > 0 else 0.0


@dataclass
class Pass:
    traced: bool
    times: dict  # point -> seconds
    refs: list  # times of reference_work() before, between and after the points
    spans: tuple = None  # (lo, hi) span range of a traced pass
    counts: dict = None  # tracer counts of a traced pass

    @property
    def total(self):
        return sum(self.times.values())

    @property
    def over_ref(self):
        """Pass time in units of the reference time: each point's time over
        the mean of the reference times taken just before and after it."""
        return sum(t / (0.5 * (self.refs[i] + self.refs[i + 1]))
                   for i, t in enumerate(self.times.values()))


def run_passes(setup, seed, points, checks, seconds, tracer=None):
    """Warm-up pass judged by the oracles, then passes until ``seconds`` have
    gone by.  Each pass is preceded by one more timed set-up, so set-ups are
    sampled across the whole run, and the reference work is timed before,
    between and after its points.  With a tracer, passes alternate untraced
    and traced (at least one of each).  Returns the passes and the
    (set-up time, next reference time) pairs."""
    digests = {p.name: p.check(p.run(), checks, True) for p in points}
    passes, setups = [], []
    start = time.perf_counter()
    min_passes = 2 if tracer else 1
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        setup_s = timed_setup(setup, seed)[0]
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
            tracer.take_counts()
            lo = tracer.mark()
        times, refs = {}, [reference_work()]
        setups.append((setup_s, refs[0]))
        for p in points:
            t0 = time.perf_counter()
            result = p.run()
            times[p.name] = time.perf_counter() - t0
            refs.append(reference_work())
            digest = p.check(result, checks, False)
            checks.expect(digest == digests[p.name], f"{p.name}: result differs from the first pass")
            del result
        if traced:
            tracer.uninstall()
            passes.append(Pass(True, times, refs, (lo, tracer.mark()), tracer.take_counts()))
        else:
            passes.append(Pass(False, times, refs))
    return passes, setups


def layer_metrics(tracer, span_range, counts, wall, span_cost):
    """Per-layer metrics of one traced pass.  ``span_cost`` is the wrapper
    time per span that the wrapper does not clock itself."""
    percentile = tracing.percentile
    s = tracer.summarize(*span_range)
    busy, calls, self_fn = s["busy"], s["calls"], s["self_fn"]
    get = counts.get
    dominator_ms = [1e3 * d for d in s["durations"].get("cdag.min_dominator_size", [])]
    m = {f"{layer}.self_s": s["layer_self"][layer] for layer in tracing.LAYERS}
    m.update({
        "ringmat.matmul_mod.busy_s": busy["ringmat.matmul_mod"],
        "ringmat.matmul_mod.calls": calls["ringmat.matmul_mod"],
        "ringmat.matmul_mod.mac": get("ringmat.matmul_mod.mac", 0),
        "ringmat.matmul_mod.mac_per_s": ratio(get("ringmat.matmul_mod.mac", 0),
                                              busy["ringmat.matmul_mod"]),
        "engine.execute_stacked.busy_s": busy["engine.execute_stacked"],
        "engine.execute_stacked.self_s": self_fn["engine.execute_stacked"],
        "engine.nodes": get("engine.nodes", 0),
        "engine.self_us_per_node": ratio(1e6 * self_fn["engine.execute_stacked"],
                                         get("engine.nodes", 0)),
        "schedules.gen_hybrid_schedule.busy_s": busy["schedules.gen_hybrid_schedule"],
        "schedules.moves": get("schedules.moves", 0),
        "schedules.moves_per_s": ratio(get("schedules.moves", 0),
                                       busy["schedules.gen_hybrid_schedule"]),
        "pebble.simulate.busy_s": busy["pebble.simulate"],
        "pebble.simulate.moves_per_s": ratio(get("pebble.simulate.moves", 0),
                                             busy["pebble.simulate"]),
        "pebble.check_parsimonious.busy_s": busy["pebble.check_parsimonious"],
        "pebble.check_parsimonious.moves_per_s": ratio(get("pebble.check_parsimonious.moves", 0),
                                                       busy["pebble.check_parsimonious"]),
        "pebble.parsimony_violations": get("pebble.parsimony_violations", 0),
        "pebble.reads": get("pebble.reads", 0),
        "pebble.writes": get("pebble.writes", 0),
        "pebble.io_total": get("pebble.io_total", 0),
        "pebble.computes": get("pebble.computes", 0),
        "pebble.peak_cache": get("pebble.peak_cache", 0),
        "bounds.sequential_bound.busy_s": busy["bounds.sequential_bound"],
        "bounds.msps": get("bounds.msps", 0),
        "bounds.msps_per_s": ratio(get("bounds.msps", 0), busy["bounds.sequential_bound"]),
        "cdag.build_cdag.busy_s": busy["cdag.build_cdag"],
        "cdag.vertices": get("cdag.vertices", 0),
        "cdag.edges": get("cdag.edges", 0),
        "cdag.min_dominator_size.calls": calls["cdag.min_dominator_size"],
        "cdag.min_dominator_size.busy_s": busy["cdag.min_dominator_size"],
        "cdag.min_dominator_size.ms_per_call_p50": percentile(dominator_ms, 50),
        "cdag.min_dominator_size.ms_per_call_p90": percentile(dominator_ms, 90),
        "cdag.min_dominator_size_exhaustive.busy_s": busy["cdag.min_dominator_size_exhaustive"],
        "cdag.verify_encoder_connectivity.busy_s": busy["cdag.verify_encoder_connectivity"],
        "traced_wall_s": wall,
        "unattributed_s": wall - sum(s["layer_self"].values()),
        "trace_overhead_s": get("tracer.own_s", 0) + (span_range[1] - span_range[0]) * span_cost,
    })
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "hybridmm" / "__init__.py").is_file():
        print(f"error: no hybridmm sources under {SRC}", file=sys.stderr)
        return 2

    # cap BLAS threads before numpy loads its BLAS library
    threads = min(MAX_THREADS, os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    import numpy

    import workloads

    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    setup = workloads.WORKLOADS.get(args.workload)
    if setup is None:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    why = next(w["why"] for w in declared["workloads"] if w["name"] == args.workload)
    sys.path.insert(0, str(SRC))

    first_setup, hm, points = timed_setup(setup, args.seed, keep=True)
    first_setup = (first_setup, reference_work())
    checks = workloads.Checks()
    tracer = tracing.Tracer() if args.trace else None
    metrics = {}
    if tracer:
        # one traced set-up, for the plans layer
        tracer.install()
        lo = tracer.mark()
        points = setup(hm, args.seed)
        tracer.uninstall()
        metrics["plans.uniform_plan.busy_s"] = tracer.summarize(lo, tracer.mark())["busy"]["plans.uniform_plan"]
        tracer.take_counts()
    passes, setups = run_passes(setup, args.seed, points, checks, args.seconds, tracer)
    setups.insert(0, first_setup)

    plain = [p for p in passes if not p.traced]
    wall = statistics.median(p.total for p in plain)
    per_point = {pt.name: statistics.median(p.times[pt.name] for p in plain) for pt in points}
    sched_facts = {pt.name: pt.facts for pt in points if "io_over_bound" in pt.facts}
    io_over_bound = workloads.geometric_mean(f["io_over_bound"] for f in sched_facts.values())

    if tracer:
        span_cost = tracing.span_cost()
        per_pass = [layer_metrics(tracer, p.spans, p.counts, p.total, span_cost)
                    for p in passes if p.traced]
        for key in per_pass[0]:
            metrics[key] = statistics.median(m[key] for m in per_pass)
        metrics["wall_s"] = wall
        for name in workloads.SCHED_POINTS:
            metrics[f"pebble.io_over_bound.{name}"] = sched_facts.get(name, {}).get("io_over_bound", 0.0)
    else:
        metrics = {
            "setup_s": REFERENCE_SECONDS * statistics.median(s / r for s, r in setups),
            "wall_over_ref": statistics.median(p.over_ref for p in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "io_over_bound": io_over_bound,
        }

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "blas_threads": threads,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "machine": platform.machine(), "commit": git_commit(),
        "source_sha256": source_digest(),
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }
    failed = len(checks.failures)
    q1, q3 = quartiles([p.total for p in plain])
    print(f"workload {args.workload}: {why}")
    for pt in points:
        facts = " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                         for k, v in pt.facts.items())
        print(f"  point {pt.name}: median {per_point[pt.name]:.4f} s {facts}")
    print(f"wall_s {wall:.4f} s (median of {len(plain)} untraced passes, "
          f"quartiles {q1:.4f} .. {q3:.4f})")
    print(f"wall_over_ref {statistics.median(p.over_ref for p in plain):.4f} ratio (reference "
          f"work median {statistics.median(r for p in passes for r in p.refs):.4f} s)")
    print(f"setup_s {REFERENCE_SECONDS * statistics.median(s / r for s, r in setups):.4f} s at "
          f"reference speed (median of {len(setups)} set-ups; host time median "
          f"{statistics.median(s for s, _ in setups):.4f} s)")
    print(f"error_rate {ratio(failed, checks.attempted):.6g} ({failed} failed of "
          f"{checks.attempted} checks)")
    if tracer:
        layer_self = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
        within = abs(metrics["unattributed_s"]) <= metrics["trace_overhead_s"]
        print(f"traced pass {metrics['traced_wall_s']:.4f} s: layer self times {layer_self:.4f} s "
              f"+ unattributed {metrics['unattributed_s']:.4f} s (medians over passes), "
              f"{'within' if within else 'beyond'} the trace overhead "
              f"{metrics['trace_overhead_s']:.4f} s")
    if sched_facts:
        print(f"io_over_bound {io_over_bound:.6g} ratio (geometric mean over {len(sched_facts)} "
              f"simulated points)")
    for msg in checks.failures[:20]:
        print(f"FAILED {msg}")
    print("provenance " + json.dumps(provenance, sort_keys=True))

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"provenance": provenance, "metrics": metrics, "points": per_point,
              "facts": {pt.name: pt.facts for pt in points}, "setup_and_reference_times_s": setups,
              "pass_times_s": [p.times for p in passes], "reference_times_s": [p.refs for p in passes],
              "attempted": checks.attempted, "failures": checks.failures}
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if tracer:
        tracer.write(OUT / f"{stem}.spans.json")

    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    result = {"correct": failed == 0, "attempted": checks.attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
