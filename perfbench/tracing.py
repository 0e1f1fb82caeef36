"""Runtime tracing of hybridmm's public functions, installed from outside.

``Tracer.install`` replaces every public function of the seven layer modules
with a wrapper that records a span (function, start, end, parent span).  It
patches the name everywhere a loaded hybridmm module binds it, so calls made
through re-bound names (``hybridmm.engine.matmul_mod``, ``hybridmm.cdag``'s own
``min_dominator_size``) are seen too.  ``uninstall`` restores the originals.
Spans stay in memory until ``write``; nothing inside the program changes.

Counts that the per-layer metrics need (moves, I/O, MSPs, vertices, MACs) are
taken from the arguments and results at the same boundaries.  The tracer's own
cost is the time each wrapper spends outside its span, clocked in place (it
includes the counters), plus per span the rest of the wrapper's cost, measured
on a no-op function (``span_cost``).
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time

LAYERS = ("ringmat", "engine", "plans", "schedules", "pebble", "bounds", "cdag")


def _tree_nodes(plan, memo):
    """Nodes the engine visits for ``plan``: shared subtrees count every time."""
    key = id(plan)
    if key not in memo:
        children = getattr(plan, "children", ())
        memo[key] = 1 + sum(_tree_nodes(c, memo) for c in children)
    return memo[key]


def _count_matmul(counts, args, result):
    a, b = args[0], args[1]
    counts["ringmat.matmul_mod.mac"] += a.size * b.shape[-1]


def _count_execute(counts, args, result):
    counts["engine.nodes"] += _tree_nodes(args[0], {})


def _count_gen(counts, args, result):
    counts["schedules.moves"] += len(result.moves)


def _count_simulate(counts, args, result):
    counts["pebble.simulate.moves"] += len(args[0].moves)
    for field in ("reads", "writes", "io_total", "computes"):
        counts[f"pebble.{field}"] += getattr(result, field)
    counts["pebble.peak_cache"] = max(counts["pebble.peak_cache"], result.peak_cache)


def _count_parsimony(counts, args, result):
    counts["pebble.check_parsimonious.moves"] += len(args[0].moves)
    counts["pebble.parsimony_violations"] += len(result.violations)


def _count_bound(counts, args, result):
    counts["bounds.msps"] += result.nu1 + result.nu2


def _count_cdag(counts, args, result):
    counts["cdag.vertices"] += result.num_vertices
    counts["cdag.edges"] += len(result.edges)


COUNTERS = {
    "ringmat.matmul_mod": _count_matmul,
    "engine.execute_stacked": _count_execute,
    "schedules.gen_hybrid_schedule": _count_gen,
    "pebble.simulate": _count_simulate,
    "pebble.check_parsimonious": _count_parsimony,
    "bounds.sequential_bound": _count_bound,
    "cdag.build_cdag": _count_cdag,
}


class Counts(dict):
    def __missing__(self, key):
        return 0


class Tracer:
    """Span recorder for one benchmark process.

    Spans are tuples ``(function_id, start, end, parent_index)``; the
    function ids index ``self.names``.  ``mark()`` returns the current span
    count so callers can cut the span list into passes.
    """

    def __init__(self):
        self.names = []
        self.spans = []
        self.counts = Counts()
        self._stack = []
        self._wrappers = {}
        self._saved = []

    def _wrap(self, qualname, fn):
        fid = len(self.names)
        self.names.append(qualname)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(qualname)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entry = clock()
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (fid, start, end, parent)
            if counter is not None:
                counter(counts, args, result)
            counts["tracer.own_s"] += clock() - end + start - entry
            return result

        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "hybridmm" or modname.startswith("hybridmm.")):
                continue
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.split(".")
                if len(home) != 2 or home[0] != "hybridmm" or home[1] not in LAYERS:
                    continue
                wrapper = self._wrappers.get(obj)
                if wrapper is None:
                    wrapper = self._wrappers[obj] = self._wrap(f"{home[1]}.{obj.__name__}", obj)
                self._saved.append((mod, name, obj))
                setattr(mod, name, wrapper)

    def uninstall(self):
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved.clear()

    def mark(self) -> int:
        return len(self.spans)

    def take_counts(self) -> dict:
        out = dict(self.counts)
        self.counts.clear()
        return out

    def summarize(self, lo: int, hi: int) -> dict:
        """Busy time and call count per function, and self time per layer,
        over spans ``lo:hi`` (one pass)."""
        spans = self.spans
        child_time = [0.0] * (hi - lo)
        for i in range(lo, hi):
            fid, start, end, parent = spans[i]
            if parent >= lo:
                child_time[parent - lo] += end - start
        busy, calls, self_fn, durations = Counts(), Counts(), Counts(), {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for i in range(lo, hi):
            fid, start, end, parent = spans[i]
            name = self.names[fid]
            dur = end - start
            own = dur - child_time[i - lo]
            calls[name] += 1
            self_fn[name] += own
            layer_self[name.split(".")[0]] += own
            durations.setdefault(name, []).append(dur)
            # a function's busy time counts its outermost spans only
            if not self._inside_same(i, fid, lo):
                busy[name] += dur
        return {"busy": busy, "calls": calls, "self_fn": self_fn,
                "layer_self": layer_self, "durations": durations}

    def _inside_same(self, i, fid, lo):
        parent = self.spans[i][3]
        while parent >= lo:
            pfid, _, _, parent = self.spans[parent]
            if pfid == fid:
                return True
        return False

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "fields": ["function", "start_s", "end_s", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def span_cost(calls: int = 20_000) -> float:
    """Host time a wrapper adds to one call beyond what it clocks as its own:
    a no-op function timed wrapped and bare, median over five rounds of
    ``calls`` calls."""
    probe = Tracer()

    def noop():
        return None

    wrapped = probe._wrap("probe.noop", noop)
    clock = time.perf_counter
    rounds = []
    for _ in range(5):
        probe.spans.clear()
        probe.counts.clear()
        t0 = clock()
        for _ in range(calls):
            noop()
        t1 = clock()
        for _ in range(calls):
            wrapped()
        added = clock() - t1 - (t1 - t0) - probe.counts["tracer.own_s"]
        rounds.append(added / calls)
    return max(0.0, statistics.median(rounds))


def percentile(values, q: int):
    """q-th percentile (1..99) by statistics.quantiles; a lone value is its own."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
