"""The four workloads of the hybridmm benchmark.

A workload is a list of points.  Each point has a ``run`` that calls only
into hybridmm (this is what the benchmark times) and a ``check`` that judges
the result outside the timed region.  The first pass of a run checks every
result against the oracles in ``oracles.py``; later passes check the
program's own verdicts and that each result equals the first pass's.

Point sizes are chosen so that one pass takes a few seconds on a 2-core
machine: a run then holds enough passes for a steady median while 22 runs of
every workload still fit the benchmark's time budget.  NOTES.md records the
larger sizes that were left out and why.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import oracles

MODULUS = (1 << 31) - 1


@dataclass
class Checks:
    """Checks attempted and failed in one run, with the failure messages."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def expect(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Point:
    """One timed unit of a workload.

    ``check(result, checks, first)`` judges ``result`` and returns a digest
    that every later pass must reproduce; ``first`` is true on the warm-up
    pass, where the oracles run.  ``facts`` collects what the check learns
    about the point (I/O over bound, bound regime).
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any, Checks, bool], Any]
    facts: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# exact: plan execution over Z/pZ
# ---------------------------------------------------------------------------

# (point, scheme, n, n0, stack depth or None for a single pair)
EXACT_POINTS = (
    ("strassen-n512-n0_256", "strassen", 512, 256, None),  # 7 kernel calls of 256^3
    ("strassen-n512-n0_16", "strassen", 512, 16, None),  # 16,807 leaves: per-node cost
    ("winograd-n512-n0_32", "winograd", 512, 32, None),  # 2,401 leaves, large combines
    ("strassen-batch64-n32-n0_1", "strassen", 32, 1, 64),  # one walk over 64 pairs
)


def _exact_point(hm, name, plan, a, b, seed):
    def run():
        return hm.engine.execute_stacked(plan, a, b, MODULUS)[0]

    def check(c, checks, first):
        if first:
            rng = random.Random(f"{seed}:{name}")
            checks.expect(oracles.freivalds(a, b, c, MODULUS, rng),
                          f"{name}: product fails Freivalds' check")
        return hashlib.sha256(np.ascontiguousarray(c).tobytes()).hexdigest()

    return Point(name, run, check)


def setup_exact(hm, seed):
    rng = np.random.default_rng(seed)
    points = []
    for name, scheme, n, n0, stack in EXACT_POINTS:
        plan = hm.plans.uniform_plan(n, n0, hm.plans.SCHEMES[scheme])
        shape = (n, n) if stack is None else (stack, n, n)
        a = rng.integers(0, MODULUS, size=shape, dtype=np.int64)
        b = rng.integers(0, MODULUS, size=shape, dtype=np.int64)
        points.append(_exact_point(hm, name, plan, a, b, seed))
    return points


# ---------------------------------------------------------------------------
# sched-*: schedule generation, simulation, parsimony and the bound
# ---------------------------------------------------------------------------

@dataclass
class SchedResult:
    moves: list
    stats: Any  # IoStats, or the ScheduleError that simulate raised
    violations: int
    bound: Any  # BoundReport


def _sched_point(hm, name, scheme, n, n0, m, b, replay_seed=None):
    """Generate, simulate, check parsimony and evaluate the bound for one
    (plan, M, B).  With ``replay_seed`` the first pass also replays the
    schedule on seeded operands against a triple loop."""
    plan = hm.plans.uniform_plan(n, n0, hm.plans.SCHEMES[scheme])
    cfg = hm.pebble.MachineConfig(m, b)
    schedule_error = hm.pebble.ScheduleError

    def run():
        sched = hm.schedules.gen_hybrid_schedule(plan, cfg)
        try:
            stats = hm.pebble.simulate(sched, cfg)
        except schedule_error as exc:
            stats = exc
        violations = -1
        if not isinstance(stats, Exception):
            violations = len(hm.pebble.check_parsimonious(sched).violations)
        return SchedResult(sched.moves, stats, violations,
                           hm.bounds.sequential_bound(plan, n, m, b))

    def check(res, checks, first):
        checks.expect(not isinstance(res.stats, Exception), f"{name}: {res.stats}")
        if isinstance(res.stats, Exception):
            return repr(res.stats)
        stats, bound = res.stats, res.bound.sequential_bound
        checks.expect(res.violations == 0, f"{name}: {res.violations} parsimony violations")
        checks.expect(stats.io_total >= bound, f"{name}: io {stats.io_total} below bound {bound}")
        if first:
            checks.expect(oracles.tag_counts(res.moves) ==
                          (stats.reads, stats.writes, stats.computes),
                          f"{name}: I/O counts differ from a recount of the moves")
            checks.expect(oracles.bound_report_ok(res.bound, plan, n, m, b, n0),
                          f"{name}: MSP counts or bound differ from the recount")
            if replay_seed is not None:
                rng = random.Random(f"{replay_seed}:{name}")
                a = [[rng.randrange(MODULUS) for _ in range(n)] for _ in range(n)]
                bb = [[rng.randrange(MODULUS) for _ in range(n)] for _ in range(n)]
                checks.expect(oracles.replay_matches_product(res.moves, n, m, a, bb, MODULUS),
                              f"{name}: value replay differs from the triple-loop product")
            terms = oracles.bound_terms(n, m, b, res.bound.nu2, res.bound.t_total)
            point.facts.update(io_over_bound=stats.io_total / float(bound),
                               regime=oracles.regime(terms), moves=len(res.moves),
                               io_total=stats.io_total, bound=float(bound))
        return (stats, res.violations, len(res.moves), str(bound))

    point = Point(name, run, check)
    return point


def _bound_point(hm, name, scheme, n, n0, m):
    """Bound evaluation alone, for a plan too large to schedule here."""
    plan = hm.plans.uniform_plan(n, n0, hm.plans.SCHEMES[scheme])

    def run():
        return hm.bounds.sequential_bound(plan, n, m, 1)

    def check(rep, checks, first):
        if first:
            checks.expect(oracles.bound_report_ok(rep, plan, n, m, 1, n0),
                          f"{name}: MSP counts or bound differ from the recount")
            terms = oracles.bound_terms(n, m, 1, rep.nu2, rep.t_total)
            point.facts.update(regime=oracles.regime(terms), msps=rep.nu1 + rep.nu2,
                               bound=float(rep.sequential_bound))
        return (rep.nu1, rep.nu2, rep.t_total, str(rep.sequential_bound))

    point = Point(name, run, check)
    return point


def setup_sched_spill(hm, seed):
    return [
        _sched_point(hm, "strassen-n32-n0_4-M3-B1", "strassen", 32, 4, 3, 1),
        _sched_point(hm, "strassen-n16-n0_1-M3-B4", "strassen", 16, 1, 3, 4, replay_seed=seed),
        _bound_point(hm, "strassen-n256-n0_1-M3", "strassen", 256, 1, 3),
    ]


def setup_sched_fused(hm, seed):
    return [
        _sched_point(hm, "strassen-n32-n0_4-M48-B1", "strassen", 32, 4, 48, 1, replay_seed=seed),
        _sched_point(hm, "winograd-n32-n0_2-M48-B1", "winograd", 32, 2, 48, 1),
    ]


# ---------------------------------------------------------------------------
# verify: CDAG construction and dominator max-flows
# ---------------------------------------------------------------------------

def setup_verify(hm, seed):
    plans, cdag = hm.plans, hm.cdag
    iterative = plans.StandardVariant.ITERATIVE_DEF
    blocked = plans.StandardVariant.BLOCK_RECURSIVE
    # the plan set of acceptance criterion 7
    small = [plans.uniform_plan(2, 1), plans.uniform_plan(4, 1), plans.uniform_plan(4, 2),
             plans.uniform_plan(4, 4), plans.uniform_plan(8, 2), plans.uniform_plan(8, 8),
             plans.random_plan(8, 0.5, seed=1)]
    large = plans.uniform_plan(16, 2)
    tiny = [plans.StandardLeaf(iterative, 2), plans.StandardLeaf(blocked, 2),
            plans.StandardLeaf(iterative, 1)]
    base = plans.uniform_plan(2, 1)
    schemes = list(plans.SCHEMES.values())

    def small_point(i, plan):
        name = f"dominators-c7set{i}-n{plan.size}-M1_4"

        def run():
            g = cdag.build_cdag(plan)
            reports = []
            for m in (1, 4):
                reports.append(cdag.verify_dominator_type2(g, m, max_samples=4, seed=seed + m))
                reports.append(cdag.verify_dominator_type1(g, m, max_samples=0, seed=seed + m))
            return reports

        return Point(name, run, check_reports(name))

    def run_large():
        g = cdag.build_cdag(large)
        return [cdag.verify_dominator_type2(g, 4, max_samples=0, seed=seed)]

    def check_reports(name):
        def check(reports, checks, first):
            for rep in reports:
                checks.expect(rep.passed and not rep.failures, f"{name}: dominator bound violated: {rep.failures[:3]}")
            return [(r.checked, r.skipped, r.min_slack) for r in reports]
        return check

    def run_encoders():
        out = []
        for scheme in schemes:
            for side in ("A", "B"):
                enc = cdag.EncoderGraph.from_scheme(scheme, side)
                out.append((scheme.id, side, cdag.verify_encoder_distinct_neighborhoods(enc),
                            cdag.verify_encoder_connectivity(enc)))
        return out

    def check_encoders(results, checks, first):
        for scheme_id, side, distinct, conn in results:
            checks.expect(distinct, f"encoders: {scheme_id}/{side} neighborhoods repeat")
            checks.expect(conn.passed and conn.checked_subsets == 127,
                          f"encoders: {scheme_id}/{side} connectivity fails")
        return [(s, side, d, c.checked_subsets, c.min_margin) for s, side, d, c in results]

    def run_exhaustive():
        rng = random.Random(seed)
        out = []
        for plan in tiny + [base]:
            g = cdag.build_cdag(plan)
            ins = g.global_inputs()
            choices = [g.global_outputs()]
            if plan is not base:
                choices += [rng.sample(range(g.num_vertices), rng.randint(1, min(4, g.num_vertices)))
                            for _ in range(5)]
            for targets in choices:
                out.append((g, targets, ins, cdag.min_dominator_size(g, targets, ins),
                            cdag.min_dominator_size_exhaustive(g, targets, ins)))
        return out

    def check_exhaustive(results, checks, first):
        for g, targets, ins, flow, brute in results:
            checks.expect(flow == brute, f"exhaustive-n2: flow {flow} != exhaustive {brute}")
            if first:
                oracle = oracles.min_dominator_bruteforce(g.num_vertices, g.edges, targets, ins)
                checks.expect(flow == oracle, f"exhaustive-n2: flow {flow} != brute force {oracle}")
        g, targets, _, flow, _ = results[-1]
        checks.expect(flow >= len(targets) / 2, "exhaustive-n2: n=2 output dominator below |Z|/2")
        return [(flow, brute) for _, _, _, flow, brute in results]

    return [small_point(i, plan) for i, plan in enumerate(small)] + [
        Point("dominator-type2-n16-n0_2-M4", run_large, check_reports("dominator-type2-n16-n0_2-M4")),
        Point("encoders-all-schemes", run_encoders, check_encoders),
        Point("exhaustive-n2", run_exhaustive, check_exhaustive),
    ]


# workload name -> set-up (hybridmm namespace, seed) -> points; BENCHMARK.json
# says why each workload is there
WORKLOADS = {
    "exact": setup_exact,
    "sched-spill": setup_sched_spill,
    "sched-fused": setup_sched_fused,
    "verify": setup_verify,
}

# the simulated points, whose I/O over bound is a per-layer metric everywhere
SCHED_POINTS = ("strassen-n32-n0_4-M3-B1", "strassen-n16-n0_1-M3-B4",
                "strassen-n32-n0_4-M48-B1", "winograd-n32-n0_2-M48-B1")


def geometric_mean(values):
    """Geometric mean; 1.0 (the empty product) for no values."""
    values = list(values)
    if not values:
        return 1.0
    return math.exp(sum(math.log(v) for v in values) / len(values))
