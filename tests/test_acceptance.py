"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the suite re-derives every expected value either from frozen exact
arithmetic or from an independent recount, never from the module under test.
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from hybridmm.bounds import (sequential_bound, uniform_closed_form,
                             uniform_inner_term)
from hybridmm.cdag import (EncoderGraph, build_cdag,
                           connectivity_requirement, min_dominator_size,
                           min_dominator_size_exhaustive,
                           verify_dominator_type1, verify_dominator_type2,
                           verify_encoder_connectivity,
                           verify_encoder_distinct_neighborhoods)
from hybridmm.cli import main as cli_main
from hybridmm.engine import execute, execute_stacked
from hybridmm.pebble import MachineConfig, check_parsimonious, simulate
from hybridmm.plans import (STRASSEN, StandardLeaf, StandardVariant,
                            random_plan, serialize_plan, uniform_plan)
from hybridmm.ringmat import DEFAULT_MODULUS, Matrix, matmul_pyint
from hybridmm.schedules import gen_hybrid_schedule, gen_standard_blocked_schedule

IT = StandardVariant.ITERATIVE_DEF
BR = StandardVariant.BLOCK_RECURSIVE


def report(criterion, name, ok):
    print(f"ACCEPTANCE {criterion} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} ({name}) failed"


def _pow2_range(n):
    v = 1
    while v <= n:
        yield v
        v *= 2


def test_criterion_1_functional_correctness():
    """execute() equals the definition-based oracle exactly, over the whole
    plan family, 100 random pairs each, in under 60 seconds."""
    t0 = time.time()
    rng = np.random.default_rng(20260809)
    pairs = 100
    bad = []
    for n in (2, 4, 8, 16, 32):
        plans = [StandardLeaf(IT, n), StandardLeaf(BR, n)]
        plans.extend(uniform_plan(n, n0) for n0 in _pow2_range(n))
        plans.extend(random_plan(n, 0.5, seed=s) for s in range(20))
        a = rng.integers(0, DEFAULT_MODULUS, size=(pairs, n, n), dtype=np.int64)
        b = rng.integers(0, DEFAULT_MODULUS, size=(pairs, n, n), dtype=np.int64)
        want = matmul_pyint(a, b, DEFAULT_MODULUS)
        for plan in plans:
            got, _ = execute_stacked(plan, a, b)
            if not np.array_equal(got, want):
                bad.append((n, serialize_plan(plan)[:40]))
            # pin the single-pair surface against the stacked core
            c, _ = execute(plan, Matrix(a[0]), Matrix(b[0]))
            if not np.array_equal(c.data, want[0]):
                bad.append((n, "execute() surface"))
    elapsed = time.time() - t0
    print(f"  [criterion 1 ran {elapsed:.1f}s]")
    report(1, "functional-correctness", not bad and elapsed < 60)


def _recount_msps(plan, m):
    """Independent oracle: direct recursion over the tree."""
    if plan.size * plan.size <= 4 * m:
        return (0, 0, 0)

    def rec(node):
        if isinstance(node, StandardLeaf):
            if node.size * node.size >= 4 * m:
                return (1, 0, node.size ** 3)
            return (0, 0, 0)
        if (node.size // 2) ** 2 < 4 * m:
            return (0, 1, 0)
        totals = [rec(c) for c in node.children]
        return tuple(sum(t[i] for t in totals) for i in range(3))

    return rec(plan)


def test_criterion_2_bound_spot_checks():
    """Frozen exact values, re-derived by an independent tree walk and the
    7^i closed forms; everything must match to the digit."""
    ok = True

    plan = uniform_plan(16, 8)
    rep = sequential_bound(plan, 16, 4, 1)
    oracle = _recount_msps(plan, 4)
    ok &= oracle == (7, 0, 3584)
    ok &= 7 ** 1 == oracle[0]  # 7^(log2(16/8))
    ok &= (rep.nu1, rep.nu2, rep.t_total) == oracle
    ok &= uniform_inner_term(16, 8, 4) == Fraction(224)
    ok &= uniform_closed_form(16, 8, 4, 1) == Fraction(512)

    plan2 = uniform_plan(16, 2)
    rep2 = sequential_bound(plan2, 16, 4, 1)
    oracle2 = _recount_msps(plan2, 4)
    ok &= oracle2 == (0, 49, 0)
    ok &= 7 ** 2 == oracle2[1]  # 7^(log2(16/(2*sqrt(4))))
    ok &= (rep2.nu1, rep2.nu2, rep2.t_total) == oracle2
    ok &= rep2.term_nu2 == Fraction(196)
    ok &= rep2.sequential_bound == Fraction(512)

    # n <= 2 sqrt(M): the bound degenerates to the input term
    for b in (1, 4):
        rep3 = sequential_bound(uniform_plan(4, 1), 4, 4, b)
        ok &= _recount_msps(uniform_plan(4, 1), 4) == (0, 0, 0)
        ok &= rep3.sequential_bound == Fraction(2 * 16, b)

    report(2, "bound-spot-checks", ok)


def test_criterion_3_schedule_legality_and_bound_sanity():
    """Every generated schedule across the sweep simulates cleanly, is
    parsimonious, and never beats the lower bound.  Under 5 minutes."""
    t0 = time.time()
    violations = []
    for n in (8, 16, 32, 64):
        plans = [("blocked", uniform_plan(n, n))]
        for n0 in (1, 4, n):
            if n0 <= n:
                plans.append((f"uniform(n0={n0})", uniform_plan(n, n0)))
        for m in (3, 12, 48, 192):
            for b in (1, 4):
                cfg = MachineConfig(m, b)
                for name, plan in plans:
                    if name == "blocked":
                        sched = gen_standard_blocked_schedule(n, cfg)
                    else:
                        sched = gen_hybrid_schedule(plan, cfg)
                    try:
                        stats = simulate(sched, cfg)
                    except Exception as exc:  # any simulation error is a failure
                        violations.append((n, m, b, name, f"simulate: {exc}"))
                        continue
                    if not check_parsimonious(sched).ok:
                        violations.append((n, m, b, name, "not parsimonious"))
                    bound = float(sequential_bound(plan, n, m, b).sequential_bound)
                    if stats.io_total * b < bound * b:
                        violations.append((n, m, b, name,
                                           f"io {stats.io_total} < bound {bound}"))
    elapsed = time.time() - t0
    print(f"  [criterion 3 ran {elapsed:.1f}s, zero violations required]")
    if violations:
        print("  violations:", violations[:5])
    report(3, "schedule-legality-and-bound-sanity", not violations and elapsed < 300)


def test_criterion_4_desk_scale_tightness():
    """n=64, M=48, B=1: measured I/O within [1, 50] of the evaluated bound."""
    cfg = MachineConfig(48, 1)
    ok = True
    for n0 in (1, 4, 64):
        plan = uniform_plan(64, n0)
        sched = gen_hybrid_schedule(plan, cfg)
        stats = simulate(sched, cfg)
        bound = float(sequential_bound(plan, 64, 48, 1).sequential_bound)
        ratio = stats.io_total / bound
        print(f"  [n0={n0}: io={stats.io_total} bound={bound:.0f} ratio={ratio:.2f}]")
        ok &= 1.0 <= ratio <= 50.0
    report(4, "desk-scale-tightness", ok)


def test_criterion_5_encoder_facts():
    """Both encoder facts, exhaustively over all 127 output subsets each,
    in under a second."""
    t0 = time.time()
    ok = True
    for side in ("A", "B"):
        enc = EncoderGraph.from_scheme(STRASSEN, side)
        ok &= verify_encoder_distinct_neighborhoods(enc)
        rep = verify_encoder_connectivity(enc)
        ok &= rep.passed and rep.checked_subsets == 127
    ok &= connectivity_requirement(7) == 4
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    print(f"  [criterion 5 ran {elapsed:.3f}s]")
    report(5, "encoder-facts", ok)


def test_criterion_6_dominator_oracle_equivalence():
    """Max-flow and exhaustive search agree on every tiny CDAG, and the
    n=2 base-case output dominator obeys the |Z|/2 bound."""
    ok = True
    agreements = 0

    graphs = [build_cdag(StandardLeaf(IT, 2)), build_cdag(StandardLeaf(BR, 2)),
              build_cdag(StandardLeaf(IT, 1))]
    rng = random.Random(99)
    for g in graphs:
        assert g.num_vertices <= 22
        ins = g.global_inputs()
        choices = [g.global_outputs()]
        for _ in range(5):
            k = rng.randint(1, min(4, g.num_vertices))
            choices.append(rng.sample(range(g.num_vertices), k))
        for targets in choices:
            flow = min_dominator_size(g, targets, ins)
            brute = min_dominator_size_exhaustive(g, targets, ins)
            ok &= flow == brute
            agreements += 1

    g2 = build_cdag(uniform_plan(2, 1))
    outs, ins = g2.global_outputs(), g2.global_inputs()
    flow = min_dominator_size(g2, outs, ins)
    brute = min_dominator_size_exhaustive(g2, outs, ins)
    ok &= flow == brute
    ok &= flow >= len(outs) / 2  # the Type 2 bound at M=1
    agreements += 1
    print(f"  [criterion 6: {agreements} oracle agreements, n=2 dominator={flow}]")
    report(6, "dominator-oracle-equivalence", ok)


def test_criterion_7_dominator_bound_sampling():
    """Sampled dominator-bound instances on all plans of size <= 8, for
    M in {1, 4}; zero violations allowed."""
    plans = [uniform_plan(2, 1), uniform_plan(4, 1), uniform_plan(4, 2),
             uniform_plan(4, 4), uniform_plan(8, 2), uniform_plan(8, 8),
             random_plan(8, 0.5, seed=1)]
    failures = []
    checked = 0
    for plan in plans:
        g = build_cdag(plan)
        for m in (1, 4):
            r2 = verify_dominator_type2(g, m, max_samples=16, seed=m)
            r1 = verify_dominator_type1(g, m, max_samples=10, seed=m)
            checked += r1.checked + r2.checked
            failures.extend(r2.failures)
            failures.extend(r1.failures)
    print(f"  [criterion 7: {checked} sampled instances]")
    if failures:
        print("  failures:", failures[:5])
    report(7, "dominator-bound-sampling", not failures)


def test_criterion_8_sweep_determinism(tmp_path):
    """cmd_sweep with fixed seeds is byte-identical across runs."""
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "plan=random\nn=8,16\nseed=3,4\np_fast=0.5\nM=12,48\nB=1,4\n")
    out1, out2 = tmp_path / "one.csv", tmp_path / "two.csv"
    rc1 = cli_main(["sweep", "--config", str(cfg), "--out", str(out1)])
    rc2 = cli_main(["sweep", "--config", str(cfg), "--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    report(8, "sweep-determinism", rc1 == 0 and rc2 == 0 and identical)
