"""Each benchmark oracle accepts a correct result and rejects an injected fault."""

import dataclasses
import random
import types

import numpy as np
import pytest

import hybridmm.cdag
import hybridmm.plans
import oracles
import workloads
from hybridmm.bounds import sequential_bound
from hybridmm.cdag import build_cdag, min_dominator_size
from hybridmm.pebble import MV_C, MV_R, OP_ADD, OP_SUB, MachineConfig, simulate
from hybridmm.plans import StandardLeaf, StandardVariant, uniform_plan
from hybridmm.schedules import gen_hybrid_schedule

P = (1 << 31) - 1


def _operands(n, seed, stack=None):
    rng = np.random.default_rng(seed)
    shape = (n, n) if stack is None else (stack, n, n)
    return (rng.integers(0, P, size=shape, dtype=np.int64),
            rng.integers(0, P, size=shape, dtype=np.int64))


def _product(a, b):
    n = a.shape[-1]
    pairs = zip(a.reshape(-1, n, n).tolist(), b.reshape(-1, n, n).tolist())
    return np.array([oracles.triple_loop(x, y, P) for x, y in pairs], dtype=np.int64).reshape(a.shape)


@pytest.mark.parametrize("stack", [None, 3])
def test_freivalds_rejects_entry_off_by_one(stack):
    a, b = _operands(16, 7, stack)
    c = _product(a, b)
    assert oracles.freivalds(a, b, c, P, random.Random(1))
    bad = c.copy()
    bad[(..., 5, 9)] = (bad[(..., 5, 9)] + 1) % P
    assert not oracles.freivalds(a, b, bad, P, random.Random(1))
    unreduced = c.copy()
    unreduced[(..., 0, 0)] += P
    assert not oracles.freivalds(a, b, unreduced, P, random.Random(1))


def _seeded_rows(n, seed):
    rng = random.Random(seed)
    return [[rng.randrange(P) for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("n,n0,m,b", [(4, 1, 3, 1), (8, 2, 12, 1), (8, 1, 3, 4)])
def test_replay_rejects_schedule_with_one_read_dropped(n, n0, m, b):
    sched = gen_hybrid_schedule(uniform_plan(n, n0), MachineConfig(m, b))
    a, bb = _seeded_rows(n, 1), _seeded_rows(n, 2)
    assert oracles.replay_matches_product(sched.moves, n, m, a, bb, P)
    reads = [i for i, mv in enumerate(sched.moves) if mv[0] == MV_R]
    for drop in (reads[0], reads[len(reads) // 2], reads[-1]):
        moves = sched.moves[:drop] + sched.moves[drop + 1:]
        assert not oracles.replay_matches_product(moves, n, m, a, bb, P)


def test_replay_rejects_altered_compute_and_overfull_cache():
    n, m = 4, 3
    sched = gen_hybrid_schedule(uniform_plan(n, 1), MachineConfig(m, 1))
    a, bb = _seeded_rows(n, 1), _seeded_rows(n, 2)
    i = next(i for i, mv in enumerate(sched.moves) if mv[0] == MV_C and mv[2] == OP_ADD)
    moves = list(sched.moves)
    moves[i] = (MV_C, moves[i][1], OP_SUB, moves[i][3], moves[i][4])
    assert not oracles.replay_matches_product(moves, n, m, a, bb, P)
    assert not oracles.replay_matches_product(sched.moves, n, m - 1, a, bb, P)


def test_tag_counts_match_simulate_and_see_a_dropped_read():
    cfg = MachineConfig(3, 1)
    sched = gen_hybrid_schedule(uniform_plan(8, 2), cfg)
    stats = simulate(sched, cfg)
    assert oracles.tag_counts(sched.moves) == (stats.reads, stats.writes, stats.computes)
    drop = next(i for i, mv in enumerate(sched.moves) if mv[0] == MV_R)
    moves = sched.moves[:drop] + sched.moves[drop + 1:]
    assert oracles.tag_counts(moves) != (stats.reads, stats.writes, stats.computes)


@pytest.mark.parametrize("n,n0,m,b", [(16, 2, 4, 1), (16, 8, 4, 1), (64, 1, 3, 1),
                                      (256, 1, 3, 1), (32, 4, 48, 1), (16, 1, 3, 4)])
def test_bound_oracle_rejects_wrong_msp_count(n, n0, m, b):
    plan = uniform_plan(n, n0)
    rep = sequential_bound(plan, n, m, b)
    assert oracles.bound_report_ok(rep, plan, n, m, b, n0)
    for field in ("nu1", "nu2", "t_total"):
        wrong = dataclasses.replace(rep, **{field: getattr(rep, field) + 1})
        assert not oracles.bound_report_ok(wrong, plan, n, m, b, n0)
    wrong_bound = dataclasses.replace(rep, sequential_bound=rep.sequential_bound + 1)
    assert not oracles.bound_report_ok(wrong_bound, plan, n, m, b, n0)


@pytest.mark.parametrize("n", [2, 4, 8, 16, 64, 512])
def test_closed_form_equals_tree_walk(n):
    for n0 in (1, 2, 4, n):
        if n0 > n:
            continue
        for m in (1, 3, 4, 12, 48):
            assert oracles.uniform_msp_closed_form(n, n0, m) == \
                oracles.recount_msps(uniform_plan(n, n0), m)


def test_paper_regime_of_the_bound_row():
    rep = sequential_bound(uniform_plan(256, 1), 256, 3, 1)
    terms = oracles.bound_terms(256, 3, 1, rep.nu2, rep.t_total)
    assert oracles.regime(terms) == "nu2" and rep.nu2 == 7 ** 6


def test_bruteforce_dominator_agrees_with_flow():
    it = StandardVariant.ITERATIVE_DEF
    rng = random.Random(3)
    for plan in (StandardLeaf(it, 2), uniform_plan(2, 1)):
        g = build_cdag(plan)
        ins = g.global_inputs()
        for targets in [g.global_outputs()] + [rng.sample(range(g.num_vertices), 3)
                                               for _ in range(3)]:
            flow = min_dominator_size(g, targets, ins)
            brute = oracles.min_dominator_bruteforce(g.num_vertices, g.edges, targets, ins)
            assert brute == flow


def test_exhaustive_check_rejects_a_wrong_dominator_size():
    hm = types.SimpleNamespace(plans=hybridmm.plans, cdag=hybridmm.cdag)
    point = next(p for p in workloads.setup_verify(hm, 1) if p.name == "exhaustive-n2")
    results = point.run()
    checks = workloads.Checks()
    point.check(results, checks, True)
    assert checks.attempted > 0 and not checks.failures
    # flow and the program's exhaustive twin agree on a wrong value, so only
    # the brute-force oracle can see it
    g, targets, ins, flow, brute = results[0]
    wrong = [(g, targets, ins, flow + 1, brute + 1)] + results[1:]
    checks = workloads.Checks()
    point.check(wrong, checks, True)
    assert len(checks.failures) == 1 and "brute force" in checks.failures[0]
