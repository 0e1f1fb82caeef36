import hashlib
import itertools
import math
import random

import numpy as np
import pytest

from hybridmm import pebble, schedules
from hybridmm.bounds import sequential_bound
from hybridmm.pebble import (MV_C, MV_E, MV_R, MV_REC, OP_NEG, IoStats, MachineConfig, Moves,
                             Schedule, ScheduleError, Template, check_parsimonious,
                             dump_schedule, replay_values, simulate)
from hybridmm.plans import (STRASSEN, WINOGRAD, StandardLeaf, StandardVariant,
                            random_plan, uniform_plan)
from hybridmm.ringmat import Matrix, mat_mul_naive
from hybridmm.schedules import gen_hybrid_schedule, gen_standard_blocked_schedule

IT = StandardVariant.ITERATIVE_DEF


def run(sched, cfg):
    stats = simulate(sched, cfg)
    assert check_parsimonious(sched).ok
    return stats


def test_whole_problem_fits_example():
    # n=16 with M = 3*n^2: read both inputs once, write the output once
    cfg = MachineConfig(768, 1)
    stats = run(gen_standard_blocked_schedule(16, cfg), cfg)
    assert stats.io_total == 2 * 256 + 256
    cfg4 = MachineConfig(768, 4)
    stats4 = run(gen_standard_blocked_schedule(16, cfg4), cfg4)
    assert stats4.io_total == (2 * 256 + 256) // 4


def test_blocked_upper_bound_formula():
    # io <= 8 n^3 / (B sqrt(M)) + 3 n^2 / B across a small grid
    for n in (8, 16, 32, 64):
        for m in (12, 48, 192):
            for b in (1, 4):
                cfg = MachineConfig(m, b)
                stats = run(gen_standard_blocked_schedule(n, cfg), cfg)
                cap = 8 * n ** 3 / (b * math.sqrt(m)) + 3 * n * n / b
                assert stats.io_total <= cap, (n, m, b, stats.io_total, cap)


def test_blocked_m3_degenerates_to_triple_loop():
    cfg = MachineConfig(3, 1)
    stats = run(gen_standard_blocked_schedule(8, cfg), cfg)
    assert stats.peak_cache == 3
    # 2n^3 operand reads; each accumulator stays resident across k and is
    # written once
    n = 8
    assert stats.reads == 2 * n ** 3
    assert stats.writes == n ** 2


def test_blocked_peak_respects_cache():
    for n, m in [(8, 12), (16, 48), (32, 192), (8, 3)]:
        cfg = MachineConfig(m, 1)
        stats = run(gen_standard_blocked_schedule(n, cfg), cfg)
        assert stats.peak_cache <= m


def test_blocked_value_fidelity():
    rng = np.random.default_rng(0)
    for n, m, b in [(4, 12, 1), (8, 48, 4), (8, 3, 1)]:
        cfg = MachineConfig(m, b)
        sched = gen_standard_blocked_schedule(n, cfg)
        a, bm = Matrix.random(n, rng), Matrix.random(n, rng)
        assert replay_values(sched, a, bm) == mat_mul_naive(a, bm)


def test_hybrid_fits_in_cache_single_pass():
    # 4*n^2 <= M: one read pass, one write pass
    for n in (2, 4, 8):
        cfg = MachineConfig(4 * n * n, 1)
        plan = uniform_plan(n, 1)
        stats = run(gen_hybrid_schedule(plan, cfg), cfg)
        assert stats.io_total == 3 * n * n, (n, stats)


def test_hybrid_leaf_delegates_to_blocked():
    for n, m, b in [(8, 12, 1), (16, 48, 4), (4, 3, 1)]:
        cfg = MachineConfig(m, b)
        leaf_stats = run(gen_hybrid_schedule(StandardLeaf(IT, n), cfg), cfg)
        blocked_stats = run(gen_standard_blocked_schedule(n, cfg), cfg)
        assert leaf_stats == blocked_stats


def test_hybrid_value_fidelity():
    rng = np.random.default_rng(1)
    cases = [(uniform_plan(4, 1), 3, 1), (uniform_plan(8, 2), 12, 1),
             (uniform_plan(8, 1), 48, 4), (random_plan(8, 0.6, seed=2), 12, 1),
             (random_plan(16, 0.5, seed=5), 48, 4)]
    for plan, m, b in cases:
        cfg = MachineConfig(m, b)
        sched = gen_hybrid_schedule(plan, cfg)
        run(sched, cfg)
        a = Matrix.random(plan.size, rng)
        bm = Matrix.random(plan.size, rng)
        assert replay_values(sched, a, bm) == mat_mul_naive(a, bm)


def test_hybrid_beats_bound_on_small_grid():
    for n in (8, 16):
        for n0 in (1, 4, n):
            plan = uniform_plan(n, n0)
            for m in (3, 12, 48):
                for b in (1, 4):
                    cfg = MachineConfig(m, b)
                    stats = run(gen_hybrid_schedule(plan, cfg), cfg)
                    bound = float(sequential_bound(plan, n, m, b).sequential_bound)
                    assert stats.io_total >= bound, (n, n0, m, b)


def test_hybrid_tightness_at_desk_scale():
    # regression constant, not a theory claim: measured within 50x of the
    # bound once n dominates both sqrt(M) and the cutoff
    cfg = MachineConfig(48, 1)
    for n0 in (1, 4, 64):
        plan = uniform_plan(64, n0)
        stats = run(gen_hybrid_schedule(plan, cfg), cfg)
        bound = float(sequential_bound(plan, 64, 48, 1).sequential_bound)
        assert 1.0 <= stats.io_total / bound <= 50.0


def test_hybrid_tightness_regression_table():
    # Measured ratio ceilings across the regime sweep.  The 50x band holds
    # for M >= 48; at tiny M the bound's nu2*M term is weak while the
    # schedule is forced word-wise, so the honest ceiling grows (recorded
    # here as regression values, all with slack over the measurement).
    table = [
        (8, 3, 1, 40), (16, 3, 1, 75), (32, 3, 1, 140), (64, 3, 1, 250),
        (16, 12, 1, 30), (32, 12, 1, 50), (64, 12, 1, 100),
        (32, 48, 1, 50), (64, 48, 1, 50), (64, 192, 1, 50),
        (64, 3, 4, 40), (64, 12, 4, 75), (64, 48, 4, 50), (64, 192, 4, 50),
    ]
    for n, m, n0, cap in table:
        plan = uniform_plan(n, n0)
        cfg = MachineConfig(m, 1)
        stats = run(gen_hybrid_schedule(plan, cfg), cfg)
        bound = float(sequential_bound(plan, n, m, 1).sequential_bound)
        ratio = stats.io_total / bound
        assert 1.0 <= ratio <= cap, (n, m, n0, ratio)


# (reads, writes, io_total) of the four benchmark schedule points, so that
# their I/O cannot drift silently.  Before the resident M=3 accumulator and
# the quadrant views for single-quadrant streamed operands they were
# (113936, 48736, 162672), (24368, 10469, 34837), (30944, 20512, 51456) and
# (34864, 29136, 64000).
_BENCH_POINT_IO = {
    "strassen-n32-n0_4-M3-B1": (STRASSEN, 32, 4, 3, 1, (91520, 26320, 117840)),
    "strassen-n16-n0_1-M3-B4": (STRASSEN, 16, 1, 3, 4, (22880, 8981, 31861)),
    "strassen-n32-n0_4-M48-B1": (STRASSEN, 32, 4, 48, 1, (30944, 17696, 48640)),
    "winograd-n32-n0_2-M48-B1": (WINOGRAD, 32, 2, 48, 1, (34864, 21776, 56640)),
}


@pytest.mark.parametrize("scheme,n,n0,m,b,io", list(_BENCH_POINT_IO.values()),
                         ids=list(_BENCH_POINT_IO))
def test_benchmark_point_io_pinned(scheme, n, n0, m, b, io):
    cfg = MachineConfig(m, b)
    stats = run(gen_hybrid_schedule(uniform_plan(n, n0, scheme), cfg), cfg)
    assert (stats.reads, stats.writes, stats.io_total) == io


@pytest.mark.parametrize("scheme", [STRASSEN, WINOGRAD], ids=lambda s: s.id)
def test_aliased_operand_value_fidelity(scheme, monkeypatch):
    # streamed children whose operand is one +1 quadrant read the parent's
    # quadrant in place; the product must not change
    strided = []  # subtrees entered with a strided operand view
    real_gen_node = schedules._gen_node

    def gen_node(em, node, av, bv, cv):
        if av.stride != av.cols or bv.stride != bv.cols:
            strided.append(node)
        return real_gen_node(em, node, av, bv, cv)

    monkeypatch.setattr(schedules, "_gen_node", gen_node)
    rng = np.random.default_rng(3)
    for n, m, b in itertools.product((8, 16), (3, 5, 12), (1, 4)):
        cfg = MachineConfig(m, b)
        strided.clear()
        sched = gen_hybrid_schedule(uniform_plan(n, 2, scheme), cfg)
        run(sched, cfg)
        assert strided, (n, m, b)
        a, bm = Matrix.random(n, rng), Matrix.random(n, rng)
        assert replay_values(sched, a, bm) == mat_mul_naive(a, bm), (n, m, b)


def test_aliased_operands_hand_counted():
    cfg = MachineConfig(3, 1)
    # the root streams all seven children, so it builds the 10 operand
    # blocks that combine quadrants and aliases A11, A22, B11 and B22: 16
    # fewer reads and 16 fewer writes than copying all 14 (368/149)
    stats = run(gen_hybrid_schedule(uniform_plan(4, 1), cfg), cfg)
    assert (stats.reads, stats.writes) == (352, 133)
    # the seven 2x2 leaves also keep their accumulators resident: 2*2^3
    # reads and 2^2 writes each, 4 fewer of each per leaf (284/128)
    stats = run(gen_hybrid_schedule(uniform_plan(4, 2), cfg), cfg)
    assert (stats.reads, stats.writes) == (240, 84)


def test_block_moves_divide_io():
    # B=4 cuts the I/O of the same plan by at most 4x and never increases it
    plan = uniform_plan(16, 4)
    io1 = run(gen_hybrid_schedule(plan, MachineConfig(48, 1)),
              MachineConfig(48, 1)).io_total
    io4 = run(gen_hybrid_schedule(plan, MachineConfig(48, 4)),
              MachineConfig(48, 4)).io_total
    assert io1 / 4 <= io4 <= io1


def test_hybrid_deterministic():
    plan = random_plan(16, 0.5, seed=11)
    cfg = MachineConfig(12, 1)
    s1 = gen_hybrid_schedule(plan, cfg)
    s2 = gen_hybrid_schedule(plan, cfg)
    assert s1.moves == s2.moves


def test_generators_reject_bad_sizes():
    with pytest.raises(ValueError):
        gen_standard_blocked_schedule(6, MachineConfig(12, 1))


@pytest.mark.parametrize("n,m,b,t", [(8, 3, 1, 1), (8, 12, 1, 2), (16, 12, 3, 2), (16, 48, 1, 4)])
def test_blocked_output_tiles_start_and_end_empty(n, m, b, t):
    # the cache is empty after every output tile of side t and nowhere else
    # inside the schedule, so each tile's steps start and end empty
    resident, empty = set(), 0
    for mv in gen_standard_blocked_schedule(n, MachineConfig(m, b)).moves:
        if mv[0] == MV_R:
            resident.update(range(mv[1], mv[1] + mv[2]))
        elif mv[0] == MV_C:
            resident.add(mv[1])
        elif mv[0] == MV_E:
            resident.remove(mv[1])
        empty += not resident
    assert schedules._tile_side(m, n) == t
    assert empty == (n // t) ** 2


# sha256 of dump_schedule, pinned so that refactors of the generators must
# reproduce every move: tiny-cache word-wise encode/decode and held operands
# (M=3, B=4), segmented streaming passes with a cache-resident decode source
# (M=48), both schemes, the tile loop at t = 1, 2 and 4 and the
# full-resident loop.  ``key`` is the digest a case was first pinned with;
# it comes before the digest in the case's test id, so re-pinning a case on
# purpose keeps the start of its id.  The cases that run the tile loop at t > 1 were re-pinned when it
# began to evict its scratch word with each output tile and to read A's
# first row before the B tile; the t = 1 cases kept their digests.
_PINNED_DUMPS = [
    ("hybrid", STRASSEN, 16, 1, 3, 4,
     "00395a544335278d2df148a20b6f682849b62193392b290c0a3c31b3dfdeb4be",
     "0a139452cde2b38ac08fff74226ac5b19bf47d5804c3c3130b1aeb2fa7cab55e"),
    ("hybrid", STRASSEN, 16, 2, 48, 1,
     "3accc983818dea870631549fa0bdc1d61d01f35846c8275b54599b22e71b3280",
     "85f009ba6c4fd87699d16aaa1dba5013e1cddc864b6f165a866fba556dd76ad6"),
    ("hybrid", WINOGRAD, 16, 2, 12, 1,
     "c5d4220d211f9763add883ffd4413fa59c86e7aba5011cc13e5b9a3d1b4a068c",
     "e7459915f33f1c499ce97eb8fc96e6ec688a65651a363abcaec24b605b2b303f"),
    ("hybrid", WINOGRAD, 8, 1, 20, 2,
     "67ab7a02b8d9d7431093fcf94a8450c07411bc7ec47692d83e092b2e08aab033",
     "e8a19f9f7838ce4fd2eef47aaa2a51d460a524560b465892be8b5be98ba35adb"),
    # in-cache order search falls through to the permutations and memoizes
    # an infeasible context
    ("hybrid", WINOGRAD, 4, 1, 12, 1,
     "3b21591c6c8c5edb8bfcb9e95fc68bd676f8021c9735ecbc2b473891babfa6ed",
     "66f538360fb8ad69e06bf644f81c67aeb25ca5933a913e4687a8a377ff261fe6"),
    # every fixed order fails; a permutation is picked
    ("hybrid", STRASSEN, 8, 2, 48, 1,
     "156e6991872b828a2dd256ddc0f53747fb2f8bd1672083e0b26bead9db57e4b2",
     "156e6991872b828a2dd256ddc0f53747fb2f8bd1672083e0b26bead9db57e4b2"),
    # a fused child's first attempt fails and a later one succeeds, so the
    # held operands the failed attempt consumed must be restored
    ("hybrid", WINOGRAD, 8, 2, 64, 1,
     "5802a821525b0a86446bff4eaa2a44c0b6da9183e06638f85e312e53dea5ae4d",
     "39442535ecf2c185db8d4659e9f1089c9122954f6089342d96203a234942d81a"),
    ("hybrid", STRASSEN, 8, 2, 44, 1,
     "0008107917d947a8d38698dec89c60c7ac912dbca4d2dbbc04479372460a3c45",
     "6cf48e8b0e20183417b87deb8fdb8236078c0fb070c1302827346853aebdc0af"),
    ("blocked", None, 8, None, 12, 1,
     "5d2abdcdaa1ff190d8ee7f79056ffa65307351a61fd69c2793201877acf124cc",
     "f8af482c9b2380bf98d925f2b3b1ebca6952f0f727fad69805b3af5816813bda"),
    ("blocked", None, 2, None, 16, 4,
     "0af9f705cde6fa9ae9b1b5929852746c2e48d99010404c39d0adc03661babdfd",
     "0af9f705cde6fa9ae9b1b5929852746c2e48d99010404c39d0adc03661babdfd"),
    # the tile is the whole matrix but M < 3n^2+1: B is read as one run,
    # A row by row, and B=3 splits both unevenly
    ("blocked", None, 4, None, 48, 3,
     "9121c635fff7d194e250065000fcec3f95dc638acb68d25f1236d41b555845bf",
     "e6e83ed9e06349ef18253858a34a14c999db8d6d89fcaefefd97fae270865ab5"),
    # runs that are not multiples of B through every hybrid path
    ("hybrid", WINOGRAD, 8, 2, 20, 3,
     "5539c9682b0d11f3b8253c705f42728e89ca99978c4c610c0450e64910d7fd9f",
     "180d5e5e3a72da2dd360ab2b4987faf8029628a62a880bab6771fc1dc063d5c6"),
    # the in-cache order search runs deep below the fixed orders (see
    # test_incache_search_steps_bounded)
    ("hybrid", WINOGRAD, 16, 1, 40, 1,
     "2c9ba38af5c0c0db97105b328fa61258738d2db768e6e1100099a96a2c5442a5",
     "0e4223c7aa55e03a5dc707168890e6931f2ac58c13f85f42649dafad1ce2e289"),
    # a mixed tree: n0 is the seed of random_plan(n, 0.7, seed, scheme)
    ("random", WINOGRAD, 16, 1, 44, 1,
     "81460568b0393a2295cea98fbb7f4afcae6a19250b771df2b6e3987d517d1431",
     "7b5e7ab4bce1a1753bc95906731ceb32b7f0d61553edaf57801d2baff0e7116b"),
    # the benchmark's schedule points, most of whose moves are replayed
    # subtrees (Strassen n=16, n0=1, M=3, B=4 is the first case above)
    ("hybrid", STRASSEN, 32, 4, 3, 1,
     "010d2b49034392fb84ef3ec0f1f6648418fe2b43e6fde225416b828e480a52f4",
     "010d2b49034392fb84ef3ec0f1f6648418fe2b43e6fde225416b828e480a52f4"),
    ("hybrid", STRASSEN, 32, 4, 48, 1,
     "bb5c596acaaaeebf0d39fb069f7e2ac30683a0babe8b6a4a75d3475b3f3f467c",
     "bb5c596acaaaeebf0d39fb069f7e2ac30683a0babe8b6a4a75d3475b3f3f467c"),
    ("hybrid", WINOGRAD, 32, 2, 48, 1,
     "0177f8091bd0b0d6c9d6683515916f4062fd57cee1c3b0481ac15556f52e1403",
     "0177f8091bd0b0d6c9d6683515916f4062fd57cee1c3b0481ac15556f52e1403"),
    # replayed subtrees with strided views and runs that are not multiples of B
    ("random", WINOGRAD, 32, 1, 20, 3,
     "1a17708379eb8829ec969a775aecfccf8c235e31f5ce0d08e6937e42f20ce571",
     "e4ad266b5e8afd0a119d490a5e178919b9753ddf6fc15ef1b8e055fa666a1982"),
    # the tile loop at t = 1: every product goes over its spent A word; the
    # hybrid case runs it on 5 leaves, the random one on 46
    ("blocked", None, 8, None, 3, 2,
     "6dcda5f0fbba90952d3c45e7eb0df06a66dfd9eecbaafba9fefa5c631fac2b75",
     "6dcda5f0fbba90952d3c45e7eb0df06a66dfd9eecbaafba9fefa5c631fac2b75"),
    ("hybrid", STRASSEN, 16, 4, 11, 2,
     "134a82dc1b3142c3857c5ae2c7daae6c4b27633d67416081a86acde810be628c",
     "134a82dc1b3142c3857c5ae2c7daae6c4b27633d67416081a86acde810be628c"),
    ("random", STRASSEN, 16, 1, 8, 1,
     "bf7b5514a0f2a768144f749c15eafcc4d07ba4f7006a43448494dbaf07e21083",
     "bf7b5514a0f2a768144f749c15eafcc4d07ba4f7006a43448494dbaf07e21083"),
]


def _pinned_schedule(gen, scheme, n, n0, cfg):
    if gen == "hybrid":
        return gen_hybrid_schedule(uniform_plan(n, n0, scheme), cfg)
    if gen == "random":
        return gen_hybrid_schedule(random_plan(n, 0.7, seed=n0, scheme=scheme), cfg)
    return gen_standard_blocked_schedule(n, cfg)


@pytest.mark.parametrize("gen,scheme,n,n0,m,b,key,digest", _PINNED_DUMPS)
def test_generated_moves_pinned(gen, scheme, n, n0, m, b, key, digest):
    sched = _pinned_schedule(gen, scheme, n, n0, MachineConfig(m, b))
    assert hashlib.sha256(dump_schedule(sched).encode()).hexdigest() == digest


class _NoTemplates(dict):
    """A template table that keeps nothing, so every subtree is generated."""

    def __setitem__(self, key, value):
        pass


@pytest.mark.parametrize("plan,m,b", [
    (random_plan(32, 0.7, seed=1, scheme=WINOGRAD), 20, 3),
    (uniform_plan(16, 2, STRASSEN), 3, 4),
    (uniform_plan(16, 4, STRASSEN), 48, 1),
    (uniform_plan(16, 2, WINOGRAD), 20, 3),
], ids=["random-winograd-n32-M20-B3", "strassen-n16-n0_2-M3-B4", "strassen-n16-n0_4-M48-B1",
        "winograd-n16-n0_2-M20-B3"])
def test_replayed_subtrees_match_fresh_generation(monkeypatch, plan, m, b):
    # every replayed subtree's record expands to what a fresh emitter, which
    # keeps no template, generates for the same node, views and temporaries
    hits = []
    real_gen_node = schedules._gen_node

    def gen_node(em, node, av, bv, cv):
        n_templates, temp_ptr = len(em.templates), em.temp_ptr
        real_gen_node(em, node, av, bv, cv)
        if len(em.templates) == n_templates:  # a generated subtree records one
            hits.append((node, (av, bv, cv), temp_ptr, em.moves[-1], em.temp_ptr))

    monkeypatch.setattr(schedules, "_gen_node", gen_node)
    cfg = MachineConfig(m, b)
    gen_hybrid_schedule(plan, cfg)
    monkeypatch.undo()
    assert hits
    assert any(v.stride != v.cols for _, views, *_ in hits for v in views)
    for node, views, temp_ptr, record, temp_end in hits:
        assert record[0] == MV_REC and record[2] != record[1].lows
        fresh = schedules._Emitter(cfg, temp_ptr)
        fresh.templates = _NoTemplates()
        schedules._gen_node(fresh, node, *views)
        assert list(Moves(fresh.moves)) == list(Moves([record]))
        assert fresh.temp_ptr == temp_end


@pytest.mark.parametrize("plan,m,b,steps", [
    (uniform_plan(16, 2, STRASSEN), 3, 4, {"_combine_row"}),
    (uniform_plan(8, 1, WINOGRAD), 3, 1, {"_combine_row"}),
    (uniform_plan(16, 2, WINOGRAD), 20, 3, {"_combine_segment"}),
    (uniform_plan(16, 4, STRASSEN), 48, 1, {"_combine_segment"}),
    (random_plan(32, 0.7, seed=1, scheme=WINOGRAD), 20, 3, {"_combine_segment"}),
    (uniform_plan(16, 1, STRASSEN), 8, 2, {"_combine_segment", "_combine_row"}),
], ids=["strassen-n16-n0_2-M3-B4", "winograd-n8-n0_1-M3-B1", "winograd-n16-n0_2-M20-B3",
        "strassen-n16-n0_4-M48-B1", "random-winograd-n32-M20-B3", "strassen-n16-n0_1-M8-B2"])
def test_row_records_match_fresh_generation(monkeypatch, plan, m, b, steps):
    # every streamed row step's record expands to the moves that the step
    # emits on a fresh emitter, which keeps no template; the M=3 cases take
    # the one-word-at-a-time branch, the others the segmented one
    hits = []
    real_record = schedules._record

    def record(em, key, spans, gen, *args):
        temp_ptr, replay = em.temp_ptr, key in em.templates
        real_record(em, key, spans, gen, *args)
        if gen is not schedules._node_moves:
            hits.append((gen, args, temp_ptr, em.moves[-1], replay))

    monkeypatch.setattr(schedules, "_record", record)
    cfg = MachineConfig(m, b)
    gen_hybrid_schedule(plan, cfg)
    monkeypatch.undo()
    assert {gen.__name__ for gen, *_ in hits} == steps
    assert sum(replay for *_, replay in hits) > len(hits) // 2
    for gen, args, temp_ptr, rec, replay in hits:
        assert rec[0] == MV_REC and (rec[2] != rec[1].lows) == replay
        fresh = schedules._Emitter(cfg, temp_ptr)
        fresh.templates = _NoTemplates()
        gen(fresh, *args)
        assert not fresh.resident and fresh.temp_ptr == temp_ptr
        assert fresh.moves == list(Moves([rec]))


def test_resident_decode_rows_stay_flat(monkeypatch):
    # a decode that consumes a fused child's product left in cache starts
    # with that product resident, so its row steps are emitted move by move
    flat = []
    real_combine = schedules._stream_combine

    def stream_combine(em, rows, srcs, dsts, resident=frozenset()):
        start = len(em.moves)
        real_combine(em, rows, srcs, dsts, resident)
        if resident:
            flat.append(em.moves[start:])

    monkeypatch.setattr(schedules, "_stream_combine", stream_combine)
    for scheme, m in ((STRASSEN, 48), (WINOGRAD, 30)):
        flat.clear()
        sched = gen_hybrid_schedule(uniform_plan(16, 2, scheme), MachineConfig(m, 1))
        assert flat, scheme.id
        assert all(moves and not any(mv[0] == MV_REC for mv in moves) for moves in flat)
        run(sched, MachineConfig(m, 1))


def _stored(entries):
    """How many entries the distinct templates that ``entries`` record
    store in their bodies."""
    return sum(len(t.body) for t in _templates(entries))


@pytest.mark.parametrize("scheme,n,n0,m,cap", [
    (STRASSEN, 64, 1, 3, 9_000),
    (STRASSEN, 32, 4, 48, 14_000),
    (WINOGRAD, 32, 2, 48, 16_000),
], ids=["strassen-n64-n0_1-M3", "strassen-n32-n0_4-M48", "winograd-n32-n0_2-M48"])
def test_stored_entries_capped(scheme, n, n0, m, cap):
    # records of row steps and sub-problems keep the stored schedule small:
    # 8,576, 13,457 and 15,134 entries for 4.54M, 177K and 251K moves
    sched = gen_hybrid_schedule(uniform_plan(n, n0, scheme), MachineConfig(m, 1))
    assert _stored(sched.moves.entries) <= cap < len(sched.moves)


def test_build_operand_negates_a_dying_source_in_place():
    # a -1 term alone over a source that dies here is one in-place ``neg``
    em = schedules._Emitter(MachineConfig(3, 1), 16)
    quads = schedules.View(8, 2, 2, 2).quadrants()
    em.resident = {8}
    block, owned = schedules._build_operand(em, (-1, 0, 0, 0), quads, {0})
    assert (block, owned) == (quads[0], True)
    assert em.moves == [(MV_C, 8, OP_NEG, 8, -1)]
    assert em.resident == {8} and em.temp_ptr == 16


def _walks(sched, machines):
    """``simulate``'s IoStats, or its error's kind, step and message, on each
    machine, and ``check_parsimonious``'s violations."""
    outcomes = []
    for m, b in machines:
        try:
            outcomes.append(simulate(sched, MachineConfig(m, b)))
        except ScheduleError as exc:
            outcomes.append((exc.kind, exc.step, str(exc)))
    return outcomes, check_parsimonious(sched).violations


def _flat(sched):
    return Schedule(list(sched.moves), sched.layout)


def _tighter(m, b):
    """The generating machine, and two that some of its moves overflow or
    exceed, so that faults inside templates are compared too."""
    return [(m, b), (max(3, m - 1), b), (max(3, m // 2), max(1, b // 2))]


@pytest.mark.parametrize("gen,scheme,n,n0,m,b,key,digest", _PINNED_DUMPS)
def test_record_walk_matches_flat_walk_pinned(gen, scheme, n, n0, m, b, key, digest):
    # the pinned cases include the four benchmark schedule points
    sched = _pinned_schedule(gen, scheme, n, n0, MachineConfig(m, b))
    flat = _flat(sched)
    assert len(flat.moves.entries) == len(sched.moves) > len(sched.moves.entries)
    assert _walks(sched, _tighter(m, b)) == _walks(flat, _tighter(m, b))


def test_record_walk_matches_flat_walk_on_grid():
    # criterion 3's grid at n = 8 and 16, under the generating machine and
    # two tighter ones
    faults = 0
    for n in (8, 16):
        plans = [uniform_plan(n, n0) for n0 in (1, 4, n)]
        for m in (3, 12, 48, 192):
            for b in (1, 4):
                cfg = MachineConfig(m, b)
                scheds = [gen_standard_blocked_schedule(n, cfg)]
                scheds += [gen_hybrid_schedule(plan, cfg) for plan in plans]
                for sched in scheds:
                    walks = _walks(sched, _tighter(m, b))
                    assert walks == _walks(_flat(sched), _tighter(m, b)), (n, m, b)
                    faults += sum(isinstance(o, tuple) for o in walks[0])
    assert faults


def _templates(entries):
    """Every template that ``entries`` record, with how many records of it
    the expansion holds, in the order first met."""
    found = {}

    def visit(entries):
        for e in entries:
            if e[0] == MV_REC:
                if e[1] not in found:
                    found[e[1]] = 0
                found[e[1]] += 1
                visit(e[1].body)

    visit(entries)
    return found


def _edit_template(sched, target, body):
    """``sched`` with ``target``'s body replaced by ``body``, so that every
    record of it replays the edit, and the edited template."""
    new = {}

    def rebuilt(entries):
        return [(MV_REC, template(e[1]), e[2]) if e[0] == MV_REC else e for e in entries]

    def template(t):
        if t not in new:
            new[t] = Template(body if t is target else rebuilt(t.body), t.segments)
        return new[t]

    return Schedule(Moves(rebuilt(sched.moves.entries)), sched.layout), new[target]


# the moves an edit may pick: any move, or, to drop one, an eviction
_EDITABLE = {False: lambda mv: mv[0] != MV_REC, True: lambda mv: mv[0] == MV_E}


def _template_mutants(sched, rng, count):
    """Schedules, each with its edited template, that drop, duplicate, swap
    or re-address one move in the body of a template recorded more than
    once; one edit in five drops an eviction, which leaves a word cached
    when the body ends.  An edit draws its template from those whose body
    holds a move of the kind it edits, since a body may be records only."""
    repeated = [t for t, uses in _templates(sched.moves.entries).items() if uses > 1]
    for _ in range(count):
        kind = rng.randrange(5)
        wanted = _EDITABLE[kind == 4]
        t = rng.choice([t for t in repeated if any(map(wanted, t.body))])
        body = list(t.body)
        i = rng.choice([i for i, mv in enumerate(body) if wanted(mv)])
        if kind == 0 or kind == 4:
            del body[i]
        elif kind == 1:
            body.insert(i, body[i])
        elif kind == 2:
            j = min(i + rng.randint(1, 8), len(body) - 1)
            body[i], body[j] = body[j], body[i]
        else:
            mv = list(body[i])
            k = rng.choice([1, 3, 4] if mv[0] == MV_C else [1])
            mv[k] += rng.choice((-1, 1))
            body[i] = tuple(mv)
        yield _edit_template(sched, t, body)


def test_template_mutants_record_walk_matches_flat_walk(monkeypatch):
    # the walkers take a record of a repeated template move by move when no
    # summary can stand for it, as when its body ends with a word cached;
    # count how often they do so with an edited template (a template with a
    # single record, such as the root, is always walked in place)
    moved = []
    real_entries_at = pebble._entries_at

    def entries_at(template, bases):
        moved.append(template)
        return real_entries_at(template, bases)

    rng = random.Random(2026)
    cases = [(uniform_plan(8, 1), 3, 1), (uniform_plan(8, 2, WINOGRAD), 5, 2),
             (uniform_plan(8, 1), 12, 1)]
    legal = faults = violations = in_place = 0
    for plan, m, b in cases:
        machines = _tighter(m, b)[:2]
        sched = gen_hybrid_schedule(plan, MachineConfig(m, b))
        for mutant, edited in _template_mutants(sched, rng, 100):
            assert _templates(mutant.moves.entries)[edited] > 1
            monkeypatch.setattr(pebble, "_entries_at", entries_at)
            walks = _walks(mutant, machines)
            monkeypatch.undo()
            assert walks == _walks(_flat(mutant), machines)
            legal += isinstance(walks[0][0], IoStats)
            faults += not isinstance(walks[0][0], IoStats)
            violations += bool(walks[1])
            in_place += moved.count(edited)
            moved.clear()
    assert legal and faults and violations
    assert in_place


def _temporaries(entries):
    """Each template that ``entries`` record with, for each nested record
    whose temporaries are not empty, its index in the body and those
    temporaries' words, moved to its bases."""
    found = {}
    for t in _templates(entries):
        spans = [(i, range(mv[2][-1], mv[2][-1] + hi - lo))
                 for i, mv in enumerate(t.body) if mv[0] == MV_REC
                 for lo, hi in mv[1].segments[-1:] if lo < hi]
        if spans:
            found[t] = spans
    return found


def _temporary_mutants(sched, rng, count):
    """Schedules, each with its edited template, that touch a word of a
    nested record's temporaries from the body around that record: a read
    and eviction of it after the record, or one move re-addressed onto
    it."""
    temporaries = _temporaries(sched.moves.entries)
    for _ in range(count):
        t = rng.choice(list(temporaries))
        i, words = rng.choice(temporaries[t])
        w = rng.choice(words)
        body = list(t.body)
        moves = [j for j, mv in enumerate(body) if mv[0] != MV_REC]
        if rng.randrange(2) or not moves:
            j = rng.randint(i + 1, len(body))
            body[j:j] = [(MV_R, w, 1), (MV_E, w)]
        else:
            j = rng.choice(moves)
            mv = list(body[j])
            mv[rng.choice([1, 3, 4] if mv[0] == MV_C else [1])] = w
            body[j] = tuple(mv)
        yield _edit_template(sched, t, body)


def test_temporary_mutants_refused_and_match_flat_walk(monkeypatch):
    # a move outside a record that touches its temporaries makes the scan
    # refuse the schedule, and both walks keep every word; with the scan
    # bypassed, some mutants would walk otherwise than the flat walk
    rng = random.Random(24)
    cases = [(uniform_plan(8, 1), 3, 1), (uniform_plan(8, 2, WINOGRAD), 5, 2),
             (uniform_plan(8, 1), 12, 1)]
    differs = 0
    for plan, m, b in cases:
        machines = _tighter(m, b)[:2]
        sched = gen_hybrid_schedule(plan, MachineConfig(m, b))
        for mutant, _ in _temporary_mutants(sched, rng, 40):
            assert not pebble._sealed(mutant.moves.entries)
            walks = _walks(mutant, machines)
            assert walks == _walks(_flat(mutant), machines)
            monkeypatch.setattr(pebble, "_sealed", lambda entries: True)
            differs += _walks(mutant, machines) != walks
            monkeypatch.undo()
    assert differs


def test_summary_outputs_capped(monkeypatch):
    # with the temporaries of sealed records left out, the summaries of
    # check_parsimonious hold 5,550 output words at n=64, n0=1, M=3, where
    # they held 254,223 with every word written
    got = []
    real = pebble._Walk.summary

    def summary(self, template):
        got.append(real(self, template))
        return got[-1]

    sched = gen_hybrid_schedule(uniform_plan(64, 1), MachineConfig(3, 1))
    monkeypatch.setattr(pebble._Walk, "summary", summary)
    assert check_parsimonious(sched).ok
    summaries = {id(s): s for s in got if s is not None}.values()
    assert summaries and sum(len(s.outputs.addrs) for s in summaries) <= 10_000


@pytest.mark.parametrize("plan,m,b", [
    (uniform_plan(16, 1), 3, 1),
    (random_plan(16, 0.7, seed=1), 12, 1),
], ids=["uniform-n16-n0_1-M3", "random-n16-p0.7-M12"])
def test_walkers_summarize_only_repeated_templates(summary_spy, plan, m, b):
    # each walk summarizes every template the expansion records twice or
    # more, each exactly once, and none that it records once
    cfg = MachineConfig(m, b)
    sched = gen_hybrid_schedule(plan, cfg)
    uses = _templates(sched.moves.entries)
    assert pebble._record_counts(sched.moves.entries) == uses
    repeated = {t for t, k in uses.items() if k > 1}
    assert repeated and len(repeated) < len(uses)
    for walk, name in ((lambda: simulate(sched, cfg), "simulate"),
                       (lambda: check_parsimonious(sched), "check_parsimonious")):
        for _ in range(2):
            walk()
            got = summary_spy[name]
            assert set(got) == repeated
            assert all(len(ids) == 1 for ids in got.values())
            got.clear()


def test_record_walk_matches_flat_walk_on_random_plans(summary_spy):
    # 120 random plans and machines, each also walked on two tighter
    # machines; the templates with a single record are walked in place
    single = 0
    for n in (8, 16):
        for p_fast in (0.3, 0.6, 0.9):
            for seed in range(4):
                plan = random_plan(n, p_fast, seed=seed)
                for m, b in ((3, 1), (5, 2), (12, 1), (12, 4), (48, 1)):
                    sched = gen_hybrid_schedule(plan, MachineConfig(m, b))
                    assert pebble._sealed(sched.moves.entries), (n, p_fast, seed, m, b)
                    walks = _walks(sched, _tighter(m, b))
                    assert walks == _walks(_flat(sched), _tighter(m, b)), (n, p_fast, seed, m, b)
                    uses = _templates(sched.moves.entries)
                    single += sum(k == 1 for k in uses.values())
                    for got in summary_spy.values():
                        assert all(uses[t] > 1 for t in got)
                        got.clear()
    assert single


def test_incache_search_steps_bounded(monkeypatch):
    # a child step depends on the children before it only as a set, so one
    # search over a node's child orders takes at most 7 * 2**6 steps, where
    # a scan of whole orders would try up to 5,040 of them
    searches = []  # [ctx, child steps] of each search
    active = []
    real_search, real_child = schedules._incache_search, schedules._incache_child

    def search(em, ctx, done, *rest):
        if done:
            return real_search(em, ctx, done, *rest)
        active.append([ctx, 0])
        searches.append(active[-1])
        try:
            return real_search(em, ctx, done, *rest)
        finally:
            active.pop()

    def child(em, ctx, *rest):
        for entry in active:
            if entry[0] is ctx:
                entry[1] += 1
        return real_child(em, ctx, *rest)

    monkeypatch.setattr(schedules, "_incache_search", search)
    monkeypatch.setattr(schedules, "_incache_child", child)
    gen_hybrid_schedule(uniform_plan(16, 1, WINOGRAD), MachineConfig(40, 1))
    steps = [n for _, n in searches]
    assert steps and max(steps) > 7 * 7
    assert max(steps) <= 7 * 2 ** 6


def test_fused_orders_pinned():
    # the table-driven scoring picks what scoring each order with
    # _kept_quad directly picks, ties to the largest order
    for scheme, expected in ((STRASSEN, (6, 4, 2, 5, 3, 1, 0)),
                             (WINOGRAD, (6, 1, 2, 3, 4, 0, 5))):
        def score(order):
            return sum(schedules._kept_quad(rows, x, y) is not None
                       for x, y in zip(order, order[1:])
                       for rows in (scheme.encode_a, scheme.encode_b))

        assert schedules._fused_order(scheme) == expected
        assert max(itertools.permutations(range(7)), key=lambda o: (score(o), o)) == expected
