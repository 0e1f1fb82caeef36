import math
from fractions import Fraction

import numpy as np
import pytest

from hybridmm.bounds import (BOUND_CONSTANT_C, enumerate_msps, parallel_bound,
                             sequential_bound, uniform_closed_form,
                             uniform_inner_term, uniform_parallel_closed_form)
from hybridmm.engine import execute
from hybridmm.plans import (FastNode, STRASSEN, StandardLeaf, StandardVariant,
                            random_plan, uniform_plan)
from hybridmm.ringmat import Matrix

IT = StandardVariant.ITERATIVE_DEF


def recount_msps(plan, m, threshold=None):
    """Independent walk: (nu1, nu2, t_total) by direct recursion.  Sizes are
    compared with 2*sqrt(m) in integers, or with ``threshold`` when given."""
    def cmp(s):  # the sign of s - threshold
        if threshold is None:
            return (s * s > 4 * m) - (s * s < 4 * m)
        return (s > threshold) - (s < threshold)

    if cmp(plan.size) <= 0:
        return (0, 0, 0)

    def rec(node):
        if isinstance(node, StandardLeaf):
            if cmp(node.size) >= 0:
                return (1, 0, node.size ** 3)
            return (0, 0, 0)
        if cmp(node.size // 2) < 0:
            return (0, 1, 0)
        n1 = n2 = tt = 0
        for child in node.children:
            a, b, c = rec(child)
            n1 += a
            n2 += b
            tt += c
        return (n1, n2, tt)

    return rec(plan)


def type1_cubes(msps):
    """|T|: the elementary products inside Type 1 MSPs, sum of n_i^3."""
    return sum(d.n_i ** 3 for d in msps if d.msp_type == 1)


def test_no_msps_at_threshold_boundary():
    assert enumerate_msps(uniform_plan(4, 1), 4) == []
    assert enumerate_msps(uniform_plan(4, 4), 4) == []


def test_type1_enumeration_16_8():
    msps = enumerate_msps(uniform_plan(16, 8), 4)
    assert len(msps) == 7
    assert all(d.msp_type == 1 and d.n_i == 8 for d in msps)
    assert type1_cubes(msps) == 7 * 8 ** 3 == 3584
    # 7^i closed form with i = log2(n/n0)
    assert len(msps) == 7 ** int(math.log2(16 // 8))


def test_type2_enumeration_16_2():
    msps = enumerate_msps(uniform_plan(16, 2), 4)
    assert len(msps) == 49
    assert all(d.msp_type == 2 and d.n_i == 4 for d in msps)
    assert type1_cubes(msps) == 0
    assert len(msps) == 7 ** int(math.log2(16 // 4))


def test_improper_type1():
    msps = enumerate_msps(uniform_plan(16, 16), 4)
    assert len(msps) == 1
    assert msps[0].msp_type == 1 and msps[0].n_i == 16 and msps[0].path == ()
    assert type1_cubes(msps) == 4096


def test_improper_type2():
    # children of the root sit strictly below 2*sqrt(M); the root itself is
    # the unique improper Type 2 MSP
    msps = enumerate_msps(uniform_plan(4, 1), 2)
    assert len(msps) == 1
    assert msps[0].msp_type == 2 and msps[0].path == ()
    # at M=1 the root's children are exactly at the threshold, so the seven
    # size-2 fast nodes are the MSPs instead
    msps1 = enumerate_msps(uniform_plan(4, 1), 1)
    assert len(msps1) == 7
    assert all(d.msp_type == 2 and d.n_i == 2 for d in msps1)


def test_enumeration_matches_recount_on_random_plans():
    # random plans, and uniform ones whose subtrees are shared; the bound's
    # counts and threshold overrides must agree with the recount too
    plans = [random_plan(16, 0.6, seed=seed) for seed in range(12)]
    plans += [uniform_plan(16, n0) for n0 in (1, 2, 4)]
    cases = [(m, None) for m in (1, 4, 16, 64)] + [(4, 3.0), (4, 8.0), (16, 5.5), (1, 16.0)]
    for plan in plans:
        for m, threshold in cases:
            expected = recount_msps(plan, m, threshold)
            msps = enumerate_msps(plan, m, threshold)
            assert [d.path for d in msps] == sorted(d.path for d in msps)
            n1 = sum(1 for d in msps if d.msp_type == 1)
            n2 = sum(1 for d in msps if d.msp_type == 2)
            assert (n1, n2, type1_cubes(msps)) == expected
            rep = sequential_bound(plan, 16, m, 1, threshold)
            assert (rep.nu1, rep.nu2, rep.t_total) == expected


def test_sequential_bound_counts_without_listing(monkeypatch):
    # 7^18 Type 2 MSPs: counted once per distinct subtree, never listed.  The
    # stand-in neither raises nor keeps its arguments, so that a failure
    # report never prints the plan, whose repr has 7^20 leaves.
    from hybridmm import bounds

    listed = []
    monkeypatch.setattr(bounds, "enumerate_msps", lambda *args: listed.append(True) or [])
    rep = sequential_bound(uniform_plan(2 ** 20, 1), 2 ** 20, 3, 1)
    assert not listed
    assert (rep.nu1, rep.nu2, rep.t_total) == (0, 7 ** 18, 0)


def test_msp_paths_pairwise_non_prefix():
    for seed in range(8):
        plan = random_plan(16, 0.7, seed=seed)
        msps = enumerate_msps(plan, 4)
        paths = [d.path for d in msps]
        for i, p in enumerate(paths):
            for q in paths[i + 1:]:
                assert p[:len(q)] != q and q[:len(p)] != p


def test_custom_threshold_knob():
    plan = uniform_plan(16, 4)
    # with the printed-2M reading (threshold 8 at M=4) the leaves are too
    # small to be Type 1 and the size-8 fast nodes become Type 2
    msps = enumerate_msps(plan, 4, threshold=8.0)
    assert all(d.msp_type == 2 and d.n_i == 8 for d in msps)
    assert len(msps) == 7
    # at nan every size would tie with the threshold and no MSP be found
    for bad in (math.nan, math.inf, 0, -5.0):
        for call in (lambda: enumerate_msps(plan, 4, bad),
                     lambda: sequential_bound(plan, 16, 4, 1, bad),
                     lambda: parallel_bound(plan, 16, 4, 1, 7, bad)):
            with pytest.raises(ValueError, match="MSP threshold"):
                call()


def test_sequential_bound_16_8():
    rep = sequential_bound(uniform_plan(16, 8), 16, 4, 1)
    assert rep.nu1 == 7 and rep.nu2 == 0
    assert rep.t_total == 3584
    assert rep.term_input == 512
    assert rep.term_t == Fraction(38988157484, 10 ** 11) * 3584 / 2
    assert float(rep.term_t) == pytest.approx(698.667782, abs=1e-6)
    assert rep.sequential_bound == rep.term_t
    assert rep.c == 0.38988157484 == BOUND_CONSTANT_C


def test_sequential_bound_16_2():
    rep = sequential_bound(uniform_plan(16, 2), 16, 4, 1)
    assert rep.nu2 == 49
    assert rep.term_nu2 == 196
    assert rep.sequential_bound == 512


def test_sequential_bound_no_msps():
    for b in (1, 4):
        rep = sequential_bound(uniform_plan(4, 2), 4, 4, b)
        assert rep.sequential_bound == Fraction(32, b)
        assert rep.nu1 == rep.nu2 == 0


def test_sequential_bound_is_max_of_terms():
    for seed in range(6):
        plan = random_plan(16, 0.5, seed=seed)
        rep = sequential_bound(plan, 16, 4, 2)
        assert rep.sequential_bound == max(rep.term_input, rep.term_t, rep.term_nu2)


def test_parallel_bound():
    val = parallel_bound(uniform_plan(16, 8), 16, 4, 1, 7)
    rep = sequential_bound(uniform_plan(16, 8), 16, 4, 1)
    assert float(val) == pytest.approx(float(rep.term_t) / 7)
    # P=1, Bm=1 reduces to the max of the two non-input terms
    val1 = parallel_bound(uniform_plan(16, 2), 16, 4, 1, 1)
    assert val1 == 196
    # no MSPs -> 0
    assert parallel_bound(uniform_plan(4, 2), 4, 4, 1, 3) == 0


def test_parallel_bound_requires_small_cache():
    with pytest.raises(ValueError):
        parallel_bound(uniform_plan(4, 2), 4, 16, 1, 2)


def test_uniform_closed_form_values():
    assert uniform_inner_term(16, 8, 4) == 224
    assert uniform_closed_form(16, 8, 4, 1) == 512
    assert uniform_inner_term(16, 2, 4) == 196
    assert uniform_closed_form(16, 2, 4, 1) == 512
    # boundary: n0 = 2 sqrt(M) exactly collapses both max clauses
    lhs = uniform_inner_term(32, 4, 4)
    assert lhs == Fraction(7 ** 3) * 4
    assert uniform_parallel_closed_form(16, 8, 4, 1, 7) == Fraction(224, 7)


def test_closed_form_matches_enumeration_up_to_constants():
    # ratio between the walked bound and the closed form stays within
    # [c/8, 8] across the sweep
    lo, hi = BOUND_CONSTANT_C / 8, 8.0
    for n in (8, 16, 32, 64, 128, 256):
        n0 = 1
        while n0 <= n:
            for m in (1, 4, 16, 64):
                plan = uniform_plan(n, n0)
                seq = float(sequential_bound(plan, n, m, 1).sequential_bound)
                closed = float(uniform_closed_form(n, n0, m, 1))
                assert lo <= seq / closed <= hi, (n, n0, m, seq, closed)
            n0 *= 2


def test_monotonicity_under_leaf_expansion():
    # replacing a standard leaf above the threshold by a fast node with
    # seven standard children moves |T| down by at most the old leaf cube
    # and cannot drop nu1+nu2 by more than one
    m = 4
    leaf = StandardLeaf(IT, 8)
    plan = FastNode(STRASSEN, (leaf,) * 7)
    expanded_leaf = FastNode(STRASSEN, (StandardLeaf(IT, 4),) * 7)
    plan2 = FastNode(STRASSEN, (expanded_leaf,) + (leaf,) * 6)
    m1 = enumerate_msps(plan, m)
    m2 = enumerate_msps(plan2, m)
    assert type1_cubes(m1) - type1_cubes(m2) <= 8 ** 3
    n_old = len(m1)
    n_new = len(m2)
    assert n_new >= n_old - 1


def test_trace_cross_check_with_t_total():
    # when every leaf is a Type 1 MSP, the engine's elementary-product count
    # equals |T|
    rng = np.random.default_rng(0)
    plan = uniform_plan(16, 4)
    _, trace = execute(plan, Matrix.random(16, rng), Matrix.random(16, rng))
    msps = enumerate_msps(plan, 4)  # threshold 4: every leaf qualifies
    assert all(d.msp_type == 1 for d in msps)
    assert trace.total_elementary_products() == type1_cubes(msps)


def leaf_paths_in_dfs_order(plan):
    out = []

    def rec(node, path):
        if isinstance(node, StandardLeaf):
            out.append((path, node.size))
            return
        for i, child in enumerate(node.children):
            rec(child, path + (i,))

    rec(plan, ())
    return out


def test_trace_restricted_to_type1_paths():
    # mixed plan: only the leaves that are Type 1 MSPs contribute to |T|;
    # trace leaves arrive in the same depth-first order as the plan walk
    rng = np.random.default_rng(1)
    for seed in range(5):
        plan = random_plan(16, 0.6, seed=seed)
        _, trace = execute(plan, Matrix.random(16, rng), Matrix.random(16, rng))
        leaves = leaf_paths_in_dfs_order(plan)
        assert [s for _, s in leaves] == [s for s, c in trace.leaf_runs for _ in range(c)]
        m = 4
        type1_paths = {d.path for d in enumerate_msps(plan, m) if d.msp_type == 1}
        restricted = sum(size ** 3 for path, size in leaves if path in type1_paths)
        assert restricted == type1_cubes(enumerate_msps(plan, m))


def test_bound_report_json_round_trip():
    import json
    rep = sequential_bound(uniform_plan(16, 8), 16, 4, 1)
    data = json.loads(rep.to_json())
    assert data["nu1"] == 7
    assert data["t_total"] == 3584
    assert data["term_input"] == 512
    assert data["c"] == 0.38988157484


def test_bound_requires_plan_size():
    plan = uniform_plan(16, 4)
    for n in (13, 8, 32):
        with pytest.raises(ValueError):
            sequential_bound(plan, n, 4, 1)


@pytest.mark.parametrize("call", [
    lambda: enumerate_msps(uniform_plan(16, 4), 0),
    lambda: sequential_bound(uniform_plan(16, 4), 16, 0, 1),
    lambda: sequential_bound(uniform_plan(16, 4), 16, 4, 0),
    lambda: uniform_closed_form(16, 4, 0, 1),
    lambda: uniform_closed_form(16, 4, 4, -1),
    lambda: uniform_parallel_closed_form(16, 4, 4, 0, 2),
    lambda: uniform_parallel_closed_form(16, 4, 4, 1, 0),
], ids=["msps-m0", "seq-m0", "seq-b0", "closed-m0", "closed-b-1", "par-closed-bm0",
        "par-closed-p0"])
def test_sizes_below_one_refused(call):
    with pytest.raises(ValueError, match="must be >= 1"):
        call()
