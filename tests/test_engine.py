import itertools
import tracemalloc

import numpy as np
import pytest

import hybridmm.engine
from hybridmm.engine import (_from_layout, _shallowest_leaf_depth, _to_layout, _within, execute,
                             execute_stacked)
from hybridmm.plans import (STRASSEN, WINOGRAD, FastNode, FastScheme, StandardLeaf,
                            StandardVariant, plan_stats, random_plan, uniform_plan)
from hybridmm.ringmat import (BUDGET, DEFAULT_MODULUS, Matrix, _balanced_bound, _lift, _reduce,
                              mat_mul_naive, matmul_pyint)

IT = StandardVariant.ITERATIVE_DEF
BR = StandardVariant.BLOCK_RECURSIVE


def standard(variant, a, b):
    return execute(StandardLeaf(variant, a.n), a, b)[0]


def test_standard_leaf_matches_oracle():
    rng = np.random.default_rng(0)
    a = Matrix.random(8, rng)
    b = Matrix.random(8, rng)
    c, _ = execute(StandardLeaf(IT, 8), a, b)
    assert c == mat_mul_naive(a, b)


def test_strassen_2x2_frozen_example():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[5, 6], [7, 8]])
    c, _ = execute(uniform_plan(2, 1, STRASSEN), a, b)
    assert c == Matrix.from_rows([[19, 22], [43, 50]])


def test_uniform_16_4_oracle_50_pairs():
    rng = np.random.default_rng(1)
    plan = uniform_plan(16, 4)
    a = rng.integers(0, DEFAULT_MODULUS, size=(50, 16, 16), dtype=np.int64)
    b = rng.integers(0, DEFAULT_MODULUS, size=(50, 16, 16), dtype=np.int64)
    out, _ = execute_stacked(plan, a, b)
    assert np.array_equal(out, matmul_pyint(a, b, DEFAULT_MODULUS))


def test_variants_agree():
    rng = np.random.default_rng(2)
    for _ in range(100):
        a = Matrix.random(8, rng)
        b = Matrix.random(8, rng)
        assert standard(IT, a, b) == standard(BR, a, b)


def test_standard_leaf_edge_cases():
    a = Matrix.from_rows([[7]])
    b = Matrix.from_rows([[9]])
    assert standard(IT, a, b) == Matrix.from_rows([[63]])
    rng = np.random.default_rng(3)
    m = Matrix.random(4, rng)
    assert standard(BR, m, Matrix.identity(4)) == m


def test_size_mismatch_errors():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        execute(uniform_plan(4, 1), Matrix.random(8, rng), Matrix.random(8, rng))
    with pytest.raises(ValueError):
        execute(StandardLeaf(IT, 4), Matrix.random(4, rng), Matrix.random(2, rng))
    with pytest.raises(ValueError, match="moduli differ"):
        execute(uniform_plan(2, 1), Matrix.random(2, rng, 11), Matrix.random(2, rng, 13))
    # execute_stacked checks shapes itself
    a, b = _operands(4, (4, 4))
    for plan, x, y in ((uniform_plan(4, 1), a, b[:2, :2]), (StandardLeaf(IT, 2), a, b)):
        with pytest.raises(ValueError, match="does not match plan size"):
            execute_stacked(plan, x, y)


@pytest.mark.parametrize("plan,runs", [(StandardLeaf(IT, 1), [(1, 1)]),
                                       (StandardLeaf(BR, 4), [(4, 1)]),
                                       (uniform_plan(4, 1), [(1, 49)])],
                         ids=["leaf1", "leaf4", "uniform-n4-n0_1"])
@pytest.mark.parametrize("dtype", [np.int64, np.float64])
@pytest.mark.parametrize("wide", [False, True], ids=["residues", "wide"])
def test_every_root_returns_int64_residues(plan, runs, dtype, wide):
    # a leaf root takes the walk a fast root takes: operands of either
    # dtype, negative or >= p, are left as they are, and the product is
    # int64 in [0, p)
    rng = np.random.default_rng(plan.size)
    p = DEFAULT_MODULUS
    lo, hi = (-2 * p, 2 * p) if wide else (0, p)
    a, b = (rng.integers(lo, hi, size=(2, plan.size, plan.size)).astype(dtype) for _ in "ab")
    a0, b0 = a.copy(), b.copy()
    out, trace = execute_stacked(plan, a, b)
    assert out.dtype == np.int64
    want = matmul_pyint(a0.astype(np.int64), b0.astype(np.int64), p)
    assert np.array_equal(out, want)
    assert np.array_equal(a, a0) and np.array_equal(b, b0)
    assert trace.leaf_runs == runs


def test_trace_leaf_count_matches_plan_stats():
    rng = np.random.default_rng(5)
    for plan in (uniform_plan(8, 2), random_plan(16, 0.5, seed=3),
                 StandardLeaf(BR, 8)):
        a = Matrix.random(plan.size, rng)
        b = Matrix.random(plan.size, rng)
        _, trace = execute(plan, a, b)
        assert trace.leaf_mul_count() == plan_stats(plan).standard_leaves


def test_trace_elementary_products():
    rng = np.random.default_rng(6)
    plan = uniform_plan(8, 2)
    a = Matrix.random(8, rng)
    b = Matrix.random(8, rng)
    _, trace = execute(plan, a, b)
    assert trace.total_elementary_products() == 49 * 8


@pytest.mark.parametrize("scheme", [STRASSEN, WINOGRAD])
def test_oracle_equality_across_plans(scheme):
    rng = np.random.default_rng(8)
    plans = [uniform_plan(16, 2, scheme), uniform_plan(16, 16, scheme),
             random_plan(16, 0.7, seed=1, scheme=scheme)]
    a = rng.integers(0, DEFAULT_MODULUS, size=(20, 16, 16), dtype=np.int64)
    b = rng.integers(0, DEFAULT_MODULUS, size=(20, 16, 16), dtype=np.int64)
    want = matmul_pyint(a, b, DEFAULT_MODULUS)
    for plan in plans:
        out, _ = execute_stacked(plan, a, b)
        assert np.array_equal(out, want)


def test_execute_agrees_with_stacked():
    rng = np.random.default_rng(9)
    plan = uniform_plan(8, 1)
    a = rng.integers(0, DEFAULT_MODULUS, size=(3, 8, 8), dtype=np.int64)
    b = rng.integers(0, DEFAULT_MODULUS, size=(3, 8, 8), dtype=np.int64)
    stacked, _ = execute_stacked(plan, a, b)
    for i in range(3):
        c, _ = execute(plan, Matrix(a[i]), Matrix(b[i]))
        assert np.array_equal(c.data, stacked[i])


def test_exactness_limits_enforced():
    # a 41-bit modulus overflows the int64 kernel; refuse it instead of
    # returning wrong entries
    p = (1 << 40) + 15
    a = np.full((2, 8, 8), p - 1, dtype=np.int64)
    for plan in (StandardLeaf(IT, 8), StandardLeaf(BR, 8), uniform_plan(8, 2)):
        with pytest.raises(ValueError, match="modulus"):
            execute_stacked(plan, a, a, p)
    with pytest.raises(ValueError, match="inner dimension"):
        execute_stacked(StandardLeaf(IT, 1 << 17), a, a)
    for p in (0, 1, -7):
        with pytest.raises(ValueError, match="below 2"):
            execute_stacked(uniform_plan(4, 1), a[:, :4, :4], a[:, :4, :4], p)
    # just below the limit the extreme entries still multiply exactly:
    # 8 * (p-1)^2 = 8 mod p
    top = np.full((2, 8, 8), DEFAULT_MODULUS - 1, dtype=np.int64)
    out, _ = execute_stacked(uniform_plan(8, 2), top, top)
    assert np.all(out == 8)


def _operands(seed, shape):
    rng = np.random.default_rng(seed)
    return (rng.integers(0, DEFAULT_MODULUS, size=shape, dtype=np.int64),
            rng.integers(0, DEFAULT_MODULUS, size=shape, dtype=np.int64))


def _leaves_in_dfs_order(plan):
    if isinstance(plan, StandardLeaf):
        return [plan.size]
    return [s for c in plan.children for s in _leaves_in_dfs_order(c)]


def _expand(trace):
    return [s for s, c in trace.leaf_runs for _ in range(c)]


def _rows_match_oracle(out, a, b):
    # eight rows spread over every quadrant, checked in Python integers
    rows = slice(None, None, a.shape[-2] // 8)
    return np.array_equal(out[rows], matmul_pyint(a[rows], b, DEFAULT_MODULUS))


def test_stacked_walk_calls_leaf_kernel_once_per_level(monkeypatch):
    # a shared subtree is walked once on the stack of its seven operand
    # pairs: one kernel call covers many leaves
    calls = []
    kernel = hybridmm.engine.matmul_mod

    def counting(a, b, modulus):
        calls.append(a.shape)
        return kernel(a, b, modulus)

    monkeypatch.setattr(hybridmm.engine, "matmul_mod", counting)
    a, b = _operands(10, (256, 256))
    out, trace = execute_stacked(uniform_plan(256, 4), a, b)
    assert len(calls) <= 343  # 7^6 = 117,649 leaves
    assert trace.leaf_runs == [(4, 7 ** 6)]
    assert _rows_match_oracle(out, a, b)


def test_equal_leaves_stack(monkeypatch):
    # seven equal leaves are stacked as one shared subtree is, whether or
    # not they are one object; leaves of two variants are not equal
    calls = []
    kernel = hybridmm.engine.matmul_mod

    def counting(a, b, modulus):
        calls.append(a.shape)
        return kernel(a, b, modulus)

    monkeypatch.setattr(hybridmm.engine, "matmul_mod", counting)
    a, b = _operands(18, (3, 16, 16))
    want = matmul_pyint(a, b, DEFAULT_MODULUS)
    equal = FastNode(STRASSEN, tuple(StandardLeaf(BR, 2) for _ in range(7)))
    mixed = FastNode(STRASSEN, (StandardLeaf(IT, 2),) + (StandardLeaf(BR, 2),) * 6)
    # the 49 nodes over the leaves are the first whose stacks fit the limit
    for node, kernel_calls in ((equal, 49), (mixed, 343)):
        plan = FastNode(WINOGRAD, (FastNode(STRASSEN, (node,) * 7),) * 7)
        calls.clear()
        out, trace = execute_stacked(plan, a, b)
        assert np.array_equal(out, want)
        assert len(calls) == kernel_calls and trace.leaf_runs == [(2, 343)]


@pytest.mark.parametrize("n, n0, factor", [(512, 16, 7), (256, 1, 8)])
def test_stacked_walk_memory_peak(n, n0, factor):
    # stacks stay within a quarter of the input, so the peak stays that of
    # a depth-first walk; the trace holds runs, not one entry per leaf
    a, b = _operands(11, (n, n))
    plan = uniform_plan(n, n0)
    tracemalloc.start()
    try:
        out, trace = execute_stacked(plan, a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= factor * a.nbytes
    assert trace.leaf_mul_count() == plan_stats(plan).standard_leaves
    assert _rows_match_oracle(out, a, b)


@pytest.mark.parametrize("scheme", [STRASSEN, WINOGRAD])
def test_stacked_walk_block_recursive_leaves(scheme):
    a, b = _operands(12, (5, 32, 32))
    want = matmul_pyint(a, b, DEFAULT_MODULUS)
    for n0 in (1, 2, 4):
        plan = uniform_plan(32, n0, scheme, BR)
        out, trace = execute_stacked(plan, a, b)
        assert np.array_equal(out, want)
        assert trace.leaf_runs == [(n0, plan_stats(plan).standard_leaves)]


def test_stacked_walk_two_leading_axes():
    a, b = _operands(13, (2, 3, 32, 32))
    out, _ = execute_stacked(uniform_plan(32, 2, WINOGRAD), a, b)
    assert out.shape == (2, 3, 32, 32)
    assert np.array_equal(out, matmul_pyint(a, b, DEFAULT_MODULUS))


def test_mixed_children_with_shared_subtree():
    # the root mixes a shared subtree with distinct ones; the shared one is
    # stacked one level down, where its own children are mixed again
    leaf2 = StandardLeaf(BR, 2)
    mixed4 = FastNode(STRASSEN, (leaf2, uniform_plan(2, 1), leaf2, leaf2,
                                 uniform_plan(2, 1), leaf2, leaf2))
    shared16 = FastNode(STRASSEN, (FastNode(STRASSEN, (mixed4,) * 7),) * 7)
    root = FastNode(WINOGRAD, (shared16, shared16, random_plan(16, 0.6, seed=4),
                               shared16, StandardLeaf(IT, 16), shared16, shared16))
    a, b = _operands(14, (3, 32, 32))
    out, trace = execute_stacked(root, a, b)
    assert np.array_equal(out, matmul_pyint(a, b, DEFAULT_MODULUS))
    assert _expand(trace) == _leaves_in_dfs_order(root)
    assert all(r[0] != s[0] for r, s in zip(trace.leaf_runs, trace.leaf_runs[1:]))


def _row_operands(k, p, seed):
    # k blocks of shape (2, 3, 2, 2): filled with 0, 1 and p-1, entries drawn
    # from {0, 1, p-1}, uniform in [0, p), and signed integers whose sums
    # under any row stay within BUDGET, as the walk's unreduced blocks are
    rng = np.random.default_rng(seed)
    shape = (2, 3, 2, 2)
    top = BUDGET // k
    sets = [[np.full(shape, v, dtype=np.int64) for _ in range(k)] for v in (0, 1, p - 1)]
    sets.append([rng.choice(np.array([0, 1, p - 1]), size=shape) for _ in range(k)])
    sets.append([rng.integers(0, p, size=shape, dtype=np.int64) for _ in range(k)])
    sets.append([rng.choice(np.array([-top, top, 1 - top]), size=shape) for _ in range(k)])
    return sets


@pytest.mark.parametrize("k", [4, 7])
@pytest.mark.parametrize("p", [DEFAULT_MODULUS, 65537, 3])
def test_combine_matches_python_int_oracle(k, p):
    # every row in {-1, 0, 1}^k applied as the walk applies a coefficient
    # matrix: one matmul over k blocks viewed as (Q, k, M), into a fresh
    # array and into a strided view; every combination is exact, and its
    # balanced reduction is congruent to it and within p // 2 + 1
    rows = np.array(list(itertools.product((-1, 0, 1), repeat=k)), dtype=np.float64)
    oracle_rows = rows.astype(np.int64).astype(object)
    for blocks in _row_operands(k, p, seed=k):
        stacked = np.stack(blocks)
        want = np.tensordot(oracle_rows, stacked.astype(object), axes=1)
        # the blocks' first stack axis plays the quadrant axes behind them
        view = stacked.astype(np.float64).reshape(k, 2, -1).transpose(1, 0, 2)
        got = np.matmul(rows, view)
        strided = np.empty((len(rows), 2, view.shape[-1]))
        np.matmul(rows, view, out=strided.transpose(1, 0, 2))
        for combos in (got.transpose(1, 0, 2), strided):
            combos = combos.reshape(want.shape)
            assert np.array_equal(combos.astype(np.int64), want.astype(np.int64))
            reduced = _reduce(combos, p)
            assert np.abs(reduced).max() <= _balanced_bound(p)
            assert not np.any((reduced.astype(np.int64) - want.astype(np.int64)) % p)


def test_combine_edge_rows():
    p = DEFAULT_MODULUS
    # an all-negative row on zero blocks sums to -0.0, which reduces and
    # leaves the walk as 0, not p
    zeros = np.zeros((1, 7, 12))
    for row in ((-1, -1, -1, -1), (-1, 0, 0, 0), (-1,) * 7):
        coeffs = np.array([row + (0,) * (7 - len(row))], dtype=np.float64)
        out = _reduce(np.matmul(coeffs, zeros), p)
        assert not out.any()
        assert np.array_equal(_lift(out.astype(np.int64), p), np.zeros((1, 1, 12), dtype=np.int64))
    a = np.full((2, 8, 8), 0, dtype=np.int64)
    out, _ = execute_stacked(uniform_plan(8, 1), a, a)
    assert out.dtype == np.int64 and not out.any()
    # _within leaves a block alone while the combination fits BUDGET, and
    # reduces it in place when it would not
    x = np.full((3, 4), float(BUDGET // 4))
    assert _within(x, BUDGET // 4, 4, p) == BUDGET // 4 * 4 and x[0, 0] == BUDGET // 4
    assert _within(x, BUDGET // 4 + 1, 4, p) == 4 * _balanced_bound(p)
    assert np.abs(x).max() <= _balanced_bound(p) and (BUDGET // 4 - int(x[0, 0])) % p == 0


@pytest.mark.parametrize("budget", [1 << 33, 1 << 36])
def test_mid_walk_reductions(monkeypatch, budget):
    # a budget this low makes the walk reduce blocks between levels, which
    # it never needs to at these sizes with the real one
    reductions = []
    reduce = hybridmm.engine._reduce

    def counting(x, modulus, out=None):
        assert np.abs(x).max() <= budget
        reductions.append(x.size)
        return reduce(x, modulus, out=out)

    monkeypatch.setattr(hybridmm.engine, "_reduce", counting)
    monkeypatch.setattr(hybridmm.engine, "BUDGET", budget)
    a, b = _operands(17, (2, 64, 64))
    want = matmul_pyint(a, b, DEFAULT_MODULUS)
    for plan in (uniform_plan(64, 1, STRASSEN), uniform_plan(64, 2, WINOGRAD),
                 random_plan(64, 0.8, seed=3)):
        reductions.clear()
        out, _ = execute_stacked(plan, a, b)
        assert np.array_equal(out, want)
        assert len(reductions) > 1  # more than the last one, of the product


@pytest.mark.parametrize("p", [3, 65537, DEFAULT_MODULUS])
def test_balanced_extremes_through_the_walk(p):
    # operands of the largest balanced residues, every entry (p-1)/2 or
    # (p+1)/2 or the two alternating, through plans whose leaves have inner
    # dimension 1, 2, 8, 64 and 128 (three digits at p = 2**31 - 1)
    lo, hi = (p - 1) // 2, (p + 1) // 2
    for n, n0 in ((2, 1), (4, 2), (16, 8), (128, 64), (256, 128)):
        odd = np.indices((n, n)).sum(axis=0) % 2 == 1
        ops = [np.full((n, n), lo), np.full((n, n), hi), np.where(odd, hi, lo), np.where(odd, lo, hi)]
        plan = uniform_plan(n, n0)
        for a in ops:
            for b in ops:
                out, _ = execute_stacked(plan, a, b, p)
                assert np.array_equal(out[::max(n // 8, 1)], matmul_pyint(a[::max(n // 8, 1)], b, p))


@pytest.mark.parametrize("stack", [(), (5,), (2, 3)])
@pytest.mark.parametrize("levels", [0, 1, 3])
def test_layout_round_trip(stack, levels):
    rng = np.random.default_rng(len(stack) + levels)
    x = rng.integers(0, DEFAULT_MODULUS, size=stack + (16, 16), dtype=np.int64)
    y = _to_layout(x, levels)
    assert y.shape == (4,) * levels + stack + (16 >> levels, 16 >> levels)
    assert np.array_equal(_from_layout(y, levels), x)
    if levels:
        # entry q of the layout is quadrant q (top left, top right, bottom
        # left, bottom right), itself laid out one level less
        h = 8
        quads = (x[..., :h, :h], x[..., :h, h:], x[..., h:, :h], x[..., h:, h:])
        for q, quad in enumerate(quads):
            assert np.array_equal(y[q], _to_layout(quad, levels - 1))


def test_layout_walks_match_oracle():
    # a single leaf (no levels), a random plan with a leaf under the root
    # (one level), and a hand-built tree whose largest leaves sit at depth 4:
    # shared subtrees, stacked at depth 2, over mixed children with smaller
    # leaves below
    leaf4 = StandardLeaf(BR, 4)
    mixed8 = FastNode(STRASSEN, (leaf4, uniform_plan(4, 1), StandardLeaf(IT, 4), leaf4,
                                 random_plan(4, 0.5, seed=2), uniform_plan(4, 2, WINOGRAD), leaf4))
    tree = FastNode(WINOGRAD, (FastNode(STRASSEN, (FastNode(STRASSEN, (mixed8,) * 7),) * 7),) * 7)
    rand = random_plan(64, 0.7, seed=1)
    a, b = _operands(15, (2, 64, 64))
    want = matmul_pyint(a, b, DEFAULT_MODULUS)
    for plan, levels in ((StandardLeaf(IT, 64), 0), (rand, 1), (tree, 4)):
        assert _shallowest_leaf_depth(plan) == levels
        out, trace = execute_stacked(plan, a, b)
        assert out.shape == a.shape and out.flags.c_contiguous
        assert np.array_equal(out, want)
        assert _expand(trace) == _leaves_in_dfs_order(plan)


def test_scheme_with_list_rows():
    # FastScheme accepts coefficient rows as lists; a plan built on one runs
    # as one built on tuples does
    lists = FastScheme("strassen-lists", [list(r) for r in STRASSEN.encode_a],
                       [list(r) for r in STRASSEN.encode_b], [list(r) for r in STRASSEN.decode])
    leaf = StandardLeaf(IT, 2)
    plan = FastNode(lists, (FastNode(lists, (leaf,) * 7),) * 7)
    a, b = _operands(16, (3, 8, 8))
    out, _ = execute_stacked(plan, a, b)
    assert np.array_equal(out, matmul_pyint(a, b, DEFAULT_MODULUS))
