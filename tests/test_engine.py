import itertools
import tracemalloc

import numpy as np
import pytest

import hybridmm.engine
from hybridmm.engine import _combine, _quads, execute, execute_stacked
from hybridmm.plans import (STRASSEN, WINOGRAD, FastNode, StandardLeaf, StandardVariant,
                            plan_stats, random_plan, uniform_plan)
from hybridmm.ringmat import DEFAULT_MODULUS, Matrix, mat_mul_naive, matmul_pyint

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


def _combine_oracle(coeffs, quads, p):
    total = np.zeros(quads[0].shape, dtype=object)
    for c, q in zip(coeffs, quads):
        total = total + c * q.astype(object)
    return total % p


def _combine_operands(k, p, seed):
    # blocks of shape (2, 3, 2, 2): filled with 0, 1 and p-1, entries drawn
    # from {0, 1, p-1}, and uniform in [0, p)
    rng = np.random.default_rng(seed)
    shape = (2, 3, 2, 2)
    sets = [[np.full(shape, v, dtype=np.int64) for _ in range(k)] for v in (0, 1, p - 1)]
    sets.append([rng.choice(np.array([0, 1, p - 1]), size=shape) for _ in range(k)])
    sets.append([rng.integers(0, p, size=shape, dtype=np.int64) for _ in range(k)])
    return sets


@pytest.mark.parametrize("k", [4, 7])
@pytest.mark.parametrize("p", [DEFAULT_MODULUS, 65537, 3])
def test_combine_matches_python_int_oracle(k, p):
    # every coefficient row, written to a fresh array, into a contiguous
    # slice of a stack, and into a strided quadrant
    stack = np.empty((7, 2, 3, 2, 2), dtype=np.int64)
    whole = np.empty((2, 3, 4, 4), dtype=np.int64)
    for quads in _combine_operands(k, p, seed=k):
        for row in itertools.product((-1, 0, 1), repeat=k):
            want = _combine_oracle(row, quads, p)
            assert np.array_equal(_combine(row, quads, p), want), row
            _combine(row, quads, p, stack[3])
            assert np.array_equal(stack[3], want), row
            _combine(row, quads, p, _quads(whole)[1])
            assert np.array_equal(_quads(whole)[1], want), row


def test_combine_edge_rows():
    p = DEFAULT_MODULUS
    zeros = [np.zeros((3, 2, 2), dtype=np.int64) for _ in range(7)]
    # an all-negative row on zero blocks shifts to exactly neg * p, which
    # must reduce to 0, not p
    for row in ((-1, -1, -1, -1), (-1, 0, 0, 0), (-1,) * 7):
        out = _combine(row, zeros, p)
        assert out.dtype == np.int64 and not out.any()
    # a lone +1 term is the block itself, untouched
    blocks = [np.full((3, 2, 2), v, dtype=np.int64) for v in range(4)]
    assert _combine((0, 0, 1, 0), blocks, p) is blocks[2]
