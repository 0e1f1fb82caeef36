import numpy as np
import pytest

import hybridmm.ringmat
from hybridmm.ringmat import (BUDGET, DEFAULT_MODULUS, Matrix, _balanced_bound, _digits, _reduce,
                              mat_add, mat_mul_naive, mat_sub, matmul_mod, matmul_pyint)

P = DEFAULT_MODULUS


def ref_matmul(a, b):
    """Pure-Python triple loop; the oracle for the vectorized kernel."""
    n, p = a.n, a.modulus
    rows = [[sum(a[i, k] * b[k, j] for k in range(n)) % p for j in range(n)]
            for i in range(n)]
    return Matrix(rows, p)


def test_add_frozen_example():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[5, 6], [7, 8]])
    assert mat_add(a, b) == Matrix.from_rows([[6, 8], [10, 12]])


def test_add_identities():
    rng = np.random.default_rng(0)
    a = Matrix.random(5, rng)
    zero = Matrix.zeros(5)
    assert mat_add(a, zero) == a
    neg = mat_sub(zero, a)
    assert mat_add(a, neg) == zero


def test_sub_frozen_example():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[5, 6], [7, 8]])
    assert mat_sub(b, a) == Matrix.from_rows([[4, 4], [4, 4]])
    assert mat_sub(a, a) == Matrix.zeros(2)
    assert mat_sub(a, Matrix.zeros(2)) == a


def test_mul_frozen_example():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[5, 6], [7, 8]])
    assert mat_mul_naive(a, b) == Matrix.from_rows([[19, 22], [43, 50]])


def test_mul_identities():
    rng = np.random.default_rng(1)
    a = Matrix.random(6, rng)
    assert mat_mul_naive(a, Matrix.identity(6)) == a
    assert mat_mul_naive(Matrix.zeros(6), a) == Matrix.zeros(6)


def test_mul_matches_reference_triple_loop():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3, 5, 8):
        a = Matrix.random(n, rng)
        b = Matrix.random(n, rng)
        assert mat_mul_naive(a, b) == ref_matmul(a, b)


def test_matmul_mod_no_overflow_with_extreme_entries():
    n = 64
    a = np.full((n, n), P - 1, dtype=np.int64)
    b = np.full((n, n), P - 1, dtype=np.int64)
    out = matmul_mod(a, b, P)
    expected = (n * (P - 1) * (P - 1)) % P
    assert np.all(out == expected)


def test_matmul_mod_exactness_limits():
    # at the limits the sums are still exact: six limbs of 6 bits at k = 2**16
    k = 1 << 16
    a = np.full((1, k), P - 1, dtype=np.int64)
    assert matmul_mod(a, a.T.copy(), P)[0, 0] == (k * (P - 1) * (P - 1)) % P
    assert np.array_equal(matmul_mod(a, a.T.copy(), P), matmul_pyint(a, a.T.copy(), P))
    # past them the kernel refuses, for the cost the message names
    with pytest.raises(ValueError, match="inner dimension .* cost cap"):
        matmul_mod(np.ones((1, k + 1), dtype=np.int64),
                   np.ones((k + 1, 1), dtype=np.int64), P)
    big = (1 << 40) + 15
    m = np.full((8, 8), big - 1, dtype=np.int64)
    with pytest.raises(ValueError, match="modulus"):
        matmul_mod(m, m, big)
    # the Python-int oracle has no such limit
    mb = Matrix(m, big)
    assert mat_mul_naive(mb, mb) == ref_matmul(mb, mb)


@pytest.mark.parametrize("p", [0, 1, -7])
def test_modulus_below_two_refused(p):
    # no ring to reduce into: 0 would divide by zero, -7 return negative entries
    a = np.ones((4, 4), dtype=np.int64)
    with pytest.raises(ValueError, match="below 2"):
        Matrix(a, p)
    with pytest.raises(ValueError, match="below 2"):
        matmul_mod(a, a, p)


@pytest.mark.parametrize("p", [P, 65537, 3])
@pytest.mark.parametrize("k", [1, 2, 15, 16, 17, 64])
def test_matmul_mod_matches_pyint_on_both_paths(k, p):
    # stacked non-square operands, uniform and all p-1: the outer product at
    # k = 1, two int64 limb products at k = 2, two float64 ones from 15 to 64
    rng = np.random.default_rng(k)
    a = rng.integers(0, p, size=(2, 3, 5, k), dtype=np.int64)
    b = rng.integers(0, p, size=(2, 3, k, 4), dtype=np.int64)
    assert np.array_equal(matmul_mod(a, b, p), matmul_pyint(a, b, p))
    top_a = np.full((3, 5, k), p - 1, dtype=np.int64)
    top_b = np.full((3, k, 4), p - 1, dtype=np.int64)
    assert np.array_equal(matmul_mod(top_a, top_b, p), matmul_pyint(top_a, top_b, p))


def test_matmul_mod_inner_dimension_one():
    # the 1x1 leaves of an n0 = 1 plan: stacks as the engine builds them,
    # non-square and broadcast stacks, all entries p-1 and strided views
    rng = np.random.default_rng(7)
    cases = [((7, 7, 64, 1, 1), (7, 7, 64, 1, 1)), ((3, 5, 1), (3, 1, 4)),
             ((2, 1, 5, 1), (3, 1, 4)), ((1, 1), (1, 1))]
    for sa, sb in cases:
        for a, b in ((rng.integers(0, P, size=sa, dtype=np.int64),
                      rng.integers(0, P, size=sb, dtype=np.int64)),
                     (np.full(sa, P - 1, dtype=np.int64), np.full(sb, P - 1, dtype=np.int64))):
            assert np.array_equal(matmul_mod(a, b, P), matmul_pyint(a, b, P))
    x = np.full((7, 2, 2), P - 1, dtype=np.int64)
    assert np.array_equal(matmul_mod(x[:, :1, 1:], x[:, 1:, :1], P),
                          matmul_pyint(x[:, :1, 1:], x[:, 1:, :1], P))


@pytest.mark.parametrize("k", [8, 16, 32])
def test_matmul_mod_on_quadrant_views(k):
    # the engine passes quadrants of a stacked operand: strided views
    rng = np.random.default_rng(k)
    x = rng.integers(0, P, size=(7, 2 * k, 2 * k), dtype=np.int64)
    y = rng.integers(0, P, size=(7, 2 * k, 2 * k), dtype=np.int64)
    for a, b in ((x[:, :k, k:], y[:, k:, :k]), (x[:, k:, k:], y[:, :k, :k])):
        assert not a.flags.c_contiguous
        assert np.array_equal(matmul_mod(a, b, P), matmul_pyint(a, b, P))


def _strided(x):
    # x as the bottom-right quadrant of a larger array, so that its rows
    # (or, for one row, its stack entries) do not abut
    r, c = x.shape[-2:]
    big = np.zeros(x.shape[:-2] + (2 * r, 2 * c), dtype=np.int64)
    big[..., r:, c:] = x
    return big[..., r:, c:]


@pytest.mark.parametrize("p", [3, 65537, P])
@pytest.mark.parametrize("k", [1, 7, 8, 63, 64, 65, 256, 2048, 2049])
def test_matmul_mod_path_edges(k, p):
    # a stack of 16 products of 8 x k by k x 8, up to k = 256, and one 3 x k
    # by k x 2 product: the outer product at k = 1, then the digit loop
    rng = np.random.default_rng([k, p])
    stacked = [((16, 8, k), (16, k, 8))] if k <= 256 else []
    for sa, sb in stacked + [((3, k), (k, 2))]:
        for a, b in ((rng.integers(0, p, size=sa, dtype=np.int64),
                      rng.integers(0, p, size=sb, dtype=np.int64)),
                     (np.full(sa, p - 1, dtype=np.int64), np.full(sb, p - 1, dtype=np.int64))):
            want = matmul_pyint(a, b, p)
            assert np.array_equal(matmul_mod(a, b, p), want)
            assert np.array_equal(matmul_mod(_strided(a), _strided(b), p), want)


def _extremes(shape, p, axis):
    # the balanced residues of largest magnitude: every entry (p-1)/2, every
    # entry (p+1)/2, and the two alternating along ``axis``
    lo, hi = (p - 1) // 2, (p + 1) // 2
    odd = np.indices(shape)[axis] % 2 == 1
    return [np.full(shape, lo, dtype=np.int64), np.full(shape, hi, dtype=np.int64),
            np.where(odd, hi, lo), np.where(odd, lo, hi)]


def _digit_extreme(k, p):
    # the largest residue within p // 2 + 1 whose balanced digits below the
    # top one are all 2**(w-1) - 1: with a = (p-1)/2 every digit product's
    # sums come as near 2**52 as the digit width allows, with odd low bits,
    # so a width two bits too wide rounds
    w, count = _digits(k, p)
    low = sum(((1 << (w - 1)) - 1) << (w * j) for j in range(count - 1))
    top = min((_balanced_bound(p) - low) >> (w * (count - 1)), 1 << (w - 1))
    return low + (top << (w * (count - 1)))


def _digit_count_edges(p):
    # every k below the cap after which the digit count changes
    counts = [_digits(k, p)[1] for k in range(2, (1 << 16) + 1)]
    return [k for k, (c, d) in enumerate(zip(counts, counts[1:]), start=2) if c != d]


def test_digit_counts_and_exactness_edge():
    # two digits up to k = 126, then three, four, five and six, as the
    # kernel's docstring says; one at every k for small moduli
    assert _digit_count_edges(P) == [126, 4094, 32766, 65534]
    assert [_digits(k, P)[1] for k in (2, 127, 4095, 32767, 1 << 16)] == [2, 3, 4, 5, 6]
    assert _digit_count_edges(65537) == _digit_count_edges(3) == []
    assert _digits(1 << 16, 65537)[1] == _digits(1 << 16, 3)[1] == 1
    # the sums stay exact until no digit width is left, past 2**16
    for p in (3, 65537, P):
        edge = BUDGET // _balanced_bound(p) - 2
        assert _digits(edge, p) == (1, (_balanced_bound(p) - 1).bit_length() + 1)
        assert _digits(edge + 1, p) == (0, 0)
    assert _digits(1 << 16, P)[0] == 6


def test_matmul_mod_exact_past_the_cost_cap(monkeypatch):
    # with the cap lifted, a 1 x k by k x 1 product of extreme balanced
    # residues at k = 2**17 is still exact: 2**16 is not an exactness limit
    k = 1 << 17
    monkeypatch.setattr(hybridmm.ringmat, "_check_exact", lambda modulus, inner: None)
    for a in _extremes((1, k), P, axis=1):
        b = a.T.copy()
        assert np.array_equal(matmul_mod(a, b, P), matmul_pyint(a, b, P))


@pytest.mark.parametrize("p", [3, 65537, P])
def test_matmul_mod_balanced_extremes(p):
    # operands of the largest balanced residues, and b of the largest
    # digits, at k = 1, 2, 7, 8, 64, 65, 2048, 2049 and on both sides of
    # every change in the digit count, as int64 residues and as the float64
    # integers the engine passes
    ks = {1, 2, 7, 8, 64, 65, 2048, 2049}
    ks.update(k + d for k in _digit_count_edges(p) for d in (0, 1))
    for k in sorted(ks):
        v = _digit_extreme(k, p) if k > 1 else 0
        for a in _extremes((3, k), p, axis=1):
            for b in _extremes((k, 2), p, axis=0) + [np.full((k, 2), v), np.full((k, 2), p - v)]:
                want = matmul_pyint(a, b, p)
                assert np.array_equal(matmul_mod(a, b, p), want), (k, a[0, :2], b[:2, 0])
                got = matmul_mod(a.astype(np.float64), b.astype(np.float64), p)
                assert got.dtype == np.float64 and np.abs(got).max() <= p
                assert np.array_equal(got.astype(np.int64) % p, want), k


@pytest.mark.parametrize("p", [3, 65537, P])
def test_matmul_mod_float_operands(p):
    # float64 operands may hold any integers within BUDGET; the result is
    # congruent to the product and of magnitude at most p
    rng = np.random.default_rng(p)
    for k in (1, 2, 16, 127):
        a = rng.integers(-BUDGET, BUDGET + 1, size=(4, 5, k), dtype=np.int64)
        b = rng.integers(-BUDGET, BUDGET + 1, size=(4, k, 3), dtype=np.int64)
        a[0] = BUDGET
        b[1] = -BUDGET
        got = matmul_mod(a.astype(np.float64), b.astype(np.float64), p)
        assert got.dtype == np.float64 and np.abs(got).max() <= p
        assert np.array_equal(got.astype(np.int64) % p, matmul_pyint(a, b, p))


def test_matmul_mod_float_operands_are_scratch():
    # float64 operands are reduced in place; one array as both operands, or
    # two views of one array, still multiplies exactly
    rng = np.random.default_rng(5)
    x = rng.integers(0, P, size=(2, 16, 16), dtype=np.int64)
    want = matmul_pyint(x, x, P)
    xf = x + 3.0 * P
    assert np.array_equal(matmul_mod(xf, xf, P).astype(np.int64) % P, want)
    assert np.abs(xf).max() <= _balanced_bound(P)
    y = np.concatenate([x, x], axis=-1) - 5.0 * P
    assert np.array_equal(matmul_mod(y[..., :16], y[..., 16:], P).astype(np.int64) % P, want)


@pytest.mark.parametrize("p", [3, 65521, 65537, P, 2147483629])
def test_reduce_is_balanced_and_exact_within_budget(p):
    x = np.array([0, 1, -1, p, -p, p // 2, -(p // 2), p // 2 + 1, BUDGET, -BUDGET, BUDGET - 1,
                  BUDGET // p * p, -(BUDGET // p * p), BUDGET // p * p - p // 2],
                 dtype=np.int64)
    x = np.concatenate([x, np.random.default_rng(p).integers(-BUDGET, BUDGET + 1, size=10_000)])
    r = _reduce(x.astype(np.float64), p)
    assert np.abs(r).max() <= _balanced_bound(p)
    assert np.array_equal((x - r.astype(np.int64)) % p, np.zeros_like(x))


def test_out_of_range_cast_is_an_error():
    # pyproject.toml makes RuntimeWarning an error under pytest, so a float
    # sum past the int64 range, cast back by the kernel, fails a test
    # instead of returning garbage
    with pytest.raises(RuntimeWarning, match="invalid value encountered in cast"):
        np.array([2.0 ** 63]).astype(np.int64)


def test_bilinearity():
    rng = np.random.default_rng(3)
    a = Matrix.random(4, rng)
    b = Matrix.random(4, rng)
    b2 = Matrix.random(4, rng)
    left = mat_mul_naive(a, mat_add(b, b2))
    right = mat_add(mat_mul_naive(a, b), mat_mul_naive(a, b2))
    assert left == right


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        mat_add(Matrix.zeros(2), Matrix.zeros(3))
    with pytest.raises(ValueError, match="modulus mismatch"):
        mat_sub(Matrix.zeros(2), Matrix.zeros(2, 65537))
    with pytest.raises(ValueError):
        mat_mul_naive(Matrix.zeros(4), Matrix.zeros(2))


def test_matrix_immutable():
    a = Matrix.zeros(2)
    with pytest.raises(AttributeError):
        a.n = 3
    with pytest.raises(ValueError):
        a.data[0, 0] = 1
