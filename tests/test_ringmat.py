import numpy as np
import pytest

from hybridmm.ringmat import (DEFAULT_MODULUS, LIMB_MIN_INNER, Matrix, mat_add,
                              mat_mul_naive, mat_sub, matmul_mod, matmul_pyint)

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
    # at the limits the sums are still exact
    k = 1 << 16
    a = np.full((1, k), P - 1, dtype=np.int64)
    assert matmul_mod(a, a.T.copy(), P)[0, 0] == (k * (P - 1) * (P - 1)) % P
    assert np.array_equal(matmul_mod(a, a.T.copy(), P), matmul_pyint(a, a.T.copy(), P))
    # past them the kernel refuses rather than return wrong entries
    with pytest.raises(ValueError, match="inner dimension"):
        matmul_mod(np.ones((1, k + 1), dtype=np.int64),
                   np.ones((k + 1, 1), dtype=np.int64), P)
    big = (1 << 40) + 15
    m = np.full((8, 8), big - 1, dtype=np.int64)
    with pytest.raises(ValueError, match="modulus"):
        matmul_mod(m, m, big)
    # the Python-int oracle has no such limit
    mb = Matrix(m, big)
    assert mat_mul_naive(mb, mb) == ref_matmul(mb, mb)


@pytest.mark.parametrize("p", [P, 65537, 3])
@pytest.mark.parametrize("k", [1, 2, LIMB_MIN_INNER - 1, LIMB_MIN_INNER,
                               LIMB_MIN_INNER + 1, 64])
def test_matmul_mod_matches_pyint_on_both_paths(k, p):
    # the int64 path below LIMB_MIN_INNER, the limb path from there up;
    # stacked non-square operands, uniform and all p-1
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


@pytest.mark.parametrize("k", [LIMB_MIN_INNER // 2, LIMB_MIN_INNER, 32])
def test_matmul_mod_on_quadrant_views(k):
    # the engine passes quadrants of a stacked operand: strided views
    rng = np.random.default_rng(k)
    x = rng.integers(0, P, size=(7, 2 * k, 2 * k), dtype=np.int64)
    y = rng.integers(0, P, size=(7, 2 * k, 2 * k), dtype=np.int64)
    for a, b in ((x[:, :k, k:], y[:, k:, :k]), (x[:, k:, k:], y[:, :k, :k])):
        assert not a.flags.c_contiguous
        assert np.array_equal(matmul_mod(a, b, P), matmul_pyint(a, b, P))


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
    with pytest.raises(ValueError):
        mat_mul_naive(Matrix.zeros(4), Matrix.zeros(2))


def test_matrix_immutable():
    a = Matrix.zeros(2)
    with pytest.raises(AttributeError):
        a.n = 3
    with pytest.raises(ValueError):
        a.data[0, 0] = 1
