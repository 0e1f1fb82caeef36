"""Exact dense matrix arithmetic over a prime field.

All matrix entries live in Z/pZ for a fixed prime p (default 2**31 - 1), so
every correctness check in the package is an equality check, with no
tolerance to pick.

Matrices are square, row-major, immutable, and backed by int64 numpy arrays.
``matmul_mod`` returns the exact product mod p for moduli below 2**31 and
inner dimensions k up to 2**16, and raises ValueError outside those limits.
It has four exact paths.  At k = 1 (the 1x1 leaves of a plan cut off at
n0 = 1) each entry is a single product below 2**62, taken in int64 and
reduced once.  Up to k = 64 it splits b into 16-bit halves and takes two
products, ``a @ hi`` and ``a @ lo``: every term is below 2**47, so every
sum is below 2**53.  They run in float64 BLAS, which holds such sums
exactly, from k = ``BLAS_MIN_INNER`` = 8, and in int64 below it.  From
k = ``LIMB_MIN_INNER`` = 65 it splits both factors into 16-bit limbs and
runs four float64 products through BLAS, as the FFLAS library does: each
partial sum is an integer below k * 2**32, under 2**53 up to k = 2**21.
The products are recombined mod p in int64 and reduced by a division by
the modulus, which numpy does as a multiply and a shift, instead of its
slower ``%``.
"""

from __future__ import annotations

import numpy as np

DEFAULT_MODULUS = (1 << 31) - 1


class Matrix:
    """Immutable n x n matrix over Z/pZ.

    ``A[i, j]`` returns the entry on row i, column j as a plain int in
    [0, p); ``A[i]`` returns row i as a tuple.
    """

    __slots__ = ("n", "data", "modulus")

    def __init__(self, data, modulus: int = DEFAULT_MODULUS):
        arr = np.asarray(data, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"matrix must be square, got shape {arr.shape}")
        arr = np.mod(arr, modulus)
        arr.flags.writeable = False
        self_set = super().__setattr__
        self_set("n", int(arr.shape[0]))
        self_set("data", arr)
        self_set("modulus", int(modulus))

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def zeros(cls, n: int, modulus: int = DEFAULT_MODULUS) -> "Matrix":
        return cls(np.zeros((n, n), dtype=np.int64), modulus)

    @classmethod
    def identity(cls, n: int, modulus: int = DEFAULT_MODULUS) -> "Matrix":
        return cls(np.eye(n, dtype=np.int64), modulus)

    @classmethod
    def from_rows(cls, rows, modulus: int = DEFAULT_MODULUS) -> "Matrix":
        return cls(np.array(rows, dtype=np.int64), modulus)

    @classmethod
    def random(cls, n: int, rng=None, modulus: int = DEFAULT_MODULUS) -> "Matrix":
        if rng is None:
            rng = np.random.default_rng()
        return cls(rng.integers(0, modulus, size=(n, n), dtype=np.int64), modulus)

    def __getitem__(self, key):
        if isinstance(key, tuple):
            i, j = key
            return int(self.data[i, j])
        return tuple(int(v) for v in self.data[key])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.n == other.n
            and self.modulus == other.modulus
            and bool(np.array_equal(self.data, other.data))
        )

    def __hash__(self):
        return hash((self.n, self.modulus, self.data.tobytes()))

    def __repr__(self):
        return f"Matrix(n={self.n}, data={self.data.tolist()})"


def _check_same_shape(a: Matrix, b: Matrix):
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    if a.modulus != b.modulus:
        raise ValueError("modulus mismatch")


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    """Entrywise sum in the ring."""
    _check_same_shape(a, b)
    return Matrix((a.data + b.data) % a.modulus, a.modulus)


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    """Entrywise difference in the ring."""
    _check_same_shape(a, b)
    return Matrix((a.data - b.data) % a.modulus, a.modulus)


def _check_exact(modulus: int, inner: int):
    """Raise ValueError unless ``matmul_mod`` is exact for this modulus and
    inner dimension."""
    if modulus >= 1 << 31:
        raise ValueError(f"modulus {modulus} is not below 2**31; int64 products would overflow")
    if inner > 1 << 16:
        raise ValueError(f"inner dimension {inner} exceeds 2**16; int64 sums would overflow")


# matmul_mod's paths: the two products run in float64 BLAS from an inner
# dimension of BLAS_MIN_INNER up, in int64 below it; four limbs from
# LIMB_MIN_INNER up, where two products are no longer exact.  Microseconds
# per call, int64 / two float64 products / four limbs, each path forced, on
# a 2-core x86-64 machine shared with other jobs (numpy 2.4, OpenBLAS on 2
# threads), for one k x k product / a stack of 7 / a stack of 49:
#   inner  8:  18.3 / 22.4 / 35.0    29.4 / 29.0 / 46.4     102 / 63.4 / 95.1
#   inner 16:  28.5 / 29.2 / 44.9    94.6 / 48.1 / 71.7     532 /  330 /  455
#   inner 32:  95.1 / 39.9 / 60.2     525 /  106 /  160    4092 / 1551 / 2111
#   inner 64:   569 / 81.2 /  129    3966 /  935 / 1307   19220 / 7051 / 10065
# A single product at inner 8 pays a few microseconds more on BLAS than in
# int64; a stack of 7 breaks even.
BLAS_MIN_INNER = 8
LIMB_MIN_INNER = 65


def _limbs(x: np.ndarray):
    """(hi, lo) float64 arrays with x = hi * 2**16 + lo, for 0 <= x < 2**31."""
    hi = np.empty(x.shape)
    lo = np.empty(x.shape)
    np.right_shift(x, 16, out=hi)
    np.bitwise_and(x, 0xFFFF, out=lo)
    return hi, lo


def _reduce(x: np.ndarray, modulus: int) -> np.ndarray:
    """``x`` reduced mod p, in place unless it is a numpy scalar, for int64
    entries in [0, 2**63).

    It computes ``x - (x // p) * p`` on a uint64 view: numpy divides by a
    scalar with a multiply and a shift, which made ``matmul_mod`` on a
    ``(343, 16, 16)`` stack take 0.69 ms against 1.15 ms with ``%``; a
    single small product pays about 4 us more for its three passes."""
    u = x.view(np.uint64)
    p = np.uint64(modulus)
    q = u // p
    q *= p
    u -= q
    return u.view(np.int64)


def matmul_mod(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    """Exact stacked matmul of int64 arrays with entries in [0, p).

    At inner dimension 1 the product is a broadcast elementwise product and
    one reduction.
    Below an inner dimension of ``LIMB_MIN_INNER`` (k <= 64) b is split into
    16-bit halves, ``b = hi * 2**16 + lo``, and ``a @ hi`` and ``a @ lo``
    are taken: each term is below 2**31 * 2**16 = 2**47, so each sum is
    below 2**53, which float64 holds exactly.  The two products run in
    float64 BLAS from an inner dimension of ``BLAS_MIN_INNER`` up, in int64
    below it, and are recombined as ``((S_hi mod p) << 16) + S_lo``, below
    2**54, and reduced.
    From ``LIMB_MIN_INNER`` up, a is split as well, and the four limb
    products run as float64 BLAS matmuls.  For inner dimension k each
    partial sum is an integer below k * 2**32, under 2**53 for k up to
    2**21.  They are recombined mod p in int64 in base 2**16:
    ``(S_hh << 16) + S_hl + S_lh`` stays below 2**62 + 2**48 for k up to
    2**16, and after one reduction ``(t << 16) + S_ll`` below 2**49.
    Every path is exact for p < 2**31 and inner dimensions up to 2**16;
    outside those limits it raises ValueError.
    """
    k = a.shape[-1]
    _check_exact(modulus, k)
    if k == 1 and a.ndim > 1 and b.ndim > 1:
        # an outer product: each entry is one product below 2**62
        return a * b % modulus
    if k < LIMB_MIN_INNER:
        if k < BLAS_MIN_INNER:
            hi = np.matmul(a, b >> 16)
            lo = np.matmul(a, b & 0xFFFF)
        else:
            b_hi, b_lo = _limbs(b)
            a = a.astype(np.float64)
            hi = np.matmul(a, b_hi).astype(np.int64)
            del b_hi
            lo = np.matmul(a, b_lo).astype(np.int64)
        hi = _reduce(hi, modulus)
        hi <<= 16
        hi += lo
        return _reduce(hi, modulus)
    a_hi, a_lo = _limbs(a)
    b_hi, b_lo = _limbs(b)
    t = np.matmul(a_hi, b_hi).astype(np.int64)
    t <<= 16
    # each limb is dropped after its last product: for square operands at
    # most six arrays of the output's size are alive at once
    mid = np.matmul(a_hi, b_lo)
    del a_hi
    mid += np.matmul(a_lo, b_hi)
    del b_hi
    t += mid.astype(np.int64)
    del mid
    t = _reduce(t, modulus)
    t <<= 16
    t += np.matmul(a_lo, b_lo).astype(np.int64)
    return _reduce(t, modulus)


def matmul_pyint(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    """Stacked product C[..., i, j] = sum_k A[..., i, k] * B[..., k, j] mod p,
    summed in Python integers.

    It shares no code with ``matmul_mod`` and is exact at any modulus and
    inner dimension, so it is the oracle the fast paths are checked against.
    """
    return np.matmul(a.astype(object), b.astype(object)) % modulus


def mat_mul_naive(a: Matrix, b: Matrix) -> Matrix:
    """Definition-based product C[i][j] = sum_k A[i][k] * B[k][j].

    This is the correctness oracle for every other multiplication path in
    the package (see ``matmul_pyint``).
    """
    _check_same_shape(a, b)
    return Matrix(matmul_pyint(a.data, b.data, a.modulus), a.modulus)


def is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0
