"""Exact dense matrix arithmetic over a prime field.

All matrix entries live in Z/pZ for a fixed prime p (default 2**31 - 1), so
every correctness check in the package is an equality check, with no
tolerance to pick.

Matrices are square, row-major, immutable, and backed by int64 numpy arrays.
``matmul_mod`` returns the exact product mod p for moduli below 2**31 and
inner dimensions up to 2**16, and raises ValueError outside those limits.
It has three exact paths, chosen by inner dimension alone.  At inner
dimension 1 (the 1x1 leaves of a plan cut off at n0 = 1) each entry is a
single product below 2**62, taken in int64 and reduced once.  Below
``LIMB_MIN_INNER`` it multiplies in int64, splitting one factor into 16-bit
halves so that every sum stays below 2**63.  From there up it splits both
factors into 16-bit limbs and runs four float64 matrix products through
BLAS, as the FFLAS library does: each partial sum is an integer below 2**53
(inner dimension times (2**16 - 1)**2 stays below 2**53 up to 2**21), which
float64 holds exactly, and the limb products are recombined mod p in int64.
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


# Inner dimension from which matmul_mod takes the float64 limb path.  The
# limb path costs about 20 us more per call and wins on the work, so the
# crossover moves down as stacks grow.  Milliseconds per call, int64 against
# limbs, on a 2-core x86-64 machine (numpy 2.4, OpenBLAS on 2 threads), for
# one product / a stack of 7 / a stack of 49:
#   inner  8: 0.016 vs 0.036 / 0.021 vs 0.028 / 0.14 vs 0.11
#   inner 16: 0.028 vs 0.041 / 0.087 vs 0.059 / 0.73 vs 0.34
#   inner 32: 0.10 vs 0.063  / 0.45 vs 0.18   / 6.2 vs 3.0
# and one 256^3 product 54 against 4.1 ms.
LIMB_MIN_INNER = 16


def _limbs(x: np.ndarray):
    """(hi, lo) float64 arrays with x = hi * 2**16 + lo, for 0 <= x < 2**31."""
    hi = np.empty(x.shape)
    lo = np.empty(x.shape)
    np.right_shift(x, 16, out=hi)
    np.bitwise_and(x, 0xFFFF, out=lo)
    return hi, lo


def matmul_mod(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    """Exact stacked matmul of int64 arrays with entries in [0, p).

    At inner dimension 1 the product is a broadcast elementwise product and
    one reduction.  Below an inner dimension of ``LIMB_MIN_INNER`` the
    product is taken in int64 with b split into 16-bit halves, keeping every
    sum below 2**63.
    From there up, a and b are split into 16-bit limbs, ``x = hi * 2**16 +
    lo`` with hi < 2**15, and the four limb products run as float64 BLAS
    matmuls.  For inner dimension k each partial sum is an integer below
    k * 2**32, under 2**53 for k up to 2**21, so float64 holds it exactly.
    The limb products are recombined mod p in int64 in base 2**16:
    ``(S_hh << 16) + S_hl + S_lh`` stays below 2**62 + 2**48 for k up to
    2**16, and after one reduction ``(t << 16) + S_ll`` below 2**49.
    All three paths are exact for p < 2**31 and inner dimensions up to 2**16;
    outside those limits it raises ValueError.
    """
    _check_exact(modulus, a.shape[-1])
    if a.shape[-1] == 1 and a.ndim > 1 and b.ndim > 1:
        # an outer product: each entry is one product below 2**62
        return a * b % modulus
    if a.shape[-1] < LIMB_MIN_INNER:
        b_hi, b_lo = np.divmod(b, 1 << 16)
        hi = np.matmul(a, b_hi) % modulus
        lo = np.matmul(a, b_lo) % modulus
        return ((hi << 16) + lo) % modulus
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
    t %= modulus
    t <<= 16
    t += np.matmul(a_lo, b_lo).astype(np.int64)
    t %= modulus
    return t


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
