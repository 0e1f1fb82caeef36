"""Exact dense matrix arithmetic over a prime field.

All matrix entries live in Z/pZ for a fixed prime p (default 2**31 - 1), so
every correctness check in the package is an equality check, with no
tolerance to pick.

Matrices are square, row-major, immutable, and backed by int64 numpy arrays.
``matmul_mod`` returns the exact product mod p for moduli below 2**31 and
inner dimensions k up to 2**16, and raises ValueError outside those limits.
At k = 1 (the 1x1 leaves of a plan cut off at n0 = 1) each entry is a
single product below 2**62, taken in int64 and reduced once.  Every other
product follows one rule, after the FFLAS library's limbs: b is cut into as
many limbs as k needs for each ``a @ limb`` to stay below 2**53, where
float64 is exact, and the limb products are combined by Horner's rule in
int64.  They run in float64 BLAS from k = ``BLAS_MIN_INNER`` = 8 and in
int64 below it.  Every reduction is a division by the modulus, which numpy
does as a multiply and a shift, instead of its slower ``%``.
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


# matmul_mod's limb products run in float64 BLAS from an inner dimension of
# BLAS_MIN_INNER up and in int64 below it.  Microseconds per call, int64 /
# float64, the dtype forced, on a 2-core x86-64 machine shared with other
# jobs (numpy 2.4, OpenBLAS on 2 threads), for one k x k product / a stack
# of 7 / a stack of 49:
#   inner  4:  21.2 / 26.4    23.5 / 28.6    40.4 / 44.2
#   inner  8:  22.8 / 26.5    35.6 / 33.7     120 / 69.3
#   inner 16:  34.8 / 30.6     115 / 50.0     672 /  180
# A single product at inner 8 pays a few microseconds more on BLAS than in
# int64; a stack of 7 breaks even.
BLAS_MIN_INNER = 8


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
    one reduction.  Otherwise b is cut into limbs of w = min(16, 22 -
    ceil(log2 k)) bits, most significant first, and the product is
    ``sum_i (a @ limb_i) * 2**(w*i)``, taken by Horner's rule: ``acc =
    (acc mod p) << w; acc += a @ limb``, reduced once more at the end.
    Each limb product sums k terms below 2**31 * 2**w, so every sum is
    below k * 2**(31 + w) <= 2**53, which float64 holds exactly; ``(acc mod
    p) << w`` is below 2**47, so ``acc`` stays below 2**54.  That is two
    limbs up to k = 64, three up to 2048 and six at 2**16.  The limb
    products run in float64 BLAS from an inner dimension of
    ``BLAS_MIN_INNER`` up and in int64 below it.  The kernel is exact for
    p < 2**31 and inner dimensions up to 2**16; outside those limits it
    raises ValueError.
    """
    k = a.shape[-1]
    _check_exact(modulus, k)
    if k == 1 and a.ndim > 1 and b.ndim > 1:
        # an outer product: each entry is one product below 2**62
        return a * b % modulus
    w = min(16, 22 - (k - 1).bit_length())
    top = 30 // w * w  # the shift of the most significant limb
    dtype = np.float64 if k >= BLAS_MIN_INNER else np.int64
    a = a.astype(dtype, copy=False)
    # one limb is alive at a time, built in place; the top one needs no mask
    limb = np.right_shift(b, top, out=np.empty(b.shape, dtype))
    acc = np.matmul(a, limb).astype(np.int64, copy=False)
    for shift in range(top - w, -1, -w):
        np.bitwise_and(b >> shift if shift else b, (1 << w) - 1, out=limb)
        acc = _reduce(acc, modulus)
        acc <<= w
        acc += np.matmul(a, limb).astype(np.int64, copy=False)
    return _reduce(acc, modulus)


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
