"""Exact dense matrix arithmetic over a prime field.

All matrix entries live in Z/pZ for a fixed prime p (default 2**31 - 1), so
every correctness check in the package is an equality check, with no
tolerance to pick.

Matrices are square, row-major, immutable, and backed by int64 numpy arrays.
``matmul_mod`` returns the exact product mod p for moduli below 2**31 and
inner dimensions k up to 2**16, and raises ValueError outside those limits;
2**16 is a cost cap, not an exactness limit.  At k = 1 (the 1x1 leaves of a
plan cut off at n0 = 1) each entry is a single product below 2**62, taken in
int64 and reduced once.  Every other product is taken in float64 BLAS on
exact integers, with delayed modular reduction, after FFLAS (Dumas, Giorgi
& Pernet, "Dense linear algebra over word-size prime fields", ACM TOMS
2008).  The engine's block combinations use the same arithmetic.  That it
is exact rests on three facts.

1. Exact sums.  Every integer of magnitude at most 2**53 is a float64, and
   an operation whose exact result is such an integer returns it exactly.
   A product or sum of integers whose every partial sum stays within 2**53
   is therefore exact in any summation order, blocked or threaded, and with
   or without fused multiply-adds, whose one rounding is then of an exact
   value.  Every BLAS product here sums integer terms whose magnitudes add
   up to at most ``BUDGET`` = 2**52, so no partial sum can leave that range.
2. Balanced reduction.  ``_reduce`` computes ``x - rint(x * (1/p)) * p``.
   For an integer |x| <= 2**52, ``x * (1/p)`` takes two roundings of
   relative size at most 2**-53 each, so it is within (1 + 2**-53) / p of
   x / p, its ``rint`` q is within 1/2 + (1 + 2**-53) / p, and the integer
   x - q * p has magnitude at most p // 2 + 1 (``_balanced_bound``).  q * p
   is at most 2**52 + 2**31 in magnitude and the result is small, so both
   are computed exactly.
3. Digits.  Operands reduced by 2. have entries within r = p // 2 + 1.  b
   is cut into balanced digits of w bits, |d| <= 2**(w - 1), for the
   largest w with (k + 2) * r * 2**(w - 1) <= 2**52 (``_digits``); scaling
   by a power of two, ``rint`` and taking a digit times its place value off
   are exact on these integers.  Each digit product then sums k terms of magnitude at most r * 2**(w - 1), and
   Horner's rule, which adds a reduced residue shifted by w bits, stays
   within (k + 2) * r * 2**(w - 1); both are within 2**52, as 1. and 2.
   need.  w >= 1 holds up to about k = 2**52 / r, 2**22 for p near 2**31.
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
    """Raise ValueError unless ``matmul_mod`` takes this modulus and inner
    dimension."""
    if modulus >= 1 << 31:
        raise ValueError(f"modulus {modulus} is not below 2**31; int64 products would overflow")
    if inner > 1 << 16:
        raise ValueError(
            f"inner dimension {inner} exceeds 2**16, matmul_mod's cost cap: its sums stay exact "
            f"to about 2**22, but for p near 2**31 its digit products grow from six at 2**16 "
            f"to 31 there")


# Integers of magnitude up to 2**53 are float64 values; the kernel and the
# engine keep every value they reduce within BUDGET, half of that range.
BUDGET = 1 << 52


def _balanced_bound(modulus: int) -> int:
    """Largest magnitude of a residue that ``_reduce`` returns."""
    return modulus // 2 + 1


def _reduce(x: np.ndarray, modulus: int, out=None) -> np.ndarray:
    """``x - rint(x * (1/p)) * p`` in float64, into ``out`` (``x`` itself
    included) or a new array: congruent to ``x`` and of magnitude at most
    ``_balanced_bound(p)``, exactly, for integer entries of magnitude at most
    ``BUDGET``."""
    t = np.multiply(x, 1.0 / modulus)
    np.rint(t, out=t)
    t *= modulus
    return np.subtract(x, t, out=t if out is None else out)


def _lift(c: np.ndarray, modulus: int) -> np.ndarray:
    """int64 balanced residues ``c`` moved into [0, p), in place: the sign
    bit, spread by an arithmetic shift, masks the modulus to add."""
    c += (c >> 63) & modulus
    return c


def _digits(k: int, modulus: int) -> tuple:
    """``matmul_mod``'s digit width w and digit count D at inner dimension
    ``k``: w the largest with (k + 2) * r * 2**(w - 1) <= ``BUDGET`` for r =
    ``_balanced_bound(p)``, D the least with r <= 2**(w*D - 1).  At w = 0,
    past about k = 2**52 / r, there is no digit width and D is 0."""
    r = _balanced_bound(modulus)
    w = (BUDGET // ((k + 2) * r)).bit_length()
    return w, -(-((r - 1).bit_length() + 1) // w) if w else 0


def matmul_mod(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    """Exact stacked matmul over Z/pZ, for p < 2**31 and inner dimensions k
    up to 2**16; outside those limits it raises ValueError.

    int64 operands hold entries in [0, p) and the result is int64 in [0, p).
    float64 operands, as the engine passes them, hold integers of magnitude
    at most ``BUDGET``, and the result is float64: integers of magnitude at
    most p.  float64 operands are the caller's scratch: the kernel reduces
    them in place, as FFLAS routines do, so that a leaf of the engine copies
    neither.

    Both operands are first reduced to balanced residues.  At k = 1 the
    product is then a broadcast elementwise product, below 2**62 in int64,
    and one reduction.  Otherwise b is cut into balanced digits (see the
    module docstring), most significant first, each the ``rint`` of what is
    left of b over its place value; one BLAS product is taken per digit, and
    the products are combined by Horner's rule, ``acc = reduce(acc) * 2**w
    + a @ digit``, with a last reduction.  For p = 2**31 - 1 that is two
    digits up to k = 126, three up to 4094, four up to 32766, five up to
    65534 and six at 2**16; for p = 65537, one at every k.  It is exact
    because every partial sum of a digit product, and every Horner sum, is
    an integer within 2**52, which float64 holds whatever the summation
    order, and every reduction of such an integer is exact and within p //
    2 + 1.
    """
    k = a.shape[-1]
    _check_exact(modulus, k)
    floats = a.dtype == np.float64
    a, b = (_reduce(x, modulus, out=x if floats else None) for x in (a, b))
    if k == 1 and a.ndim > 1 and b.ndim > 1:
        # an outer product: each entry is one product below 2**62
        c = a.astype(np.int64) * b.astype(np.int64) % modulus
        return c.astype(np.float64) if floats else c
    w, digits = _digits(k, modulus)
    # b below the digits taken so far, overwritten digit by digit
    rest = b.copy() if np.may_share_memory(a, b) else b
    digit = np.empty_like(rest)
    acc = prod = None
    for shift in range(w * (digits - 1), -1, -w):
        if shift:
            np.multiply(rest, 2.0 ** -shift, out=digit)
            np.rint(digit, out=digit)
            prod = np.matmul(a, digit, out=prod)
            digit *= 2.0 ** shift
            rest -= digit
        else:  # the last digit is what is left
            prod = np.matmul(a, rest, out=prod)
        if acc is None:
            acc, prod = prod, None
        else:
            _reduce(acc, modulus, out=acc)
            acc *= 2.0 ** w
            acc += prod
    _reduce(acc, modulus, out=acc)
    return acc if floats else _lift(acc.astype(np.int64), modulus)


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
