"""Exact dense matrix arithmetic over a prime field.

All matrix entries live in Z/pZ for a fixed prime p (default 2**31 - 1), so
every correctness check in the package is an equality check; there is no
floating point anywhere and therefore no tolerance to pick.

Matrices are square, row-major, immutable, and backed by int64 numpy arrays.
The multiplication kernel splits one factor into high/low 16-bit halves so
that every intermediate sum stays below 2**63 for moduli below 2**31 and
inner dimensions up to 2**16; the result is the exact product mod p.
Outside those limits ``matmul_mod`` raises ValueError.
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

    def __add__(self, other):
        return mat_add(self, other)

    def __sub__(self, other):
        return mat_sub(self, other)

    def __matmul__(self, other):
        return mat_mul_naive(self, other)

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


def matmul_mod(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    """Exact stacked matmul of int64 arrays with entries in [0, p).

    Splitting b into 16-bit halves keeps every dot-product accumulation
    below 2**63 for p < 2**31 and inner dimensions up to 2**16, so the
    computation is exact integer arithmetic throughout; outside those
    limits it raises ValueError.
    """
    _check_exact(modulus, a.shape[-1])
    b_hi, b_lo = np.divmod(b, 1 << 16)
    hi = np.matmul(a, b_hi) % modulus
    lo = np.matmul(a, b_lo) % modulus
    return ((hi << 16) + lo) % modulus


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
