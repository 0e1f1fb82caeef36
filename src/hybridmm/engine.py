"""Execute a recursion plan on concrete matrices.

The recursion works on int64 ndarrays of shape (..., s, s): any leading axes
are broadcast through untouched, so a whole batch of matrix pairs can be run
through one plan in a single tree walk. ``execute`` is the single-pair
surface; ``execute_stacked`` exposes the same core for bulk verification.

The walk is level-synchronous where a plan shares one subtree across all
seven children of a fast node, as ``uniform_plan`` does: the seven encoded
operand pairs are stacked on a new leading axis and the walk descends once,
so a uniform plan costs one call per level instead of one per node.  A
stacked operand may hold at most a quarter of the root operand's entries,
the size of the first encoded operand of a depth-first walk; above that the
seven children are walked one by one, each still carrying its leading axes,
and stacking is tried again one level down.  Mixed children are always
walked one by one.

Every standard leaf is one ``matmul_mod`` call, whatever its variant: over
Z/pZ both variants give the exact product, so the variant is a property of
the CDAG (the summation tree ``cdag`` builds for the leaf), not of a value.
Encodes and decodes reduce late: each combination is summed in int64 and
brought into [0, p) by conditional subtractions, with no division.

Alongside the product the walk records the sizes of the standard leaves it
multiplies, in depth-first order, as runs of equal sizes.  No other module
reads this trace; it is returned so that callers can check a walk against
the plan, e.g. its leaf count against ``plan_stats`` and its elementary
products against the bound's |T|.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .plans import RecursionPlan, StandardLeaf
from .ringmat import DEFAULT_MODULUS, Matrix, _check_exact, matmul_mod


@dataclass
class ExecTrace:
    """Sizes of the standard leaves a walk multiplied, in depth-first order,
    as ``(size, count)`` runs with no two neighbours of equal size, for
    checking the walk against its plan; the schedule generators and the
    bound code work from the plan itself, not from this trace.  A stacked
    descent records one child's leaves and repeats them seven times, so the
    trace grows with the number of runs, not of leaves."""

    leaf_runs: list = field(default_factory=list)

    def add(self, size: int, count: int = 1):
        runs = self.leaf_runs
        if runs and runs[-1][0] == size:
            runs[-1] = (size, runs[-1][1] + count)
        else:
            runs.append((size, count))

    def extend(self, other: "ExecTrace", times: int):
        for _ in range(times):
            for size, count in other.leaf_runs:
                self.add(size, count)

    def leaf_mul_count(self) -> int:
        return sum(c for _, c in self.leaf_runs)

    def total_elementary_products(self) -> int:
        return sum(s ** 3 * c for s, c in self.leaf_runs)


def _quads(x: np.ndarray):
    h = x.shape[-1] // 2
    return (x[..., :h, :h], x[..., :h, h:], x[..., h:, :h], x[..., h:, h:])


def _combine(coeffs, quads, modulus, out=None):
    """Linear combination of quadrant blocks with coefficients in {-1, 0, 1},
    reduced to [0, p), written into ``out`` when given.

    Reduction is delayed, as in FFLAS: the signed terms are summed in int64
    with ``neg * p`` added, which puts the sum in [0, top] for ``top =
    pos * (p - 1) + neg * p``.  Conditional subtractions of ``2**j * p``, from
    the largest j with ``2**j * p <= top`` down to 0, then bring it into
    [0, p); on a uint64 view ``min(u, u - s)`` is ``u - s`` exactly when
    ``u >= s``, since the difference wraps otherwise.  That is ceil(log2 k)
    passes for k terms, or ceil(log2 (k + 1)) when all of them are -1 (their
    shifted sum can be exactly ``k * p``).  Without ``out``, a lone +1 term
    is returned as it is.
    """
    terms = [(c, q) for c, q in zip(coeffs, quads) if c]
    if out is None and len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1]
    # a strided ``out`` (a quadrant of the decoded product) is written once,
    # at the end: numpy runs one inner loop per row of a strided view
    acc = out if out is not None and out.flags.c_contiguous else np.empty(
        quads[0].shape, dtype=np.int64)
    neg = sum(c < 0 for c, _ in terms)
    rest = terms[1:]
    if not terms:
        acc[...] = 0
    elif terms[0][0] < 0:
        np.subtract(neg * modulus, terms[0][1], out=acc)
    elif neg or not rest:
        np.add(terms[0][1], neg * modulus, out=acc)
    else:  # no shift to add: the first operation sums two terms
        np.add(terms[0][1], rest[0][1], out=acc)
        rest = rest[1:]
    for c, q in rest:
        (np.add if c > 0 else np.subtract)(acc, q, out=acc)
    top = (len(terms) - neg) * (modulus - 1) + neg * modulus
    passes = (top // modulus).bit_length()
    if passes:
        u = acc.view(np.uint64)
        tmp = np.empty_like(u)
        for j in reversed(range(passes)):
            np.subtract(u, modulus << j, out=tmp)
            np.minimum(u, tmp, out=u)
    if out is None or out is acc:
        return acc
    np.copyto(out, acc)
    return out


def _run(node: RecursionPlan, a, b, modulus, trace: ExecTrace, limit: int):
    """Product of the stacked operands ``a`` and ``b`` through ``node``.

    ``limit`` is the most entries a stacked operand may hold."""
    if isinstance(node, StandardLeaf):
        trace.add(node.size)
        return matmul_mod(a, b, modulus)

    scheme = node.scheme
    aq = _quads(a)
    bq = _quads(b)
    child = node.children[0]
    if all(c is child for c in node.children) and 7 * aq[0].size <= limit:
        xa = np.empty((7,) + aq[0].shape, dtype=np.int64)
        xb = np.empty((7,) + bq[0].shape, dtype=np.int64)
        for i in range(7):
            _combine(scheme.encode_a[i], aq, modulus, xa[i])
            _combine(scheme.encode_b[i], bq, modulus, xb[i])
        sub = ExecTrace()
        products = _run(child, xa, xb, modulus, sub, limit)
        trace.extend(sub, 7)
    else:
        products = [_run(c, _combine(scheme.encode_a[i], aq, modulus),
                         _combine(scheme.encode_b[i], bq, modulus), modulus, trace, limit)
                    for i, c in enumerate(node.children)]

    out = np.empty(a.shape[:-2] + (node.size, node.size), dtype=np.int64)
    for row, quad in zip(scheme.decode, _quads(out)):
        _combine(row, products, modulus, quad)
    return out


def execute_stacked(plan: RecursionPlan, a: np.ndarray, b: np.ndarray,
                    modulus: int = DEFAULT_MODULUS):
    """Run the plan over stacked operands of shape (..., n, n).

    Returns (product array, trace). The trace describes the single tree
    walk, which is shared by every matrix pair in the stack.  Where all
    seven children of a fast node are one subtree, the walk descends once
    on their stacked operands, as long as a stacked operand holds at most
    ``a.size // 4`` entries; the peak memory stays that of a depth-first
    walk.  Raises ValueError where ``matmul_mod`` would not be exact: a
    modulus of 2**31 or more, or a plan larger than 2**16.
    """
    _check_exact(modulus, plan.size)
    if a.shape != b.shape or a.shape[-1] != plan.size or a.shape[-2] != plan.size:
        raise ValueError(f"operand shape {a.shape} does not match plan size {plan.size}")
    trace = ExecTrace()
    out = _run(plan, a % modulus, b % modulus, modulus, trace, a.size // 4)
    return out, trace


def execute(plan: RecursionPlan, a: Matrix, b: Matrix):
    """Multiply via the plan; returns (C, trace) with C exactly equal to the
    definition-based product."""
    if a.n != b.n or a.n != plan.size:
        raise ValueError(f"plan size {plan.size} does not match matrices of size {a.n}, {b.n}")
    out, trace = execute_stacked(plan, a.data, b.data, a.modulus)
    return Matrix(out, a.modulus), trace
