"""Execute a recursion plan on concrete matrices.

The recursion works on arrays of shape (..., s, s): any leading axes are
broadcast through untouched, so a whole batch of matrix pairs can be run
through one plan in a single tree walk. ``execute`` is the single-pair
surface; ``execute_stacked`` exposes the same core for bulk verification.

The walk is level-synchronous where the seven children of a fast node are
one shared subtree, as in ``uniform_plan``, or equal leaves: the seven
encoded operand pairs are stacked on a new axis and the walk descends once,
so a uniform plan costs one call per level instead of one per node.  A
stacked operand may hold at most a quarter of the root operand's entries,
the size of the first encoded operand of a depth-first walk; above that the
seven children are walked one by one, each on its own encoded operands and
still carrying its leading axes, and stacking is tried again one level down.
Mixed children are walked one by one, on the slots of the stacked operands
where those fit.

A fast node works on its operands in a quadrant layout of shape ``(4,) * l
+ stack + (s, s)`` (``_to_layout``): the first axis indexes the quadrants,
each laid out one level less.  Viewed as ``(Q, 4, M)``, with Q the product
of the other quadrant axes, an operand's encode is one ``np.matmul`` by the
scheme's 7x4 coefficient matrix (``FastScheme.encode_a`` or ``encode_b``),
and its ``(Q, 7, M)`` result is the seven encoded operands stacked behind
the remaining quadrant axes, as the next level takes them; the decode is one
``np.matmul`` by the 4x7 ``decode`` matrix into the output's quadrant view.
Where the stack would not fit, each child's operands are one row's
``np.matmul``.  Every node above the plan's largest leaf, at depth
L = log2(n / largest leaf), is a fast node, so ``execute_stacked`` copies
the operands once into an L-level layout, in float64, and the product back
at the end.  A fast node below depth L is handed row-major blocks (a random
plan usually has a leaf under the root, so L is 0 or 1): it copies them
into a one-level layout and its product back.

The walk runs in float64 on exact integers, with delayed modular reduction,
as ``ringmat`` explains: every entry is an integer, and a bound on its
magnitude is tracked per operand.  An encode or decode multiplies the bound
by the largest L1 norm of the coefficient rows, and a leaf's product is
within p.  Nothing is reduced while the next combination stays within
``BUDGET`` = 2**52, so every encode and decode sum is exact in any order;
when it would not, the operand is first reduced in place to balanced
residues, within p // 2 + 1 (``_within``).  The schemes' norms are at most
4, so with p < 2**31 a walk of up to ten levels (n = 1024 down to 1x1
leaves) never reduces: its bounds stay below 4**10 * 2**31 = 2**51.  The
product is reduced once at the end and returned as int64 in [0, p).

Every standard leaf is one ``matmul_mod`` call, whatever its variant: over
Z/pZ both variants give the exact product, so the variant is a property of
the CDAG (the summation tree ``cdag`` builds for the leaf), not of a value.

Alongside the product the walk records the sizes of the standard leaves it
multiplies, in depth-first order, as runs of equal sizes.  No other module
reads this trace; it is returned so that callers can check a walk against
the plan, e.g. its leaf count against ``plan_stats`` and its elementary
products against the bound's |T|.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .plans import RecursionPlan, StandardLeaf
from .ringmat import (BUDGET, DEFAULT_MODULUS, Matrix, _balanced_bound, _check_exact, _lift,
                      _reduce, matmul_mod)


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


def _layout_axes(x: np.ndarray, levels: int):
    """``x`` of shape ``stack + (n, n)`` viewed with one row bit and one
    column bit per level split off, ordered ``(r1, c1, ..., rL, cL) + stack
    + (s, s)`` for ``s = n >> levels``: the view that is the layout."""
    stack, s = x.shape[:-2], x.shape[-1] >> levels
    m = len(stack)
    bits = x.reshape(stack + (2,) * levels + (s,) + (2,) * levels + (s,))
    rows = range(m, m + levels)
    cols = range(m + levels + 1, m + 2 * levels + 1)
    pairs = [axis for rc in zip(rows, cols) for axis in rc]
    return bits.transpose(pairs + list(range(m)) + [m + levels, m + 2 * levels + 1])


def _to_layout(x: np.ndarray, levels: int) -> np.ndarray:
    """``x`` of shape ``stack + (n, n)`` copied to a float64 array of shape
    ``(4,) * levels + stack + (s, s)``: entry ``q1, ..., qL`` is the block
    reached by taking quadrant ``q1``, then ``q2`` of that, and so on, with
    quadrants in the order of the schemes' coefficient rows: top left, top
    right, bottom left, bottom right."""
    s = x.shape[-1] >> levels
    out = np.empty((4,) * levels + x.shape[:-2] + (s, s))
    np.copyto(out.reshape((2,) * (2 * levels) + out.shape[levels:]), _layout_axes(x, levels))
    return out


def _from_layout(y: np.ndarray, levels: int, dtype=np.float64) -> np.ndarray:
    """Inverse of ``_to_layout``, copied to ``dtype``."""
    n = y.shape[-1] << levels
    out = np.empty(y.shape[levels:-2] + (n, n), dtype=dtype)
    np.copyto(_layout_axes(out, levels), y.reshape((2,) * (2 * levels) + y.shape[levels:]),
              casting="unsafe")
    return out


def _shallowest_leaf_depth(plan: RecursionPlan) -> int:
    """Depth of the plan's largest standard leaf: above it every node is a
    fast node."""
    depth, level = 0, {plan}
    while not any(isinstance(node, StandardLeaf) for node in level):
        level = {c for node in level for c in node.children}
        depth += 1
    return depth


@functools.cache
def _matrices(scheme):
    """``encode_a``, ``encode_b`` and ``decode`` of the scheme as read-only
    float64 matrices, each with the largest L1 norm of its rows."""
    out = []
    for rows in (scheme.encode_a, scheme.encode_b, scheme.decode):
        m = np.array(rows, dtype=np.float64)
        m.flags.writeable = False
        out.append((m, int(np.abs(m).sum(axis=1).max())))
    return out


def _within(x: np.ndarray, bound: int, norm: int, modulus: int) -> int:
    """Bound on the entries of combinations of ``x``'s entries by rows of L1
    norm ``norm``, when ``x``'s are bounded by ``bound``; ``x`` is reduced in
    place first if that would exceed ``BUDGET``."""
    if norm * bound > BUDGET:
        _reduce(x, modulus, out=x)
        bound = _balanced_bound(modulus)
    return norm * bound


def _by_quadrant(x: np.ndarray, levels: int) -> np.ndarray:
    """``x``, in a layout of ``levels`` levels, viewed as ``(Q, 4, M)`` with
    its quadrant axis in the middle: a matmul by a coefficient matrix
    combines its quadrants, and a ``(Q, 7, M)`` result holds seven operands
    behind the remaining ``levels - 1`` quadrant axes."""
    return x.reshape(4, 4 ** (levels - 1), -1).transpose(1, 0, 2)


def _run(node: RecursionPlan, a, b, bounds, modulus, trace: ExecTrace, limit: int, levels: int):
    """Product of the stacked operands ``a`` and ``b`` through ``node``, in
    the layout of ``a`` and ``b``: their first ``levels`` axes index
    quadrants (see ``_to_layout``).  Returns it with a bound on the
    magnitude of its entries.

    ``a`` and ``b`` are float64 arrays of integers of magnitude at most
    ``bounds``, owned by the walk: a node may reduce them in place.
    ``limit`` is the most entries a stacked operand may hold."""
    if isinstance(node, StandardLeaf):
        trace.add(node.size)
        return matmul_mod(a, b, modulus), modulus
    if not levels:
        out, bound = _run(node, _to_layout(a, 1), _to_layout(b, 1), bounds, modulus, trace,
                          limit, 1)
        return _from_layout(out, 1), bound

    (enc_a, norm_a), (enc_b, norm_b), (dec, norm_dec) = _matrices(node.scheme)
    bounds = (_within(a, bounds[0], norm_a, modulus), _within(b, bounds[1], norm_b, modulus))
    below = levels - 1
    quads_a, quads_b = _by_quadrant(a, levels), _by_quadrant(b, levels)
    quad = a.shape[1:]
    q, m = quads_a.shape[0], quads_a.shape[-1]
    fits = 7 * (a.size // 4) <= limit
    if fits:  # the seven encoded operands of each side, stacked
        stack_a, stack_b = np.matmul(enc_a, quads_a), np.matmul(enc_b, quads_b)
    child = node.children[0]
    # leaves are values, so equal ones stack as one shared subtree does
    if fits and all(c == child for c in node.children):
        shape = quad[:below] + (7,) + quad[below:]
        sub = ExecTrace()
        products, bound = _run(child, stack_a.reshape(shape), stack_b.reshape(shape), bounds,
                               modulus, sub, limit, below)
        products = products.reshape(q, 7, m)
        trace.extend(sub, 7)
    else:
        products = np.empty((q, 7, m))
        bound = 0
        for i, c in enumerate(node.children):
            if fits:
                op_a, op_b = stack_a[:, i], stack_b[:, i]
            else:  # one row at a time, to hold one child's operands only
                op_a, op_b = np.matmul(enc_a[i:i + 1], quads_a), np.matmul(enc_b[i:i + 1], quads_b)
            product, child_bound = _run(c, op_a.reshape(quad), op_b.reshape(quad), bounds, modulus,
                                        trace, limit, below)
            products[:, i] = product.reshape(q, m)
            bound = max(bound, child_bound)
            del op_a, op_b, product  # not held through the next child's walk

    bound = _within(products, bound, norm_dec, modulus)
    out = np.empty(a.shape)
    np.matmul(dec, products, out=_by_quadrant(out, levels))
    return out, bound


def _residues(x: np.ndarray, modulus: int) -> np.ndarray:
    """``x`` with its entries in [0, p): ``x`` itself if they are, two
    read-only passes being cheaper than one integer ``%``."""
    if x.min() < 0 or x.max() >= modulus:
        return x % modulus
    return x


def execute_stacked(plan: RecursionPlan, a: np.ndarray, b: np.ndarray,
                    modulus: int = DEFAULT_MODULUS):
    """Run the plan over stacked operands of shape (..., n, n).

    Returns (product array, trace). The trace describes the single tree
    walk, which is shared by every matrix pair in the stack.  Where all
    seven children of a fast node are one subtree or equal leaves, the walk
    descends once on their stacked operands, as long as a stacked operand
    holds at most ``a.size // 4`` entries; the peak memory stays that of a
    depth-first walk.  Raises ValueError where ``matmul_mod`` would refuse: a modulus of
    2**31 or more, or a plan larger than 2**16.
    """
    _check_exact(modulus, plan.size)
    if a.shape != b.shape or a.shape[-1] != plan.size or a.shape[-2] != plan.size:
        raise ValueError(f"operand shape {a.shape} does not match plan size {plan.size}")
    trace = ExecTrace()
    a, b = _residues(a, modulus), _residues(b, modulus)
    levels = _shallowest_leaf_depth(plan)
    out, _ = _run(plan, _to_layout(a, levels), _to_layout(b, levels),
                  (modulus - 1, modulus - 1), modulus, trace, a.size // 4, levels)
    _reduce(out, modulus, out=out)
    return _lift(_from_layout(out, levels, np.int64), modulus), trace


def execute(plan: RecursionPlan, a: Matrix, b: Matrix):
    """Multiply via the plan; returns (C, trace) with C exactly equal to the
    definition-based product."""
    if a.n != b.n or a.n != plan.size:
        raise ValueError(f"plan size {plan.size} does not match matrices of size {a.n}, {b.n}")
    if a.modulus != b.modulus:
        raise ValueError(f"operand moduli differ: {a.modulus} and {b.modulus}")
    out, trace = execute_stacked(plan, a.data, b.data, a.modulus)
    return Matrix(out, a.modulus), trace
