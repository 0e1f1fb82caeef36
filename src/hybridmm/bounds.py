"""Maximal sub-problem enumeration and I/O lower-bound evaluation.

For a plan executed with a cache of M words, the maximal sub-problems (MSPs)
are the topmost sub-problems whose ancestors are all fast nodes:

  Type 1: a standard-computed sub-problem of size >= 2*sqrt(M);
  Type 2: a fast node whose seven children drop below size 2*sqrt(M).

A plan whose root size is <= 2*sqrt(M) generates no MSPs at all.  The counts
nu1, nu2 and the elementary-product total |T| = sum of n_i^3 over Type 1
MSPs drive the sequential bound

    max{ 2*n^2, c*|T|/sqrt(M), nu2*M } / B        with c = 0.38988157484

and its parallel analogue max{ c*|T|/sqrt(M), nu2*M } / (P*Bm), which has no
input term because nothing is assumed about the initial data distribution.
Closed forms for uniform plans are evaluated exactly whenever 4*M is a
perfect square and the size ratios are powers of two.

``sequential_bound`` counts nu1, nu2 and |T| once per distinct subtree;
``enumerate_msps`` lists the MSPs with their paths.

One rule decides every MSP: ``_msp_type`` classifies a node whose
ancestors are all fast, and both walks, as well as ``cdag``'s Type 2 check
of an improper root, call it.  Its size comparisons go through
``_vs_threshold``, in integers (s >= 2*sqrt(M) iff s*s >= 4*M), or against
a custom float threshold supplied for sensitivity checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional

from .plans import RecursionPlan, StandardLeaf

BOUND_CONSTANT_C = 0.38988157484
_C_EXACT = Fraction(38988157484, 10 ** 11)
LOG2_7 = math.log2(7.0)


@dataclass(frozen=True)
class MspDescriptor:
    msp_type: int  # 1 or 2
    n_i: int
    path: tuple  # child indices from the root; () is the (improper) root


def _vs_threshold(size: int, m: int, threshold: Optional[float]) -> int:
    """The sign of size - 2*sqrt(M), or of size - threshold when one is given."""
    d = size * size - 4 * m if threshold is None else size - threshold
    return (d > 0) - (d < 0)


def _msp_type(node: RecursionPlan, m: int, threshold: Optional[float]):
    """How a node whose ancestors are all fast enters the MSPs: 1 or 2 if it
    is an MSP of that type, 0 if its children must be classified instead,
    None if nothing at or below it is an MSP."""
    if isinstance(node, StandardLeaf):
        return 1 if _vs_threshold(node.size, m, threshold) >= 0 else None
    return 2 if _vs_threshold(node.size // 2, m, threshold) < 0 else 0


def enumerate_msps(plan: RecursionPlan, m: int,
                   threshold: Optional[float] = None) -> list:
    """All MSPs of the plan for cache size m, each at most once.

    Returns [] iff the root size is <= the threshold (default 2*sqrt(M));
    ``threshold`` overrides the cutoff for sensitivity checks.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if _vs_threshold(plan.size, m, threshold) <= 0:
        return []

    out = []
    stack = [(plan, ())]
    while stack:
        node, path = stack.pop()
        kind = _msp_type(node, m, threshold)
        if kind:
            out.append(MspDescriptor(kind, node.size, path))
        elif kind == 0:
            # pushed in reverse so that MSPs come out in path order
            for i in range(6, -1, -1):
                stack.append((node.children[i], path + (i,)))
    return out


def _count_msps(plan: RecursionPlan, m: int, threshold: Optional[float] = None):
    """(nu1, nu2, |T|) of ``enumerate_msps``, walking a shared subtree once."""
    if _vs_threshold(plan.size, m, threshold) <= 0:
        return 0, 0, 0
    memo = {}

    def walk(node):
        kind = _msp_type(node, m, threshold)
        if kind == 1:
            return 1, 0, node.size ** 3
        if kind != 0:
            return (0, 1, 0) if kind == 2 else (0, 0, 0)
        key = id(node)
        if key not in memo:
            memo[key] = tuple(map(sum, zip(*map(walk, node.children))))
        return memo[key]

    return walk(plan)


def _exact_sqrt(k: int):
    r = isqrt(k)
    return r if r * r == k else None


@dataclass
class BoundReport:
    n: int
    m: int
    b: int
    nu1: int
    nu2: int
    t_total: int
    term_input: object  # Fraction
    term_t: object  # Fraction when sqrt(M) is integral, else float
    term_nu2: object  # Fraction
    sequential_bound: object
    c = BOUND_CONSTANT_C  # a class constant, not a field

    def to_dict(self) -> dict:
        def num(x):
            if isinstance(x, Fraction):
                return int(x) if x.denominator == 1 else float(x)
            return x

        return {
            "n": self.n,
            "M": self.m,
            "B": self.b,
            "nu1": self.nu1,
            "nu2": self.nu2,
            "t_total": self.t_total,
            "term_input": num(self.term_input),
            "term_t": num(self.term_t),
            "term_nu2": num(self.term_nu2),
            "sequential_bound": num(self.sequential_bound),
            "c": self.c,
            "parallel_bound": None,  # ``bounds --P`` fills it in
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def sequential_bound(plan: RecursionPlan, n: int, m: int, b: int,
                     threshold: Optional[float] = None) -> BoundReport:
    """Evaluate the three-term sequential lower bound for the plan."""
    if m < 1 or b < 1:
        raise ValueError("m and b must be >= 1")
    if n != plan.size:
        raise ValueError(f"plan size {plan.size} does not match n={n}")
    nu1, nu2, tt = _count_msps(plan, m, threshold)
    term_input = Fraction(2 * n * n, b)
    root = _exact_sqrt(m)
    if root is not None:
        term_t = _C_EXACT * tt / root / b
    else:
        term_t = BOUND_CONSTANT_C * tt / math.sqrt(m) / b
    term_nu2 = Fraction(nu2 * m, b)
    seq = max(term_input, term_t, term_nu2)
    return BoundReport(
        n=n, m=m, b=b, nu1=nu1, nu2=nu2, t_total=tt,
        term_input=term_input, term_t=term_t, term_nu2=term_nu2,
        sequential_bound=seq,
    )


def parallel_bound(plan: RecursionPlan, n: int, m: int, bm: int, p: int,
                   threshold: Optional[float] = None):
    """Per-processor I/O bound: max{c*|T|/sqrt(M), nu2*M} / (P*Bm).

    No input term: the parallel model makes no assumption about where the
    input initially lives.
    """
    if p < 1 or bm < 1:
        raise ValueError("p and bm must be >= 1")
    if not m < n * n:
        raise ValueError("parallel model requires M < n^2")
    rep = sequential_bound(plan, n, m, 1, threshold)
    return max(rep.term_t, rep.term_nu2) / (p * bm)


def uniform_inner_term(n: int, n0: int, m: int):
    """(n / max{n0, 2*sqrt(M)})^log2(7) * max{1, n0/(2*sqrt(M))}^3 * M.

    Exact (Fraction) when 2*sqrt(M) is an integer and n / max{n0, 2*sqrt(M)}
    is a power of two >= 1; float otherwise.
    """
    two_root = _exact_sqrt(4 * m)
    if two_root is not None:
        d = max(n0, two_root)
        ratio = Fraction(n, d)
        if ratio >= 1 and ratio.denominator == 1 and (ratio.numerator & (ratio.numerator - 1)) == 0:
            pow7 = Fraction(7) ** (ratio.numerator.bit_length() - 1)
            cube = max(Fraction(1), Fraction(n0, two_root)) ** 3
            return pow7 * cube * m
    d = max(n0, 2.0 * math.sqrt(m))
    return (n / d) ** LOG2_7 * max(1.0, n0 / (2.0 * math.sqrt(m))) ** 3 * m


def uniform_closed_form(n: int, n0: int, m: int, b: int):
    """Closed-form sequential bound for uniform plans: max{2n^2, inner}/B."""
    if m < 1 or b < 1:
        raise ValueError("m and b must be >= 1")
    inner = uniform_inner_term(n, n0, m)
    two_n2 = Fraction(2 * n * n)
    if isinstance(inner, Fraction):
        return max(two_n2, inner) / b
    return max(float(two_n2), inner) / b


def uniform_parallel_closed_form(n: int, n0: int, m: int, bm: int, p: int):
    """Closed-form parallel bound: inner term over P*Bm, no input term."""
    if p < 1 or bm < 1:
        raise ValueError("p and bm must be >= 1")
    return uniform_inner_term(n, n0, m) / (p * bm)
