"""Recursion plans for hybrid matrix multiplication.

A plan is an explicit tree that tells the execution engine, for each
sub-problem, whether to multiply with a standard (cubic) algorithm or to
apply a fast 2x2-base scheme that encodes the four quadrant blocks of each
factor into seven half-size sub-problems and decodes the seven sub-products
back into the four quadrants of the result.

Fast schemes are stored as coefficient matrices over {-1, 0, 1}, which is
also the single source of truth for the encoder/decoder graphs used by the
CDAG module.

Fast nodes are hash-consed: every constructor, the parser and unpickling
return the one live node per distinct (scheme, children), so a plan holds
each distinct subtree once and two plans are equal exactly when they are
the same object.  Standard leaves are frozen values compared by field.

Plan text format (round-trip stable, one plan per line):

    plan  := fast | leaf
    fast  := "F[" scheme "](" plan (" " plan){6} ")"
    leaf  := "S[" variant ",n=" INT "]"

with scheme in {strassen, winograd} and variant in {iterative, block}.
Example: ``F[strassen](S[iterative,n=1] ... S[iterative,n=1])``.
"""

from __future__ import annotations

import random
import weakref
from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .ringmat import is_pow2


class StandardVariant(Enum):
    ITERATIVE_DEF = "iterative"
    BLOCK_RECURSIVE = "block"


def check_coefficients(encode_a, encode_b, decode):
    """Raise ValueError unless ``encode_a`` and ``encode_b`` are 7 rows of 4
    coefficients and ``decode`` is 4 rows of 7, all ints in {-1, 0, 1}
    (``True`` and ``1.0`` are not)."""
    for name, rows, height, width in (("encode_a", encode_a, 7, 4),
                                      ("encode_b", encode_b, 7, 4),
                                      ("decode", decode, 4, 7)):
        if (not isinstance(rows, (list, tuple)) or len(rows) != height
                or any(not isinstance(r, (list, tuple)) or len(r) != width for r in rows)):
            raise ValueError(f"{name} must be {height} rows of {width} coefficients")
        if any(type(c) is not int or c not in (-1, 0, 1) for r in rows for c in r):
            raise ValueError(f"{name} coefficients must be integers in {{-1, 0, 1}}")


@dataclass(frozen=True)
class FastScheme:
    """A 2x2-base fast multiplication scheme in coefficient form.

    ``encode_a[i]`` maps the quadrants [X11, X12, X21, X22] of A to the
    left operand of sub-problem i; ``encode_b`` likewise for B; ``decode[q]``
    maps the seven sub-products to quadrant q of C.
    """

    id: str
    encode_a: tuple  # 7 rows of 4 coefficients in {-1, 0, 1}
    encode_b: tuple
    decode: tuple  # 4 rows of 7 coefficients in {-1, 0, 1}

    def __post_init__(self):
        check_coefficients(self.encode_a, self.encode_b, self.decode)
        for rows, name in ((self.encode_a, "encode_a"), (self.encode_b, "encode_b")):
            if len({tuple(r) for r in rows}) != 7:
                raise ValueError(f"{name} has two identical rows")
        # hashed once, as a scheme is in every fast node's intern key; by the
        # coefficients alone, whose hash (unlike a string's) every process shares
        object.__setattr__(self, "_hash", hash((_rows(self.encode_a), _rows(self.encode_b),
                                                _rows(self.decode))))

    def __hash__(self):
        return self._hash


def _rows(m):
    return tuple(tuple(r) for r in m)


# Coefficients transcribed from the classical seven-product recursion:
#   M1=(A11+A22)(B11+B22)  M2=(A21+A22)B11  M3=A11(B12-B22)  M4=A22(B21-B11)
#   M5=(A11+A12)B22  M6=(A21-A11)(B11+B12)  M7=(A12-A22)(B21+B22)
#   C11=M1+M4-M5+M7  C12=M3+M5  C21=M2+M4  C22=M1-M2+M3+M6
STRASSEN = FastScheme(
    id="strassen",
    encode_a=_rows([
        [1, 0, 0, 1],
        [0, 0, 1, 1],
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [1, 1, 0, 0],
        [-1, 0, 1, 0],
        [0, 1, 0, -1],
    ]),
    encode_b=_rows([
        [1, 0, 0, 1],
        [1, 0, 0, 0],
        [0, 1, 0, -1],
        [-1, 0, 1, 0],
        [0, 0, 0, 1],
        [1, 1, 0, 0],
        [0, 0, 1, 1],
    ]),
    decode=_rows([
        [1, 0, 0, 1, -1, 0, 1],
        [0, 0, 1, 0, 1, 0, 0],
        [0, 1, 0, 1, 0, 0, 0],
        [1, -1, 1, 0, 0, 1, 0],
    ]),
)

# Variant with fewer additions; same seven-product structure.
WINOGRAD = FastScheme(
    id="winograd",
    encode_a=_rows([
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [1, 1, -1, -1],
        [0, 0, 0, 1],
        [0, 0, 1, 1],
        [-1, 0, 1, 1],
        [1, 0, -1, 0],
    ]),
    encode_b=_rows([
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [1, -1, -1, 1],
        [-1, 1, 0, 0],
        [1, -1, 0, 1],
        [0, -1, 0, 1],
    ]),
    decode=_rows([
        [1, 1, 0, 0, 0, 0, 0],
        [1, 0, 1, 0, 1, 1, 0],
        [1, 0, 0, -1, 0, 1, 1],
        [1, 0, 0, 0, 1, 1, 1],
    ]),
)

SCHEMES = {s.id: s for s in (STRASSEN, WINOGRAD)}


@dataclass(frozen=True)
class StandardLeaf:
    variant: StandardVariant
    size: int

    def __post_init__(self):
        if not is_pow2(self.size):
            raise ValueError(f"leaf size must be a power of two, got {self.size}")


@dataclass(frozen=True, init=False, repr=False, eq=False)
class FastNode:
    """``scheme`` applied to 7 half-size sub-plans.

    Nodes are hash-consed: building one returns the live node with the same
    scheme and children, if there is one.  So equal subtrees are one object,
    ``==`` and ``hash`` are identity, and memos keyed by ``id(node)`` hit on
    every copy of a subtree.  No field is set after a node is built."""

    scheme: FastScheme
    children: tuple  # exactly 7 plans, ordered by sub-problem index
    size: int  # twice the children's size

    # every live fast node, by (scheme, children); an entry dies with its node
    _nodes = weakref.WeakValueDictionary()

    def __new__(cls, scheme: FastScheme, children: tuple):
        key = (scheme, children)
        node = cls._nodes.get(key)
        if node is None:
            if len(children) != 7:
                raise ValueError("fast node needs exactly 7 children")
            if any(c.size != children[0].size for c in children):
                raise ValueError("children must all have the same size")
            node = cls._nodes[key] = object.__new__(cls)
            vars(node).update(scheme=scheme, children=children, size=2 * children[0].size)
        return node

    def __repr__(self):
        # the children are left out: a plan shares its equal subtrees, so
        # expanding them grows up to 7x per level
        return f"FastNode(scheme={self.scheme.id!r}, size={self.size})"

    def __reduce__(self):
        # unpickling calls FastNode(...), which returns the live equal node
        return FastNode, (self.scheme, self.children)


# a PEP 604 union, not typing.Union: typing caches every Union it builds,
# which would keep the classes (and the whole module) of each fresh import
# of this module alive
RecursionPlan = StandardLeaf | FastNode


def uniform_plan(n: int, n0: int, scheme: FastScheme = STRASSEN,
                 variant: StandardVariant = StandardVariant.ITERATIVE_DEF) -> RecursionPlan:
    """Fast recursion from size n down to the cutoff: sizes <= n0 go standard.

    As every plan shares its equal subtrees, a uniform plan holds one node
    per level and stays small even when the tree has millions of leaves.
    """
    if not is_pow2(n) or not is_pow2(n0):
        raise ValueError("n and n0 must be powers of two")
    if n0 > n:
        raise ValueError(f"n0={n0} exceeds n={n}")
    node: RecursionPlan = StandardLeaf(variant, n0)
    size = n0
    while size < n:
        size *= 2
        node = FastNode(scheme, (node,) * 7)
    return node


def random_plan(n: int, p_fast: float, seed: int, scheme: FastScheme = STRASSEN,
                variant: StandardVariant = StandardVariant.ITERATIVE_DEF) -> RecursionPlan:
    """Independently choose fast/standard at every node; size-1 nodes are leaves.

    Deterministic for a fixed seed: nodes are decided in preorder.
    """
    if not is_pow2(n):
        raise ValueError("n must be a power of two")
    rng = random.Random(seed)

    def build(size: int) -> RecursionPlan:
        if size > 1 and rng.random() < p_fast:
            return FastNode(scheme, tuple(build(size // 2) for _ in range(7)))
        return StandardLeaf(variant, size)

    return build(n)


@dataclass(frozen=True)
class PlanStats:
    fast_nodes: int
    standard_leaves: int
    leaf_sizes: dict


def plan_stats(plan: RecursionPlan) -> PlanStats:
    """Exhaustive node counts; immune to shared subtrees."""
    fast = 0
    leaves = 0
    sizes: Counter = Counter()
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, FastNode):
            fast += 1
            stack.extend(node.children)
        else:
            leaves += 1
            sizes[node.size] += 1
    return PlanStats(fast, leaves, dict(sizes))


# Fast nodes nest at most this deep in plan text.  A fast node at depth d
# needs at least 7^d leaves, so no plan that fits in memory is refused, and
# the recursive parser stays far from Python's recursion limit.
MAX_PLAN_DEPTH = 40


class PlanParseError(ValueError):
    def __init__(self, pos: int, expected: str, got: str):
        self.pos = pos
        super().__init__(f"parse error at position {pos}: expected {expected}, got {got!r}")


def serialize_plan(plan: RecursionPlan) -> str:
    if isinstance(plan, StandardLeaf):
        return f"S[{plan.variant.value},n={plan.size}]"
    inner = " ".join(serialize_plan(c) for c in plan.children)
    return f"F[{plan.scheme.id}]({inner})"


def parse_plan(text: str) -> RecursionPlan:
    """Parse the plan text format; errors carry the offending position.

    Fast nodes nested more than ``MAX_PLAN_DEPTH`` deep are a parse error.
    """
    s = text
    pos = 0

    def peek():
        return s[pos] if pos < len(s) else "<end>"

    def expect(tok: str):
        nonlocal pos
        if not s.startswith(tok, pos):
            raise PlanParseError(pos, repr(tok), s[pos:pos + len(tok)] or "<end>")
        pos += len(tok)

    def skip_ws():
        nonlocal pos
        while pos < len(s) and s[pos].isspace():
            pos += 1

    def parse_int() -> int:
        nonlocal pos
        start = pos
        while pos < len(s) and s[pos].isdigit():
            pos += 1
        if start == pos:
            raise PlanParseError(pos, "integer", peek())
        return int(s[start:pos])

    def parse_name(options) -> str:
        nonlocal pos
        start = pos
        while pos < len(s) and (s[pos].isalnum() or s[pos] in "_-"):
            pos += 1
        name = s[start:pos]
        if name not in options:
            raise PlanParseError(start, f"one of {sorted(options)}", name or peek())
        return name

    def parse_node(depth: int) -> RecursionPlan:
        nonlocal pos
        skip_ws()
        if peek() == "S":
            expect("S")
            expect("[")
            variant = StandardVariant(parse_name({v.value for v in StandardVariant}))
            expect(",n=")
            n = parse_int()
            expect("]")
            if not is_pow2(n):
                raise PlanParseError(pos, "power-of-two leaf size", str(n))
            return StandardLeaf(variant, n)
        if peek() == "F":
            if depth == MAX_PLAN_DEPTH:
                raise PlanParseError(
                    pos, f"'S' (fast nodes nest at most {MAX_PLAN_DEPTH} deep)", "F")
            expect("F")
            expect("[")
            scheme = SCHEMES[parse_name(set(SCHEMES))]
            expect("]")
            expect("(")
            children = []
            for i in range(7):
                children.append(parse_node(depth + 1))
            skip_ws()
            expect(")")
            return FastNode(scheme, tuple(children))
        raise PlanParseError(pos, "'S' or 'F'", peek())

    node = parse_node(0)
    skip_ws()
    if pos != len(s):
        raise PlanParseError(pos, "<end>", peek())
    return node
