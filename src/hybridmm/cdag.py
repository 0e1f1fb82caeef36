"""Explicit computation DAGs for small plans, and the structural checks the
I/O lower bounds rest on.

``build_cdag`` materializes the computation graph of a plan: global input
vertices for the factor entries, one depth-1 encoder copy per quadrant
position wiring the four quadrant entries of each factor to the seven
sub-problem operand entries, recursive sub-graphs for the children, and a
depth-1 decoder copy per position combining the seven sub-products into the
four output quadrants.  Standard leaves contribute one vertex per elementary
product plus a summation tree per output entry (left-deep for the iterative
variant, balanced for the block-recursive one).

``min_dominator_size`` computes the exact minimum size of a set of vertices
intercepting every path from a chosen source set to a chosen target set
(endpoints are cut-eligible) as the most vertex-disjoint source-target
paths, found by augmenting paths on the implicit vertex-split graph
restricted to the targets' ancestor cone.  An exhaustive-search twin,
which tests candidate sets by bitmask sweeps in topological order, serves
as an independent oracle on tiny graphs.

The ``verify_*`` functions check, exhaustively or by sampling, the facts
used by the bound module: encoder output neighborhoods are pairwise
distinct; every output subset Y of an encoder reaches min(|Y|,
1 + ceil((|Y|-1)/2)) inputs through vertex-disjoint paths (a matching, as
encoder edges are single hops); dominators of Type 2 MSP output subsets
have size at least |Z|/2; and dominators of Type 1 MSP input subsets and of
elementary-product subsets obey their aggregate lower bounds.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from dataclasses import dataclass, field

from .bounds import _msp_type, enumerate_msps
from .plans import FastNode, FastScheme, RecursionPlan, StandardLeaf, StandardVariant

GLOBAL_INPUT = "GLOBAL_INPUT"
ENCODER_OUT = "ENCODER_OUT"
ELEM_PRODUCT = "ELEM_PRODUCT"
SUM_NODE = "SUM_NODE"
DECODER_OUT = "DECODER_OUT"
GLOBAL_OUTPUT = "GLOBAL_OUTPUT"

MAX_CDAG_SIZE = 16


@dataclass
class Cdag:
    plan: RecursionPlan
    roles: list = field(default_factory=list)
    edges: list = field(default_factory=list)
    sub_cdag_map: list = field(default_factory=list)  # vertex -> plan path
    node_inputs: dict = field(default_factory=dict)  # path -> (a_grid, b_grid)
    node_outputs: dict = field(default_factory=dict)  # path -> grid
    elem_products: dict = field(default_factory=dict)  # path -> {(i,k,j): vid}
    _succ: list = field(default_factory=list)  # vertex -> heads of its edges
    _pred: list = field(default_factory=list)  # vertex -> tails of its edges

    def add_vertex(self, role: str, path: tuple) -> int:
        self.roles.append(role)
        self.sub_cdag_map.append(path)
        self._succ.append([])
        self._pred.append([])
        return len(self.roles) - 1

    def add_edge(self, u: int, v: int):
        self.edges.append((u, v))
        self._succ[u].append(v)
        self._pred[v].append(u)

    @property
    def num_vertices(self) -> int:
        return len(self.roles)

    def successors(self):
        return self._succ

    def predecessors(self):
        return self._pred

    def global_inputs(self):
        return [v for v, r in enumerate(self.roles) if r == GLOBAL_INPUT]

    def global_outputs(self):
        return _flatten(self.node_outputs[()])

    def vertices_of(self, path: tuple):
        """All vertices owned by the sub-problem at ``path`` or below."""
        k = len(path)
        return [v for v, p in enumerate(self.sub_cdag_map) if p[:k] == path]

    def topo_order(self):
        """Topological order; raises if a cycle sneaks in."""
        pred = self.predecessors()
        indeg = [len(p) for p in pred]
        succ = self._succ
        order = []
        q = deque(v for v in range(self.num_vertices) if indeg[v] == 0)
        while q:
            v = q.popleft()
            order.append(v)
            for w in succ[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    q.append(w)
        if len(order) != self.num_vertices:
            raise ValueError("CDAG has a cycle")
        return order

    def export_edges(self) -> str:
        """One edge per line; vertex roles as trailing comments."""
        lines = []
        for v, role in enumerate(self.roles):
            lines.append(f"# v{v} {role} path={'/'.join(map(str, self.sub_cdag_map[v])) or '.'}")
        for u, v in self.edges:
            lines.append(f"{u} {v}")
        return "\n".join(lines) + "\n"


def _flatten(grid):
    return [v for row in grid for v in row]


def build_cdag(plan: RecursionPlan) -> Cdag:
    """Materialize the plan's computation graph (sizes up to 16)."""
    n = plan.size
    if n > MAX_CDAG_SIZE:
        raise ValueError(f"CDAG construction capped at size {MAX_CDAG_SIZE}, got {n}")
    g = Cdag(plan)
    a_grid = [[g.add_vertex(GLOBAL_INPUT, ()) for _ in range(n)] for _ in range(n)]
    b_grid = [[g.add_vertex(GLOBAL_INPUT, ()) for _ in range(n)] for _ in range(n)]
    out = _build_node(g, plan, (), a_grid, b_grid)
    for v in _flatten(out):
        g.roles[v] = GLOBAL_OUTPUT
    g.node_outputs[()] = out
    return g


def _build_node(g: Cdag, node: RecursionPlan, path, a_grid, b_grid):
    g.node_inputs[path] = (a_grid, b_grid)
    if isinstance(node, StandardLeaf):
        out = _build_leaf(g, node, path, a_grid, b_grid)
    else:
        out = _build_fast(g, node, path, a_grid, b_grid)
    g.node_outputs[path] = out
    return out


def _sum_tree_iterative(g, path, terms):
    acc = terms[0]
    for t in terms[1:]:
        s = g.add_vertex(SUM_NODE, path)
        g.add_edge(acc, s)
        g.add_edge(t, s)
        acc = s
    return acc


def _sum_tree_balanced(g, path, terms):
    if len(terms) == 1:
        return terms[0]
    mid = len(terms) // 2
    left = _sum_tree_balanced(g, path, terms[:mid])
    right = _sum_tree_balanced(g, path, terms[mid:])
    s = g.add_vertex(SUM_NODE, path)
    g.add_edge(left, s)
    g.add_edge(right, s)
    return s


def _build_leaf(g: Cdag, node: StandardLeaf, path, a_grid, b_grid):
    s = node.size
    products = {}
    for i in range(s):
        for k in range(s):
            for j in range(s):
                p = g.add_vertex(ELEM_PRODUCT, path)
                g.add_edge(a_grid[i][k], p)
                g.add_edge(b_grid[k][j], p)
                products[(i, k, j)] = p
    g.elem_products[path] = products
    tree = (_sum_tree_iterative if node.variant is StandardVariant.ITERATIVE_DEF
            else _sum_tree_balanced)
    out = [[None] * s for _ in range(s)]
    for i in range(s):
        for j in range(s):
            out[i][j] = tree(g, path, [products[(i, k, j)] for k in range(s)])
    return out


def _quad_entry(grid, qi, qj, r, c, h):
    return grid[qi * h + r][qj * h + c]


def _build_fast(g: Cdag, node: FastNode, path, a_grid, b_grid):
    s = node.size
    h = s // 2
    scheme = node.scheme
    quads = ((0, 0), (0, 1), (1, 0), (1, 1))
    # one encoder copy per factor per quadrant position
    xa = [[[None] * h for _ in range(h)] for _ in range(7)]
    xb = [[[None] * h for _ in range(h)] for _ in range(7)]
    sides = ((scheme.encode_a, a_grid, xa), (scheme.encode_b, b_grid, xb))
    for r in range(h):
        for c in range(h):
            for i in range(7):
                for rows, grid, x in sides:
                    v = g.add_vertex(ENCODER_OUT, path + (i,))
                    for q, (qi, qj) in enumerate(quads):
                        if rows[i][q]:
                            g.add_edge(_quad_entry(grid, qi, qj, r, c, h), v)
                    x[i][r][c] = v
    m_out = [_build_node(g, node.children[i], path + (i,), xa[i], xb[i]) for i in range(7)]
    out = [[None] * s for _ in range(s)]
    for r in range(h):
        for c in range(h):
            for q, (qi, qj) in enumerate(quads):
                v = g.add_vertex(DECODER_OUT, path)
                for i in range(7):
                    if scheme.decode[q][i]:
                        g.add_edge(m_out[i][r][c], v)
                out[qi * h + r][qj * h + c] = v
    return out


# ---------------------------------------------------------------------------
# encoder graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EncoderGraph:
    """Depth-1 bipartite gadget: 4 quadrant inputs feeding 7 operand outputs."""

    edges: tuple  # (input_index, output_index), input in 0..3, output in 0..6

    @classmethod
    def from_rows(cls, rows) -> "EncoderGraph":
        """Edges of 7 encoder rows of 4 coefficients: q -> i iff rows[i][q]."""
        return cls(tuple((q, i) for i in range(7) for q in range(4) if rows[i][q]))

    @classmethod
    def from_scheme(cls, scheme: FastScheme, side: str) -> "EncoderGraph":
        return cls.from_rows(scheme.encode_a if side.upper() == "A" else scheme.encode_b)

    def output_neighborhood(self, i: int):
        return frozenset(q for q, o in self.edges if o == i)


def verify_encoder_distinct_neighborhoods(enc: EncoderGraph) -> bool:
    """True iff no two outputs read the same set of inputs."""
    hoods = [enc.output_neighborhood(i) for i in range(7)]
    return len(set(hoods)) == 7


def _max_matching(adj, outputs):
    """Maximum bipartite matching between ``outputs`` and inputs 0..3."""
    match_input = {}

    def augment(o, seen):
        for q in adj[o]:
            if q in seen:
                continue
            seen.add(q)
            if q not in match_input or augment(match_input[q], seen):
                match_input[q] = o
                return True
        return False

    size = 0
    for o in outputs:
        if augment(o, set()):
            size += 1
    return size


@dataclass
class EncoderConnectivityReport:
    checked_subsets: int
    failures: list  # (subset, matching, required)
    min_margin: int  # min over subsets of matching - required

    @property
    def passed(self) -> bool:
        return not self.failures

    def __bool__(self):
        return self.passed


def connectivity_requirement(y_size: int) -> int:
    return min(y_size, 1 + math.ceil((y_size - 1) / 2))


def verify_encoder_connectivity(enc: EncoderGraph) -> EncoderConnectivityReport:
    """For all 127 nonempty output subsets Y, a matching of size
    min(|Y|, 1 + ceil((|Y|-1)/2)) into the inputs must exist; in a depth-1
    bipartite graph vertex-disjoint paths are exactly matchings."""
    adj = [sorted(enc.output_neighborhood(i)) for i in range(7)]
    failures = []
    checked = 0
    min_margin = None
    for r in range(1, 8):
        for subset in itertools.combinations(range(7), r):
            checked += 1
            matching = _max_matching(adj, subset)
            required = connectivity_requirement(r)
            margin = matching - required
            if min_margin is None or margin < min_margin:
                min_margin = margin
            if matching < required:
                failures.append((subset, matching, required))
    return EncoderConnectivityReport(checked, failures, min_margin)


# ---------------------------------------------------------------------------
# dominator sets
# ---------------------------------------------------------------------------

def min_dominator_size(cdag: Cdag, targets, sources) -> int:
    """Exact minimum dominator size: the most vertex-disjoint source-target
    paths (Menger), found one augmenting path at a time.

    Every vertex, including sources and targets, may be in the dominator.
    No augmenting path leaves the targets' ancestor cone, so the search runs
    on the cone only, on the implicit vertex-split graph: state ``2v`` is
    the entry copy of v, ``2v + 1`` its exit copy, joined by a unit arc.
    The flow lives in ``into`` and ``outof``, the flow predecessor and
    successor of each vertex that carries flow (-1 for the super-source and
    the sink).  Each search is depth first; there are at most
    min(|targets|, |sources|) + 1 of them.
    """
    targets = set(targets)
    succ, pred = cdag.successors(), cdag.predecessors()
    cone = set(targets)
    stack = list(cone)
    while stack:
        for u in pred[stack.pop()]:
            if u not in cone:
                cone.add(u)
                stack.append(u)
    starts = [2 * v for v in set(sources) if v in cone]
    into, outof = {}, {}
    flow = 0
    while True:
        parent = dict.fromkeys(starts, -1)
        stack = list(starts)
        end = None
        while stack and end is None:
            x = stack.pop()
            v = x >> 1
            if x & 1:  # exit copy: any arc forward, or back over v's unit arc
                nxt = [2 * w for w in succ[v] if w in cone]
                if v in into:
                    nxt.append(x - 1)
            elif v not in into:
                nxt = (x + 1,)
            elif into[v] >= 0:  # back along the flow arc into v
                nxt = (2 * into[v] + 1,)
            else:  # v's flow comes from the super-source: a dead end
                continue
            for y in nxt:
                if y not in parent:
                    parent[y] = x
                    if y & 1 and y >> 1 in targets:
                        end = y
                        break
                    stack.append(y)
        if end is None:
            return flow
        flow += 1
        outof[end >> 1] = -1
        y = end
        while y >= 0:
            x = parent[y]
            if not y & 1:  # arrival at an entry copy
                v = y >> 1
                if x < 0:
                    into[v] = -1
                elif x >> 1 != v:
                    into[v] = x >> 1
                    outof[x >> 1] = v
                else:  # v's unit arc cancelled: v carries no flow now
                    del into[v], outof[v]
            y = x


def _path_universe(cdag, targets, sources):
    succ = cdag.successors()
    pred = cdag.predecessors()

    def reach(starts, adj):
        seen = set(starts)
        q = deque(starts)
        while q:
            u = q.popleft()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    q.append(v)
        return seen

    return reach(set(sources), succ) & reach(set(targets), pred)


def min_dominator_size_exhaustive(cdag: Cdag, targets, sources) -> int:
    """Independent oracle: smallest vertex subset intercepting all paths.

    Tries candidate sets in order of size over the path universe (vertices
    both reachable from a source and reaching a target).  Each candidate is
    tested by one sweep over the universe in topological order on int
    bitmasks: a vertex outside the candidate is reached if it is a source
    or has a reached predecessor; the candidate dominates iff no target is
    reached.  Only meant for graphs whose path universe is tiny.
    """
    sources = set(sources)
    universe = _path_universe(cdag, targets, sources)
    order = [v for v in cdag.topo_order() if v in universe]
    bit = {v: 2 << i for i, v in enumerate(order)}  # bit 1: a super-source, always reached
    pred = cdag.predecessors()
    sweep = [(bit[v], sum(bit[u] for u in pred[v] if u in bit) | (v in sources)) for v in order]
    target_mask = sum(bit[v] for v in set(targets) if v in bit)

    def is_dominator(cut):
        reached = 1
        for b, p in sweep:
            if reached & p and not cut & b:
                reached |= b
        return not reached & target_mask

    # the targets always dominate, so the last vertices go first: on the
    # deciding size a witness tends to turn up early
    for k in range(len(order) + 1):
        for cut in itertools.combinations(reversed(bit.values()), k):
            if is_dominator(sum(cut)):
                return k
    return len(order)


# ---------------------------------------------------------------------------
# dominator-bound verification on MSP structure
# ---------------------------------------------------------------------------

@dataclass
class DominatorCheckReport:
    checked: int = 0
    skipped: int = 0
    failures: list = field(default_factory=list)  # (description, observed, required)
    min_slack: float = 0.0  # min over samples of observed - required; 0.0 if none

    @property
    def passed(self) -> bool:
        return not self.failures

    def __bool__(self):
        return self.passed

    def record(self, description: str, observed: int, required):
        """Tally one checked sample.  The tolerance absorbs float rounding
        in the square-root Type 1 bounds; against the integer and
        half-integer requirements it changes nothing."""
        slack = observed - required
        if not self.checked or slack < self.min_slack:
            self.min_slack = slack
        self.checked += 1
        if observed + 1e-9 < required:
            self.failures.append((description, observed, required))


def _type2_output_paths(cdag: Cdag, m: int):
    paths = [d.path for d in enumerate_msps(cdag.plan, m) if d.msp_type == 2]
    if not paths and _msp_type(cdag.plan, m, None) == 2:
        # boundary case: a fast root whose children are already below the
        # threshold generates no MSP by definition, but its outputs still
        # obey the Type 2 dominator bound and are worth checking.
        paths = [()]
    return paths


def verify_dominator_type2(cdag: Cdag, m: int, max_samples: int = 64,
                           seed: int = 0) -> DominatorCheckReport:
    """Sampled check: dominators of Type 2 MSP output subsets Z with
    |Z| <= 4M satisfy |D| >= |Z|/2 against exact min-cut values."""
    paths = _type2_output_paths(cdag, m)
    z_all = []
    for p in paths:
        z_all.extend(_flatten(cdag.node_outputs[p]))
    inputs = cdag.global_inputs()
    cap = 4 * m
    rng = random.Random(seed)
    samples = []
    if z_all:
        samples.append(z_all[:cap])
        samples.extend([v] for v in z_all[:8])
        for _ in range(max_samples):
            size = rng.randint(1, min(cap, len(z_all)))
            samples.append(rng.sample(z_all, size))
    report = DominatorCheckReport()
    for z in samples:
        if z and len(z) <= cap:
            report.record(f"|Z|={len(z)}", min_dominator_size(cdag, z, inputs), len(z) / 2)
    return report


def verify_dominator_type1(cdag: Cdag, m: int, max_samples: int = 48,
                           seed: int = 0) -> DominatorCheckReport:
    """Sampled check of the Type 1 MSP dominator bounds.

    Input subsets Y across MSPs: |D| >= min(2M, sum a_i / sqrt(sum b_i))
    for every valid decomposition |Y ∩ Y_i| = a_i/sqrt(b_i) with natural
    a_i >= b_i (0/0 = 0); two decompositions are instantiated per sample,
    (a_i, b_i) = (y_i, 1) and (y_i^2, y_i^2).  Product subsets T' within
    one MSP: a dominator with respect to that MSP's own inputs has size at
    least max(#A-entries touched, #B-entries touched).
    """
    msps = [d for d in enumerate_msps(cdag.plan, m) if d.msp_type == 1]
    inputs = cdag.global_inputs()
    rng = random.Random(seed)
    report = DominatorCheckReport()

    y_sets = []
    for d in msps:
        ag, bg = cdag.node_inputs[d.path]
        y_sets.append(_flatten(ag) + _flatten(bg))

    if y_sets:
        samples = [[list(ys) for ys in y_sets]]  # the full input set
        for _ in range(max_samples):
            parts = []
            for ys in y_sets:
                size = rng.randint(0, len(ys))
                parts.append(rng.sample(ys, size) if size else [])
            samples.append(parts)
        for parts in samples:
            y = [v for part in parts for v in part]
            if not y:
                report.skipped += 1
                continue
            sizes = [len(part) for part in parts if part]
            bound_flat = sum(sizes) / math.sqrt(len(sizes))
            bound_l2 = math.sqrt(sum(s * s for s in sizes))
            report.record(f"input subset sizes={sizes}", min_dominator_size(cdag, y, inputs),
                          min(2 * m, max(bound_flat, bound_l2)))

    # every Type 1 MSP is a standard leaf, whose products _build_leaf records
    for d, y_sources in zip(msps, y_sets):
        prods = cdag.elem_products[d.path]
        s = d.n_i
        keys = list(prods)
        samples = [keys]  # all products
        samples.append([(0, k, 0) for k in range(s)])  # one full dot product
        samples.append([keys[0]])
        for _ in range(max_samples // 2):
            samples.append(rng.sample(keys, rng.randint(1, len(keys))))
        for t_keys in samples:  # every sample is non-empty
            a_touched = {(i, k) for i, k, j in t_keys}
            b_touched = {(k, j) for i, k, j in t_keys}
            dom = min_dominator_size(cdag, [prods[k] for k in t_keys], y_sources)
            report.record(f"product subset |T'|={len(t_keys)}", dom,
                          max(len(a_touched), len(b_touched)))
    return report
