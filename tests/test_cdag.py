import itertools
import random
from collections import Counter

import pytest

from hybridmm.cdag import (ELEM_PRODUCT, ENCODER_OUT, GLOBAL_INPUT,
                           GLOBAL_OUTPUT, SUM_NODE, Cdag, EncoderGraph,
                           build_cdag, connectivity_requirement,
                           min_dominator_size, min_dominator_size_exhaustive,
                           verify_dominator_type1, verify_dominator_type2,
                           verify_encoder_connectivity,
                           verify_encoder_distinct_neighborhoods)
from hybridmm.plans import (STRASSEN, WINOGRAD, StandardLeaf, StandardVariant,
                            random_plan, uniform_plan)

IT = StandardVariant.ITERATIVE_DEF
BR = StandardVariant.BLOCK_RECURSIVE

# Adjacency of the classical seven-product recursion, quadrant indices
# 0..3 = X11, X12, X21, X22 and products indexed 0..6.
ENC_A_EDGES = {(0, 0), (3, 0), (2, 1), (3, 1), (0, 2), (3, 3), (0, 4), (1, 4),
               (2, 5), (0, 5), (1, 6), (3, 6)}
ENC_B_EDGES = {(0, 0), (3, 0), (0, 1), (1, 2), (3, 2), (2, 3), (0, 3), (3, 4),
               (0, 5), (1, 5), (2, 6), (3, 6)}
DEC_EDGES = {(0, 0), (3, 0), (4, 0), (6, 0), (2, 1), (4, 1), (1, 2), (3, 2),
             (0, 3), (1, 3), (2, 3), (5, 3)}  # (product, quadrant)


def test_strassen_base_cdag_counts():
    g = build_cdag(uniform_plan(2, 1))
    roles = Counter(g.roles)
    assert roles[GLOBAL_INPUT] == 8
    assert roles[ENCODER_OUT] == 14
    assert roles[ELEM_PRODUCT] == 7
    assert roles[GLOBAL_OUTPUT] == 4
    assert g.num_vertices == 33
    assert len(g.edges) == 50


def test_strassen_base_cdag_edge_lists_match_scheme():
    g = build_cdag(uniform_plan(2, 1))
    a_in = [g.node_inputs[()][0][i][j] for i in range(2) for j in range(2)]
    b_in = [g.node_inputs[()][1][i][j] for i in range(2) for j in range(2)]
    prods = {}
    enc_a = {}
    enc_b = {}
    for i in range(7):
        path = (i,)
        enc_a[i] = g.node_inputs[path][0][0][0]
        enc_b[i] = g.node_inputs[path][1][0][0]
        prods[i] = g.node_outputs[path][0][0]
    outs = g.node_outputs[()]
    out_order = [outs[0][0], outs[0][1], outs[1][0], outs[1][1]]
    edges = set(g.edges)
    want = set()
    for q, i in ENC_A_EDGES:
        want.add((a_in[q], enc_a[i]))
    for q, i in ENC_B_EDGES:
        want.add((b_in[q], enc_b[i]))
    for i in range(7):
        want.add((enc_a[i], prods[i]))
        want.add((enc_b[i], prods[i]))
    for i, q in DEC_EDGES:
        want.add((prods[i], out_order[q]))
    assert edges == want


def test_every_built_cdag_is_acyclic():
    plans = [uniform_plan(2, 1), uniform_plan(4, 2), uniform_plan(4, 1),
             uniform_plan(8, 4), StandardLeaf(IT, 4), StandardLeaf(BR, 4),
             random_plan(8, 0.5, seed=4)]
    for plan in plans:
        g = build_cdag(plan)
        assert len(g.topo_order()) == g.num_vertices


def test_io_degree_invariants():
    g = build_cdag(uniform_plan(4, 2))
    succ, pred = g.successors(), g.predecessors()
    for v, role in enumerate(g.roles):
        if role == GLOBAL_INPUT:
            assert not pred[v]
        if role == GLOBAL_OUTPUT:
            assert not succ[v]


def test_leaf_cdag_iterative_chains():
    g = build_cdag(StandardLeaf(IT, 2))
    roles = Counter(g.roles)
    assert roles[ELEM_PRODUCT] == 8
    # chains of exactly one addition per output entry
    assert roles[GLOBAL_OUTPUT] == 4
    pred = g.predecessors()
    for v, role in enumerate(g.roles):
        if role == GLOBAL_OUTPUT:
            assert len(pred[v]) == 2
            assert all(g.roles[u] == ELEM_PRODUCT for u in pred[v])


def test_leaf_cdag_summation_shapes():
    # left-deep vs balanced trees differ in depth for s=4: 3 vs 2 additions
    def sum_depth(g):
        pred = g.predecessors()
        depth = {}
        for v in g.topo_order():
            depth[v] = 1 + max((depth[u] for u in pred[v]), default=0)
        return max(depth[v] for v, r in enumerate(g.roles) if r == GLOBAL_OUTPUT)

    g_it = build_cdag(StandardLeaf(IT, 4))
    g_br = build_cdag(StandardLeaf(BR, 4))
    assert sum_depth(g_it) == 2 + 3  # input, product, then a 3-long chain
    assert sum_depth(g_br) == 2 + 2  # balanced over 4 terms


def test_disjoint_msp_subcdags():
    g = build_cdag(uniform_plan(8, 4))
    from hybridmm.bounds import enumerate_msps
    msps = enumerate_msps(uniform_plan(8, 4), 4)
    seen = set()
    for d in msps:
        verts = set(g.vertices_of(d.path))
        assert not verts & seen
        seen |= verts


def test_vertex_count_uniform_4_2():
    g = build_cdag(uniform_plan(4, 2))
    roles = Counter(g.roles)
    # 4 positions x 7 children x 2 factors encoder outputs
    assert roles[ENCODER_OUT] == 56
    # 7 leaves of size 2, 8 products each
    assert roles[ELEM_PRODUCT] == 56
    # one addition per output entry per leaf
    assert roles[SUM_NODE] == 28
    assert roles[GLOBAL_OUTPUT] == 16
    assert roles[GLOBAL_INPUT] == 32


def test_size_guard():
    with pytest.raises(ValueError):
        build_cdag(uniform_plan(32, 16))


def test_export_format():
    g = build_cdag(uniform_plan(2, 1))
    text = g.export_edges()
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert len(lines) == len(g.edges)
    u, v = lines[0].split()
    assert (int(u), int(v)) in set(g.edges)


# ---------------------------------------------------------------------------
# encoder checks
# ---------------------------------------------------------------------------

def test_encoder_graphs_match_frozen_adjacency():
    ea = EncoderGraph.from_scheme(STRASSEN, "A")
    eb = EncoderGraph.from_scheme(STRASSEN, "B")
    assert set(ea.edges) == ENC_A_EDGES
    assert set(eb.edges) == ENC_B_EDGES


@pytest.mark.parametrize("side", ["A", "B"])
def test_encoder_distinct_neighborhoods(side):
    assert verify_encoder_distinct_neighborhoods(
        EncoderGraph.from_scheme(STRASSEN, side))
    assert verify_encoder_distinct_neighborhoods(
        EncoderGraph.from_scheme(WINOGRAD, side))


def test_encoder_duplicate_row_detected():
    rows = [[1, 0, 0, 0]] * 2 + [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
                                 [1, 1, 0, 0], [0, 0, 1, 1]]
    enc = EncoderGraph(tuple((q, i) for i in range(7) for q in range(4) if rows[i][q]))
    assert not verify_encoder_distinct_neighborhoods(enc)


@pytest.mark.parametrize("side", ["A", "B"])
def test_encoder_connectivity_all_subsets(side):
    rep = verify_encoder_connectivity(EncoderGraph.from_scheme(STRASSEN, side))
    assert rep.passed
    assert rep.checked_subsets == 127


def test_connectivity_requirement_values():
    assert connectivity_requirement(1) == 1
    assert connectivity_requirement(7) == 4


def test_connectivity_failure_detected():
    # an encoder that funnels every output through a single input cannot
    # produce two vertex-disjoint paths
    enc = EncoderGraph(tuple((0, i) for i in range(7)))
    rep = verify_encoder_connectivity(enc)
    assert not rep.passed
    assert rep.failures


# ---------------------------------------------------------------------------
# dominator computations
# ---------------------------------------------------------------------------

def manual_cdag(num_vertices, edges):
    g = Cdag(plan=None)
    for _ in range(num_vertices):
        g.add_vertex("V", ())
    for u, v in edges:
        g.add_edge(u, v)
    return g


def test_dominator_trivial_cases():
    g = build_cdag(uniform_plan(2, 1))
    ins = g.global_inputs()
    assert min_dominator_size(g, [], ins) == 0
    assert min_dominator_size(g, [ins[0]], [ins[0]]) == 1
    # a vertex unreachable from the sources contributes nothing
    iso = manual_cdag(3, [(0, 1)])
    assert min_dominator_size(iso, [2], [0]) == 0


def test_flow_equals_exhaustive_on_small_graphs():
    # every test CDAG with at most 22 vertices, multiple target choices
    graphs = [build_cdag(StandardLeaf(IT, 2)),
              build_cdag(StandardLeaf(BR, 2)),
              build_cdag(uniform_plan(2, 2))]
    rng = random.Random(0)
    checked = 0
    for g in graphs:
        assert g.num_vertices <= 22
        ins = g.global_inputs()
        outs = g.global_outputs()
        target_choices = [outs, outs[:2], [outs[0]]]
        for _ in range(4):
            target_choices.append(rng.sample(range(g.num_vertices),
                                             rng.randint(1, 4)))
        for targets in target_choices:
            flow = min_dominator_size(g, targets, ins)
            brute = min_dominator_size_exhaustive(g, targets, ins)
            assert flow == brute, (targets, flow, brute)
            checked += 1
    assert checked == 21


def brute_force_dominator(n, edges, targets, sources):
    """Smallest vertex set meeting every source-target path, trying all sets
    by size; vertices are numbered in topological order."""
    for k in range(n + 1):
        for cut in map(set, itertools.combinations(range(n), k)):
            reached = {v for v in sources if v not in cut}
            for u, v in sorted(edges):
                if u in reached and v not in cut:
                    reached.add(v)
            if not reached & set(targets):
                return k


def test_flow_equals_exhaustive_on_random_dags():
    # interior sources, whose predecessors may already carry flow; sources
    # that are targets; isolated vertices; up to 6 targets on 16 vertices
    rng = random.Random(1)
    for trial in range(300):
        n = rng.randint(6, 16)
        linked = n - rng.randint(0, 2)  # the vertices from here on are isolated
        density = rng.choice((0.2, 0.35, 0.5))
        edges = [(u, v) for u in range(linked) for v in range(u + 1, linked)
                 if rng.random() < density]
        g = manual_cdag(n, edges)
        roots = [v for v in range(n) if not g.predecessors()[v]]
        sources = (rng.sample(roots, rng.randint(1, len(roots)))
                   + rng.sample(range(n), rng.randint(0, 4)))
        targets = rng.sample(range(n), rng.randint(1, 6))
        if trial % 3 == 0:
            targets[0] = rng.choice(sources)
        want = brute_force_dominator(n, edges, targets, sources)
        assert min_dominator_size(g, targets, sources) == want, (edges, targets, sources)
        assert min_dominator_size_exhaustive(g, targets, sources) == want


def test_strassen_output_dominator():
    g = build_cdag(uniform_plan(2, 1))
    ins, outs = g.global_inputs(), g.global_outputs()
    flow = min_dominator_size(g, outs, ins)
    brute = min_dominator_size_exhaustive(g, outs, ins)
    assert flow == brute
    assert flow >= 2  # |Z|/2 with |Z| = 4
    # the seven products, by contrast, need all seven vertices
    prods = [v for v, r in enumerate(g.roles) if r == ELEM_PRODUCT]
    assert min_dominator_size(g, prods, ins) == 7


def test_dominator_type2_small_plans():
    for plan, m in [(uniform_plan(2, 1), 1), (uniform_plan(4, 1), 1),
                    (uniform_plan(4, 1), 4), (uniform_plan(8, 2), 4)]:
        g = build_cdag(plan)
        rep = verify_dominator_type2(g, m, max_samples=24)
        assert rep.passed, rep.failures
        assert rep.checked > 0 or not _has_type2(plan, m)


def _has_type2(plan, m):
    from hybridmm.bounds import enumerate_msps
    from hybridmm.plans import FastNode
    if any(d.msp_type == 2 for d in enumerate_msps(plan, m)):
        return True
    return isinstance(plan, FastNode) and (plan.size // 2) ** 2 < 4 * m


def test_dominator_type1_small_plans():
    for plan, m in [(uniform_plan(4, 4), 1), (uniform_plan(4, 2), 1),
                    (uniform_plan(8, 8), 4), (uniform_plan(8, 4), 4)]:
        g = build_cdag(plan)
        rep = verify_dominator_type1(g, m, max_samples=12)
        assert rep.passed, rep.failures
        assert rep.checked > 0


def test_dominator_type1_frozen_examples():
    # all-standard n=4, M=1: the whole input set dominates at >= min(2M, 32)
    g = build_cdag(uniform_plan(4, 4))
    a_grid, b_grid = g.node_inputs[()]
    y = [v for row in a_grid for v in row] + [v for row in b_grid for v in row]
    dom = min_dominator_size(g, y, g.global_inputs())
    assert dom >= min(2 * 1, 32)
    # single product: both touched sets are singletons
    prods = g.elem_products[()]
    assert min_dominator_size(g, [prods[(0, 0, 0)]], y) >= 1
    # a full dot product in a 4x4 leaf touches a whole row of A
    targets = [prods[(0, k, 0)] for k in range(4)]
    assert min_dominator_size(g, targets, y) >= 4


# (plan, M, seed) -> ((checked, skipped, min_slack) of the Type 2 report,
# the same of the Type 1 report, number and sum of the dominator sizes the
# two computed), over criterion 7's plans and sample counts; every report
# passed with no failures.  Recorded from the Dinic max-flow this module
# used before the cone-restricted augmenting paths.
PINNED_REPORTS = {
    (0, 1, 1): ((21, 0, 0.5), (0, 0, 0.0), 21, 46),
    (0, 1, 101): ((21, 0, 0.5), (0, 0, 0.0), 21, 46),
    (0, 4, 4): ((21, 0, 0.5), (0, 0, 0.0), 21, 47),
    (0, 4, 104): ((21, 0, 0.5), (0, 0, 0.0), 21, 42),
    (1, 1, 1): ((25, 0, 0.5), (0, 0, 0.0), 25, 44),
    (1, 1, 101): ((25, 0, 0.5), (0, 0, 0.0), 25, 54),
    (1, 4, 4): ((25, 0, 0.5), (0, 0, 0.0), 25, 135),
    (1, 4, 104): ((25, 0, 0.5), (0, 0, 0.0), 25, 116),
    (2, 1, 1): ((0, 0, 0.0), (67, 0, 0), 67, 496),
    (2, 1, 101): ((0, 0, 0.0), (67, 0, 0), 67, 535),
    (2, 4, 4): ((25, 0, 0.5), (0, 0, 0.0), 25, 135),
    (2, 4, 104): ((25, 0, 0.5), (0, 0, 0.0), 25, 116),
    (3, 1, 1): ((0, 0, 0.0), (19, 0, 0), 19, 413),
    (3, 1, 101): ((0, 0, 0.0), (19, 0, 0), 19, 368),
    (3, 4, 4): ((0, 0, 0.0), (0, 0, 0.0), 0, 0),
    (3, 4, 104): ((0, 0, 0.0), (0, 0, 0.0), 0, 0),
    (4, 1, 1): ((0, 0, 0.0), (403, 0, 0), 403, 3016),
    (4, 1, 101): ((0, 0, 0.0), (403, 0, 0), 403, 3052),
    (4, 4, 4): ((25, 0, 0.5), (0, 0, 0.0), 25, 173),
    (4, 4, 104): ((25, 0, 0.5), (0, 0, 0.0), 25, 168),
    (5, 1, 1): ((0, 0, 0.0), (19, 0, 0), 19, 1630),
    (5, 1, 101): ((0, 0, 0.0), (19, 0, 0), 19, 1447),
    (5, 4, 4): ((0, 0, 0.0), (19, 0, 0.0), 19, 1613),
    (5, 4, 104): ((0, 0, 0.0), (19, 0, 0.0), 19, 1152),
    (6, 1, 1): ((25, 0, 0.5), (139, 0, 0), 164, 1832),
    (6, 1, 101): ((25, 0, 0.5), (139, 0, 0), 164, 1754),
    (6, 4, 4): ((25, 0, 0.5), (27, 0, 0.0), 52, 836),
    (6, 4, 104): ((25, 0, 0.5), (27, 0, 0), 52, 779),
}


def test_dominator_reports_pinned(monkeypatch):
    import hybridmm.cdag as cdag_module
    sizes = []

    def recorded(g, targets, sources):
        sizes.append(min_dominator_size(g, targets, sources))
        return sizes[-1]

    monkeypatch.setattr(cdag_module, "min_dominator_size", recorded)
    plans = [uniform_plan(2, 1), uniform_plan(4, 1), uniform_plan(4, 2),
             uniform_plan(4, 4), uniform_plan(8, 2), uniform_plan(8, 8),
             random_plan(8, 0.5, seed=1)]
    got = {}
    for i, plan in enumerate(plans):
        g = build_cdag(plan)
        for m in (1, 4):
            for seed in (m, m + 100):
                sizes.clear()
                reports = (verify_dominator_type2(g, m, max_samples=16, seed=seed),
                           verify_dominator_type1(g, m, max_samples=10, seed=seed))
                assert all(r.passed and not r.failures for r in reports)
                got[(i, m, seed)] = (*((r.checked, r.skipped, r.min_slack) for r in reports),
                                     len(sizes), sum(sizes))
    assert got == PINNED_REPORTS

    sizes.clear()
    rep = verify_dominator_type2(build_cdag(uniform_plan(16, 2)), 4, max_samples=0)
    assert (rep.passed, rep.checked, rep.skipped, rep.min_slack, rep.failures) == (
        True, 9, 0, 0.5, [])
    assert sizes == [16, 1, 1, 1, 1, 1, 1, 1, 1]
