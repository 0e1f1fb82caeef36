import gc
import importlib
import pickle
import sys
import time
import weakref

import numpy as np
import pytest

from hybridmm import bounds
from hybridmm.engine import execute
from hybridmm.plans import (MAX_PLAN_DEPTH, SCHEMES, STRASSEN, WINOGRAD, FastNode,
                            FastScheme, PlanParseError, StandardLeaf, StandardVariant,
                            parse_plan, plan_stats, random_plan, serialize_plan,
                            uniform_plan)
from hybridmm.ringmat import Matrix, mat_mul_naive

IT = StandardVariant.ITERATIVE_DEF


def all_nodes(plan):
    stack = [plan]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, FastNode):
            stack.extend(node.children)


@pytest.mark.parametrize("scheme", [STRASSEN, WINOGRAD])
def test_scheme_correct_on_random_2x2(scheme):
    rng = np.random.default_rng(11)
    plan = uniform_plan(2, 1, scheme)
    for _ in range(100):
        a = Matrix.random(2, rng)
        b = Matrix.random(2, rng)
        c, _ = execute(plan, a, b)
        assert c == mat_mul_naive(a, b)


@pytest.mark.parametrize("scheme", [STRASSEN, WINOGRAD])
def test_scheme_rows_distinct(scheme):
    assert len({tuple(r) for r in scheme.encode_a}) == 7
    assert len({tuple(r) for r in scheme.encode_b}) == 7


def test_scheme_rejects_duplicate_rows():
    rows = list(STRASSEN.encode_a)
    rows[1] = rows[0]
    with pytest.raises(ValueError):
        FastScheme("dup", tuple(rows), STRASSEN.encode_b, STRASSEN.decode)


def test_strassen_supports_match_classical_formulas():
    # operand sets of the seven products, quadrants ordered 11,12,21,22
    def supports(rows):
        return [tuple(q for q, c in enumerate(r) if c) for r in rows]

    assert supports(STRASSEN.encode_a) == [
        (0, 3), (2, 3), (0,), (3,), (0, 1), (0, 2), (1, 3)]
    assert supports(STRASSEN.encode_b) == [
        (0, 3), (0,), (1, 3), (0, 2), (3,), (0, 1), (2, 3)]


def test_uniform_plan_threshold_at_root():
    plan = uniform_plan(8, 8)
    assert plan == StandardLeaf(IT, 8)


def test_uniform_plan_8_2_shape():
    plan = uniform_plan(8, 2)
    st = plan_stats(plan)
    assert st.fast_nodes == 8
    assert st.standard_leaves == 49
    assert st.leaf_sizes == {2: 49}


def test_uniform_plan_base_case():
    plan = uniform_plan(2, 1, STRASSEN)
    assert isinstance(plan, FastNode)
    assert all(c == StandardLeaf(IT, 1) for c in plan.children)


def test_uniform_plan_16_4_counts():
    st = plan_stats(uniform_plan(16, 4))
    assert (st.fast_nodes, st.standard_leaves, st.leaf_sizes) == (8, 49, {4: 49})


def test_uniform_plans_are_uniform():
    plan = uniform_plan(16, 2)
    kinds = {}
    for node in all_nodes(plan):
        kinds.setdefault(node.size, set()).add(type(node).__name__)
    assert all(len(v) == 1 for v in kinds.values())


def test_uniform_plan_errors():
    with pytest.raises(ValueError):
        uniform_plan(6, 2)
    with pytest.raises(ValueError):
        uniform_plan(8, 3)
    with pytest.raises(ValueError):
        uniform_plan(4, 8)


def test_fast_node_structure_enforced():
    leaf = StandardLeaf(IT, 2)
    with pytest.raises(ValueError):
        FastNode(STRASSEN, (leaf,) * 6)
    with pytest.raises(ValueError):
        FastNode(STRASSEN, (leaf,) * 6 + (StandardLeaf(IT, 4),))
    node = FastNode(STRASSEN, (StandardLeaf(IT, 1),) * 7)
    assert node.size == 2


def test_fast_node_repr_does_not_expand_subtrees():
    # a uniform plan shares one subtree per level, so an expanded repr
    # would grow 7x per level; 2**20 is far past anything printable
    t0 = time.perf_counter()
    text = repr(uniform_plan(2 ** 20, 1, WINOGRAD))
    assert time.perf_counter() - t0 < 1.0
    assert len(text) < 200
    assert "winograd" in text and str(2 ** 20) in text
    assert uniform_plan(4, 1) == uniform_plan(4, 1) != uniform_plan(4, 2)


def test_random_plan_p0_and_p1():
    assert random_plan(8, 0.0, seed=1) == StandardLeaf(IT, 8)
    plan = random_plan(4, 1.0, seed=1)
    st = plan_stats(plan)
    assert st.fast_nodes == 8 and st.standard_leaves == 49
    assert st.leaf_sizes == {1: 49}


def test_random_plan_deterministic():
    a = random_plan(16, 0.6, seed=42)
    b = random_plan(16, 0.6, seed=42)
    assert a == b
    assert serialize_plan(a) == serialize_plan(b)
    c = random_plan(16, 0.6, seed=43)
    assert a != c  # overwhelmingly likely for this tree size


def test_fast_children_structure_property():
    for seed in range(10):
        plan = random_plan(16, 0.5, seed=seed)
        for node in all_nodes(plan):
            if isinstance(node, FastNode):
                assert len(node.children) == 7
                assert all(c.size == node.size // 2 for c in node.children)
                assert node.size >= 2


def test_single_leaf_stats():
    st = plan_stats(StandardLeaf(IT, 4))
    assert (st.fast_nodes, st.standard_leaves) == (0, 1)


def test_serialize_round_trip():
    for plan in (uniform_plan(8, 2), uniform_plan(4, 4),
                 random_plan(16, 0.5, seed=9, scheme=WINOGRAD),
                 random_plan(8, 0.8, seed=3)):
        assert parse_plan(serialize_plan(plan)) == plan


def test_hash_and_equality_visit_shared_subtrees_once():
    # 7^20 leaves: walking every path, as a field-by-field hash does, would
    # never return
    t0 = time.perf_counter()
    big = uniform_plan(2**20, 1)
    assert hash(big) == hash(uniform_plan(2**20, 1))
    assert big == uniform_plan(2**20, 1)
    assert big != uniform_plan(2**20, 1, variant=StandardVariant.BLOCK_RECURSIVE)
    assert big != uniform_plan(2**20, 2)
    assert time.perf_counter() - t0 < 1.0

    # plans built apart share no subtree with each other
    def mixed(last_n0):
        return FastNode(STRASSEN, (uniform_plan(8, 1),) * 6 + (uniform_plan(8, last_n0),))

    # both plans held: equality is identity, so a dropped plan's hash says
    # nothing about a plan built after it
    first, second = mixed(2), mixed(2)
    assert first == second and hash(first) == hash(second)
    assert mixed(2) != mixed(1)
    plan = random_plan(16, 0.7, seed=5)
    assert {plan: 1}[parse_plan(serialize_plan(plan))] == 1


def test_equal_subtrees_are_one_object():
    assert uniform_plan(64, 1) is uniform_plan(64, 1)
    for seed, scheme in ((1, STRASSEN), (3, WINOGRAD), (4, STRASSEN)):
        plan = random_plan(32, 0.8, seed=seed, scheme=scheme)
        assert isinstance(plan, FastNode)
        assert parse_plan(serialize_plan(plan)) is plan
        assert pickle.loads(pickle.dumps(plan)) is plan
    leaves = (StandardLeaf(IT, 1),) * 7
    twin = FastScheme("strassen", *(tuple(map(tuple, m)) for m in (
        STRASSEN.encode_a, STRASSEN.encode_b, STRASSEN.decode)))
    assert twin is not STRASSEN and twin == STRASSEN
    node = FastNode(twin, leaves)
    assert node is FastNode(STRASSEN, leaves)
    # building an equal node again leaves the live node's fields as they were
    scheme, children = node.scheme, node.children
    assert FastNode(STRASSEN, tuple(StandardLeaf(IT, 1) for _ in range(7))) is node
    assert node.scheme is scheme and node.children is children
    with pytest.raises(AttributeError):
        node.size = 4
    renamed = FastScheme("renamed", twin.encode_a, twin.encode_b, twin.decode)
    assert FastNode(renamed, leaves) is not FastNode(STRASSEN, leaves)


def test_random_plan_holds_each_distinct_subtree_once():
    plan = random_plan(256, 0.7, seed=1)
    assert len({id(node) for node in all_nodes(plan) if isinstance(node, FastNode)}) == 2286
    assert plan_stats(plan).fast_nodes == 51923


def test_dropped_plan_is_released():
    live = len(FastNode._nodes)
    ref = weakref.ref(random_plan(32, 0.8, seed=7))
    gc.collect()
    assert ref() is None and len(FastNode._nodes) == live


def test_msp_memo_hits_on_equal_subtrees(monkeypatch):
    # distinct fast subtrees by structure, numbered without using identity
    def canon(node, table):
        if isinstance(node, StandardLeaf):
            return node
        key = (node.scheme.id, tuple(canon(c, table) for c in node.children))
        return table.setdefault(key, len(table))

    plan = random_plan(64, 0.7, seed=1)
    distinct = {}
    canon(plan, distinct)
    calls = []
    classify = bounds._msp_type
    monkeypatch.setattr(bounds, "_msp_type", lambda *a: calls.append(1) or classify(*a))
    # at M=1 the MSPs are the size-2 nodes, so the walk reaches the small
    # subtrees that a random plan repeats (at M=3 it stops above them)
    report = bounds.sequential_bound(plan, 64, 1, 1)
    assert (report.nu1, report.nu2) == (1551, 2854)
    # the walk classifies the root, then the children of each distinct
    # subtree it descends into, once; a walk whose memo missed on equal
    # copies classified 5,139 nodes here
    assert len(calls) <= 1 + 7 * len(distinct) == 1821


def test_parse_leaf_format():
    plan = parse_plan("S[iterative,n=4]")
    assert plan == StandardLeaf(IT, 4)
    plan = parse_plan("S[block,n=8]")
    assert plan == StandardLeaf(StandardVariant.BLOCK_RECURSIVE, 8)


def test_parse_errors_carry_position():
    with pytest.raises(PlanParseError) as exc:
        parse_plan("S[iterativ,n=4]")
    assert exc.value.pos == 2
    with pytest.raises(PlanParseError):
        parse_plan("F[strassen](S[iterative,n=1])")  # too few children
    with pytest.raises(PlanParseError):
        parse_plan("X[?]")
    with pytest.raises(PlanParseError):
        parse_plan("S[iterative,n=3]")  # not a power of two


def test_parse_caps_nesting_depth():
    # fast nodes may nest MAX_PLAN_DEPTH deep: the text below fails only on
    # its missing siblings, one level more fails on the depth itself
    at_cap = "F[strassen](" * MAX_PLAN_DEPTH + "S[iterative,n=1]"
    with pytest.raises(PlanParseError) as exc:
        parse_plan(at_cap)
    assert exc.value.pos == len(at_cap)
    with pytest.raises(PlanParseError) as exc:
        parse_plan("F[strassen](" * (MAX_PLAN_DEPTH + 1) + "S[iterative,n=1]")
    assert exc.value.pos == len("F[strassen](") * MAX_PLAN_DEPTH
    assert "nest at most" in str(exc.value)


def test_scheme_registry():
    assert set(SCHEMES) == {"strassen", "winograd"}


def test_fresh_import_is_released():
    # a fresh import of the package (as a benchmark harness makes on every
    # pass) must be freed once dropped; typing.Union's cache used to keep
    # each copy of the plan classes, and their whole module, alive
    saved = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "hybridmm"}
    try:
        for name in saved:
            del sys.modules[name]
        node_class = weakref.ref(importlib.import_module("hybridmm.plans").FastNode)
    finally:
        for name in [k for k in sys.modules if k.split(".")[0] == "hybridmm"]:
            del sys.modules[name]
        sys.modules.update(saved)
    gc.collect()
    assert node_class() is None
