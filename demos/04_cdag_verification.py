"""Walkthrough: explicit CDAGs and the structural facts behind the bounds.

Small instances are cheap enough to verify the load-bearing graph facts
directly: encoder outputs have pairwise-distinct neighborhoods, output
subsets of an encoder reach enough inputs through disjoint paths, and
minimum dominator sizes (computed exactly as the most vertex-disjoint
source-target paths, cross-checked by exhaustive search) obey the MSP
dominator bounds.
"""

from collections import Counter

from hybridmm.cdag import (EncoderGraph, build_cdag, connectivity_requirement,
                           min_dominator_size, min_dominator_size_exhaustive,
                           verify_dominator_type1, verify_dominator_type2,
                           verify_encoder_connectivity,
                           verify_encoder_distinct_neighborhoods)
from hybridmm.plans import STRASSEN, uniform_plan

# --- the 2x2 base-case graph -------------------------------------------------

g = build_cdag(uniform_plan(2, 1))
print("n=2 fast CDAG:", dict(Counter(g.roles)), f"({len(g.edges)} edges)")
print("acyclic:", len(g.topo_order()) == g.num_vertices)
print("export preview:")
for line in g.export_edges().splitlines()[:3]:
    print("   ", line)

# --- encoder facts, checked exhaustively --------------------------------------

for side in ("A", "B"):
    enc = EncoderGraph.from_scheme(STRASSEN, side)
    distinct = verify_encoder_distinct_neighborhoods(enc)
    conn = verify_encoder_connectivity(enc)
    print(f"Enc_{side}: distinct neighborhoods={distinct}, "
          f"connectivity over {conn.checked_subsets} subsets={conn.passed}")
print("required disjoint paths for all 7 outputs:", connectivity_requirement(7))

# --- exact minimum dominators --------------------------------------------------

ins, outs = g.global_inputs(), g.global_outputs()
flow = min_dominator_size(g, outs, ins)
brute = min_dominator_size_exhaustive(g, outs, ins)
print(f"min dominator of the 4 outputs: flow={flow}, exhaustive={brute}")
prods = [v for v, r in enumerate(g.roles) if r == "ELEM_PRODUCT"]
print("min dominator of the 7 products:", min_dominator_size(g, prods, ins))

# --- sampled dominator bounds on MSP structure ---------------------------------

for plan, m in [(uniform_plan(2, 1), 1), (uniform_plan(4, 2), 1),
                (uniform_plan(8, 4), 4)]:
    graph = build_cdag(plan)
    r2 = verify_dominator_type2(graph, m, max_samples=16)
    r1 = verify_dominator_type1(graph, m, max_samples=8)
    print(f"plan n={plan.size}, M={m}: Type2 {'PASS' if r2.passed else 'FAIL'} "
          f"({r2.checked} samples), Type1 {'PASS' if r1.passed else 'FAIL'} "
          f"({r1.checked} samples)")
