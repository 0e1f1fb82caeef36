"""Walkthrough: maximal sub-problems and the I/O lower bounds.

For a plan run with cache size M, the maximal sub-problems (MSPs) are the
topmost sub-problems below an all-fast ancestor chain: standard-computed
ones of side at least 2*sqrt(M) (Type 1) and fast nodes whose children drop
below that side (Type 2).  Their counts drive the lower bound

    IO >= max{ 2n^2,  c |T| / sqrt(M),  nu2 M } / B,   c = 0.38988157484

with |T| the elementary products inside Type 1 MSPs.  Uniform cutoff plans
additionally admit closed forms.
"""

from hybridmm import (MachineConfig, enumerate_msps, gen_hybrid_schedule,
                      parallel_bound, sequential_bound, simulate,
                      uniform_closed_form, uniform_inner_term, uniform_plan)

# --- enumerating MSPs --------------------------------------------------------

plan = uniform_plan(16, 8)
msps = enumerate_msps(plan, 4)
print(f"uniform(16,8) at M=4: {len(msps)} Type {msps[0].msp_type} MSPs, "
      f"n_i={msps[0].n_i}, |T|={sum(d.n_i ** 3 for d in msps if d.msp_type == 1)}")

msps = enumerate_msps(uniform_plan(16, 2), 4)
print(f"uniform(16,2) at M=4: {len(msps)} Type {msps[0].msp_type} MSPs")

print("no MSPs when n <= 2*sqrt(M):", enumerate_msps(uniform_plan(4, 1), 4))

# --- bound reports -----------------------------------------------------------

rep = sequential_bound(uniform_plan(16, 8), 16, 4, 1)
print("bound report:", rep.to_json())
print("parallel (P=7):", float(parallel_bound(uniform_plan(16, 8), 16, 4, 1, 7)))

# closed forms for the uniform family agree with the enumeration up to the
# constants the asymptotic statement drops
print("closed-form inner term:", uniform_inner_term(16, 8, 4),
      "-> bound", uniform_closed_form(16, 8, 4, 1))

# --- measured I/O always sits above the bound --------------------------------

print(f"{'n0':>4} {'bound':>8} {'measured':>9} {'ratio':>6}")
cfg = MachineConfig(48, 1)
for n0 in (1, 4, 16, 64):
    plan = uniform_plan(64, n0)
    bound = float(sequential_bound(plan, 64, 48, 1).sequential_bound)
    st = simulate(gen_hybrid_schedule(plan, cfg), cfg)
    print(f"{n0:>4} {bound:>8.0f} {st.io_total:>9} {st.io_total / bound:>6.2f}")
