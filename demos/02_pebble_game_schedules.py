"""Walkthrough: red-blue pebble-game schedules and modeled I/O.

A schedule is a flat list of reads, writes, computes, and evictions over a
single address space; the simulator validates it against a cache of M words
with B-word block transfers and counts the I/O operations.
"""

import numpy as np

from hybridmm import (MachineConfig, Matrix, check_parsimonious, dump_schedule,
                      gen_hybrid_schedule, gen_standard_blocked_schedule,
                      mat_mul_naive, replay_values, simulate, uniform_plan)

# --- blocked standard multiplication ---------------------------------------

n = 16
for m in (768, 192, 48, 12, 3):
    cfg = MachineConfig(m, 1)
    sched = gen_standard_blocked_schedule(n, cfg)
    st = simulate(sched, cfg)
    print(f"blocked n={n} M={m:4d}: io={st.io_total:6d} peak={st.peak_cache:4d} "
          f"parsimonious={check_parsimonious(sched).ok}")
# with M = 3n^2 the whole problem fits: 2n^2 reads + n^2 writes and no spill

# --- block transfers ---------------------------------------------------------

for b_words in (1, 4):
    cfg = MachineConfig(192, b_words)
    st = simulate(gen_standard_blocked_schedule(n, cfg), cfg)
    print(f"B={b_words}: io={st.io_total}")

# --- hybrid schedules --------------------------------------------------------

# the schedule computes the right function, not just legal moves: replaying
# its computes on ring values reproduces the exact product
cfg = MachineConfig(48, 1)
plan = uniform_plan(16, 4)
sched = gen_hybrid_schedule(plan, cfg)
rng = np.random.default_rng(1)
A, B = Matrix.random(16, rng), Matrix.random(16, rng)
print("replay == oracle:", replay_values(sched, A, B) == mat_mul_naive(A, B))

# fast nodes build the encoded operands that combine quadrants in slow
# memory and hand single-quadrant operands to their children in place;
# sub-problems that fit in cache run after a single read pass
for n0 in (1, 4, 16):
    plan = uniform_plan(16, n0)
    st = simulate(gen_hybrid_schedule(plan, cfg), cfg)
    print(f"hybrid(16,{n0:2d}) M=48: io={st.io_total:5d} peak={st.peak_cache}")

# --- the schedule dump format ------------------------------------------------

small = gen_hybrid_schedule(uniform_plan(2, 1), MachineConfig(16, 1))
print("first schedule lines:")
for line in dump_schedule(small).splitlines()[:6]:
    print("   ", line)
