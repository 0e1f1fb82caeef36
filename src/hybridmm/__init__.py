"""Desk-scale laboratory for the I/O behavior of hybrid matrix multiplication.

Exact ring arithmetic, explicit recursion plans mixing fast 2x2-base schemes
with standard algorithms, a red-blue pebble-game schedule simulator with
block moves, I/O lower-bound evaluation from maximal sub-problems, and
small-instance CDAG verification of the structural facts the bounds rest on.
"""

from .ringmat import DEFAULT_MODULUS, Matrix, mat_add, mat_mul_naive, mat_sub
from .plans import (SCHEMES, STRASSEN, WINOGRAD, FastNode, FastScheme,
                    PlanParseError, RecursionPlan, StandardLeaf, StandardVariant,
                    parse_plan, plan_stats, random_plan, serialize_plan,
                    uniform_plan)
from .engine import ExecTrace, execute, execute_stacked
from .pebble import (IoStats, MachineConfig, MemoryLayout, ParsimonyReport,
                     Schedule, ScheduleError, check_parsimonious, dump_schedule,
                     parse_schedule, replay_values, simulate)
from .schedules import gen_hybrid_schedule, gen_standard_blocked_schedule
from .bounds import (BOUND_CONSTANT_C, BoundReport, MspDescriptor, enumerate_msps,
                     parallel_bound, sequential_bound,
                     uniform_closed_form, uniform_inner_term,
                     uniform_parallel_closed_form)

__all__ = [name for name in dir() if not name.startswith("_")]
