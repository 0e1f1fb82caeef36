import hashlib
import random
import re
from collections import Counter

import numpy as np
import pytest

from hybridmm.pebble import (MV_C, MV_E, MV_R, MV_REC, MV_W, OP_ADD, OP_CPY, OP_MUL,
                             OP_NEG, OP_SUB, IoStats, MachineConfig, MemoryLayout, Moves,
                             Schedule, ScheduleError, Template, check_parsimonious,
                             dump_schedule, parse_schedule, replay_values, simulate)
from hybridmm import pebble
from hybridmm.ringmat import Matrix, mat_mul_naive
from hybridmm.plans import WINOGRAD, uniform_plan
from hybridmm.schedules import gen_hybrid_schedule, gen_standard_blocked_schedule


def naive_2x2_schedule():
    """Hand-built n=2 definition schedule running in exactly 12 words.

    All eight inputs are read once and the four outputs written once; the
    second-term products are computed into input slots that are already
    spent, so no thirteenth word is ever needed.
    """
    lay = MemoryLayout(2)
    b0, c0 = lay.b_base, lay.c_base
    moves = [(MV_R, k, 1) for k in range(8)]
    for i in range(2):
        for j in range(2):
            moves.append((MV_C, c0 + 2 * i + j, OP_MUL, 2 * i, b0 + j))
    dead = [0, 2, b0, b0 + 1]  # A00, A10, B00, B01 are spent now
    for idx, (i, j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        out = c0 + 2 * i + j
        scratch = dead[idx]
        moves.append((MV_C, scratch, OP_MUL, 2 * i + 1, b0 + 2 + j))
        moves.append((MV_C, out, OP_ADD, out, scratch))
    for k in range(4):
        moves.append((MV_W, c0 + k, 1))
        moves.append((MV_E, c0 + k))
    for k in list(range(8)):
        moves.append((MV_E, k if k < 4 else b0 + k - 4))
    return Schedule(moves, lay, label="naive2")


def test_machine_config_validation():
    with pytest.raises(ValueError):
        MachineConfig(2, 1)
    with pytest.raises(ValueError):
        MachineConfig(8, 0)


def test_naive_2x2_counts():
    sched = naive_2x2_schedule()
    stats = simulate(sched, MachineConfig(12, 1))
    assert stats.reads == 8
    assert stats.writes == 4
    assert stats.io_total == 12
    assert stats.peak_cache == 12
    rng = np.random.default_rng(7)
    a, b = Matrix.random(2, rng), Matrix.random(2, rng)
    assert replay_values(sched, a, b) == mat_mul_naive(a, b)


def test_replay_refuses_matrices_of_another_size():
    rng = np.random.default_rng(8)
    a, b = Matrix.random(4, rng), Matrix.random(4, rng)
    with pytest.raises(ValueError, match="matrix size does not match schedule layout"):
        replay_values(naive_2x2_schedule(), a, b)


def test_template_refuses_overlapping_segments():
    with pytest.raises(ValueError, match="template segments overlap"):
        Template([], ((0, 2), (1, 3), (4, 5), (5, 5)))
    # empty segments overlap nothing
    assert Template([], ((0, 2), (2, 2), (2, 4), (3, 3))).lows == (0, 2, 2, 3)


def test_cache_overflow_on_tiny_cache():
    sched = naive_2x2_schedule()
    with pytest.raises(ScheduleError) as exc:
        simulate(sched, MachineConfig(3, 1))
    assert exc.value.kind == "CACHE_OVERFLOW"


def test_block_packing_reduces_reads():
    cfg = MachineConfig(16, 4)
    sched = gen_standard_blocked_schedule(2, cfg)
    stats = simulate(sched, cfg)
    assert stats.reads == 2  # A and B are 4 consecutive words each
    assert stats.writes == 1


def test_bad_block():
    lay = MemoryLayout(2)
    sched = Schedule([(MV_R, 0, 3)], lay)
    with pytest.raises(ScheduleError) as exc:
        simulate(sched, MachineConfig(8, 2))
    assert exc.value.kind == "BAD_BLOCK"


def test_illegal_operand():
    lay = MemoryLayout(2)
    sched = Schedule([(MV_R, 0, 1), (MV_C, 100, OP_ADD, 0, 1)], lay)
    with pytest.raises(ScheduleError) as exc:
        simulate(sched, MachineConfig(8, 1))
    assert exc.value.kind == "ILLEGAL_OPERAND"


def test_undefined_read():
    lay = MemoryLayout(2)
    sched = Schedule([(MV_R, lay.temp_base, 1)], lay)
    with pytest.raises(ScheduleError) as exc:
        simulate(sched, MachineConfig(8, 1))
    assert exc.value.kind == "UNDEFINED_READ"


def test_write_requires_cached_value():
    lay = MemoryLayout(2)
    sched = Schedule([(MV_W, 0, 1)], lay)
    with pytest.raises(ScheduleError) as exc:
        simulate(sched, MachineConfig(8, 1))
    assert exc.value.kind == "ILLEGAL_OPERAND"


@pytest.mark.parametrize("moves,m,b,kind,step,msg", [
    ([(MV_R, 1, 1), (MV_C, 8, OP_MUL, 0, 1)], 8, 1,
     "ILLEGAL_OPERAND", 1, "operand 0 not in cache"),
    ([(MV_R, 0, 1), (MV_R, 4, 1), (MV_C, 8, OP_MUL, 0, 4), (MV_C, 9, OP_MUL, 0, 4)], 3, 1,
     "CACHE_OVERFLOW", 3, "occupancy 4 exceeds M=3"),
    ([(MV_R, 0, 2), (MV_R, 2, 1), (MV_W, 0, 3)], 8, 2,
     "BAD_BLOCK", 2, "write of 3 words with B=2"),
    ([(MV_R, 0, 1), (MV_E, 0), (MV_E, 0)], 8, 1,
     "ILLEGAL_OPERAND", 2, "evict of 0 not in cache"),
    ([(MV_R, 0, 0)], 8, 2,
     "BAD_BLOCK", 0, "read of 0 words with B=2"),
    ([(MV_R, 7, 2)], 8, 2,
     "UNDEFINED_READ", 0, "address 8 undefined in slow memory"),
    ([(MV_R, 0, 2), (MV_R, 2, 2)], 3, 2,
     "CACHE_OVERFLOW", 1, "occupancy 4 exceeds M=3"),
    # re-read words take no new slot: the cache fills only at step 2
    ([(MV_R, 0, 2), (MV_R, 0, 2), (MV_R, 1, 2), (MV_R, 0, 1), (MV_R, 4, 1)], 3, 2,
     "CACHE_OVERFLOW", 4, "occupancy 4 exceeds M=3"),
    ([(MV_R, 0, 1), (MV_R, 4, 1), (MV_C, 8, OP_MUL, 0, -1)], 8, 1,
     "ILLEGAL_OPERAND", 2, "mul needs a second operand"),
    ([(MV_R, 0, 1), (MV_R, 4, 1), (MV_C, 8, OP_MUL, 0, -5)], 8, 1,
     "ILLEGAL_OPERAND", 2, "mul needs a second operand"),
    ([(MV_R, 0, 1), (MV_R, 4, 1), (MV_C, 8, OP_CPY, 0, 4)], 8, 1,
     "ILLEGAL_OPERAND", 2, "cpy takes one operand, got second operand 4"),
    ([(MV_R, 0, 1), (MV_C, 8, OP_NEG, 0, -2)], 8, 1,
     "ILLEGAL_OPERAND", 1, "neg takes one operand, got second operand -2"),
    ([(MV_R, 0, 1), (MV_C, 8, 7, 0, -1), (MV_W, 8, 1)], 3, 1,
     "ILLEGAL_OPERAND", 1, "unknown opcode 7"),
    ([(MV_R, 0, 1), (MV_R, 4, 1), (MV_C, 8, -2, 0, 4)], 8, 1,
     "ILLEGAL_OPERAND", 2, "unknown opcode -2"),
], ids=["compute-first-operand", "compute-overflow", "write-block", "evict-uncached",
        "empty-read", "block-read-second-word", "block-read-overflow", "block-reread",
        "binary-without-y", "binary-negative-y", "unary-with-y", "unary-bad-y",
        "unknown-opcode-one-operand", "unknown-opcode-two-operands"])
def test_simulate_error_sites(moves, m, b, kind, step, msg):
    with pytest.raises(ScheduleError) as exc:
        simulate(Schedule(moves, MemoryLayout(2)), MachineConfig(m, b))
    assert (exc.value.kind, exc.value.step) == (kind, step)
    assert msg in str(exc.value)


def test_parsimonious_generated_schedule():
    cfg = MachineConfig(12, 1)
    sched = gen_standard_blocked_schedule(4, cfg)
    simulate(sched, cfg)
    assert check_parsimonious(sched).ok


def test_dead_read_flagged():
    cfg = MachineConfig(12, 1)
    gen = gen_standard_blocked_schedule(2, cfg)
    sched = Schedule(list(gen.moves) + [(MV_R, 0, 1)], gen.layout)
    simulate(sched, cfg)
    report = check_parsimonious(sched)
    assert not report.ok
    # flagged when the value is discarded, here at the schedule's end
    assert report.violations[0][0] >= len(sched.moves) - 1
    assert "read" in report.violations[0][1]


def test_moves_read_as_their_expansion():
    # a generated schedule is one record; its moves read as the expansion
    sched = gen_hybrid_schedule(uniform_plan(8, 2), MachineConfig(3, 1))
    flat = list(sched.moves)
    assert len(sched.moves.entries) == 1 and sched.moves.entries[0][0] == MV_REC
    assert len(sched.moves) == len(flat) and not any(mv[0] == MV_REC for mv in flat)
    assert sched.moves == flat and sched.moves != flat[:-1]
    assert Schedule(flat, sched.layout).moves == sched.moves
    for key in (slice(5, 40), slice(-3, None), slice(None, None, 7)):
        assert type(sched.moves[key]) is list and sched.moves[key] == flat[key]
    assert sched.moves[7] == flat[7] and sched.moves[-1] == flat[-1]
    with pytest.raises(IndexError):
        sched.moves[len(flat)]
    assert dump_schedule(sched) == dump_schedule(Schedule(flat, sched.layout))
    assert dump_schedule(Schedule([], MemoryLayout(2))) == "\n"


def _parsimony(moves):
    """Violations of a hand-built n=2 schedule (A at 0-3, B at 4-7, C at
    8-11, temporaries from 12), after checking that it is legal at M=3."""
    sched = Schedule(moves, MemoryLayout(2))
    simulate(sched, MachineConfig(3, 1))
    return check_parsimonious(sched).violations


def test_read_evicted_unused_flagged():
    assert _parsimony([(MV_R, 0, 1), (MV_E, 0)]) == [
        (1, "value read into cache at 0 evicted/overwritten unused")]


def test_read_written_back_unused_flagged():
    # flagged once, at the write-back; the eviction of the same unused copy
    # is not a second fault
    assert _parsimony([(MV_R, 0, 1), (MV_W, 0, 1), (MV_E, 0)]) == [
        (1, "read value at 0 written back without being used")]


def test_computed_temporary_evicted_unused_flagged():
    assert _parsimony([(MV_R, 0, 1), (MV_R, 4, 1), (MV_C, 12, OP_MUL, 0, 4),
                       (MV_E, 12), (MV_E, 0), (MV_E, 4)]) == [
        (3, "computed value at 12 left memory without being used")]


def test_computed_output_evicted_unused_allowed():
    assert _parsimony([(MV_R, 0, 1), (MV_R, 4, 1), (MV_C, 8, OP_MUL, 0, 4),
                       (MV_E, 8), (MV_E, 0), (MV_E, 4)]) == []


def test_spilled_temporary_overwritten_unused_flagged():
    # the first product is spilled to 12, then replaced there by a second
    # computed value before anything reads it back
    assert _parsimony([(MV_R, 0, 1), (MV_R, 4, 1), (MV_C, 12, OP_MUL, 0, 4),
                       (MV_W, 12, 1), (MV_E, 12), (MV_C, 12, OP_ADD, 0, 4),
                       (MV_W, 12, 1), (MV_E, 12), (MV_E, 0), (MV_E, 4)]) == [
        (6, "computed value at 12 overwritten in slow memory unused")]


def _record(template, *bases):
    return (MV_REC, template, bases)


# hand-built templates over the n=2 layout; the four segments are the a, b
# and c operands' spans and the temporaries
# reads its a word, computes its c word from it and writes that back
_USES_A = Template([(MV_R, 12, 1), (MV_R, 4, 1), (MV_C, 13, OP_MUL, 12, 4), (MV_E, 12),
                    (MV_E, 4), (MV_W, 13, 1), (MV_E, 13)],
                   ((12, 13), (4, 5), (13, 14), (14, 14)))
# writes over its a word without reading it
_OVERWRITES_A = Template([(MV_R, 4, 1), (MV_C, 12, OP_CPY, 4, -1), (MV_W, 12, 1), (MV_E, 12),
                          (MV_E, 4)],
                         ((12, 13), (4, 5), (13, 14), (14, 14)))
# computes its c word, spills it, and has a nested record overwrite it
_NESTS = Template([(MV_R, 1, 1), (MV_C, 12, OP_CPY, 1, -1), (MV_W, 12, 1), (MV_E, 12),
                   (MV_E, 1), _record(_OVERWRITES_A, 12, 5, 13, 14)],
                  ((1, 2), (5, 6), (12, 13), (13, 14)))
# computes its c word, then a nested record overwrites its a word
_WRAPS = Template([(MV_R, 5, 1), (MV_C, 13, OP_CPY, 5, -1), (MV_E, 5), (MV_W, 13, 1),
                   (MV_E, 13), _record(_OVERWRITES_A, 12, 4, 14, 15)],
                  ((12, 13), (4, 6), (13, 14), (14, 15)))
# writes a word outside its segments, which no record moves
_STRAY = Template([(MV_R, 4, 1), (MV_C, 15, OP_CPY, 4, -1), (MV_W, 15, 1), (MV_E, 15),
                   (MV_E, 4)],
                  ((12, 13), (4, 5), (13, 14), (14, 14)))
_HOLDS_STRAY = Template([_record(_STRAY, 12, 4, 13, 14)], ((0, 1), (4, 5), (12, 16), (16, 16)))
# reads its a and b words, which abut, as one run
_RUN_SPANS = Template([(MV_R, 12, 2), (MV_C, 14, OP_ADD, 12, 13), (MV_E, 12), (MV_E, 13),
                       (MV_W, 14, 1), (MV_E, 14)],
                      ((12, 13), (13, 14), (14, 15), (15, 15)))
# uses its a word without reading it, which only a cached word allows
_NEEDS_CACHED_A = Template([(MV_R, 4, 1), (MV_C, 12, OP_MUL, 0, 4), (MV_E, 0), (MV_E, 4),
                            (MV_W, 12, 1), (MV_E, 12)],
                           ((0, 1), (4, 5), (12, 13), (13, 13)))
# leaves its b word cached
_KEEPS_B = Template([(MV_R, 4, 1)], ((0, 1), (4, 5), (12, 13), (13, 13)))
# reads its a word and evicts it unused
_READS_A = Template([(MV_R, 12, 1), (MV_E, 12)], ((12, 13), (4, 5), (13, 14), (14, 14)))

_SPILL_12 = [(MV_R, 0, 1), (MV_C, 12, OP_CPY, 0, -1), (MV_W, 12, 1), (MV_E, 12), (MV_E, 0)]


@pytest.mark.parametrize("entries,outcome,violations", [
    # the outer value a record consumes is consumed outside it too
    (_SPILL_12 + [_record(_USES_A, 12, 4, 13, 14), (MV_R, 1, 1),
                  (MV_C, 12, OP_CPY, 1, -1), (MV_W, 12, 1), (MV_E, 12), (MV_E, 1)],
     IoStats(4, 3, 3, 3), []),
    # a word a record leaves written holds a computed value never consumed
    ([_record(_USES_A, 0, 4, 13, 14), (MV_R, 1, 1), (MV_C, 13, OP_CPY, 1, -1),
      (MV_W, 13, 1), (MV_E, 13), (MV_E, 1)],
     IoStats(3, 2, 3, 2), [(9, "computed value at 13 overwritten in slow memory unused")]),
    # a record overwrites an outer value that was computed and never used,
    # or used, or an input, or an output word
    (_SPILL_12 + [_record(_OVERWRITES_A, 12, 4, 13, 14)],
     IoStats(2, 2, 2, 2), [(7, "computed value at 12 overwritten in slow memory unused")]),
    (_SPILL_12[:3] + [(MV_C, 13, OP_CPY, 12, -1), (MV_W, 13, 1), (MV_E, 13)] + _SPILL_12[3:]
     + [_record(_OVERWRITES_A, 12, 4, 14, 15)], IoStats(2, 3, 3, 3), []),
    ([_record(_OVERWRITES_A, 0, 4, 13, 14)], IoStats(1, 1, 2, 1), []),
    ([(MV_R, 0, 1), (MV_C, 8, OP_CPY, 0, -1), (MV_W, 8, 1), (MV_E, 8), (MV_E, 0),
      _record(_OVERWRITES_A, 8, 4, 13, 14)], IoStats(2, 2, 2, 2), []),
    # the same nested record overwrites a temporary, then an output word
    ([_record(_NESTS, 1, 5, 12, 13), _record(_NESTS, 2, 6, 16, 17), _record(_NESTS, 3, 7, 8, 18)],
     IoStats(6, 6, 2, 6), [(7, "computed value at 12 overwritten in slow memory unused"),
                           (17, "computed value at 16 overwritten in slow memory unused")]),
    # the write over a word the middle record never touches is judged outside it
    ([(MV_R, 0, 1), (MV_C, 16, OP_CPY, 0, -1), (MV_W, 16, 1), (MV_E, 16), (MV_E, 0),
      _record(_WRAPS, 16, 4, 17, 18)],
     IoStats(3, 3, 2, 3), [(12, "computed value at 16 overwritten in slow memory unused")]),
    # a word outside a nested template's segments stays where it is when
    # the record around it moves, so the second copy overwrites the first
    ([_record(_HOLDS_STRAY, 0, 4, 12, 16), _record(_HOLDS_STRAY, 0, 4, 20, 24)],
     IoStats(2, 2, 2, 2), [(7, "computed value at 15 overwritten in slow memory unused")]),
    # a record that puts two segments on one word is walked move by move
    (_SPILL_12 + [_record(_USES_A, 12, 4, 12, 14)],
     ("ILLEGAL_OPERAND", 10, "ILLEGAL_OPERAND at step 10: write of 12 not in cache"), None),
    # a run moves with the segment of its first word, so a record that
    # moves its two segments apart is walked move by move
    ([(MV_R, 0, 1), (MV_C, 12, OP_CPY, 0, -1), (MV_C, 13, OP_CPY, 0, -1), (MV_W, 12, 2),
      (MV_E, 12), (MV_E, 13), (MV_E, 0), _record(_RUN_SPANS, 12, 13, 14, 15),
      _record(_RUN_SPANS, 0, 13, 17, 18)],
     ("ILLEGAL_OPERAND", 14, "ILLEGAL_OPERAND at step 14: operand 13 not in cache"), None),
    # the first record runs on a cached word, move by move; the second faults
    # in its summary, at the moved address
    ([(MV_R, 0, 1), _record(_NEEDS_CACHED_A, 0, 4, 12, 13),
      _record(_NEEDS_CACHED_A, 1, 5, 14, 15)],
     ("ILLEGAL_OPERAND", 8, "ILLEGAL_OPERAND at step 8: operand 1 not in cache"), None),
    # a template that leaves a word cached is walked move by move
    ([_record(_KEEPS_B, 0, 4, 12, 13), (MV_E, 4), _record(_KEEPS_B, 0, 5, 12, 13), (MV_E, 5)],
     IoStats(2, 0, 1, 0), [(1, "value read into cache at 4 evicted/overwritten unused"),
                           (3, "value read into cache at 5 evicted/overwritten unused")]),
    # a record reads a word nothing defined, at its moved address
    (_SPILL_12 + [_record(_READS_A, 12, 4, 13, 14), _record(_READS_A, 20, 4, 21, 22)],
     ("UNDEFINED_READ", 7, "UNDEFINED_READ at step 7: address 20 undefined in slow memory"),
     None),
    # twins of the first seven cases, whose template has a single record and
    # so is walked in place: a second record of it at fresh words makes the
    # first one apply a summary
    (_SPILL_12 + [_record(_USES_A, 12, 4, 13, 14), (MV_R, 1, 1), (MV_C, 12, OP_CPY, 1, -1),
                  (MV_W, 12, 1), (MV_E, 12), (MV_E, 1), _record(_USES_A, 2, 5, 16, 17)],
     IoStats(6, 4, 3, 4), []),
    ([_record(_USES_A, 0, 4, 13, 14), (MV_R, 1, 1), (MV_C, 13, OP_CPY, 1, -1),
      (MV_W, 13, 1), (MV_E, 13), (MV_E, 1), _record(_USES_A, 2, 5, 16, 17)],
     IoStats(5, 3, 3, 3), [(9, "computed value at 13 overwritten in slow memory unused")]),
    (_SPILL_12 + [_record(_OVERWRITES_A, 12, 4, 13, 14), _record(_OVERWRITES_A, 16, 5, 17, 18)],
     IoStats(3, 3, 2, 3), [(7, "computed value at 12 overwritten in slow memory unused")]),
    (_SPILL_12[:3] + [(MV_C, 13, OP_CPY, 12, -1), (MV_W, 13, 1), (MV_E, 13)] + _SPILL_12[3:]
     + [_record(_OVERWRITES_A, 12, 4, 14, 15), _record(_OVERWRITES_A, 16, 5, 17, 18)],
     IoStats(3, 4, 3, 4), []),
    ([_record(_OVERWRITES_A, 0, 4, 13, 14), _record(_OVERWRITES_A, 1, 5, 16, 17)],
     IoStats(2, 2, 2, 2), []),
    ([(MV_R, 0, 1), (MV_C, 8, OP_CPY, 0, -1), (MV_W, 8, 1), (MV_E, 8), (MV_E, 0),
      _record(_OVERWRITES_A, 8, 4, 13, 14), _record(_OVERWRITES_A, 9, 5, 16, 17)],
     IoStats(3, 3, 2, 3), []),
    ([(MV_R, 0, 1), (MV_C, 16, OP_CPY, 0, -1), (MV_W, 16, 1), (MV_E, 16), (MV_E, 0),
      _record(_WRAPS, 16, 4, 17, 18), _record(_WRAPS, 20, 6, 21, 22)],
     IoStats(5, 5, 2, 5), [(12, "computed value at 16 overwritten in slow memory unused")]),
], ids=["consumed-inside", "written-inside", "overwrites-unused", "overwrites-used",
        "overwrites-input", "overwrites-output", "nested-overwrites", "overwrites-through",
        "stray-word", "segments-overlap", "run-across-segments", "fault-moved",
        "ends-cached", "undefined-moved", "consumed-inside-twice", "written-inside-twice",
        "overwrites-unused-twice", "overwrites-used-twice", "overwrites-input-twice",
        "overwrites-output-twice", "overwrites-through-twice"])
def test_records_match_their_expansion(entries, outcome, violations, summary_spy):
    sched = Schedule(Moves(entries), MemoryLayout(2))
    flat = Schedule(list(sched.moves), sched.layout)
    walks = []
    for s in (sched, flat):
        try:
            stats = simulate(s, MachineConfig(3, 2))
        except ScheduleError as exc:
            stats = (exc.kind, exc.step, str(exc))
        walks.append((stats, check_parsimonious(s).violations))
    assert walks[0] == walks[1]
    assert walks[0][0] == outcome
    if violations is not None:
        assert walks[0][1] == violations
    # each walker summarizes some template when one has two or more records,
    # never one with a single record, and each at most once
    repeated = {t for t, uses in _records(entries).items() if uses > 1}
    for got in summary_spy.values():
        assert set(got) <= repeated and bool(got) == bool(repeated)
        assert all(len(ids) == 1 for ids in got.values())


def _records(entries):
    """How many records of each template the expansion of ``entries`` holds."""
    found = Counter()
    for e in entries:
        if e[0] == MV_REC:
            found[e[1]] += 1
            found += _records(e[1].body)
    return found


@pytest.mark.parametrize("entries,outcome,violations", [
    # a record and its nested record, each the only one of its template,
    # overwrite a computed value never used at their moved addresses
    ([(MV_R, 0, 1), (MV_C, 20, OP_CPY, 0, -1), (MV_W, 20, 1), (MV_E, 20), (MV_E, 0),
      _record(_WRAPS, 20, 6, 21, 22)],
     IoStats(3, 3, 2, 3), [(12, "computed value at 20 overwritten in slow memory unused")]),
    ([_record(_NEEDS_CACHED_A, 1, 5, 14, 15)],
     ("ILLEGAL_OPERAND", 1, "ILLEGAL_OPERAND at step 1: operand 1 not in cache"), []),
], ids=["overwrites-moved", "fault-moved"])
def test_single_record_walked_in_place_at_moved_bases(monkeypatch, summary_spy, entries,
                                                      outcome, violations):
    moved = []
    real_entries_at = pebble._entries_at

    def entries_at(template, bases):
        moved.append(bases != template.lows)
        return real_entries_at(template, bases)

    monkeypatch.setattr(pebble, "_entries_at", entries_at)
    sched = Schedule(Moves(entries), MemoryLayout(2))
    try:
        stats = simulate(sched, MachineConfig(3, 2))
    except ScheduleError as exc:
        stats = (exc.kind, exc.step, str(exc))
    found = check_parsimonious(sched).violations
    assert moved and all(moved)
    assert not any(summary_spy.values())
    assert (stats, found) == (outcome, violations)
    flat = Schedule(list(sched.moves), sched.layout)
    assert check_parsimonious(flat).violations == violations
    if isinstance(outcome, IoStats):
        assert simulate(flat, MachineConfig(3, 2)) == outcome
    else:
        with pytest.raises(ScheduleError, match=re.escape(outcome[2])):
            simulate(flat, MachineConfig(3, 2))


# builds two one-word destinations from three one-word sources, one read at a
# time, as a streamed row step does: five segments and an empty temporary one
_COMBINES = Template([(MV_R, 0, 1), (MV_C, 12, OP_CPY, 0, -1), (MV_E, 0), (MV_R, 4, 1),
                      (MV_C, 12, OP_ADD, 12, 4), (MV_E, 4), (MV_W, 12, 1), (MV_E, 12),
                      (MV_R, 2, 1), (MV_C, 13, OP_NEG, 2, -1), (MV_E, 2), (MV_R, 0, 1),
                      (MV_C, 13, OP_SUB, 13, 0), (MV_E, 0), (MV_W, 13, 1), (MV_E, 13)],
                     ((0, 1), (4, 5), (2, 3), (12, 13), (13, 14), (14, 14)))


@pytest.mark.parametrize("entries,outcome,violations,walked", [
    # each record moves its five segments by five different shifts
    ([_record(_COMBINES, 0, 4, 2, 12, 13, 14), _record(_COMBINES, 1, 6, 3, 9, 15, 16),
      _record(_COMBINES, 3, 5, 1, 17, 8, 18)],
     IoStats(12, 6, 2, 12), [], set()),
    # the second record swaps the destinations onto the first one's words,
    # which hold computed values never used: simulate applies its summary,
    # check_parsimonious walks it move by move
    ([_record(_COMBINES, 0, 4, 2, 12, 13, 14), _record(_COMBINES, 1, 5, 3, 13, 12, 16)],
     IoStats(8, 4, 2, 8), [(22, "computed value at 13 overwritten in slow memory unused"),
                           (30, "computed value at 12 overwritten in slow memory unused")],
     {(1, 5, 3, 13, 12, 16)}),
    # the second record moves two sources onto one word, and a destination
    # onto a source
    ([_record(_COMBINES, 0, 4, 2, 12, 13, 14), _record(_COMBINES, 1, 5, 1, 16, 17, 18),
      _record(_COMBINES, 3, 7, 6, 20, 7, 21)],
     IoStats(12, 6, 2, 12), [], {(1, 5, 1, 16, 17, 18), (3, 7, 6, 20, 7, 21)}),
], ids=["shifted", "swapped-overwrites", "segments-overlap"])
def test_records_of_many_segments(monkeypatch, summary_spy, entries, outcome, violations, walked):
    # a template may have any number of segments; a record whose moved
    # segments are disjoint applies the summary, any other is walked move by
    # move, and either way the walk is the flat one
    moved = set()
    real_entries_at = pebble._entries_at

    def entries_at(template, bases):
        moved.add(bases)
        return real_entries_at(template, bases)

    sched = Schedule(Moves(entries), MemoryLayout(2))
    flat = Schedule(list(sched.moves), sched.layout)
    monkeypatch.setattr(pebble, "_entries_at", entries_at)
    walks = [(simulate(s, MachineConfig(3, 1)), check_parsimonious(s).violations)
             for s in (sched, flat)]
    assert walks[0] == walks[1] == (outcome, violations)
    assert moved == walked
    assert all(set(got) == {_COMBINES} for got in summary_spy.values())


def _one_move_mutants(moves, rng, count):
    """Schedules that drop, duplicate or swap one move of ``moves``; most are
    illegal, which ``check_parsimonious`` must survive."""
    for _ in range(count):
        mutant = list(moves)
        i = rng.randrange(len(moves))
        kind = rng.randrange(3)
        if kind == 0:
            del mutant[i]
        elif kind == 1:
            mutant.insert(i, mutant[i])
        else:
            j = min(i + rng.randint(1, 8), len(moves) - 1)
            mutant[i], mutant[j] = mutant[j], mutant[i]
        yield mutant


PINNED_MUTANT_TALLY = (461, {
    "value read into cache at # evicted/overwritten unused": 328,
    "computed value at # left memory without being used": 304,
})
PINNED_MUTANT_SHA256 = "f7c56619442297d37155818ac3584c4f81bfe3a7f9b5b285a624908e6c5208ca"


def _mutants(cases, seed, count):
    rng = random.Random(seed)
    return [Schedule(mutant, sched.layout)
            for sched in cases for mutant in _one_move_mutants(sched.moves, rng, count)]


def _word_mutants():
    """400 seeded mutants each of a blocked schedule at M=3 (accumulator
    resident, one write per output word), an in-cache Strassen schedule and
    a spilling Winograd schedule with B=2 (which moves one word at a
    time)."""
    return _mutants([gen_standard_blocked_schedule(4, MachineConfig(3, 1)),
                     gen_hybrid_schedule(uniform_plan(4, 1), MachineConfig(48, 1)),
                     gen_hybrid_schedule(uniform_plan(4, 2, WINOGRAD), MachineConfig(5, 2))],
                    2024, 400)


def _block_mutants():
    """300 seeded mutants each of two schedules at B=4 whose reads and
    writes move up to three words."""
    return _mutants([gen_standard_blocked_schedule(4, MachineConfig(16, 4)),
                     gen_hybrid_schedule(uniform_plan(8, 2), MachineConfig(20, 4))],
                    2025, 300)


def test_parsimony_of_one_move_mutants_pinned():
    """The mutants of ``_word_mutants`` raise only the two eviction
    messages; the hand-built schedules above pin the two write-back
    messages."""
    found = [check_parsimonious(mutant).violations for mutant in _word_mutants()]
    kinds = Counter(re.sub(r"\d+", "#", reason) for v in found for _, reason in v)
    assert (sum(map(bool, found)), dict(kinds)) == PINNED_MUTANT_TALLY
    assert hashlib.sha256(repr(found).encode()).hexdigest() == PINNED_MUTANT_SHA256


@pytest.mark.parametrize("corpus,machines,digest", [
    (_word_mutants, [(3, 1), (48, 1), (5, 2)],
     "25e059d0cd7f33f064900d91036d60bf7bf0dda9a0f1e41fba5ce3fedba4dc9f"),
    (_block_mutants, [(20, 4), (16, 2), (8, 4)],
     "4c38f03805470753d54d3e2e383133d2754ab04506fdaf58e958368508047f5c"),
], ids=["word", "block"])
def test_simulate_of_one_move_mutants_pinned(corpus, machines, digest):
    """Every mutant simulated on each machine: the I/O counts of a legal
    one, and the kind, step and message of the first fault of an illegal
    one, which pins the order of the checks within a move."""
    mutants = corpus()
    outcomes = []
    for m, b in machines:
        cfg = MachineConfig(m, b)
        for mutant in mutants:
            try:
                outcomes.append(simulate(mutant, cfg))
            except ScheduleError as exc:
                outcomes.append((exc.kind, exc.step, str(exc)))
    kinds = Counter(o[0] if isinstance(o, tuple) else "legal" for o in outcomes)
    assert hashlib.sha256(repr(outcomes).encode()).hexdigest() == digest, kinds


def test_empty_schedule_parsimonious():
    assert check_parsimonious(Schedule([], MemoryLayout(2))).ok


def test_accumulator_spill_is_parsimonious():
    # at M = 3 the accumulator stays resident beside one operand pair and
    # each later product overwrites the spent A word in cache; its copy in
    # slow memory is untouched, so the schedule stays parsimonious.
    cfg = MachineConfig(3, 1)
    sched = gen_standard_blocked_schedule(4, cfg)
    stats = simulate(sched, cfg)
    assert stats.peak_cache <= 3
    assert check_parsimonious(sched).ok


def test_replay_reproduces_product():
    rng = np.random.default_rng(0)
    for n, m, b in [(2, 12, 1), (4, 3, 1), (4, 48, 4), (8, 12, 2)]:
        cfg = MachineConfig(m, b)
        sched = gen_standard_blocked_schedule(n, cfg)
        a = Matrix.random(n, rng)
        bm = Matrix.random(n, rng)
        assert replay_values(sched, a, bm) == mat_mul_naive(a, bm)


def test_dump_parse_round_trip():
    cfg = MachineConfig(12, 2)
    sched = gen_standard_blocked_schedule(4, cfg)
    text = dump_schedule(sched)
    back = parse_schedule(text, sched.layout)
    assert back.moves == sched.moves
    first = text.splitlines()[0].split()
    assert first[0] in {"R", "W", "C", "E"}


def test_parse_schedule_rejects_garbage():
    with pytest.raises(ValueError):
        parse_schedule("Q 1 2\n", MemoryLayout(2))
    # a compute must carry as many operands as its opcode takes: a product
    # with one operand would make ``replay_values`` fail on a missing word
    with pytest.raises(ValueError, match="bad schedule line 3"):
        parse_schedule("R 0 1\nR 1 1\nC 2 mul 0\nW 2 1\n", MemoryLayout(1))
    # so must every other move: extra tokens are refused, not dropped
    for line in ["C 2 mul 0 -5", "C 2 add 0 1 1", "C 2 cpy 0 1", "C 2 neg 0 -1",
                 "R 0 1 junk", "W 0 1 2", "E 0 7 8"]:
        with pytest.raises(ValueError, match="bad schedule line 1"):
            parse_schedule(line, MemoryLayout(1))
    assert parse_schedule("C 2 sub 0 1\nC 3 cpy 2\nC 3 neg 3\n", MemoryLayout(1)).moves == [
        (MV_C, 2, OP_SUB, 0, 1), (MV_C, 3, OP_CPY, 2, -1), (MV_C, 3, OP_NEG, 3, -1)]
