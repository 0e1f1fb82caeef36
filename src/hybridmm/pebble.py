"""Red-blue pebble-game schedules in a two-level memory with block moves.

A schedule is an ordered sequence of moves over a single linear address
space:

  R addr k   move k <= B consecutive words from slow memory into cache
  W addr k   move k <= B consecutive cached words back to slow memory
  C out op x [y]   compute a value into cache slot ``out`` from cached
                   operands (register semantics: ``out`` may equal an
                   operand, in which case the old value is replaced and
                   cache occupancy does not grow)
  E addr     discard a cached value

Every value has one home address, and it lives only there: R copies slow
word ``addr`` into cache slot ``addr``, W copies it back, and C creates a
value in its own slot.  So a value has at most one cache copy, and it is
in slow memory exactly when slow word ``addr`` holds it.  Addresses
0..2n^2-1 hold the inputs (A then B, row-major), the next n^2 hold the
output C, and the area above is an arena for schedule temporaries.  Inputs
start in slow memory; the cache is empty.  Each R/W move of k consecutive
words counts as one I/O operation.

A schedule is stored as moves plus records.  A record ``(MV_REC, template,
bases)`` stands for the moves of a ``Template``, a step that the schedule
repeats: the template names any number of disjoint address segments, and a
record moves every address in segment k by ``bases[k]`` minus the
segment's start.  A generated sub-problem has four (the spans of its a, b
and c operands and its temporaries), a streamed row step one per source
and destination row run and an empty one for temporaries.  A template's
last segment holds its temporaries, which are private to each record of
it.  A template's body holds moves and records of its own, so records
nest.
``Schedule.moves`` reads as the flat sequence of moves that the records
expand to, and every step number, in an error or a violation, counts that
expansion.  A hand-built or parsed schedule has no records.

``simulate`` validates a schedule and counts I/O; ``check_parsimonious``
checks that no value is loaded or computed in vain: a value read into cache
must feed a compute before it is evicted or written back, and a computed
non-output value must feed a compute before it leaves memory entirely
(eviction from cache does not count against a value that still has a
current copy in slow memory, which is how spilled temporaries stay
parsimonious).  A read value written back unused is reported once, at the
write-back.

Each of the two is one walker over a list of moves and records, and both
meet a record by one rule (``_Walk.record``).  A walker first counts each
template's records in the expansion.  A record applies its template's
summary, with the summary's addresses moved and its steps offset, when:

- it is met with an empty cache;
- its template has two or more records;
- its template is ``summarizable`` at its bases;
- the template's body, walked once from an empty cache with nothing known
  around it, faults or ends with an empty cache; and
- the walker's ``apply`` accepts the summary: ``simulate`` refuses a
  record of a whole-schedule walk that reads an undefined word, and
  ``check_parsimonious`` one whose write overwrites a computed value never
  used.

Any other record is walked move by move at its addresses, such as the
whole problem of a generated schedule, whose template has one record.  A
summary holds what the body does to the memory around it: its counts and
peak, its first fault, the slow words it reads before writing them, the
words it leaves written, and its violations, some of which depend on the
slow words it overwrites.  It keeps each list of addresses with their
intervals in the template (``_Addrs``), which a record's shifts move.

A summary holds only the record's boundary when the schedule is
``_sealed``: a scan of each template's body, made once with ``contained``,
proves that no move outside a record touches its temporaries.  Then the
words it leaves written, and in ``check_parsimonious`` its pending
overwrites, leave out the template's last segment; its reads, consumed
values, fault and violations keep every word.  When the scan fails, as it
may for a hand-built schedule, every summary keeps every word.  So the
answer is always the flat walk's.

``check_parsimonious`` keeps each value as an int, indexing a bytearray of
flags shared by its cache slot and its slow word: computed, consumed, used
since its last read, and (in a body's summary) whether it is a value from
outside the body.  A read clears the third flag; a compute sets both use
flags on its operands and creates a computed value with the third flag
set; a write-back of a read value sets the third flag once it has reported
it.  A value that leaves the cache with the third flag clear was read in
vain.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
from itertools import compress, count
from operator import add

from .ringmat import Matrix

# move tags, and the tag of a record
MV_R, MV_W, MV_C, MV_E, MV_REC = 0, 1, 2, 3, 4
# compute opcodes
OP_MUL, OP_ADD, OP_SUB, OP_CPY, OP_NEG = 0, 1, 2, 3, 4

_OP_NAMES = {OP_MUL: "mul", OP_ADD: "add", OP_SUB: "sub", OP_CPY: "cpy", OP_NEG: "neg"}
_OP_CODES = {v: k for k, v in _OP_NAMES.items()}


@dataclass(frozen=True)
class MachineConfig:
    M: int  # cache words
    B: int = 1  # words per I/O operation

    def __post_init__(self):
        if self.M < 3:
            raise ValueError("M must be >= 3 (two operands and one result)")
        if self.B < 1:
            raise ValueError("B must be >= 1")


@dataclass(frozen=True)
class MemoryLayout:
    """Deterministic slow-memory map: A, B, C, then temporaries."""

    n: int

    @property
    def a_base(self) -> int:
        return 0

    @property
    def b_base(self) -> int:
        return self.n * self.n

    @property
    def c_base(self) -> int:
        return 2 * self.n * self.n

    @property
    def temp_base(self) -> int:
        return 3 * self.n * self.n

    def input_range(self):
        return range(0, 2 * self.n * self.n)


class Template:
    """The moves of one repeated step, which records replay.

    ``body`` is a list of moves and records, with the addresses of the call
    that generated it, whose disjoint segments are ``segments``, each
    ``(lo, hi)``; an empty one (``lo == hi``) moves nothing.  A record with
    ``bases`` moves an address in segment k by ``bases[k] - lo`` and leaves
    an address outside every segment as it is.  The last segment holds the
    step's temporaries, which are its own: when a schedule is ``_sealed``,
    no move outside a record touches them, and its summaries leave them out.

    ``nested`` holds the template of each record in the body, in order.
    A generated body is ``summarizable`` at every record; a hand-edited one
    may not be.
    """

    __slots__ = ("body", "segments", "lows", "nested", "length", "_bounds", "_order", "_temps",
                 "_contained", "_sealed")

    def __init__(self, body, segments):
        self.body = body
        self.segments = segments
        self.lows = tuple(lo for lo, _ in segments)
        self.nested = [e[1] for e in body if e[0] == MV_REC]
        self.length = len(body) + sum(t.length - 1 for t in self.nested)
        live = sorted((lo, hi, k) for k, (lo, hi) in enumerate(segments) if lo < hi)
        self._bounds = [x for lo, hi, _ in live for x in (lo, hi)]
        if self._bounds != sorted(self._bounds):
            raise ValueError(f"template segments overlap: {segments}")
        self._order = [k for _, _, k in live]
        lo, hi = segments[-1] if segments else (0, 0)
        # the interval of ``_bounds`` that holds the temporaries, or -1
        self._temps = bisect_right(self._bounds, lo) if lo < hi else -1
        self._contained = self._sealed = None

    def contained(self):
        """Whether every address the body uses lies in a segment (a second
        operand of -1 names none), every run of words in one, and each
        segment of a nested record, moved to its bases, in one; computed
        once, in the pass that also finds whether it is ``sealed``."""
        if self._contained is None:
            self._contained, self._sealed = _scan(self.body, self._bounds,
                                                  self.segments[-1] if self.segments else (0, 0))
        return self._contained

    def sealed(self):
        """Whether the body is ``contained``, every nested template is
        sealed, and each nested record's temporaries, its last segment moved
        to its bases, lie in this template's last segment and meet no
        address a move of the body names and no other segment of a record
        in it, that record's own included."""
        return self.contained() and self._sealed

    def summarizable(self, bases):
        """Whether a summary of the body stands for a record with ``bases``:
        the record moves nothing, or the body is ``contained`` and the
        record moves the segments to disjoint, non-negative places."""
        if bases == self.lows:
            return True
        spans = sorted((b, b + hi - lo) for (lo, hi), b in zip(self.segments, bases) if lo < hi)
        return (self.contained() and (not spans or spans[0][0] >= 0)
                and all(hi <= lo for (_, hi), (lo, _) in zip(spans, spans[1:])))

    def shifts(self, bases):
        """Per interval of ``_bounds``, how far a record with ``bases`` moves
        an address."""
        sh = [0] * (len(self._bounds) + 1)
        for j, k in enumerate(self._order):
            sh[2 * j + 1] = bases[k] - self.lows[k]
        return sh


def _scan(entries, bounds, last):
    """One pass over ``entries``, a template's body with its ``_bounds`` and
    last segment, or a schedule's top level (``bounds`` and ``last`` None,
    where every address counts as contained): whether they are contained and
    whether they are sealed (``Template``)."""
    used, runs, temps = set(), [], []
    add = used.add
    contained = sealed = True
    for mv in entries:
        tag = mv[0]
        if tag == MV_C:
            add(mv[1])
            add(mv[3])
            add(mv[4])
        elif tag == MV_E:
            add(mv[1])
        elif tag == MV_REC:
            t = mv[1]
            contained = contained and t.contained()
            sealed = sealed and t.sealed()
            spans = [(b, b + hi - lo) for (lo, hi), b in zip(t.segments, mv[2])]
            if spans:
                temps.append(spans.pop())
            runs += [(lo, hi) for lo, hi in spans if lo < hi]
        elif mv[2] > 1:
            runs.append((mv[1], mv[1] + mv[2]))
        else:
            add(mv[1])
    used.discard(-1)  # no second operand
    temps = sorted((lo, hi) for lo, hi in temps if lo < hi)
    if bounds is not None:
        # a word in segment j has the odd interval 2j + 1
        contained = contained and all(i & 1 for i in set(map(partial(bisect_right, bounds),
                                                             used)))
        for lo, hi in runs + temps:
            i = bisect_right(bounds, lo)
            contained = contained and i & 1 and hi <= bounds[i]
    sealed = sealed and contained
    if temps and sealed:
        # the temporaries are disjoint intervals of ``tb``, and no word or
        # run of the body starts in one or reaches into the next
        tb = [x for span in temps for x in span]
        sealed = (tb == sorted(tb) and (last is None or last[0] <= tb[0] and tb[-1] <= last[1])
                  and not any(i & 1 for i in map(partial(bisect_right, tb), used)))
        for lo, hi in runs:
            i = bisect_right(tb, lo)
            sealed = sealed and not i & 1 and (i == len(tb) or hi <= tb[i])
    return bool(contained), bool(sealed)


def _sealed(entries):
    """Whether a schedule's top-level ``entries`` are sealed, scanned as a
    template's body is, without a last segment: then, by induction on
    nesting, a record's temporaries are touched only inside that record.
    Entries with no record are sealed without a scan."""
    return not any(e[0] == MV_REC for e in entries) or _scan(entries, None, None)[1]


class _Addrs:
    """Addresses of a template's body, each with the interval of the
    template that holds it; ``at(sh)`` moves them by a record's shifts.
    With ``sealed``, the addresses in the template's last segment, a
    record's temporaries, are left out."""

    __slots__ = ("addrs", "intervals")

    def __init__(self, template, addrs, sealed=False):
        self.addrs = list(addrs)
        self.intervals = list(map(partial(bisect_right, template._bounds), self.addrs))
        if sealed and template._temps in self.intervals:
            keep = list(map(template._temps.__ne__, self.intervals))
            self.addrs = list(compress(self.addrs, keep))
            self.intervals = list(compress(self.intervals, keep))

    def at(self, sh):
        return map(add, self.addrs, map(sh.__getitem__, self.intervals))


def _entries_at(template, bases):
    """The template's body as a record with ``bases`` reads it: each move's
    addresses, and each nested record's bases, moved one level."""
    if bases == template.lows:
        return template.body
    return _moved_body(template, bases)


def _moved_body(template, bases):
    bounds, sh = template._bounds, template.shifts(bases)
    for mv in template.body:
        tag = mv[0]
        if tag == MV_C:
            _, out, op, x, y = mv
            yield (MV_C, out + sh[bisect_right(bounds, out)], op,
                   x + sh[bisect_right(bounds, x)], y + sh[bisect_right(bounds, y)])
        elif tag == MV_E:
            a = mv[1]
            yield (MV_E, a + sh[bisect_right(bounds, a)])
        elif tag == MV_REC:
            # a nested record's bases move like addresses
            yield (MV_REC, mv[1], tuple(x + sh[bisect_right(bounds, x)] for x in mv[2]))
        else:
            a = mv[1]
            yield (tag, a + sh[bisect_right(bounds, a)], mv[2])


def _record_counts(entries):
    """How many records of each template the expansion of ``entries`` holds,
    in time linear in the records the distinct templates store."""
    top = [e[1] for e in entries if e[0] == MV_REC]
    counts = {}
    order = []  # each template after every template it records

    def visit(t):
        counts[t] = 0
        for u in t.nested:
            if u not in counts:
                visit(u)
        order.append(t)

    for t in top:
        if t not in counts:
            visit(t)
        counts[t] += 1
    for t in reversed(order):
        c = counts[t]
        for u in t.nested:
            counts[u] += c
    return counts


def _expand(entries):
    for e in entries:
        if e[0] == MV_REC:
            yield from _expand(_entries_at(e[1], e[2]))
        else:
            yield e


class Moves:
    """A schedule's moves: ``entries``, a list of moves and records, read as
    the flat sequence of moves they expand to.

    ``len`` is the expanded count.  Iteration yields the expanded moves in
    order, without building them all; an index or a slice builds the list of
    them.  ``==`` compares expansions, also with a list.
    """

    __slots__ = ("entries", "_len")

    def __init__(self, entries):
        self.entries = entries
        self._len = None

    def __len__(self):
        if self._len is None:
            self._len = sum(e[1].length if e[0] == MV_REC else 1 for e in self.entries)
        return self._len

    def __iter__(self):
        return _expand(self.entries)

    def __getitem__(self, key):
        return list(self)[key]

    def __eq__(self, other):
        if not isinstance(other, (Moves, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self):
        return f"Moves({len(self)} moves in {len(self.entries)} entries)"


@dataclass
class Schedule:
    moves: Moves  # a list of moves is wrapped: a schedule with no records
    layout: MemoryLayout
    label: str = ""

    def __post_init__(self):
        if not isinstance(self.moves, Moves):
            self.moves = Moves(list(self.moves))


@dataclass(frozen=True)
class IoStats:
    reads: int
    writes: int
    peak_cache: int
    computes: int

    @property
    def io_total(self) -> int:
        return self.reads + self.writes


class ScheduleError(Exception):
    """Illegal schedule; ``kind`` is one of ILLEGAL_OPERAND, CACHE_OVERFLOW,
    BAD_BLOCK, UNDEFINED_READ."""

    def __init__(self, kind: str, step: int, msg: str):
        self.kind = kind
        self.step = step
        super().__init__(f"{kind} at step {step}: {msg}")


class _Fault(Exception):
    """Internal: the first illegal move of a walk.  ``msg`` has ``{}`` where
    the address ``addr`` goes, if it names one."""

    def __init__(self, step, kind, msg, addr=None):
        super().__init__(step, kind, msg, addr)
        self.step, self.kind, self.msg, self.addr = step, kind, msg, addr


class _Walk:
    """What the two walkers share: ``counts``, each template's records in
    the expansion; ``summaries``, each summarized template's summary, or
    None if its body ends with a value cached; ``sealed``, whether the
    schedule is ``_sealed``, so that summaries leave out temporaries;
    ``closed``, whether this walks the whole schedule; and the record rule
    (``record``).  A walker adds its per-move ``walk``, ``open`` (a fresh
    walk of a body), the ``Summary`` made from that walk, and ``apply``."""

    def __init__(self, summaries, counts, sealed, closed):
        self.summaries, self.counts, self.sealed, self.closed = summaries, counts, sealed, closed

    def record(self, template, bases, at, empty):
        """Meet a record of ``template`` with ``bases`` at expanded step
        ``at``, with an ``empty`` cache or not: apply the template's summary
        if the module docstring's record rule allows, else walk the record."""
        s = (self.summary(template)
             if empty and self.counts[template] > 1 and template.summarizable(bases) else None)
        if s is None or not self.apply(s, template.shifts(bases), at):
            self.walk(_entries_at(template, bases), at)

    def run(self, entries):
        """Walk ``entries`` from step 0; returns the first ``_Fault``, or None."""
        try:
            self.walk(entries, 0)
        except _Fault as exc:
            return exc
        return None

    def summary(self, template):
        summaries = self.summaries
        if template not in summaries:
            body = self.open()
            fault = body.run(template.body)
            summaries[template] = (self.Summary(template, body, fault)
                                   if fault is not None or not body.cache else None)
        return summaries[template]


def simulate(schedule: Schedule, cfg: MachineConfig) -> IoStats:
    """Validate the schedule under cfg and return its I/O statistics.

    Only the 2n^2 input words of the schedule's layout start out defined
    in slow memory.  A compute must name as many operands as its opcode
    takes: ``mul``/``add``/``sub`` two, ``cpy``/``neg`` one (``y`` is -1);
    any other opcode is illegal.  Within a move the checks run in a fixed
    order, so the first fault found is the one raised: a block size, then
    each word of a read, then the occupancy; for a compute, ``x``, then
    ``y`` and the opcode, then the occupancy.
    """
    entries = schedule.moves.entries
    walk = _SimWalk(cfg.M, cfg.B, set(schedule.layout.input_range()), {},
                    _record_counts(entries), _sealed(entries), closed=True)
    fault = walk.run(entries)
    # the walk reads on past an undefined word, so it is the first fault
    # when there is one; any later fault was found after it
    if walk.inputs:
        addr, step = walk.inputs[0]
        raise ScheduleError("UNDEFINED_READ", step, f"address {addr} undefined in slow memory")
    if fault is not None:
        raise ScheduleError(fault.kind, fault.step, fault.msg.format(fault.addr))
    return IoStats(walk.reads, walk.writes, walk.peak, walk.computes)


def _operand_fault(op, y):
    """Why a compute's opcode ``op`` and second operand ``y`` are illegal: a
    message, with ``{}`` where ``y`` goes if it names it, and ``y``."""
    name = _OP_NAMES.get(op)
    if name is None:
        return f"unknown opcode {op}", None
    if op > OP_SUB:
        return f"{name} takes one operand, got second operand {{}}", y
    if y >= 0:
        return "operand {} not in cache", y
    return f"{name} needs a second operand", None


class _SimSummary:
    """What a body does under one cfg, walked with nothing known defined:
    its counts and peak, its first fault, with the address it names in
    ``fault_at``, the words it reads before writing them, and the words it
    writes, without the template's temporaries when the walk is sealed."""

    __slots__ = ("reads", "writes", "computes", "peak", "fault", "fault_at", "inputs", "outputs")

    def __init__(self, template, body, fault):
        self.reads, self.writes, self.computes = body.reads, body.writes, body.computes
        self.peak = body.peak
        # the fault's step, kind and message, without its traceback's frames
        self.fault = None if fault is None else (fault.step, fault.kind, fault.msg)
        self.fault_at = _Addrs(template, [] if fault is None or fault.addr is None
                               else [fault.addr])
        inputs = [a for a, _ in body.inputs] + body.nested_inputs
        self.inputs = _Addrs(template, inputs)
        self.outputs = _Addrs(template, body.slow.difference(inputs), body.sealed)


class _SimWalk(_Walk):
    """The state of one ``simulate`` walk: the words known defined in slow
    memory, the cache, the counts, ``inputs``, each ``(addr, step)`` of a
    first read of a word not known defined, in the order met, and
    ``nested_inputs``, the words its records read that it had not defined.
    A closed walk knows every defined word: an input it meets is undefined."""

    Summary = _SimSummary

    def __init__(self, m_cap, b_cap, slow, summaries, counts, sealed, closed=False):
        super().__init__(summaries, counts, sealed, closed)  # summaries for one cfg
        self.m_cap, self.b_cap = m_cap, b_cap
        self.slow = slow
        self.cache = set()
        self.used = self.peak = self.reads = self.writes = self.computes = 0
        self.inputs = []
        self.nested_inputs = []

    def open(self):
        return _SimWalk(self.m_cap, self.b_cap, set(), self.summaries, self.counts,
                        self.sealed)

    def walk(self, entries, step0):
        """Walk ``entries`` from expanded step ``step0``; raises ``_Fault``."""
        slow, cache = self.slow, self.cache
        slow_add, cache_add, cache_discard = slow.add, cache.add, cache.discard
        inputs_append = self.inputs.append
        m_cap, b_cap = self.m_cap, self.b_cap
        used, peak = self.used, self.peak
        reads, writes, computes = self.reads, self.writes, self.computes
        # the expanded step of entry i is i + shift; ``peak`` never exceeds
        # M, so only a new peak can overflow the cache
        shift = step0
        for step, mv in enumerate(entries):
            tag = mv[0]
            if tag == MV_C:
                _, out, op, x, y = mv
                if x not in cache:
                    raise _Fault(step + shift, "ILLEGAL_OPERAND", "operand {} not in cache", x)
                if y >= 0:
                    if not 0 <= op <= OP_SUB or y not in cache:
                        raise _Fault(step + shift, "ILLEGAL_OPERAND", *_operand_fault(op, y))
                elif y != -1 or not OP_SUB < op <= OP_NEG:
                    raise _Fault(step + shift, "ILLEGAL_OPERAND", *_operand_fault(op, y))
                computes += 1
                if out not in cache:
                    cache_add(out)
                    used += 1
                    if used > peak:
                        if used > m_cap:
                            raise _Fault(step + shift, "CACHE_OVERFLOW",
                                         f"occupancy {used} exceeds M={m_cap}")
                        peak = used
            elif tag == MV_E:
                addr = mv[1]
                if addr not in cache:
                    raise _Fault(step + shift, "ILLEGAL_OPERAND", "evict of {} not in cache", addr)
                cache_discard(addr)
                used -= 1
            elif tag == MV_R:
                _, addr, k = mv
                if k == 1:
                    if addr not in slow:
                        inputs_append((addr, step + shift))
                        slow_add(addr)
                    if addr not in cache:
                        cache_add(addr)
                        used += 1
                else:
                    if not 1 <= k <= b_cap:
                        raise _Fault(step + shift, "BAD_BLOCK", f"read of {k} words with B={b_cap}")
                    for a in range(addr, addr + k):
                        if a not in slow:
                            inputs_append((a, step + shift))
                            slow_add(a)
                        if a not in cache:
                            cache_add(a)
                            used += 1
                reads += 1
                if used > peak:
                    if used > m_cap:
                        raise _Fault(step + shift, "CACHE_OVERFLOW",
                                     f"occupancy {used} exceeds M={m_cap}")
                    peak = used
            elif tag == MV_W:
                _, addr, k = mv
                if not 1 <= k <= b_cap:
                    raise _Fault(step + shift, "BAD_BLOCK", f"write of {k} words with B={b_cap}")
                for a in range(addr, addr + k):
                    if a not in cache:
                        raise _Fault(step + shift, "ILLEGAL_OPERAND", "write of {} not in cache", a)
                    slow_add(a)
                writes += 1
            else:  # MV_REC
                self.used, self.peak = used, peak
                self.reads, self.writes, self.computes = reads, writes, computes
                self.record(mv[1], mv[2], step + shift, not used)
                used, peak = self.used, self.peak
                reads, writes, computes = self.reads, self.writes, self.computes
                shift += mv[1].length - 1
        self.used, self.peak = used, peak
        self.reads, self.writes, self.computes = reads, writes, computes

    def apply(self, s, sh, at):
        """Apply summary ``s`` at a record whose first step is ``at`` and
        whose addresses move by ``sh``.  Returns False, having changed
        nothing, when the walk is closed and the record reads an undefined
        word, whose first read a walk move by move finds."""
        slow = self.slow
        missing = set(s.inputs.at(sh))
        missing -= slow
        if missing:
            if self.closed:
                return False
            slow |= missing
            self.nested_inputs += missing
        if s.fault is not None:
            rel, kind, msg = s.fault
            raise _Fault(at + rel, kind, msg, next(s.fault_at.at(sh), None))
        slow.update(s.outputs.at(sh))
        self.reads += s.reads
        self.writes += s.writes
        self.computes += s.computes
        self.peak = max(self.peak, s.peak)
        return True


@dataclass
class ParsimonyReport:
    violations: list = field(default_factory=list)  # (step, reason)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self):
        return self.ok


# value flags of check_parsimonious
_COMPUTED, _CONSUMED, _USED, _OUTER = 1, 2, 4, 8
# keeps the flags a value of a body's own carries out of it
_LOW_FLAGS = bytes(f & (_COMPUTED | _CONSUMED | _USED) for f in range(256))
# violation codes; the last two are not violations for an output word
_READ_UNUSED, _WRITTEN_UNUSED, _LEFT_MEMORY, _OVERWRITTEN = range(4)
_REASONS = ("value read into cache at {} evicted/overwritten unused",
            "read value at {} written back without being used",
            "computed value at {} left memory without being used",
            "computed value at {} overwritten in slow memory unused")


def check_parsimonious(schedule: Schedule) -> ParsimonyReport:
    """Check the two parsimony rules; returns the violating steps.

    Values written to slow memory stay available there, so spilling a
    temporary and reloading it later is parsimonious as long as the
    reloaded copy is used.  Run ``simulate`` first to know the schedule is
    legal: an illegal move is not reported here but read as far as it goes.
    A word not in cache is skipped by ``W`` and ``E``, an operand not in
    cache is ignored, and a read of an undefined word brings in a value
    that nothing computed.
    """
    entries = schedule.moves.entries
    walk = _ParsimonyWalk(bytearray(), {}, _record_counts(entries), _sealed(entries),
                          closed=True)
    walk.walk(entries, 0)
    # values abandoned in cache when the schedule ends are discarded values
    walk.drop_cached(len(schedule.moves))
    layout = schedule.layout
    out_lo = layout.c_base
    out_hi = out_lo + layout.n ** 2
    return ParsimonyReport([(step, _REASONS[code].format(addr))
                            for step, code, addr in walk.found
                            if code < _LEFT_MEMORY or not out_lo <= addr < out_hi])


class _ParsimonySummary:
    """What a body does, walked with no value of the memory around it
    known: its violations, as ``(step, code)`` with their addresses in
    ``found_at``, its pending writes, the outer values it consumes, and the
    words it leaves holding a value of its own, with their flags; pending
    writes and words left hold no temporary of the template when the walk
    is sealed."""

    __slots__ = ("found", "found_at", "pending", "consumed", "outputs", "out_flags")

    def __init__(self, template, body, fault):
        flags = body.flags
        self.found = [(rel, code) for rel, code, _ in body.found]
        self.found_at = _Addrs(template, [a for _, _, a in body.found])
        self.pending = _Addrs(template, body.pending, body.sealed)
        self.consumed = _Addrs(template, [a for a, v in body.outer.items()
                                          if flags[v] & _CONSUMED])
        # the words that hold a value of the body's own when it ends
        own = dict(body.slow)
        for a, v in body.outer.items():
            if own[a] == v:
                del own[a]
        self.outputs = _Addrs(template, own, body.sealed)
        self.out_flags = bytes(map(flags.__getitem__, map(own.__getitem__, self.outputs.addrs))
                               ).translate(_LOW_FLAGS)


class _ParsimonyWalk(_Walk):
    """The state of one ``check_parsimonious`` walk: slow memory and the
    cache as address -> value maps; ``outer``, the value from outside the
    walk that each word read before it was written held; ``found``, each
    ``(step, code, addr)`` in the order met; and ``pending``, the words it
    writes over a value from outside it that it has not consumed, which is a
    violation if that value was computed and never consumed before.  In a
    closed walk the values from outside are the inputs, which nothing
    computed, so its pending writes are never violations."""

    Summary = _ParsimonySummary

    def __init__(self, flags, summaries, counts, sealed, closed=False):
        super().__init__(summaries, counts, sealed, closed)
        self.flags = flags  # value -> flags, for every walk of one check
        self.slow = {}
        self.cache = {}
        self.outer = {}
        self.found = []
        self.pending = []

    def open(self):
        return _ParsimonyWalk(self.flags, self.summaries, self.counts, self.sealed)

    def outer_value(self, addr):
        v = self.slow[addr] = self.outer[addr] = len(self.flags)
        self.flags.append(_OUTER)
        return v

    def drop_cached(self, step):
        flags, slow_get, report = self.flags, self.slow.get, self.found.append
        for addr, v in self.cache.items():
            f = flags[v]
            if not f & _USED:
                report((step, _READ_UNUSED, addr))
            elif f & 3 == _COMPUTED and slow_get(addr) != v:
                report((step, _LEFT_MEMORY, addr))

    def walk(self, entries, step0):
        """Walk ``entries`` from expanded step ``step0``."""
        flags = self.flags
        new_value = flags.append
        slow, cache = self.slow, self.cache
        slow_get, cache_get, cache_pop = slow.get, cache.get, cache.pop
        report, pend = self.found.append, self.pending.append
        outer_value = self.outer_value
        # the expanded step of entry i is i + shift
        shift = step0
        for step, mv in enumerate(entries):
            tag = mv[0]
            if tag == MV_C:
                _, out, _, x, y = mv
                v = cache_get(x)
                if v is not None:
                    flags[v] |= 6  # consumed, used
                if y >= 0:
                    v = cache_get(y)
                    if v is not None:
                        flags[v] |= 6
                old = cache_get(out)
                if old is not None:
                    f = flags[old]
                    if not f & _USED:
                        report((step + shift, _READ_UNUSED, out))
                    elif f & 3 == _COMPUTED and slow_get(out) != old:
                        report((step + shift, _LEFT_MEMORY, out))
                cache[out] = len(flags)
                new_value(_COMPUTED | _USED)
            elif tag == MV_E:
                addr = mv[1]
                v = cache_pop(addr, None)
                if v is not None:
                    f = flags[v]
                    if not f & _USED:
                        report((step + shift, _READ_UNUSED, addr))
                    elif f & 3 == _COMPUTED and slow_get(addr) != v:
                        report((step + shift, _LEFT_MEMORY, addr))
            elif tag == MV_R:
                _, addr, k = mv
                for a in (addr,) if k == 1 else range(addr, addr + k):
                    old = cache_get(a)
                    if old is not None:  # no generated schedule re-reads a cached word
                        f = flags[old]
                        if not f & _USED:
                            report((step + shift, _READ_UNUSED, a))
                        elif f & 3 == _COMPUTED and slow_get(a) != old:
                            report((step + shift, _LEFT_MEMORY, a))
                    v = slow_get(a)
                    if v is None:
                        v = outer_value(a)
                    else:
                        flags[v] &= ~_USED
                    cache[a] = v
            elif tag == MV_W:
                _, addr, k = mv
                for a in range(addr, addr + k):
                    v = cache_get(a)
                    if v is None:
                        continue
                    f = flags[v]
                    if not f & _USED:
                        # reported once: its later eviction is not reported again
                        flags[v] = f | _USED
                        report((step + shift, _WRITTEN_UNUSED, a))
                    old = slow_get(a)
                    if old is None or old != v and flags[old] & (_OUTER | _CONSUMED) == _OUTER:
                        pend(a)
                    elif old != v and flags[old] & 3 == _COMPUTED:
                        report((step + shift, _OVERWRITTEN, a))
                    slow[a] = v
            else:  # MV_REC
                self.record(mv[1], mv[2], step + shift, not cache)
                shift += mv[1].length - 1

    def apply(self, s, sh, at):
        """Apply summary ``s`` at a record whose first step is ``at`` and
        whose addresses move by ``sh``.  Returns False, having changed
        nothing, when one of its pending writes is a violation here, whose
        step and order a walk move by move finds."""
        flags, slow, slow_get = self.flags, self.slow, self.slow.get
        ys = list(s.pending.at(sh))
        if not slow.keys().isdisjoint(ys):
            kept = []
            for y in ys:
                v = slow_get(y)
                if v is not None:
                    f = flags[v]
                    if f & 3 == _COMPUTED:
                        return False
                    if f & (_OUTER | _CONSUMED) != _OUTER:
                        continue
                kept.append(y)
            ys = kept
        if not self.closed:
            self.pending += ys
        self.found += [(at + rel, code, a) for (rel, code), a in zip(s.found, s.found_at.at(sh))]
        for a in s.consumed.at(sh):
            v = slow_get(a)
            if v is None:
                v = self.outer_value(a)
            flags[v] |= _CONSUMED
        first = len(flags)
        flags += s.out_flags
        slow.update(zip(s.outputs.at(sh), count(first)))
        return True


def replay_values(schedule: Schedule, a: Matrix, b: Matrix) -> Matrix:
    """Execute the schedule's computes on ring values; returns the C block.

    The result proves the schedule computes the product function, not just
    that its moves are legal.
    """
    n = schedule.layout.n
    if a.n != n or b.n != n:
        raise ValueError("matrix size does not match schedule layout")
    p = a.modulus
    slow = {}
    for i in range(n):
        for j in range(n):
            slow[i * n + j] = int(a.data[i, j])
            slow[n * n + i * n + j] = int(b.data[i, j])
    cache = {}
    for mv in schedule.moves:
        tag = mv[0]
        if tag == MV_C:
            out, op, x, y = mv[1], mv[2], mv[3], mv[4]
            vx = cache[x]
            if op == OP_MUL:
                cache[out] = (vx * cache[y]) % p
            elif op == OP_ADD:
                cache[out] = (vx + cache[y]) % p
            elif op == OP_SUB:
                cache[out] = (vx - cache[y]) % p
            elif op == OP_CPY:
                cache[out] = vx
            else:
                cache[out] = (-vx) % p
        elif tag == MV_R:
            addr, k = mv[1], mv[2]
            for adr in range(addr, addr + k):
                cache[adr] = slow[adr]
        elif tag == MV_W:
            addr, k = mv[1], mv[2]
            for adr in range(addr, addr + k):
                slow[adr] = cache[adr]
        else:
            cache.pop(mv[1], None)
    c_base = schedule.layout.c_base
    rows = []
    for i in range(n):
        rows.append([slow[c_base + i * n + j] for j in range(n)])
    return Matrix(rows, p)


def dump_lines(schedule: Schedule):
    """``dump_schedule``'s lines, each ending in a newline, one per move of
    the expansion."""
    for mv in schedule.moves:
        tag = mv[0]
        if tag == MV_R:
            yield f"R {mv[1]} {mv[2]}\n"
        elif tag == MV_W:
            yield f"W {mv[1]} {mv[2]}\n"
        elif tag == MV_C:
            op = _OP_NAMES[mv[2]]
            if mv[4] >= 0:
                yield f"C {mv[1]} {op} {mv[3]} {mv[4]}\n"
            else:
                yield f"C {mv[1]} {op} {mv[3]}\n"
        else:
            yield f"E {mv[1]}\n"


def dump_schedule(schedule: Schedule) -> str:
    """Line-oriented text form: R/W addr k, C out op x [y], E addr; an empty
    schedule is one empty line."""
    return "".join(dump_lines(schedule)) or "\n"


def parse_schedule(text: str, layout: MemoryLayout) -> Schedule:
    """Read ``dump_schedule``'s text form; a line that is not a move, a move
    with extra tokens, or a compute with the wrong number of operands for its
    opcode, raises ``ValueError``."""
    moves = []
    for lineno, line in enumerate(text.splitlines(), 1):
        parts = line.split()
        if not parts:
            continue
        tag = parts[0]
        try:
            if tag in ("R", "W") and len(parts) == 3:
                moves.append((MV_R if tag == "R" else MV_W, int(parts[1]), int(parts[2])))
            elif tag == "C":
                op = _OP_CODES[parts[2]]
                binary = op <= OP_SUB
                y = int(parts[4]) if binary else -1
                if len(parts) != (5 if binary else 4) or y < 0 and binary:
                    raise ValueError("operands do not match the opcode")
                moves.append((MV_C, int(parts[1]), op, int(parts[3]), y))
            elif tag == "E" and len(parts) == 2:
                moves.append((MV_E, int(parts[1])))
            else:
                raise KeyError(tag)
        except (IndexError, KeyError, ValueError) as exc:
            raise ValueError(f"bad schedule line {lineno}: {line!r}") from exc
    return Schedule(moves, layout)
