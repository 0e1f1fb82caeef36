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
bases)`` stands for the moves of a ``Template``, a sub-problem that the
schedule repeats: the template names four disjoint address segments (the
spans of its a, b and c operands and its temporaries), and a record moves
every address in segment k by ``bases[k]`` minus the segment's start.  A
template's body holds moves and records of its own, so records nest.
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

Each of the two is one walker over a list of moves and records.  It first
counts each template's records in the expansion.  A template with one
record, such as the whole problem of a generated schedule, is walked in
place, move by move, at the record's addresses.  For a template with two
or more, at the first record it walks the template's body once, from an
empty cache, and keeps a summary of what the body does to the memory
around it: its counts and peak, its first internal fault, the slow words
it reads before writing them, the words it leaves written, and its
violations, some of which depend on the slow words it overwrites.  Every
record of the template then applies that summary, with its addresses
moved and its steps offset.  A record is walked move by move instead when
it is met with a non-empty cache, when its template is not
``summarizable`` at its bases or does not end with an empty cache (only a
hand-edited template can do either), when it reads an undefined word, or
when one of its writes overwrites a computed value never used.  So the
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
from itertools import count
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
    """The moves of one sub-problem, which records replay.

    ``body`` is a list of moves and records, with the addresses of the call
    that generated it, whose four disjoint segments are ``segments``:
    ``(lo, hi)`` for the a, b and c operands' spans and the temporaries.  A
    record with ``bases`` moves an address in segment k by ``bases[k] - lo``
    and leaves an address outside every segment as it is.

    ``nested`` holds the template of each record in the body, in order.
    The walkers summarize a template only if the expansion holds two or
    more records of it; a summary of the body, walked at these addresses,
    stands for a record only if the record moves nothing, or moving the
    addresses keeps every word the body uses apart from every other
    (``summarizable``).  A generated body qualifies; a hand-edited one may
    not, and its records are walked move by move.
    """

    __slots__ = ("body", "segments", "lows", "nested", "length", "_bounds", "_order",
                 "_contained")

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
        self._contained = None

    def contained(self):
        """Whether every address the body uses lies in a segment (a second
        operand of -1 names none), every run of words in one, and each
        segment of a nested record, moved to its bases, in one; computed
        once."""
        if self._contained is None:
            used, runs = set(), []
            add = used.add
            contained = True
            for mv in self.body:
                tag = mv[0]
                if tag == MV_C:
                    add(mv[1])
                    add(mv[3])
                    add(mv[4])
                elif tag == MV_E:
                    add(mv[1])
                elif tag == MV_REC:
                    contained = contained and mv[1].contained()
                    runs += [(b, b + hi - lo) for (lo, hi), b in zip(mv[1].segments, mv[2])
                             if lo < hi]
                elif mv[2] > 1:
                    runs.append((mv[1], mv[1] + mv[2]))
                else:
                    add(mv[1])
            used.discard(-1)  # no second operand
            bounds = self._bounds
            # a word in segment j has the odd interval 2j + 1
            contained = contained and all(i & 1 for i in set(map(partial(bisect_right, bounds),
                                                                 used)))
            for lo, hi in runs:
                i = bisect_right(bounds, lo)
                contained = contained and i & 1 and hi <= bounds[i]
            self._contained = bool(contained)
        return self._contained

    def summarizable(self, bases):
        """Whether a summary of the body stands for a record with ``bases``:
        the record moves nothing, or the body is ``contained`` and the
        record moves the segments to disjoint, non-negative places."""
        if bases == self.lows:
            return True
        spans = sorted((b, b + hi - lo) for (lo, hi), b in zip(self.segments, bases) if lo < hi)
        return (self.contained() and (not spans or spans[0][0] >= 0)
                and all(hi <= lo for (_, hi), (lo, _) in zip(spans, spans[1:])))

    def intervals(self, addrs):
        """The interval that holds each of ``addrs``, an index into ``shifts``."""
        return list(map(partial(bisect_right, self._bounds), addrs))

    def shifts(self, bases):
        """Per interval, how far a record with ``bases`` moves an address."""
        sh = [0] * (len(self._bounds) + 1)
        for j, k in enumerate(self._order):
            sh[2 * j + 1] = bases[k] - self.lows[k]
        return sh


def _moved(addrs, intervals, sh):
    """``addrs`` moved by ``sh``, the shifts of a record, given their intervals."""
    return map(add, addrs, map(sh.__getitem__, intervals))


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
                    _record_counts(entries), closed=True)
    fault = None
    try:
        walk.walk(entries, 0)
    except _Fault as exc:
        fault = exc
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


class _SimWalk:
    """The state of one ``simulate`` walk: the words known defined in slow
    memory, the cache, the counts, and ``inputs``, each ``(addr, step)`` of a
    first read of a word not known defined, in the order met, and
    ``nested_inputs``, the words its records read that it had not defined.
    ``counts`` holds each template's records in the schedule's expansion;
    a template with one record is walked in place, with no summary.

    A walk of the whole schedule is ``closed``: it knows every defined word,
    so an input it meets is undefined, and it walks a record that reads one
    move by move, which finds the first such read in order."""

    def __init__(self, m_cap, b_cap, slow, summaries, counts, closed=False):
        self.m_cap, self.b_cap = m_cap, b_cap
        self.slow = slow
        self.closed = closed
        self.cache = set()
        self.used = self.peak = self.reads = self.writes = self.computes = 0
        self.inputs = []
        self.nested_inputs = []
        self.summaries = summaries  # template -> _SimSummary, for one cfg
        self.counts = counts

    def summary(self, template):
        s = self.summaries.get(template)
        if s is None:
            body = _SimWalk(self.m_cap, self.b_cap, set(), self.summaries, self.counts)
            fault = None
            try:
                body.walk(template.body, 0)
            except _Fault as exc:
                fault = exc
            s = self.summaries[template] = _SimSummary(template, body, fault)
        return s

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
                _, template, bases = mv
                s = (self.summary(template)
                     if not used and self.counts[template] > 1 and template.summarizable(bases)
                     else None)
                sh = missing = None
                if s is not None and s.usable:
                    sh = template.shifts(bases)
                    missing = set(_moved(s.inputs, s.input_intervals, sh))
                    missing -= slow
                if sh is None or missing and self.closed:
                    self.used, self.peak = used, peak
                    self.reads, self.writes, self.computes = reads, writes, computes
                    self.walk(_entries_at(template, bases), step + shift)
                    used, peak = self.used, self.peak
                    reads, writes, computes = self.reads, self.writes, self.computes
                else:
                    if missing:
                        slow |= missing
                        self.nested_inputs += missing
                    if s.fault is not None:
                        rel, kind, msg, addr, i = s.fault
                        raise _Fault(step + shift + rel, kind, msg,
                                     None if addr is None else addr + sh[i])
                    slow.update(_moved(s.outputs, s.output_intervals, sh))
                    reads += s.reads
                    writes += s.writes
                    computes += s.computes
                    if s.peak > peak:
                        peak = s.peak
                shift += template.length - 1
        self.used, self.peak = used, peak
        self.reads, self.writes, self.computes = reads, writes, computes


class _SimSummary:
    """What a template's body does under one cfg, walked from an empty cache
    and with nothing known defined: its counts and peak, its first fault,
    the words it reads before writing them, and the words it writes.
    Addresses are the body's own, each list of them with its intervals in
    the template.  It stands for the body only at a record met with an empty
    cache, and only if the body faults or ends with an empty cache."""

    __slots__ = ("reads", "writes", "computes", "peak", "usable", "fault", "inputs",
                 "input_intervals", "outputs", "output_intervals")

    def __init__(self, template, body, fault):
        self.reads, self.writes, self.computes = body.reads, body.writes, body.computes
        self.peak = body.peak
        self.usable = fault is not None or not body.used
        self.fault = None
        if fault is not None:
            self.fault = (fault.step, fault.kind, fault.msg, fault.addr,
                          None if fault.addr is None else template.intervals([fault.addr])[0])
        self.inputs = [a for a, _ in body.inputs] + body.nested_inputs
        self.input_intervals = template.intervals(self.inputs)
        self.outputs = list(body.slow.difference(self.inputs))
        self.output_intervals = template.intervals(self.outputs)


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
    walk = _ParsimonyWalk(bytearray(), {}, _record_counts(entries), closed=True)
    walk.walk(entries, 0)
    # values abandoned in cache when the schedule ends are discarded values
    walk.drop_cached(len(schedule.moves))
    layout = schedule.layout
    out_lo = layout.c_base
    out_hi = out_lo + layout.n ** 2
    return ParsimonyReport([(step, _REASONS[code].format(addr))
                            for step, code, addr in walk.found
                            if code < _LEFT_MEMORY or not out_lo <= addr < out_hi])


class _ParsimonyWalk:
    """The state of one ``check_parsimonious`` walk: slow memory and the
    cache as address -> value maps; ``outer``, the value from outside the
    walk that each word read before it was written held; ``found``, each
    ``(step, code, addr)`` in the order met; and ``pending``, the words it
    writes over a value from outside it that it has not consumed, which is a
    violation if that value was computed and never consumed before.
    ``counts`` holds each template's records in the schedule's expansion;
    a template with one record is walked in place, with no summary.

    A walk of the whole schedule is ``closed``: the values from outside it
    are the inputs, which nothing computed, so its pending writes are
    never violations."""

    def __init__(self, flags, summaries, counts, closed=False):
        self.flags = flags  # value -> flags, for every walk of one check
        self.closed = closed
        self.slow = {}
        self.cache = {}
        self.outer = {}
        self.found = []
        self.pending = []
        self.summaries = summaries  # template -> _ParsimonySummary
        self.counts = counts

    def summary(self, template):
        s = self.summaries.get(template)
        if s is None:
            body = _ParsimonyWalk(self.flags, self.summaries, self.counts)
            body.walk(template.body, 0)
            s = self.summaries[template] = _ParsimonySummary(template, body)
        return s

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
                _, template, bases = mv
                s = (self.summary(template)
                     if not cache and self.counts[template] > 1 and template.summarizable(bases)
                     else None)
                if (s is None or not s.usable
                        or not self.apply(s, template.shifts(bases), step + shift)):
                    self.walk(_entries_at(template, bases), step + shift)
                shift += template.length - 1

    def apply(self, s, sh, at):
        """Apply summary ``s`` at a record whose first step is ``at`` and
        whose addresses move by ``sh``.  Returns False, having changed
        nothing, when one of its pending writes is a violation here, whose
        step and order a walk move by move finds."""
        flags, slow, slow_get = self.flags, self.slow, self.slow.get
        ys = list(_moved(s.pending, s.pending_intervals, sh))
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
        report = self.found.append
        for rel, code, a, i in s.found:
            report((at + rel, code, a + sh[i]))
        for a in _moved(s.consumed, s.consumed_intervals, sh):
            v = slow_get(a)
            if v is None:
                v = self.outer_value(a)
            flags[v] |= _CONSUMED
        first = len(flags)
        flags += s.out_flags
        slow.update(zip(_moved(s.outputs, s.output_intervals, sh), count(first)))
        return True


class _ParsimonySummary:
    """What a template's body does, walked from an empty cache and with no
    value of the memory around it known: its violations, its pending
    writes, the outer values it consumes, and the words it leaves holding a
    value of its own, with their flags.  Addresses are the body's own, each
    with its interval in the template.  It stands for the body only at a
    record met with an empty cache, and only if the body ends with an empty
    cache."""

    __slots__ = ("usable", "found", "pending", "pending_intervals", "consumed",
                 "consumed_intervals", "outputs", "output_intervals", "out_flags")

    def __init__(self, template, body):
        flags, bounds = body.flags, template._bounds
        self.usable = not body.cache
        self.found = [(rel, code, a, bisect_right(bounds, a)) for rel, code, a in body.found]
        self.pending = body.pending
        self.pending_intervals = template.intervals(self.pending)
        self.consumed = [a for a, v in body.outer.items() if flags[v] & _CONSUMED]
        self.consumed_intervals = template.intervals(self.consumed)
        # the words that hold a value of the body's own when it ends
        own = dict(body.slow)
        for a, v in body.outer.items():
            if own[a] == v:
                del own[a]
        self.outputs = list(own)
        self.output_intervals = template.intervals(self.outputs)
        self.out_flags = bytes(map(flags.__getitem__, own.values())).translate(_LOW_FLAGS)


# keeps the flags a value of a body's own carries out of it
_LOW_FLAGS = bytes(f & (_COMPUTED | _CONSUMED | _USED) for f in range(256))


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
