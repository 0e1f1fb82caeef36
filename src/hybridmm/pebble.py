"""Red-blue pebble-game schedules in a two-level memory with block moves.

A schedule is an ordered list of moves over a single linear address space:

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

``simulate`` validates a schedule and counts I/O; ``check_parsimonious``
checks that no value is loaded or computed in vain: a value read into cache
must feed a compute before it is evicted or written back, and a computed
non-output value must feed a compute before it leaves memory entirely
(eviction from cache does not count against a value that still has a
current copy in slow memory, which is how spilled temporaries stay
parsimonious).  A read value written back unused is reported once, at the
write-back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ringmat import Matrix

# move tags
MV_R, MV_W, MV_C, MV_E = 0, 1, 2, 3
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


@dataclass
class Schedule:
    moves: list
    layout: MemoryLayout
    label: str = ""


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


def simulate(schedule: Schedule, cfg: MachineConfig) -> IoStats:
    """Validate the schedule under cfg and return its I/O statistics.

    Only the 2n^2 input words of the schedule's layout start out defined
    in slow memory.
    """
    slow = set(schedule.layout.input_range())
    cache = set()
    m_cap = cfg.M
    b_cap = cfg.B
    reads = writes = computes = 0
    peak = 0

    for step, mv in enumerate(schedule.moves):
        tag = mv[0]
        if tag == MV_C:
            out = mv[1]
            x = mv[3]
            if x not in cache:
                raise ScheduleError("ILLEGAL_OPERAND", step, f"operand {x} not in cache")
            y = mv[4]
            if y >= 0 and y not in cache:
                raise ScheduleError("ILLEGAL_OPERAND", step, f"operand {y} not in cache")
            computes += 1
            if out not in cache:
                cache.add(out)
                if len(cache) > m_cap:
                    raise ScheduleError("CACHE_OVERFLOW", step,
                                        f"occupancy {len(cache)} exceeds M={m_cap}")
                if len(cache) > peak:
                    peak = len(cache)
        elif tag == MV_R:
            addr, k = mv[1], mv[2]
            if not 1 <= k <= b_cap:
                raise ScheduleError("BAD_BLOCK", step, f"read of {k} words with B={b_cap}")
            for a in range(addr, addr + k):
                if a not in slow:
                    raise ScheduleError("UNDEFINED_READ", step, f"address {a} undefined in slow memory")
                cache.add(a)
            reads += 1
            if len(cache) > m_cap:
                raise ScheduleError("CACHE_OVERFLOW", step,
                                    f"occupancy {len(cache)} exceeds M={m_cap}")
            if len(cache) > peak:
                peak = len(cache)
        elif tag == MV_W:
            addr, k = mv[1], mv[2]
            if not 1 <= k <= b_cap:
                raise ScheduleError("BAD_BLOCK", step, f"write of {k} words with B={b_cap}")
            for a in range(addr, addr + k):
                if a not in cache:
                    raise ScheduleError("ILLEGAL_OPERAND", step, f"write of {a} not in cache")
                slow.add(a)
            writes += 1
        else:  # MV_E
            addr = mv[1]
            if addr not in cache:
                raise ScheduleError("ILLEGAL_OPERAND", step, f"evict of {addr} not in cache")
            cache.discard(addr)

    return IoStats(reads, writes, peak, computes)


@dataclass
class ParsimonyReport:
    violations: list = field(default_factory=list)  # (step, reason)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self):
        return self.ok


def check_parsimonious(schedule: Schedule) -> ParsimonyReport:
    """Check the two parsimony rules; returns the violating steps.

    Assumes the schedule is legal (run ``simulate`` first).  Values written
    to slow memory stay available there, so spilling a temporary and
    reloading it later is parsimonious as long as the reloaded copy is used.
    """
    out_lo = schedule.layout.c_base
    out_hi = out_lo + schedule.layout.n ** 2
    violations = []

    # A value is [computed, consumed]; by the one-home rule (module
    # docstring) it is in slow memory exactly when ``slow[addr] is value``.
    slow = {a: [False, False] for a in schedule.layout.input_range()}
    cache = {}  # addr -> value
    unused_reads = set()  # cached addresses read in and not used since

    def drop(addr, val, step):
        if addr in unused_reads:
            unused_reads.remove(addr)
            violations.append((step, f"value read into cache at {addr} evicted/overwritten unused"))
        elif val[0] and not val[1] and slow.get(addr) is not val and not out_lo <= addr < out_hi:
            violations.append((step, f"computed value at {addr} left memory without being used"))

    for step, mv in enumerate(schedule.moves):
        tag = mv[0]
        if tag == MV_C:
            out, x, y = mv[1], mv[3], mv[4]
            for a in (x, y) if y >= 0 else (x,):
                val = cache.get(a)
                if val is not None:
                    val[1] = True
                    unused_reads.discard(a)
            old = cache.get(out)
            if old is not None:
                drop(out, old, step)
            cache[out] = [True, False]
        elif tag == MV_R:
            addr, k = mv[1], mv[2]
            for a in range(addr, addr + k):
                old = cache.get(a)
                if old is not None:
                    drop(a, old, step)
                val = slow.get(a)
                if val is None:
                    val = slow[a] = [False, False]
                cache[a] = val
                unused_reads.add(a)
        elif tag == MV_W:
            addr, k = mv[1], mv[2]
            for a in range(addr, addr + k):
                val = cache.get(a)
                if val is None:
                    continue
                if a in unused_reads:
                    # reported once: its later eviction is not reported again
                    unused_reads.remove(a)
                    violations.append((step, f"read value at {a} written back without being used"))
                old = slow.get(a)
                if (old is not None and old is not val and old[0] and not old[1]
                        and not out_lo <= a < out_hi):
                    violations.append((step, f"computed value at {a} overwritten in slow memory unused"))
                slow[a] = val
        else:  # MV_E
            addr = mv[1]
            val = cache.pop(addr, None)
            if val is not None:
                drop(addr, val, step)

    # values abandoned in cache when the schedule ends are discarded values
    end = len(schedule.moves)
    for addr, val in cache.items():
        drop(addr, val, end)

    return ParsimonyReport(violations)


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


def dump_schedule(schedule: Schedule) -> str:
    """Line-oriented text form: R/W addr k, C out op x [y], E addr."""
    lines = []
    for mv in schedule.moves:
        tag = mv[0]
        if tag == MV_R:
            lines.append(f"R {mv[1]} {mv[2]}")
        elif tag == MV_W:
            lines.append(f"W {mv[1]} {mv[2]}")
        elif tag == MV_C:
            op = _OP_NAMES[mv[2]]
            if mv[4] >= 0:
                lines.append(f"C {mv[1]} {op} {mv[3]} {mv[4]}")
            else:
                lines.append(f"C {mv[1]} {op} {mv[3]}")
        else:
            lines.append(f"E {mv[1]}")
    return "\n".join(lines) + "\n"


def parse_schedule(text: str, layout: MemoryLayout) -> Schedule:
    moves = []
    for lineno, line in enumerate(text.splitlines(), 1):
        parts = line.split()
        if not parts:
            continue
        tag = parts[0]
        try:
            if tag == "R":
                moves.append((MV_R, int(parts[1]), int(parts[2])))
            elif tag == "W":
                moves.append((MV_W, int(parts[1]), int(parts[2])))
            elif tag == "C":
                y = int(parts[4]) if len(parts) > 4 else -1
                moves.append((MV_C, int(parts[1]), _OP_CODES[parts[2]], int(parts[3]), y))
            elif tag == "E":
                moves.append((MV_E, int(parts[1])))
            else:
                raise KeyError(tag)
        except (IndexError, KeyError, ValueError) as exc:
            raise ValueError(f"bad schedule line {lineno}: {line!r}") from exc
    return Schedule(moves, layout)
