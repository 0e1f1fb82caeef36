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

``check_parsimonious`` keeps each value as one record of three flags,
``[computed, consumed, used since its last read]``, shared by its cache
slot and its slow word.  A read clears the third flag; a compute sets both
use flags on its operands and creates ``[True, False, True]``; a write-back
of a read value sets the third flag once it has reported it.  A value that
leaves the cache with the third flag clear was read in vain.
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
    in slow memory.  A compute must name as many operands as its opcode
    takes: ``mul``/``add``/``sub`` two, ``cpy``/``neg`` one (``y`` is -1).
    Within a move the checks run in a fixed order, so the first fault found
    is the one raised: a block size, then each word of a read, then the
    occupancy; for a compute, ``x``, then ``y``, then the occupancy.
    """
    slow = set(schedule.layout.input_range())
    cache = set()
    cache_add, cache_discard = cache.add, cache.discard
    m_cap = cfg.M
    b_cap = cfg.B
    reads = writes = computes = 0
    # ``used`` counts the cached words; ``peak`` never exceeds M, so only a
    # new peak can overflow the cache
    used = peak = 0

    for step, mv in enumerate(schedule.moves):
        tag = mv[0]
        if tag == MV_C:
            _, out, op, x, y = mv
            if x not in cache:
                raise ScheduleError("ILLEGAL_OPERAND", step, f"operand {x} not in cache")
            if y >= 0:
                if op > OP_SUB or y not in cache:
                    raise ScheduleError("ILLEGAL_OPERAND", step, _operand_fault(op, y))
            elif y != -1 or op <= OP_SUB:
                raise ScheduleError("ILLEGAL_OPERAND", step, _operand_fault(op, y))
            computes += 1
            if out not in cache:
                cache_add(out)
                used += 1
                if used > peak:
                    if used > m_cap:
                        raise ScheduleError("CACHE_OVERFLOW", step,
                                            f"occupancy {used} exceeds M={m_cap}")
                    peak = used
        elif tag == MV_E:
            addr = mv[1]
            if addr not in cache:
                raise ScheduleError("ILLEGAL_OPERAND", step, f"evict of {addr} not in cache")
            cache_discard(addr)
            used -= 1
        elif tag == MV_R:
            _, addr, k = mv
            if k == 1:
                if addr not in slow:
                    raise ScheduleError("UNDEFINED_READ", step, f"address {addr} undefined in slow memory")
                if addr not in cache:
                    cache_add(addr)
                    used += 1
            else:
                if not 1 <= k <= b_cap:
                    raise ScheduleError("BAD_BLOCK", step, f"read of {k} words with B={b_cap}")
                for a in range(addr, addr + k):
                    if a not in slow:
                        raise ScheduleError("UNDEFINED_READ", step, f"address {a} undefined in slow memory")
                    if a not in cache:
                        cache_add(a)
                        used += 1
            reads += 1
            if used > peak:
                if used > m_cap:
                    raise ScheduleError("CACHE_OVERFLOW", step,
                                        f"occupancy {used} exceeds M={m_cap}")
                peak = used
        else:  # MV_W
            _, addr, k = mv
            if not 1 <= k <= b_cap:
                raise ScheduleError("BAD_BLOCK", step, f"write of {k} words with B={b_cap}")
            for a in range(addr, addr + k):
                if a not in cache:
                    raise ScheduleError("ILLEGAL_OPERAND", step, f"write of {a} not in cache")
                slow.add(a)
            writes += 1

    return IoStats(reads, writes, peak, computes)


def _operand_fault(op, y):
    """Why a compute's second operand ``y`` is illegal for opcode ``op``."""
    name = _OP_NAMES.get(op, f"opcode {op}")
    if op > OP_SUB:
        return f"{name} takes one operand, got second operand {y}"
    return f"operand {y} not in cache" if y >= 0 else f"{name} needs a second operand"


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

    Values written to slow memory stay available there, so spilling a
    temporary and reloading it later is parsimonious as long as the
    reloaded copy is used.  Run ``simulate`` first to know the schedule is
    legal: an illegal move is not reported here but read as far as it goes.
    A word not in cache is skipped by ``W`` and ``E``, an operand not in
    cache is ignored, and a read of an undefined word brings in a value
    that nothing computed.
    """
    layout = schedule.layout
    out_lo = layout.c_base
    out_hi = out_lo + layout.n ** 2
    violations = []
    report = violations.append

    # A value is [computed, consumed, used since its last read] (module
    # docstring); by the one-home rule it is in slow memory exactly when
    # ``slow[addr] is value``.
    slow = {a: [False, False, True] for a in layout.input_range()}
    slow_get = slow.get
    cache = {}  # addr -> value
    cache_get = cache.get
    cache_pop = cache.pop

    def drop(addr, val, step):
        # the compute and evict paths below inline this test
        if not val[2]:
            report((step, f"value read into cache at {addr} evicted/overwritten unused"))
        elif val[0] and not val[1] and slow_get(addr) is not val and not out_lo <= addr < out_hi:
            report((step, f"computed value at {addr} left memory without being used"))

    for step, mv in enumerate(schedule.moves):
        tag = mv[0]
        if tag == MV_C:
            _, out, _, x, y = mv
            val = cache_get(x)
            if val is not None:
                val[1] = val[2] = True
            if y >= 0:
                val = cache_get(y)
                if val is not None:
                    val[1] = val[2] = True
            old = cache_get(out)
            if old is not None:
                if not old[2]:
                    report((step, f"value read into cache at {out} evicted/overwritten unused"))
                elif old[0] and not old[1] and slow_get(out) is not old and not out_lo <= out < out_hi:
                    report((step, f"computed value at {out} left memory without being used"))
            cache[out] = [True, False, True]
        elif tag == MV_E:
            addr = mv[1]
            val = cache_pop(addr, None)
            if val is not None:
                if not val[2]:
                    report((step, f"value read into cache at {addr} evicted/overwritten unused"))
                elif val[0] and not val[1] and slow_get(addr) is not val and not out_lo <= addr < out_hi:
                    report((step, f"computed value at {addr} left memory without being used"))
        elif tag == MV_R:
            _, addr, k = mv
            for a in (addr,) if k == 1 else range(addr, addr + k):
                old = cache_get(a)
                if old is not None:  # no generated schedule re-reads a cached word
                    drop(a, old, step)
                val = slow_get(a)
                if val is None:
                    val = slow[a] = [False, False, False]
                else:
                    val[2] = False
                cache[a] = val
        else:  # MV_W
            _, addr, k = mv
            for a in range(addr, addr + k):
                val = cache_get(a)
                if val is None:
                    continue
                if not val[2]:
                    # reported once: its later eviction is not reported again
                    val[2] = True
                    report((step, f"read value at {a} written back without being used"))
                old = slow_get(a)
                if (old is not None and old is not val and old[0] and not old[1]
                        and not out_lo <= a < out_hi):
                    report((step, f"computed value at {a} overwritten in slow memory unused"))
                slow[a] = val

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
    """Read ``dump_schedule``'s text form; a line that is not a move, or a
    compute with the wrong number of operands for its opcode, raises
    ``ValueError``."""
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
                op = _OP_CODES[parts[2]]
                binary = op <= OP_SUB
                y = int(parts[4]) if binary else -1
                if len(parts) != (5 if binary else 4) or y < 0 and binary:
                    raise ValueError("operands do not match the opcode")
                moves.append((MV_C, int(parts[1]), op, int(parts[3]), y))
            elif tag == "E":
                moves.append((MV_E, int(parts[1])))
            else:
                raise KeyError(tag)
        except (IndexError, KeyError, ValueError) as exc:
            raise ValueError(f"bad schedule line {lineno}: {line!r}") from exc
    return Schedule(moves, layout)
