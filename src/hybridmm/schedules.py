"""I/O-efficient schedule generators for plans in the two-level model.

Two generators are exposed, built by one set-up:

``gen_standard_blocked_schedule``
    Classic square tiling for the standard algorithm with tile side t, the
    largest power of two satisfying 3*t^2 <= M.  One tile loop serves every
    t: a C tile stays resident across k, each k step reads a row of the A
    tile at a time and the B tile right after A's first row, and a product
    goes into one scratch word until its A word is spent, at the tile's
    last column, and over that A word there.  Each output tile is flushed
    with the scratch word, so it starts and ends with an empty cache.  With
    M = 3 (t = 1) this is the definition triple loop: every product after
    the first is computed over the spent A word, no scratch word exists,
    and C is written once, for 2n^3 reads and n^2 writes.  It is the hybrid
    generator on a plan that is one standard leaf.

``gen_hybrid_schedule``
    Depth-first traversal of a recursion plan.  A sub-problem whose whole
    evaluation fits in cache is computed after a single read pass of its
    operands.  Fast nodes above that threshold stream: the encoded operands
    that combine quadrants are materialized in slow memory with one
    synchronized pass over the node's inputs, an operand that is a single
    +1 quadrant (A11, A22, B11 and B22 in Strassen) is the parent's strided
    quadrant view itself, never copied, children recurse, and the node's
    output is stream-decoded from the seven sub-products.  Children small
    enough to fit in cache are fused instead: their operands are built
    directly in cache from the parent's quadrant blocks, skipping the
    slow-memory round trip, and single-quadrant operand blocks are kept
    resident between consecutive children that share them.

The in-cache executor frees every word at its last use (inputs
quadrant-by-quadrant, output quadrants written out as soon as they
complete), which is what lets a subtree of side s run in roughly 3*s^2
words.  All emission is budgeted: any step that would exceed M raises, and
``_Emitter.attempt``, the only undo path, drops the step's moves,
allocations and residency so the caller can fall back to another child
order or a coarser strategy; generated schedules are legal by construction.

Every in-cache fast node runs its children through one per-child step,
``_incache_child``, which sees the children before it only as a set (a
bitmask).  The node tries its memoized order and the scheme's fixed orders
first; when none fits, ``_incache_search`` goes depth first over the next
child in lexicographic order, each step a nested ``attempt``, and never
re-enters a done-set from which nothing fits.  It finds the same first
fitting order as a scan of all 5,040 orders, in at most 7 * 2**6 steps.

Runs of words go through a few ``_Emitter`` primitives: ``read_run`` and
``write_run`` move a run in block moves of at most B words, ``evict_run``
drops it from the cache, ``flush`` writes it back and then evicts it, and
the ``*_view`` forms apply these to each contiguous run of a ``View``
(``View.runs``).  Loops that go one word at a time (dot products, signed
terms) emit their moves inline.

Every {-1, 0, 1} linear combination of blocks, driven by the ``FastScheme``
coefficient rows, takes its opcodes from one map, ``_TERM_OP`` (a term's
coefficient, and whether it starts its word, to copy, negate, add or
subtract).  ``_stream_combine`` builds blocks in slow memory in one
synchronized pass over their sources (the stream encode and decode).
``_build_operand`` builds a child operand in cache from resident blocks,
for in-cache and fused children.  The in-cache decode adds each child's
product into the output quadrants term by term as the child finishes.
``_incache_leaf`` runs the standard triple loop over resident operands, for
in-cache leaves and for the blocked generator when the whole problem fits.

A uniform plan applies one sub-structure at every node of a level, so most
streamed sub-problems are translated copies of one another.  ``_gen_node``
therefore generates each distinct sub-problem once per generation, as a
``pebble.Template``, and stands for it by one record, at that call and at
every later one.  The memo key is the node's identity and the strides of
its a, b and c views.  A record gives the bases of the template's segments
at its call: the a, b and c views' spans and the temporaries the
sub-problem allocated, four disjoint ranges.  Expanding it moves each
address by the offset of its segment (see ``pebble``).  Two facts make a
record exact, and ``_record``, the one place that makes records, asserts
both: the cache is empty at every entry and exit, and no ``attempt`` is
open, so a replay needs no budget check and is never rolled back.  When a
step ends, its moves leave the emitter's list for its template's body, so
a schedule is one record of the whole problem, and each body holds the
moves its own call emitted and the records of its steps.

The same rule applies one level lower, to ``_stream_combine``'s steps: a
row segment of the segmented pass, or one destination row of the
word-by-word pass.  Each starts and ends with an empty cache and uses one
contiguous row run of each source and destination, whatever the views'
strides, so its template's segments are those runs (up to 4 + 7) and an
empty temporaries one.  Its key is the coefficient rows (one row, in the
word-by-word pass) and the run length, so one template serves every pass
and level that shares them.  A decode that consumes a fused child's
product left in cache starts with that product resident, so its steps
stay flat moves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .pebble import (MV_C, MV_E, MV_R, MV_REC, MV_W, OP_ADD, OP_CPY, OP_MUL,
                     OP_NEG, OP_SUB, MachineConfig, MemoryLayout, Moves, Schedule,
                     Template)
from .plans import FastScheme, RecursionPlan, StandardLeaf, StandardVariant

@dataclass(frozen=True)
class View:
    """Rectangular window into the slow address space (row-major)."""

    base: int
    stride: int
    rows: int
    cols: int

    def addr(self, r: int, c: int) -> int:
        return self.base + r * self.stride + c

    def block(self, r: int, c: int, side: int) -> "View":
        """The side x side block at block row r, block column c."""
        return View(self.base + (r * self.stride + c) * side, self.stride, side, side)

    def quadrants(self) -> list:
        """The four quadrant views, in row-major order."""
        h = self.rows // 2
        return [self.block(qi, qj, h) for qi in (0, 1) for qj in (0, 1)]

    def runs(self):
        """(start, length) of each contiguous run, in order: the whole view
        when its rows abut or it has one row, else one run per row."""
        if self.stride == self.cols or self.rows == 1:
            return ((self.base, self.rows * self.cols),)
        return [(self.base + r * self.stride, self.cols) for r in range(self.rows)]


class _Budget(Exception):
    """Internal: emission would exceed the cache budget."""


class _Emitter:
    __slots__ = ("moves", "M", "B", "resident", "temp_ptr", "order_memo", "templates",
                 "attempts")

    def __init__(self, cfg: MachineConfig, temp_base: int):
        self.moves = []
        self.M = cfg.M
        self.B = cfg.B
        self.resident = set()
        self.temp_ptr = temp_base
        self.order_memo = {}
        self.templates = {}
        self.attempts = 0  # how many ``attempt`` calls are open

    def attempt(self, fn, *args) -> bool:
        """Run ``fn(*args)``.  If it would exceed the budget, undo its moves,
        temporary allocations and residency, and return False."""
        n_moves, temp_ptr, resident = len(self.moves), self.temp_ptr, set(self.resident)
        self.attempts += 1
        try:
            fn(*args)
        except _Budget:
            del self.moves[n_moves:]
            self.temp_ptr = temp_ptr
            self.resident = resident
            return False
        finally:
            self.attempts -= 1
        return True

    def alloc(self, words: int) -> int:
        p = self.temp_ptr
        self.temp_ptr += words
        return p

    def alloc_view(self, rows: int, cols: int) -> View:
        return View(self.alloc(rows * cols), cols, rows, cols)

    def _grow(self, addr: int):
        res = self.resident
        if addr not in res:
            if len(res) >= self.M:
                raise _Budget()
            res.add(addr)

    # the run loops step from ``start`` itself, not a range, so a one-word
    # run shares its int with the caller's computes (28 bytes a move at M=3)
    def read_run(self, start: int, length: int):
        b = self.B
        a = start
        end = start + length
        moves = self.moves
        while a < end:
            moves.append((MV_R, a, min(b, end - a)))
            a += b
        for x in range(start, end):
            self._grow(x)

    def write_run(self, start: int, length: int):
        b = self.B
        a = start
        end = start + length
        moves = self.moves
        while a < end:
            moves.append((MV_W, a, min(b, end - a)))
            a += b

    def compute(self, out: int, op: int, x: int, y: int = -1):
        self.moves.append((MV_C, out, op, x, y))
        self._grow(out)

    def evict(self, addr: int):
        self.moves.append((MV_E, addr))
        self.resident.remove(addr)

    def evict_run(self, start: int, length: int):
        a = start
        end = start + length
        moves = self.moves
        res = self.resident
        while a < end:
            moves.append((MV_E, a))
            res.remove(a)
            a += 1

    def flush(self, start: int, length: int):
        """Write a resident run back to slow memory, then evict it."""
        self.write_run(start, length)
        self.evict_run(start, length)

    def read_view(self, v: View):
        for run in v.runs():
            self.read_run(*run)

    def write_view(self, v: View):
        for run in v.runs():
            self.write_run(*run)

    def evict_view(self, v: View):
        for run in v.runs():
            self.evict_run(*run)

    def flush_view(self, v: View):
        for run in v.runs():
            self.flush(*run)


# ---------------------------------------------------------------------------
# blocked standard multiplication
# ---------------------------------------------------------------------------

def _tile_side(m: int, n: int) -> int:
    t = 1
    while 2 * t <= n and 3 * (2 * t) * (2 * t) <= m:
        t *= 2
    return t


def _blocked(em: _Emitter, av: View, bv: View, cv: View):
    n = av.rows
    t = _tile_side(em.M, n)
    if t == n and em.M >= 3 * n * n + 1 and n > 1:
        _blocked_full_resident(em, av, bv, cv)
        return
    # a product goes into the one scratch word until its A word is spent, at
    # the tile's last column, and over that A word there; at t = 1 every
    # product does, and no scratch word is allocated
    scratch = em.alloc(1) if t > 1 else None
    last = t - 1
    steps = range(0, n, t)
    side = range(t)
    # each row of A, B and C as the list of its addresses, so the moves that
    # name a word share one int; a B tile's runs start at rows b_starts
    # (one run when B's rows abut, as in View.runs)
    a_rows, b_rows, c_rows = ([list(range(v.addr(r, 0), v.addr(r, n))) for r in range(n)]
                              for v in (av, bv, cv))
    b_starts, b_len = ((0,), t * t) if bv.stride == t else (side, t)
    read_run, evict_run, compute = em.read_run, em.evict_run, em.compute
    for i in steps:
        for j in steps:
            for k in steps:
                for r in side:
                    a_row = a_rows[i + r]
                    read_run(a_row[k], t)
                    if not r:
                        for z in b_starts:
                            read_run(b_rows[k + z][j], b_len)
                    c_row = c_rows[i + r]
                    for c in side:
                        c_addr = c_row[j + c]
                        spent = c == last
                        for z in side:
                            a_addr = a_row[k + z]
                            b_addr = b_rows[k + z][j + c]
                            if k or z:
                                p = a_addr if spent else scratch
                                compute(p, OP_MUL, a_addr, b_addr)
                                compute(c_addr, OP_ADD, c_addr, p)
                            else:
                                compute(c_addr, OP_MUL, a_addr, b_addr)
                    evict_run(a_row[k], t)
                for z in b_starts:
                    evict_run(b_rows[k + z][j], b_len)
            for r in side:
                em.flush(c_rows[i + r][j], t)
            if scratch is not None:
                em.evict(scratch)


def _blocked_full_resident(em: _Emitter, av: View, bv: View, cv: View):
    # whole problem plus a scratch word fits: one read pass, one write pass
    em.read_view(av)
    em.read_view(bv)
    _incache_leaf(em, av, bv, cv, write_out=False, own_a=False, own_b=False)
    em.write_view(cv)
    em.evict_view(av)
    em.evict_view(bv)
    em.evict_view(cv)


def gen_standard_blocked_schedule(n: int, cfg: MachineConfig) -> Schedule:
    """Tiled standard multiplication of the full problem, C = A * B."""
    return _generate(StandardLeaf(StandardVariant.ITERATIVE_DEF, n), cfg, "blocked")


# ---------------------------------------------------------------------------
# in-cache subtree execution
# ---------------------------------------------------------------------------

# (coefficient, first term of the word) -> opcode: the first term starts the
# word as a copy or a negation, every later term adds onto it or subtracts
_TERM_OP = {(1, True): OP_CPY, (-1, True): OP_NEG, (1, False): OP_ADD, (-1, False): OP_SUB}


def _emit_combo_word(em, dst, srcs):
    """dst <- sum of (sign, addr) terms, all resident; one word."""
    (s0, a0), rest = srcs[0], srcs[1:]
    if dst != a0:
        em.compute(dst, _TERM_OP[s0, True], a0)
    elif s0 == -1:
        # in place over a -1 first source: a +1 second term leads
        if rest and rest[0][0] == 1:
            (_, a1), rest = rest[0], rest[1:]
            em.compute(dst, _TERM_OP[s0, False], a1, a0)
        else:
            em.compute(dst, _TERM_OP[s0, True], a0)
    # (in place over a +1 first source, the other terms add onto it)
    for s, a in rest:
        em.compute(dst, _TERM_OP[s, False], dst, a)


def _incache_leaf(em, a: View, b: View, out: View, write_out, own_a, own_b):
    """Triple loop over resident operands.  Owned A rows are evicted after
    their last use, B after the loop; with ``write_out`` each output row is
    written and evicted as soon as it completes."""
    s = a.rows
    if s == 1:
        em.compute(out.base, OP_MUL, a.base, b.base)
        if own_a:
            em.evict(a.base)
        if own_b:
            em.evict(b.base)
        if write_out:
            em.write_run(out.base, 1)
            em.evict(out.base)
        return
    scratch = em.alloc(1)
    for i in range(s):
        for j in range(s):
            o = out.addr(i, j)
            em.compute(o, OP_MUL, a.addr(i, 0), b.addr(0, j))
            for k in range(1, s):
                em.compute(scratch, OP_MUL, a.addr(i, k), b.addr(k, j))
                em.compute(o, OP_ADD, o, scratch)
        if own_a:
            em.evict_run(a.addr(i, 0), s)
        if write_out:
            em.flush(out.addr(i, 0), s)
    em.evict(scratch)
    if own_b:
        em.evict_view(b)


def _single_plus_quad(coeffs):
    terms = [(q, c) for q, c in enumerate(coeffs) if c]
    if len(terms) == 1 and terms[0][1] == 1:
        return terms[0][0]
    return None


def _build_operand(em, coeffs, views, dying):
    """Build one child operand block from resident source blocks.

    Returns (block, owned).  A single +1 term aliases its source, which the
    block owns only if the source is in ``dying`` (not needed after this
    block).  Otherwise the combination is built in place over the first
    dying source, or into a fresh block when none dies, and the other dying
    sources are evicted.
    """
    q = _single_plus_quad(coeffs)
    if q is not None:
        return views[q], q in dying
    terms = [(q, c) for q, c in enumerate(coeffs) if c]
    dst_q = None
    for q, _ in terms:
        if q in dying:
            dst_q = q
            break
    if dst_q is None:
        h = views[terms[0][0]].rows
        dv = em.alloc_view(h, h)
    else:
        dv = views[dst_q]
        terms = [t for t in terms if t[0] == dst_q] + [t for t in terms if t[0] != dst_q]
    for r in range(dv.rows):
        for w in range(dv.cols):
            _emit_combo_word(em, dv.addr(r, w), [(c, views[q].addr(r, w)) for q, c in terms])
    for q, _ in terms:
        if q in dying and q != dst_q:
            em.evict_view(views[q])
    return dv, True


# fixed child orders tried before the search, by scheme id; the first
# Strassen order keeps peak residency near 3*s^2
_NATURAL_ORDERS = (tuple(range(7)), tuple(reversed(range(7))))
_INCACHE_ORDERS = {"strassen": ((6, 4, 3, 1, 5, 0, 2),) + _NATURAL_ORDERS}
_ALL_CHILDREN = (1 << 7) - 1

@lru_cache(maxsize=None)
def _user_masks(scheme: FastScheme):
    """Per quadrant, the bitmask of children whose A operand reads it, whose
    B operand reads it, and whose product the output quadrant sums; cached."""
    def users(rows):  # one row of 4 coefficients per child
        return tuple(sum(1 << i for i, row in enumerate(rows) if row[q]) for q in range(4))

    return (users(scheme.encode_a), users(scheme.encode_b), users(tuple(zip(*scheme.decode))))


def _incache_child(em, ctx, done, idx, write_out):
    """Run child ``idx`` of an in-cache fast node after the children in the
    bitmask ``done``: build its operands, evaluate it, and add its product
    into the output quadrants.  Which quadrants die, which operands are
    built in place, which output words start or finish, and so the
    residency, depend on ``done`` as a set only, never on its order."""
    node, sides, out_q, dec_users = ctx
    after = done | 1 << idx
    operands = []
    for rows, users, quads, own in sides:
        coeffs = rows[idx]
        # an owned quadrant dies with the operand that uses it last
        dying = [q for q, c in enumerate(coeffs) if c and own and not users[q] & ~after]
        operands.append(_build_operand(em, coeffs, quads, dying))
    (xa, own_xa), (xb, own_xb) = operands
    h = node.size // 2
    m_view = em.alloc_view(h, h)
    _incache_node(em, node.children[idx], xa, xb, m_view,
                  write_out=False, own_a=own_xa, own_b=own_xb)
    for q, oqv in enumerate(out_q):
        coeff = node.scheme.decode[q][idx]
        if coeff == 0:
            continue
        first = not dec_users[q] & done
        op = _TERM_OP[coeff, first]
        for r in range(h):
            for w in range(h):
                o = oqv.addr(r, w)
                if first:
                    em.compute(o, op, m_view.addr(r, w))
                else:
                    em.compute(o, op, o, m_view.addr(r, w))
        if write_out and not dec_users[q] & ~after:
            em.flush_view(oqv)
    em.evict_view(m_view)


def _incache_ordered(em, ctx, order, write_out):
    done = 0
    for idx in order:
        _incache_child(em, ctx, done, idx, write_out)
        done |= 1 << idx


def _incache_search(em, ctx, done, dead, order, write_out):
    """Run the children not in ``done`` in the lexicographically first order
    that fits, writing it into ``order`` from position ``|done|`` on.

    Depth first over the next child.  A done-set from which no order fits
    goes into ``dead`` and is never entered again, so one search takes at
    most 7 * 2**6 child steps.  Raises ``_Budget`` when nothing fits.
    """
    if done == _ALL_CHILDREN:
        return
    pos = done.bit_count()
    for idx in range(7):
        after = done | 1 << idx
        if after != done and after not in dead:
            order[pos] = idx
            if em.attempt(_incache_search_step, em, ctx, done, idx, dead, order, write_out):
                return
    dead.add(done)
    raise _Budget()


def _incache_search_step(em, ctx, done, idx, dead, order, write_out):
    _incache_child(em, ctx, done, idx, write_out)
    _incache_search(em, ctx, done | 1 << idx, dead, order, write_out)


def _incache_node(em, node, a, b, out, write_out, own_a, own_b):
    """Evaluate the subtree entirely in cache.

    Operand words are resident on entry; owned operands are evicted at
    their last use.  The output lands at ``out``'s addresses and is written
    to slow memory (and evicted) when ``write_out`` is set, quadrant by
    quadrant as they complete.

    Child processing order drives the residency peak.  The memoized order
    and the scheme's fixed orders are tried first; when none fits,
    ``_incache_search`` finds the lexicographically first order that does.
    The outcome is memoized per (subtree, context) for the duration of one
    generation.
    """
    if isinstance(node, StandardLeaf):
        _incache_leaf(em, a, b, out, write_out, own_a, own_b)
        return
    key = (id(node), write_out, own_a, own_b, len(em.resident))
    memo = em.order_memo.get(key)
    if memo == "infeasible":
        raise _Budget()
    a_users, b_users, dec_users = _user_masks(node.scheme)
    ctx = (node,
           ((node.scheme.encode_a, a_users, a.quadrants(), own_a),
            (node.scheme.encode_b, b_users, b.quadrants(), own_b)),
           out.quadrants(), dec_users)
    orders = _INCACHE_ORDERS.get(node.scheme.id, _NATURAL_ORDERS)
    for order in ((memo,) if memo else ()) + orders:
        if em.attempt(_incache_ordered, em, ctx, order, write_out):
            em.order_memo[key] = order
            return
    order = [None] * 7
    if em.attempt(_incache_search, em, ctx, 0, set(), order, write_out):
        em.order_memo[key] = tuple(order)
        return
    em.order_memo[key] = "infeasible"
    raise _Budget()


# ---------------------------------------------------------------------------
# streaming fast nodes
# ---------------------------------------------------------------------------

def _kept_quad(rows, x, y):
    """The quadrant of child ``x``'s operand (encode ``rows``) that stays
    resident for child ``y``: the operand's single +1 term, if ``y`` reads
    that quadrant too; else None."""
    q = _single_plus_quad(rows[x])
    return q if q is not None and rows[y][q] else None


@lru_cache(maxsize=None)
def _fused_order(scheme: FastScheme):
    """Child order maximizing single-quadrant operand reuse between
    consecutive fused children; exhaustive over the 5040 orders, cached.
    Ties go to the lexicographically largest order."""
    # kept[x][y]: operands child x can leave resident for child y
    kept = [[sum(_kept_quad(rows, x, y) is not None
                 for rows in (scheme.encode_a, scheme.encode_b)) for y in range(7)]
            for x in range(7)]

    def score(order):
        return sum(kept[x][y] for x, y in zip(order, order[1:]))

    return max(itertools.permutations(range(7)), key=lambda o: (score(o), o))


def _fused_child(em, scheme, idx, child, aq, bq, m_view, held, next_idx, write_out=True):
    """Run one child of a streaming fast node entirely in cache, building
    its operands straight from the parent's quadrant arrays.

    ``held`` maps (side, quad) to a pristine quadrant block the previous
    child left resident; those entries are consumed, every other term is
    read.  Operands are built over their sources, whose slow copies stay
    intact.
    """
    operands = []
    for side, coeffs, quads in (("A", scheme.encode_a[idx], aq), ("B", scheme.encode_b[idx], bq)):
        terms = [q for q, c in enumerate(coeffs) if c]
        for q in terms:
            if held.pop((side, q), None) is None:
                em.read_view(quads[q])
        operands.append(_build_operand(em, coeffs, quads, terms)[0])
    xa, xb = operands
    keep = []
    if next_idx is not None:
        for side, rows, x in (("A", scheme.encode_a, xa), ("B", scheme.encode_b, xb)):
            q = _kept_quad(rows, idx, next_idx)
            if q is not None:
                keep.append((side, q, x))
    own_a = not any(k[2] is xa for k in keep)
    own_b = not any(k[2] is xb for k in keep)
    _incache_node(em, child, xa, xb, m_view, write_out=write_out, own_a=own_a, own_b=own_b)
    for side, q, view in keep:
        held[(side, q)] = view


def _stream_combine(em, rows, srcs, dsts, resident=frozenset()):
    """``dsts[k] <- sum_j rows[k][j] * srcs[j]`` over equal square blocks,
    written to slow memory in one synchronized pass over the sources.

    Sources in ``resident`` are already in cache at their view's addresses
    and are consumed without a read.  When a segment of every streamed
    source plus one destination segment fits beside them, rows are streamed
    in segments; otherwise (a tiny cache, which callers only reach with
    nothing resident) each destination word is built by itself, one
    destination after another.  Each step, a row segment or one
    destination's row, is one record when no source is resident: it then
    starts and ends with an empty cache.
    """
    h = dsts[0].rows
    used = sorted({j for row in rows for j, c in enumerate(row) if c})
    streamed = [j for j in used if j not in resident]
    resident_words = len(resident) * h * h
    terms = [[(c, j) for j, c in enumerate(row) if c] for row in rows]
    if em.M >= resident_words + len(streamed) + 2:
        seg_cap = (em.M - 1 - resident_words) // (len(streamed) + 1)
        key = tuple(map(tuple, rows))
        for r in range(h):
            for s0 in range(0, h, seg_cap):
                seg = min(seg_cap, h - s0)
                src_at = {j: srcs[j].addr(r, s0) for j in used}
                dst_at = [dst.addr(r, s0) for dst in dsts]
                if resident:
                    _combine_segment(em, terms, src_at, dst_at, seg, resident)
                else:
                    _record(em, (key, seg), [(a, a + seg) for a in (*src_at.values(), *dst_at)],
                            _combine_segment, terms, src_at, dst_at, seg, resident)
    else:
        for dst, row, dst_terms in zip(dsts, rows, terms):
            # one row, where the segmented steps' keys hold a tuple of rows
            key = (tuple(row), h)
            for r in range(h):
                ops = [(k == 0, _TERM_OP[c, k == 0], srcs[j].addr(r, 0))
                       for k, (c, j) in enumerate(dst_terms)]
                d = dst.addr(r, 0)
                _record(em, key, [(a, a + h) for a in (*(s for _, _, s in ops), d)],
                        _combine_row, ops, d, h)


def _combine_segment(em, terms, src_at, dst_at, seg, resident):
    """One segmented step of ``_stream_combine``: read the run of ``seg``
    words at ``src_at[j]`` of each source not in ``resident``, build each
    destination's run at its ``dst_at`` and flush it, then evict the
    sources' runs."""
    for j, a in src_at.items():
        if j not in resident:
            em.read_run(a, seg)
    for d, dst_terms in zip(dst_at, terms):
        for w in range(seg):
            _emit_combo_word(em, d + w, [(c, src_at[j] + w) for c, j in dst_terms])
        em.flush(d, seg)
    for a in src_at.values():
        em.evict_run(a, seg)


def _combine_row(em, ops, d, h):
    """One word-by-word step of ``_stream_combine``: the ``h`` words of one
    destination row at ``d``, each built from its ``(first, op, start)``
    source terms one read at a time, then written back and evicted."""
    for w in range(h):
        dw = d + w
        for first, op, s in ops:
            sw = s + w
            em.read_run(sw, 1)
            if first:
                em.compute(dw, op, sw)
            else:
                em.compute(dw, op, dw, sw)
            em.evict(sw)
        em.write_run(dw, 1)
        em.evict(dw)


def _stream_fast(em, node, av, bv, cv):
    h = node.size // 2
    scheme = node.scheme
    aq = av.quadrants()
    bq = bv.quadrants()
    m_views = [em.alloc_view(h, h) for _ in range(7)]
    order = _fused_order(scheme)
    held = {}
    to_materialize = []
    resident_m = set()
    for pos, idx in enumerate(order):
        # (next child for operand keeping, write output to slow).  The last
        # fused child may leave its output in cache for the decode pass.
        if pos < 6:
            attempts = ((order[pos + 1], True), (None, True))
        elif not to_materialize and em.M >= h * h + 9:
            attempts = ((None, False), (None, True))
        else:
            attempts = ((None, True),)
        for next_idx, write_out in attempts:
            # an attempt consumes held operands from a copy, kept on success
            trial = dict(held)
            if em.attempt(_fused_child, em, scheme, idx, node.children[idx], aq, bq,
                          m_views[idx], trial, next_idx, write_out):
                held = trial
                if not write_out:
                    resident_m.add(idx)
                break
        else:
            to_materialize.append(idx)
    for view in held.values():
        em.evict_view(view)
    if to_materialize:
        xa_views = _stream_operands(em, scheme.encode_a, aq, to_materialize)
        xb_views = _stream_operands(em, scheme.encode_b, bq, to_materialize)
        for idx, xa, xb in zip(to_materialize, xa_views, xb_views):
            _gen_node(em, node.children[idx], xa, xb, m_views[idx])
    _stream_combine(em, scheme.decode, m_views, cv.quadrants(), resident_m)


def _stream_operands(em, rows, quads, children):
    """The operand view of each of ``children`` (encode ``rows``): a single
    +1 term is the parent's quadrant view itself, read in place by the child
    (strided), and every other row is built in a fresh block by one
    ``_stream_combine`` pass."""
    h = quads[0].rows
    views, built_rows, built = [], [], []
    for i in children:
        q = _single_plus_quad(rows[i])
        if q is None:
            built_rows.append(rows[i])
            built.append(em.alloc_view(h, h))
            views.append(built[-1])
        else:
            views.append(quads[q])
    if built:
        _stream_combine(em, built_rows, quads, built)
    return views


def _read_incache(em, node, av, bv, cv):
    """One read pass of both operands, then the whole subtree in cache."""
    em.read_view(av)
    em.read_view(bv)
    _incache_node(em, node, av, bv, cv, write_out=True, own_a=True, own_b=True)


def _record(em, key, spans, gen, *args):
    """Append one record of the template that ``key`` names, generated
    first by ``gen(em, *args)`` if this generation has none yet.

    ``spans`` are the ``(lo, hi)`` of the disjoint runs of slow memory that
    the moves use, and the temporaries ``gen`` allocates are one more
    segment, the last.  It is private to the record: the allocator never
    hands those words out again and no caller is given them, so no move
    outside the record touches them, which ``pebble._sealed`` checks before
    the walkers' summaries leave them out.  The cache is empty and no
    ``attempt`` is open at entry and exit, so the moves depend only on
    ``key`` and the segments' places, and a replay needs no budget check
    and is never rolled back.
    """
    assert not em.resident and not em.attempts
    temp_lo = em.temp_ptr
    template = em.templates.get(key)
    if template is None:
        start = len(em.moves)
        gen(em, *args)
        assert not em.resident
        template = em.templates[key] = Template(em.moves[start:],
                                                (*spans, (temp_lo, em.temp_ptr)))
        del em.moves[start:]
    else:
        lo, hi = template.segments[-1]
        em.temp_ptr += hi - lo
    em.moves.append((MV_REC, template, (*(lo for lo, _ in spans), temp_lo)))


def _gen_node(em, node, av, bv, cv):
    # every view is an input, the output or a temporary allocated before the
    # call, so their spans are disjoint
    _record(em, (id(node), av.stride, bv.stride, cv.stride),
            [(v.base, v.base + (v.rows - 1) * v.stride + v.cols) for v in (av, bv, cv)],
            _node_moves, node, av, bv, cv)


def _node_moves(em, node, av, bv, cv):
    if isinstance(node, StandardLeaf):
        _blocked(em, av, bv, cv)
    elif not em.attempt(_read_incache, em, node, av, bv, cv):
        _stream_fast(em, node, av, bv, cv)


def _generate(plan: RecursionPlan, cfg: MachineConfig, kind: str) -> Schedule:
    n = plan.size
    layout = MemoryLayout(n)
    em = _Emitter(cfg, layout.temp_base)
    _gen_node(em, plan, *(View(base, n, n, n) for base in
                          (layout.a_base, layout.b_base, layout.c_base)))
    return Schedule(Moves(em.moves), layout, label=f"{kind}(n={n},M={cfg.M},B={cfg.B})")


def gen_hybrid_schedule(plan: RecursionPlan, cfg: MachineConfig) -> Schedule:
    """Depth-first I/O-efficient schedule executing the given plan."""
    return _generate(plan, cfg, "hybrid")
