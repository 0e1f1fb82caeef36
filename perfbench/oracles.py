"""Correctness oracles of the benchmark.

Each oracle shares no code with the path it judges: products are checked by
Freivalds' test in Python ints, MSP counts by a direct tree walk and the
uniform-plan closed form, schedules by a move-by-move value replay against a
Python-int triple loop, and dominator sizes by brute force.  None of them
calls ``matmul_mod``, ``mat_mul_naive``, ``replay_values`` or
``enumerate_msps``.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from fractions import Fraction
from operator import mul

# Move and opcode encodings of hybridmm's in-memory schedules, as documented
# in the pebble module: (R, addr, k), (W, addr, k), (C, out, op, x, y), (E, addr).
MV_R, MV_W, MV_C, MV_E = 0, 1, 2, 3
OP_MUL, OP_ADD, OP_SUB, OP_CPY, OP_NEG = 0, 1, 2, 3, 4

BOUND_C = Fraction(38988157484, 10 ** 11)


def freivalds(a, b, c, modulus: int, rng) -> bool:
    """True iff c == a @ b mod p for every pair in the stack, up to error 1/p
    per pair; entries of c must also lie in [0, p).  Rows are converted to
    Python ints one at a time, so the check holds O(n) of them at once."""
    n = a.shape[-1]
    if c.shape != a.shape or int(c.min()) < 0 or int(c.max()) >= modulus:
        return False
    for ak, bk, ck in zip(a.reshape(-1, n, n), b.reshape(-1, n, n), c.reshape(-1, n, n)):
        r = [rng.randrange(modulus) for _ in range(n)]
        br = [sum(map(mul, row.tolist(), r)) % modulus for row in bk]
        abr = [sum(map(mul, row.tolist(), br)) % modulus for row in ak]
        cr = [sum(map(mul, row.tolist(), r)) % modulus for row in ck]
        if abr != cr:
            return False
    return True


def recount_msps(plan, m: int):
    """(nu1, nu2, |T|) by a direct walk of the plan tree for cache size m.

    Shared subtrees are counted once per occurrence; the walk memoizes on
    node identity, so uniform plans cost O(depth).
    """
    if plan.size * plan.size <= 4 * m:
        return (0, 0, 0)
    memo = {}

    def walk(node):
        key = id(node)
        if key not in memo:
            children = getattr(node, "children", None)
            if children is None:
                memo[key] = (1, 0, node.size ** 3) if node.size ** 2 >= 4 * m else (0, 0, 0)
            elif (node.size // 2) ** 2 < 4 * m:
                memo[key] = (0, 1, 0)
            else:
                parts = [walk(child) for child in children]
                memo[key] = tuple(sum(p[i] for p in parts) for i in range(3))
        return memo[key]

    return walk(plan)


def uniform_msp_closed_form(n: int, n0: int, m: int):
    """(nu1, nu2, |T|) of a uniform plan with cutoff n0, from powers of 7."""
    if n * n <= 4 * m:
        return (0, 0, 0)
    if n0 * n0 >= 4 * m:
        nu1 = 7 ** ((n // n0).bit_length() - 1)
        return (nu1, 0, nu1 * n0 ** 3)
    s = n
    while (s // 2) ** 2 >= 4 * m:
        s //= 2
    return (0, 7 ** ((n // s).bit_length() - 1), 0)


def bound_terms(n: int, m: int, b: int, nu2: int, t: int):
    """The three sequential-bound terms, each divided by B."""
    root = math.isqrt(m)
    if root * root == m:
        term_t = BOUND_C * t / root / b
    else:
        term_t = float(BOUND_C) * t / math.sqrt(m) / b
    return {"input": Fraction(2 * n * n, b), "t": term_t, "nu2": Fraction(nu2 * m, b)}


def regime(terms) -> str:
    """Name of the largest bound term; ties go to the earlier of input, t, nu2."""
    return max(terms, key=lambda k: (terms[k], -list(terms).index(k)))


def bound_report_ok(report, plan, n: int, m: int, b: int, n0: int) -> bool:
    """The report's counts equal the tree-walk recount and the closed form of
    a uniform plan with cutoff n0, and its bound is the largest term."""
    counts = recount_msps(plan, m)
    if (report.nu1, report.nu2, report.t_total) != counts:
        return False
    if uniform_msp_closed_form(n, n0, m) != counts:
        return False
    want = max(bound_terms(n, m, b, counts[1], counts[2]).values())
    got = report.sequential_bound
    return math.isclose(float(got), float(want), rel_tol=1e-12) and (
        not isinstance(want, Fraction) or got == want)


def tag_counts(moves):
    """(reads, writes, computes) counted straight from the move tags."""
    reads = writes = computes = 0
    for mv in moves:
        tag = mv[0]
        if tag == MV_R:
            reads += 1
        elif tag == MV_W:
            writes += 1
        elif tag == MV_C:
            computes += 1
    return reads, writes, computes


def triple_loop(a, b, modulus: int):
    """Definition product of two lists of rows, in Python ints."""
    n = len(a)
    cols = [[b[k][j] for k in range(n)] for j in range(n)]
    return [[sum(map(mul, a[i], cols[j])) % modulus for j in range(n)] for i in range(n)]


def replay_matches_product(moves, n: int, cache_words: int, a, b, modulus: int) -> bool:
    """Replay the schedule on ring values and compare its C block with the
    triple-loop product of a and b (lists of rows).

    Any move touching a value that is not where the move needs it, or a
    cache holding more than ``cache_words`` values, fails the replay.
    """
    slow = {}
    for i in range(n):
        for j in range(n):
            slow[i * n + j] = a[i][j]
            slow[n * n + i * n + j] = b[i][j]
    cache = {}
    for mv in moves:
        tag = mv[0]
        if tag == MV_C:
            out, op, x, y = mv[1], mv[2], mv[3], mv[4]
            if x not in cache or (y >= 0 and y not in cache):
                return False
            vx = cache[x]
            if op == OP_MUL:
                val = vx * cache[y] % modulus
            elif op == OP_ADD:
                val = (vx + cache[y]) % modulus
            elif op == OP_SUB:
                val = (vx - cache[y]) % modulus
            elif op == OP_CPY:
                val = vx
            elif op == OP_NEG:
                val = -vx % modulus
            else:
                return False
            cache[out] = val
        elif tag == MV_R:
            for addr in range(mv[1], mv[1] + mv[2]):
                if addr not in slow:
                    return False
                cache[addr] = slow[addr]
        elif tag == MV_W:
            for addr in range(mv[1], mv[1] + mv[2]):
                if addr not in cache:
                    return False
                slow[addr] = cache[addr]
        elif tag == MV_E:
            if cache.pop(mv[1], None) is None:
                return False
        else:
            return False
        if len(cache) > cache_words:
            return False
    c_base = 2 * n * n
    want = triple_loop(a, b, modulus)
    return all(slow.get(c_base + i * n + j) == want[i][j] for i in range(n) for j in range(n))


def min_dominator_bruteforce(num_vertices: int, edges, targets, sources) -> int:
    """Smallest vertex set meeting every source-to-target path, by trying
    subsets of the vertices that lie on such a path in order of size."""
    succ = [[] for _ in range(num_vertices)]
    pred = [[] for _ in range(num_vertices)]
    for u, v in edges:
        succ[u].append(v)
        pred[v].append(u)
    targets, sources = set(targets), set(sources)

    def reach(starts, adj, removed=frozenset()):
        seen = {s for s in starts if s not in removed}
        queue = deque(seen)
        while queue:
            for v in adj[queue.popleft()]:
                if v not in seen and v not in removed:
                    seen.add(v)
                    queue.append(v)
        return seen

    on_path = sorted(reach(sources, succ) & reach(targets, pred))
    for k in range(len(on_path) + 1):
        for cut in itertools.combinations(on_path, k):
            if not reach(sources, succ, frozenset(cut)) & targets:
                return k
    return len(on_path)
