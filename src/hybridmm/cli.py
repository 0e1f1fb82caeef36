"""Command-line front end: verification suites, bound evaluation, schedule
simulation, and parameter sweeps with CSV output.

Subcommands
-----------
verify
    Run the encoder checks (distinct output neighborhoods, subset
    connectivity) and 2x2 correctness of every registered scheme, and the
    sampled dominator-bound checks on small built-in plans.
    ``--scheme-file`` points at a JSON scheme to check instead of the
    registered ones; ``--max-vertices 0`` skips the dominator suites.  A
    plan with no MSP at a cache size leaves its dominator check nothing to
    sample, and its line says ``NO MSP`` instead of ``PASS``.  ``--json``
    writes the detail to a file, opened before any check runs.  Exits 1 on
    any failure, 2 on a malformed scheme file, an unwritable ``--json``
    path or a negative ``--max-vertices``.

bounds --plan FILE --M M --B B [--P P [--Bm BM]] [--msp-threshold T]
    Evaluate the sequential (and optionally parallel) lower bound for the
    plan at its own size; prints a JSON report.  ``--Bm`` without ``--P``
    is refused (exit 2).

simulate --plan FILE --M M --B B [--dump-schedule FILE]
    Generate the hybrid schedule for the plan, simulate it, and print its
    I/O statistics as JSON.  A plan whose schedule needs more than
    ``MAX_SIMULATE_MOVES`` moves is refused (exit 2) before generating.

sweep --config FILE [--out FILE]
    One CSV row per (plan, n, M, B) combining bound terms with measured
    I/O.  Config files are ``key=value`` lines with comma lists, e.g.::

        plan=uniform
        n=16,32
        n0=1,4
        M=12,48
        B=1

    ``plan`` is ``uniform``, ``random`` (uses ``p_fast``, in [0, 1], and
    the ``seed`` list), or ``file:PATH``, read once, whose plan's size
    must be one of the ``n``; ``commands`` lists ``bounds`` and
    ``simulate`` (the default) or one of them.  Every simulated schedule is
    also checked for parsimony, which adds no column.  Identical configs
    produce byte-identical CSV.  Exits 1 if any measured I/O falls below
    its bound or any schedule is not parsimonious, with a stderr line
    naming each such row.  Exits 2, before ``--out`` is opened, if
    ``simulate`` would exceed ``MAX_SIMULATE_MOVES`` on a plan or a
    ``file:`` plan matches no ``n``, and, before any plan is built, if an
    ``n`` or ``n0`` exceeds ``2**MAX_PLAN_DEPTH`` or a random plan's
    expected node count exceeds ``MAX_SWEEP_PLAN_NODES``; a refused sweep
    writes no file.

Exit codes: 0 success, 1 verification failure, measured I/O below its
bound or a schedule that is not parsimonious, 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from fractions import Fraction

from .bounds import sequential_bound, parallel_bound, uniform_closed_form
from .cdag import (EncoderGraph, build_cdag, min_dominator_size,
                   min_dominator_size_exhaustive, verify_dominator_type1,
                   verify_dominator_type2, verify_encoder_connectivity,
                   verify_encoder_distinct_neighborhoods)
from .engine import execute
from .pebble import MachineConfig, check_parsimonious, dump_lines, simulate
from .plans import (MAX_PLAN_DEPTH, SCHEMES, FastScheme, StandardLeaf, check_coefficients,
                    parse_plan, random_plan, uniform_plan)
from .ringmat import Matrix, is_pow2, mat_mul_naive
from .schedules import gen_hybrid_schedule


def _fmt_num(x) -> str:
    if isinstance(x, Fraction):
        return str(int(x)) if x.denominator == 1 else repr(float(x))
    if isinstance(x, float):
        return str(int(x)) if x.is_integer() else repr(x)
    return str(x)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _load_scheme_file(path):
    """(id, encode_a, encode_b, decode) from a JSON scheme file.  A file
    that is not an object holding the three coefficient matrices in their
    scheme shape raises ValueError, which exits 2."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: expected a JSON object")
    missing = [k for k in ("encode_a", "encode_b", "decode") if k not in raw]
    if missing:
        raise ValueError(f"{path}: missing {', '.join(missing)}")
    check_coefficients(raw["encode_a"], raw["encode_b"], raw["decode"])
    return str(raw.get("id", "custom")), raw["encode_a"], raw["encode_b"], raw["decode"]


def _check_encoders(rows_a, rows_b, label):
    results = []
    for side, rows in (("A", rows_a), ("B", rows_b)):
        enc = EncoderGraph.from_rows(rows)
        distinct = verify_encoder_distinct_neighborhoods(enc)
        conn = verify_encoder_connectivity(enc)
        results.append({
            "encoder": f"{label}.Enc_{side}",
            "distinct_neighborhoods": distinct,
            "connectivity_pass": conn.passed,
            "subsets_checked": conn.checked_subsets,
            "failures": [{"subset": list(s), "matching": m, "required": r}
                         for s, m, r in conn.failures],
        })
    return results


def _scheme_correct(scheme: FastScheme, trials: int = 100) -> bool:
    import numpy as np
    rng = np.random.default_rng(7)
    plan = uniform_plan(2, 1, scheme)
    for _ in range(trials):
        a = Matrix.random(2, rng)
        b = Matrix.random(2, rng)
        c, _ = execute(plan, a, b)
        if c != mat_mul_naive(a, b):
            return False
    return True


def cmd_verify(args) -> int:
    if args.max_vertices < 0:
        raise ValueError(f"--max-vertices must be at least 0, got {args.max_vertices}")
    # an unwritable report path fails before any check runs
    with (open(args.json, "w") if args.json else nullcontext()) as report:
        ok, detail = _run_verify(args)
        if report:
            json.dump(detail, report, indent=2, sort_keys=True)
    print("verify:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _run_verify(args):
    """Run and print every check; returns (all passed, JSON detail)."""
    detail = {"encoders": [], "schemes": [], "dominator": []}
    ok = True

    if args.scheme_file:
        schemes = [_load_scheme_file(args.scheme_file)]
    else:
        schemes = [(s.id, s.encode_a, s.encode_b, s.decode) for s in SCHEMES.values()]
    for label, rows_a, rows_b, rows_d in schemes:
        enc_results = _check_encoders(rows_a, rows_b, label)
        detail["encoders"].extend(enc_results)
        # distinct neighborhoods rule out the duplicate rows FastScheme rejects
        correct = None
        if all(r["distinct_neighborhoods"] and r["connectivity_pass"] for r in enc_results):
            scheme = FastScheme(label, *(tuple(map(tuple, m)) for m in (rows_a, rows_b, rows_d)))
            correct = _scheme_correct(scheme)
        detail["schemes"].append({"id": label, "correct": correct})
        if correct is False:
            ok = False

    for r in detail["encoders"]:
        status = "PASS" if r["distinct_neighborhoods"] and r["connectivity_pass"] else "FAIL"
        if status == "FAIL":
            ok = False
        print(f"encoder {r['encoder']}: {status} "
              f"({r['subsets_checked']} subset checks)")
        for f in r["failures"]:
            print(f"  failing subset {f['subset']}: matching {f['matching']} < {f['required']}")
    for s in detail["schemes"]:
        if s["correct"] is not None:
            print(f"scheme {s['id']} 2x2 correctness: {'PASS' if s['correct'] else 'FAIL'}")

    if args.max_vertices == 0:
        print("dominator checks: SKIPPED (--max-vertices 0)")
        detail["dominator"].append({"status": "SKIPPED"})
    else:
        plans = [("fast(2)", uniform_plan(2, 1)),
                 ("fast(4)", uniform_plan(4, 1)),
                 ("hybrid(4,2)", uniform_plan(4, 2)),
                 ("standard(4)", uniform_plan(4, 4))]
        for name, plan in plans:
            graph = build_cdag(plan)
            if graph.num_vertices > args.max_vertices:
                print(f"dominator {name}: SKIPPED ({graph.num_vertices} vertices)")
                detail["dominator"].append({"plan": name, "status": "SKIPPED"})
                continue
            for m in (1, 4):
                r2 = verify_dominator_type2(graph, m, max_samples=24)
                r1 = verify_dominator_type1(graph, m, max_samples=16)
                passed = r2.passed and r1.passed
                ok = ok and passed
                checked = r2.checked + r1.checked
                entry = {"plan": name, "M": m, "type2_checked": r2.checked,
                         "type1_checked": r1.checked, "passed": passed,
                         "failures": r2.failures + r1.failures}
                status = "PASS" if passed else "FAIL"
                if not checked:  # the plan has no MSP at this M
                    status = "NO MSP"
                    entry["status"] = "NO_MSP"
                print(f"dominator {name} M={m}: {status} ({checked} subset checks)")
                detail["dominator"].append(entry)
        # flow vs exhaustive oracle agreement on the smallest graph
        g2 = build_cdag(uniform_plan(2, 1))
        outs, ins = g2.global_outputs(), g2.global_inputs()
        flow = min_dominator_size(g2, outs, ins)
        brute = min_dominator_size_exhaustive(g2, outs, ins)
        agree = flow == brute
        ok = ok and agree
        print(f"dominator oracle agreement (n=2): {'PASS' if agree else 'FAIL'} "
              f"(flow={flow}, exhaustive={brute})")
        detail["dominator"].append({"oracle_flow": flow, "oracle_exhaustive": brute})
    return ok, detail


# ---------------------------------------------------------------------------
# bounds / simulate
# ---------------------------------------------------------------------------

def _load_plan(path):
    with open(path) as fh:
        return parse_plan(fh.read().strip())


def cmd_bounds(args) -> int:
    if args.Bm is not None and args.P is None:
        raise ValueError("--Bm is the parallel bound's block size and needs --P")
    plan = _load_plan(args.plan)
    rep = sequential_bound(plan, plan.size, args.M, args.B, threshold=args.msp_threshold)
    out = rep.to_dict()
    if args.P is not None:
        bm = 1 if args.Bm is None else args.Bm
        par = parallel_bound(plan, plan.size, args.M, bm, args.P, threshold=args.msp_threshold)
        out["parallel_bound"] = float(par)
        out["P"] = args.P
        out["Bm"] = bm
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


# Generating, simulating and checking a schedule costs about 1.3 to 1.7
# bytes a move over a 31 MB start (n=64, n0=1, M=3: 4,542,261 moves, 37 MB
# peak RSS; n=128, n0=1, M=12: 19,744,108 moves, 63 MB; on a 2-core x86-64
# VM).  The schedule stores under 0.2 % of its moves, and the walks'
# summaries leave out each record's temporaries, so memory follows the
# stored entries and the words at records' boundaries, not the moves:
# n=128, n0=1, M=3, which passes this guard with 32,303,731 moves, peaks at
# 63 MB too.
MAX_SIMULATE_MOVES = 30_000_000


def _min_moves(plan, memo) -> int:
    """A lower bound on the moves of a schedule for ``plan``: one compute for
    each elementary product and each two-term addition, in the standard
    leaves and in the encodes and decodes of the fast nodes.  Shared
    subtrees are walked once and counted at every use."""
    key = id(plan)
    if key not in memo:
        s = plan.size
        if isinstance(plan, StandardLeaf):
            memo[key] = 2 * s ** 3 - s * s
        else:
            sc = plan.scheme
            adds = sum(max(sum(map(abs, row)) - 1, 0)
                       for rows in (sc.encode_a, sc.encode_b, sc.decode) for row in rows)
            memo[key] = adds * (s // 2) ** 2 + sum(_min_moves(c, memo) for c in plan.children)
    return memo[key]


def _check_simulate_size(plan):
    moves = _min_moves(plan, {})
    if moves > MAX_SIMULATE_MOVES:
        raise ValueError(f"the schedule of a size-{plan.size} plan needs at least "
                         f"{moves} moves, above the {MAX_SIMULATE_MOVES} that "
                         f"simulate accepts")


def cmd_simulate(args) -> int:
    plan = _load_plan(args.plan)
    _check_simulate_size(plan)
    cfg = MachineConfig(args.M, args.B)
    # an unwritable dump path fails before any schedule work
    with (open(args.dump_schedule, "w") if args.dump_schedule else nullcontext()) as dump:
        sched = gen_hybrid_schedule(plan, cfg)
        stats = simulate(sched, cfg)
        pars = check_parsimonious(sched)
        if dump:
            dump.writelines(dump_lines(sched))
    out = {
        "label": sched.label,
        "moves": len(sched.moves),
        "reads": stats.reads,
        "writes": stats.writes,
        "io_total": stats.io_total,
        "peak_cache": stats.peak_cache,
        "computes": stats.computes,
        "parsimonious": pars.ok,
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

class ConfigError(ValueError):
    pass


SWEEP_COMMANDS = ("bounds", "simulate")
# Largest expected node count of a ``plan=random`` tree, checked before any
# plan is built: building one took about 2.4 us a node (2.3 s for the 960,800
# nodes of n=128 at p_fast=1), and the count grows 7x per doubling of n.
MAX_SWEEP_PLAN_NODES = 1_000_000


def parse_sweep_config(text: str) -> dict:
    cfg = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in ("n", "n0", "M", "B", "seed"):
            try:
                cfg[key] = [int(v) for v in value.split(",")]
            except ValueError:
                raise ConfigError(f"line {lineno}: {key} wants integers, got {value!r}")
        elif key == "p_fast":
            try:
                cfg[key] = float(value)
            except ValueError:
                raise ConfigError(f"line {lineno}: p_fast wants a float, got {value!r}")
            if not 0 <= cfg[key] <= 1:
                raise ConfigError(f"line {lineno}: p_fast must lie in [0, 1], got {value!r}")
        elif key == "plan":
            if value not in ("uniform", "random") and not value.startswith("file:"):
                raise ConfigError(f"line {lineno}: unknown plan source {value!r}")
            cfg[key] = value
        elif key == "scheme":
            if value not in SCHEMES:
                raise ConfigError(f"line {lineno}: unknown scheme {value!r}")
            cfg[key] = value
        elif key == "commands":
            cfg[key] = [v.strip() for v in value.split(",")]
            for v in cfg[key]:
                if v not in SWEEP_COMMANDS:
                    raise ConfigError(f"line {lineno}: unknown command {v!r}")
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    cfg.setdefault("plan", "uniform")
    cfg.setdefault("n", [16])
    cfg.setdefault("n0", [1])
    cfg.setdefault("M", [12])
    cfg.setdefault("B", [1])
    cfg.setdefault("seed", [0])
    cfg.setdefault("p_fast", 0.5)
    cfg.setdefault("commands", list(SWEEP_COMMANDS))
    for key in ("n", "n0", "M", "B"):
        for v in cfg[key]:
            if key in ("n", "n0") and not (is_pow2(v) and v <= 2 ** MAX_PLAN_DEPTH):
                raise ConfigError(f"{key} values must be powers of two up to "
                                  f"2**{MAX_PLAN_DEPTH}, got {v}")
            if v < 1:
                raise ConfigError(f"{key} values must be positive, got {v}")
    if "simulate" in cfg["commands"]:
        for v in cfg["M"]:
            if v < 3:
                raise ConfigError(f"M={v} too small for simulation (need >= 3)")
    if cfg["plan"] == "random":
        for n in cfg["n"]:
            # a node of size s > 1 is fast with probability p_fast, so level k
            # of the tree holds (7 * p_fast)**k nodes in expectation
            nodes = sum((7 * cfg["p_fast"]) ** k for k in range(n.bit_length()))
            if nodes > MAX_SWEEP_PLAN_NODES:
                raise ConfigError(f"a random plan of size {n} at p_fast={cfg['p_fast']} has "
                                  f"{nodes:.3g} nodes in expectation, above the "
                                  f"{MAX_SWEEP_PLAN_NODES} a sweep builds")
    return cfg


SWEEP_COLUMNS = ["plan", "n", "n0", "seed", "p_fast", "M", "B", "nu1", "nu2",
                 "t_total", "term_input", "term_t", "term_nu2", "seq_bound",
                 "uniform_bound", "io_total", "ratio"]


def _sweep_plans(cfg) -> list:
    """(row fields, plan) per plan of the sweep, in row order.  Raises
    ConfigError if a ``file:`` plan's size is in no ``n``, and ValueError if
    ``simulate`` would exceed ``MAX_SIMULATE_MOVES`` on a plan."""
    scheme = SCHEMES[cfg.get("scheme", "strassen")]
    source = cfg["plan"]
    if source == "uniform":
        plans = [({"plan": "uniform", "n": n, "n0": n0, "seed": "", "p_fast": ""},
                  uniform_plan(n, n0, scheme))
                 for n in cfg["n"] for n0 in cfg["n0"] if n0 <= n]
    elif source == "random":
        plans = [({"plan": "random", "n": n, "n0": "", "seed": seed, "p_fast": cfg["p_fast"]},
                  random_plan(n, cfg["p_fast"], seed, scheme))
                 for n in cfg["n"] for seed in cfg["seed"]]
    else:
        plan = _load_plan(source[5:])
        if plan.size not in cfg["n"]:
            raise ConfigError(f"{source} holds a size-{plan.size} plan, "
                              f"which is in no n={cfg['n']}")
        plans = [({"plan": source, "n": n, "n0": "", "seed": "", "p_fast": ""}, plan)
                 for n in cfg["n"] if n == plan.size]
    if "simulate" in cfg["commands"]:
        for _, plan in plans:
            _check_simulate_size(plan)
    return plans


def _row_name(row) -> str:
    return " ".join(f"{k}={row[k]}" for k in ("plan", "n", "n0", "seed", "p_fast", "M", "B")
                    if row[k] != "")


def run_sweep(cfg, plans, out_fh) -> bool:
    """Write the CSV rows of ``plans`` (from ``_sweep_plans``); returns
    False iff some measured I/O beat its bound or some schedule is not
    parsimonious, having named each such row on stderr."""
    ok = True
    out_fh.write(",".join(SWEEP_COLUMNS) + "\n")
    for meta, plan in plans:
        n = meta["n"]
        for m in cfg["M"]:
            for b in cfg["B"]:
                rep = sequential_bound(plan, n, m, b)
                row = dict(meta)
                row.update({
                    "M": m, "B": b, "nu1": rep.nu1, "nu2": rep.nu2,
                    "t_total": rep.t_total,
                    "term_input": _fmt_num(rep.term_input),
                    "term_t": _fmt_num(rep.term_t),
                    "term_nu2": _fmt_num(rep.term_nu2),
                    "seq_bound": _fmt_num(rep.sequential_bound),
                    "uniform_bound": "", "io_total": "", "ratio": "",
                })
                if meta["plan"] == "uniform":
                    row["uniform_bound"] = _fmt_num(
                        uniform_closed_form(n, meta["n0"], m, b))
                if "simulate" in cfg["commands"]:
                    mc = MachineConfig(m, b)
                    sched = gen_hybrid_schedule(plan, mc)
                    stats = simulate(sched, mc)
                    ratio = stats.io_total / float(rep.sequential_bound)
                    row["io_total"] = stats.io_total
                    row["ratio"] = _fmt_num(ratio)
                    if ratio < 1.0:
                        ok = False
                        print(f"sweep: {_row_name(row)}: measured I/O below bound "
                              f"(artifact bug)", file=sys.stderr)
                    violations = check_parsimonious(sched).violations
                    if violations:
                        ok = False
                        step, reason = violations[0]
                        print(f"sweep: {_row_name(row)}: {len(violations)} parsimony "
                              f"violation(s), the first at step {step}: {reason}",
                              file=sys.stderr)
                out_fh.write(",".join(str(row[c]) for c in SWEEP_COLUMNS) + "\n")
    return ok


def cmd_sweep(args) -> int:
    try:
        with open(args.config) as fh:
            cfg = parse_sweep_config(fh.read())
        plans = _sweep_plans(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    # a refused sweep writes no file: --out is opened once every plan passed
    with (open(args.out, "w", newline="") if args.out else nullcontext(sys.stdout)) as fh:
        ok = run_sweep(cfg, plans, fh)
    return 0 if ok else 1


# ---------------------------------------------------------------------------

def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hybridmm",
                                 description="hybrid matrix multiplication I/O lab")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run encoder and dominator verification suites")
    v.add_argument("--scheme-file", help="JSON file with encode_a/encode_b/decode")
    v.add_argument("--max-vertices", type=int, default=4096,
                   help="skip dominator checks on CDAGs above this size; 0 skips all")
    v.add_argument("--json", help="write detailed JSON report to this path")
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("bounds", help="evaluate I/O lower bounds for a plan")
    b.add_argument("--plan", required=True)
    b.add_argument("--M", type=int, required=True)
    b.add_argument("--B", type=int, default=1)
    b.add_argument("--P", type=int)
    b.add_argument("--Bm", type=int)
    b.add_argument("--msp-threshold", type=float, default=None,
                   help="override the 2*sqrt(M) MSP size threshold")
    b.set_defaults(func=cmd_bounds)

    s = sub.add_parser("simulate", help="generate and simulate a schedule for a plan")
    s.add_argument("--plan", required=True)
    s.add_argument("--M", type=int, required=True)
    s.add_argument("--B", type=int, default=1)
    s.add_argument("--dump-schedule")
    s.set_defaults(func=cmd_simulate)

    w = sub.add_parser("sweep", help="run a configured sweep, emitting CSV")
    w.add_argument("--config", required=True)
    w.add_argument("--out", help="CSV output path (default stdout)")
    w.set_defaults(func=cmd_sweep)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
