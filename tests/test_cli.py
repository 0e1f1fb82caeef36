import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hybridmm import cdag, cli
from hybridmm.cdag import build_cdag
from hybridmm.cli import ConfigError, main, parse_sweep_config
from hybridmm.pebble import IoStats, MachineConfig, ParsimonyReport, dump_schedule, simulate
from hybridmm.plans import (MAX_PLAN_DEPTH, STRASSEN, WINOGRAD, random_plan, serialize_plan,
                            uniform_plan)
from hybridmm.schedules import gen_hybrid_schedule


@pytest.fixture
def plan_file(tmp_path):
    path = tmp_path / "plan16.txt"
    path.write_text(serialize_plan(uniform_plan(16, 8)) + "\n")
    return str(path)


def test_verify_default_passes(capsys):
    assert main(["verify", "--max-vertices", "600"]) == 0
    out = capsys.readouterr().out
    assert "127 subset checks" in out
    for scheme in ("strassen", "winograd"):
        for side in ("A", "B"):
            assert f"encoder {scheme}.Enc_{side}: PASS (127 subset checks)" in out
        assert f"scheme {scheme} 2x2 correctness: PASS" in out
    assert "verify: PASS" in out


def test_verify_marks_plans_without_msp(tmp_path, capsys):
    path = tmp_path / "verify.json"
    assert main(["verify", "--json", str(path)]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines()
             if ln.startswith("dominator ") and " M=" in ln]
    assert len(lines) == 8
    for ln in lines:
        if ": PASS (" in ln:
            assert int(ln.rsplit("(", 1)[1].split()[0]) > 0, ln
    # uniform_plan(4, 4) at M=4 is at the 2*sqrt(M) threshold: no MSP
    assert "dominator standard(4) M=4: NO MSP (0 subset checks)" in lines
    entries = [e for e in json.loads(path.read_text())["dominator"] if "M" in e]
    assert [(e["plan"], e["M"]) for e in entries if e.get("status") == "NO_MSP"] == [
        ("standard(4)", 4)]


def test_verify_unwritable_json_fails_first(tmp_path, capsys):
    rc = main(["verify", "--json", str(tmp_path / "missing" / "verify.json")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_entry_points():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "hybridmm", "verify", "--max-vertices", "0"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "verify: PASS" in proc.stdout


def test_console_script(capsys):
    # the ``hybridmm`` script that an install puts on PATH calls this target
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["hybridmm"]
    module, _, attr = target.partition(":")
    script = getattr(importlib.import_module(module), attr)
    assert script is main
    assert script(["verify", "--max-vertices", "0"]) == 0
    assert "verify: PASS" in capsys.readouterr().out


def test_verify_skips_dominator_checks(capsys):
    assert main(["verify", "--max-vertices", "0"]) == 0
    assert "SKIPPED" in capsys.readouterr().out


def test_verify_fails_on_a_small_dominator(monkeypatch, capsys):
    # with every dominator found empty, the Type 2 checks (fast(2)) and the
    # Type 1 checks (standard(4) at M=1) record failures, and verify fails
    monkeypatch.setattr(cdag, "min_dominator_size", lambda *args: 0)
    assert main(["verify", "--max-vertices", "600"]) == 1
    out = capsys.readouterr().out
    assert "dominator fast(2) M=1: FAIL" in out
    assert "dominator standard(4) M=1: FAIL" in out
    assert out.endswith("verify: FAIL\n")


def test_verify_negative_max_vertices_exits_2(capsys):
    assert main(["verify", "--max-vertices", "-5"]) == 2
    captured = capsys.readouterr()
    assert "--max-vertices must be at least 0" in captured.err
    assert "verify: PASS" not in captured.out


def test_verify_broken_scheme_fails(tmp_path, capsys):
    scheme = {
        "id": "broken",
        "encode_a": [[1, 0, 0, 0]] * 7,
        "encode_b": [[1, 0, 0, 0]] * 7,
        "decode": [[1, 0, 0, 0, 0, 0, 0]] * 4,
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(scheme))
    rc = main(["verify", "--scheme-file", str(path), "--max-vertices", "0"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def _strassen_file(tmp_path, coeff=lambda c: c, **changes):
    scheme = {k: [[coeff(c) for c in row] for row in getattr(STRASSEN, k)]
              for k in ("encode_a", "encode_b", "decode")}
    scheme.update(changes)
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(scheme))
    return str(path)


def test_verify_wrong_scheme_fails_correctness(tmp_path, capsys):
    # C11 = M1 + M4 - M5 - M7: well-formed, encoders unchanged, product wrong
    decode = [list(row) for row in STRASSEN.decode]
    decode[0][6] = -1
    rc = main(["verify", "--scheme-file", _strassen_file(tmp_path, decode=decode),
               "--max-vertices", "0"])
    assert rc == 1
    out = capsys.readouterr().out
    for side in ("A", "B"):
        assert f"encoder custom.Enc_{side}: PASS (127 subset checks)" in out
    assert "scheme custom 2x2 correctness: FAIL" in out
    assert "verify: FAIL" in out


@pytest.mark.parametrize("coeff", [lambda c: c == 1 if c >= 0 else c, float],
                         ids=["bool", "float"])
def test_verify_scheme_file_wants_integers(tmp_path, capsys, coeff):
    # JSON true/false and 1.0 compare equal to 1 and 0, but are not coefficients
    args = ["verify", "--max-vertices", "0", "--scheme-file"]
    assert main(args + [_strassen_file(tmp_path)]) == 0
    capsys.readouterr()
    assert main(args + [_strassen_file(tmp_path, coeff)]) == 2
    captured = capsys.readouterr()
    assert "coefficients must be integers" in captured.err
    assert captured.out == ""


def test_verify_max_vertices_skips_each_plan(capsys):
    assert main(["verify", "--max-vertices", "10"]) == 0
    out = capsys.readouterr().out
    for name, plan in (("fast(2)", uniform_plan(2, 1)), ("fast(4)", uniform_plan(4, 1)),
                       ("hybrid(4,2)", uniform_plan(4, 2)), ("standard(4)", uniform_plan(4, 4))):
        size = build_cdag(plan).num_vertices
        assert size > 10
        assert f"dominator {name}: SKIPPED ({size} vertices)" in out
    assert " M=" not in out


@pytest.mark.parametrize("change", [
    {"encode_a": [[1, 0, 0]] * 7},
    {"decode": [[1, 0, 0, 0, 0, 0]] * 4},
    {"encode_b": [[1, 0, 0, 2]] * 7},
    {"encode_a": None},
    None,  # the file holds [], not an object
])
def test_verify_malformed_scheme_exits_2(tmp_path, capsys, change):
    scheme = {"id": "bad", "encode_a": [[1, 0, 0, 0]] * 7,
              "encode_b": [[1, 0, 0, 0]] * 7, "decode": [[1, 0, 0, 0, 0, 0, 0]] * 4}
    if change is None:
        scheme = []
    else:
        scheme.update(change)
        scheme = {k: v for k, v in scheme.items() if v is not None}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scheme))
    assert main(["verify", "--scheme-file", str(path), "--max-vertices", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bounds_json(plan_file, capsys):
    assert main(["bounds", "--plan", plan_file, "--M", "4", "--B", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["nu1"] == 7
    assert data["t_total"] == 3584
    assert "parallel_bound" in data and data["parallel_bound"] is None


def test_bounds_with_parallel(plan_file, capsys):
    assert main(["bounds", "--plan", plan_file, "--M", "4", "--P", "7"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["parallel_bound"] == pytest.approx(99.8097, abs=1e-3)


@pytest.mark.parametrize("flags", [["--P", "0"], ["--P", "-2"], ["--P", "4", "--Bm", "0"],
                                   ["--P", "4", "--Bm", "-1"]],
                         ids=["P0", "P-2", "Bm0", "Bm-1"])
def test_bounds_parallel_flags_below_one_exit_2(plan_file, capsys, flags):
    # an explicit 0 is refused like any other value below 1, not read as
    # "no parallel bound" or as Bm=1
    assert main(["bounds", "--plan", plan_file, "--M", "4"] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "p and bm must be >= 1" in captured.err


def test_bounds_parallel_bm_defaults_to_1(plan_file, capsys):
    for extra, bm in (([], 1), (["--Bm", "2"], 2)):
        assert main(["bounds", "--plan", plan_file, "--M", "4", "--P", "4"] + extra) == 0
        data = json.loads(capsys.readouterr().out)
        assert (data["P"], data["Bm"]) == (4, bm) and data["parallel_bound"] > 0


def test_bounds_msp_threshold(plan_file, capsys):
    # at threshold 9 the size-8 leaves drop out of Type 1 and the root,
    # whose children now fall below it, is the one Type 2 MSP
    assert main(["bounds", "--plan", plan_file, "--M", "4", "--msp-threshold", "9"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["nu1"], data["nu2"], data["t_total"]) == (0, 1, 0)
    assert data["term_nu2"] == 4
    # a threshold that is not a positive finite size is refused, not read
    # as a plan without MSPs
    for bad in ("nan", "inf", "0", "-5"):
        for extra in ([], ["--P", "7"]):
            assert main(["bounds", "--plan", plan_file, "--M", "4",
                         "--msp-threshold", bad] + extra) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "MSP threshold must be positive and finite" in captured.err


def test_bounds_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.plan"
    bad.write_text("F[nope](x)")
    assert main(["bounds", "--plan", str(bad), "--M", "4"]) == 2


def test_bounds_deep_plan_exits_2(tmp_path, capsys):
    deep = tmp_path / "deep.plan"
    deep.write_text("F[strassen](" * 1200 + "S[iterative,n=1]" + ")" * 1200)
    assert main(["bounds", "--plan", str(deep), "--M", "4"]) == 2
    assert "error:" in capsys.readouterr().err


def test_simulate(plan_file, tmp_path, capsys):
    dump = tmp_path / "sched.txt"
    rc = main(["simulate", "--plan", plan_file, "--M", "12", "--B", "1",
               "--dump-schedule", str(dump)])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["parsimonious"] is True
    assert data["io_total"] == data["reads"] + data["writes"]
    text = dump.read_text()
    first = text.splitlines()[0].split()
    assert first[0] in {"R", "W", "C", "E"}
    # the dump is the whole expansion of the schedule's records
    sched = gen_hybrid_schedule(uniform_plan(16, 8), MachineConfig(12, 1))
    assert text == dump_schedule(sched)
    assert data["moves"] == len(sched.moves) == text.count("\n")


def test_simulate_unwritable_dump_fails_first(plan_file, tmp_path, monkeypatch, capsys):
    def no_generation(*args, **kwargs):
        raise AssertionError("schedule generated before the dump path was opened")

    monkeypatch.setattr(cli, "gen_hybrid_schedule", no_generation)
    rc = main(["simulate", "--plan", plan_file, "--M", "12",
               "--dump-schedule", str(tmp_path / "missing" / "sched.txt")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def _no_generation(*args, **kwargs):
    raise AssertionError("schedule generated for a refused plan")


def test_sweep_refuses_runaway_plan_before_generating(tmp_path, monkeypatch, capsys):
    # uniform n=256, n0=1 needs about 40M moves at least; refused up front
    monkeypatch.setattr(cli, "gen_hybrid_schedule", _no_generation)
    cfg = tmp_path / "s.cfg"
    cfg.write_text("plan=uniform\nn=8,256\nn0=1\nM=3\nB=1\n")
    t0 = time.perf_counter()
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "size-256 plan needs at least" in captured.err


def test_sweep_refuses_oversized_random_plan_before_building(tmp_path, monkeypatch, capsys):
    # at p_fast=1 and n=1024 the tree has (7^11 - 1) / 6 = 330M nodes
    def no_build(*args, **kwargs):
        raise AssertionError("random plan built for a refused sweep")

    monkeypatch.setattr(cli, "random_plan", no_build)
    cfg = tmp_path / "s.cfg"
    cfg.write_text("plan=random\nn=1024\np_fast=1\ncommands=bounds\n")
    out = tmp_path / "rows.csv"
    t0 = time.perf_counter()
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert not out.exists()
    assert "3.3e+08 nodes in expectation" in capsys.readouterr().err
    # the expectation falls with p_fast: n=1024 at 0.2 is about 99 nodes
    assert parse_sweep_config("plan=random\nn=1024\np_fast=0.2\n")["n"] == [1024]


def test_simulate_refuses_runaway_plan(tmp_path, monkeypatch, capsys):
    # one standard leaf of size 256 computes 2*256^3 - 256^2 values
    monkeypatch.setattr(cli, "gen_hybrid_schedule", _no_generation)
    path = tmp_path / "leaf256.txt"
    path.write_text("S[iterative,n=256]\n")
    assert main(["simulate", "--plan", str(path), "--M", "3"]) == 2
    assert f"above the {cli.MAX_SIMULATE_MOVES}" in capsys.readouterr().err


@pytest.mark.parametrize("plan", [uniform_plan(8, 1), uniform_plan(16, 4, WINOGRAD),
                                  random_plan(16, 0.6, seed=2)])
def test_min_moves_is_a_lower_bound(plan):
    for m in (3, 12, 48):
        for b in (1, 4):
            cfg = MachineConfig(m, b)
            assert simulate(gen_hybrid_schedule(plan, cfg), cfg).computes >= \
                cli._min_moves(plan, {})


def test_size_flag_rejected(plan_file):
    # the plan fixes the size; argparse refuses a --n with exit 2
    for cmd in ("bounds", "simulate"):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--plan", plan_file, "--n", "16", "--M", "4"])
        assert exc.value.code == 2


def test_sweep_config_errors():
    with pytest.raises(ConfigError) as exc:
        parse_sweep_config("n=7\n")
    assert "power" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        parse_sweep_config("n=8\nplan=wibble\n")
    assert "line 2: unknown plan source 'wibble'" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        parse_sweep_config("wibble\n")
    assert "line 1" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        parse_sweep_config("n=8\nM=x\n")
    assert "line 2" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        parse_sweep_config("commands=bounds,simulat\n")
    assert "simulat" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        parse_sweep_config("n=8\nscheme=wibble\n")
    assert "line 2: unknown scheme 'wibble'" in str(exc.value)
    for text, message in (("M=0\n", "M values must be positive"),
                          ("B=0\n", "B values must be positive"),
                          ("M=2\ncommands=simulate\n", "M=2 too small for simulation")):
        with pytest.raises(ConfigError) as exc:
            parse_sweep_config(text)
        assert message in str(exc.value)
    # bounds alone take any positive M
    assert parse_sweep_config("M=2\ncommands=bounds\n")["M"] == [2]
    for p_fast in ("nan", "1.5", "-0.1", "inf"):
        with pytest.raises(ConfigError) as exc:
            parse_sweep_config(f"plan=random\np_fast={p_fast}\n")
        assert "p_fast" in str(exc.value)
    for text in (f"n={2 ** 1100}\ncommands=simulate\n", f"n={2 ** 1100}\ncommands=bounds\n",
                 f"n={2 ** 41}\n", f"n={2 ** 41}\nn0={2 ** 41}\ncommands=bounds\n"):
        with pytest.raises(ConfigError) as exc:
            parse_sweep_config(text)
        assert f"2**{MAX_PLAN_DEPTH}" in str(exc.value)


@pytest.mark.parametrize("text, message", [
    ("plan=wibble\n", "config error: line 1: unknown plan source"),
    ("plan=uniform\nn=8,256\nn0=1\nM=3\n", "error: the schedule of a size-256 plan"),
    ("plan=file:{plan}\nn=8,32\n", "config error: file:"),
], ids=["unknown-source", "runaway-plan", "file-size-in-no-n"])
def test_refused_sweep_writes_no_file(tmp_path, monkeypatch, capsys, plan_file, text, message):
    monkeypatch.setattr(cli, "gen_hybrid_schedule", _no_generation)
    cfg = tmp_path / "s.cfg"
    cfg.write_text(text.format(plan=plan_file))
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


def test_sweep_file_plan_matches_uniform_rows(tmp_path, monkeypatch, plan_file):
    loads = []
    load_plan = cli._load_plan
    monkeypatch.setattr(cli, "_load_plan", lambda path: loads.append(path) or load_plan(path))
    rows = {}
    for source, extra in ((f"file:{plan_file}", "n=8,16,32\n"), ("uniform", "n=16\nn0=8\n")):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(f"plan={source}\n{extra}M=12,48\nB=1,4\n")
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        header, *lines = out.read_text().splitlines()
        rows[source] = [{k: v for k, v in zip(header.split(","), ln.split(","))
                         if k not in ("plan", "n0", "uniform_bound")} for ln in lines]
    assert loads == [plan_file]  # once, not once per n
    file_rows, uniform_rows = rows.values()
    assert len(file_rows) == 4 and file_rows == uniform_rows


def test_sweep_size_cap(tmp_path, capsys, monkeypatch):
    # above the cap: exit 2 before the CSV header; at it, a bounds row is
    # counted per level, never by listing its 7^38 MSPs
    from hybridmm import bounds

    monkeypatch.setattr(bounds, "enumerate_msps", lambda *args: [])
    cfg = tmp_path / "s.cfg"
    cfg.write_text(f"plan=uniform\nn={2 ** 1100}\ncommands=bounds\n")
    assert main(["sweep", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "config error" in captured.err
    cfg.write_text(f"plan=uniform\nn={2 ** MAX_PLAN_DEPTH}\nn0=1\nM=3\ncommands=bounds\n")
    start = time.perf_counter()
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert time.perf_counter() - start < 1.0
    header, row = capsys.readouterr().out.strip().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["nu2"] == str(7 ** (MAX_PLAN_DEPTH - 2))


def test_sweep_no_msp_row(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("plan=uniform\nn=4\nn0=4\nM=4\nB=1\ncommands=bounds\n")
    assert main(["sweep", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    assert row["seq_bound"] == "32"  # 2 n^2 / B with no MSPs
    assert row["io_total"] == ""


def test_sweep_deterministic(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("plan=random\nn=8,16\nseed=1,2\np_fast=0.6\nM=12\nB=1,4\n")
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_fails_on_a_parsimony_violation(tmp_path, monkeypatch, capsys):
    # every simulated row is checked; a violation exits 1 and names its row,
    # and the CSV is the one a clean sweep writes
    cfg = tmp_path / "s.cfg"
    cfg.write_text("plan=random\nn=8,16\nseed=1\np_fast=0.6\nM=12\nB=1,4\n")
    clean, flagged = tmp_path / "clean.csv", tmp_path / "flagged.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(clean)]) == 0
    assert capsys.readouterr().err == ""
    checked = []

    def check(sched):
        checked.append(sched)
        report = ParsimonyReport()
        if len(checked) == 3:
            report.violations.append((5, "value read into cache at 3 evicted/overwritten unused"))
        return report

    monkeypatch.setattr(cli, "check_parsimonious", check)
    assert main(["sweep", "--config", str(cfg), "--out", str(flagged)]) == 1
    assert len(checked) == 4
    assert flagged.read_bytes() == clean.read_bytes()
    assert capsys.readouterr().err == (
        "sweep: plan=random n=16 seed=1 p_fast=0.6 M=12 B=1: 1 parsimony violation(s), "
        "the first at step 5: value read into cache at 3 evicted/overwritten unused\n")


def test_sweep_winograd_rows(tmp_path):
    # scheme= picks the scheme of every uniform plan in the sweep
    cfg = tmp_path / "s.cfg"
    cfg.write_text("plan=uniform\nscheme=winograd\nn=8\nn0=1\nM=12\nB=1,4\n")
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    header, *lines = out.read_text().splitlines()
    rows = [dict(zip(header.split(","), ln.split(","))) for ln in lines]
    plan = uniform_plan(8, 1, WINOGRAD)
    want = []
    for b in (1, 4):
        mc = MachineConfig(12, b)
        want.append((str(b), str(simulate(gen_hybrid_schedule(plan, mc), mc).io_total)))
    assert [(r["B"], r["io_total"]) for r in rows] == want
    strassen = simulate(gen_hybrid_schedule(uniform_plan(8, 1), MachineConfig(12, 1)),
                        MachineConfig(12, 1)).io_total
    assert rows[0]["io_total"] != str(strassen)


def test_sweep_fails_on_io_below_bound(tmp_path, monkeypatch, capsys):
    # a measured I/O below its bound means a bug in the bound or the
    # simulator: exit 1 and name the row, with the CSV still written
    cfg = tmp_path / "s.cfg"
    cfg.write_text("plan=uniform\nn=8\nn0=1,8\nM=12\nB=1\n")
    real = cli.simulate
    calls = []

    def simulate_low(sched, mc):
        calls.append(sched)
        stats = real(sched, mc)
        return IoStats(1, 0, stats.peak_cache, stats.computes) if len(calls) == 2 else stats

    monkeypatch.setattr(cli, "simulate", simulate_low)
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    assert len(calls) == 2
    assert capsys.readouterr().err == (
        "sweep: plan=uniform n=8 n0=8 M=12 B=1: measured I/O below bound (artifact bug)\n")
    header, *lines = out.read_text().splitlines()
    assert [dict(zip(header.split(","), ln.split(",")))["io_total"] for ln in lines][1:] == ["1"]


def test_sweep_ratios_at_least_one(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("plan=uniform\nn=8,16\nn0=1,4\nM=12,48\nB=1,4\n")
    out = tmp_path / "r.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert lines[0] == ("plan,n,n0,seed,p_fast,M,B,nu1,nu2,t_total,term_input,"
                       "term_t,term_nu2,seq_bound,uniform_bound,io_total,ratio")
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        assert float(row["ratio"]) >= 1.0
        assert row["uniform_bound"] != ""


def test_sweep_missing_config(tmp_path):
    assert main(["sweep", "--config", str(tmp_path / "none.cfg")]) == 2
