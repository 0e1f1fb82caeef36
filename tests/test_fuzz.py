"""Property tests of the text inputs: every malformed plan, schedule, sweep
config or scheme file is rejected with a ValueError, and the CLI turns each
rejection into exit code 2 with an ``error:`` message, never a traceback.

Examples are derandomized, so every run sees the same inputs."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from hybridmm.cli import _load_scheme_file, main, parse_sweep_config
from hybridmm.pebble import MemoryLayout, parse_schedule
from hybridmm.plans import STRASSEN, parse_plan, random_plan, serialize_plan

FUZZ = settings(derandomize=True, database=None, max_examples=100, deadline=None)


def _mutated(valid: str):
    """``valid`` with a slice replaced by arbitrary text."""
    return st.tuples(st.integers(0, len(valid)), st.integers(0, 8),
                     st.text(max_size=8)).map(
        lambda t: valid[:t[0]] + t[2] + valid[t[0] + t[1]:])


@contextlib.contextmanager
def _text_file(text):
    fd, path = tempfile.mkstemp()
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        yield path
    finally:
        os.remove(path)


def _run_cli(args, text):
    """Exit code and stderr of ``main`` with ``text`` in the file that
    ``args`` names as ``{}``."""
    err = io.StringIO()
    with _text_file(text) as path, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main([a.format(path) for a in args])
    return code, err.getvalue()


def _assert_cli_rejects(args, text):
    code, err = _run_cli(args, text)
    assert code == 2
    assert "error:" in err and "Traceback" not in err


_PLAN_TEXT = serialize_plan(random_plan(8, 0.6, seed=2))


@FUZZ
@given(st.one_of(st.text(alphabet="SF[](),=n0123456789 iterativeblockstrassenwinograd"),
                 _mutated(_PLAN_TEXT)))
def test_fuzz_parse_plan(text):
    try:
        parse_plan(text.strip())
    except ValueError:
        # plans are cheap to bound only when parsed, so the CLI sees rejections
        _assert_cli_rejects(["bounds", "--plan", "{}", "--M", "4"], text)


_SCHEDULE_LINE = st.one_of(
    st.text(max_size=20),
    st.tuples(st.sampled_from("RWCEX"),
              st.lists(st.one_of(st.integers(-3, 99).map(str),
                                 st.sampled_from(["mul", "add", "sub", "cpy", "neg", "x", ""])),
                       max_size=5)).map(lambda t: " ".join((t[0], *t[1]))))


@FUZZ
@given(st.lists(_SCHEDULE_LINE, max_size=6).map("\n".join))
def test_fuzz_parse_schedule(text):
    try:
        parse_schedule(text, MemoryLayout(2))
    except ValueError:
        pass


_CONFIG_LINE = st.one_of(
    st.text(max_size=20),
    st.tuples(st.sampled_from(["plan", "n", "n0", "M", "B", "seed", "p_fast", "scheme",
                               "commands", "wibble"]),
              st.one_of(st.text(max_size=10),
                        st.lists(st.integers(-4, 70).map(str), min_size=1, max_size=3).map(",".join),
                        st.sampled_from(["nan", "inf", "1.5", "0.5", "uniform", "random",
                                         "file:/nonexistent", "strassen", "bounds,simulat"]))
              ).map("=".join))


@FUZZ
@given(st.lists(_CONFIG_LINE, max_size=5).map("\n".join))
def test_fuzz_parse_sweep_config(text):
    try:
        parse_sweep_config(text)
    except ValueError:
        _assert_cli_rejects(["sweep", "--config", "{}"], text)


_COEFF_ROWS = st.one_of(
    st.lists(st.lists(st.sampled_from([-1, 0, 1, 2, 0.5, True, None, "1", [1]]),
                      min_size=3, max_size=8), min_size=3, max_size=8),
    st.none(), st.integers(), st.text(max_size=4))

_VALID_SCHEME = {"encode_a": STRASSEN.encode_a, "encode_b": STRASSEN.encode_b,
                 "decode": STRASSEN.decode}


@FUZZ
@given(st.one_of(
    st.text(max_size=30),
    st.fixed_dictionaries({}, optional={"id": st.text(max_size=4), "encode_a": _COEFF_ROWS,
                                        "encode_b": _COEFF_ROWS, "decode": _COEFF_ROWS}
                          ).map(json.dumps),
    _mutated(json.dumps(_VALID_SCHEME))))
def test_fuzz_scheme_file(text):
    with _text_file(text) as path:
        try:
            _load_scheme_file(path)
            rejected = False
        except ValueError:
            rejected = True
    args = ["verify", "--scheme-file", "{}", "--max-vertices", "0"]
    if rejected:
        _assert_cli_rejects(args, text)
    else:
        assert _run_cli(args, text)[0] in (0, 1)
