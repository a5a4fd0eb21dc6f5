"""Command-line interface: output formats, determinism, exit codes."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optsmp import bounds, cli, combinatorics, smp, verify
from optsmp.cli import main
from optsmp.verify import SUITES


def _write_config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# ---------------------------------------------------------------------------
# rank

def test_rank_with_explicit_cutoff(capsys):
    assert main(["rank", "2", "3"]) == 0
    out = capsys.readouterr().out
    assert out == "m=2 a=3 rank=10 log2_rank=3.321928094887362\n"


def test_rank_derives_cutoff_from_mu(capsys):
    assert main(["rank", "4", "--mu", "1.0", "--delta", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "a=10" in out
    assert "rank=1001" in out  # C(14, 4)
    assert "bound_photon=" in out and "bound_mode=" in out


def test_rank_with_mu_counts_once(capsys, monkeypatch):
    calls = []
    original = combinatorics.count_rank

    def counted(modes, cutoff):
        calls.append((modes, cutoff))
        return original(modes, cutoff)

    monkeypatch.setattr(combinatorics, "count_rank", counted)
    monkeypatch.setattr(cli, "count_rank", counted)
    assert main(["rank", "40", "--mu", "2"]) == 0
    assert calls == [(40, 20000)]
    assert " rank=" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv", [["5000", "--mu", "2"], ["4096", "--mu", "2", "--delta", "1e-4"], ["10000", "10000"]]
)
def test_rank_too_long_to_print_is_an_internal_limit(capsys, argv):
    assert main(["rank"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: internal limit: rank has ")
    assert "decimal digits" in captured.err
    log2_rank = float(captured.err.split("log2_rank=")[1])
    assert log2_rank * math.log10(2) > 4300


@pytest.mark.parametrize(
    "argv", [["1000000", "1000000"], ["1000000", "--mu", "1000", "--delta", "0.001"]]
)
def test_huge_rank_is_refused_before_counting(capsys, monkeypatch, argv):
    # C(2e6, 1e6) has 602,057 digits; counting it exactly takes many seconds.
    def refuse(*args):
        raise AssertionError("the exact rank was counted")

    monkeypatch.setattr(cli, "count_rank", refuse)
    monkeypatch.setattr(cli, "log_rank_bounds", refuse)
    assert main(["rank"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal limit" in captured.err
    assert "about 602057 decimal digits" in captured.err


def test_rank_at_the_digit_limit_is_decided_exactly(capsys):
    # C(14290, 7145) has 4300 digits and prints; C(14292, 7146) has 4301. The
    # estimate is within a digit of the limit for both, so both are counted.
    assert main(["rank", "7145", "7145"]) == 0
    assert len(capsys.readouterr().out.split(" rank=")[1].split()[0]) == 4300
    assert main(["rank", "7146", "7146"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: internal limit: rank has 4301 decimal digits"
    )


def test_rank_requires_cutoff_or_mu(capsys):
    assert main(["rank", "4"]) == 2
    assert "cutoff" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# dcc

def test_dcc_equality(tmp_path, capsys):
    config = _write_config(tmp_path, "eq.json", {"type": "equality", "n": 2})
    assert main(["dcc", "--config", config]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "D=3"
    assert out.splitlines()[1].startswith("convention=")


def test_dcc_explicit_table(tmp_path, capsys):
    config = _write_config(
        tmp_path, "tab.json", {"type": "table", "values": [[0, 0], [0, 0]]}
    )
    assert main(["dcc", "--config", config]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "D=0"


@pytest.mark.parametrize(
    "data",
    [
        {"type": "bogus"},
        {"type": "equality", "n": 9},
        {"type": "table", "values": [[0, 1], [1, 0], [0, 0]]},
        {"type": "table", "values": []},
        {"type": "table", "values": [[True, False], [False, True]]},
        {"type": "table", "values": [[0, 1.5], [1, 0]]},
        {"type": "table", "values": [[0, "1"], [1, 0]]},
        {"type": "table", "values": [[0, None], [1, 0]]},
        {"type": "table", "values": [[0, 256], [1, 0]]},
        {"type": "table", "values": [[0, -255], [1, 0]]},
        {"type": "table", "values": [1, 0]},
    ],
)
def test_dcc_config_errors(tmp_path, capsys, data):
    config = _write_config(tmp_path, "bad.json", data)
    assert main(["dcc", "--config", config]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-300, 300)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=3)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=9) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
#: Lists of a side the oracle takes, of rows of that side, mostly of 0/1
#: entries, with any JSON scalar in place of a row or an entry.
JSON_TABLES = st.sampled_from([2, 4, 8]).flatmap(
    lambda side: st.lists(
        st.lists(st.sampled_from([0, 1]) | JSON_SCALARS, min_size=side, max_size=side)
        | JSON_SCALARS,
        min_size=side,
        max_size=side,
    )
)


def _run_config(argv, config):
    """Run the CLI on ``config`` written as JSON; return (code, stdout)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w") as handle:
            json.dump(config, handle)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--config", path])
    assert code in (0, 2), err.getvalue()
    assert "internal error" not in err.getvalue() and "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error:")
    return code, out.getvalue()


@given(
    kind=st.sampled_from(["equality", "table"]) | JSON_VALUES,
    n=JSON_VALUES,
    values=JSON_TABLES | JSON_VALUES,
)
@settings(max_examples=100, deadline=None)
def test_dcc_answers_any_json_config_with_a_cost_or_a_config_error(kind, n, values):
    code, out = _run_config(["dcc"], {"type": kind, "n": n, "values": values})
    if code == 0:
        assert out.startswith("D=")
        if kind == "table":  # a cost is only printed for a table of int bits
            assert all(type(v) is int and v in (0, 1) for row in values for v in row)


#: What a drawn field may be replaced by: the special numbers, small
#: integers of either sign, or any JSON value that is not a number. Larger
#: integers are left out, so that no draw asks for a 4^12-pair table.
ODD_NUMBERS = st.sampled_from([math.nan, math.inf, -math.inf, 5e-324, 1e300, -1.0, 0.0, 2.0])
ODD_VALUES = (
    ODD_NUMBERS
    | st.integers(-2, 3)
    | JSON_VALUES.filter(lambda v: type(v) not in (int, float))
)
CODES = (
    st.sampled_from([None, {"kind": "identity"}])
    | st.builds(lambda r: {"kind": "repetition", "repeats": r}, st.integers(1, 2))
    | st.builds(lambda m: {"kind": "xor-fold", "m": m}, st.integers(1, 3))
)
PROTOCOLS = st.fixed_dictionaries(
    {
        "type": st.sampled_from(["qfp", "classical-trivial"]),
        "n": st.integers(1, 2),
        "mu": st.floats(0.0, 2.0),
        "code": CODES,
    }
)
GRIDS = st.fixed_dictionaries(
    {
        "kind": st.just("grid"),
        "m": st.lists(st.integers(1, 40), min_size=1, max_size=3),
        "mu": st.lists(st.floats(0.0, 4.0), min_size=1, max_size=2),
        "delta": st.lists(st.floats(1e-6, 0.99), min_size=1, max_size=2),
    }
)
QFP_PRESETS = st.fixed_dictionaries(
    {
        "kind": st.just("qfp"),
        "n": st.lists(st.integers(1, 40), min_size=1, max_size=3),
        "mu": st.floats(0.0, 4.0),
        "delta": st.floats(1e-6, 0.99),
        "repeats": st.integers(1, 3),
    }
)
#: Report keys whose values are probabilities.
PROBABILITY_KEYS = ("message_tail", "mean_error", "worst_error", "worst_error_before", "worst_error_after")


def _spoiled(config, where, value):
    """``config`` with the field (or ``code`` subfield) ``where`` set to
    ``value``; ``where=None`` keeps it whole."""
    config = json.loads(json.dumps(config))
    if where is None:
        return config
    owner = config
    if where.startswith("code."):
        owner, where = config["code"], where[5:]
        if not isinstance(owner, dict):
            return config
    owner[where] = value
    return config


def _is_probability(text):
    return 0.0 <= float(text) <= 1.0  # False for nan; inf is out of range


@given(
    config=st.builds(
        _spoiled,
        PROTOCOLS,
        st.none() | st.sampled_from(["type", "n", "mu", "code", "m", "code.repeats", "code.m"]),
        ODD_VALUES,
    ),
    truncate=st.none() | st.floats(0.4, 1.0) | ODD_NUMBERS,
    sampling=st.none() | st.tuples(st.none() | st.integers(-1, 20), st.none() | st.integers(-2, 3)),
)
@settings(max_examples=100, deadline=None)
def test_simulate_answers_any_json_config_with_probabilities_or_a_config_error(
    config, truncate, sampling
):
    samples, seed = sampling or (None, None)
    argv = ["simulate"]
    for flag, value in (("--truncate", truncate), ("--samples", samples), ("--seed", seed)):
        if value is not None:
            argv.append(f"{flag}={value}")
    code, out = _run_config(argv, config)
    if code == 0:
        lines = out.splitlines()
        head = _report_header(lines)
        assert all(_is_probability(head[key]) for key in PROBABILITY_KEYS if key in head), head
        header_at = next(i for i, line in enumerate(lines) if line.startswith("x,y,f,"))
        for row in lines[header_at + 1 :]:
            assert all(_is_probability(cell) for cell in row.split(",")[3:]), row


@given(
    config=st.builds(
        _spoiled,
        GRIDS | QFP_PRESETS,
        st.none() | st.sampled_from(["kind", "m", "n", "mu", "delta", "repeats"]),
        ODD_VALUES | st.lists(ODD_VALUES, max_size=3),
    ),
)
@settings(max_examples=100, deadline=None)
def test_bounds_answers_any_json_config_with_a_report_or_a_config_error(config):
    code, out = _run_config(["bounds"], config)
    if code == 0:
        lines = out.splitlines()
        header = lines.index(bounds.CSV_HEADER)
        column = bounds.CSV_HEADER.split(",").index("delta")
        assert all(_is_probability(row.split(",")[column]) for row in lines[header + 1 :])


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    assert main(["dcc", "--config", str(tmp_path / "nope.json")]) == 2
    assert "not found" in capsys.readouterr().err


def test_malformed_json_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["dcc", "--config", str(path)]) == 2
    assert "JSON" in capsys.readouterr().err


def _bad_path(tmp_path, case):
    """The argv of one unreadable or unwritable path case, and the path it
    names."""
    if case == "out-is-a-directory":
        return ["rank", "4", "3", "--out", str(tmp_path)], str(tmp_path)
    if case == "out-in-a-missing-directory":
        path = str(tmp_path / "missing" / "x.txt")
        return ["rank", "4", "3", "--out", path], path
    if case == "config-is-a-directory":
        return ["bounds", "--config", str(tmp_path)], str(tmp_path)
    path = tmp_path / "config.json"
    if case == "config-not-utf8":
        path.write_bytes(bytes(range(128, 192)))
    elif case == "config-integer-too-long":
        path.write_text('{"kind": "grid", "m": [' + "1" * 5000 + '], "mu": 1}')
    else:
        path.write_text("[" * 100_000)
    return ["bounds", "--config", str(path)], str(path)


@pytest.mark.parametrize(
    "case",
    [
        "out-is-a-directory",
        "out-in-a-missing-directory",
        "config-is-a-directory",
        "config-not-utf8",
        "config-integer-too-long",
        "config-nested-too-deep",
    ],
)
def test_unreadable_or_unwritable_paths_are_config_errors(tmp_path, capsys, case):
    # Permission errors take the same path, but root reads and writes
    # through any mode bits, so they are not tested here.
    argv, path = _bad_path(tmp_path, case)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and not captured.err.startswith("error: internal limit:")
    assert path in captured.err
    for directory in (tmp_path, tmp_path.parent):
        assert not list(directory.glob(".optsmp-*.tmp"))


# ---------------------------------------------------------------------------
# bounds

def test_bounds_grid_report(tmp_path, capsys):
    config = _write_config(
        tmp_path, "grid.json", {"kind": "grid", "m": [2], "mu": [1.0], "delta": [0.01]}
    )
    assert main(["bounds", "--config", config]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# log_base=2"
    assert lines[1] == "# mu_convention=per-party-max"
    assert lines[3].startswith("n,m,mu,delta,a,log2_rank")
    row = lines[4].split(",")
    assert row[1] == "2" and row[4] == "100"
    assert float(row[5]) == pytest.approx(math.log2(5151), abs=1e-12)


def test_bounds_grid_never_runs_the_oracle(tmp_path, capsys, monkeypatch):
    def refuse(values):
        raise AssertionError("grid rows name no function")

    monkeypatch.setattr(bounds, "deterministic_cc_matrix", refuse)
    config = _write_config(tmp_path, "grid.json", {"kind": "grid", "m": [2, 8], "mu": [0.5, 2.0]})
    assert main(["bounds", "--config", config]) == 0
    rows = capsys.readouterr().out.splitlines()[4:]
    assert len(rows) == 4
    assert all(row.split(",")[11] == "" for row in rows)


def test_bounds_accepts_integer_ranges(tmp_path, capsys):
    config = _write_config(
        tmp_path,
        "range.json",
        {"kind": "grid", "m": {"min": 2, "max": 4}, "mu": [1.0], "delta": [0.1]},
    )
    assert main(["bounds", "--config", config]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert len(lines) == 1 + 3  # header plus one row per m


def test_bounds_qfp_preset(tmp_path, capsys):
    config = _write_config(
        tmp_path, "qfp.json", {"kind": "qfp", "n": [2], "mu": 2.0, "delta": 1e-4}
    )
    assert main(["bounds", "--config", config]) == 0
    out = capsys.readouterr().out
    row = out.splitlines()[-1].split(",")
    assert row[0] == "2" and row[1] == "6"
    assert row[11] == "3"  # exact deterministic cost of 2-bit equality


@pytest.mark.parametrize(
    "data",
    [
        {"kind": "grid", "mu": [1.0]},
        {"kind": "grid", "m": [2], "mu": []},
        {"kind": "grid", "m": ["two"], "mu": [1.0]},
        {"kind": "qfp", "n": [2], "mu": [1.0, 2.0]},
        {"kind": "qfp", "n": [2], "mu": 1.0, "repeats": 0},
        {"kind": "other"},
    ],
)
def test_bounds_config_errors(tmp_path, capsys, data):
    config = _write_config(tmp_path, "bad.json", data)
    assert main(["bounds", "--config", config]) == 2


@pytest.mark.parametrize(
    "data",
    [
        {"kind": "grid", "m": {"min": 2, "max": 10**10}, "mu": 1},
        {"kind": "qfp", "n": {"min": 2, "max": 10**10}, "mu": 1},
        {"kind": "grid", "m": {"min": 2, "max": 1001}, "mu": list(range(1, 102))},
    ],
    ids=["grid-range", "qfp-range", "grid-product"],
)
def test_bounds_sweep_past_the_point_cap_is_an_internal_limit(tmp_path, capsys, data):
    # The point count is taken from the range bounds, so no list of
    # 10^10 values is built only to run out of memory.
    config = _write_config(tmp_path, "big.json", data)
    start = time.perf_counter()
    assert main(["bounds", "--config", config]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: internal limit: sweep has ")
    assert f"above the cap of {cli.SWEEP_POINT_CAP}" in captured.err


@pytest.mark.parametrize("kind, field", [("grid", "m"), ("qfp", "n")])
def test_bounds_sweep_at_the_point_cap_runs(tmp_path, capsys, monkeypatch, kind, field):
    monkeypatch.setattr(cli, "SWEEP_POINT_CAP", 6)
    for extra, code in ((0, 0), (1, 2)):
        sweep = {"min": 2, "max": 7 + extra}
        listed = list(range(2, 8 + extra))
        for axis in (sweep, listed):
            config = _write_config(tmp_path, "c.json", {"kind": kind, field: axis, "mu": 1.0})
            assert main(["bounds", "--config", config]) == code
            rows = capsys.readouterr().out.splitlines()[4:]
            assert len(rows) == (6 if code == 0 else 0)


def test_bounds_output_is_deterministic(tmp_path):
    config = _write_config(
        tmp_path, "grid.json", {"kind": "grid", "m": [2, 3], "mu": [1.0, 2.0]}
    )
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["bounds", "--config", config, "--out", out1]) == 0
    assert main(["bounds", "--config", config, "--out", out2]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


# ---------------------------------------------------------------------------
# simulate

QFP2 = {"type": "qfp", "n": 2, "mu": 2.0, "code": {"kind": "repetition", "repeats": 3}}


def test_simulate_exhaustive_output(tmp_path, capsys):
    config = _write_config(tmp_path, "p.json", QFP2)
    assert main(["simulate", "--config", config]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# protocol=qfp-n2-m6 n=2 m=6 mu=2.0")
    assert any(l.startswith("# worst_error=") for l in lines)
    header_at = lines.index("x,y,f,p_error")
    rows = lines[header_at + 1 :]
    assert len(rows) == 16
    # the two all-distance-3 pairs carry error exp(-2)
    x, y, f, p = rows[1].split(",")
    assert (x, y, f) == ("0", "1", "0")
    assert float(p) == pytest.approx(math.exp(-2.0), abs=1e-9)


def test_simulate_evaluates_each_protocol_once(tmp_path, capsys, monkeypatch):
    # One evaluation per protocol, also when the cutoff is vacuous: every
    # evaluation reports all 4^n pairs. ``cmd_simulate`` imports
    # ``evaluate_error`` from ``smp`` when it runs, so it is counted there.
    evaluate = smp.evaluate_error
    pairs = []

    def counted(*args, **kwargs):
        report = evaluate(*args, **kwargs)
        pairs.append(len(report.pair_errors))
        return report

    monkeypatch.setattr(smp, "evaluate_error", counted)
    config = _write_config(tmp_path, "p.json", QFP2)
    assert main(["simulate", "--config", config, "--truncate", "1e-4"]) == 0
    assert pairs == [16, 16]


def test_simulate_binding_truncation_columns_differ(tmp_path, capsys):
    config = _write_config(tmp_path, "p.json", {"type": "qfp", "n": 3, "mu": 1, "code": _rep(1)})
    assert main(["simulate", "--config", config, "--truncate", "0.3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split(",") for line in lines[lines.index("x,y,f,p_error,p_error_truncated") + 1 :]]
    assert len(rows) == 64
    assert sum(row[3] != row[4] for row in rows) > 32


def test_simulate_into_a_pipe_closed_early_exits_141_quietly(tmp_path):
    # Like `optsmp simulate ... | head -1`: the reader takes one line and
    # closes its end while the child still writes about 2 MB of rows.
    config = _write_config(tmp_path, "p.json", {"type": "qfp", "n": 8, "mu": 2, "code": _rep(2)})
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    child = subprocess.Popen(
        [sys.executable, "-m", "optsmp.cli", "simulate", "--config", config],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert child.stdout.readline().startswith(b"# protocol=qfp-n8-m16 ")
    child.stdout.close()
    stderr = child.stderr.read()
    assert child.wait(timeout=60) == 141
    assert stderr == b""


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_out_file_gets_the_mode_a_plain_open_gives(tmp_path, umask):
    previous = os.umask(umask)
    try:
        with open(tmp_path / "plain.txt", "w"):
            pass
        assert main(["rank", "5", "7", "--out", str(tmp_path / "out.txt")]) == 0
    finally:
        os.umask(previous)
    mode = (tmp_path / "plain.txt").stat().st_mode & 0o777
    assert mode == 0o666 & ~umask
    assert (tmp_path / "out.txt").stat().st_mode & 0o777 == mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", "plain.txt"]


def test_simulate_truncate_budget_columns(tmp_path, capsys):
    config = _write_config(tmp_path, "p.json", QFP2)
    assert main(["simulate", "--config", config, "--truncate", "1e-4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(l.startswith("# truncate_delta=0.0001 cutoff=20000") for l in lines)
    budget_line = next(l for l in lines if l.startswith("# worst_error_before="))
    before = float(budget_line.split("worst_error_before=")[1].split()[0])
    budget = float(budget_line.split("error_budget=")[1])
    assert budget == pytest.approx(before + 2 * math.sqrt(1e-4), abs=1e-12)
    header_at = lines.index("x,y,f,p_error,p_error_truncated")
    assert len(lines[header_at + 1].split(",")) == 5


def test_simulate_truncate_past_the_support_cap_is_an_internal_limit(tmp_path, capsys):
    # mu=80 over three modes at cutoff 160: the projected collective kets of
    # a pair at distance 1 keep 161 and 12,880 terms, whose product passes
    # the cap of the dark-port sum.
    hot = {"type": "qfp", "n": 3, "mu": 80, "code": {"kind": "identity"}}
    config = _write_config(tmp_path, "p.json", hot)
    start = time.perf_counter()
    assert main(["simulate", "--config", config, "--truncate", "0.5"]) == 2
    assert time.perf_counter() - start < 30.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal limit: pair support 1677781 exceeds cap 1000000\n"


@pytest.mark.parametrize("repeats, delta", [(1000, "0.001"), (7000, "1e-4")])
def test_simulate_truncate_runs_a_wide_projection_fast(tmp_path, capsys, repeats, delta):
    # m = repeats modes at cutoff 2000 or 20000: the projection acts on one
    # collective mode, whose kets stop where the Poisson amplitudes fade,
    # so the cost does not grow with m or the cutoff.
    spec = {"type": "qfp", "n": 1, "mu": 2.0, "code": {"kind": "repetition", "repeats": repeats}}
    config = _write_config(tmp_path, "p.json", spec)
    start = time.perf_counter()
    assert main(["simulate", "--config", config, "--truncate", delta]) == 0
    assert time.perf_counter() - start < 2.0
    header = dict(
        token.split("=", 1)
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("# worst_error_before=")
        for token in line[2:].split()
    )
    assert float(header["worst_error_after"]) <= float(header["error_budget"])


@pytest.mark.parametrize(
    "spec, samples, cap",
    [
        ({"type": "qfp", "n": 1, "mu": 2, "code": {"kind": "repetition", "repeats": 10**9}}, None,
         f"above the cap of {smp.CODEWORD_ENTRY_CAP} built at once"),
        ({"type": "qfp", "n": 12, "mu": 2, "code": {"kind": "repetition", "repeats": 20000}}, None,
         f"above the cap of {smp.CODEWORD_ENTRY_CAP} built at once"),
        ({"type": "classical-trivial", "n": 20}, 10**9,
         f"sampled evaluation of {10**9} pairs is above the cap of {smp.SAMPLES_CAP} pairs"),
    ],
    ids=["qfp-n1-wide", "qfp-n12-wide", "classical-n20-many-samples"],
)
def test_simulate_past_the_codeword_entry_cap_is_an_internal_limit(tmp_path, capsys, spec, samples, cap):
    # Each of these needs gigabytes of codeword entries or per-pair arrays;
    # the caps refuse them before any row is built or any pair drawn.
    config = _write_config(tmp_path, "w.json", spec)
    argv = ["simulate", "--config", config]
    if samples is not None:
        argv += ["--samples", str(samples), "--seed", "1"]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: internal limit: ")
    assert cap in captured.err


def test_simulate_exhaustive_past_n_12_is_an_internal_limit(tmp_path, capsys):
    config = _write_config(tmp_path, "p.json", {"type": "qfp", "n": 13, "mu": 2})
    start = time.perf_counter()
    assert main(["simulate", "--config", config]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal limit: exhaustive evaluation requires n <= 12, got n=13\n"


@pytest.mark.parametrize("mu", [5000, 1e6, 1e300])
def test_simulate_past_the_interference_photon_cap_is_an_internal_limit(tmp_path, capsys, mu):
    # Per-mode means of 1667 photons and more need cutoffs far above 256,
    # the most that keeps a mode pair within the 512-photon interference
    # limit; the cutoff search stops there before any state is built.
    config = _write_config(tmp_path, "p.json", {"type": "qfp", "n": 1, "mu": mu})
    start = time.perf_counter()
    assert main(["simulate", "--config", config]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: internal limit: a Poisson mean of ")
    assert "above 256 photons" in captured.err


#: 5000 letter means of 8.6 photons add up to 2.7e-9 above mu in floats.
DRIFTING_SUM = {"type": "qfp", "n": 1, "mu": 43000.5, "code": {"kind": "repetition", "repeats": 5000}}


def test_simulate_accepts_a_row_mean_above_mu_by_its_rounding_only(tmp_path):
    # The row mean is a running sum over 5000 positions, which may round
    # by up to about 4999 * 2^-53 of its size, 2.4e-8 here.
    row_sums = smp.SmpProtocol._row_sums
    protocol = smp.load_protocol(DRIFTING_SUM)
    assert 43000.5 + 1e-9 < row_sums(protocol, protocol.rows(np.arange(1)))[1][0] < 43000.5 + 1e-8
    config = _write_config(tmp_path, "p.json", DRIFTING_SUM)
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "out.csv")]) == 0


def test_simulate_refuses_a_row_mean_truly_above_mu(tmp_path, capsys, monkeypatch):
    # Amplitudes brighter by 1e-10 raise the mean by 2e-10 of its size,
    # 8.6e-6 photons, far past the rounding of the sum.
    coherent_state = smp.coherent_state
    monkeypatch.setattr(smp, "coherent_state", lambda alpha, cutoff: coherent_state(alpha * (1 + 1e-10), cutoff))
    config = _write_config(tmp_path, "p.json", DRIFTING_SUM)
    assert main(["simulate", "--config", config]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: encoder output for x=0 has mean photon number 43000.50000")
    assert captured.err.rstrip().endswith("above mu=43000.5")


@pytest.mark.parametrize(
    "config", [{"type": "classical-trivial", "n": 64}, {"type": "qfp", "n": 64, "mu": 2.0}]
)
def test_simulate_sampled_past_63_input_bits_is_an_internal_limit(tmp_path, capsys, config):
    # Sampled inputs are 64-bit integers; n = 63 is the widest that fits.
    path = _write_config(tmp_path, "p.json", config)
    assert main(["simulate", "--config", path, "--samples", "3", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: internal limit: sampled evaluation ")
    assert "63-bit input limit" in captured.err
    narrower = _write_config(tmp_path, "q.json", dict(config, n=63))
    assert main(["simulate", "--config", narrower, "--samples", "3", "--seed", "1"]) == 0


def _report_header(lines):
    return dict(
        cell.split("=", 1) for line in lines if line.startswith("# ") for cell in line[2:].split()
    )


def test_simulate_sampled_truncate_evaluates_the_sampled_pairs(tmp_path, capsys):
    # A binding cutoff (a=4), so the truncated column differs from the first.
    config = _write_config(tmp_path, "p.json", QFP2)
    argv = ["simulate", "--config", config, "--samples", "2", "--seed", "1"]
    assert main(argv + ["--truncate", "0.5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    head = _report_header(lines)
    rows = [line.split(",") for line in lines[lines.index("x,y,f,p_error,p_error_truncated") + 1 :]]
    assert len(rows) == 2
    assert float(head["worst_error_after"]) == max(float(r[4]) for r in rows)
    assert float(head["worst_error_before"]) == max(float(r[3]) for r in rows)
    assert main(argv) == 0
    sampled = capsys.readouterr().out.splitlines()
    assert [r[:4] for r in rows] == [l.split(",") for l in sampled[sampled.index("x,y,f,p_error") + 1 :]]


def test_simulate_sampled_truncate_beyond_table_range(tmp_path, capsys):
    # n=13 is past exhaustive range; the truncated protocol is sampled too.
    config = _write_config(tmp_path, "p.json", {"type": "qfp", "n": 13, "mu": 2.0})
    argv = ["simulate", "--config", config, "--samples", "4", "--seed", "1", "--truncate", "1e-4"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split(",") for line in lines[lines.index("x,y,f,p_error,p_error_truncated") + 1 :]]
    assert len(rows) == 4
    # cutoff 20000 is vacuous: truncation changes no error.
    assert all(r[3] == r[4] for r in rows)


def test_simulate_sampled_mode(tmp_path, capsys):
    config = _write_config(tmp_path, "p.json", QFP2)
    assert main(["simulate", "--config", config, "--samples", "6", "--seed", "11"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(l.startswith("# mode=sampled samples=6 seed=11") for l in lines)
    assert main(["simulate", "--config", config, "--samples", "6"]) == 2
    assert main(["simulate", "--config", config, "--samples", "6", "--seed", "-1"]) == 2
    assert "seed >= 0" in capsys.readouterr().err
    # A seed without samples is refused too, not ignored by an exhaustive run.
    assert main(["simulate", "--config", config, "--seed", "4"]) == 2
    assert "a seed needs samples" in capsys.readouterr().err


def test_simulate_deterministic_across_runs_and_jobs(tmp_path):
    config = _write_config(tmp_path, "p.json", QFP2)
    outs = [str(tmp_path / f"r{i}.csv") for i in range(2)]
    assert main(["simulate", "--config", config, "--out", outs[0]]) == 0
    assert main(["simulate", "--config", config, "--out", outs[1]]) == 0
    blobs = [(tmp_path / f"r{i}.csv").read_bytes() for i in range(2)]
    assert blobs[0] == blobs[1]
    # Evaluation is one serial loop; there is no thread-count option.
    assert main(["simulate", "--config", config, "--jobs", "4"]) == 2


@pytest.mark.parametrize(
    "argv, data",
    [
        (["simulate"], {"type": "qfp", "n": 2, "mu": math.inf}),
        (["simulate"], {"type": "qfp", "n": 2, "mu": math.nan}),
        (["bounds"], {"kind": "grid", "m": [2], "mu": [math.nan]}),
        (["bounds"], {"kind": "grid", "m": [2], "mu": [math.inf]}),
        (["bounds"], {"kind": "grid", "m": [2], "mu": [1e300], "delta": [1e-300]}),
        (["rank", "3", "--mu", "nan"], None),
    ],
    ids=["simulate-inf", "simulate-nan", "bounds-nan", "bounds-inf", "bounds-overflow", "rank-nan"],
)
def test_non_finite_numbers_exit_two(tmp_path, capsys, argv, data):
    if data is not None:
        argv = argv + ["--config", _write_config(tmp_path, "c.json", data)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize(
    "command, data",
    [
        ("simulate", {"type": "qfp", "n": True, "mu": 1}),
        ("simulate", {"type": "classical-trivial", "n": True}),
        ("simulate", {"type": "qfp", "n": 1, "mu": 1, "code": {"kind": "repetition", "repeats": True}}),
        ("simulate", {"type": "qfp", "n": 2, "mu": 1, "code": {"kind": "xor-fold", "m": True}}),
        ("simulate", {"type": "classical-trivial", "n": 1, "m": True}),
        ("simulate", {"type": "classical-trivial", "n": 2, "m": 2.0}),
        ("simulate", {"type": "classical-trivial", "n": 3, "m": "3"}),
        ("dcc", {"type": "equality", "n": True}),
        ("bounds", {"kind": "qfp", "n": [2], "mu": 2.0, "repeats": True}),
        ("bounds", {"kind": "qfp", "n": {"min": True, "max": 3}, "mu": 2.0}),
        ("bounds", {"kind": "grid", "m": {"min": 2, "max": True}, "mu": [1.0]}),
        ("bounds", {"kind": "grid", "m": [2, True], "mu": [1.0]}),
    ],
    ids=[
        "qfp-n", "classical-n", "code-repeats", "code-m", "m", "m-float", "m-string", "dcc-n",
        "bounds-repeats", "range-min", "range-max", "list-entry",
    ],
)
def test_json_booleans_are_not_integers(tmp_path, capsys, command, data):
    config = _write_config(tmp_path, "c.json", data)
    assert main([command, "--config", config]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err
    if command == "simulate" and "m" in data:
        assert "field 'm' must be an integer" in captured.err


# ---------------------------------------------------------------------------
# verify

def test_verify_single_suite_passes(capsys):
    assert main(["verify", "--suite", "markov", "--max", "30"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# seed=1729 size=30")
    assert lines[1].startswith("suite=markov cases=")
    assert lines[1].endswith("result=pass")
    assert lines[-1] == "overall=pass suites=1 failures=0"


def test_verify_fault_injection_fails_loudly(capsys):
    code = main(["verify", "--suite", "gentle", "--max", "20", "--inject-fault", "gentle"])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(l.startswith("counterexample suite=gentle") for l in lines)
    assert lines[-1].startswith("overall=FAIL")


def test_verify_rejects_unknown_suite(capsys):
    assert main(["verify", "--suite", "nope"]) == 2


def test_parser_names_the_suites_and_seed_of_verify():
    # The parser spells them out so that building it imports no numpy.
    assert list(cli.SUITE_NAMES) == sorted(SUITES)
    assert cli.DEFAULT_SEED == verify.DEFAULT_SEED
    parser = cli.build_parser()
    assert parser.parse_args(["verify"]).seed == verify.DEFAULT_SEED
    for name in SUITES:
        args = parser.parse_args(["verify", "--suite", name, "--inject-fault", name])
        assert args.suite == args.inject_fault == name


def test_verify_runs_one_blas_thread_unless_the_user_chose(tmp_path):
    # A fresh process first loads numpy in cmd_verify, after it fills in
    # the thread counts the user left unset.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]), OPENBLAS_NUM_THREADS="3")
    env.pop("OMP_NUM_THREADS", None)
    code = (
        "import os, sys\n"
        "from optsmp.cli import main\n"
        "assert main(['verify', '--suite', 'binom', '--max', '5', '--out', sys.argv[1]]) == 0\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "v.txt")], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "3 1\n"


def test_verify_refuses_a_fault_in_a_suite_it_does_not_run(capsys):
    # The fault would be lost: the run would print overall=pass.
    assert main(["verify", "--suite", "binom", "--inject-fault", "gentle"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot inject a fault into suite 'gentle'")


@pytest.mark.parametrize("suite", ["entropy", "binom"])
def test_verify_size_past_a_suite_cap_is_an_internal_limit(capsys, suite):
    cap = SUITES[suite].cap
    t0 = time.perf_counter()
    assert main(["verify", "--suite", suite, "--max", str(cap + 1)]) == 2
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: internal limit: suite {suite} size {cap + 1} is above its cap of {cap}\n"
    )


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--max", "0"], "suite size must be >= 1, got 0"),
        (["--max", "-3"], "suite size must be >= 1, got -3"),
        (["--suite", "markov", "--seed", "-1"], "seed must be >= 0, got -1"),
    ],
    ids=["max-0", "max-minus-3", "seed-minus-1"],
)
def test_verify_refuses_sizes_below_one_and_negative_seeds(capsys, extra, message):
    # Exit 1 would claim a property failed; no suite ran.
    assert main(["verify"] + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_verify_output_deterministic(tmp_path):
    args = ["verify", "--suite", "metrics", "--seed", "7", "--max", "25"]
    assert main(args + ["--out", str(tmp_path / "v1.txt")]) == 0
    assert main(args + ["--out", str(tmp_path / "v2.txt")]) == 0
    assert (tmp_path / "v1.txt").read_bytes() == (tmp_path / "v2.txt").read_bytes()


# ---------------------------------------------------------------------------
# top-level behavior

def test_counting_subcommands_never_import_numpy(tmp_path):
    # rank, dcc and bounds are exact integer work; numpy would cost most of
    # a fresh process's time. The steps run in order in one fresh interpreter.
    eq = _write_config(tmp_path, "eq.json", {"type": "equality", "n": 3})
    grid = _write_config(tmp_path, "grid.json", {"kind": "grid", "m": [2, 5], "mu": [0.5, 2.0]})
    qfp = _write_config(tmp_path, "qfp.json", {"kind": "qfp", "n": [1, 2, 3, 8], "mu": 1.0})
    argvs = [
        ["rank", "5", "7"],
        ["rank", "6", "--mu", "0.3"],
        ["dcc", "--config", eq],
        ["bounds", "--config", grid],
        ["bounds", "--config", qfp],
    ]
    code = (
        "import json, sys\n"
        "steps = []\n"
        "import optsmp\n"
        "steps.append(['import optsmp', 0, 'numpy' in sys.modules])\n"
        "import optsmp.cli\n"
        "steps.append(['import optsmp.cli', 0, 'numpy' in sys.modules])\n"
        "for i, argv in enumerate(json.loads(sys.argv[1])):\n"
        "    exit_code = optsmp.cli.main(argv + ['--out', f'{sys.argv[2]}/out{i}.txt'])\n"
        "    steps.append([' '.join(argv[:2]), exit_code, 'numpy' in sys.modules])\n"
        "print(json.dumps(steps))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argvs), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    steps = json.loads(result.stdout)
    names = ["import optsmp", "import optsmp.cli"] + [" ".join(argv[:2]) for argv in argvs]
    assert steps == [[name, 0, False] for name in names]
    # The qfp report ran the brute-force oracle: D_exact is 2, 3, 4 at n = 1-3.
    rows = (tmp_path / "out4.txt").read_text().splitlines()[4:]
    assert [row.split(",")[11] for row in rows] == ["2", "3", "4", ""]


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "bounds" in capsys.readouterr().out


def test_unknown_command_exits_two(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


def test_shared_parser_answers_like_a_fresh_one(tmp_path, capsys):
    # The parser is built once per process; parsing one command, or failing
    # to, must leave nothing behind for the next.
    rank = ["rank", "4", "3"]
    dcc = ["dcc", "--config", _write_config(tmp_path, "eq.json", {"type": "equality", "n": 2})]
    verify = ["verify", "--suite", "binom", "--max", "5"]
    sequence = [rank, ["rank", "--bogus"], dcc, ["frobnicate"], verify, rank, ["dcc"], dcc]
    shared = []
    for argv in sequence:
        code = main(argv)
        shared.append((code, capsys.readouterr()))
    assert cli.build_parser() is cli.build_parser()
    for argv, (code, captured) in zip(sequence, shared):
        cli.build_parser.cache_clear()
        assert main(argv) == code
        assert capsys.readouterr() == captured
    assert [code for code, _ in shared] == [0, 2, 0, 2, 0, 0, 2, 0]


# ---------------------------------------------------------------------------
# golden outputs

def _qfp(n, code, mu):
    return {"type": "qfp", "n": n, "mu": mu, "code": code}


def _rep(repeats):
    return {"kind": "repetition", "repeats": repeats}


def _fold(m):
    return {"kind": "xor-fold", "m": m}


#: (subcommand, config or None, extra argv, exit code, SHA-256 of stdout).
#: A digest changes only when a subcommand's printed output changes; update
#: one only together with a note of which output changed and why. ``verify``
#: is left out: its dense suites go through LAPACK, whose last bits vary by
#: build.
GOLDEN = [
    ("simulate", _qfp(4, _rep(3), 2), [], 0,
     "5bf81e45ee13c8fde3b5fe42f89658d71cf76eb1f407815b1219c04416c81293"),
    ("simulate", _qfp(5, _fold(4), 1.3), ["--truncate", "1e-4"], 0,
     "68ec458b0dffdf9e312cfb881fc0728ed3796bd46105bd66093f8f6b2f29d21b"),
    ("simulate", _qfp(2, _rep(1), 1), ["--truncate", "0.3"], 0,
     "c77aa0835a2809cdeec1d71d24406fb7763d1bf6e4d25a6ff4bf20d7ee63491b"),
    ("simulate", _qfp(1, _rep(2), 1), ["--truncate", "0.2"], 0,
     "a634d70929b90d182451f827bb667369beb6081a0129a54f63f0ef455957df59"),
    ("simulate", _qfp(2, _rep(3), 2), ["--truncate", "0.5"], 0,
     "b5b3d777592797b5604cb8dd8a7f4d892472c4f864e86df1dfeed8881693fff5"),
    ("simulate", {"type": "classical-trivial", "n": 6, "code": _fold(4)}, [], 0,
     "8ec67b16969578a4fb2118d1763f5f12fa0bba1cd9bc08895efb7fb5a5f53814"),
    ("simulate", _qfp(10, _rep(2), 2), ["--samples", "300", "--seed", "7"], 0,
     "d711f00f399ae0b80f6c6061c609a5dbfdd58c4b5b9452141fa143fc2bf33d8f"),
    ("simulate", _qfp(2, _rep(3), 2), ["--samples", "2", "--seed", "1", "--truncate", "0.5"], 0,
     "285ff1838324567e7afdd23717630972497a53d81e128800755e1bbdad684919"),
    ("simulate", _qfp(8, _rep(2), 2), [], 0,
     "04d1d1cce71743f9c80ff0a4a1094faf11229ae16ea6c157e288208523b9ce5f"),
    ("simulate", _qfp(6, _fold(5), 1.7), ["--truncate", "1e-4"], 0,
     "4d24de169dce48c91db7b1a206c3ee37844dfa0fc4729fe17b422b22e24e3dfa"),
    ("simulate", _qfp(3, _rep(1), 1), ["--truncate", "0.3"], 0,
     "68da59f213dbb81276d5670b8b47ba221d094a50861ac975139865a600621d0a"),
    ("simulate", {"type": "classical-trivial", "n": 7}, [], 0,
     "a1153770b55a6bd03a4c3be6a2878d91000a81fc4f457a0fc81713558f4fb88d"),
    ("bounds", {"kind": "grid", "m": [2, 4, 8, 33], "mu": [0.5, 2], "delta": [1e-2, 1e-4]}, [], 0,
     "b7ff1ac35119c2714dc0dbca44d2166dbcd2871c288135fbdd681ccb12b0821b"),
    ("bounds", {"kind": "qfp", "n": [1, 2, 3, 5], "mu": 2, "delta": 1e-3, "repeats": 2}, [], 0,
     "9743b28bdd714293724d155cc0bc2bc39067d7181fa4e1499f964fcab6d28ce8"),
    ("dcc", {"type": "equality", "n": 3}, [], 0,
     "fb1d2f165c6a4ed76b0e4e3d9a26518ed2746b61f222ee418c12299e68377ed9"),
    ("rank", None, ["40", "--mu", "2"], 0,
     "810c9f2b3db01a98686912d4ca9b81e262e75af75b84335f94ca8e4540255b28"),
    ("rank", None, ["5", "7"], 0,
     "6130757a4142a8e557ba65ecbeb60b0defea4f356488355726e36617d54a95ff"),
]


def _golden_id(row):
    command, config, extra = row[:3]
    return " ".join([command] + ([json.dumps(config)] if config else []) + extra)


@pytest.mark.parametrize("row", GOLDEN, ids=[_golden_id(row) for row in GOLDEN])
def test_golden_output(tmp_path, capsys, row):
    command, config, extra, code, digest = row
    argv = [command] + extra
    if config is not None:
        argv += ["--config", _write_config(tmp_path, "c.json", config)]
    assert main(argv) == code, _golden_id(row)
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, (
        f"stdout of `{_golden_id(row)}` changed"
    )
