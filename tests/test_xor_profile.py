"""Exhaustive evaluation through the error profile of x XOR y: every protocol
family the CLI builds takes it and matches the full grid bit for bit; other
protocols keep the grid."""

import json

import numpy as np
import pytest

from optsmp import report as report_module
from optsmp import smp, verify
from optsmp.cli import main
from optsmp.fock import PureState
from optsmp.smp import DiagonalMapReferee, SmpProtocol, _input_bits, evaluate_error, load_protocol
from optsmp.truncation import transform_protocol

FAMILIES = {
    "qfp-repetition": lambda n: {"type": "qfp", "n": n, "mu": 1.3, "code": {"kind": "repetition", "repeats": 2}},
    "qfp-identity": lambda n: {"type": "qfp", "n": n, "mu": 1.3, "code": {"kind": "identity"}},
    "qfp-xor-fold": lambda n: {"type": "qfp", "n": n, "mu": 1.3, "code": {"kind": "xor-fold", "m": (n + 1) // 2}},
    "classical-repetition": lambda n: {
        "type": "classical-trivial", "n": n, "code": {"kind": "repetition", "repeats": 2}
    },
    "classical-xor-fold": lambda n: {
        "type": "classical-trivial", "n": n, "code": {"kind": "xor-fold", "m": (n + 1) // 2}
    },
}


def _grid_only(monkeypatch):
    """Fail the structure check, so that every pair of the grid is read."""
    monkeypatch.setattr(smp, "_xor_invariant", lambda table, columns: False)


def _truncations(spec):
    """``--truncate`` values: none, a vacuous cutoff and, for qfp, a binding
    one (a classical message holds at most m = mu photons, below every
    Markov cutoff floor(mu / delta))."""
    deltas = [None, 1e-4]
    if spec["type"] == "qfp":
        deltas.append(0.6 if spec["n"] <= 4 else 0.9)  # cutoff 2, or 1
    return deltas


def _simulate(tmp_path, spec, delta) -> bytes:
    config, out = tmp_path / "spec.json", tmp_path / "out.csv"
    config.write_text(json.dumps(spec))
    argv = ["simulate", "--config", str(config), "--out", str(out)]
    if delta is not None:
        argv += ["--truncate", repr(delta)]
    assert main(argv) == 0
    return out.read_bytes()


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_profile_and_grid_agree_bit_for_bit(monkeypatch, tmp_path, family, n):
    spec = FAMILIES[family](n)
    original = load_protocol(spec)
    for delta in _truncations(spec):
        protocol = original
        if delta is not None:
            protocol = transform_protocol(original, delta)
            # Every cutoff keeps the letters; a binding one swaps the referee.
            assert protocol.letters is original.letters
            assert (protocol.referee is original.referee) == (delta < 0.5)
        profile = evaluate_error(protocol)
        csv = _simulate(tmp_path, spec, delta)
        with monkeypatch.context() as patch:
            _grid_only(patch)
            grid = evaluate_error(protocol)
            assert csv == _simulate(tmp_path, spec, delta)
        assert profile.xor_errors is not None and grid.xor_errors is None
        assert np.array_equal(profile.p_error, grid.p_error)
        assert profile.p_error.tobytes() == grid.p_error.tobytes()
        assert (profile.worst_error, profile.worst_pair) == (grid.worst_error, grid.worst_pair)
        assert len(profile.pair_errors) == len(grid.pair_errors) == 4**n


def test_profile_report_builds_p_error_only_when_read():
    report = evaluate_error(load_protocol(FAMILIES["qfp-repetition"](6)))
    assert report.xor_errors.size == 64 and len(report.pair_errors) == 4**6
    report.worst_error, report.worst_pair
    assert "p_error" not in vars(report)
    assert report.p_error.size == 4**6 and "p_error" in vars(report)


def test_a_report_holds_exactly_one_error_form():
    errors = np.zeros(4)
    for kwargs in ({}, {"p_error": np.zeros(16), "xor_errors": errors}):
        with pytest.raises(ValueError, match="either p_error or xor_errors"):
            report_module.ErrorReport("r", 2, **kwargs)


def test_worst_pair_is_read_once(monkeypatch):
    report = evaluate_error(load_protocol(FAMILIES["qfp-xor-fold"](4)))
    first = report.worst_pair
    monkeypatch.setattr(report, "worst_error", None)  # a second scan would fail
    assert report.worst_pair == first == (0, 5) and "worst_pair" in vars(report)


def test_perturbed_toy_keeps_the_grid():
    # The rotated letters give different same-letter agreements, so the
    # letter table is not a function of the XOR of its letters.
    protocol, _ = verify._perturbed_toy(0.1, 0.3)
    assert evaluate_error(protocol).xor_errors is None
    assert evaluate_error(verify._toy_protocol()).xor_errors is not None


@pytest.mark.parametrize("n", [3, 5])
def test_nonlinear_codewords_keep_the_grid(n):
    # x -> 3x mod 2^n is a bijection with row 0 zero, but for n >= 3 not
    # linear over GF(2): row 3 is 9 mod 2^n, not row 1 ^ row 2 = 3 ^ 6.
    protocol = SmpProtocol(
        name="times-three",
        n=n,
        m=n,
        mu=float(n),
        letters=(PureState.basis_state((0,)), PureState.basis_state((1,))),
        codewords=lambda xs: _input_bits(3 * np.asarray(xs) % (1 << n), n),
        referee=DiagonalMapReferee(),
    )
    report = evaluate_error(protocol)
    assert report.xor_errors is None
    assert report.p_error.size == 4**n and not report.p_error.any()
