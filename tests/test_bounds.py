"""Tradeoff report rows and the communication-complexity reference table."""

import math

import pytest

from optsmp import bounds
from optsmp.bounds import (
    CSV_HEADER,
    ComplexityReference,
    ReportPoint,
    build_report,
    default_references,
    qfp_report_points,
    quantum_tradeoff_lhs,
)
from optsmp.errors import ConfigError


def test_quantum_tradeoff_lhs_frozen_point():
    # Oracle: term_photon = 2 * log2(1024) = 20; term_mode = 1024 * log2(20001).
    photon, mode, lhs = quantum_tradeoff_lhs(1024, 2.0, 1e-4)
    assert photon == pytest.approx(20.0, abs=1e-12)
    assert mode == pytest.approx(14630.691340798141, abs=1e-6)
    assert lhs == pytest.approx(20.0, abs=1e-12)


def test_quantum_tradeoff_lhs_takes_the_minimum_side():
    photon, mode, lhs = quantum_tradeoff_lhs(2, 8.0, 0.5)
    assert lhs == min(photon, mode)
    with pytest.raises(ConfigError):
        quantum_tradeoff_lhs(1, 1.0, 0.5)
    with pytest.raises(ConfigError):
        quantum_tradeoff_lhs(4, 1.0, 1.5)


def test_complexity_reference_requires_value_xor_expression():
    with pytest.raises(ConfigError):
        ComplexityReference(
            function="equality", n=2, kind="D",
            value=3, expression="Theta(n)", provenance="test",
        )
    with pytest.raises(ConfigError):
        ComplexityReference(
            function="equality", n=2, kind="X",
            value=3, expression=None, provenance="test",
        )


def test_default_references_cover_models():
    refs = default_references()
    kinds = {(r.kind, r.n is None) for r in refs}
    assert ("D", False) in kinds
    exact = {r.n: r.value for r in refs if r.kind == "D" and r.value is not None}
    assert exact[1] == 2 and exact[2] == 3
    assert any(r.kind == "R_parallel" for r in refs)
    assert any(r.kind == "Q_parallel" for r in refs)


def test_build_report_grid_row():
    rows = build_report([ReportPoint(m=2, mu=1.0, delta=0.01)])
    assert len(rows) == 1
    row = rows[0]
    assert row.a == 100
    assert row.log2_rank == pytest.approx(math.log2(5151), abs=1e-12)
    assert row.term_photon == pytest.approx(1.0, abs=1e-12)
    assert row.term_mode == pytest.approx(2 * math.log2(101), abs=1e-12)
    assert row.lhs_min == pytest.approx(1.0, abs=1e-12)
    assert row.classical_lhs == row.log2_rank
    assert row.entropy_bound >= row.log2_rank
    cells = row.csv_cells()
    assert len(cells) == len(CSV_HEADER.split(","))
    assert cells[0] == ""  # no n for a pure grid point


def test_build_report_fills_exact_cost_for_equality():
    rows = build_report([ReportPoint(m=6, mu=2.0, delta=1e-4, n=2)])
    assert rows[0].d_exact == 3


def test_qfp_report_points_build_real_protocols():
    points = qfp_report_points([2, 4], 2.0, 1e-4, 3)
    assert [p.n for p in points] == [2, 4]
    assert [p.m for p in points] == [6, 12]
    assert "repetition x3" in points[0].notes
    rows = build_report(points)
    assert rows[0].d_exact == 3  # n=2 equality is within the brute-force cap
    assert rows[1].d_exact is None  # n=4 is beyond the brute-force cap


def test_build_report_runs_the_oracle_once_per_distinct_n(monkeypatch):
    calls = []
    oracle = bounds.deterministic_cc_matrix

    def counted(values):
        calls.append(len(values).bit_length() - 1)
        return oracle(values)

    monkeypatch.setattr(bounds, "deterministic_cc_matrix", counted)
    rows = build_report(qfp_report_points([2, 2, 3], 2.0, 1e-3, 2))
    assert [row.d_exact for row in rows] == [3, 3, 4]
    assert calls == [2, 3]
    # A second report starts from nothing: no cache outlives the call.
    build_report(qfp_report_points([2], 2.0, 1e-3, 2))
    assert calls == [2, 3, 2]

