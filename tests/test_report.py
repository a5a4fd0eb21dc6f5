"""Error reports: columns derived from the pair index, and CSV rows equal to
rows written one pair at a time."""

import numpy as np
import pytest

from optsmp import report as report_module
from optsmp import smp
from optsmp.smp import (
    RepetitionCode,
    XorFoldCode,
    coherent_fingerprint_protocol,
    evaluate_error,
    trivial_classical_protocol,
)


def _reference_rows(pairs, *errors) -> str:
    """CSV rows written one pair at a time: ``repr`` of each Python value."""
    lines = []
    for i, (x, y) in enumerate(pairs):
        cells = [x, y, int(x == y)] + [float(column[i]) for column in errors]
        lines.append(",".join(map(repr, cells)) + "\n")
    return "".join(lines)


def _grid_pairs(n):
    size = 1 << n
    return [divmod(i, size) for i in range(size * size)]


@pytest.mark.parametrize("n", range(1, 8))
def test_exhaustive_columns_are_the_divmod_of_the_pair_index(n):
    report = evaluate_error(trivial_classical_protocol(n, XorFoldCode(n, (n + 1) // 2)))
    x, y = np.divmod(np.arange(4**n), 1 << n)
    assert np.array_equal(report.x, x) and np.array_equal(report.y, y)
    assert np.array_equal(report.f, (x == y).astype(np.uint8))
    start, stop = 4**n // 3, 4**n // 2 + 1
    for derived, column in zip(report.columns(start, stop), (x, y, x == y)):
        assert np.array_equal(derived, column[start:stop])
    assert [r[:3] for r in report.pair_errors] == [(a, b, int(a == b)) for a, b in zip(x.tolist(), y.tolist())]


def test_report_statistics_are_computed_on_first_read():
    report = evaluate_error(coherent_fingerprint_protocol(3, RepetitionCode(3, 2), 1.1))
    assert "_statistics" not in vars(report)
    assert report.mean_error == float(np.mean(report.p_error))
    assert report.stderr_mean == float(np.std(report.p_error, ddof=1) / 8.0)


@pytest.mark.parametrize("block_rows", [report_module.BLOCK_ROWS, 8])
@pytest.mark.parametrize("n", range(1, 8))
def test_grid_rows_equal_rows_written_pair_by_pair(monkeypatch, n, block_rows):
    # Blocks of 8 pairs hold one x row or less, so every CSV row starts a
    # block; blocks of 8 entries split the pairs (0, z) that evaluation reads.
    protocol = coherent_fingerprint_protocol(n, RepetitionCode(n, 2), 1.3)
    whole = evaluate_error(protocol).p_error
    monkeypatch.setattr(report_module, "BLOCK_ROWS", block_rows)
    monkeypatch.setattr(smp, "BLOCK_ROWS", block_rows)
    report = evaluate_error(protocol)
    assert np.array_equal(report.p_error, whole)
    other = evaluate_error(coherent_fingerprint_protocol(n, RepetitionCode(n, 2), 0.4))
    pairs = _grid_pairs(n)
    assert "".join(report_module.csv_rows(report)) == _reference_rows(pairs, report.p_error)
    assert "".join(report_module.csv_rows(report, other)) == _reference_rows(
        pairs, report.p_error, other.p_error
    )
    # Errors drawn at random: nearly every tuple is distinct, and equal
    # first errors meet different second errors.
    rng = np.random.default_rng(n)
    noisy = report_module.ErrorReport("noise", n, rng.random(4**n).round(rng.integers(1, 4)))
    second = rng.random(4**n)
    assert "".join(report_module.csv_rows(noisy)) == _reference_rows(pairs, noisy.p_error)
    assert "".join(report_module.csv_rows(noisy, report_module.ErrorReport("noise", n, second))) == (
        _reference_rows(pairs, noisy.p_error, second)
    )


@pytest.mark.parametrize("block_rows", [report_module.BLOCK_ROWS, 8])
@pytest.mark.parametrize("n", range(1, 8))
def test_sampled_rows_equal_rows_written_pair_by_pair(monkeypatch, n, block_rows):
    monkeypatch.setattr(report_module, "BLOCK_ROWS", block_rows)
    samples, seed = 50, n
    report = evaluate_error(coherent_fingerprint_protocol(n, RepetitionCode(n, 2), 1.3), samples=samples, seed=seed)
    other = evaluate_error(coherent_fingerprint_protocol(n, RepetitionCode(n, 2), 0.4), samples=samples, seed=seed)
    rng = np.random.default_rng([seed, n])
    xs = rng.integers(0, 1 << n, size=samples).tolist()
    ys = rng.integers(0, 1 << n, size=samples).tolist()
    pairs = sorted(zip(xs, ys))
    assert "".join(report_module.csv_rows(report)) == _reference_rows(pairs, report.p_error)
    assert "".join(report_module.csv_rows(report, other)) == _reference_rows(
        pairs, report.p_error, other.p_error
    )
