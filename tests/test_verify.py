"""Property-suite ensembles: each dense basis and each photon-number
distribution is built once, and the suites read the same numbers the
per-element definitions give."""

import math

import numpy as np
import pytest

from optsmp import fock, verify
from optsmp.errors import ConfigError
from optsmp.fock import DenseOperator, FockDiagonalState, PureState, total_photons
from optsmp.truncation import project_below_cutoff


@pytest.mark.parametrize("modes", [1, 2, 3])
def test_dense_basis_is_one_object_and_projection_keeps_it(modes):
    basis = verify._dense_basis(modes)
    assert verify._dense_basis(modes) is basis
    assert max(total_photons(o) for o in basis) == verify._DENSE_CUTOFF[modes]
    op = verify._random_dense(np.random.default_rng(modes), modes)
    projected, _ = project_below_cutoff(op, 1)
    assert projected.basis is op.basis


@pytest.mark.parametrize("modes", [1, 2, 3])
def test_dense_cutoff_mask_and_distribution_match_their_definitions(modes):
    basis = verify._dense_basis(modes)
    op = verify._random_dense(np.random.default_rng(modes), modes)
    diagonal = np.real(np.diagonal(op.matrix)).tolist()
    direct: dict[int, float] = {}
    for occ, w in zip(basis, diagonal):
        direct[total_photons(occ)] = direct.get(total_photons(occ), 0.0) + w
    assert list(fock.photon_number_distribution(op).items()) == list(direct.items())
    for cutoff in range(verify._DENSE_CUTOFF[modes] + 1):
        for c in (cutoff, cutoff + 0.5):
            expected = np.array([total_photons(occ) <= c for occ in basis])
            mask = op.cutoff_mask(c)
            assert mask.dtype == expected.dtype
            assert (mask == expected).all()
        inside = [i for i, occ in enumerate(basis) if total_photons(occ) <= cutoff]
        assert np.flatnonzero(basis.totals <= cutoff).tolist() == inside


def test_markov_tails_are_tail_probability_bit_for_bit(monkeypatch):
    states, cases = [], []
    mean = fock.mean_photon_number

    def recording_mean(state):
        states.append(state)
        return mean(state)

    add = verify._Collector.add

    def recording_add(self, slack, describe):
        cases.append((slack, describe()))
        add(self, slack, describe)

    monkeypatch.setattr(fock, "mean_photon_number", recording_mean)
    monkeypatch.setattr(verify._Collector, "add", recording_add)
    verify.suite_markov(5, 9, -1e-12)
    assert [type(s) for s in states] == [PureState, FockDiagonalState, DenseOperator] * 3
    thresholds = [0.5, 1.0, 2.0, 3.5, 5.0, 8.0, 13.0]
    assert len(cases) == len(states) * len(thresholds)
    for i, state in enumerate(states):
        m = mean(state)
        for j, a in enumerate(thresholds):
            slack, text = cases[i * len(thresholds) + j]
            tail = fock.tail_probability(state, a)
            assert text == f"mean={m!r} threshold={a!r} tail={tail!r}"
            assert slack == m / a - tail


@pytest.mark.parametrize("size", [0, -3])
def test_run_suites_refuses_a_size_below_one(size):
    with pytest.raises(ConfigError, match="size must be >= 1"):
        verify.run_suites(["binom"], size=size)


def test_nan_slack_fails_its_suite():
    collector = verify._Collector(-1e-9)
    collector.add(0.5, lambda: "fine")
    collector.add(float("nan"), lambda: "undefined")
    collector.add(0.25, lambda: "fine again")
    result = collector.result("nan")
    assert not result.passed and result.cases == 3
    assert result.failures == ("slack=nan undefined",)
    assert math.isnan(result.min_slack)
    assert result.summary_line() == "suite=nan cases=3 min_slack=nan result=FAIL"
