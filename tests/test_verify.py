"""Property-suite ensembles: each dense basis and each photon-number
distribution is built once, the suites read the same numbers the
per-element definitions give, and the stacked suites return what their
per-case oracle (``verify_oracle.py``) returns, bit for bit. Also the dense
operators that this module owns: their projection, and the stacked checks
against the one-state checks of ``optsmp.truncation``."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import verify_oracle
from optsmp import combinatorics, fock, verify
from optsmp.errors import ConfigError, DimensionCapError, ModeMismatchError, PremiseViolationError
from optsmp.fock import FockDiagonalState, PureState, total_photons
from optsmp.truncation import check_gentle_measurement, check_projector_closeness, project_below_cutoff
from optsmp.verify import DenseOperator


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


@settings(max_examples=300, deadline=None)
@given(
    blocks=st.lists(
        st.lists(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1e-12, -2.0, math.inf, math.nan]), max_size=9),
        max_size=4,
    ),
    required=st.sampled_from([-1e-9, 0.0, 0.1]),
)
def test_collector_extend_equals_add_one_at_a_time(blocks, required):
    one, many = verify._Collector(required), verify._Collector(required)
    for b, block in enumerate(blocks):
        for i, slack in enumerate(block):
            one.add(slack, lambda: f"block {b} case {i}")
        many.extend(np.array(block, dtype=float), lambda i: f"block {b} case {i}")
    assert one.result("s").summary_line() == many.result("s").summary_line()
    assert one.result("s").failures == many.result("s").failures
    assert math.copysign(1.0, one.result("s").min_slack) == math.copysign(1.0, many.result("s").min_slack)


# ---------------------------------------------------------------------------
# Stacked suites against their per-case oracle

ORACLE_RUNS = [
    (name, seed, size, fault)
    for name in sorted(verify_oracle.ORACLES)
    for seed in (1, 2, 3, 4, 5, 1729)
    for size, fault in ((None, False), (20, False), (20, True))
] + [(name, 1729, None, True) for name in sorted(verify_oracle.ORACLES)]


@pytest.mark.parametrize("name,seed,size,fault", ORACLE_RUNS)
def test_stacked_suite_equals_its_per_case_oracle(name, seed, size, fault):
    suite = verify.SUITES[name]
    size = suite.size if size is None else size
    required = 0.1 if fault else suite.required
    expected = verify_oracle.ORACLES[name](seed, size, required)
    got = suite.run(seed, size, required)
    assert got == expected
    assert got.summary_line() == expected.summary_line()
    assert type(got.min_slack) is float


def _recorded_stacks(monkeypatch, name, seed):
    """The dense stacks, with their cutoffs, that suite ``name`` evaluates."""
    calls = []
    for attr in ("_gentle_slacks", "_closeness_gaps"):
        original = getattr(verify, attr)

        def record(state, cutoff, *rest, _original=original):
            calls.append((state, cutoff))
            return _original(state, cutoff, *rest)

        monkeypatch.setattr(verify, attr, record)
    verify.run_suites([name], seed=seed)
    assert calls and all(state.matrix.ndim == 3 for state, _ in calls)
    return calls


@pytest.mark.parametrize("name", ["gentle", "closeness"])
@pytest.mark.parametrize("seed", [1, 1729])
def test_stacked_dense_kernels_equal_stack_of_one_calls(monkeypatch, name, seed):
    for stack, cutoffs in _recorded_stacks(monkeypatch, name, seed):
        projected, weights = stack.projected(cutoffs)
        fidelities = fock.fidelity(stack, projected)
        distances = fock.trace_distance(stack, projected)
        roots = verify._sqrt_psd(stack.matrix)
        assert weights.shape == fidelities.shape == distances.shape == cutoffs.shape
        for i, (matrix, cutoff) in enumerate(zip(stack.matrix, cutoffs.tolist())):
            single = DenseOperator(stack.basis, matrix)
            one, weight = project_below_cutoff(single, cutoff)
            assert type(weight) is float and weight == weights[i]
            assert np.array_equal(one.matrix, projected.matrix[i])
            assert np.array_equal(verify._sqrt_psd(matrix), roots[i])
            assert fock.fidelity(single, one) == fidelities[i]
            assert fock.trace_distance(single, one) == distances[i]
            assert fock.fidelity(single, one) == verify_oracle.fidelity(matrix, one.matrix)


def test_stack_gentle_and_closeness_checks_are_per_matrix():
    rng = np.random.default_rng(8)
    basis = verify._dense_basis(2)
    stack = DenseOperator(basis, verify._density(np.stack([verify._gaussian(rng, len(basis)) for _ in range(5)])))
    cutoffs = np.array([0, 2, 2, 5, 6])
    slacks = verify._gentle_slacks(stack, cutoffs)
    gaps, premise = verify._closeness_gaps(stack, cutoffs, np.full(5, 0.3))
    for i, cutoff in enumerate(cutoffs.tolist()):
        single = DenseOperator(basis, stack.matrix[i])
        assert check_gentle_measurement(single, cutoff) == slacks[i]
        projected, _ = project_below_cutoff(single, cutoff)
        assert math.sqrt(0.3) - fock.trace_distance(single, projected) == gaps[i]
        if premise[i]:
            assert check_projector_closeness(single, cutoff, 0.3) == gaps[i]
        else:
            with pytest.raises(PremiseViolationError):
                check_projector_closeness(single, cutoff, 0.3)
    assert premise.tolist() == [False, False, False, True, True]


def test_project_dense_operator():
    basis = ((0,), (1,), (2,))
    rho = np.array(
        [
            [0.5, 0.1, 0.2],
            [0.1, 0.3, 0.0],
            [0.2, 0.0, 0.2],
        ]
    )
    op = DenseOperator(basis, rho)
    projected, weight = project_below_cutoff(op, 1)
    assert weight == pytest.approx(0.8, abs=1e-12)
    assert float(np.trace(projected.matrix).real) == pytest.approx(1.0, abs=1e-12)
    # the block above the cutoff is wiped, coherences included
    assert projected.matrix[0, 2] == 0.0
    assert projected.matrix[2, 2] == 0.0
    assert projected.matrix[0, 1] == pytest.approx(0.1 / 0.8, abs=1e-12)


def test_gentle_measurement_dense_states():
    rng = np.random.default_rng(3)
    basis = tuple((k,) for k in range(12))
    for _ in range(25):
        g = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        op = DenseOperator(basis, rho)
        cutoff = int(rng.integers(0, 12))
        assert check_gentle_measurement(op, cutoff) >= -1e-9


def test_projector_closeness_dense():
    basis = ((0,), (1,), (2,))
    rho = np.diag([0.9, 0.08, 0.02]).astype(complex)
    op = DenseOperator(basis, rho)
    slack = check_projector_closeness(op, 1, 0.1)
    assert slack >= -1e-9


def test_dense_operator_refuses_a_stack_where_one_matrix_is_bad():
    basis = verify._dense_basis(1)
    stack = np.stack([np.eye(len(basis), dtype=complex)] * 3)
    stack[2, 0, 1] = 1.0
    with pytest.raises(ValueError, match="not Hermitian"):
        DenseOperator(basis, stack)
    with pytest.raises(ModeMismatchError):
        DenseOperator(basis, np.zeros((2, 2, len(basis), len(basis))))
    with pytest.raises(ModeMismatchError, match="one matrix, not a stack"):
        fock.mean_photon_number(DenseOperator(basis, stack[:2]))


def test_entropy_profile_streams_one_bound_per_distinct_k(monkeypatch):
    calls = []
    bound = combinatorics.entropy_bound

    def counting(cutoff, modes):
        calls.append((cutoff, modes))
        return bound(cutoff, modes)

    monkeypatch.setattr(combinatorics, "entropy_bound", counting)
    rows = combinatorics.entropy_profile(range(1, 2001))
    assert not isinstance(rows, list) and not calls
    first = next(rows)
    assert first["n"] == 1 and calls == [(1, 1)]
    rest = list(rows)
    assert len(rest) == 1999
    assert calls == [(k, k) for k in range(1, 46)]


# ---------------------------------------------------------------------------
# Refusals: a fault outside the run, a size past its cap

def test_inject_fault_outside_the_run_is_refused():
    with pytest.raises(ConfigError, match="'gentle': it is not in this run"):
        verify.run_suites(["binom"], inject_fault="gentle")
    assert not verify.run_suites(["gentle"], size=3, inject_fault="gentle")[0].passed


def test_every_suite_has_a_cap():
    assert all(suite.size <= suite.cap for suite in verify.SUITES.values())


@pytest.mark.parametrize("name", sorted(verify.SUITES))
def test_size_past_the_cap_is_refused_before_any_suite_runs(monkeypatch, name):
    ran = []
    cap = verify.SUITES[name].cap
    monkeypatch.setitem(verify.SUITES, "first", verify.Suite(lambda *a: ran.append(a), 0.0, 1, cap + 1))
    with pytest.raises(DimensionCapError, match=f"suite {name} size {cap + 1} is above its cap of {cap}"):
        verify.run_suites(["first", name], size=cap + 1)
    assert not ran


@pytest.mark.parametrize("name", sorted(verify.SUITES))
def test_size_at_the_cap_runs(monkeypatch, name):
    monkeypatch.setitem(verify.SUITES, name, dataclasses.replace(verify.SUITES[name], cap=4))
    (result,) = verify.run_suites([name], seed=3, size=4)
    assert result.passed
    with pytest.raises(DimensionCapError):
        verify.run_suites([name], seed=3, size=5)
