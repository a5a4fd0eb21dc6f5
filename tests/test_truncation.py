"""Photon-number truncation: projections, disturbance checks, protocol transform."""

import math

import numpy as np
import pytest

from optsmp import truncation, verify
from optsmp.combinatorics import markov_photon_cutoff
from optsmp.errors import ConfigError, PremiseViolationError, SupportCapError, VacuousTruncationError
from optsmp.fock import (
    FockDiagonalState,
    ProductPureState,
    PureState,
    coherent_state,
    fidelity,
    mean_photon_number,
    poisson_tail,
    trace_distance,
)
from optsmp.smp import (
    CollectiveModeReferee,
    DiagonalMapReferee,
    InterferenceVacuumReferee,
    RepetitionCode,
    SmpProtocol,
    XorFoldCode,
    coherent_fingerprint_protocol,
    evaluate_error,
    trivial_classical_protocol,
)
from optsmp.truncation import (
    check_gentle_measurement,
    check_projector_closeness,
    perturbed_error_bound,
    project_below_cutoff,
    transform_protocol,
)
from optsmp.verify import DenseOperator

INV_SQRT2 = 1.0 / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Projection

def test_retained_weight_of_truncated_coherent_state():
    # Oracle: renormalized Poisson(1) mass on 0..3 out of 0..20 equals
    # (1 + 1 + 1/2 + 1/6) / sum_{k<=20} 1/k!.
    state = coherent_state(1.0, 20)
    assert project_below_cutoff(state, 3)[1] == pytest.approx(0.9810118431238463, abs=1e-12)


def test_project_pure_state():
    state = PureState(1, {(0,): 0.6, (1,): 0.6, (5,): math.sqrt(0.28)})
    projected, weight = project_below_cutoff(state, 2)
    assert weight == pytest.approx(0.72, abs=1e-12)
    assert projected.support_size() == 2
    assert projected.max_total_photons() <= 2
    # renormalized: amplitudes scale by 1/sqrt(weight)
    assert abs(projected.amplitude((0,))) == pytest.approx(0.6 / math.sqrt(0.72), abs=1e-12)


def test_project_pure_vacuous_cutoff():
    with pytest.raises(VacuousTruncationError):
        project_below_cutoff(PureState.basis_state((5,)), 3)
    five = PureState.basis_state((5,))
    with pytest.raises(VacuousTruncationError):
        project_below_cutoff(ProductPureState((five, five)), 3)


def test_project_diagonal_state():
    state = FockDiagonalState(1, {(0,): 0.5, (3,): 0.25, (7,): 0.25})
    projected, weight = project_below_cutoff(state, 3)
    assert weight == pytest.approx(0.75, abs=1e-12)
    assert projected.probability((0,)) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert projected.probability((7,)) == 0.0


def test_project_product_below_cutoff_is_identity():
    f = coherent_state(0.5, 6)
    prod = ProductPureState((f, f, f))
    projected, weight = project_below_cutoff(prod, 18)
    assert projected is prod
    assert weight == 1.0


def test_project_product_above_cutoff_materializes():
    f = PureState(1, {(0,): INV_SQRT2, (1,): INV_SQRT2})
    prod = ProductPureState((f, f))
    projected, weight = project_below_cutoff(prod, 1)
    assert weight == pytest.approx(0.75, abs=1e-12)
    assert isinstance(projected, PureState)
    assert projected.max_total_photons() <= 1


def test_project_product_refuses_a_support_too_large_to_interfere():
    # m=12 coherent factors of 9 terms each (cut at 8 photons): the joined
    # ket that a binding projection starts from has 9^12 terms, far past
    # the cap.
    msg = coherent_fingerprint_protocol(4, RepetitionCode(4, 3), 2.0).message(0)
    with pytest.raises(SupportCapError) as refused:
        project_below_cutoff(msg, 10)
    assert str(refused.value) == "joint support 282429536481 exceeds cap 1000000"


def _ladder_projection(state, cutoff):
    """The projection as one function with a case per kind, as it was
    before each kind got its own ``projected`` method, except that a product
    past the cutoff is joined into its ket first: the reference the methods
    must match bit for bit."""
    if isinstance(state, DenseOperator):
        diagonal = np.real(np.diagonal(state.matrix))
        mask = state.cutoff_mask(cutoff)
        weight = float(np.ascontiguousarray(diagonal[None][:, mask]).sum(axis=-1)[0])
        if weight <= 0.0:
            raise VacuousTruncationError(f"no weight at or below cutoff {cutoff}")
        keep = np.where(mask, 1.0, 0.0)
        mat = state.matrix * (keep[:, None] * keep[None, :])
        mat /= weight
        return DenseOperator(state.basis, mat), weight
    if isinstance(state, ProductPureState):
        if state.max_total_photons() <= cutoff:
            return state, 1.0
        state = state.to_pure_state()
    kept = {idx: v for idx, v in state.terms.items() if sum(idx) <= cutoff}
    if not kept:
        raise VacuousTruncationError(f"no support at or below cutoff {cutoff}")
    weight = sum(w for idx, w in state.weights() if idx in kept)
    return type(state)(state.modes, kept, normalize=True), weight


def _dense_fixture():
    rho = np.array([[0.5, 0.1, 0.2], [0.1, 0.3, 0.0], [0.2, 0.0, 0.2]])
    return DenseOperator(((0,), (1,), (2,)), rho)


_HALF = PureState(1, {(0,): INV_SQRT2, (1,): INV_SQRT2})
PROJECTION_FIXTURES = [
    (lambda: coherent_state(1.0, 20), [0, 1, 3, 8, 20]),
    (lambda: PureState(1, {(0,): 0.6, (1,): 0.6, (5,): math.sqrt(0.28)}), [0, 2, 5]),
    (lambda: PureState.basis_state((5,)), [3, 5]),
    (lambda: FockDiagonalState(1, {(0,): 0.5, (3,): 0.25, (7,): 0.25}), [0, 3, 7]),
    (lambda: ProductPureState((coherent_state(0.5, 6),) * 3), [0, 4, 18]),
    (lambda: ProductPureState((_HALF, _HALF)), [0, 1, 2]),
    (lambda: ProductPureState((PureState.basis_state((5,)),) * 2), [3]),
    (lambda: coherent_fingerprint_protocol(2, RepetitionCode(2, 2), 1.0).message(1), [2, 4, 6]),
    (_dense_fixture, [0, 1, 2]),
    (lambda: verify._random_dense(np.random.default_rng(5), 2), [0, 3, 6]),
]


@pytest.mark.parametrize("make, cutoffs", PROJECTION_FIXTURES)
def test_each_kind_projects_as_the_one_function_ladder_did(make, cutoffs):
    state = make()
    for cutoff in cutoffs:
        try:
            expected, expected_weight = _ladder_projection(state, cutoff)
        except VacuousTruncationError:
            with pytest.raises(VacuousTruncationError):
                state.projected(cutoff)
            with pytest.raises(VacuousTruncationError):
                project_below_cutoff(state, cutoff)
            continue
        for got, weight in (state.projected(cutoff), project_below_cutoff(state, cutoff)):
            assert type(got) is type(expected) and type(weight) is type(expected_weight)
            assert weight == expected_weight
            if expected is state:
                assert got is state
            elif isinstance(expected, DenseOperator):
                assert got.basis is state.basis
                assert np.array_equal(got.matrix, expected.matrix)
            else:
                assert list(got.terms.items()) == list(expected.terms.items())


# ---------------------------------------------------------------------------
# Disturbance checks

def test_gentle_measurement_pure_states_are_tight():
    # For pure states the post-projection fidelity equals sqrt(weight) exactly.
    state = coherent_state(1.0, 20)
    for cutoff in (0, 1, 3, 8):
        slack = check_gentle_measurement(state, cutoff)
        assert abs(slack) <= 1e-9


def test_projector_closeness_frozen_example():
    # Oracle: weight 0.9810118431238463 >= 1 - 0.02, so the projected state
    # must sit within sqrt(0.02) in trace distance; the pure-state distance is
    # sqrt(1 - weight) = 0.1377975212990195.
    state = coherent_state(1.0, 20)
    slack = check_projector_closeness(state, 3, 0.02)
    expected = math.sqrt(0.02) - 0.1377975212990195
    assert slack == pytest.approx(expected, abs=1e-12)
    assert slack > 0.0


def test_projector_closeness_requires_premise():
    state = coherent_state(1.0, 20)
    # retained weight at cutoff 3 is 0.981 < 1 - 0.01: hypothesis fails
    with pytest.raises(PremiseViolationError):
        check_projector_closeness(state, 3, 0.01)


def test_perturbed_error_bound_formula():
    assert perturbed_error_bound(0.1, 0.01) == pytest.approx(0.12, abs=1e-15)
    assert perturbed_error_bound(0.0, 0.0) == 0.0


# ---------------------------------------------------------------------------
# Whole-protocol transform

def test_transform_fingerprint_protocol_budget():
    protocol = coherent_fingerprint_protocol(2, RepetitionCode(2, 3), 2.0)
    before = evaluate_error(protocol).worst_error
    truncated = transform_protocol(protocol, 1e-4)
    bound = perturbed_error_bound(before, math.sqrt(1e-4))
    assert truncated.name == "qfp-n2-m6+cutoff20000"
    after = evaluate_error(truncated).worst_error
    assert bound == pytest.approx(before + 2.0 * math.sqrt(1e-4), abs=1e-12)
    assert after <= bound + 1e-9


def test_transform_classical_protocol_preserves_zero_error():
    protocol = trivial_classical_protocol(2)
    truncated = transform_protocol(protocol, 0.5)
    bound = perturbed_error_bound(0.0, math.sqrt(0.5))
    report = evaluate_error(truncated)
    assert report.worst_error == 0.0
    assert bound == pytest.approx(2.0 * math.sqrt(0.5), abs=1e-12)


def test_transform_messages_change_under_aggressive_cutoff():
    # delta = 0.9 on a mu=1 protocol truncates at a = floor(1/0.9) = 1 photon,
    # which genuinely reshapes the coherent messages: the referee's projected
    # kets hold at most one photon at every distance, and the errors move.
    protocol = coherent_fingerprint_protocol(1, RepetitionCode(1, 2), 1.0)
    truncated = transform_protocol(protocol, 0.9)
    assert all(truncated.referee._ket(d).max_total_photons() <= 1 for d in range(protocol.m + 1))
    assert protocol.message(0).max_total_photons() > 1
    assert evaluate_error(truncated).worst_error != evaluate_error(protocol).worst_error


@pytest.mark.parametrize("n, repeats, delta", [(2, 3, 0.5), (1, 8, 0.6)])
def test_binding_cutoff_stays_within_the_inflation_bound(n, repeats, delta):
    # mu = 2 gives cutoff floor(2/delta) = 4 (m=6) and 3 (m=8), far below a
    # message's maximum photon number. Every projected message is the
    # coherent state of amplitude sqrt(mu) in one collective mode, cut at
    # the cutoff, so each keeps the Poisson weight below it.
    protocol = coherent_fingerprint_protocol(n, RepetitionCode(n, repeats), 2.0)
    before = evaluate_error(protocol).worst_error
    truncated = transform_protocol(protocol, delta)
    budget = perturbed_error_bound(before, math.sqrt(delta))
    cutoff = markov_photon_cutoff(protocol.mu, delta)
    for x in range(1 << n):
        assert protocol.message(x).max_total_photons() > cutoff
    weight = 1.0 - poisson_tail(protocol.mu, cutoff)
    assert 1.0 - delta <= weight < 1.0
    after = evaluate_error(truncated).worst_error
    bound = 2.0 * math.sqrt(delta)
    assert budget == pytest.approx(before + bound, abs=1e-15)
    assert after <= budget, f"observed inflation {after - before!r} above 2*sqrt(delta) = {bound!r}"


def _counted_projections(monkeypatch) -> list:
    calls = []
    original = truncation.project_below_cutoff

    def counted(state, cutoff):
        calls.append(cutoff)
        return original(state, cutoff)

    monkeypatch.setattr(truncation, "project_below_cutoff", counted)
    return calls


def test_binding_transform_projects_no_row(monkeypatch):
    # An xor-fold code folds 16 inputs onto 4 codewords, and at cutoff 2
    # every row binds. The truncated protocol keeps the letters and the
    # checked table; its referee builds the collective ket at distance 0
    # once, and one ket per codeword distance that occurs (0, 1 and 2),
    # once however many pairs read it, and no message is projected.
    calls = _counted_projections(monkeypatch)
    kets = []
    build = CollectiveModeReferee._ket
    monkeypatch.setattr(CollectiveModeReferee, "_ket", lambda self, d: kets.append(d) or build(self, d))
    protocol = coherent_fingerprint_protocol(4, XorFoldCode(4, 2), 1.0)
    truncated = transform_protocol(protocol, 0.5)
    assert protocol.message(0).max_total_photons() > 2
    assert truncated.letters is protocol.letters and truncated._table is protocol._table
    exhaustive = evaluate_error(truncated)
    sampled = evaluate_error(truncated, samples=500, seed=3)
    assert calls == [] and sorted(kets) == [0, 0, 1, 2]
    assert len(exhaustive.pair_errors) == 256 and len(sampled.pair_errors) == 500


def test_vacuous_transform_keeps_the_table_and_projects_nothing(monkeypatch):
    calls = _counted_projections(monkeypatch)
    built, checked = [], []
    codewords, check = RepetitionCode.codewords, SmpProtocol._check

    def counted_codewords(code, xs):
        built.append(len(xs))
        return codewords(code, xs)

    def counted_check(protocol, xs, rows):
        checked.append(len(xs))
        return check(protocol, xs, rows)

    monkeypatch.setattr(RepetitionCode, "codewords", counted_codewords)
    monkeypatch.setattr(SmpProtocol, "_check", counted_check)
    protocol = coherent_fingerprint_protocol(3, RepetitionCode(3, 2), 1.3)
    assert built == checked == [8]
    truncated = transform_protocol(protocol, 1e-4)
    before, after = evaluate_error(protocol), evaluate_error(truncated)
    assert calls == []
    assert built == checked == [8]
    assert truncated.letters is protocol.letters
    assert truncated.name == protocol.name + "+cutoff13000" != protocol.name
    assert np.array_equal(after.p_error, before.p_error)


@pytest.mark.parametrize("referee", [DiagonalMapReferee, InterferenceVacuumReferee])
def test_binding_transform_refuses_letters_other_than_the_coherent_pair(referee):
    # Letters |0> and one reaching 5 photons bind at cutoff 3. Only the two
    # coherent letters of a fingerprint protocol, under the interference
    # referee, have a projected referee; anything else is refused.
    spread = PureState(1, {(0,): math.sqrt(0.6), (1,): math.sqrt(0.3), (5,): math.sqrt(0.1)})
    letters = (PureState.basis_state((0,)), spread)
    protocol = SmpProtocol(
        "spread", 2, 2, 1.6, letters, RepetitionCode(2, 1).codewords, referee()
    )
    with pytest.raises(ConfigError, match="a binding cutoff of 3 photons"):
        transform_protocol(protocol, 0.5)
    # The same referee over coherent letters of another amplitude than
    # sqrt(mu/m) is refused as well.
    qfp = coherent_fingerprint_protocol(2, RepetitionCode(2, 1), 1.6)
    other = SmpProtocol("other", 2, 2, 2.0, qfp.letters, qfp.codewords, referee())
    with pytest.raises(ConfigError, match="a binding cutoff of 4 photons"):
        transform_protocol(other, 0.5)
