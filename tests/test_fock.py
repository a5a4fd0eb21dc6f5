"""State representations, photon statistics, and distance measures."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from optsmp import fock
from optsmp.errors import (
    BasisMismatchError,
    DimensionCapError,
    ModeMismatchError,
    NormalizationError,
    OptSmpError,
    SupportCapError,
)
from optsmp.fock import (
    NORMALIZATION_TOL,
    FockDiagonalState,
    ProductPureState,
    PureState,
    coherent_state,
    cutoff_for_tail,
    fidelity,
    mean_photon_number,
    overlap,
    photon_number_distribution,
    poisson_tail,
    tail_probability,
    tensor,
    total_photons,
    trace_distance,
    validate_index,
)
from optsmp.truncation import project_below_cutoff
from optsmp.verify import DenseBasis, DenseOperator

INV_SQRT2 = 1.0 / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Index validation and basic state construction

def test_validate_index_accepts_plain_tuples():
    assert validate_index([0, 2, 1]) == (0, 2, 1)
    assert validate_index((3,), modes=1) == (3,)


def test_validate_index_rejects_bad_entries():
    with pytest.raises(ValueError):
        validate_index((0, -1))
    with pytest.raises(ValueError):
        validate_index((True, 0))
    with pytest.raises(ModeMismatchError):
        validate_index((0, 1), modes=3)
    with pytest.raises(ModeMismatchError):
        validate_index(())


def test_pure_state_normalization_enforced():
    with pytest.raises(NormalizationError):
        PureState(1, {(0,): 0.5, (1,): 0.5})
    state = PureState(1, {(0,): 0.5, (1,): 0.5}, normalize=True)
    assert abs(abs(state.amplitude((0,))) - INV_SQRT2) < 1e-12
    assert state.support_size() == 2


def test_pure_state_prunes_tiny_amplitudes():
    state = PureState(1, {(0,): 1.0, (5,): 1e-16})
    assert state.support_size() == 1
    assert state.amplitude((5,)) == 0.0


def test_pure_state_empty_support_is_an_error():
    with pytest.raises(NormalizationError):
        PureState(1, {(0,): 1e-16}, normalize=True)


def test_basis_state_and_vacuum():
    b = PureState.basis_state((0, 2))
    assert b.modes == 2
    assert b.amplitude((0, 2)) == 1.0
    assert b.max_total_photons() == 2
    v = PureState.vacuum(3)
    assert v.amplitude((0, 0, 0)) == 1.0
    assert mean_photon_number(v) == 0.0


def test_amplitudes_view_is_read_only():
    state = PureState.basis_state((1,))
    with pytest.raises(TypeError):
        state.amplitudes[(0,)] = 1.0


def test_diagonal_state_rejects_negative_probabilities():
    with pytest.raises(NormalizationError):
        FockDiagonalState(1, {(0,): 1.2, (1,): -0.2})


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_sparse_states_reject_non_finite_values(bad):
    # NaN slips past every comparison (negative check, prune, norm check),
    # so the summed weight is checked for finiteness on every path.
    cases = [
        (FockDiagonalState, {(0,): bad}),
        (FockDiagonalState, {(0,): 0.5, (1,): bad}),
        (PureState, {(0,): complex(bad)}),
        (PureState, {(0,): 0.6, (1,): complex(0.8, bad)}),
    ]
    for kind, terms in cases:
        with pytest.raises(NormalizationError, match="not a finite number"):
            kind(1, terms)
        with pytest.raises(NormalizationError, match="not a finite number"):
            kind(1, terms, normalize=True)


def test_diagonal_state_point_mass_and_normalize():
    pm = FockDiagonalState.point_mass((2, 0))
    assert pm.probability((2, 0)) == 1.0
    mixed = FockDiagonalState(1, {(0,): 2.0, (1,): 2.0}, normalize=True)
    assert abs(mixed.probability((0,)) - 0.5) < 1e-12


def test_product_state_shape_and_materialization():
    f0 = PureState(1, {(0,): INV_SQRT2, (1,): INV_SQRT2})
    f1 = PureState.basis_state((2,))
    prod = ProductPureState((f0, f1, f0))
    assert prod.modes == 3
    assert prod.max_total_photons() == 4
    joint = prod.to_pure_state()
    assert joint.support_size() == 4
    direct = tensor(tensor(f0, f1), f0)
    assert abs(abs(overlap(joint, direct)) - 1.0) < 1e-12


def test_product_state_needs_pure_factors():
    with pytest.raises(TypeError):
        ProductPureState((FockDiagonalState.point_mass((0,)),))
    with pytest.raises(ModeMismatchError):
        ProductPureState(())


# ---------------------------------------------------------------------------
# Dense operators

def test_dense_operator_requires_hermitian():
    basis = ((0,), (1,))
    with pytest.raises(ValueError):
        DenseOperator(basis, np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, complex(0.0, math.inf)])
@pytest.mark.parametrize("where", [[(0, 0)], [(0, 1), (1, 0)]], ids=["diagonal", "off-diagonal"])
def test_dense_operator_refuses_non_finite_entries(value, where):
    # An entry and its mirror hold the same value, so allclose, which
    # counts inf == inf, would have passed the inf cases as Hermitian.
    mat = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)
    for i, j in where:
        mat[i, j] = value
    with pytest.raises(ValueError, match="non-finite"):
        DenseOperator(((0,), (1,)), mat)


@given(
    entries=st.lists(
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
        min_size=4,
        max_size=4,
    ),
    skew=st.sampled_from([0.0, 0.5e-9, 1e-9, 1.0000001e-9, 2e-9, 1.0]),
)
@settings(max_examples=200, deadline=None)
def test_dense_operator_hermitian_check_matches_allclose(entries, skew):
    # On finite input the one-reduction check refuses exactly what
    # np.allclose(atol=NORMALIZATION_TOL, rtol=0) refused.
    mat = np.array(entries, dtype=complex).reshape(2, 2)
    mat = (mat + mat.conj().T) / 2.0
    mat[0, 1] += skew
    accepted = np.allclose(mat, mat.conj().T, atol=NORMALIZATION_TOL, rtol=0.0)
    try:
        DenseOperator(((0,), (1,)), mat)
    except ValueError as exc:
        assert not accepted and "not Hermitian" in str(exc)
    else:
        assert accepted


def test_dense_basis_reuse_keeps_the_refusal_set():
    # A checked basis is remembered by object, never by equality, so every
    # basis refused before the good one was built is still refused after.
    good = ((0,), (1,))
    DenseOperator(good, np.eye(2) / 2)
    refused = [
        (((True,), (False,)), ValueError),
        (((False,), (True,)), ValueError),
        (((np.bool_(False),), (np.bool_(True),)), ValueError),
        (((0,), (-1,)), ValueError),
        (((0,), (0,)), ValueError),
        (((0,), (0, 1)), ModeMismatchError),
        (tuple((k,) for k in range(257)), DimensionCapError),
    ]
    for basis, error in refused:
        d = len(basis)
        for _ in range(2):  # a refused basis is not remembered either
            with pytest.raises(error):
                DenseOperator(basis, np.eye(d) / d)
    assert DenseOperator(good, np.eye(2) / 2).basis == good


def test_dense_operator_skips_the_checks_of_a_validated_basis(monkeypatch):
    calls = []
    validate = fock.validate_index

    def counted(occ, modes=None):
        calls.append(occ)
        return validate(occ, modes)

    monkeypatch.setattr(fock, "validate_index", counted)
    basis = DenseBasis([(0, 1), [1, 0], (2, 0)])
    assert basis == ((0, 1), (1, 0), (2, 0)) and len(calls) == 3
    assert basis.totals.tolist() == [1, 1, 2] and not basis.totals.flags.writeable
    assert DenseBasis(basis) is basis
    calls.clear()
    op = DenseOperator(basis, np.eye(3) / 3)
    projected, _ = project_below_cutoff(op, 1)
    assert calls == [] and op.basis is basis and projected.basis is basis
    for raw in (tuple(basis), [list(occ) for occ in basis]):
        for _ in range(2):
            calls.clear()
            assert type(DenseOperator(raw, np.eye(3) / 3).basis) is DenseBasis
            assert len(calls) == 3


def test_dense_basis_is_checked_again_when_it_can_change():
    basis = [[0], [1]]
    DenseOperator(basis, np.eye(2) / 2)
    basis[1][0] = -1
    with pytest.raises(ValueError):
        DenseOperator(basis, np.eye(2) / 2)


def test_dense_operator_dimension_cap():
    basis = tuple((k,) for k in range(257))
    with pytest.raises(DimensionCapError):
        DenseOperator(basis, np.zeros((257, 257)))


def test_dense_operator_cutoff_mask_and_from_pure():
    state = PureState(1, {(0,): INV_SQRT2, (2,): INV_SQRT2})
    op = DenseOperator.from_pure_state(state)
    assert op.basis == ((0,), (2,))
    assert list(op.cutoff_mask(1)) == [True, False]
    np.testing.assert_allclose(np.trace(op.matrix), 1.0, atol=1e-12)
    with pytest.raises(BasisMismatchError):
        DenseOperator.from_pure_state(state, basis=((0,), (1,)))


# ---------------------------------------------------------------------------
# Poisson statistics and coherent states

def test_poisson_tail_against_direct_sum():
    # Oracle: 1 - e^{-1}(1 + 1 + 1/2 + 1/6), summed in closed form.
    assert poisson_tail(1.0, 3) == pytest.approx(0.01898815687615374, abs=1e-15)
    assert poisson_tail(0.0, 0) == 0.0


@pytest.mark.parametrize("mean", [0.1, 1.0, 2.5, 7.0])
@pytest.mark.parametrize("cutoff", [0, 1, 4, 11])
def test_poisson_tail_against_scipy(mean, cutoff):
    assert poisson_tail(mean, cutoff) == pytest.approx(
        float(stats.poisson.sf(cutoff, mean)), rel=1e-10, abs=1e-300
    )


@pytest.mark.parametrize("mean, cutoff", [(745.0, 0), (1666.7, 256), (1e6, 256), (1e300, 3)])
def test_poisson_tail_is_one_where_its_first_term_underflows(mean, cutoff):
    # exp(-mean + ...) of the first tail term underflows, yet the tail holds
    # all but an unrepresentable sliver of the mass.
    assert math.exp(-mean + (cutoff + 1) * math.log(mean) - math.lgamma(cutoff + 2)) < 1e-300
    assert poisson_tail(mean, cutoff) == 1.0
    assert poisson_tail(mean, cutoff) == float(stats.poisson.sf(cutoff, mean))


def test_cutoff_for_tail_is_minimal():
    for mean in (0.2, 1.0, 3.0):
        for bound in (1e-2, 1e-6, 1e-10):
            c, tail = cutoff_for_tail(mean, bound)
            assert tail == poisson_tail(mean, c) < bound
            if c > 0:
                assert poisson_tail(mean, c - 1) >= bound
    with pytest.raises(ValueError):
        cutoff_for_tail(1.0, 0.0)


def test_coherent_state_unit_mean_photon_distribution():
    # Oracle: renormalized Poisson(1) weights on 0..3 are exactly
    # (3/8, 3/8, 3/16, 1/16).
    state = coherent_state(1.0, 3)
    dist = photon_number_distribution(state)
    assert dist[0] == pytest.approx(0.375, abs=1e-12)
    assert dist[1] == pytest.approx(0.375, abs=1e-12)
    assert dist[2] == pytest.approx(0.1875, abs=1e-12)
    assert dist[3] == pytest.approx(0.0625, abs=1e-12)


def test_coherent_state_mean_photon_number():
    # At cutoff 20 the Poisson(1) tail is ~1e-20, so the truncated mean
    # is 1 to double precision.
    state = coherent_state(1.0, 20)
    assert mean_photon_number(state) == pytest.approx(1.0, abs=1e-9)
    assert coherent_state(0.0, 5).support_size() == 1


def test_coherent_state_phase_matters():
    plus = coherent_state(0.7, 15)
    minus = coherent_state(-0.7, 15)
    # |<alpha|-alpha>| = exp(-2|alpha|^2) up to the truncated tail.
    assert abs(overlap(plus, minus)) == pytest.approx(math.exp(-2 * 0.49), abs=1e-9)


# ---------------------------------------------------------------------------
# Photon-number observables across representations

def test_mean_and_tail_dispatch_across_kinds():
    pure = PureState(2, {(0, 0): INV_SQRT2, (2, 1): INV_SQRT2})
    assert mean_photon_number(pure) == pytest.approx(1.5, abs=1e-12)
    assert tail_probability(pure, 3) == pytest.approx(0.5, abs=1e-12)

    diag = FockDiagonalState(1, {(0,): 0.25, (4,): 0.75})
    assert mean_photon_number(diag) == pytest.approx(3.0, abs=1e-12)
    assert tail_probability(diag, 4) == pytest.approx(0.75, abs=1e-12)

    dense = DenseOperator(((0,), (1,)), np.array([[0.25, 0.0], [0.0, 0.75]]))
    assert mean_photon_number(dense) == pytest.approx(0.75, abs=1e-12)
    assert tail_probability(dense, 1) == pytest.approx(0.75, abs=1e-12)


def test_product_distribution_matches_materialized():
    f0 = PureState(1, {(0,): math.sqrt(0.2), (1,): math.sqrt(0.8)})
    f1 = PureState(1, {(0,): math.sqrt(0.6), (2,): math.sqrt(0.4)})
    prod = ProductPureState((f0, f1))
    joint = prod.to_pure_state()
    d_prod = photon_number_distribution(prod)
    d_joint = photon_number_distribution(joint)
    assert set(d_prod) == set(d_joint)
    for n in d_prod:
        assert d_prod[n] == pytest.approx(d_joint[n], abs=1e-12)
    assert mean_photon_number(prod) == pytest.approx(mean_photon_number(joint), abs=1e-12)


def test_single_factor_photon_numbers_are_the_direct_weight_sums():
    # One loop over factors serves every kind; with a single factor it must
    # add nothing to the sums read straight off the weights, not even ulps.
    ket = PureState(2, {(0, 1): 0.3, (1, 0): 0.5j, (2, 1): 0.7, (0, 0): 0.1}, normalize=True)
    root = np.array([[0.5, 0.1j, 0.3], [0.2, 0.0, 0.1], [0.4, 0.3j, 0.6]])
    rho = root @ root.conj().T
    rho[1, :] = rho[:, 1] = 0.0  # a zero-weight total, which is omitted
    states = [
        ket,
        FockDiagonalState(1, {(0,): 0.15, (1,): 0.35, (3,): 0.5}),
        DenseOperator(((0,), (1,), (2,)), rho / np.trace(rho).real),
        ProductPureState((ket,)),
    ]
    for state in states:
        (factor,) = state.factors
        weights = list(factor.weights())
        assert mean_photon_number(state) == sum(w * sum(idx) for idx, w in weights)
        direct: dict[int, float] = {}
        for idx, w in weights:
            direct[sum(idx)] = direct.get(sum(idx), 0.0) + w
        expected = [(n, p) for n, p in direct.items() if p != 0.0]
        assert list(photon_number_distribution(state).items()) == expected
    assert 1 not in photon_number_distribution(states[2])


def test_product_and_joint_ket_do_not_mix():
    f = PureState(1, {(0,): 0.6, (1,): 0.8})
    prod = ProductPureState((f, f))
    joint = prod.to_pure_state()
    for metric in (overlap, trace_distance, fidelity):
        for a, b in ((prod, joint), (joint, prod)):
            with pytest.raises((OptSmpError, TypeError)):
                metric(a, b)


# ---------------------------------------------------------------------------
# Tensor products and overlaps

def test_tensor_pure_states():
    a = PureState(1, {(0,): INV_SQRT2, (1,): INV_SQRT2})
    b = PureState.basis_state((3,))
    ab = tensor(a, b)
    assert ab.modes == 2
    assert ab.amplitude((1, 3)) == pytest.approx(INV_SQRT2, abs=1e-12)


def test_tensor_diagonal_states():
    a = FockDiagonalState(1, {(0,): 0.5, (1,): 0.5})
    b = FockDiagonalState.point_mass((2,))
    ab = tensor(a, b)
    assert ab.probability((1, 2)) == pytest.approx(0.5, abs=1e-12)


def test_tensor_kind_mismatch():
    with pytest.raises(TypeError):
        tensor(PureState.basis_state((0,)), FockDiagonalState.point_mass((0,)))


def test_tensor_support_cap():
    big = PureState(
        1, {(k,): 1.0 for k in range(1001)}, normalize=True
    )
    with pytest.raises(SupportCapError):
        tensor(big, big)


def test_overlap_basic_values():
    a = PureState.basis_state((0,))
    b = PureState.basis_state((1,))
    assert overlap(a, b) == 0.0
    assert overlap(a, a) == pytest.approx(1.0, abs=1e-12)
    plus = PureState(1, {(0,): INV_SQRT2, (1,): INV_SQRT2})
    assert overlap(a, plus) == pytest.approx(INV_SQRT2, abs=1e-12)


def test_overlap_factorizes_over_products():
    f = PureState(1, {(0,): 0.6, (1,): 0.8})
    g = PureState(1, {(0,): 0.8, (1,): 0.6})
    prod_fg = ProductPureState((f, g))
    prod_gf = ProductPureState((g, f))
    expected = overlap(f, g) * overlap(g, f)
    assert overlap(prod_fg, prod_gf) == pytest.approx(expected, abs=1e-12)
    assert overlap(prod_fg, prod_gf) == pytest.approx(
        overlap(prod_fg.to_pure_state(), prod_gf.to_pure_state()), abs=1e-12
    )


def test_overlap_mode_mismatch():
    with pytest.raises(ModeMismatchError):
        overlap(PureState.basis_state((0,)), PureState.basis_state((0, 0)))


# ---------------------------------------------------------------------------
# Trace distance and fidelity

def test_metrics_on_orthogonal_and_identical_pure_states():
    a = PureState.basis_state((0,))
    b = PureState.basis_state((1,))
    assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)
    assert trace_distance(a, a) == 0.0
    assert fidelity(a, b) == 0.0
    assert fidelity(a, a) == pytest.approx(1.0, abs=1e-12)


def test_phase_rotated_copy_is_at_distance_zero():
    # |<a|b>| rounds one ulp below 1 here; sqrt(1 - |<a|b>|^2) gave 1.49e-8.
    amps = {(0,): 0.1, (1,): 0.5}
    a = PureState(1, amps, normalize=True)
    b = PureState(1, {occ: 1j * c for occ, c in amps.items()}, normalize=True)
    assert trace_distance(a, b) == 0.0
    assert fidelity(a, b) == 1.0


def test_pure_state_metric_identity():
    a = PureState(1, {(0,): 0.6, (1,): 0.8})
    b = PureState(1, {(0,): 0.8, (1,): 0.6})
    f = fidelity(a, b)
    assert f == pytest.approx(0.96, abs=1e-12)
    assert trace_distance(a, b) == pytest.approx(math.sqrt(1 - 0.96**2), abs=1e-12)


def test_diagonal_metrics_are_tv_and_bhattacharyya():
    p = FockDiagonalState(1, {(0,): 0.5, (1,): 0.5})
    q = FockDiagonalState(1, {(0,): 0.25, (2,): 0.75})
    assert trace_distance(p, q) == pytest.approx(0.75, abs=1e-12)
    assert fidelity(p, q) == pytest.approx(math.sqrt(0.125), abs=1e-12)


def test_dense_metrics_match_pure_computation():
    a = PureState(1, {(0,): 0.6, (1,): 0.8})
    b = PureState(1, {(0,): 0.8, (1,): 0.6})
    basis = ((0,), (1,))
    da = DenseOperator.from_pure_state(a, basis)
    db = DenseOperator.from_pure_state(b, basis)
    assert trace_distance(da, db) == pytest.approx(trace_distance(a, b), abs=1e-9)
    assert fidelity(da, db) == pytest.approx(fidelity(a, b), abs=1e-9)


def test_dense_fidelity_of_disjoint_kets_is_zero():
    # Square roots of the rounding-level eigenvalues of each projector gave
    # dense fidelities up to 1.1e-8 for 24 of these 30 pairs.
    rng = np.random.default_rng(4)
    occs = [(i, j) for i in range(3) for j in range(3)]
    basis = tuple(occs[:6])
    for _ in range(30):
        order = rng.permutation(6)
        a = PureState(2, {basis[k]: complex(*rng.normal(size=2)) for k in order[:3]}, normalize=True)
        b = PureState(2, {basis[k]: complex(*rng.normal(size=2)) for k in order[3:]}, normalize=True)
        da = DenseOperator.from_pure_state(a, basis)
        db = DenseOperator.from_pure_state(b, basis)
        assert fidelity(a, b) == 0.0
        assert fidelity(da, db) <= 1e-12


def test_metrics_enforce_matching_kinds_and_bases():
    pure = PureState.basis_state((0,))
    diag = FockDiagonalState.point_mass((0,))
    with pytest.raises(TypeError):
        trace_distance(pure, diag)
    da = DenseOperator(((0,),), np.array([[1.0]]))
    db = DenseOperator(((1,),), np.array([[1.0]]))
    with pytest.raises(BasisMismatchError):
        trace_distance(da, db)


# ---------------------------------------------------------------------------
# Property tests on random sparse states

_occs = st.tuples(st.integers(0, 3), st.integers(0, 3))
_amps = st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)


@st.composite
def pure_states(draw):
    entries = draw(st.dictionaries(_occs, _amps, min_size=1, max_size=8))
    assume(sum(abs(c) ** 2 for c in entries.values()) > 1e-6)
    return PureState(2, entries, normalize=True)


@given(a=pure_states(), b=pure_states())
@settings(max_examples=60, deadline=None)
def test_property_trace_distance_symmetry(a, b):
    assert abs(trace_distance(a, b) - trace_distance(b, a)) <= 1e-12


@given(a=pure_states(), b=pure_states(), c=pure_states())
@settings(max_examples=60, deadline=None)
def test_property_triangle_inequality(a, b, c):
    assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12


@given(a=pure_states(), b=pure_states())
@settings(max_examples=60, deadline=None)
def test_property_fidelity_trace_distance_sandwich(a, b):
    t = trace_distance(a, b)
    f = fidelity(a, b)
    assert 1.0 - f <= t + 1e-12
    assert t <= math.sqrt(max(0.0, 1.0 - f * f)) + 1e-12


@given(a=pure_states(), b=pure_states())
@settings(max_examples=60, deadline=None)
def test_property_tensor_mean_photons_add(a, b):
    ab = tensor(a, b)
    assert mean_photon_number(ab) == pytest.approx(
        mean_photon_number(a) + mean_photon_number(b), abs=1e-9
    )


@given(state=pure_states(), threshold=st.integers(0, 7))
@settings(max_examples=60, deadline=None)
def test_property_tail_decreases_in_threshold(state, threshold):
    assert tail_probability(state, threshold) >= tail_probability(state, threshold + 1) - 1e-15
    total = sum(photon_number_distribution(state).values())
    assert total == pytest.approx(1.0, abs=1e-9)
