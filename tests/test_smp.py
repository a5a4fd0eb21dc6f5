"""Protocols, referees, the beamsplitter, and the brute-force cost oracle."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from optsmp import report as report_module
from optsmp import smp, truncation, verify
from optsmp.errors import ConfigError, InputCapError, ModeMismatchError, PhotonCapError
from optsmp.fock import (
    FockDiagonalState,
    ProductPureState,
    PureState,
    coherent_state,
    mean_photon_number,
    overlap,
    tensor,
)
from optsmp.smp import (
    DiagonalMapReferee,
    InterferenceVacuumReferee,
    RepetitionCode,
    SmpProtocol,
    XorFoldCode,
    apply_beamsplitter,
    beamsplitter_pair,
    coherent_accept_probability,
    coherent_fingerprint_protocol,
    deterministic_cc_matrix,
    equality_function,
    evaluate_error,
    letter_per_input,
    load_protocol,
    trivial_classical_protocol,
)
from optsmp.truncation import transform_protocol
from optsmp.verify import DenseOperator

INV_SQRT2 = 1.0 / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Equality and codes

def test_equality_function_is_the_identity_matrix_of_ints():
    eq = equality_function(2)
    assert eq == [[int(x == y) for y in range(4)] for x in range(4)]
    assert all(type(v) is int for row in eq for v in row)


def test_repetition_code():
    code = RepetitionCode(2, 3)
    assert code.m == 6
    assert code.min_distance == 3
    # bit 0 is the least significant input bit
    assert code.encode(0b01) == (1, 1, 1, 0, 0, 0)
    assert code.encode(0b10) == (0, 0, 0, 1, 1, 1)
    with pytest.raises(ConfigError):
        RepetitionCode(0, 3)


def test_identity_and_xor_fold_codes():
    assert RepetitionCode(3, 1).encode(0b101) == (1, 0, 1)
    fold = XorFoldCode(4, 2)
    # bits 0,2 fold into slot 0; bits 1,3 into slot 1
    assert fold.encode(0b0101) == (0, 0)
    assert fold.encode(0b0001) == (1, 0)
    with pytest.raises(ConfigError):
        XorFoldCode(2, 3)


# ---------------------------------------------------------------------------
# Beamsplitter

def test_beamsplitter_single_photon():
    out = beamsplitter_pair(PureState.basis_state((1,)), PureState.basis_state((0,)))
    assert out.amplitude((1, 0)) == pytest.approx(INV_SQRT2, abs=1e-12)
    assert out.amplitude((0, 1)) == pytest.approx(INV_SQRT2, abs=1e-12)


def test_beamsplitter_two_photon_interference():
    # |1,1> -> (|2,0> - |0,2>)/sqrt(2): the coincidence term cancels.
    out = beamsplitter_pair(PureState.basis_state((1,)), PureState.basis_state((1,)))
    assert out.amplitude((1, 1)) == 0.0
    assert abs(out.amplitude((2, 0))) == pytest.approx(INV_SQRT2, abs=1e-12)
    assert abs(out.amplitude((0, 2))) == pytest.approx(INV_SQRT2, abs=1e-12)


def test_beamsplitter_preserves_photon_number_and_norm():
    state = PureState(2, {(0, 3): 0.6, (2, 1): 0.8})
    out = apply_beamsplitter(state, 0, 1)
    assert all(sum(idx) in (3,) for idx in out.amplitudes)
    total = sum(abs(c) ** 2 for c in out.amplitudes.values())
    assert total == pytest.approx(1.0, abs=1e-12)


def test_beamsplitter_merges_equal_coherent_states():
    # |alpha>|alpha> -> |sqrt(2) alpha>|0>: all light exits the sum port.
    a = coherent_state(0.6, 18)
    merged = beamsplitter_pair(a, a)
    target = tensor(coherent_state(0.6 * math.sqrt(2.0), 25), PureState.basis_state((0,)))
    assert abs(overlap(merged, target)) == pytest.approx(1.0, abs=1e-10)


def test_beamsplitter_opposite_phases_light_the_difference_port():
    # Opposite-phase inputs steer amplitude sqrt(2)*alpha onto the difference
    # port, whose vacuum probability is then exp(-2|alpha|^2).
    a = coherent_state(0.6, 18)
    out = beamsplitter_pair(a, coherent_state(-0.6, 18))
    dark = sum(abs(c) ** 2 for idx, c in out.amplitudes.items() if idx[1] == 0)
    assert dark == pytest.approx(math.exp(-2 * 0.36), abs=1e-10)


def test_beamsplitter_mode_validation():
    state = PureState.basis_state((1, 0))
    with pytest.raises(ModeMismatchError):
        apply_beamsplitter(state, 0, 0)
    with pytest.raises(ModeMismatchError):
        apply_beamsplitter(state, 0, 2)
    with pytest.raises(ModeMismatchError):
        beamsplitter_pair(state, state)


# ---------------------------------------------------------------------------
# Referees

def test_interference_referee_paths_agree():
    plus = coherent_state(0.5, 8)
    minus = coherent_state(-0.5, 8)
    a = ProductPureState((plus, minus))
    b = ProductPureState((plus, plus))
    referee = InterferenceVacuumReferee()
    fast = referee.output_one_probability(a, b)
    flat = referee.output_one_probability(a.to_pure_state(), b.to_pure_state())
    assert flat == pytest.approx(fast, abs=1e-12)


def _materialised_dark_probability(a, b):
    """Reference: build the 2m-mode output ket, then take its dark-port mass."""
    m = a.modes
    joint = tensor(a, b)
    for i in range(m):
        joint = apply_beamsplitter(joint, i, m + i)
    return sum(abs(c) ** 2 for idx, c in joint.amplitudes.items() if not any(idx[m:]))


def _random_ket(rng, modes):
    amps = {
        tuple(int(k) for k in rng.integers(0, 5, size=modes)): complex(*rng.normal(size=2))
        for _ in range(int(rng.integers(1, 7)))
    }
    return PureState(modes, amps, normalize=True)


def test_dark_port_sum_matches_materialised_beamsplitter_on_random_kets():
    rng = np.random.default_rng(20)
    referee = InterferenceVacuumReferee()
    for _ in range(40):
        modes = int(rng.integers(1, 4))
        a, b = _random_ket(rng, modes), _random_ket(rng, modes)
        expected = _materialised_dark_probability(a, b)
        assert referee.output_one_probability(a, b) == pytest.approx(expected, abs=1e-12)


def _counted_sums(monkeypatch) -> list:
    calls = []
    interfere = smp._dark_probability

    def counted(a, b):
        calls.append((a, b))
        return interfere(a, b)

    monkeypatch.setattr(smp, "_dark_probability", counted)
    return calls


def _flipped(amps, s):
    """D_s of a ket's amplitudes: each one negated when its occupation holds
    an odd number of photons in the modes of the bit mask ``s``."""
    return {
        idx: -amp if sum(n for i, n in enumerate(idx) if s >> i & 1) % 2 else amp
        for idx, amp in amps.items()
    }


def test_dark_port_sum_is_unchanged_bit_for_bit_by_a_common_sign_flip():
    rng = np.random.default_rng(14)
    for _ in range(300):
        modes = int(rng.integers(1, 4))
        a, b = _random_ket(rng, modes).amplitudes, _random_ket(rng, modes).amplitudes
        s = int(rng.integers(0, 1 << modes))
        assert smp._dark_probability(_flipped(a, s), _flipped(b, s)) == smp._dark_probability(a, b)


def test_sign_flipped_letters_share_one_dark_port_sum(monkeypatch):
    calls = _counted_sums(monkeypatch)
    rng = np.random.default_rng(15)
    for _ in range(20):
        modes = int(rng.integers(1, 4))
        # Every single-photon occupation is in the support, so each flip
        # of a mode set shows on it.
        singles = {tuple(int(i == j) for j in range(modes)): 0.3 for i in range(modes)}
        a, b = (
            PureState(modes, {**singles, **_random_ket(rng, modes).amplitudes}, normalize=True)
            for _ in range(2)
        )
        referee = InterferenceVacuumReferee()
        flips = rng.integers(0, 1 << modes, size=(8, 2)).tolist()
        del calls[:]
        for s_a, s_b in flips:
            fa = PureState(modes, _flipped(a.amplitudes, s_a))
            fb = PureState(modes, _flipped(b.amplitudes, s_b))
            direct = smp._dark_probability(fa.amplitudes, fb.amplitudes)
            assert referee.pair_probability(fa, fb) == direct
        assert len(calls) == 8 + len({s_a ^ s_b for s_a, s_b in flips})


def test_equal_magnitudes_without_a_per_mode_sign_pattern_get_their_own_sum(monkeypatch):
    # Negating |1,1> alone keeps every magnitude, but no set of modes flips
    # that one sign: the second letter is no sign flip of the first.
    amps = {(0, 0): 0.5, (1, 0): 0.5, (0, 1): 0.5, (1, 1): 0.5}
    a = PureState(2, amps)
    c = PureState(2, {**amps, (1, 1): -0.5})
    b = PureState(2, {(0, 0): 0.6, (1, 0): 0.64, (0, 1): 0.48})
    calls = _counted_sums(monkeypatch)
    referee = InterferenceVacuumReferee()
    p_ab, p_cb = referee.pair_probability(a, b), referee.pair_probability(c, b)
    assert len(calls) == 2
    assert p_cb == smp._dark_probability(c.amplitudes, b.amplitudes) != p_ab


@pytest.mark.parametrize(
    "n, repeats, mu, delta",
    [
        (1, 3, 1.1, 0.3),
        (1, 4, 1.0, 0.3),
        (2, 2, 1.0, 0.4),
        (1, 2, 2.0, 0.1),
        (2, 1, 2.0, 0.08),
        (1, 2, 1.0, 0.06),
    ],
)
def test_dark_port_sum_matches_materialised_beamsplitter_on_projected_messages(n, repeats, mu, delta):
    # The referee of a binding truncation runs one collective dark-port sum
    # per codeword distance; the reference joins each message into its
    # m-mode ket, projects it and interferes a pair on m beamsplitters.
    # Within the letters' per-mode cut c1 both project the same state. Past
    # it (the last three cases: a = 20, 25 and 16 against c1 = 13, 13 and
    # 10) the referee projects the exact coherent messages, which the cut
    # letters miss by about twice message_tail.
    protocol = coherent_fingerprint_protocol(n, RepetitionCode(n, repeats), mu)
    truncated = transform_protocol(protocol, delta)
    cutoff, c1 = truncated.referee.cutoff, protocol.letters[0].max_total_photons()
    assert protocol.message(0).max_total_photons() > cutoff
    tol = 1e-13 if cutoff <= c1 else 2.0 * protocol.message_tail + 1e-13
    # One pair (0, y) per codeword distance: y = 2^k - 1 has distance k * repeats.
    first = protocol.message(0)
    projected = truncation.project_below_cutoff(first, cutoff)[0]
    for y in (2**k - 1 for k in range(n + 1)):
        message = protocol.message(y)
        expected = _materialised_dark_probability(projected, truncation.project_below_cutoff(message, cutoff)[0])
        got = truncated.referee.output_one_probability(first, message)
        assert got == pytest.approx(expected, abs=tol), (y, got - expected)


@pytest.mark.parametrize("alpha, beta", [(0.6, -0.6), (1.5j, -1.5j), (8.0, 7.5)])
def test_interference_of_coherent_factors_matches_closed_form(alpha, beta):
    # The difference port carries a coherent state of amplitude
    # (alpha - beta)/sqrt(2), dark with probability exp(-|alpha - beta|^2 / 2):
    # exp(-2|alpha|^2) for opposite phases. At alpha = 8 a mode pair holds
    # up to 380 photons, past the range of float factorials.
    cutoff = int(abs(alpha) ** 2 + 12 * abs(alpha) + 30)
    a = ProductPureState((coherent_state(alpha, cutoff),))
    b = ProductPureState((coherent_state(beta, cutoff),))
    expected = math.exp(-abs(alpha - beta) ** 2 / 2)
    p = InterferenceVacuumReferee().output_one_probability(a, b)
    assert p == pytest.approx(expected, abs=1e-12)


def test_interference_referee_refuses_too_energetic_inputs():
    a = ProductPureState((PureState.basis_state((300,)),))
    b = ProductPureState((PureState.basis_state((213,)),))
    with pytest.raises(ConfigError, match="513 photons"):
        InterferenceVacuumReferee().output_one_probability(a, b)


def test_interference_referee_identical_messages_accept():
    plus = coherent_state(0.4, 10)
    msg = ProductPureState((plus, plus))
    referee = InterferenceVacuumReferee()
    assert referee.output_one_probability(msg, msg) == pytest.approx(1.0, abs=1e-9)


def test_interference_referee_refuses_mismatched_factor_layouts():
    plus = coherent_state(0.4, 10)
    pair = ProductPureState((plus, plus))
    two_mode = pair.to_pure_state()
    referee = InterferenceVacuumReferee()
    with pytest.raises(ModeMismatchError, match="factor counts"):
        referee.output_one_probability(pair, two_mode)
    a = ProductPureState((plus, two_mode))
    b = ProductPureState((two_mode, plus))
    with pytest.raises(ModeMismatchError, match="factor mode mismatch"):
        referee.output_one_probability(a, b)


def test_diagonal_referee_measures_pure_messages_in_the_occupation_basis():
    # The probability that both occupation-basis outcomes agree.
    referee = DiagonalMapReferee()
    a = PureState.basis_state((1,))
    assert referee.output_one_probability(a, a) == 1.0
    assert referee.output_one_probability(a, PureState.basis_state((0,))) == 0.0
    plus = PureState(1, {(0,): INV_SQRT2, (1,): INV_SQRT2})
    assert referee.output_one_probability(plus, a) == pytest.approx(0.5, abs=1e-12)


def test_diagonal_referee_reads_diagonal_and_dense_messages():
    referee = DiagonalMapReferee()
    a = FockDiagonalState(1, {(0,): 0.5, (1,): 0.5})
    assert referee.output_one_probability(a, a) == pytest.approx(0.5, abs=1e-12)
    dense = DenseOperator.from_pure_state(PureState(1, {(0,): INV_SQRT2, (1,): INV_SQRT2}))
    one = FockDiagonalState.point_mass((1,))
    assert referee.output_one_probability(dense, one) == pytest.approx(0.5, abs=1e-12)
    # A dense message is its own single letter in the protocol's mean check.
    messages = tuple(DenseOperator(((0,), (1,)), np.diag([1.0 - 0.3 * x, 0.3 * x])) for x in (0, 1))
    protocol = SmpProtocol("dense", 1, 1, 1.0, messages, letter_per_input, referee)
    assert evaluate_error(protocol).worst_error == pytest.approx(0.7, abs=1e-12)


def _same_outcome_by_rule_loop(a, b):
    """The same-outcome probability as a double loop over every outcome pair
    weighted by the rule ``ia == ib``: an oracle for the referee."""
    p = 0.0
    for ia, pa in a.weights():
        for ib, pb in b.weights():
            p += pa * pb * (1.0 if ia == ib else 0.0)
    return min(max(p, 0.0), 1.0)


def _random_weighted_messages(rng, count):
    """Pure, Fock-diagonal and dense two-mode messages, each on a random
    support of one to eight occupations below 3 photons per mode."""
    messages = []
    for _ in range(count):
        size = int(rng.integers(1, 9))
        picks = rng.choice(9, size=size, replace=False)
        support = [(int(k) // 3, int(k) % 3) for k in picks]
        amps = rng.normal(size=size) + 1j * rng.normal(size=size)
        messages.append(PureState(2, dict(zip(support, amps)), normalize=True))
        probs = rng.random(size) + 0.01
        messages.append(FockDiagonalState(2, dict(zip(support, probs)), normalize=True))
        root = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        rho = root @ root.conj().T
        messages.append(DenseOperator(tuple(support), rho / np.trace(rho).real))
    return messages


def test_diagonal_referee_equals_the_rule_loop_bit_for_bit():
    # 36 one-letter messages on the 64 inputs of n=6 (input x sends letter
    # x mod 36), so the exhaustive pairs meet every letter pair.
    rng = np.random.default_rng(2024)
    messages = tuple(_random_weighted_messages(rng, 12))
    referee = DiagonalMapReferee()
    size = len(messages)
    protocol = SmpProtocol(
        "weighted", 6, 2, 4.0, messages, lambda xs: (np.asarray(xs) % size)[:, None], referee
    )
    report = evaluate_error(protocol)
    disjoint = 0
    for x, y, f, p_error in report.pair_errors:
        a, b = messages[x % size], messages[y % size]
        expected = _same_outcome_by_rule_loop(a, b)
        assert referee.output_one_probability(a, b) == expected
        assert p_error == (1.0 - expected if f else expected)
        disjoint += not {idx for idx, _ in a.weights()} & {idx for idx, _ in b.weights()}
    assert disjoint > 0


def test_diagonal_oracle_reads_whole_messages_however_factored():
    # Same-outcome probability depends on the joint weights only, so a
    # product and its own joint ket agree with certainty.
    referee = DiagonalMapReferee()
    product = ProductPureState(PureState.basis_state((k,)) for k in (1, 0, 1))
    assert referee.output_one_probability(product, product.to_pure_state()) == 1.0
    assert referee.output_one_probability(product, PureState.basis_state((1, 1, 1))) == 0.0


# ---------------------------------------------------------------------------
# Protocol construction and validation

def _basis_letters(*occupations) -> tuple[PureState, ...]:
    return tuple(PureState.basis_state(occ) for occ in occupations)


def test_protocol_rejects_mode_count_mismatch():
    with pytest.raises(ConfigError, match="x=0 has 2 modes"):
        SmpProtocol(
            name="bad",
            n=1,
            m=1,
            mu=1.0,
            letters=_basis_letters((0, 0), (1, 0)),
            codewords=letter_per_input,
            referee=DiagonalMapReferee(),
        )


def test_protocol_rejects_energy_budget_violation():
    with pytest.raises(ConfigError, match="x=0 has mean photon number 2.0 above mu=1.0"):
        SmpProtocol(
            name="hot",
            n=1,
            m=1,
            mu=1.0,
            letters=_basis_letters((2,), (3,)),
            codewords=letter_per_input,
            referee=DiagonalMapReferee(),
        )


def test_protocol_rejects_bad_referee_and_table():
    letters = _basis_letters((0,), (1,))
    with pytest.raises(ConfigError, match="referee"):
        SmpProtocol(
            name="r", n=1, m=1, mu=1.0,
            letters=letters,
            codewords=letter_per_input,
            referee=object(),
        )
    bad_tables = {
        "one integer row per input": lambda xs: np.asarray(xs),
        "index the 2 letters": lambda xs: np.asarray(xs)[:, None] + 1,
    }
    for match, codewords in bad_tables.items():
        with pytest.raises(ConfigError, match=match):
            SmpProtocol("t", 1, 1, 1.0, letters, codewords, DiagonalMapReferee())
    # |00> and |0> at two positions make three modes either way round, but
    # letters of different sizes share no occupation to compare.
    with pytest.raises(ConfigError, match="letter 1 has 1 modes, letter 0 has 2"):
        SmpProtocol(
            "sizes", 1, 3, 1.0, _basis_letters((0, 0), (0,)),
            lambda xs: np.array([[0, 1], [1, 0]])[xs], DiagonalMapReferee(),
        )
    with pytest.raises(ConfigError, match="letter 0 has 2 factors"):
        SmpProtocol(
            "p", 1, 2, 2.0, (ProductPureState(letters),), lambda xs: np.zeros((len(xs), 1), int),
            InterferenceVacuumReferee(),
        )


# ---------------------------------------------------------------------------
# Error evaluation

def _toy() -> SmpProtocol:
    return SmpProtocol(
        name="toy", n=1, m=1, mu=1.0,
        letters=_basis_letters((0,), (1,)),
        codewords=letter_per_input,
        referee=DiagonalMapReferee(),
    )


def test_exhaustive_evaluation_of_zero_error_protocol():
    report = evaluate_error(_toy())
    assert report.worst_error == 0.0
    assert len(report.pair_errors) == 4
    assert [r[:2] for r in report.pair_errors] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert report.seed is None
    lines = "".join(report_module.csv_rows(report)).splitlines()
    assert lines[0] == "0,0,1,0.0"


def test_sampled_evaluation_is_deterministic_per_seed():
    protocol = _toy()
    r1 = evaluate_error(protocol, samples=20, seed=5)
    r2 = evaluate_error(protocol, samples=20, seed=5)
    assert r1.pair_errors == r2.pair_errors
    assert r1.seed == 5
    r3 = evaluate_error(protocol, samples=20, seed=6)
    assert r3.pair_errors != r1.pair_errors


def test_sampled_evaluation_requires_seed_and_samples():
    with pytest.raises(ConfigError):
        evaluate_error(_toy(), samples=10)
    with pytest.raises(ConfigError):
        evaluate_error(_toy(), seed=1)
    with pytest.raises(ConfigError):
        evaluate_error(_toy(), samples=0, seed=1)


def test_exhaustive_evaluation_encodes_each_message_once():
    n = 3
    protocol = coherent_fingerprint_protocol(n, RepetitionCode(n, 2), 2.0)
    calls = []

    def counted(xs):
        calls.append(xs.tolist())
        return protocol.codewords(xs)

    # Construction encodes and checks all 2^n inputs in one call; the 4^n
    # pairs read its rows.
    counted_protocol = dataclasses.replace(protocol, codewords=counted)
    report = evaluate_error(counted_protocol)
    assert len(report.pair_errors) == 4**n
    assert calls == [list(range(1 << n))]


@pytest.mark.parametrize(
    "occupation, match",
    [((0, 0), "x=923 has 2 modes"), ((2,), "x=923 has mean photon")],
    ids=["mode-count", "energy"],
)
def test_sampled_evaluation_checks_messages_beyond_table_range(occupation, match):
    # Above TABLE_N_CAP no row is built at construction; each is still
    # checked when sampled evaluation first reads it, the smallest drawn
    # input (923) first.
    protocol = SmpProtocol(
        name="wide", n=13, m=1, mu=1.0,
        letters=_basis_letters(occupation),
        codewords=lambda xs: np.zeros((len(xs), 1), dtype=np.intp),
        referee=DiagonalMapReferee(),
    )
    with pytest.raises(ConfigError, match=match):
        evaluate_error(protocol, samples=3, seed=0)


def _counted_messages(monkeypatch) -> list:
    """Record every ``SmpProtocol.message`` call and ``ProductPureState``
    construction from here on."""
    built = []
    message, product = SmpProtocol.message, ProductPureState.__init__

    def counted_message(self, x):
        built.append(("message", x))
        return message(self, x)

    def counted_product(self, factors):
        built.append(("product", None))
        product(self, factors)

    monkeypatch.setattr(SmpProtocol, "message", counted_message)
    monkeypatch.setattr(ProductPureState, "__init__", counted_product)
    return built


@pytest.mark.parametrize(
    "build, samples",
    [
        (lambda: coherent_fingerprint_protocol(8, RepetitionCode(8, 3), 2.0), None),
        (lambda: coherent_fingerprint_protocol(10, RepetitionCode(10, 2), 1.7), 512),
        (lambda: trivial_classical_protocol(7, XorFoldCode(7, 5)), None),
    ],
    ids=["qfp-n8", "qfp-n10-sampled", "classical-xor-n7-m5"],
)
def test_evaluation_builds_no_message_object(monkeypatch, build, samples):
    built = _counted_messages(monkeypatch)
    protocol = build()
    report = evaluate_error(protocol, samples=samples, seed=None if samples is None else 1)
    assert len(report.pair_errors) == (samples or 4**protocol.n)
    assert built == []
    # The one-pair oracle still builds its messages on demand.
    protocol.message(1)
    assert built[0] == ("message", 1)


# ---------------------------------------------------------------------------
# Coherent fingerprinting

def test_pair_cache_interferes_each_factor_pair_once(monkeypatch):
    calls = _counted_sums(monkeypatch)
    report = evaluate_error(coherent_fingerprint_protocol(4, RepetitionCode(4, 3), 2.0))
    assert len(report.pair_errors) == 256
    # |-alpha> is the sign flip of |+alpha>, so the four factor pairs fall
    # into two sign classes: equal letters and opposite letters.
    assert len(calls) == 2


def test_binding_truncation_runs_one_sum_per_distance(monkeypatch):
    # At a=2 the 256 pairs of qfp n=4 with repeats 3 meet the five codeword
    # distances 0, 3, 6, 9 and 12: five dark-port sums, and every pair reads
    # the one at its distance.
    protocol = coherent_fingerprint_protocol(4, RepetitionCode(4, 3), 2.0)
    truncated = transform_protocol(protocol, 0.667)
    assert protocol.message(0).max_total_photons() > 2 == truncated.referee.cutoff
    calls = _counted_sums(monkeypatch)
    report = evaluate_error(truncated)
    assert len(calls) == 5
    for x, y, f, p_error in report.pair_errors:
        direct = truncated.referee.accept(3 * bin(x ^ y).count("1"))
        assert p_error == (1.0 - direct if f else direct)
    assert len(calls) == 5


def test_fingerprint_matches_closed_form():
    protocol = coherent_fingerprint_protocol(2, RepetitionCode(2, 3), 2.0)
    assert protocol.m == 6
    assert protocol.message_tail < 1e-10
    report = evaluate_error(protocol)
    for x, y, f, p_error in report.pair_errors:
        distance = bin(x ^ y).count("1") * 3
        accept = coherent_accept_probability(2.0, 6, distance)
        expected = 1.0 - accept if f == 1 else accept
        assert p_error == pytest.approx(expected, abs=1e-9)


def test_fingerprint_error_drops_below_third_with_more_energy():
    # At total energy 2.4 over 12 modes the distance-3 accept probability is
    # exp(-1.2) ~ 0.3012, strictly below 1/3.
    protocol = coherent_fingerprint_protocol(4, RepetitionCode(4, 3), 2.4)
    report = evaluate_error(protocol)
    assert report.worst_error == pytest.approx(math.exp(-1.2), abs=1e-9)
    assert report.worst_error < 1.0 / 3.0


@pytest.mark.parametrize("n, mu", [(5, 1.3), (3, 1.0)])
def test_worst_pair_is_the_first_of_the_tied_pairs(n, mu):
    # Every pair at the minimum distance ties on paper; their float errors
    # differ in the last bits, and (0, 1) is the first of them.
    report = evaluate_error(coherent_fingerprint_protocol(n, RepetitionCode(n, 2), mu))
    assert report.worst_error == max(p for _, _, _, p in report.pair_errors)
    tied = {p for x, y, _, p in report.pair_errors if report.worst_error - p <= 1e-12}
    assert len(tied) > 1
    assert report.worst_pair == (0, 1)


def test_fingerprint_refuses_cutoffs_past_half_the_pair_photon_cap(monkeypatch):
    # A mode pair of two messages holds twice the per-mode cutoff, so no
    # cutoff above 256 is built; the refusal comes before the cutoff search.
    searched = []
    search = smp.cutoff_for_tail
    monkeypatch.setattr(smp, "cutoff_for_tail", lambda *a: searched.append(a) or search(*a))
    protocol = coherent_fingerprint_protocol(1, RepetitionCode(1, 1), 100.0)
    assert protocol.letters[0].max_total_photons() == search(100.0, 1e-10)[0] <= 256
    assert len(searched) == 1
    for mu in (300.0, 1666.7, 1e6):
        with pytest.raises(PhotonCapError, match="above 256 photons"):
            coherent_fingerprint_protocol(1, RepetitionCode(1, 1), mu)
    assert len(searched) == 1


def test_fingerprint_rejects_mismatched_code():
    with pytest.raises(ConfigError):
        coherent_fingerprint_protocol(3, RepetitionCode(2, 3), 1.0)


def test_trivial_classical_protocol_is_exact():
    protocol = trivial_classical_protocol(3)
    assert protocol.mu == 3.0  # heaviest 3-bit codeword
    report = evaluate_error(protocol)
    assert report.worst_error == 0.0


def test_trivial_classical_protocol_encodes_each_input_once():
    n = 5
    calls = []

    class CountedCode(XorFoldCode):
        def codewords(self, xs):
            calls.append(xs.tolist())
            return super().codewords(xs)

    protocol = trivial_classical_protocol(n, CountedCode(n, 3))
    evaluate_error(protocol)
    # The message table encodes all inputs in one call; mu is the code length.
    assert calls == [list(range(1 << n))]
    assert protocol.mu == 3.0


@pytest.mark.parametrize("n", range(1, 9))
def test_trivial_classical_mu_is_the_heaviest_codeword_weight(n):
    codes = [RepetitionCode(n, 1), RepetitionCode(n, 2)]
    codes += [XorFoldCode(n, m) for m in range(1, n + 1)]
    for code in codes:
        heaviest = max(sum(code.encode(x)) for x in range(1 << n))
        assert trivial_classical_protocol(n, code).mu == heaviest


def test_message_check_computes_each_factor_mean_once(monkeypatch):
    calls = []
    mean = smp.mean_photon_number

    def counted(state):
        calls.append(state)
        return mean(state)

    monkeypatch.setattr(smp, "mean_photon_number", counted)
    protocol = coherent_fingerprint_protocol(6, RepetitionCode(6, 2), 2.0)
    # Two single-mode letters (+alpha and -alpha) across 64 messages.
    assert calls == list(protocol.letters) and len(calls) == 2
    assert all(state.modes == 1 for state in calls)
    # Each row's mean is the factor-order sum of its message, bit for bit,
    # across 12 positions (past numpy's 8-wide pairwise blocks).
    inputs = np.arange(1 << 6)
    modes, means = protocol._row_sums(protocol.rows(inputs))
    for x in inputs.tolist():
        msg = protocol.message(x)
        assert means[x] == mean(msg) and modes == msg.modes == 12


def test_row_means_add_left_to_right():
    # 40 letters whose means differ in magnitude, so the order of the adds
    # shows in the last bits; rows span 37 positions.
    rng = np.random.default_rng(11)
    letters = tuple(
        PureState(1, {(0,): math.sqrt(1.0 - w), (1,): math.sqrt(w)}) for w in rng.random(40) ** 3
    )
    table = rng.integers(0, 40, size=(16, 37))
    protocol = SmpProtocol(
        "sums", 4, 37, 37.0, letters, lambda xs: table[xs], InterferenceVacuumReferee()
    )
    _, means = protocol._row_sums(protocol.rows(np.arange(16)))
    letter_means = [mean_photon_number(letter) for letter in letters]
    expected = [0.0] * 16
    for x in range(16):
        for s in table[x].tolist():
            expected[x] += letter_means[s]
    assert means.tolist() == expected
    assert expected != np.sum(np.array(letter_means)[table], axis=1).tolist()


@pytest.mark.parametrize(
    "dtype", [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]
)
def test_row_means_are_the_last_of_a_running_sum(dtype):
    rng = np.random.default_rng(12)
    letters = tuple(
        PureState(1, {(0,): math.sqrt(1.0 - w), (1,): math.sqrt(w)}) for w in rng.random(40) ** 3
    )
    table = rng.integers(0, 40, size=(64, 37)).astype(dtype)
    protocol = SmpProtocol(
        "sums", 6, 37, 37.0, letters, lambda xs: table[xs], InterferenceVacuumReferee()
    )
    modes, means = protocol._row_sums(table)
    letter_means = np.array([mean_photon_number(letter) for letter in letters])
    expected = np.add.accumulate(letter_means[table], axis=1)[:, -1]
    assert modes == 37 and means.dtype == expected.dtype
    assert means.tobytes() == expected.tobytes()


@pytest.mark.parametrize("shape", [(100_000, 40), (2, 200_000)])
def test_row_sums_gather_a_bounded_block_of_columns(shape):
    # A gather of every (row, position, field) would hold 64 MB (6.4 MB for
    # the short wide table); one column of 100,000 rows holds 800 kB.
    letters = (PureState.basis_state((0,)), PureState.basis_state((1,)))
    protocol = SmpProtocol("wide", 1, 1, 1.0, letters, letter_per_input, DiagonalMapReferee())
    rows = np.random.default_rng(3).integers(0, 2, size=shape, dtype=np.int8)
    tracemalloc.start()
    try:
        protocol._row_sums(rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 8 * max(shape[0], smp.BLOCK_ROWS)


@pytest.fixture(scope="module")
def wide_qfp():
    # 256 rows of 16,000 int64 letter indices: a 32.8 MB codeword table.
    return load_protocol({"type": "qfp", "n": 8, "mu": 2, "code": {"kind": "repetition", "repeats": 2000}})


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_max_total_photons_sums_the_table_in_column_blocks(wide_qfp):
    tops = np.array([letter.max_total_photons() for letter in wide_qfp.letters])
    top, peak = _traced_peak(wide_qfp.max_total_photons)
    assert top == int(tops[wide_qfp._table].sum(axis=1).max())
    assert peak < wide_qfp._table.nbytes / 4


def test_exhaustive_evaluation_reads_the_table_in_place(wide_qfp):
    report, peak = _traced_peak(lambda: evaluate_error(wide_qfp))
    assert report.worst_error == pytest.approx(coherent_accept_probability(2.0, 16000, 2000), rel=1e-9)
    assert peak < wide_qfp._table.nbytes / 4


def _wide_codewords(calls):
    def codewords(xs):
        calls.append(len(xs))
        return np.zeros((len(xs), 3), dtype=np.int64)

    return codewords


def test_codeword_table_at_the_entry_cap_is_built(monkeypatch):
    # n = 2 and m = 3: 4 rows of 5 entries at construction.
    letters = (PureState.basis_state((0,)), PureState.basis_state((1,)))
    calls = []

    def make():
        return SmpProtocol("cap", 2, 3, 3.0, letters, _wide_codewords(calls), DiagonalMapReferee())

    monkeypatch.setattr(smp, "CODEWORD_ENTRY_CAP", 20)
    assert make()._table.shape == (4, 3) and calls == [4]
    monkeypatch.setattr(smp, "CODEWORD_ENTRY_CAP", 19)
    message = "4 codeword rows of n \\+ m = 5 entries hold 20 entries, above the cap of 19 "
    with pytest.raises(InputCapError, match=message):
        make()
    assert calls == [4]


def test_sampled_draws_at_the_entry_cap_run(monkeypatch):
    # n = 13 has no table; each drawn pair reads two rows of 13 + 13 entries.
    protocol = trivial_classical_protocol(13)
    draws = []
    rng = np.random.default_rng

    def counted_rng(seed):
        draws.append(seed)
        return rng(seed)

    monkeypatch.setattr(smp.np.random, "default_rng", counted_rng)
    monkeypatch.setattr(smp, "CODEWORD_ENTRY_CAP", 2 * 3 * 26)
    assert len(evaluate_error(protocol, samples=3, seed=1).pair_errors) == 3
    assert len(draws) == 1
    with pytest.raises(InputCapError, match="^8 codeword rows of n \\+ m = 26 entries hold 208 "):
        evaluate_error(protocol, samples=4, seed=1)
    assert len(draws) == 1


def test_sampled_rows_above_the_table_cap_count_at_most_every_input(monkeypatch):
    # n = 13 has 8192 inputs: 5000 pairs can read no more distinct rows.
    protocol = trivial_classical_protocol(13)
    monkeypatch.setattr(smp, "CODEWORD_ENTRY_CAP", 8192 * 26)
    assert len(evaluate_error(protocol, samples=5000, seed=1).pair_errors) == 5000
    monkeypatch.setattr(smp, "CODEWORD_ENTRY_CAP", 8192 * 26 - 1)
    with pytest.raises(InputCapError, match="^8192 codeword rows of n \\+ m = 26 entries "):
        evaluate_error(protocol, samples=5000, seed=1)


def test_sampled_rows_of_a_built_table_are_not_counted_again():
    # 256 rows of 8 + 8000 entries are built and checked at construction;
    # 10,000 sampled pairs gather from them, whatever 2 * 10,000 * 8008 is.
    protocol = coherent_fingerprint_protocol(8, RepetitionCode(8, 1000), 2.0)
    assert 2 * 10_000 * (8 + 8000) > smp.CODEWORD_ENTRY_CAP
    report = evaluate_error(protocol, samples=10_000, seed=1)
    assert len(report.pair_errors) == 10_000


def test_sampled_pairs_at_the_samples_cap_are_drawn(monkeypatch):
    protocol = trivial_classical_protocol(2)
    monkeypatch.setattr(smp, "SAMPLES_CAP", 7)
    assert len(evaluate_error(protocol, samples=7, seed=1).pair_errors) == 7
    with pytest.raises(InputCapError, match="^sampled evaluation of 8 pairs is above the cap of 7 "):
        evaluate_error(protocol, samples=8, seed=1)


@pytest.mark.parametrize("n", range(1, 9))
def test_fingerprint_matches_closed_form_at_every_n(n):
    repeats, mu = 2, 2.0
    protocol = coherent_fingerprint_protocol(n, RepetitionCode(n, repeats), mu)
    report = evaluate_error(protocol)
    assert len(report.pair_errors) == 4**n
    accept = [coherent_accept_probability(mu, protocol.m, d * repeats) for d in range(n + 1)]
    worst = 0.0
    for x, y, f, p_error in report.pair_errors:
        assert f == (x == y)
        a = accept[bin(x ^ y).count("1")]
        worst = max(worst, abs(p_error - (1.0 - a if f == 1 else a)))
    assert worst <= 1e-9


# ---------------------------------------------------------------------------
# Array evaluation against the one-pair referee API

def _qfp_case(n, code, mu):
    return lambda: coherent_fingerprint_protocol(n, code, mu)


def _binding_truncation():
    # qfp n=2, one mode per bit, mu=1 at delta=0.4: cutoff a=2 lies below
    # the messages' maximum photon number, so the referee reads each pair's
    # codeword distance.
    protocol = coherent_fingerprint_protocol(2, RepetitionCode(2, 1), 1.0)
    truncated = transform_protocol(protocol, 0.4)
    assert protocol.message(0).max_total_photons() > 2 == truncated.referee.cutoff
    return truncated


def _vacuous_truncation():
    # qfp n=3 at delta=1e-4: cutoff 13000 lies far above every message's
    # maximum photon number, so the table is kept as it is.
    protocol = coherent_fingerprint_protocol(3, RepetitionCode(3, 2), 1.3)
    truncated = transform_protocol(protocol, 1e-4)
    assert truncated.letters is protocol.letters
    return truncated


def _split_letters():
    # Column 0 holds letters 0 and 1, column 1 letters 0 and 2: three
    # letters, no power of two, so the grid reads one table of all three.
    return SmpProtocol(
        name="split",
        n=2,
        m=2,
        mu=3.0,
        letters=_basis_letters((0,), (1,), (2,)),
        codewords=lambda xs: smp._input_bits(xs, 2) * np.array([1, 2]),
        referee=DiagonalMapReferee(),
    )


ONE_PAIR_CASES = {
    "qfp-rep-n1": _qfp_case(1, RepetitionCode(1, 3), 1.1),
    "qfp-rep-n2": _qfp_case(2, RepetitionCode(2, 2), 0.9),
    "qfp-rep-n3": _qfp_case(3, RepetitionCode(3, 2), 1.3),
    "qfp-rep-n4": _qfp_case(4, RepetitionCode(4, 3), 2.2),
    "qfp-xor-n3": _qfp_case(3, XorFoldCode(3, 2), 0.7),
    "qfp-xor-n4": _qfp_case(4, XorFoldCode(4, 3), 1.9),
    "binding-truncation": _binding_truncation,
    "vacuous-truncation": _vacuous_truncation,
    "classical-rep-n3": lambda: trivial_classical_protocol(3, RepetitionCode(3, 2)),
    "classical-xor-n5-m3": lambda: trivial_classical_protocol(5, XorFoldCode(5, 3)),
    "perturbed-toy": lambda: verify._perturbed_toy(0.3, 0.2)[0],
    "split-letters": _split_letters,
}


def _assert_rows_match_one_pair_api(protocol, report):
    rows = list(report.pair_errors)
    assert len(rows) == len(report.pair_errors)
    for x, y, f, p_error in rows:
        assert type(x) is int and type(y) is int and type(f) is int
        assert type(p_error) is float
        assert f == int(x == y)
        p_one = protocol.referee.output_one_probability(protocol.message(x), protocol.message(y))
        assert p_error == (1.0 - p_one if f == 1 else p_one)
    return rows


@pytest.mark.parametrize("case", sorted(ONE_PAIR_CASES))
def test_exhaustive_rows_equal_the_one_pair_api_bit_for_bit(case):
    protocol = ONE_PAIR_CASES[case]()
    report = evaluate_error(protocol)
    rows = _assert_rows_match_one_pair_api(protocol, report)
    size = 1 << protocol.n
    assert [r[:2] for r in rows] == [(x, y) for x in range(size) for y in range(size)]
    assert report.worst_error == max(r[3] for r in rows)


def test_repeated_factor_columns_reuse_one_gather(monkeypatch):
    # Repeats 4: each input bit fills four consecutive positions with the
    # same factor objects, so three runs serve twelve positions; each run's
    # factor is multiplied in four times, bit for bit like the one-pair API.
    # Both letters occur in every run, so each evaluation builds one letter
    # table for all three runs, running the kernel once per letter pair, on
    # the grid (here forced) as in the error profile of x XOR y.
    tables, kernel_calls, runs = [], [], []
    tabulated, column_runs = smp._tabulated, smp._column_runs
    protocol = coherent_fingerprint_protocol(3, RepetitionCode(3, 4), 1.7)
    kernel = protocol.referee.pair_probability

    def counted_kernel(a, b):
        kernel_calls.append((a, b))
        return kernel(a, b)

    monkeypatch.setattr(smp, "_tabulated", lambda *args: tables.append(args) or tabulated(*args))
    monkeypatch.setattr(smp, "_column_runs", lambda rows: runs.append(column_runs(rows)) or runs[-1])
    monkeypatch.setattr(protocol.referee, "pair_probability", counted_kernel)
    with monkeypatch.context() as patch:
        patch.setattr(smp, "_xor_invariant", lambda table, columns: False)
        report = evaluate_error(protocol)
    assert protocol.m == 12 and runs == [[(0, 4), (4, 8), (8, 12)]]
    assert report.xor_errors is None and len(tables) == 1 and len(kernel_calls) == 4
    _assert_rows_match_one_pair_api(protocol, report)
    tables.clear()
    kernel_calls.clear()
    report = evaluate_error(protocol)
    assert report.xor_errors is not None and len(tables) == 1 and len(kernel_calls) == 4
    _assert_rows_match_one_pair_api(protocol, report)


def test_sampled_rows_equal_the_one_pair_api_bit_for_bit():
    protocol = coherent_fingerprint_protocol(2, RepetitionCode(2, 3), 1.4)
    report = evaluate_error(protocol, samples=60, seed=3)
    rows = _assert_rows_match_one_pair_api(protocol, report)
    pairs = [r[:2] for r in rows]
    assert len(pairs) == 60 and len(set(pairs)) < 60  # the sample repeats pairs
    assert pairs == sorted(pairs)


@pytest.mark.parametrize("case", sorted(ONE_PAIR_CASES))
def test_sampled_rows_with_more_symbol_pairs_than_draws_equal_the_one_pair_api(case):
    # Three draws meet fewer letter pairs than the table of the letters
    # present holds, and every row still reads its own pair's factors.
    protocol = ONE_PAIR_CASES[case]()
    report = evaluate_error(protocol, samples=3, seed=7)
    assert len(_assert_rows_match_one_pair_api(protocol, report)) == 3


def test_sampled_evaluation_memory_grows_with_draws_not_alphabet_squared():
    # 2,000 draws at n=20 meet about 4,000 distinct inputs; a table of all
    # their message pairs would take 128 MB.
    protocol = trivial_classical_protocol(20)
    tracemalloc.start()
    try:
        report = evaluate_error(protocol, samples=2000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(set(report.x.tolist()) | set(report.y.tolist())) > 3900
    assert report.worst_error == 0.0 and len(report.pair_errors) == 2000
    assert peak < 32 * 2**20


@pytest.mark.parametrize("n", range(1, 8))
def test_evaluation_blocks_split_anywhere_bit_for_bit(monkeypatch, n):
    # Blocks of 8 entries (pairs x runs) hold at most 8 // n pairs, so they
    # split the x rows of the grid (forced) and the drawn pairs alike, on the
    # letter table and on the codeword distances of a binding truncation.
    protocol = coherent_fingerprint_protocol(n, RepetitionCode(n, 2), 1.3)
    binding = transform_protocol(protocol, 0.6 if n <= 4 else 0.9)
    assert hasattr(binding.referee, "by_distance") and not hasattr(protocol.referee, "by_distance")
    monkeypatch.setattr(smp, "_xor_invariant", lambda table, columns: False)

    def errors():
        return [
            evaluate_error(p, **kwargs).p_error.tobytes()
            for p in (protocol, binding)
            for kwargs in ({}, {"samples": 50, "seed": n})
        ]

    whole = errors()
    monkeypatch.setattr(smp, "BLOCK_ROWS", 8)
    assert errors() == whole


def test_grid_holds_its_errors_and_one_block_of_indices():
    # x -> 3x mod 2^10 is not linear over GF(2), so all 4^10 pairs are read.
    # Beyond the 8 bytes of each error, only a block's index and gather
    # arrays are held: indices of the whole grid would add 24 bytes a pair.
    n = 10
    protocol = SmpProtocol(
        name="times-three",
        n=n,
        m=n,
        mu=float(n),
        letters=_basis_letters((0,), (1,)),
        codewords=lambda xs: smp._input_bits(3 * np.asarray(xs) % (1 << n), n),
        referee=DiagonalMapReferee(),
    )
    report, peak = _traced_peak(lambda: evaluate_error(protocol))
    assert report.xor_errors is None and report.p_error.size == 4**n and not report.p_error.any()
    assert peak <= 8 * 4**n + 80 * smp.BLOCK_ROWS


@pytest.mark.parametrize("size", [1, 2, 7, 8, 9, 127, 128, 129, 1000, 4097, 100003])
def test_mean_and_stderr_equal_numpy_bit_for_bit(size):
    # A sampled report's statistics are numpy's mean and ddof=1 standard
    # deviation over sqrt(size), 0.0 for one pair, taken in draw order.
    rng = np.random.default_rng(size)
    for errors in (rng.random(size), np.exp(-0.37 * rng.integers(0, 20, size))):
        stderr = float(np.std(errors, ddof=1) / math.sqrt(size)) if size > 1 else 0.0
        order = rng.permutation(size)
        pairs = np.zeros(size, dtype=np.int64)
        report = report_module.ErrorReport(
            "stats", 20, errors[order], seed=0, drawn=(pairs, pairs, np.argsort(order))
        )
        assert (report.mean_error, report.stderr_mean) == (float(np.mean(errors)), stderr)


def test_sampled_statistics_are_taken_in_draw_order():
    protocol = coherent_fingerprint_protocol(5, RepetitionCode(5, 2), 2.0)
    samples, seed = 300, 1
    report = evaluate_error(protocol, samples=samples, seed=seed)
    rng = np.random.default_rng([seed, protocol.n])
    xs = rng.integers(0, 1 << protocol.n, size=samples).tolist()
    ys = rng.integers(0, 1 << protocol.n, size=samples).tolist()
    drawn = []
    for x, y in zip(xs, ys):
        p_one = protocol.referee.output_one_probability(protocol.message(x), protocol.message(y))
        drawn.append(1.0 - p_one if x == y else p_one)
    assert [r[:2] for r in report.pair_errors] == sorted(zip(xs, ys))
    assert report.worst_error == max(drawn)
    assert report.mean_error == float(np.mean(drawn))
    assert report.stderr_mean == float(np.std(drawn, ddof=1) / math.sqrt(samples))
    # The sum depends on the order: in sorted order it differs in the last bits.
    assert float(np.mean([r[3] for r in report.pair_errors])) != report.mean_error


# ---------------------------------------------------------------------------
# Deterministic communication cost

def test_cost_oracle_reference_values():
    assert deterministic_cc_matrix(equality_function(1)) == 2
    assert deterministic_cc_matrix(equality_function(2)) == 3
    assert deterministic_cc_matrix([[1] * 4] * 4) == 0
    assert deterministic_cc_matrix([[0] * 8] * 8) == 0


def test_cost_oracle_respects_cap():
    with pytest.raises(ConfigError):
        deterministic_cc_matrix(equality_function(4))
    with pytest.raises(ConfigError):
        deterministic_cc_matrix([[0] * 9] * 9)


def test_cost_matrix_small_cases():
    assert deterministic_cc_matrix([[0, 0], [0, 0]]) == 0
    assert deterministic_cc_matrix([[0, 1]]) == 1  # split the column side
    assert deterministic_cc_matrix([[0, 1], [1, 0]]) == 2
    with pytest.raises(ConfigError):
        deterministic_cc_matrix([[0, 1], [1]])
    with pytest.raises(ConfigError):
        deterministic_cc_matrix([[0, 2]])


@pytest.mark.parametrize(
    "values",
    [
        [[True, False], [False, True]],
        [[0, 1.0], [1, 0]],
        [[0, "1"], [1, 0]],
        [[0, None], [1, 0]],
        [[0, 256], [1, 0]],
        [[0, -255], [1, 0]],
        [[0, np.int64(1)], [1, 0]],
        [1, 0],
        [[]],
        np.eye(2, dtype=int),
    ],
    ids=["bool", "float", "str", "null", "256", "-255", "numpy-int", "flat", "empty-row", "array"],
)
def test_cost_matrix_takes_only_rows_of_python_int_bits(values):
    with pytest.raises(ConfigError):
        deterministic_cc_matrix(values)


def test_cost_monotone_under_taking_subtables():
    for bits in range(16):
        full = [[(bits >> (2 * i + j)) & 1 for j in range(2)] for i in range(2)]
        d_full = deterministic_cc_matrix(full)
        for rows in ([0], [1], [0, 1]):
            for cols in ([0], [1], [0, 1]):
                sub = [[full[i][j] for j in cols] for i in rows]
                assert deterministic_cc_matrix(sub) <= d_full


def _plain_cost(values):
    """The protocol-tree search with no reduction and no bounds: every
    bipartition of every row and column subset, memoized on the subsets."""
    memo = {}

    def cost(rows, cols):
        if (rows, cols) not in memo:
            if len({values[i][j] for i in rows for j in cols}) == 1:
                memo[rows, cols] = 0
            else:
                best = math.inf
                for side, is_row in ((rows, True), (cols, False)):
                    for k in range(1 << (len(side) - 1)):
                        half = tuple(v for b, v in enumerate(side) if (k << 1 | 1) >> b & 1)
                        rest = tuple(v for v in side if v not in half)
                        if not rest:
                            continue
                        pair = ((half, cols), (rest, cols)) if is_row else ((rows, half), (rows, rest))
                        best = min(best, 1 + max(cost(*pair[0]), cost(*pair[1])))
                memo[rows, cols] = best
        return memo[rows, cols]

    return cost(tuple(range(len(values))), tuple(range(len(values[0]))))


def test_cost_matrix_matches_plain_search():
    # Its two ranks, 4 + 4 = 8, allow depth 3, one below sending a row index
    # and the answer bit: the search must not stop at 4.
    tight = [[1, 1, 1, 1, 1], [1, 0, 1, 0, 1], [1, 0, 1, 0, 0], [0, 0, 1, 1, 1], [0, 1, 0, 1, 1]]
    assert deterministic_cc_matrix(tight) == _plain_cost(tight) == 3
    rng = np.random.default_rng(7)
    for _ in range(300):
        shape = rng.integers(1, 6, size=2)
        values = (rng.random(shape) < rng.random()).astype(int).tolist()
        assert deterministic_cc_matrix(values) == _plain_cost(values), values


def test_cost_ignores_duplicates_and_transposition():
    rng = np.random.default_rng(8)
    for _ in range(50):
        values = rng.integers(0, 2, size=(4, 3))
        cost = deterministic_cc_matrix(values.tolist())
        assert deterministic_cc_matrix(values.T.tolist()) == cost
        doubled = values[[0, 0, 1, 2, 3, 3]][:, [2, 0, 1, 2]]
        assert deterministic_cc_matrix(doubled.tolist()) == cost


def test_cost_of_three_bit_functions():
    x = np.arange(8)
    tables = {
        "equality": x[:, None] == x[None, :],
        "greater-than": x[:, None] > x[None, :],
        "disjointness": (x[:, None] & x[None, :]) == 0,
        "inner-product": np.vectorize(lambda v: bin(v).count("1") % 2)(x[:, None] & x[None, :]),
        "one-rectangle": (x[:, None] < 3) & (x[None, :] >= 5),
    }
    costs = {name: deterministic_cc_matrix(t.astype(int).tolist()) for name, t in tables.items()}
    assert costs == {"equality": 4, "greater-than": 4, "disjointness": 4, "inner-product": 4, "one-rectangle": 2}


# ---------------------------------------------------------------------------
# JSON protocol descriptions

def test_load_protocol_qfp_defaults():
    protocol = load_protocol({"type": "qfp", "n": 2, "mu": 1.0})
    assert protocol.m == 6  # default repetition code repeats 3 times
    assert protocol.name == "qfp-n2-m6"


def test_load_protocol_classical():
    protocol = load_protocol({"type": "classical-trivial", "n": 2})
    assert protocol.m == 2
    assert evaluate_error(protocol).worst_error == 0.0


def test_load_protocol_field_errors():
    with pytest.raises(ConfigError, match="'type'"):
        load_protocol({"type": "nope", "n": 2})
    with pytest.raises(ConfigError, match="'n'"):
        load_protocol({"type": "qfp", "n": 0, "mu": 1.0})
    with pytest.raises(ConfigError, match="'mu'"):
        load_protocol({"type": "qfp", "n": 2, "mu": -1.0})
    with pytest.raises(ConfigError, match="'code.kind'"):
        load_protocol({"type": "qfp", "n": 2, "mu": 1.0, "code": {"kind": "huffman"}})
    with pytest.raises(ConfigError, match="'code.repeats'"):
        load_protocol({"type": "qfp", "n": 2, "mu": 1.0, "code": {"kind": "repetition"}})
    with pytest.raises(ConfigError, match="'m'"):
        load_protocol({"type": "qfp", "n": 2, "mu": 1.0, "m": 5})


def test_range_check_reads_every_integer_dtype():
    letters = _basis_letters((0,), (1,))
    for dtype in (np.int8, np.int32, np.int64, np.uint8, np.uint64):
        table = np.array([[0], [1]], dtype=dtype)
        SmpProtocol("ok", 1, 1, 1.0, letters, lambda xs: table[xs], DiagonalMapReferee())
        for bad in (-1, 2):
            if bad < 0 and np.dtype(dtype).kind == "u":
                continue
            wrong = np.array([[0], [bad]], dtype=dtype)
            with pytest.raises(ConfigError, match="must index the 2 letters"):
                SmpProtocol("bad", 1, 1, 1.0, letters, lambda xs: wrong[xs], DiagonalMapReferee())


def test_per_letter_values_are_computed_once_per_letter(monkeypatch):
    # Construction checks every row from one mean per letter. Above
    # TABLE_N_CAP each read of rows computes one mean per letter; a binding
    # truncation keeps the letters and projects none of them.
    means = []
    mean = smp.mean_photon_number

    def counted_mean(state):
        means.append(state)
        return mean(state)

    monkeypatch.setattr(smp, "mean_photon_number", counted_mean)
    protocol = coherent_fingerprint_protocol(4, XorFoldCode(4, 2), 1.0)
    assert means == list(protocol.letters)

    n = smp.TABLE_N_CAP + 1
    original = coherent_fingerprint_protocol(n, XorFoldCode(n, 2), 1.0)
    projected = []
    project = truncation.project_below_cutoff

    def counted_project(state, cutoff):
        projected.append(state)
        return project(state, cutoff)

    monkeypatch.setattr(truncation, "project_below_cutoff", counted_project)
    truncated = transform_protocol(original, 0.5)
    del means[:]
    truncated.rows(np.arange(4))
    truncated.rows(np.array([3, 0, 2]))
    assert means == list(original.letters) * 2
    assert projected == [] and truncated.letters is original.letters
