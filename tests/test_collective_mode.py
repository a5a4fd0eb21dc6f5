"""The referee of a binding truncation: coherent fingerprint messages
projected onto at most a photons in their one collective mode, read at each
pair's codeword distance."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from optsmp.errors import ConfigError, ModeMismatchError, PhotonCapError
from optsmp.fock import ProductPureState
from optsmp.smp import (
    CollectiveModeReferee,
    InterferenceVacuumReferee,
    RepetitionCode,
    SmpProtocol,
    _dark_probability,
    _input_bits,
    coherent_fingerprint_protocol,
    evaluate_error,
)
from optsmp.truncation import transform_protocol


def _power(x: Decimal, k: int) -> Decimal:
    return Decimal(1) if k == 0 else x**k


def _reference(mu: float, m: int, a: int, d: int) -> Decimal:
    """K_a(d) to 50 digits: ||F(A / sqrt 2) F((c A + s B) / sqrt 2) |0>||^2
    over w^2, where F(x) is the degree-a truncation of exp(sqrt(mu) x),
    c = 1 - 2d/m, s = sqrt(1 - c^2) and w = P(N <= a) for N ~ Poisson(mu).
    The coefficient of A^p B^q is expanded term by term; its state has norm
    p! q! times its square."""
    with localcontext() as ctx:
        ctx.prec = 50
        c = Decimal(m - 2 * d) / m
        s = (Decimal(4 * d * (m - d)) / (m * m)).sqrt()
        root = (Decimal(mu) / 2).sqrt()
        fact = [Decimal(math.factorial(k)) for k in range(2 * a + 1)]
        coef: dict[tuple[int, int], Decimal] = {}
        for k in range(a + 1):
            for q in range(k + 1):
                second = Decimal(math.comb(k, q)) * _power(c, k - q) * _power(s, q) / fact[k]
                for j in range(a + 1):
                    key = (j + k - q, q)
                    coef[key] = coef.get(key, Decimal(0)) + _power(root, j + k) / fact[j] * second
        norm = sum(v * v * fact[p] * fact[q] for (p, q), v in coef.items())
        weight = sum(_power(Decimal(mu), k) / fact[k] for k in range(a + 1))
        return norm / (weight * weight)


@pytest.mark.parametrize("mu", [0.5, 2.0, 5.0])
def test_acceptance_matches_a_50_digit_evaluation(mu):
    # Every distance at m = 4 and 12, from the vacuum cutoff to a = 30.
    worst = Decimal(0)
    for a in (0, 1, 3, 10, 30):
        for m in (4, 12):
            referee = CollectiveModeReferee(m, mu, a)
            for d in range(m + 1):
                worst = max(worst, abs(Decimal(referee.accept(d)) - _reference(mu, m, a, d)))
    assert worst <= Decimal("4e-15")


def test_vacuum_cutoff_accepts_every_pair():
    # At a = 0 both projected messages are the vacuum: no port ever lights.
    referee = CollectiveModeReferee(12, 2.0, 0)
    assert [referee.accept(d) for d in range(13)] == [1.0] * 13
    protocol = coherent_fingerprint_protocol(3, RepetitionCode(3, 2), 0.5)
    truncated = transform_protocol(protocol, 0.9)
    assert truncated.referee.cutoff == 0
    report = evaluate_error(truncated)
    assert report.p_error.tolist() == [float(x != y) for x in range(8) for y in range(8)]


def test_each_distance_runs_one_sum_and_every_read_shares_it():
    referee = CollectiveModeReferee(6, 2.0, 4)
    values = referee.by_distance(np.array([6, 0, 3, 6, 3, 0, 0]))
    assert sorted(referee._accepted) == [0, 3, 6]
    assert values.tolist() == [referee.accept(d) for d in (6, 0, 3, 6, 3, 0, 0)]


def test_the_distance_zero_ket_is_built_once(monkeypatch):
    # However many distances and reads, ket(0) is built once, at
    # construction, and each distance read builds its own ket once. Each
    # acceptance is the clamped dark-port sum of the two kets, the value
    # the interference referee's pair kernel gives them.
    kets = []
    build = CollectiveModeReferee._ket
    monkeypatch.setattr(CollectiveModeReferee, "_ket", lambda self, d: kets.append(d) or build(self, d))
    referee = CollectiveModeReferee(12, 2.0, 5)
    assert kets == [0]
    for distances in ([1, 5, 3, 1], [12, 7, 3], [5, 1, 12, 7]):
        referee.by_distance(np.array(distances))
    assert sorted(kets) == [0, 1, 3, 5, 7, 12]
    ket0 = build(referee, 0)
    for d in (1, 3, 5, 7, 12):
        ket = build(referee, d)
        assert referee.accept(d) == _dark_probability(ket0.amplitudes, ket.amplitudes)
        assert referee.accept(d) == InterferenceVacuumReferee().pair_probability(ket0, ket)


def test_binding_evaluation_leaves_the_fingerprint_caches_to_the_letters():
    # The projected referee sums its own kets: after exhaustive and sampled
    # runs of both protocols, the fingerprint referee's sign classes and
    # pair cache hold the two letters only.
    protocol = coherent_fingerprint_protocol(3, RepetitionCode(3, 2), 1.0)
    truncated = transform_protocol(protocol, 0.5)
    assert isinstance(truncated.referee, CollectiveModeReferee)
    for evaluated in (protocol, truncated):
        evaluate_error(evaluated)
        evaluate_error(evaluated, samples=50, seed=2)
    fingerprint, letters = protocol.referee, set(protocol.letters)
    assert set(fingerprint._classes) == letters
    assert fingerprint._pair_cache
    assert {rep for key in fingerprint._pair_cache for rep in key[:2]} <= letters


def test_nonlinear_codewords_fill_the_distance_grid():
    # x -> 3x mod 8 is a bijection with row 0 zero, but not linear over
    # GF(2), so an exhaustive run reads every pair's own distance; each
    # error still equals the one-pair oracle bit for bit.
    qfp = coherent_fingerprint_protocol(3, RepetitionCode(3, 1), 1.0)
    protocol = SmpProtocol(
        name="times-three",
        n=3,
        m=3,
        mu=1.0,
        letters=qfp.letters,
        codewords=lambda xs: _input_bits(3 * np.asarray(xs) % 8, 3),
        referee=InterferenceVacuumReferee(),
    )
    truncated = transform_protocol(protocol, 0.4)
    assert truncated.referee.cutoff == 2
    report = evaluate_error(truncated)
    assert report.xor_errors is None and report.p_error.size == 64
    for x, y, f, p_error in report.pair_errors:
        p = truncated.referee.output_one_probability(protocol.message(x), protocol.message(y))
        assert p_error == (1.0 - p if f else p)


def test_a_protocol_built_with_the_collective_referee_evaluates():
    # The referee contract is what evaluation reads: a referee that offers
    # by_distance alone builds a protocol directly, and its errors are those
    # of the truncated fingerprint at the same cutoff, bit for bit.
    qfp = coherent_fingerprint_protocol(3, RepetitionCode(3, 2), 1.0)
    truncated = transform_protocol(qfp, 0.4)
    fields = dict(
        name="direct", n=qfp.n, m=qfp.m, mu=qfp.mu, letters=qfp.letters, codewords=qfp.codewords,
        repeats=qfp.repeats,
    )
    direct = SmpProtocol(**fields, referee=CollectiveModeReferee(qfp.m, qfp.mu, truncated.referee.cutoff))
    for kwargs in ({}, {"samples": 40, "seed": 3}):
        expected, got = evaluate_error(truncated, **kwargs), evaluate_error(direct, **kwargs)
        assert got.p_error.tobytes() == expected.p_error.tobytes()
        assert got.worst_error == expected.worst_error
    with pytest.raises(ConfigError, match="referee must provide pair_probability or by_distance"):
        SmpProtocol(**fields, referee=object())


def test_a_projection_past_half_the_pair_photon_limit_is_refused():
    # mu = 5000 keeps its amplitudes large past 256 photons, so a mode pair
    # of the two projected kets would pass 512: refused before any ket is
    # built.
    with pytest.raises(PhotonCapError, match="keeps more than 256 photons"):
        CollectiveModeReferee(600, 5000.0, 5555)


@pytest.mark.parametrize("binding", [False, True], ids=["interference", "collective-mode"])
def test_messages_of_different_factor_counts_are_refused(binding):
    protocol = coherent_fingerprint_protocol(2, RepetitionCode(2, 1), 1.0)
    if binding:
        protocol = transform_protocol(protocol, 0.4)
    short = protocol.message(1)
    long = ProductPureState((*short.factors, short.factors[0]))
    with pytest.raises(ModeMismatchError, match="different factor counts"):
        protocol.referee.output_one_probability(short, long)
