"""The referee of a binding truncation: coherent fingerprint messages
projected onto at most a photons in their one collective mode, read at each
pair's codeword distance."""

import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest

from optsmp.errors import ConfigError, ModeMismatchError, PhotonCapError
from optsmp.fock import ProductPureState
from optsmp.smp import (
    CollectiveModeReferee,
    FoldCode,
    InterferenceVacuumReferee,
    SmpProtocol,
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
    assert worst <= Decimal("4e-16")


def test_vacuum_cutoff_accepts_every_pair():
    # At a = 0 both projected messages are the vacuum: no port ever lights.
    referee = CollectiveModeReferee(12, 2.0, 0)
    assert [referee.accept(d) for d in range(13)] == [1.0] * 13
    protocol = coherent_fingerprint_protocol(3, FoldCode(3, 3, 2), 0.5)
    truncated = transform_protocol(protocol, 0.9)
    assert truncated.referee.cutoff == 0
    report = evaluate_error(truncated)
    assert report.p_error.tolist() == [float(x != y) for x in range(8) for y in range(8)]


def test_each_distinct_distance_is_computed_once_per_referee(monkeypatch):
    # However many calls and blocks read a distance, it is computed once,
    # and every read returns that one value. The referee's own blocks of
    # distances split 400 new ones at m = 1200 into several passes.
    passes = []
    compute = CollectiveModeReferee._accepts
    monkeypatch.setattr(CollectiveModeReferee, "_accepts", lambda self, ds: passes.append(ds) or compute(self, ds))
    referee = CollectiveModeReferee(12, 2.0, 5)
    for distances in ([1, 5, 3, 1], [12, 7, 3], [5, 1, 12, 7, 0]):
        values = referee.by_distance(np.array(distances))
        assert values.tolist() == [referee.accept(d) for d in distances]
    assert passes == [[1, 3, 5], [7, 12], [0]]
    wide = CollectiveModeReferee(1200, 8.0, 30)
    first = wide.by_distance(np.arange(0, 1200, 3)[::-1])
    again = wide.by_distance(np.arange(0, 1200, 3))
    counts = [len(ds) for ds in passes[3:]]
    assert len(counts) > 1 and max(counts) <= wide._step and sum(counts) == 400
    assert sorted(d for ds in passes[3:] for d in ds) == list(range(0, 1200, 3))
    assert again.tolist() == first[::-1].tolist()


@pytest.mark.parametrize("mu", [0.5, 8.0, 40.0])
@pytest.mark.parametrize("m", [12, 10**3, 10**6, 10**9])
def test_a_vacuous_cutoff_gives_the_coherent_acceptance(m, mu):
    # Past where the amplitudes fade, the projected messages are the
    # coherent ones: the acceptance is exp(-2 mu d/m) to float error, at
    # every m, with c = 1 - 2d/m near 1 (d = 1 at m = 10^9) and below 0.
    referee = CollectiveModeReferee(m, mu, 10**6)
    distances = sorted({0, 1, 2, m // 3, m // 2, m - 1, m})
    values = referee.by_distance(np.array(distances))
    worst = max(abs(v - math.exp(-2.0 * mu * d / m)) for d, v in zip(distances, values.tolist()))
    assert worst <= 1e-15


def test_the_sums_hold_past_the_range_of_factorials():
    # 171! overflows a double, so kets past 85 photons test the weights. At
    # mu = 60 the amplitudes fade past 200 photons; at mu = 250 a cutoff of
    # 256, half the pair limit, binds. At d = m/2 (c = 0) the ports part:
    # P = (sum of (mu/2)^k / k!)^2 / (sum of mu^k / k!)^2, both sums to the
    # kets' top, which is checked to 50 digits.
    vacuous = CollectiveModeReferee(12, 60.0, 10**4)
    assert vacuous.top > 200
    values = vacuous.by_distance(np.arange(13)).tolist()
    assert max(abs(v - math.exp(-10.0 * d)) for d, v in enumerate(values)) <= 1e-15
    binding = CollectiveModeReferee(12, 250.0, 256)
    assert binding.top == 256
    values = binding.by_distance(np.arange(13)).tolist()
    assert all(0.0 <= v <= 1.0 for v in values) and values[0] > 0.5
    with localcontext() as ctx:
        ctx.prec = 50
        half = whole = Decimal(0)
        term = Decimal(1)  # 250^k / k!
        for k in range(257):
            if k:
                term = term * 250 / k
            half, whole = half + term / 2**k, whole + term
        reference = (half / whole) ** 2
    assert abs(Decimal(values[6]) - reference) <= reference * Decimal("1e-15")


def test_distances_are_read_in_blocks_of_bounded_memory():
    # 2,000 distinct distances of m = 10^6 at mu 2 (a top of 35 photons) take
    # 2,556 terms each: one pass over all of them would hold a 41 MB array.
    # Blocks of at most BLOCK_ROWS terms peak at 1.4 MB.
    referee = CollectiveModeReferee(10**6, 2.0, 10**6)
    distances = np.arange(0, 10**6, 500)
    tracemalloc.start()
    try:
        values = referee.by_distance(distances)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert len(referee._values) == 2000
    assert abs(values[-1] - math.exp(-4.0 * 999500 / 10**6)) <= 1e-15


def test_binding_evaluation_leaves_the_fingerprint_caches_to_the_letters():
    # The projected referee computes its own closed form, and the
    # fingerprint referee tabulates the letters afresh on each call: after
    # exhaustive and sampled runs of both protocols it holds no state.
    protocol = coherent_fingerprint_protocol(3, FoldCode(3, 3, 2), 1.0)
    truncated = transform_protocol(protocol, 0.5)
    assert isinstance(truncated.referee, CollectiveModeReferee)
    for evaluated in (protocol, truncated):
        evaluate_error(evaluated)
        evaluate_error(evaluated, samples=50, seed=2)
    assert vars(protocol.referee) == {}


def test_nonlinear_codewords_fill_the_distance_grid():
    # x -> 3x mod 8 is a bijection with row 0 zero, but not linear over
    # GF(2), so an exhaustive run reads every pair's own distance; each
    # error still equals the one-pair oracle bit for bit.
    qfp = coherent_fingerprint_protocol(3, FoldCode(3, 3), 1.0)
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
    qfp = coherent_fingerprint_protocol(3, FoldCode(3, 3, 2), 1.0)
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
    with pytest.raises(ConfigError, match="referee must provide table or by_distance"):
        SmpProtocol(**fields, referee=object())


def test_a_projection_past_half_the_pair_photon_limit_is_refused():
    # mu = 5000 keeps its amplitudes large past 256 photons, so a mode pair
    # of the two projected kets would pass 512: refused before any ket is
    # built.
    with pytest.raises(PhotonCapError, match="keeps more than 256 photons"):
        CollectiveModeReferee(600, 5000.0, 5555)
    # At a cutoff of 256 the same mean keeps its kets to 256 photons, but
    # the port-B weights (mu/2)^k / k! pass floating-point range there.
    with pytest.raises(PhotonCapError, match="port weights past floating-point range"):
        CollectiveModeReferee(600, 5000.0, 256)


@pytest.mark.parametrize("binding", [False, True], ids=["interference", "collective-mode"])
def test_messages_of_different_factor_counts_are_refused(binding):
    protocol = coherent_fingerprint_protocol(2, FoldCode(2, 2), 1.0)
    if binding:
        protocol = transform_protocol(protocol, 0.4)
    short = protocol.message(1)
    long = ProductPureState((*short.factors, short.factors[0]))
    with pytest.raises(ModeMismatchError, match="different factor counts"):
        protocol.referee.output_one_probability(short, long)


def test_whole_message_kets_are_refused_by_the_collective_referee():
    # A joined ket is one factor, which would read distance 0 or 1 whatever
    # its codeword: messages (0, 3) are at distance 4 of m = 4.
    protocol = coherent_fingerprint_protocol(2, FoldCode(2, 2, 2), 1.0)
    referee, message = protocol.referee.at_cutoff(protocol, 2), protocol.message
    accepted = referee.output_one_probability(message(0), message(3))
    assert accepted == referee.accept(4) == pytest.approx(0.175, abs=1e-12)
    with pytest.raises(ModeMismatchError, match="m = 4 letters"):
        referee.output_one_probability(message(0).to_pure_state(), message(3).to_pure_state())


@pytest.mark.parametrize(
    "m, mu, cutoff",
    [(0, 2.0, 3), (12, -1.0, 3), (12, float("nan"), 3), (12, float("inf"), 3), (12, 2.0, -2)],
    ids=["m=0", "negative-mu", "nan-mu", "inf-mu", "negative-cutoff"],
)
def test_a_collective_referee_refuses_invalid_parameters(m, mu, cutoff):
    with pytest.raises(ConfigError, match="collective-mode referee needs"):
        CollectiveModeReferee(m, mu, cutoff)


@pytest.mark.parametrize("distances", [[24], [-1], [0, 3, 13]])
def test_a_collective_referee_refuses_distances_outside_0_to_m(distances):
    referee = CollectiveModeReferee(12, 2.0, 5)
    with pytest.raises(ConfigError, match=r"distances must lie in 0\.\.12"):
        referee.by_distance(np.array(distances))
    assert referee._values == {}
    assert referee.by_distance(np.array([0, 12])).tolist() == [referee.accept(0), referee.accept(12)]
