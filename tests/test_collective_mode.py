"""The referee of a binding truncation: coherent fingerprint messages
projected onto at most a photons in their one collective mode, read at each
pair's codeword distance."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from optsmp.errors import ModeMismatchError, PhotonCapError
from optsmp.fock import ProductPureState
from optsmp.smp import (
    CollectiveModeReferee,
    InterferenceVacuumReferee,
    RepetitionCode,
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


def _referee(m: int, mu: float, cutoff: int) -> CollectiveModeReferee:
    return CollectiveModeReferee(InterferenceVacuumReferee().pair_probability, m, mu, cutoff)


@pytest.mark.parametrize("mu", [0.5, 2.0, 5.0])
def test_acceptance_matches_a_50_digit_evaluation(mu):
    # Every distance at m = 4 and 12, from the vacuum cutoff to a = 30.
    worst = Decimal(0)
    for a in (0, 1, 3, 10, 30):
        for m in (4, 12):
            referee = _referee(m, mu, a)
            for d in range(m + 1):
                worst = max(worst, abs(Decimal(referee.accept(d)) - _reference(mu, m, a, d)))
    assert worst <= Decimal("4e-15")


def test_vacuum_cutoff_accepts_every_pair():
    # At a = 0 both projected messages are the vacuum: no port ever lights.
    referee = _referee(12, 2.0, 0)
    assert [referee.accept(d) for d in range(13)] == [1.0] * 13
    protocol = coherent_fingerprint_protocol(3, RepetitionCode(3, 2), 0.5)
    truncated, _ = transform_protocol(protocol, 0.9, original_error=0.0)
    assert truncated.referee.cutoff == 0
    report = evaluate_error(truncated)
    assert report.p_error.tolist() == [float(x != y) for x in range(8) for y in range(8)]


def test_each_distance_runs_one_sum_and_every_read_shares_it():
    referee = _referee(6, 2.0, 4)
    values = referee.by_distance(np.array([6, 0, 3, 6, 3, 0, 0]))
    assert sorted(referee._accepted) == [0, 3, 6]
    assert values.tolist() == [referee.accept(d) for d in (6, 0, 3, 6, 3, 0, 0)]


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
    truncated, _ = transform_protocol(protocol, 0.4, original_error=0.0)
    assert truncated.referee.cutoff == 2
    report = evaluate_error(truncated)
    assert report.xor_errors is None and report.p_error.size == 64
    for x, y, f, p_error in report.pair_errors:
        p = truncated.referee.output_one_probability(protocol.message(x), protocol.message(y))
        assert p_error == (1.0 - p if f else p)


def test_a_projection_past_half_the_pair_photon_limit_is_refused():
    # mu = 5000 keeps its amplitudes large past 256 photons, so a mode pair
    # of the two projected kets would pass 512: refused before any ket is
    # built.
    with pytest.raises(PhotonCapError, match="keeps more than 256 photons"):
        _referee(600, 5000.0, 5555)


@pytest.mark.parametrize("binding", [False, True], ids=["interference", "collective-mode"])
def test_messages_of_different_factor_counts_are_refused(binding):
    protocol = coherent_fingerprint_protocol(2, RepetitionCode(2, 1), 1.0)
    if binding:
        protocol, _ = transform_protocol(protocol, 0.4, original_error=0.0)
    short = protocol.message(1)
    long = ProductPureState((*short.factors, short.factors[0]))
    with pytest.raises(ModeMismatchError, match="different factor counts"):
        protocol.referee.output_one_probability(short, long)
