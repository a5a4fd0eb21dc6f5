"""Exact counting, cutoffs, and the closed-form bounds on the log-rank."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optsmp.combinatorics import (
    binary_entropy,
    binomial_power_bound,
    count_rank,
    entropy_bound,
    entropy_profile,
    iter_occupations,
    log_rank_bounds,
    markov_photon_cutoff,
)
from optsmp.errors import ConfigError


# ---------------------------------------------------------------------------
# Cutoff arithmetic

@pytest.mark.parametrize(
    "mu,delta,expected",
    [
        (1.0, 1e-4, 10000),
        (0.3, 1e-4, 3000),  # naive floor of the float ratio gives 2999
        (2.5, 0.5, 5),
        (0.0, 0.5, 0),
        (1.0, 0.3, 3),  # 1/0.3 = 3.33..: genuinely floors
        (0.7, 0.1, 7),  # float ratio 6.999...: snaps up before flooring
        (2.0, 1e-4, 20000),
    ],
)
def test_markov_photon_cutoff(mu, delta, expected):
    assert markov_photon_cutoff(mu, delta) == expected


def test_markov_photon_cutoff_rejects_bad_parameters():
    with pytest.raises(ConfigError):
        markov_photon_cutoff(1.0, 0.0)
    with pytest.raises(ConfigError):
        markov_photon_cutoff(1.0, 1.0)
    with pytest.raises(ConfigError):
        markov_photon_cutoff(-0.1, 0.5)


# ---------------------------------------------------------------------------
# Rank counting vs direct enumeration

def test_count_rank_small_value():
    rc = count_rank(2, 3)
    assert rc.rank == 10
    assert rc.log2_rank == pytest.approx(math.log2(10), abs=1e-12)
    assert count_rank(1, 7).rank == 8
    assert count_rank(3, 0).rank == 1


def test_count_rank_rejects_bad_arguments():
    with pytest.raises(ConfigError):
        count_rank(0, 3)
    with pytest.raises(ConfigError):
        count_rank(2, -1)


def test_iter_occupations_is_exact_and_duplicate_free():
    occs = list(iter_occupations(3, 4))
    assert len(occs) == len(set(occs))
    assert all(len(o) == 3 and sum(o) <= 4 for o in occs)
    assert len(occs) == count_rank(3, 4).rank


@given(modes=st.integers(1, 4), cutoff=st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_property_rank_matches_enumeration(modes, cutoff):
    assert count_rank(modes, cutoff).rank == sum(1 for _ in iter_occupations(modes, cutoff))


def test_count_rank_handles_huge_cutoffs_exactly():
    # 1024 modes at cutoff 20000: the exact integer has 5899 bits; its log2
    # must still come out finite and exact-ish.
    rc = count_rank(1024, 20000)
    assert rc.rank == math.comb(21024, 1024)
    assert rc.log2_rank == pytest.approx(5898.837318053716, abs=1e-9)


# ---------------------------------------------------------------------------
# Binomial power bound

def test_binomial_power_bound_small_values():
    assert binomial_power_bound(3, 2) == (10, 16)
    assert binomial_power_bound(0, 5) == (1, 1)
    assert binomial_power_bound(1, 1) == (2, 2)


def test_binomial_power_bound_rejects_negative():
    with pytest.raises(ConfigError):
        binomial_power_bound(-1, 2)


@given(n=st.integers(0, 80), m=st.integers(0, 80))
@settings(max_examples=120, deadline=None)
def test_property_binomial_bound_holds_exactly(n, m):
    binom, bound = binomial_power_bound(n, m)
    assert binom <= bound
    # symmetry of both sides
    assert binomial_power_bound(m, n) == (binom, bound)


# ---------------------------------------------------------------------------
# Log-rank bounds

def test_log_rank_bounds_frozen_point():
    # Oracle: a = 20000, rank = C(21024, 1024) via exact big-int log2;
    # bound_photon = 20000 * log2(1025); bound_mode = 1024 * log2(20001).
    b = log_rank_bounds(1024, 2.0, 1e-4)
    assert b.cutoff == 20000
    assert b.log2_rank == pytest.approx(5898.837318053716, abs=1e-9)
    assert b.bound_photon == pytest.approx(200028.16388785618, abs=1e-6)
    assert b.bound_mode == pytest.approx(14630.691340798141, abs=1e-6)
    assert b.log2_rank <= min(b.bound_photon, b.bound_mode)


@given(
    modes=st.integers(2, 64),
    mu=st.sampled_from([0.5, 1.0, 2.0, 4.0, 8.0]),
    delta=st.sampled_from([1e-1, 1e-2, 1e-4]),
)
@settings(max_examples=100, deadline=None)
def test_property_log_rank_below_both_bounds(modes, mu, delta):
    b = log_rank_bounds(modes, mu, delta)
    assert b.log2_rank <= b.bound_photon + 1e-9
    assert b.log2_rank <= b.bound_mode + 1e-9


# ---------------------------------------------------------------------------
# Entropy bound and square-root profile

def test_binary_entropy_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.25) == pytest.approx(binary_entropy(0.75), abs=1e-12)
    with pytest.raises(ConfigError):
        binary_entropy(-0.1)


def test_entropy_bound_square_case():
    log2_rank, bound = entropy_bound(4, 4)
    assert log2_rank == pytest.approx(math.log2(70), abs=1e-12)
    assert bound == pytest.approx(8.0, abs=1e-12)
    assert log2_rank <= bound


def test_entropy_profile_rows():
    rows = list(entropy_profile([1, 9, 10, 100, 10000]))
    by_n = {r["n"]: r for r in rows}
    assert by_n[9]["m"] == 3
    assert by_n[10]["m"] == 4  # ceil(sqrt(10))
    assert by_n[100]["m"] == 10
    assert by_n[10000]["m"] == 100
    # Oracle: log2 C(200, 100) computed from the exact big integer.
    assert by_n[10000]["log2_rank"] == pytest.approx(195.85052047908917, abs=1e-9)
    assert by_n[10000]["rank_over_sqrt_n"] == pytest.approx(1.9585052047908917, abs=1e-9)
    for r in rows:
        assert r["log2_rank"] <= r["entropy_bound"] + 1e-9
    with pytest.raises(ConfigError):
        list(entropy_profile([0]))
