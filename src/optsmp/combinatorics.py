"""Exact counting for photon-truncated subspaces and the bounds on its log.

Everything here is exact integer arithmetic; logarithms are taken of the
exact big integers (CPython's ``math.log2`` handles arbitrary-precision
ints by exponent extraction, so nothing ever passes through a float
factorial).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import ConfigError

FockIndex = tuple[int, ...]


def markov_photon_cutoff(mu: float, delta: float) -> int:
    """The photon-number cutoff ``floor(mu / delta)``.

    Ratios within 1e-9 (relative) of an integer are snapped before flooring:
    decimal parameters such as delta = 1e-4 do not divide exactly in binary
    floats, and a naive floor of 0.3/1e-4 = 2999.9999999999995 would return
    2999 where the intended real-number value is 3000.
    """
    if not (delta > 0.0 and delta < 1.0):
        raise ConfigError(f"delta must be in (0, 1), got {delta}")
    if not math.isfinite(mu):
        raise ConfigError(f"mu must be finite, got {mu}")
    if mu < 0.0:
        raise ConfigError(f"mu must be nonnegative, got {mu}")
    ratio = mu / delta
    if not math.isfinite(ratio):
        raise ConfigError(f"mu/delta = {mu}/{delta} overflows to {ratio}")
    nearest = round(ratio)
    if math.isclose(ratio, nearest, rel_tol=1e-9, abs_tol=1e-9):
        return int(nearest)
    return int(math.floor(ratio))


@dataclass(frozen=True)
class RankCount:
    """Exact dimension of the subspace with at most ``cutoff`` total photons
    over ``modes`` modes, together with its base-2 log."""

    modes: int
    cutoff: int
    rank: int
    log2_rank: float


def count_rank(modes: int, cutoff: int) -> RankCount:
    """Number of occupation tuples (n1..nm) with n1+...+nm <= cutoff.

    Stars and bars: exactly C(cutoff + modes, modes).
    """
    if modes < 1:
        raise ConfigError(f"modes must be >= 1, got {modes}")
    if cutoff < 0:
        raise ConfigError(f"cutoff must be >= 0, got {cutoff}")
    rank = math.comb(cutoff + modes, modes)
    return RankCount(modes=modes, cutoff=cutoff, rank=rank, log2_rank=math.log2(rank))


def iter_occupations(modes: int, max_total: int) -> Iterator[FockIndex]:
    """Yield every occupation tuple with total photons <= max_total.

    Deliberately a direct recursion, independent of the closed-form count, so
    the two can check each other.
    """
    if modes < 1:
        raise ConfigError(f"modes must be >= 1, got {modes}")
    if max_total < 0:
        raise ConfigError(f"max_total must be >= 0, got {max_total}")
    if modes == 1:
        for n in range(max_total + 1):
            yield (n,)
        return
    for n in range(max_total + 1):
        for rest in iter_occupations(modes - 1, max_total - n):
            yield (n,) + rest


def binomial_power_bound(n: int, m: int) -> tuple[int, int]:
    """Exact pair (C(n+m, m), min((1+m)**n, (1+n)**m)).

    The first never exceeds the second; both are exact big integers.
    """
    if n < 0 or m < 0:
        raise ConfigError(f"arguments must be nonnegative, got ({n}, {m})")
    binom = math.comb(n + m, m)
    bound = min((1 + m) ** n, (1 + n) ** m)
    return binom, bound


@dataclass(frozen=True)
class LogRankBounds:
    """The truncated-subspace rank and its log2 next to two upper bounds."""

    modes: int
    mu: float
    delta: float
    cutoff: int
    rank: int
    log2_rank: float
    bound_photon: float  # (mu/delta) * log2(1+m)
    bound_mode: float    # m * log2(1 + mu/delta)


def log_rank_bounds(modes: int, mu: float, delta: float) -> LogRankBounds:
    """Exact log-rank of the cutoff subspace with its two closed-form bounds.

    ``bound_photon`` charges log2(1+m) per photon of mu/delta;
    ``bound_mode`` charges log2(1 + mu/delta) per mode. The exact value never
    exceeds either (the cutoff rounds down, the bounds do not).
    """
    cutoff = markov_photon_cutoff(mu, delta)
    rc = count_rank(modes, cutoff)
    ratio = mu / delta
    bound_photon = ratio * math.log2(1.0 + modes)
    bound_mode = modes * math.log2(1.0 + ratio)
    return LogRankBounds(
        modes=modes,
        mu=mu,
        delta=delta,
        cutoff=cutoff,
        rank=rc.rank,
        log2_rank=rc.log2_rank,
        bound_photon=bound_photon,
        bound_mode=bound_mode,
    )


def binary_entropy(p: float) -> float:
    """h(p) = -p log2 p - (1-p) log2 (1-p), with h(0) = h(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"binary_entropy argument must be in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def entropy_bound(cutoff: int, modes: int) -> tuple[float, float]:
    """(log2 C(cutoff+modes, modes), (cutoff+modes) * h(modes/(cutoff+modes))).

    The entropy expression upper-bounds the exact log-rank.
    """
    rc = count_rank(modes, cutoff)
    n_total = cutoff + modes
    bound = n_total * binary_entropy(modes / n_total)
    return rc.log2_rank, bound


def entropy_profile(n_values: Iterable[int]) -> Iterator[dict]:
    """Sweep a = m = ceil(sqrt(n)) over the given n values, one row at a time.

    Yields one row per n with the exact log-rank, the entropy bound, and
    their ratios to sqrt(n). Used for the square-root message-length
    profile. Many n share one k, so each distinct k's log-rank and bound
    are computed once.
    """
    bounds: dict[int, tuple[float, float]] = {}
    for n in n_values:
        if n < 1:
            raise ConfigError(f"n must be >= 1, got {n}")
        k = math.isqrt(n)
        if k * k < n:
            k += 1
        if k not in bounds:
            bounds[k] = entropy_bound(k, k)
        log2_rank, bound = bounds[k]
        sqrt_n = math.sqrt(n)
        yield {
            "n": n,
            "m": k,
            "a": k,
            "log2_rank": log2_rank,
            "entropy_bound": bound,
            "rank_over_sqrt_n": log2_rank / sqrt_n,
            "bound_over_sqrt_n": bound / sqrt_n,
        }
