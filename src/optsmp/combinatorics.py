"""Exact counting: photon-truncated subspaces, the bounds on their log, and
the brute-force deterministic communication cost of a small 0/1 matrix.

Everything here is exact integer arithmetic; logarithms are taken of the
exact big integers (CPython's ``math.log2`` handles arbitrary-precision
ints by exponent extraction, so nothing ever passes through a float
factorial). The module imports no numpy, so that the ``rank``, ``dcc`` and
``bounds`` subcommands never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import ConfigError

FockIndex = tuple[int, ...]

#: Brute-force deterministic-communication search is exponential in 2^n, so
#: it takes tables of at most 2^DCC_N_CAP rows and columns.
DCC_N_CAP = 3


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


# ---------------------------------------------------------------------------
# Deterministic communication complexity (exact, brute force)

def equality_function(n: int) -> list[list[int]]:
    """Equality on n-bit strings as a 0/1 matrix, row x and column y."""
    size = 1 << n
    return [[int(x == y) for y in range(size)] for x in range(size)]


def deterministic_cc_matrix(values: Sequence[Sequence[int]]) -> int:
    """Exact deterministic communication cost of an arbitrary 0/1 matrix.

    Convention: a monochromatic rectangle costs 0; otherwise one party sends
    one bit splitting its side, costing 1 plus the worse branch, minimized
    over senders and bipartitions. The final answer bit is not charged.
    ``values`` is a sequence of row sequences whose entries are the Python
    ints 0 and 1 (not bools), with at most 2^``DCC_N_CAP`` rows and columns.
    """
    if not isinstance(values, Sequence) or not all(isinstance(row, Sequence) for row in values):
        raise ConfigError("values must be a sequence of row sequences")
    n_rows = len(values)
    if n_rows == 0 or not values[0] or any(len(row) != len(values[0]) for row in values):
        raise ConfigError("values must be a nonempty rectangular matrix")
    n_cols = len(values[0])
    cap = 1 << DCC_N_CAP
    if n_rows > cap or n_cols > cap:
        raise ConfigError(f"matrix {n_rows}x{n_cols} exceeds the {cap}x{cap} search cap")
    if not all(type(v) is int and v in (0, 1) for row in values for v in row):
        raise ConfigError("matrix entries must be the integers 0 or 1")

    # A matrix is a tuple of row bitmasks over ``width`` columns. Removing a
    # duplicate row or column does not change the cost (the twin follows its
    # copy through any protocol), so the search runs on reduced matrices
    # only, and a reduced matrix is monochromatic exactly when it is 1x1.
    # Cost is the same for a matrix and its transpose.

    def transpose(rows: Sequence[int], width: int) -> list[int]:
        return [sum((r >> j & 1) << i for i, r in enumerate(rows)) for j in range(width)]

    def reduced(rows: Sequence[int], width: int) -> tuple[tuple[int, ...], int]:
        rows = sorted(set(rows))
        cols = sorted(set(transpose(rows, width)))
        return tuple(sorted(transpose(cols, len(rows)))), len(cols)

    def rank(rows: Iterable[int], width: int) -> int:
        # Over the integers mod a prime: the rank over any field bounds the
        # leaf count, and no minor of a 0/1 8x8 matrix is a nonzero multiple
        # of this prime, so this is the rational rank.
        prime = 2**31 - 1
        vecs = [[r >> j & 1 for j in range(width)] for r in rows]
        found = 0
        for j in range(width):
            pivot = next((v for v in vecs if v[j]), None)
            if pivot is None:
                continue
            vecs.remove(pivot)
            inv = pow(pivot[j], -1, prime)
            for v in vecs:
                if v[j]:
                    f = v[j] * inv % prime
                    v[j:] = [(x - f * y) % prime for x, y in zip(v[j:], pivot[j:])]
            found += 1
        return found

    memo: dict[tuple[tuple[int, ...], int], int] = {}

    def cost(rows: tuple[int, ...], width: int) -> int:
        key = (rows, width)
        hit = memo.get(key)
        if hit is not None:
            return hit
        height = len(rows)
        if height == 1 and width == 1:
            memo[key] = 0
            return 0
        # Bounds. A depth-c tree has at most 2^c leaves, and the 1-leaves
        # (0-leaves) sum to the matrix (its complement), so their number is
        # at least its rank. Sending one's line index and then the answer
        # bit costs ceil(log2 lines) + 1.
        full = (1 << width) - 1
        low = (rank(rows, width) + rank((full ^ r for r in rows), width) - 1).bit_length()
        best = (min(height, width) - 1).bit_length() + 1
        for lines, length in ((rows, width), (transpose(rows, width), height)):
            count = len(lines)
            # Canonical bipartitions: the half containing line 0.
            for half in range(1, (1 << count) - 1, 2):
                if best == low:
                    break
                a = cost(*reduced([r for i, r in enumerate(lines) if half >> i & 1], length))
                if 1 + a >= best:
                    continue
                b = cost(*reduced([r for i, r in enumerate(lines) if not half >> i & 1], length))
                best = min(best, 1 + max(a, b))
        memo[key] = best
        return best

    return cost(*reduced([sum(v << j for j, v in enumerate(row)) for row in values], n_cols))
