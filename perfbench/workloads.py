"""Seeded request lists for the three benchmark workloads.

Every workload has a fixed shape: the number of requests of each kind, their
input sizes ``n`` and mode counts ``m`` never depend on the seed, so the
amount of work per pass is the same for every seed. The seed draws the
parameters inside that shape (mean photon numbers, truncation deltas, table
contents, suite seeds) and the request order.

This module imports nothing from ``optsmp``: the inputs and the reference
values the checks use are computed independently of the program.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

#: Largest decimal digit count CPython converts int -> str by default. The
#: ``rank`` subcommand prints the exact rank, so draws beyond this exit 1;
#: that defect is reproduced by the known-defect probe, not by the timed mix.
INT_STR_DIGITS = 4300

WORKLOADS = ("fingerprint-exhaustive", "truncation-binding", "tradeoff-reports")

#: Verify suites in the timed mix. ``metrics`` is a known defect on many
#: seeds (cancellation in the pure-state trace distance); the known-defect
#: probe runs it instead.
TIMED_SUITES = ("binom", "closeness", "entropy", "gentle", "logrank", "markov", "perturb")
#: Runs per pass of each timed suite; the two dense-state suites are slow.
SUITE_REPEATS = {"closeness": 1, "gentle": 1}


@dataclass(frozen=True)
class Request:
    """One CLI invocation: ``argv`` excludes ``--config`` and ``--out``."""

    argv: tuple[str, ...]
    config: dict | None
    check: dict
    pairs: int = 0
    shape: str = ""


def poisson_sf(mean: float, k: int) -> float:
    """Pr[N > k] for N ~ Poisson(mean), by direct summation of the head."""
    term = math.exp(-mean)
    head = term
    for j in range(1, k + 1):
        term *= mean / j
        head += term
    return max(0.0, 1.0 - head)


def strata(rng: random.Random, k: int, lo: float, hi: float) -> list[float]:
    """k draws, one uniform in each of k equal slices of [lo, hi), shuffled.

    Per-request cost depends a little on the drawn value, so stratifying
    keeps the spread of values, hence the work, the same for every seed.
    """
    width = (hi - lo) / k
    values = [round(lo + (i + rng.random()) * width, 6) for i in range(k)]
    rng.shuffle(values)
    return values


def _qfp(n: int, mu: float, code: dict, truncate: bool, shape: str) -> Request:
    argv = ("simulate", "--truncate", "0.0001") if truncate else ("simulate",)
    pairs = 4**n * (2 if truncate else 1)
    return Request(
        argv=argv,
        config={"type": "qfp", "n": n, "mu": mu, "code": code},
        check={"type": "qfp", "n": n, "mu": mu, "code": code, "truncate": 1e-4 if truncate else None},
        pairs=pairs,
        shape=shape,
    )


def fingerprint_exhaustive(seed: int) -> list[Request]:
    """Exhaustive coherent fingerprints, plus classical and sampled requests.

    Per shape ``(n, code, count, truncated)``: the code kind of each request
    is drawn from a balanced multiset, and a fixed 26 of the 92 exhaustive
    requests carry a vacuous ``--truncate 1e-4`` (cutoff >= 5000 photons).
    """
    rng = random.Random(f"fingerprint-exhaustive:{seed}")
    requests: list[Request] = []
    # Four truncated n=5 repetition requests, the slowest class below the
    # n=6, classical n=7 and sampled ones, hold the request p90 inside one
    # class; with two it fell on the step down to the next class.
    for n, repeats, fold_m, count, truncated in ((4, 3, 3, 38, 8), (5, 2, 4, 8, 4), (6, 2, 5, 2, 1)):
        for kind, code in (("rep", {"kind": "repetition", "repeats": repeats}), ("xor", {"kind": "xor-fold", "m": fold_m})):
            flags = [True] * truncated + [False] * (count - truncated)
            rng.shuffle(flags)
            for flag, mu in zip(flags, strata(rng, count, 0.5, 4.0)):
                requests.append(_qfp(n, mu, code, flag, f"qfp-n{n}-{kind}"))
    for n, fold_m, count in ((6, 4, 2), (7, 5, 1)):
        code = {"kind": "xor-fold", "m": fold_m}
        for _ in range(count):
            requests.append(
                Request(
                    argv=("simulate",),
                    config={"type": "classical-trivial", "n": n, "code": code},
                    check={"type": "classical-trivial", "n": n, "code": code, "truncate": None},
                    pairs=4**n,
                    shape=f"classical-n{n}",
                )
            )
    for mu in strata(rng, 3, 0.5, 4.0):
        sample_seed = rng.randrange(1, 10**6)
        code = {"kind": "repetition", "repeats": 2}
        requests.append(
            Request(
                argv=("simulate", "--samples", "512", "--seed", str(sample_seed)),
                config={"type": "qfp", "n": 10, "mu": mu, "code": code},
                check={"type": "qfp", "n": 10, "mu": mu, "code": code, "truncate": None, "samples": 512},
                pairs=512,
                shape="qfp-n10-sampled",
            )
        )
    rng.shuffle(requests)
    return requests


#: (n, repeats, cutoff a, count, mu band). Each band keeps the per-mode
#: coherent pre-truncation fixed (tail bound 1e-10 over m modes), so the
#: joint support sizes, hence the work, do not depend on the drawn mu.
BINDING_SHAPES = (
    (1, 1, 2, 10, (0.85, 1.05)),
    (1, 1, 4, 10, (0.85, 1.05)),
    (1, 1, 6, 11, (0.85, 1.05)),
    (1, 2, 2, 10, (0.9, 1.2)),
    (1, 2, 3, 10, (0.9, 1.2)),
    (1, 2, 4, 8, (0.9, 1.2)),
    (1, 2, 5, 4, (0.9, 1.2)),
    (2, 1, 2, 8, (0.9, 1.2)),
    (2, 1, 3, 6, (0.9, 1.2)),
    (2, 1, 4, 4, (0.9, 1.2)),
    (2, 1, 5, 2, (0.9, 1.2)),
    (1, 3, 2, 6, (0.9, 1.3)),
    (1, 3, 3, 4, (0.9, 1.3)),
    (1, 3, 4, 2, (0.9, 1.3)),
    (1, 4, 2, 2, (0.75, 1.15)),
    (1, 4, 3, 1, (0.75, 1.15)),
    (2, 2, 2, 2, (0.75, 1.15)),
)


def truncation_binding(seed: int) -> list[Request]:
    """``simulate --truncate delta`` with a binding cutoff on small qfp.

    delta = mu / (a + u) with u in [0.1, 0.9], so floor(mu/delta) = a. The
    cutoff binds when the Poisson tail of one mode above ``a`` exceeds the
    protocol's whole pre-truncation budget (1e-10): the program must then
    keep more than ``a`` photons per mode, so the message's maximum photon
    number is above the cutoff.
    """
    rng = random.Random(f"truncation-binding:{seed}")
    requests = []
    for n, repeats, a, count, (lo, hi) in BINDING_SHAPES:
        m = n * repeats
        for mu, frac in zip(strata(rng, count, lo, hi), strata(rng, count, 0.1, 0.9)):
            delta = mu / (a + frac)
            if not (math.floor(mu / delta) == a and poisson_sf(mu / m, a) > 1e-10):
                raise AssertionError(f"generator drew a vacuous cutoff: mu={mu} delta={delta} a={a}")
            code = {"kind": "repetition", "repeats": repeats}
            requests.append(
                Request(
                    argv=("simulate", "--truncate", repr(delta)),
                    config={"type": "qfp", "n": n, "mu": mu, "code": code},
                    check={"type": "qfp", "n": n, "mu": mu, "code": code, "truncate": delta, "binding_cutoff": a},
                    pairs=2 * 4**n,
                    shape=f"binding-n{n}-m{m}-a{a}",
                )
            )
    rng.shuffle(requests)
    return requests


def rank_digits(m: int, a: int) -> float:
    """Decimal digits of C(a+m, m), from log-gamma."""
    return (math.lgamma(a + m + 1) - math.lgamma(a + 1) - math.lgamma(m + 1)) / math.log(10) + 1


def tradeoff_reports(seed: int) -> list[Request]:
    """Report requests that evaluate no protocol: bounds, dcc, rank, verify.

    A ``rank`` draw whose exact rank would exceed the int-to-str digit limit
    is given a smaller ``m``: the limit itself is a known defect, reproduced
    outside the timed mix.
    """
    rng = random.Random(f"tradeoff-reports:{seed}")
    deltas = (1e-2, 1e-3, 1e-4)
    requests = []
    grid = {
        "kind": "grid",
        "m": sorted(rng.sample(range(2, 65), 3)),
        "mu": sorted(round(rng.uniform(0.5, 4.0), 6) for _ in range(2)),
        "delta": sorted(rng.sample(deltas, 2)),
    }
    requests.append(Request(("bounds",), grid, {"type": "bounds"}, shape="bounds-grid"))
    qfp = {
        "kind": "qfp",
        "n": sorted(rng.sample(range(2, 9), 3)),
        "mu": round(rng.uniform(0.5, 4.0), 6),
        "delta": rng.choice(deltas),
        "repeats": rng.randint(1, 3),
    }
    requests.append(Request(("bounds",), qfp, {"type": "bounds"}, shape="bounds-qfp"))
    for n in (1, 2, 3):
        requests.append(
            Request(("dcc",), {"type": "equality", "n": n}, {"type": "dcc", "equality_n": n}, shape=f"dcc-eq{n}")
        )
    for side, count in ((8, 1), (4, 12)):
        for _ in range(count):
            values = [[rng.randint(0, 1) for _ in range(side)] for _ in range(side)]
            requests.append(
                Request(("dcc",), {"type": "table", "values": values}, {"type": "dcc", "values": values}, shape=f"dcc-{side}x{side}")
            )
    ranks = 55
    for i, (m_draw, mu) in enumerate(zip(strata(rng, ranks, 2, 4097), strata(rng, ranks, 0.5, 4.0))):
        m, delta = int(m_draw), deltas[i % 3]
        while rank_digits(m, math.floor(mu / delta) + 1) >= INT_STR_DIGITS - 100:
            m = rng.randint(2, m)
        requests.append(
            Request(
                ("rank", str(m), "--mu", repr(mu), "--delta", repr(delta)),
                None,
                {"type": "rank", "m": m, "mu": mu, "delta": delta},
                shape="rank",
            )
        )
    for suite in TIMED_SUITES:
        for _ in range(SUITE_REPEATS.get(suite, 5)):
            requests.append(
                Request(
                    ("verify", "--suite", suite, "--seed", str(rng.randrange(1, 10**6))),
                    None,
                    {"type": "verify"},
                    shape=f"verify-{suite}",
                )
            )
    rng.shuffle(requests)
    return requests


GENERATORS = {
    "fingerprint-exhaustive": fingerprint_exhaustive,
    "truncation-binding": truncation_binding,
    "tradeoff-reports": tradeoff_reports,
}

#: Repro commands of known defects, run once per benchmark run outside the
#: timed loop. Each is expected to exit non-zero until the program is fixed.
KNOWN_DEFECTS = (
    ("verify-metrics-cancellation", ("verify", "--suite", "metrics", "--seed", "3")),
    ("rank-int-str-limit", ("rank", "4096", "--mu", "2", "--delta", "1e-4")),
)
