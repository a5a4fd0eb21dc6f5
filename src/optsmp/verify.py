"""Property suites: every inequality the package relies on, checked on
randomized ensembles and exact sweeps.

Each suite reports its case count and the minimum slack it observed, where
slack >= required_slack (normally -1e-9 or tighter) means the property held.
Suites are deterministic functions of (seed, size); the CLI exposes them via
``verify --suite NAME``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import fock, truncation
from .combinatorics import (
    binomial_power_bound,
    entropy_profile,
    iter_occupations,
    log_rank_bounds,
)
from .errors import ConfigError, PremiseViolationError
from .fock import (
    DenseBasis,
    DenseOperator,
    FockDiagonalState,
    PureState,
    total_photons,
)
from .smp import DiagonalMapReferee, SmpProtocol, evaluate_error, letter_per_input

DEFAULT_SEED = 1729

#: Required slack per suite under normal operation.
NORMAL_TOLERANCE = {
    "metrics": -1e-9,
    "markov": -1e-12,
    "gentle": -1e-9,
    "closeness": -1e-9,
    "perturb": -1e-9,
    "binom": 0.0,
    "logrank": -1e-9,
    "entropy": -1e-9,
}


@dataclass(frozen=True)
class SuiteResult:
    name: str
    cases: int
    min_slack: float
    passed: bool
    failures: tuple[str, ...]

    def summary_line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"suite={self.name} cases={self.cases} min_slack={self.min_slack!r} "
            f"result={status}"
        )


class _Collector:
    """Accumulates (slack, description) pairs against a required slack."""

    def __init__(self, required: float) -> None:
        self.required = required
        self.cases = 0
        self.min_slack = math.inf
        self.failures: list[str] = []

    def add(self, slack: float, describe: Callable[[], str]) -> None:
        """Record one case. A NaN slack fails, like a slack below the
        requirement, and is the suite's minimum from then on: no comparison
        with NaN is true, so it would otherwise pass unseen."""
        self.cases += 1
        if slack < self.min_slack or math.isnan(slack):
            self.min_slack = slack
        if not slack >= self.required and len(self.failures) < 5:
            self.failures.append(f"slack={slack!r} {describe()}")

    def result(self, name: str) -> SuiteResult:
        min_slack = self.min_slack if self.cases else 0.0
        return SuiteResult(
            name=name,
            cases=self.cases,
            min_slack=min_slack,
            passed=not self.failures,
            failures=tuple(self.failures),
        )


# ---------------------------------------------------------------------------
# Random ensembles

def _random_sparse_pure(rng: np.random.Generator, modes: int, max_occ: int, max_terms: int) -> PureState:
    k = int(rng.integers(1, max_terms + 1))
    occs = {tuple(int(v) for v in row) for row in rng.integers(0, max_occ + 1, size=(k, modes))}
    amps = {
        occ: complex(rng.normal(), rng.normal())
        for occ in sorted(occs)
    }
    return PureState(modes, amps, normalize=True)


def _random_diagonal(rng: np.random.Generator, modes: int, max_occ: int, max_terms: int) -> FockDiagonalState:
    k = int(rng.integers(1, max_terms + 1))
    occs = {tuple(int(v) for v in row) for row in rng.integers(0, max_occ + 1, size=(k, modes))}
    probs = {occ: float(rng.exponential()) + 1e-12 for occ in sorted(occs)}
    return FockDiagonalState(modes, probs, normalize=True)


#: Largest total-photon cutoff per mode count keeping the dense dimension at
#: or below 32; it is also the largest photon total in :func:`_dense_basis`.
_DENSE_CUTOFF = {1: 31, 2: 6, 3: 3}


@functools.cache
def _dense_basis(modes: int) -> DenseBasis:
    occs = iter_occupations(modes, _DENSE_CUTOFF[modes])
    return DenseBasis(sorted(occs, key=lambda o: (total_photons(o), o)))


def _random_dense(rng: np.random.Generator, modes: int) -> DenseOperator:
    basis = _dense_basis(modes)
    d = len(basis)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return DenseOperator(basis, rho)


def _random_dense_concentrated(
    rng: np.random.Generator, modes: int, cutoff: int, above_mass: float
) -> DenseOperator:
    """Density operator with at most ``above_mass`` weight above the cutoff."""
    basis = _dense_basis(modes)
    inside = np.flatnonzero(basis.totals <= cutoff)
    d = len(basis)
    k = len(inside)
    g = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    low = g @ g.conj().T
    low /= np.trace(low).real
    rho = np.zeros((d, d), dtype=complex)
    rho[np.ix_(inside, inside)] = low
    g2 = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    full = g2 @ g2.conj().T
    full /= np.trace(full).real
    mixed = (1.0 - above_mass) * rho + above_mass * full
    return DenseOperator(basis, mixed)


# ---------------------------------------------------------------------------
# Suites

def suite_metrics(seed: int, size: int, required: float) -> SuiteResult:
    rng = np.random.default_rng([seed, 1])
    col = _Collector(required)
    for _ in range(size):
        modes = int(rng.integers(1, 4))
        a = _random_sparse_pure(rng, modes, 4, 10)
        b = _random_sparse_pure(rng, modes, 4, 10)
        c = _random_sparse_pure(rng, modes, 4, 10)
        tab = fock.trace_distance(a, b)
        tba = fock.trace_distance(b, a)
        col.add(1e-12 - abs(tab - tba), lambda: "pure trace distance symmetry")
        tac = fock.trace_distance(a, c)
        tbc = fock.trace_distance(b, c)
        col.add(tac + tbc - tab + 1e-12, lambda: "pure triangle inequality")
        f = fock.fidelity(a, b)
        col.add(tab - (1.0 - f), lambda: f"lower Fuchs-van de Graaf f={f!r}")
        col.add(math.sqrt(max(0.0, 1.0 - f * f)) - tab, lambda: f"upper Fuchs-van de Graaf f={f!r}")
        # Dense cross-check of the sparse pure-state computations.
        basis = DenseBasis(
            sorted(set(a.amplitudes) | set(b.amplitudes), key=lambda o: (total_photons(o), o))
        )
        da = DenseOperator.from_pure_state(a, basis)
        db = DenseOperator.from_pure_state(b, basis)
        col.add(
            1e-8 - abs(fock.trace_distance(da, db) - tab),
            lambda: "sparse-vs-dense trace distance",
        )
        col.add(1e-8 - abs(fock.fidelity(da, db) - f), lambda: "sparse-vs-dense fidelity")
        p = _random_diagonal(rng, modes, 4, 10)
        q = _random_diagonal(rng, modes, 4, 10)
        tv = fock.trace_distance(p, q)
        col.add(1.0 - tv + 1e-12, lambda: "diagonal distance bounded by 1")
        col.add(tv, lambda: "diagonal distance nonnegative")
    return col.result("metrics")


def suite_markov(seed: int, size: int, required: float) -> SuiteResult:
    rng = np.random.default_rng([seed, 2])
    col = _Collector(required)
    thresholds = [0.5, 1.0, 2.0, 3.5, 5.0, 8.0, 13.0]
    for i in range(size):
        kind = i % 3
        modes = int(rng.integers(1, 4))
        if kind == 0:
            state = _random_sparse_pure(rng, modes, 6, 12)
        elif kind == 1:
            state = _random_diagonal(rng, modes, 6, 12)
        else:
            state = _random_dense(rng, modes)
        mean = fock.mean_photon_number(state)
        # One distribution per state; each tail is the sum tail_probability takes.
        dist = fock.photon_number_distribution(state)
        for a in thresholds:
            tail = sum(p for n, p in dist.items() if n >= a)
            col.add(
                mean / a - tail,
                lambda: f"mean={mean!r} threshold={a!r} tail={tail!r}",
            )
    return col.result("markov")


def suite_gentle(seed: int, size: int, required: float) -> SuiteResult:
    rng = np.random.default_rng([seed, 3])
    col = _Collector(required)
    for i in range(size):
        modes = int(rng.integers(1, 4))
        dense = _random_dense(rng, modes)
        cutoff = int(rng.integers(0, _DENSE_CUTOFF[modes] + 1))
        slack = truncation.check_gentle_measurement(dense, cutoff)
        col.add(slack, lambda: f"dense modes={modes} cutoff={cutoff}")
        pure = _random_sparse_pure(rng, modes, 6, 12)
        min_total = min(total_photons(idx) for idx in pure.amplitudes)
        pc = int(rng.integers(min_total, pure.max_total_photons() + 1))
        pslack = truncation.check_gentle_measurement(pure, pc)
        col.add(pslack, lambda: f"pure modes={modes} cutoff={pc}")
        col.add(1e-9 - abs(pslack), lambda: "pure fidelity equals sqrt(weight)")
    return col.result("gentle")


def suite_closeness(seed: int, size: int, required: float) -> SuiteResult:
    rng = np.random.default_rng([seed, 4])
    col = _Collector(required)
    held = 0
    for i in range(size):
        delta = [0.3, 0.1, 0.02][i % 3]
        modes = int(rng.integers(1, 4))
        cutoff = int(rng.integers(1, _DENSE_CUTOFF[modes]))
        above = float(rng.uniform(0.0, 1.5 * delta))
        state = _random_dense_concentrated(rng, modes, cutoff, above)
        try:
            gap = truncation.check_projector_closeness(state, cutoff, delta)
        except PremiseViolationError:
            continue
        held += 1
        col.add(gap, lambda: f"delta={delta} cutoff={cutoff} modes={modes}")
    if held == 0:
        return SuiteResult("closeness", 0, 0.0, False, ("premise never held",))
    return col.result("closeness")


def _toy_protocol(letters: tuple[PureState, ...] | None = None, mu: float = 1.0) -> SmpProtocol:
    """The toy protocol: input x sends |x> (or ``letters[x]``) in one mode."""
    return SmpProtocol(
        name="toy-basis" if letters is None else "toy-basis-perturbed",
        n=1,
        m=1,
        mu=mu,
        letters=letters or (PureState.basis_state((0,)), PureState.basis_state((1,))),
        codewords=letter_per_input,
        referee=DiagonalMapReferee(),
    )


def _perturbed_toy(theta0: float, theta1: float) -> tuple[SmpProtocol, float]:
    """Toy protocol with rotated message states; returns it with the max
    per-message trace distance."""
    letters = tuple(
        PureState(1, {(x,): math.cos(theta), (x + 1,): math.sin(theta)}, normalize=True)
        for x, theta in enumerate((theta0, theta1))
    )
    t = max(abs(math.sin(theta0)), abs(math.sin(theta1)))
    return _toy_protocol(letters, mu=2.0), t


def suite_perturb(seed: int, size: int, required: float) -> SuiteResult:
    rng = np.random.default_rng([seed, 5])
    col = _Collector(required)
    base_error = evaluate_error(_toy_protocol()).worst_error
    for _ in range(size):
        theta0 = float(rng.uniform(0.0, 0.6))
        theta1 = float(rng.uniform(0.0, 0.6))
        perturbed, t = _perturbed_toy(theta0, theta1)
        err = evaluate_error(perturbed).worst_error
        bound = truncation.perturbed_error_bound(base_error, t)
        col.add(bound - err, lambda: f"theta0={theta0!r} theta1={theta1!r} t={t!r}")
    return col.result("perturb")


def suite_binom(seed: int, size: int, required: float) -> SuiteResult:
    col = _Collector(required)
    for n in range(1, size + 1):
        for m in range(1, size + 1):
            binom, bound = binomial_power_bound(n, m)
            # Exact integers; slack in log2 so huge values stay comparable.
            slack = math.log2(bound) - math.log2(binom)
            col.add(slack, lambda: f"n={n} m={m}")
    return col.result("binom")


def suite_logrank(seed: int, size: int, required: float) -> SuiteResult:
    col = _Collector(required)
    m_max = max(2, size)
    for m in range(2, m_max + 1):
        for mu in (0.5, 1.0, 2.0, 4.0, 8.0):
            for delta in (1e-1, 1e-2, 1e-4):
                b = log_rank_bounds(m, mu, delta)
                col.add(
                    min(b.bound_photon, b.bound_mode) - b.log2_rank,
                    lambda: f"m={m} mu={mu} delta={delta}",
                )
    return col.result("logrank")


def suite_entropy(seed: int, size: int, required: float) -> SuiteResult:
    col = _Collector(required)
    step = 1 if size <= 2000 else 7
    rows = entropy_profile(list(range(1, size + 1, step)))
    for row in rows:
        col.add(
            row["entropy_bound"] - row["log2_rank"],
            lambda: f"n={row['n']} m={row['m']}",
        )
        if row["n"] >= 100:
            col.add(row["log2_rank"] / math.sqrt(row["n"]) - 0.5, lambda: f"ratio low n={row['n']}")
            col.add(2.1 - row["log2_rank"] / math.sqrt(row["n"]), lambda: f"ratio high n={row['n']}")
    return col.result("entropy")


SUITES: dict[str, Callable[[int, int, float], SuiteResult]] = {
    "metrics": suite_metrics,
    "markov": suite_markov,
    "gentle": suite_gentle,
    "closeness": suite_closeness,
    "perturb": suite_perturb,
    "binom": suite_binom,
    "logrank": suite_logrank,
    "entropy": suite_entropy,
}

DEFAULT_SIZES = {
    "metrics": 120,
    "markov": 150,
    "gentle": 150,
    "closeness": 300,
    "perturb": 60,
    "binom": 50,
    "logrank": 64,
    "entropy": 2000,
}


def run_suites(
    names: list[str] | None = None,
    *,
    seed: int = DEFAULT_SEED,
    size: int | None = None,
    inject_fault: str | None = None,
) -> list[SuiteResult]:
    """Run the named suites (all by default) and return their results.

    ``inject_fault`` names a suite whose required slack is raised to an
    unsatisfiable +0.1, for exercising the failure path end to end. A
    ``size`` below 1 is refused, since no suite would check anything, and so
    is a negative ``seed``, which numpy cannot seed a stream from.
    """
    if size is not None and size < 1:
        raise ConfigError(f"suite size must be >= 1, got {size}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if names is None or not names:
        names = list(SUITES)
    results = []
    for name in names:
        if name not in SUITES:
            raise ConfigError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        required = NORMAL_TOLERANCE[name]
        if inject_fault == name:
            required = 0.1
        suite_size = size if size is not None else DEFAULT_SIZES[name]
        results.append(SUITES[name](seed, suite_size, required))
    return results
