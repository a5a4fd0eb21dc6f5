"""Tradeoff report: photon budget and mode count versus communication cost.

The quantum side of the tradeoff is min{mu*log2(m), m*log2(1+mu/delta)}: the
two exact upper bounds on the log-rank of the cutoff subspace any truncated
protocol message lives in. The classical side is log2 C(a+m, m) itself. Rows
pair those with exactly computable per-instance data (rank, entropy bound,
brute-force deterministic cost for tiny n). Asymptotic facts from the
literature ride along as tagged reference metadata and are never asserted
numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .combinatorics import entropy_bound, markov_photon_cutoff
from .errors import ConfigError
from .smp import DCC_N_CAP, RepetitionCode, deterministic_cc_matrix, equality_function

#: Fixed column order of the tradeoff CSV.
CSV_HEADER = "n,m,mu,delta,a,log2_rank,term_photon,term_mode,lhs_min,classical_lhs,entropy_bound,D_exact,notes"


def quantum_tradeoff_lhs(m: int, mu: float, delta: float) -> tuple[float, float, float]:
    """(term_photon, term_mode, lhs_min) for the quantum tradeoff.

    term_photon = mu * log2(m) charges the photon budget;
    term_mode = m * log2(1 + mu/delta) charges the mode count;
    lhs_min is their minimum. Requires m >= 2 (the photon term needs
    log2(m) > 0 to mean anything).
    """
    if m < 2:
        raise ConfigError(f"quantum tradeoff requires m >= 2, got m={m}")
    if mu < 0.0:
        raise ConfigError(f"mu must be >= 0, got {mu}")
    if not 0.0 < delta < 1.0:
        raise ConfigError(f"delta must be in (0, 1), got {delta}")
    term_photon = mu * math.log2(m)
    term_mode = m * math.log2(1.0 + mu / delta)
    return term_photon, term_mode, min(term_photon, term_mode)


@dataclass(frozen=True)
class ComplexityReference:
    """A known communication-complexity value or asymptotic tag.

    ``value`` is set only when produced by the exact brute-force oracle;
    asymptotic facts live in ``expression`` and are never rendered as
    numbers.
    """

    function: str
    n: int | None
    kind: str  # "D" | "R_parallel" | "Q_parallel"
    value: int | None
    expression: str | None
    provenance: str

    def __post_init__(self) -> None:
        if self.kind not in ("D", "R_parallel", "Q_parallel"):
            raise ConfigError(f"unknown reference kind {self.kind!r}")
        if (self.value is None) == (self.expression is None):
            raise ConfigError("exactly one of value/expression must be set")


def default_references() -> tuple[ComplexityReference, ...]:
    """Reference table: the exact deterministic cost of n-bit equality for
    n = 1, 2, 3 from the brute-force oracle, plus tagged asymptotics."""
    exact = tuple(
        ComplexityReference(
            function="equality",
            n=n,
            kind="D",
            value=deterministic_cc_matrix(equality_function(n)),
            expression=None,
            provenance="exhaustive protocol-tree search (this package)",
        )
        for n in (1, 2, 3)
    )
    return exact + (
        ComplexityReference(
            function="equality",
            n=None,
            kind="R_parallel",
            value=None,
            expression="Theta(sqrt(n))",
            provenance="Ambainis 1996; Babai-Kimmel 1997 (private-coin fingerprints, message length Theta(sqrt(n)))",
        ),
        ComplexityReference(
            function="equality",
            n=None,
            kind="Q_parallel",
            value=None,
            expression="O(log n)",
            provenance="Buhrman-Cleve-Watrous-de Wolf 2001",
        ),
        ComplexityReference(
            function="any",
            n=None,
            kind="R_parallel",
            value=None,
            expression="Omega(sqrt(D(f)))",
            provenance="Babai-Kimmel 1997",
        ),
    )


@dataclass(frozen=True)
class ReportPoint:
    """One (n, m, mu, delta) grid point. ``n`` is set for a point of an
    n-bit equality protocol family and left out of pure sweeps."""

    m: int
    mu: float
    delta: float
    n: int | None = None
    notes: str = ""


@dataclass(frozen=True)
class TradeoffRow:
    n: int | None
    m: int
    mu: float
    delta: float
    a: int
    log2_rank: float
    term_photon: float
    term_mode: float
    lhs_min: float
    classical_lhs: float
    entropy_bound: float
    d_exact: int | None
    notes: str

    def csv_cells(self) -> list[str]:
        def opt(v) -> str:
            return "" if v is None else str(v)

        return [
            opt(self.n),
            str(self.m),
            repr(self.mu),
            repr(self.delta),
            str(self.a),
            repr(self.log2_rank),
            repr(self.term_photon),
            repr(self.term_mode),
            repr(self.lhs_min),
            repr(self.classical_lhs),
            repr(self.entropy_bound),
            opt(self.d_exact),
            self.notes,
        ]


def build_report(points: list[ReportPoint]) -> list[TradeoffRow]:
    """One tradeoff row per grid point.

    ``log2_rank`` and ``classical_lhs`` are the same number, log2 C(a+m, m),
    taken once per row. ``D_exact``, the cost of n-bit equality, is computed
    by the brute-force oracle, once per distinct n, only for points with
    n <= 3.
    """
    d_exact_by_n: dict[int, int] = {}
    rows = []
    for pt in points:
        a = markov_photon_cutoff(pt.mu, pt.delta)
        log2_rank, h_bound = entropy_bound(a, pt.m)
        term_photon, term_mode, lhs_min = quantum_tradeoff_lhs(pt.m, pt.mu, pt.delta)
        d_exact = None
        if pt.n is not None and pt.n <= DCC_N_CAP:
            if pt.n not in d_exact_by_n:
                d_exact_by_n[pt.n] = deterministic_cc_matrix(equality_function(pt.n))
            d_exact = d_exact_by_n[pt.n]
        rows.append(
            TradeoffRow(
                n=pt.n,
                m=pt.m,
                mu=pt.mu,
                delta=pt.delta,
                a=a,
                log2_rank=log2_rank,
                term_photon=term_photon,
                term_mode=term_mode,
                lhs_min=lhs_min,
                classical_lhs=log2_rank,
                entropy_bound=h_bound,
                d_exact=d_exact,
                notes=pt.notes,
            )
        )
    return rows


def qfp_report_points(
    n_values: list[int],
    mu: float,
    delta: float,
    repeats: int = 3,
) -> list[ReportPoint]:
    """Report points for a coherent-fingerprint family, one per input size.

    Each point takes the protocol's m from its repetition code and its mu as
    given, and the notes column tabulates log2(m)/log2(n) as a trend; nothing
    asymptotic is asserted.
    """
    points = []
    for n in n_values:
        m = RepetitionCode(n, repeats).m
        ratio = math.log2(m) / math.log2(n) if n > 1 else float("inf")
        points.append(
            ReportPoint(
                m=m,
                mu=mu,
                delta=delta,
                n=n,
                notes=f"qfp repetition x{repeats} log2m_over_log2n={ratio!r}",
            )
        )
    return points
