"""Property suites: every inequality the package relies on, checked on
randomized ensembles and exact sweeps.

Each suite reports its case count and the minimum slack it observed, where
slack >= required_slack (normally -1e-9 or tighter) means the property held.
Suites are deterministic functions of (seed, size); the CLI exposes them via
``verify --suite NAME``.

Only the suites build dense density matrices (:class:`DenseOperator`), to
check the lemmas on mixed states, so they live here. ``gentle`` and
``closeness`` draw their cases one at a time but evaluate them as array
passes over small stacks of them, with the bits of the one-at-a-time checks.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import fock, truncation
from .combinatorics import (
    binomial_power_bound,
    entropy_profile,
    iter_occupations,
    log_rank_bounds,
)
from .errors import (
    BasisMismatchError,
    ConfigError,
    DimensionCapError,
    ModeMismatchError,
    VacuousTruncationError,
)
from .fock import (
    NORMALIZATION_TOL,
    FockDiagonalState,
    FockIndex,
    PureState,
    total_photons,
)
from .smp import DiagonalMapReferee, SmpProtocol, evaluate_error, letter_per_input

DEFAULT_SEED = 1729

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

    def extend(self, slacks: np.ndarray, describe: Callable[[int], str]) -> None:
        """Record a block of cases in one array pass, with the result that
        :meth:`add` gives them one at a time in order: the first of equal
        minima, the last NaN, and the first failures. ``describe(i)`` names
        the case of ``slacks[i]``."""
        if not len(slacks):
            return
        self.cases += len(slacks)
        nans = np.flatnonzero(np.isnan(slacks))
        if len(nans):
            self.min_slack = float(slacks[nans[-1]])
        elif (low := float(slacks[np.argmin(slacks)])) < self.min_slack:
            self.min_slack = low
        room = 5 - len(self.failures)
        for i in np.flatnonzero(~(slacks >= self.required))[:room].tolist():
            self.failures.append(f"slack={float(slacks[i])!r} {describe(i)}")

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
# Dense operators, with the methods of the kinds in :mod:`optsmp.fock`

#: Dense operators are for lemma-scale verification only.
DENSE_DIM_CAP = 256


class DenseBasis(tuple):
    """An ordered occupation basis that passed the dense-basis checks, with
    ``totals``, the photon total of each element as one read-only int array.

    Elements are validated occupation tuples, all distinct, all with one
    mode count, at most ``DENSE_DIM_CAP`` of them. A basis that is already a
    ``DenseBasis`` is returned as it is, so a :class:`DenseOperator` built
    on one, or on another operator's ``basis``, skips the checks; a raw
    tuple or list is checked again on every construction. Equality is never
    consulted: ``((True,),)`` equals ``((1,),)`` but is refused.
    """

    totals: np.ndarray

    def __new__(cls, basis: Iterable[Iterable[int]]) -> "DenseBasis":
        if type(basis) is cls:
            return basis
        checked = super().__new__(cls, [fock.validate_index(occ) for occ in basis])
        if len(checked) == 0:
            raise DimensionCapError("empty basis")
        if len(set(checked)) != len(checked):
            raise ValueError("basis contains duplicate occupation tuples")
        modes = len(checked[0])
        for occ in checked:
            if len(occ) != modes:
                raise ModeMismatchError("basis mixes different mode counts")
        if len(checked) > DENSE_DIM_CAP:
            raise DimensionCapError(f"dimension {len(checked)} exceeds cap {DENSE_DIM_CAP}")
        checked.totals = np.array([total_photons(occ) for occ in checked])
        checked.totals.setflags(write=False)
        return checked


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """Dense operator over an explicit ordered occupation basis.

    Only for small verification sweeps: the dimension cap is deliberate.
    Operators constructed here are used as observables or density operators,
    so finite entries and Hermiticity are enforced at construction. The
    basis is held as a :class:`DenseBasis`, checked once for all the
    operators built on it. Equality and hashing are by identity, as for the
    other kinds, so an operator can key a cache.

    ``matrix`` is one ``d x d`` matrix or a stack of them, shape
    ``(k, d, d)``, over the one basis. Trace distance, fidelity and
    projection evaluate a stack in one array pass and return one value per
    matrix; a single matrix is a stack of one and returns a float. numpy's
    linear-algebra calls treat a 2-D input as a stack of one, so both give
    the same bits. ``weights`` describes a single matrix.
    """

    basis: DenseBasis
    matrix: np.ndarray

    def __post_init__(self) -> None:
        basis = DenseBasis(self.basis)
        object.__setattr__(self, "basis", basis)
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim not in (2, 3) or mat.shape[-2:] != (len(basis), len(basis)):
            raise ModeMismatchError(
                f"matrix shape {mat.shape} does not match basis size {len(basis)}"
            )
        if not np.isfinite(mat).all():
            raise ValueError("matrix has a non-finite entry")
        adjoint = _adjoint(mat)
        # One reduction: on finite entries, the same test as allclose with
        # atol=NORMALIZATION_TOL and rtol=0.
        if not np.abs(mat - adjoint).max() <= NORMALIZATION_TOL:
            raise ValueError("matrix is not Hermitian within tolerance")
        mat = mat + adjoint
        mat /= 2.0
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def modes(self) -> int:
        return len(self.basis[0])

    @property
    def factors(self) -> tuple["DenseOperator"]:
        return (self,)

    def _matrix_on_basis(self, other: "DenseOperator") -> np.ndarray:
        if self.basis != other.basis:
            raise BasisMismatchError("dense operands must share the same ordered basis")
        return other.matrix

    def _trace_distance(self, other: "DenseOperator") -> float | np.ndarray:
        eigs = np.linalg.eigvalsh(self.matrix - self._matrix_on_basis(other))
        return _per_matrix(0.5 * np.abs(eigs).sum(axis=-1))

    def _fidelity(self, other: "DenseOperator") -> float | np.ndarray:
        sb = _sqrt_psd(self._matrix_on_basis(other))
        singular = np.linalg.svd(_sqrt_psd(self.matrix) @ sb, compute_uv=False)
        return _per_matrix(singular.sum(axis=-1))

    def weights(self) -> Iterator[tuple[FockIndex, float]]:
        """``(occupation, diagonal weight)`` pairs over the basis."""
        if self.matrix.ndim != 2:
            raise ModeMismatchError("weights describe one matrix, not a stack")
        return zip(self.basis, np.real(np.diagonal(self.matrix)).tolist())

    def max_total_photons(self) -> int:
        return int(self.basis.totals.max())

    def cutoff_mask(self, cutoff: float | np.ndarray) -> np.ndarray:
        """Boolean mask of basis elements with total photons <= cutoff; an
        array of cutoffs with a trailing axis of 1 gives one mask per row."""
        return self.basis.totals <= cutoff

    def projected(self, cutoff: int | np.ndarray) -> tuple["DenseOperator", float | np.ndarray]:
        """Projection onto total photons <= cutoff, renormalized, and the
        weight it kept. ``cutoff`` is one cutoff, or for a stack an array of
        one per matrix; the weight is a float, or an array for a stack.

        Each weight is the sum of the kept diagonal entries, gathered first as
        for a single matrix. Matrices that share a cutoff share one such
        reduction over contiguous rows, so a stack's weights have the bits of
        its matrices' own: a boolean column gather returns a Fortran-ordered
        block, whose row sums differ in the last bit.
        """
        cutoffs = np.broadcast_to(cutoff, self.matrix.shape[:-2])
        diagonal = np.real(np.diagonal(self.matrix, axis1=-2, axis2=-1))
        weight = np.empty(cutoffs.shape)
        for c in set(cutoffs.ravel().tolist()):
            rows = cutoffs == c
            kept = np.ascontiguousarray(diagonal[rows][:, self.cutoff_mask(c)])
            weight[rows] = kept.sum(axis=-1)
        if (weight <= 0.0).any():
            raise VacuousTruncationError(f"no weight at or below cutoff {cutoff}")
        keep = np.where(self.cutoff_mask(cutoffs[..., None]), 1.0, 0.0)
        mat = self.matrix * (keep[..., :, None] * keep[..., None, :])
        mat /= weight[..., None, None]
        return DenseOperator(self.basis, mat), _per_matrix(weight)

    @classmethod
    def from_pure_state(
        cls, state: PureState, basis: tuple[FockIndex, ...] | None = None
    ) -> "DenseOperator":
        if basis is None:
            basis = tuple(sorted(state.amplitudes, key=lambda occ: (total_photons(occ), occ)))
        vec = np.array([state.amplitude(occ) for occ in basis], dtype=complex)
        missing = 1.0 - float(np.vdot(vec, vec).real)
        if abs(missing) > NORMALIZATION_TOL:
            raise BasisMismatchError("basis does not cover the state's support")
        return cls(basis, np.outer(vec, vec.conj()))


def _adjoint(matrix: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return np.swapaxes(matrix.conj(), -1, -2)


def _per_matrix(values: np.ndarray) -> float | np.ndarray:
    """One value per matrix of a stack; a single matrix's as a float."""
    return values if values.ndim else float(values)


def _sqrt_psd(matrix: np.ndarray) -> np.ndarray:
    """Matrix square root of a Hermitian PSD matrix, or of each matrix in a
    stack, via eigendecomposition.

    Eigenvalues within rounding of zero (below dim * eps * max|lambda|) are
    set to zero: their square roots would turn 1e-16 of noise into 1e-8.
    """
    vals, vecs = np.linalg.eigh(matrix)
    floor = vals.shape[-1] * np.finfo(float).eps * np.abs(vals).max(axis=-1, keepdims=True)
    vals = np.where(vals > floor, vals, 0.0)
    adjoint = _adjoint(vecs)
    vecs *= np.sqrt(vals)[..., None, :]
    return vecs @ adjoint


def _gentle_slacks(state: DenseOperator, cutoffs: np.ndarray) -> np.ndarray:
    """:func:`~optsmp.truncation.check_gentle_measurement` of each matrix of
    a stack at its own cutoff, in one array pass, with the same bits."""
    projected, weight = state.projected(cutoffs)
    return fock.fidelity(state, projected) - np.sqrt(weight)


def _closeness_gaps(
    state: DenseOperator, cutoffs: np.ndarray, deltas: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The gap of :func:`~optsmp.truncation.check_projector_closeness` of
    each matrix of a stack at its own cutoff and delta, with the same bits,
    and whether its premise ``retained weight >= 1 - delta`` holds."""
    projected, weight = state.projected(cutoffs)
    gaps = np.sqrt(deltas) - fock.trace_distance(state, projected)
    return gaps, ~(weight < 1.0 - deltas - truncation.PREMISE_TOL)


# ---------------------------------------------------------------------------
# Random ensembles
#
# Every draw is one vector call per case: a Generator fills a vector from
# the same stream, value by value, that scalar calls would read.

def _random_occupations(
    rng: np.random.Generator, modes: int, max_occ: int, max_terms: int
) -> list[tuple[int, ...]]:
    k = int(rng.integers(1, max_terms + 1))
    return sorted({tuple(row) for row in rng.integers(0, max_occ + 1, size=(k, modes)).tolist()})


def _random_sparse_pure(rng: np.random.Generator, modes: int, max_occ: int, max_terms: int) -> PureState:
    occs = _random_occupations(rng, modes, max_occ, max_terms)
    parts = rng.normal(size=(len(occs), 2)).tolist()
    return PureState(modes, {occ: complex(re, im) for occ, (re, im) in zip(occs, parts)}, normalize=True)


def _random_diagonal(rng: np.random.Generator, modes: int, max_occ: int, max_terms: int) -> FockDiagonalState:
    occs = _random_occupations(rng, modes, max_occ, max_terms)
    weights = (rng.exponential(size=len(occs)) + 1e-12).tolist()
    return FockDiagonalState(modes, dict(zip(occs, weights)), normalize=True)


#: Largest total-photon cutoff per mode count keeping the dense dimension at
#: or below 32; it is also the largest photon total in :func:`_dense_basis`.
_DENSE_CUTOFF = {1: 31, 2: 6, 3: 3}


@functools.cache
def _dense_basis(modes: int) -> DenseBasis:
    occs = iter_occupations(modes, _DENSE_CUTOFF[modes])
    return DenseBasis(sorted(occs, key=lambda o: (total_photons(o), o)))


def _gaussian(rng: np.random.Generator, d: int) -> np.ndarray:
    """A d x d complex Gaussian matrix: real parts, then imaginary parts."""
    parts = rng.normal(size=(2, d, d))
    return parts[0] + 1j * parts[1]


def _density(g: np.ndarray) -> np.ndarray:
    """``g g^dagger`` at unit trace, for one matrix or a stack of them."""
    rho = g @ _adjoint(g)
    rho /= np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
    return rho


def _random_dense(rng: np.random.Generator, modes: int) -> DenseOperator:
    basis = _dense_basis(modes)
    return DenseOperator(basis, _density(_gaussian(rng, len(basis))))


def _concentrated_draws(
    rng: np.random.Generator, modes: int, cutoff: int
) -> tuple[np.ndarray, np.ndarray]:
    """The Gaussian draws of one state of :func:`_concentrated`: one over
    the basis elements at or below the cutoff, one over them all."""
    basis = _dense_basis(modes)
    inside = int(np.count_nonzero(basis.totals <= cutoff))
    return _gaussian(rng, inside), _gaussian(rng, len(basis))


def _concentrated(
    basis: DenseBasis, draws: Sequence[tuple[np.ndarray, np.ndarray]], above_mass: np.ndarray
) -> DenseOperator:
    """A stack of density operators, each with at most ``above_mass`` weight
    above its cutoff: a state inside the cutoff mixed with a full one."""
    low = np.zeros((len(draws), len(basis), len(basis)), dtype=complex)
    for rho, (g, _) in zip(low, draws):
        # The basis is sorted by photon total: the kept elements lead it.
        rho[: len(g), : len(g)] = _density(g)
    above = above_mass[:, None, None]
    low *= 1.0 - above
    mixed = _density(np.stack([g for _, g in draws]))
    mixed *= above
    mixed += low
    return DenseOperator(basis, mixed)


#: Dense cases per stack. A suite evaluates the dense cases of one mode
#: count together, as soon as this many are drawn, and keeps only per-case
#: floats: holding a whole suite's matrices would cost megabytes.
STACK = 8


def _stacks(cases: Iterable[tuple]) -> Iterator[tuple]:
    """Group ``(modes, *fields)`` cases by mode count, in draw order, and
    yield each group as ``(modes, *fields)`` with one tuple per field, as
    soon as it holds ``STACK`` cases; partial groups follow once ``cases``
    is spent."""
    pending: dict[int, list[tuple]] = {}
    for modes, *fields in cases:
        group = pending.setdefault(modes, [])
        group.append(fields)
        if len(group) == STACK:
            yield modes, *zip(*pending.pop(modes))
    for modes, group in pending.items():
        yield modes, *zip(*group)


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
    # Per case: the dense slack, the pure slack, and the mode count, dense
    # cutoff and pure cutoff that name it.
    slacks = np.empty((size, 2))
    labels = np.empty((size, 3), dtype=np.int8)

    def draws() -> Iterator[tuple]:
        for i in range(size):
            modes = int(rng.integers(1, 4))
            g = _gaussian(rng, len(_dense_basis(modes)))
            cutoff = int(rng.integers(0, _DENSE_CUTOFF[modes] + 1))
            state = _random_sparse_pure(rng, modes, 6, 12)
            min_total = min(total_photons(idx) for idx in state.amplitudes)
            pc = int(rng.integers(min_total, state.max_total_photons() + 1))
            slacks[i, 1] = truncation.check_gentle_measurement(state, pc)
            labels[i] = modes, cutoff, pc
            yield modes, i, g, cutoff

    for modes, index, g, cutoff in _stacks(draws()):
        state = DenseOperator(_dense_basis(modes), _density(np.stack(g)))
        slacks[list(index), 0] = _gentle_slacks(state, np.array(cutoff))

    def describe(k: int) -> str:
        i, check = divmod(k, 3)
        modes, cutoff, pc = labels[i].tolist()
        return (
            f"dense modes={modes} cutoff={cutoff}",
            f"pure modes={modes} cutoff={pc}",
            "pure fidelity equals sqrt(weight)",
        )[check]

    col = _Collector(required)
    col.extend(np.column_stack([slacks, 1e-9 - np.abs(slacks[:, 1])]).ravel(), describe)
    return col.result("gentle")


def suite_closeness(seed: int, size: int, required: float) -> SuiteResult:
    rng = np.random.default_rng([seed, 4])
    deltas = [0.3, 0.1, 0.02]
    gaps = np.empty(size)
    held = np.zeros(size, dtype=bool)
    labels = np.empty((size, 2), dtype=np.int8)  # cutoff, mode count

    def draws() -> Iterator[tuple]:
        for i in range(size):
            delta = deltas[i % 3]
            modes = int(rng.integers(1, 4))
            cutoff = int(rng.integers(1, _DENSE_CUTOFF[modes]))
            above = float(rng.uniform(0.0, 1.5 * delta))
            labels[i] = cutoff, modes
            yield modes, i, delta, cutoff, above, _concentrated_draws(rng, modes, cutoff)

    for modes, index, delta, cutoff, above, g in _stacks(draws()):
        state = _concentrated(_dense_basis(modes), g, np.array(above))
        index = list(index)
        gaps[index], held[index] = _closeness_gaps(state, np.array(cutoff), np.array(delta))
    if not held.any():
        return SuiteResult("closeness", 0, 0.0, False, ("premise never held",))
    kept = np.flatnonzero(held)

    def describe(k: int) -> str:
        i = int(kept[k])
        cutoff, modes = labels[i].tolist()
        return f"delta={deltas[i % 3]} cutoff={cutoff} modes={modes}"

    col = _Collector(required)
    col.extend(gaps[kept], describe)
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
    """Per row of the profile: the entropy bound over the log-rank, and from
    n = 100 on, the log-rank over sqrt(n) within [0.5, 2.1]. The rows are
    checked in blocks of 512 as the profile streams them."""
    col = _Collector(required)
    step = 1 if size <= 2000 else 7
    rows = entropy_profile(range(1, size + 1, step))
    while block := list(itertools.islice(rows, 512)):
        n, m, rank, bound, ratio = (
            np.array([row[key] for row in block])
            for key in ("n", "m", "log2_rank", "entropy_bound", "rank_over_sqrt_n")
        )
        slacks = np.column_stack([bound - rank, ratio - 0.5, 2.1 - ratio])
        checked = np.column_stack([n >= 1, n >= 100, n >= 100])
        which, check = np.nonzero(checked)

        def describe(k: int) -> str:
            i = which[k]
            return (f"n={n[i]} m={m[i]}", f"ratio low n={n[i]}", f"ratio high n={n[i]}")[check[k]]

        col.extend(slacks[checked], describe)
    return col.result("entropy")


@dataclass(frozen=True)
class Suite:
    """A suite's function of ``(seed, size, required)``, its required slack
    under normal operation, its default size and its largest size. A larger
    size is refused as an internal limit before any case runs."""

    run: Callable[[int, int, float], SuiteResult]
    required: float
    size: int
    cap: int


#: The suites by name. Each cap was measured in-process at the cap (seed
#: 1729, Python 3.11.7, numpy 2.4.6, one BLAS thread on a shared 2-vCPU VM):
#: metrics 36 s, markov 37 s, gentle 48 s, closeness 40 s, perturb 41 s,
#: binom (cap^2 pairs of exact integers) 41 s, logrank 17 s and entropy (a
#: sweep over n, one row in seven) 21-28 s, each at most 45 MB of peak RSS.
SUITES: dict[str, Suite] = {
    "metrics": Suite(suite_metrics, -1e-9, 120, 100_000),
    "markov": Suite(suite_markov, -1e-12, 150, 500_000),
    "gentle": Suite(suite_gentle, -1e-9, 150, 100_000),
    "closeness": Suite(suite_closeness, -1e-9, 300, 200_000),
    "perturb": Suite(suite_perturb, -1e-9, 60, 500_000),
    "binom": Suite(suite_binom, 0.0, 50, 1_000),
    "logrank": Suite(suite_logrank, -1e-9, 64, 4_096),
    "entropy": Suite(suite_entropy, -1e-9, 2000, 50_000_000),
}


def run_suites(
    names: list[str] | None = None,
    *,
    seed: int = DEFAULT_SEED,
    size: int | None = None,
    inject_fault: str | None = None,
) -> list[SuiteResult]:
    """Run the named suites (all by default) and return their results.

    ``inject_fault`` names a suite of this run whose required slack is
    raised to an unsatisfiable +0.1, for exercising the failure path end to
    end; naming a suite outside the run is refused, since its fault would
    be lost. A ``size`` below 1 is refused, since no suite would check
    anything, and so is a negative ``seed``, which numpy cannot seed a
    stream from. A ``size`` above a suite's ``cap`` raises
    :class:`DimensionCapError` before any suite runs.
    """
    if size is not None and size < 1:
        raise ConfigError(f"suite size must be >= 1, got {size}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if names is None or not names:
        names = list(SUITES)
    for name in names:
        if name not in SUITES:
            raise ConfigError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        if size is not None and size > SUITES[name].cap:
            raise DimensionCapError(
                f"suite {name} size {size} is above its cap of {SUITES[name].cap}"
            )
    if inject_fault is not None and inject_fault not in names:
        raise ConfigError(
            f"cannot inject a fault into suite {inject_fault!r}: it is not in this run {names}"
        )
    results = []
    for name in names:
        suite = SUITES[name]
        required = 0.1 if inject_fault == name else suite.required
        results.append(suite.run(seed, suite.size if size is None else size, required))
    return results
