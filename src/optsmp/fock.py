"""Sparse multimode Fock-space states and distance measures.

Everything downstream works with finitely supported states over occupation
tuples ``(n1, ..., nm)``. Three representations cover the needs of the rest
of the package:

* :class:`PureState` -- a normalized sparse ket,
* :class:`FockDiagonalState` -- a probability distribution over occupation
  tuples (classical messages, photon-count statistics),
* :class:`ProductPureState` -- a tensor product of pure factors, kept
  factorized so a 12-mode coherent message never has to be materialized as
  a joint ket.

Dense density matrices, which only the property suites build to check the
lemmas on genuinely mixed states, live with those suites in
:mod:`optsmp.verify` and offer the same methods.

The two sparse kinds share one implementation (``_SparseState``): a dict
from occupation tuple to a stored value, with one validation and
normalization path. They differ only in what they store, an amplitude or a
probability, and in how they rescale.

Every kind is a tuple of ``factors`` in mode order: a product lists its
pure factors, and every other kind is its own single factor. Each factor
offers ``weights()``, the ``(occupation, photon-number weight)`` pairs
(|c|^2, p, or the real diagonal). The mean photon number, the photon-number
distribution and the overlap are therefore one loop over factors each, with
no case per kind. Trace distance, fidelity and the projection below a
photon-number cutoff (``projected``) are one method per kind.

States with infinite support (exact coherent states, thermal states) are not
representable; they enter pre-truncated with the discarded tail recorded by
the caller. Truncation is always explicit, never a silent side effect.
"""

from __future__ import annotations

import math
import sys
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Union

import numpy as np

from .errors import (
    ModeMismatchError,
    NormalizationError,
    SupportCapError,
    VacuousTruncationError,
)

FockIndex = tuple[int, ...]

#: Hard cap on sparse support size; pushing past it is an error, not a warning.
SUPPORT_CAP = 10**6
#: Amplitudes below this magnitude are dropped at construction.
AMPLITUDE_PRUNE = 1e-15
#: Allowed deviation of total weight from 1 at construction.
NORMALIZATION_TOL = 1e-9


def validate_index(occ: Iterable[int], modes: int | None = None) -> FockIndex:
    """Return ``occ`` as a validated occupation tuple.

    Entries must be nonnegative integers; ``modes``, when given, pins the
    length.
    """
    idx = tuple(occ)
    if modes is not None and len(idx) != modes:
        raise ModeMismatchError(f"expected {modes} modes, got index of length {len(idx)}")
    if len(idx) == 0:
        raise ModeMismatchError("occupation tuple must have at least one mode")
    for n in idx:
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 0:
            raise ValueError(f"occupation numbers must be nonnegative integers, got {n!r}")
    return tuple(int(n) for n in idx)


#: Total photon number of one occupation tuple. It is the builtin ``sum``
#: itself, not a function that calls it: the projection, the mean and the
#: maximum photon number call it once per support term.
total_photons = sum


class _SparseState:
    """Shared core of the two sparse kinds: ``modes`` and one dict from
    occupation tuple to a stored value.

    Subclasses fix the value (``_coerce``, ``_NONNEGATIVE``; ``_SUMMED``
    names its sum in errors), its photon-number weight (``_weigh``) and the
    rescale of a total weight to one (``_rescaled``). Immutable after
    construction. Construction prunes raw input values below
    ``AMPLITUDE_PRUNE`` (the rescale may still leave smaller stored values),
    enforces the support cap, refuses a non-finite total weight, checks
    that the weights sum to one within ``NORMALIZATION_TOL`` (skipped when
    ``normalize=True`` asks for an explicit rescale) and then rescales so the
    stored weights sum to one.
    """

    __slots__ = ("modes", "_terms")

    def __init__(
        self,
        modes: int,
        terms: Mapping[Iterable[int], complex],
        *,
        normalize: bool = False,
    ) -> None:
        terms = self._validated(modes, terms)
        # NaN or infinity in any term makes the total non-finite, which is
        # refused here once instead of per term.
        total = sum(self._weigh(terms.values()))
        if not math.isfinite(total):
            raise NormalizationError(f"{self._SUMMED} sum to {total!r}, not a finite number")
        if total == 0.0:
            raise NormalizationError("state has no support after pruning")
        if not normalize and abs(total - 1.0) > NORMALIZATION_TOL:
            raise NormalizationError(
                f"{self._SUMMED} sum to {total!r}, expected 1 within {NORMALIZATION_TOL}"
            )
        self.modes = int(modes)
        # Hygiene rescale so downstream probabilities sum to one exactly-ish.
        self._terms = self._rescaled(terms, total)

    @classmethod
    def _validated(
        cls, modes: int, terms: Mapping[Iterable[int], complex]
    ) -> dict[FockIndex, complex]:
        if not isinstance(modes, (int, np.integer)) or modes < 1:
            raise ModeMismatchError(f"modes must be a positive integer, got {modes!r}")
        coerce, nonnegative = cls._coerce, cls._NONNEGATIVE
        out: dict[FockIndex, complex] = {}
        for occ, value in terms.items():
            idx = validate_index(occ, int(modes))
            v = coerce(value)
            if nonnegative and v < 0.0:
                raise NormalizationError(f"negative probability {v!r} at {idx}")
            if abs(v) < AMPLITUDE_PRUNE:
                continue
            if idx in out:
                raise ValueError(f"duplicate occupation index {idx}")
            out[idx] = v
        if len(out) > SUPPORT_CAP:
            raise SupportCapError(f"support size {len(out)} exceeds cap {SUPPORT_CAP}")
        return out

    @property
    def terms(self) -> Mapping[FockIndex, complex]:
        """Read-only view of the stored values by occupation tuple."""
        return MappingProxyType(self._terms)

    @property
    def factors(self) -> tuple["_SparseState"]:
        """The state as its own single factor, as for :class:`ProductPureState`."""
        return (self,)

    def weights(self) -> Iterator[tuple[FockIndex, float]]:
        """``(occupation, photon-number weight)`` pairs over the support."""
        return zip(self._terms, self._weigh(self._terms.values()))

    def support_size(self) -> int:
        return len(self._terms)

    def max_total_photons(self) -> int:
        return max(total_photons(idx) for idx in self._terms)

    def projected(self, cutoff: int) -> tuple["_SparseState", float]:
        """The terms with total photons <= ``cutoff``, renormalized, and the
        weight they held."""
        kept = {idx: v for idx, v in self._terms.items() if total_photons(idx) <= cutoff}
        if not kept:
            raise VacuousTruncationError(f"no support at or below cutoff {cutoff}")
        weight = sum(w for idx, w in self.weights() if idx in kept)
        return type(self)(self.modes, kept, normalize=True), weight

    def __repr__(self) -> str:
        return f"{type(self).__name__}(modes={self.modes}, support={len(self._terms)})"


class PureState(_SparseState):
    """Normalized sparse superposition of occupation-number basis states.

    Stores one complex amplitude per occupation tuple; its weight is |c|^2.
    """

    __slots__ = ()
    _coerce = complex
    _NONNEGATIVE = False
    _SUMMED = "squared amplitudes"

    @staticmethod
    def _weigh(amplitudes: Iterable[complex]) -> list[float]:
        # A list, not a generator: zipped into weights(), a second generator
        # would cost every photon-number sum one more resume per term.
        return [abs(c) ** 2 for c in amplitudes]

    @staticmethod
    def _rescaled(
        amplitudes: dict[FockIndex, complex], norm_sq: float
    ) -> dict[FockIndex, complex]:
        scale = 1.0 / math.sqrt(norm_sq)
        return {k: v * scale for k, v in amplitudes.items()}

    amplitudes = _SparseState.terms

    @classmethod
    def basis_state(cls, occ: Iterable[int]) -> "PureState":
        idx = validate_index(occ)
        return cls(len(idx), {idx: 1.0})

    def amplitude(self, occ: Iterable[int]) -> complex:
        return self._terms.get(tuple(occ), 0.0 + 0.0j)

    @classmethod
    def vacuum(cls, modes: int) -> "PureState":
        return cls(modes, {(0,) * modes: 1.0})

    def _fidelity(self, other: "PureState") -> float:
        return _pure_fidelity(self, other, refine=True)

    def _trace_distance(self, other: "PureState | ProductPureState") -> float:
        f = self._fidelity(other)
        return math.sqrt(max(0.0, 1.0 - f * f))


class FockDiagonalState(_SparseState):
    """Probability distribution over occupation tuples (a Fock-diagonal state).

    Stores one probability per occupation tuple, which is its own weight.
    """

    __slots__ = ()
    _coerce = float
    _NONNEGATIVE = True
    _SUMMED = "probabilities"

    @staticmethod
    def _weigh(probabilities: Iterable[float]) -> Iterable[float]:
        return probabilities

    @staticmethod
    def _rescaled(
        probabilities: dict[FockIndex, float], total: float
    ) -> dict[FockIndex, float]:
        return {k: v / total for k, v in probabilities.items()}

    probabilities = _SparseState.terms

    @classmethod
    def point_mass(cls, occ: Iterable[int]) -> "FockDiagonalState":
        idx = validate_index(occ)
        return cls(len(idx), {idx: 1.0})

    def probability(self, occ: Iterable[int]) -> float:
        return self._terms.get(tuple(occ), 0.0)

    def _trace_distance(self, other: "FockDiagonalState") -> float:
        keys = set(self.probabilities) | set(other.probabilities)
        return 0.5 * sum(abs(self.probability(k) - other.probability(k)) for k in keys)

    def _fidelity(self, other: "FockDiagonalState") -> float:
        keys = set(self.probabilities) & set(other.probabilities)
        return sum(math.sqrt(self.probability(k) * other.probability(k)) for k in keys)


class ProductPureState:
    """Tensor product of independent pure factors, kept factorized.

    Used for many-mode product messages whose joint support would be far too
    large to materialize. Factor order is mode order.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: Iterable[PureState]) -> None:
        fs = tuple(factors)
        if not fs:
            raise ModeMismatchError("product state needs at least one factor")
        for f in fs:
            if not isinstance(f, PureState):
                raise TypeError(f"product factors must be PureState, got {type(f).__name__}")
        self.factors = fs

    @property
    def modes(self) -> int:
        return sum(f.modes for f in self.factors)

    def max_total_photons(self) -> int:
        return sum(f.max_total_photons() for f in self.factors)

    def to_pure_state(self) -> PureState:
        """Materialize the joint ket. Errors if the support cap is exceeded."""
        size = math.prod(f.support_size() for f in self.factors)
        if size > SUPPORT_CAP:
            raise SupportCapError(f"joint support {size} exceeds cap {SUPPORT_CAP}")
        state = self.factors[0]
        for f in self.factors[1:]:
            state = tensor(state, f)
        return state

    def _fidelity(self, other: "ProductPureState") -> float:
        return _pure_fidelity(self, other, refine=False)

    _trace_distance = PureState._trace_distance

    def projected(self, cutoff: int) -> tuple["ProductPureState | PureState", float]:
        """Projection onto total photons <= ``cutoff``, renormalized, and the
        weight it kept: the product itself within the cutoff, else the
        projection of its joined ket (:meth:`to_pure_state`)."""
        if self.max_total_photons() <= cutoff:
            return self, 1.0
        return self.to_pure_state().projected(cutoff)

    def __repr__(self) -> str:
        return f"ProductPureState(factors={len(self.factors)}, modes={self.modes})"


#: The kinds defined here. Functions taking a ``State`` also accept any kind
#: with the same methods, such as the dense operators of :mod:`optsmp.verify`.
State = Union[PureState, FockDiagonalState, ProductPureState]


# ---------------------------------------------------------------------------
# Coherent-state construction (always explicitly truncated)

#: Natural log of the smallest normal float: a term below it has underflowed.
_LOG_FLOAT_MIN = math.log(sys.float_info.min)


def poisson_tail(mean: float, cutoff: int) -> float:
    """Pr[X > cutoff] for X ~ Poisson(mean), summed directly from the tail.

    Below the mean the terms grow up to the mode, so when the first tail
    term underflows every head term is smaller still: the head's mass is
    below any float next to 1, and the tail is 1.0.
    """
    if mean < 0:
        raise ValueError(f"mean must be nonnegative, got {mean}")
    if mean == 0.0:
        return 0.0
    log_term = -mean + (cutoff + 1) * math.log(mean) - math.lgamma(cutoff + 2)
    if log_term < _LOG_FLOAT_MIN and cutoff < mean:
        return 1.0
    # Sum upward from the first excluded term until terms stop mattering.
    term = math.exp(log_term)
    total = 0.0
    k = cutoff + 1
    while term > total * 1e-18 + 1e-320:
        total += term
        k += 1
        term *= mean / k
    return total


def cutoff_for_tail(mean: float, tail_bound: float) -> tuple[int, float]:
    """Smallest cutoff whose Poisson tail falls below ``tail_bound``, and
    that tail, ``poisson_tail(mean, cutoff)``."""
    if not 0.0 < tail_bound < 1.0:
        raise ValueError(f"tail_bound must be in (0, 1), got {tail_bound}")
    cutoff = 0
    while (tail := poisson_tail(mean, cutoff)) >= tail_bound:
        cutoff += 1
        if cutoff > 10**6:
            raise ValueError("cutoff search did not converge")
    return cutoff, tail


def coherent_state(alpha: complex, cutoff: int) -> PureState:
    """Single-mode coherent state truncated at photon number ``cutoff``.

    The result is renormalized; the discarded mass is
    ``poisson_tail(|alpha|**2, cutoff)`` and is the caller's responsibility
    to budget.
    """
    if cutoff < 0:
        raise ValueError(f"cutoff must be nonnegative, got {cutoff}")
    a = complex(alpha)
    amps: dict[FockIndex, complex] = {(0,): 1.0 + 0.0j}
    term = 1.0 + 0.0j
    for k in range(1, cutoff + 1):
        term = term * a / math.sqrt(k)
        amps[(k,)] = term
    return PureState(1, amps, normalize=True)


# ---------------------------------------------------------------------------
# Photon-number observables

def mean_photon_number(state: State) -> float:
    """Expectation of the total photon-number operator, summed over factors."""
    return sum(
        sum(w * total_photons(idx) for idx, w in f.weights()) for f in state.factors
    )


def photon_number_distribution(state: State) -> dict[int, float]:
    """Distribution of the total photon number, as ``{n: Pr[N = n]}``.

    The convolution of the factors' distributions, in factor order. A
    factor's zero-weight totals are omitted; values sum to one within 1e-9.
    """
    dist = {0: 1.0}
    for f in state.factors:
        fdist: dict[int, float] = {}
        for idx, w in f.weights():
            n = total_photons(idx)
            fdist[n] = fdist.get(n, 0.0) + w
        out: dict[int, float] = {}
        for n1, p1 in dist.items():
            for n2, p2 in fdist.items():
                if p2 != 0.0:
                    out[n1 + n2] = out.get(n1 + n2, 0.0) + p1 * p2
        dist = out
    return dist


def tail_probability(state: State, threshold: float) -> float:
    """Pr[total photon number >= threshold]."""
    dist = photon_number_distribution(state)
    return sum(p for n, p in dist.items() if n >= threshold)


# ---------------------------------------------------------------------------
# Composition and metrics

def tensor(a: State, b: State) -> State:
    """Tensor product of two sparse states; mode counts add. Kinds must match."""
    kind = type(a)
    if kind is not type(b) or kind not in (PureState, FockDiagonalState):
        raise TypeError(f"cannot tensor {type(a).__name__} with {type(b).__name__}")
    if a.support_size() * b.support_size() > SUPPORT_CAP:
        raise SupportCapError(
            f"tensor support {a.support_size() * b.support_size()} exceeds cap {SUPPORT_CAP}"
        )
    terms = {
        ia + ib: va * vb
        for ia, va in a._terms.items()
        for ib, vb in b._terms.items()
    }
    return kind(a.modes + b.modes, terms)


def overlap(a: PureState | ProductPureState, b: PureState | ProductPureState) -> complex:
    """Inner product <a|b> of pure states, the product of the overlaps of
    corresponding factors. The factor layouts must match."""
    if len(a.factors) != len(b.factors):
        raise ModeMismatchError("states have different factor counts")
    out = 1.0 + 0.0j
    for fa, fb in zip(a.factors, b.factors):
        if not isinstance(fa, PureState) or not isinstance(fb, PureState):
            raise TypeError("overlap requires pure states")
        if fa.modes != fb.modes:
            raise ModeMismatchError(f"mode mismatch: {fa.modes} vs {fb.modes}")
        if fa.support_size() <= fb.support_size():
            out *= sum(amp.conjugate() * fb.amplitude(idx) for idx, amp in fa.amplitudes.items())
        else:
            out *= sum(fa.amplitude(idx).conjugate() * amp for idx, amp in fb.amplitudes.items())
    return out


def _pure_fidelity(
    a: PureState | ProductPureState, b: PureState | ProductPureState, refine: bool
) -> float:
    """|<a|b>| for pure operands, accurate when the states nearly coincide.

    Near 1, sparse kets take s = 1 - |<a|b>|^2 from the phase-aligned
    difference norm d2 = ||e^{i arg<a|b>} a - b||^2 = 2 - 2|<a|b>| as
    (d2/2)(2 - d2/2), so a ket and a phase-rotated copy of it give exactly 1,
    not one ulp below it (which sqrt(1 - F^2) would turn into a distance of
    1.5e-8). Below 1/2, and for factorized products, the overlap itself is
    returned: there it has no cancellation, while sqrt(1 - s) would lose
    half its digits next to orthogonality. ``refine`` marks sparse kets; a
    product passes False, whatever its factor count.
    """
    ov = overlap(a, b)
    f = min(abs(ov), 1.0)
    if f < 0.5 or not refine:
        return f
    phase = ov / abs(ov)
    keys = a.amplitudes.keys() | b.amplitudes.keys()
    half = sum(abs(a.amplitude(k) * phase - b.amplitude(k)) ** 2 for k in keys) / 2.0
    return math.sqrt(max(1.0 - half * (2.0 - half), 0.0))


def _check_same_kind(a: State, b: State) -> None:
    """Operands must share a kind and a mode count. Dense operands must also
    share an ordered basis, which their own methods check."""
    if type(a) is not type(b):
        raise TypeError(
            f"operands must share a representation kind: {type(a).__name__} vs {type(b).__name__}"
        )
    if a.modes != b.modes:
        raise ModeMismatchError(f"mode mismatch: {a.modes} vs {b.modes}")


def trace_distance(a: State, b: State) -> float:
    """Trace distance (half the trace norm of the difference).

    Pure states use sqrt(1 - F^2) with F from :func:`fidelity`; diagonal
    states use total variation; dense operators diagonalize the difference.
    Operands must share a kind.
    """
    _check_same_kind(a, b)
    return a._trace_distance(b)


def fidelity(a: State, b: State) -> float:
    """Uhlmann fidelity F = tr sqrt(sqrt(a) b sqrt(a)).

    Pure states reduce to |<a|b>|, diagonal states to the Bhattacharyya
    coefficient. Operands must share a kind.
    """
    _check_same_kind(a, b)
    return a._fidelity(b)
