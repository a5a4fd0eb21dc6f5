"""Markov photon-number cutoff and the checks that make it safe.

A state with mean photon number mu keeps weight at least 1 - delta below the
cutoff floor(mu/delta); projecting onto that subspace moves the state by at
most sqrt(delta) in trace distance, and perturbing every message of a
simultaneous-message protocol by trace distance t inflates its worst-case
error by at most 2t. Each of those three steps is implemented and checkable
here on concrete states rather than assumed.

A cutoff is a plain nonnegative integer everywhere in this module;
:func:`transform_protocol` derives floor(mu/delta) with
:func:`~optsmp.combinatorics.markov_photon_cutoff`.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import fock
from .combinatorics import markov_photon_cutoff
from .errors import (
    ConfigError,
    PremiseViolationError,
    SupportCapError,
    VacuousTruncationError,
)
from .fock import (
    DenseOperator,
    ProductPureState,
    PureState,
    SUPPORT_CAP,
    State,
    _per_matrix,
    total_photons,
)


def project_below_cutoff(state: State, cutoff: int) -> tuple[State, float]:
    """Project onto total photons <= cutoff and renormalize.

    Returns ``(projected_state, weight)`` where ``weight`` is the mass the
    projector retained. A projection that would remove everything raises
    :class:`VacuousTruncationError` instead of fabricating a state; a
    projected product too large to pair with another raises
    :class:`SupportCapError`. A stack of dense matrices is projected in one
    array pass, and its weight is an array.
    """
    return _project(state, int(cutoff))


def _project(state: State, cutoff: int | np.ndarray) -> tuple[State, float | np.ndarray]:
    """:func:`project_below_cutoff`, where a dense stack may also take an
    array of one cutoff per matrix, as the checks below pass it."""
    if isinstance(state, DenseOperator):
        return _project_dense(state, cutoff)
    cutoff = int(cutoff)
    if cutoff < 0:
        raise ConfigError(f"cutoff must be >= 0, got {cutoff}")
    if isinstance(state, ProductPureState):
        if state.max_total_photons() <= cutoff:
            # The projector acts as the identity on the whole joint support.
            return state, 1.0
        return _project_product(state, cutoff)
    kept = {idx: v for idx, v in state.terms.items() if total_photons(idx) <= cutoff}
    if not kept:
        raise VacuousTruncationError(f"no support at or below cutoff {cutoff}")
    weight = sum(w for idx, w in state.weights() if idx in kept)
    return type(state)(state.modes, kept, normalize=True), weight


def _project_dense(
    state: DenseOperator, cutoff: int | np.ndarray
) -> tuple[DenseOperator, float | np.ndarray]:
    """The dense branch of :func:`_project`, for one matrix or a stack of
    them. ``cutoff`` is one cutoff or an array of one per matrix;
    the weight is a float, or an array for a stack.

    Each weight is the sum of the kept diagonal entries, gathered first as
    for a single matrix. Matrices that share a cutoff share one such
    reduction over contiguous rows, so a stack's weights have the bits of
    its matrices' own.
    """
    cutoffs = np.broadcast_to(cutoff, state.matrix.shape[:-2])
    if (cutoffs < 0).any():
        raise ConfigError(f"cutoff must be >= 0, got {cutoff}")
    diagonal = np.real(np.diagonal(state.matrix, axis1=-2, axis2=-1))
    weight = np.empty(cutoffs.shape)
    for c in set(cutoffs.ravel().tolist()):
        rows = cutoffs == c
        kept = np.ascontiguousarray(diagonal[rows][:, state.cutoff_mask(c)])
        weight[rows] = kept.sum(axis=-1)
    if (weight <= 0.0).any():
        raise VacuousTruncationError(f"no weight at or below cutoff {cutoff}")
    keep = np.where(state.cutoff_mask(cutoffs[..., None]), 1.0, 0.0)
    mat = state.matrix * (keep[..., :, None] * keep[..., None, :])
    mat /= weight[..., None, None]
    return DenseOperator(state.basis, mat), _per_matrix(weight)


def _project_product(state: ProductPureState, cutoff: int) -> tuple[PureState, float]:
    """Projection of a product onto total photons <= cutoff, built from the
    photon-number simplex only: occupations with total <= cutoff inside every
    factor's support, each amplitude the product of its factor amplitudes.
    The full product ket is never formed.

    The kept terms are counted first. A referee evaluates a projected
    message against another one term pair by term pair, so a support whose
    square exceeds ``SUPPORT_CAP`` is refused before any term is built.
    """
    factor_terms = [
        [(idx, amp, total_photons(idx)) for idx, amp in f.amplitudes.items()]
        for f in state.factors
    ]
    counts = {0: 1}  # kept prefixes by photon total
    for terms in factor_terms:
        grown: dict[int, int] = {}
        for n, count in counts.items():
            for _, _, k in terms:
                if n + k <= cutoff:
                    grown[n + k] = grown.get(n + k, 0) + count
        counts = grown
    size = sum(counts.values())
    if size == 0:
        raise VacuousTruncationError(f"no support at or below cutoff {cutoff}")
    if size * size > SUPPORT_CAP:
        raise SupportCapError(
            f"projected support {size} is too large to interfere: a pair of such "
            f"messages spans {size * size} terms, above cap {SUPPORT_CAP}"
        )
    kept = [((), 1.0 + 0.0j, 0)]
    for terms in factor_terms:
        kept = [
            (idx + fidx, amp * famp, n + k)
            for idx, amp, n in kept
            for fidx, famp, k in terms
            if n + k <= cutoff
        ]
    amps = {idx: amp for idx, amp, _ in kept}
    weight = sum(abs(amp) ** 2 for amp in amps.values())
    return PureState(state.modes, amps, normalize=True), weight


def check_gentle_measurement(state: State, cutoff: int) -> float:
    """Slack of the gentle-measurement inequality for this state and cutoff.

    Returns ``F(state, projected) - sqrt(weight)``; nonnegative up to float
    error whenever the projection is nonvacuous. A stack of dense matrices
    gives one slack per matrix, with ``cutoff`` shared or one per matrix.
    """
    projected, weight = _project(state, cutoff)
    f = fock.fidelity(state, projected)
    return _per_matrix(f - np.sqrt(weight))


def projector_closeness(
    state: State, cutoff: int, delta: float
) -> tuple[float | np.ndarray, bool | np.ndarray]:
    """``(gap, premise)`` with gap ``sqrt(delta) - trace_distance(state,
    projected)``, the closeness bound's slack, and whether its premise
    ``retained weight >= 1 - delta`` holds.

    A stack of dense matrices gives one gap and one premise flag per
    matrix; ``cutoff`` and ``delta`` are shared or one per matrix.
    """
    deltas = np.asarray(delta)
    if not ((0.0 < deltas) & (deltas < 1.0)).all():
        raise ConfigError(f"delta must be in (0, 1), got {delta}")
    projected, weight = _project(state, cutoff)
    gap = np.sqrt(delta) - fock.trace_distance(state, projected)
    return _per_matrix(gap), np.logical_not(weight < 1.0 - delta - 1e-12)


def check_projector_closeness(state: State, cutoff: int, delta: float) -> float:
    """Gap ``sqrt(delta) - trace_distance(state, projected)``.

    Requires the premise ``retained weight >= 1 - delta``; a premise failure
    raises :class:`PremiseViolationError` (the bound was never claimed there),
    which is distinct from a negative gap (a genuine bound failure). A dense
    stack raises when the premise fails for any of its matrices;
    :func:`projector_closeness` reports it per matrix instead.
    """
    gap, premise = projector_closeness(state, cutoff, delta)
    if not np.all(premise):
        raise PremiseViolationError(
            f"retained weight at cutoff {cutoff} is below 1 - delta = {1.0 - delta}"
        )
    return gap


def perturbed_error_bound(error: float, message_distance: float) -> float:
    """Worst-case error bound after replacing every message within trace
    distance ``message_distance``: error + 2 * message_distance.

    Two messages move, each contributing at most its trace distance to the
    referee's output distribution.
    """
    if error < 0.0 or message_distance < 0.0:
        raise ConfigError("error and message_distance must be nonnegative")
    return error + 2.0 * message_distance


def transform_protocol(protocol, delta: float, original_error: float):
    """Truncate every message of a protocol at cutoff floor(mu/delta).

    Returns ``(truncated_protocol, error_bound)`` with
    ``error_bound = original_error + 2 * sqrt(delta)``, where
    ``original_error`` is the protocol's worst-case error; the truncated
    protocol's exact worst-case error never exceeds the bound (each projected
    message sits within sqrt(delta) of the original in trace distance).

    Vacuity is decided on the codeword table in one array pass
    (:meth:`~optsmp.smp.SmpProtocol.max_total_photons`): when no message
    holds more photons than the cutoff, the projector is the identity on
    every message and the checked table is kept as it is, not built again.
    At a binding cutoff the truncated protocol has one position whose
    letters are the projected messages: each distinct row is projected
    once, all of them at construction up to ``TABLE_N_CAP`` and each on
    first read above it.
    """
    cutoff = markov_photon_cutoff(protocol.mu, delta)
    name = f"{protocol.name}+cutoff{cutoff}"
    bound = perturbed_error_bound(original_error, math.sqrt(delta))
    if protocol.max_total_photons() <= cutoff:
        return protocol.renamed(name), bound

    letters: list = []
    symbols: dict[bytes, int] = {}

    def codewords(xs: np.ndarray) -> np.ndarray:
        rows = protocol.rows(xs)
        out = np.empty((len(rows), 1), dtype=np.intp)
        for i, row in enumerate(rows):
            key = row.tobytes()
            symbol = symbols.get(key)
            if symbol is None:
                symbol = symbols[key] = len(letters)
                letter = project_below_cutoff(protocol.joined(row.tolist()), cutoff)[0]
                if len(letter.factors) > 1:
                    # A product within the cutoff comes back unprojected;
                    # a letter is one factor, so join it into its ket.
                    letter = letter.to_pure_state()
                letters.append(letter)
            out[i, 0] = symbol
        return out

    truncated_protocol = dataclasses.replace(
        protocol, name=name, letters=letters, codewords=codewords
    )
    return truncated_protocol, bound
