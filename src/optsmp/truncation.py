"""Markov photon-number cutoff and the checks that make it safe.

A state with mean photon number mu keeps weight at least 1 - delta below the
cutoff floor(mu/delta); projecting onto that subspace moves the state by at
most sqrt(delta) in trace distance, and perturbing every message of a
simultaneous-message protocol by trace distance t inflates its worst-case
error by at most 2t. Each of those three steps is implemented and checkable
here on concrete states rather than assumed.

A cutoff is a plain nonnegative integer everywhere in this module;
:func:`transform_protocol` derives floor(mu/delta) with
:func:`~optsmp.combinatorics.markov_photon_cutoff` and returns only the
truncated protocol, whose budget :func:`perturbed_error_bound` gives. Each
state kind projects itself (its ``projected`` method): this module checks the
cutoff, and each check takes one state and returns one float.
"""

from __future__ import annotations

import math

from . import fock
from .combinatorics import markov_photon_cutoff
from .errors import ConfigError, PremiseViolationError
from .fock import State

#: Float slack on the closeness premise: a retained weight below
#: ``1 - delta - PREMISE_TOL`` fails it.
PREMISE_TOL = 1e-12


def project_below_cutoff(state: State, cutoff: int) -> tuple[State, float]:
    """Project onto total photons <= cutoff and renormalize.

    Returns ``(projected_state, weight)``, ``weight`` being the mass kept,
    from the state's own ``projected`` method. A projection that would
    remove everything raises :class:`VacuousTruncationError`.
    """
    cutoff = int(cutoff)
    if cutoff < 0:
        raise ConfigError(f"cutoff must be >= 0, got {cutoff}")
    return state.projected(cutoff)


def check_gentle_measurement(state: State, cutoff: int) -> float:
    """Slack of the gentle-measurement inequality for this state and cutoff.

    Returns ``F(state, projected) - sqrt(weight)``; nonnegative up to float
    error whenever the projection is nonvacuous.
    """
    projected, weight = project_below_cutoff(state, cutoff)
    return fock.fidelity(state, projected) - math.sqrt(weight)


def check_projector_closeness(state: State, cutoff: int, delta: float) -> float:
    """Gap ``sqrt(delta) - trace_distance(state, projected)``.

    Requires the premise ``retained weight >= 1 - delta``; a premise failure
    raises :class:`PremiseViolationError` (the bound was never claimed there),
    which is distinct from a negative gap (a genuine bound failure).
    """
    if not 0.0 < delta < 1.0:
        raise ConfigError(f"delta must be in (0, 1), got {delta}")
    projected, weight = project_below_cutoff(state, cutoff)
    if weight < 1.0 - delta - PREMISE_TOL:
        raise PremiseViolationError(
            f"retained weight at cutoff {cutoff} is below 1 - delta = {1.0 - delta}"
        )
    return math.sqrt(delta) - fock.trace_distance(state, projected)


def perturbed_error_bound(error: float, message_distance: float) -> float:
    """Worst-case error bound after replacing every message within trace
    distance ``message_distance``: error + 2 * message_distance.

    Two messages move, each contributing at most its trace distance to the
    referee's output distribution.
    """
    if error < 0.0 or message_distance < 0.0:
        raise ConfigError("error and message_distance must be nonnegative")
    return error + 2.0 * message_distance


def transform_protocol(protocol, delta: float):
    """The protocol with every message truncated at cutoff floor(mu/delta).

    Each projected message sits within sqrt(delta) of its original in trace
    distance, so the truncated protocol's worst-case error is at most
    ``perturbed_error_bound(error, sqrt(delta))`` of the original's. The
    truncated protocol is a :meth:`~optsmp.smp.SmpProtocol.renamed` twin: it
    keeps the letters, codewords, ``repeats``, the checked table of one
    column per run of positions and the columns' XOR structure, scanned once
    for both. When no message holds more photons than the cutoff
    (:meth:`~optsmp.smp.SmpProtocol.max_total_photons`, ``repeats`` times the
    heaviest row) it keeps the referee and so the letter table too: its
    evaluation tabulates nothing. Otherwise the referee's ``at_cutoff``
    gives the referee of the projected messages, which reads no letter
    table, and a referee without one refuses.
    """
    cutoff = markov_photon_cutoff(protocol.mu, delta)
    name = f"{protocol.name}+cutoff{cutoff}"
    if protocol.max_total_photons() <= cutoff:
        return protocol.renamed(name)
    at_cutoff = getattr(protocol.referee, "at_cutoff", None)
    if at_cutoff is None:
        raise ConfigError(f"a binding cutoff of {cutoff} photons needs the interference referee")
    return protocol.renamed(name, at_cutoff(protocol, cutoff))
