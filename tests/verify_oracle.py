"""Per-case reference for the stacked ``verify`` suites.

``suite_gentle``, ``suite_closeness``, ``suite_markov`` and
``suite_entropy`` here check one case at a time, as the package did before
its suites became array passes: scalar draws, one dense matrix per call
through per-matrix linear algebra, and one entropy bound per n. They share
nothing with the package's draws or dense kernels; only the sparse states,
the collector and the combinatorics are the package's own. A stacked suite
must return the same ``SuiteResult`` as its oracle, bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from optsmp import fock, truncation, verify
from optsmp.combinatorics import entropy_bound
from optsmp.fock import FockDiagonalState, PureState, total_photons
from optsmp.verify import _DENSE_CUTOFF, SuiteResult, _Collector, _dense_basis


def random_sparse_pure(rng, modes, max_occ, max_terms):
    k = int(rng.integers(1, max_terms + 1))
    occs = {tuple(int(v) for v in row) for row in rng.integers(0, max_occ + 1, size=(k, modes))}
    amps = {occ: complex(rng.normal(), rng.normal()) for occ in sorted(occs)}
    return PureState(modes, amps, normalize=True)


def random_diagonal(rng, modes, max_occ, max_terms):
    k = int(rng.integers(1, max_terms + 1))
    occs = {tuple(int(v) for v in row) for row in rng.integers(0, max_occ + 1, size=(k, modes))}
    probs = {occ: float(rng.exponential()) + 1e-12 for occ in sorted(occs)}
    return FockDiagonalState(modes, probs, normalize=True)


def hermitian(mat):
    """The dense constructor's check and symmetrisation of one matrix."""
    if not np.abs(mat - mat.conj().T).max() <= fock.NORMALIZATION_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    return (mat + mat.conj().T) / 2.0


def random_dense(rng, modes):
    d = len(_dense_basis(modes))
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return hermitian(rho)


def random_dense_concentrated(rng, modes, cutoff, above_mass):
    totals = _dense_basis(modes).totals
    inside = np.flatnonzero(totals <= cutoff)
    d = len(totals)
    k = len(inside)
    g = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    low = g @ g.conj().T
    low /= np.trace(low).real
    rho = np.zeros((d, d), dtype=complex)
    rho[np.ix_(inside, inside)] = low
    g2 = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    full = g2 @ g2.conj().T
    full /= np.trace(full).real
    return hermitian((1.0 - above_mass) * rho + above_mass * full)


def sqrt_psd(matrix):
    vals, vecs = np.linalg.eigh(matrix)
    floor = len(vals) * np.finfo(float).eps * np.abs(vals).max()
    vals = np.where(vals > floor, vals, 0.0)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def project(matrix, totals, cutoff):
    mask = totals <= cutoff
    weight = float(np.real(np.diagonal(matrix))[mask].sum())
    proj = np.where(mask, 1.0, 0.0)
    return hermitian(matrix * np.outer(proj, proj) / weight), weight


def fidelity(a, b):
    return float(np.linalg.svd(sqrt_psd(a) @ sqrt_psd(b), compute_uv=False).sum())


def trace_distance(a, b):
    return float(0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum())


def suite_markov(seed: int, size: int, required: float) -> SuiteResult:
    rng = np.random.default_rng([seed, 2])
    col = _Collector(required)
    thresholds = [0.5, 1.0, 2.0, 3.5, 5.0, 8.0, 13.0]
    for i in range(size):
        kind = i % 3
        modes = int(rng.integers(1, 4))
        if kind == 0:
            state = random_sparse_pure(rng, modes, 6, 12)
        elif kind == 1:
            state = random_diagonal(rng, modes, 6, 12)
        else:
            state = verify.DenseOperator(_dense_basis(modes), random_dense(rng, modes))
        mean = fock.mean_photon_number(state)
        dist = fock.photon_number_distribution(state)
        for a in thresholds:
            tail = sum(p for n, p in dist.items() if n >= a)
            col.add(mean / a - tail, lambda: f"mean={mean!r} threshold={a!r} tail={tail!r}")
    return col.result("markov")


def suite_gentle(seed: int, size: int, required: float) -> SuiteResult:
    rng = np.random.default_rng([seed, 3])
    col = _Collector(required)
    for _ in range(size):
        modes = int(rng.integers(1, 4))
        dense = random_dense(rng, modes)
        cutoff = int(rng.integers(0, _DENSE_CUTOFF[modes] + 1))
        projected, weight = project(dense, _dense_basis(modes).totals, cutoff)
        slack = fidelity(dense, projected) - math.sqrt(weight)
        col.add(slack, lambda: f"dense modes={modes} cutoff={cutoff}")
        pure = random_sparse_pure(rng, modes, 6, 12)
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
        state = random_dense_concentrated(rng, modes, cutoff, above)
        projected, weight = project(state, _dense_basis(modes).totals, cutoff)
        if weight < 1.0 - delta - 1e-12:
            continue
        held += 1
        gap = math.sqrt(delta) - trace_distance(state, projected)
        col.add(gap, lambda: f"delta={delta} cutoff={cutoff} modes={modes}")
    if held == 0:
        return SuiteResult("closeness", 0, 0.0, False, ("premise never held",))
    return col.result("closeness")


def suite_entropy(seed: int, size: int, required: float) -> SuiteResult:
    col = _Collector(required)
    step = 1 if size <= 2000 else 7
    for n in range(1, size + 1, step):
        k = math.isqrt(n)
        if k * k < n:
            k += 1
        log2_rank, bound = entropy_bound(k, k)
        col.add(bound - log2_rank, lambda: f"n={n} m={k}")
        if n >= 100:
            col.add(log2_rank / math.sqrt(n) - 0.5, lambda: f"ratio low n={n}")
            col.add(2.1 - log2_rank / math.sqrt(n), lambda: f"ratio high n={n}")
    return col.result("entropy")


ORACLES = {
    "markov": suite_markov,
    "gentle": suite_gentle,
    "closeness": suite_closeness,
    "entropy": suite_entropy,
}
