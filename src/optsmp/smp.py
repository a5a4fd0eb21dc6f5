"""Simultaneous-message protocols over optical messages, evaluated exactly.

A protocol is one message table that both parties use, plus a referee rule.
The table is a short sequence of letters (single-factor states, such as the
coherent states |+alpha> and |-alpha> of one mode) and a codeword map from
inputs to rows of letter indices, one column per run of equal factor
positions: the message for input x is the product of its row's letters, each
over its run. Every protocol decides equality, so a pair's error is the
referee's chance of answering other than ``x == y``. The dark-port test
after balanced beamsplitters pair mode i of one message with mode i of the other
(:class:`InterferenceVacuumReferee`) and the same-outcome test of both
messages measured in the occupation basis (:class:`DiagonalMapReferee`)
factorize over positions: each is a pair kernel on letters
(``pair_probability``), and its ``table(letters)`` gives the kernel on every
pair of the protocol's letters. The referee keeps no state: the protocol
keeps its table, built on its first evaluation, and shares it with its
renamed twins. Messages projected below a binding photon cutoff do not
factorize; their referee (:class:`CollectiveModeReferee`) is read at a
pair's codeword distance, a closed form computed once per distinct
distance in one array pass, with no ket built. One evaluator reads either
over the codeword columns, for every pair list: exhaustive, through
x XOR y (whose column check a protocol and its twins run once), or sampled.
Worst-case error is exact, without sampling noise. Adaptive referees are
deliberately not modeled.
"""

from __future__ import annotations

import copy
import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

# The brute-force oracle lives in numpy-free ``combinatorics``; its names stay
# bound here too, where perfbench's tracer patches it by name.
from .combinatorics import DCC_N_CAP, deterministic_cc_matrix, equality_function
from .errors import (
    ConfigError,
    InputCapError,
    ModeMismatchError,
    PhotonCapError,
    SupportCapError,
)
from .fock import (
    AMPLITUDE_PRUNE,
    FockIndex,
    ProductPureState,
    PureState,
    SUPPORT_CAP,
    State,
    coherent_state,
    cutoff_for_tail,
    mean_photon_number,
    poisson_tail,
    tensor,
)
from .report import BLOCK_ROWS, ErrorReport

Message = State

#: Coherent fingerprint messages are pre-truncated so that each whole message
#: discards mass below this bound (recorded as ``message_tail``).
MESSAGE_TAIL_BOUND = 1e-10
#: Protocols build and check all 2^n codeword rows at construction, and
#: evaluate all 4^n pairs exhaustively, up to this n. Above it the rows are
#: built and checked as they are read, and only sampled evaluation runs.
TABLE_N_CAP = 12
#: Sampled evaluation draws inputs as 64-bit integers, so it takes inputs of
#: at most this many bits.
INPUT_BITS_CAP = 63
#: Most codeword entries built at once, counted as rows x (n + m): each row's
#: input bits and its whole codeword, one multiplication per position in
#: evaluation, though a code gives one uint8 column per run of them. Checked
#: before any row is built: the 2^n rows at construction for n <= TABLE_N_CAP,
#: and above it, before sampled evaluation draws, the rows its distinct
#: inputs can need (two per drawn pair, at most 2^n); past it the run is
#: refused as an internal limit. Measured at the cap in a fresh process
#: (Python 3.11.7, numpy 2.4.6, a shared 2-vCPU VM): building qfp n=12 with
#: repeats 2033 (99,975,168 entries) peaks at 29 MB of RSS, its exhaustive
#: `simulate --out` at 39 MB in 2.3 s (43 MB with a vacuous `--truncate
#: 1e-5`), and that of qfp n=40, repeats 3, 312,500 samples at 97 MB in 2.1 s.
CODEWORD_ENTRY_CAP = 10**8
#: Most pairs one sampled evaluation draws, checked before drawing: its
#: per-pair arrays (drawn inputs, sort order, unique index, errors) take
#: about 135 bytes a pair. Measured at the cap as above: `simulate --out` of
#: classical-trivial with 5,000,000 samples peaks at 695 MB in 3.1 s at
#: n=1 and at 705 MB in 11.7 s at n=20.
SAMPLES_CAP = 5 * 10**6
#: Most photons one mode pair may hold in an exact interference computation:
#: past it the scaled dark-port sums of letter pairs leave floating-point
#: range. The collective-mode referee, whose weights are exact integer ratios
#: and whose binomial terms are at most 1, keeps its projected kets to half of
#: it too: its sums are checked only that far.
PAIR_PHOTON_CAP = 512


# ---------------------------------------------------------------------------
# Codes (input -> codeword maps; a codeword bit picks a letter per position)

def _input_bits(xs: np.ndarray, n: int) -> np.ndarray:
    """Bit i of every input in uint8 column i; bit 0 is the least
    significant. Unpacked from the inputs' little-endian bytes."""
    octets = np.ascontiguousarray(xs, dtype="<i8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(octets, axis=1, count=n, bitorder="little")


@dataclass(frozen=True)
class FoldCode:
    """Input bit i XORed into column i mod ``columns``, each column standing
    for ``repeats`` positions: m = columns x repeats. A column per bit is a
    repetition code; fewer fold a lossy fingerprint with codeword weight
    (hence photon budget) at most m, used to exercise counting at short
    message lengths, not for correctness."""

    n: int
    columns: int
    repeats: int = 1

    def __post_init__(self) -> None:
        if not (1 <= self.columns <= self.n and self.repeats >= 1):
            raise ConfigError(f"fold code needs 1 <= columns (xor-fold m) <= n and repeats >= 1, got {self}")

    @property
    def m(self) -> int:
        return self.columns * self.repeats

    @property
    def min_distance(self) -> int:
        """The least codeword weight of a nonzero input: ``repeats`` with a
        column per bit, else 0, as bits i and i + ``columns`` cancel."""
        return self.repeats if self.columns == self.n else 0

    def codewords(self, xs: np.ndarray) -> np.ndarray:
        """The codeword of every input in ``xs``, one row each and one uint8
        column per run of ``repeats`` positions."""
        bits = _input_bits(xs, self.n)
        if self.columns == self.n:
            return bits
        out = bits[:, : self.columns].copy()
        for start in range(self.columns, self.n, self.columns):
            block = bits[:, start : start + self.columns]
            out[:, : block.shape[1]] ^= block
        return out

    def encode(self, x: int) -> tuple[int, ...]:
        return tuple(np.repeat(self.codewords(np.array([x]))[0], self.repeats).tolist())


# ---------------------------------------------------------------------------
# Balanced beamsplitter on sparse kets

@lru_cache(maxsize=None)
def _bs_coefficients(n_in: int, m_in: int) -> tuple[tuple[int, int, float], ...]:
    """Output terms (p, q, coeff) of |n_in, m_in> under a balanced beamsplitter.

    Convention: input creation operators map to (c + d)/sqrt(2) and
    (c - d)/sqrt(2), so the second output port carries the difference.
    """
    if n_in + m_in > PAIR_PHOTON_CAP:
        raise PhotonCapError(f"beamsplitter input too energetic: {n_in}+{m_in} photons")
    kraw: dict[int, int] = {}
    for j in range(n_in + 1):
        cj = math.comb(n_in, j)
        for k in range(m_in + 1):
            sign = -1 if (m_in - k) % 2 else 1
            p = j + k
            kraw[p] = kraw.get(p, 0) + sign * cj * math.comb(m_in, k)
    out = []
    den = math.factorial(n_in) * math.factorial(m_in) * (1 << (n_in + m_in))
    for p, kval in sorted(kraw.items()):
        if kval == 0:
            continue
        q = n_in + m_in - p
        coeff = kval * math.sqrt(math.factorial(p) * math.factorial(q) / den)
        out.append((p, q, coeff))
    return tuple(out)


def apply_beamsplitter(state: PureState, mode_i: int, mode_j: int) -> PureState:
    """Apply a balanced beamsplitter to two modes of a sparse ket.

    Photon number is conserved; the output is unitary-normalized (validated
    by construction). Mode ``mode_j`` receives the difference port.
    """
    if mode_i == mode_j:
        raise ModeMismatchError("beamsplitter needs two distinct modes")
    for m in (mode_i, mode_j):
        if not 0 <= m < state.modes:
            raise ModeMismatchError(f"mode {m} out of range for {state.modes} modes")
    out: dict[FockIndex, complex] = {}
    for idx, amp in state.amplitudes.items():
        for p, q, coeff in _bs_coefficients(idx[mode_i], idx[mode_j]):
            new = list(idx)
            new[mode_i] = p
            new[mode_j] = q
            key = tuple(new)
            prev = out.get(key)
            out[key] = amp * coeff if prev is None else prev + amp * coeff
    return PureState(state.modes, out)


def beamsplitter_pair(a: PureState, b: PureState) -> PureState:
    """Interfere two single-mode kets; returns the two-mode output state."""
    if a.modes != 1 or b.modes != 1:
        raise ModeMismatchError("beamsplitter_pair takes single-mode states")
    return apply_beamsplitter(tensor(a, b), 0, 1)


# ---------------------------------------------------------------------------
# Referees

def _clamp01(p: float) -> float:
    return 0.0 if p < 0.0 else (1.0 if p > 1.0 else p)


def _dark_probability(
    a: Mapping[FockIndex, complex], b: Mapping[FockIndex, complex]
) -> float:
    """Probability, clamped to [0, 1], that every difference port stays dark
    when mode i of ket ``a`` meets mode i of ket ``b`` on a balanced beamsplitter.

    The beamsplitter sends |n, l> to the dark-port outcome |n+l, 0> with
    amplitude sqrt(C(n+l, n) / 2^(n+l)), so

        P = sum_t prod(t_i!) / 2^|t| * |sum_{n+l=t} a(n) b(l) / sqrt(n! l!)|^2,

    one double loop over at most ``SUPPORT_CAP`` pairs of terms. Each amplitude
    is scaled by rho^|n| and each weight by rho^(-2|t|), which leaves P
    unchanged and keeps both in floating-point range up to the 512-photon
    limit per mode pair. Occupations are keyed by their digits in base
    ``top + 1``: no digit of n + l exceeds ``top``, so n + l is one addition.
    """
    pairs = len(a) * len(b)
    if pairs > SUPPORT_CAP:
        raise SupportCapError(f"pair support {pairs} exceeds cap {SUPPORT_CAP}")
    top = max(x + y for x, y in zip(map(max, zip(*a)), map(max, zip(*b))))
    if top > PAIR_PHOTON_CAP:
        raise PhotonCapError(f"interference input too energetic: {top} photons in one mode pair")
    base = top + 1
    rho = math.sqrt(top / 2.0) or 1.0
    scale = [1.0]  # rho^k / sqrt(k!)
    weight = [1.0]  # k! / (2 rho^2)^k
    for k in range(1, base):
        scale.append(scale[-1] * rho / math.sqrt(k))
        weight.append(weight[-1] * k / (2.0 * rho * rho))

    def scaled(amps: Mapping[FockIndex, complex]) -> list[tuple[int, complex]]:
        out = []
        for idx, amp in amps.items():
            key = 0
            for n in reversed(idx):
                key = key * base + n
                amp *= scale[n]
            out.append((key, amp))
        return out

    terms_b = scaled(b)
    sums: dict[int, complex] = {}
    for key_a, amp_a in scaled(a):
        for key_b, amp_b in terms_b:
            key = key_a + key_b
            sums[key] = sums.get(key, 0.0) + amp_a * amp_b
    p = 0.0
    for key, amp in sums.items():
        w = 1.0
        while key:
            key, t = divmod(key, base)
            w *= weight[t]
        p += w * abs(amp) ** 2
    return _clamp01(p)


def _parity_flipped(amps: Mapping[FockIndex, complex]) -> dict[FockIndex, complex]:
    """``amps`` with every amplitude at an odd photon total negated: the
    parity flip that takes |+alpha> to |-alpha>, bit for bit."""
    return {idx: -amp if sum(idx) & 1 else amp for idx, amp in amps.items()}


class InterferenceVacuumReferee:
    """Interferes Alice's mode i with Bob's mode i on balanced beamsplitters
    and outputs 1 ("equal") exactly when every difference port is dark.

    The acceptance event factorizes over factor pairs, so the probability is
    the product of one dark-port sum per pair of corresponding factors
    (:meth:`pair_probability`, the pair kernel); a :class:`PureState` is its
    own single factor. No beamsplitter output is built.

    The parity flip P negates the amplitude at every odd photon total, so
    every product that feeds output t of the dark-port sum carries the one
    sign (-1)^|t|: each partial sum is kept or negated exactly (negation is
    exact and round-to-nearest is symmetric in sign), and its squared
    magnitude, the keys, their order and the scale tables do not change:
    ``_dark_probability(P a, P b)`` equals ``_dark_probability(a, b)`` bit
    for bit, and so does ``_dark_probability(P a, b)`` with
    ``_dark_probability(a, P b)``. :meth:`table` therefore runs one sum per
    parity class of letter pairs. The referee keeps no state.
    """

    def pair_probability(self, fa: PureState, fb: PureState) -> float:
        """Dark-port probability of one pair of corresponding factors."""
        if fa.modes != fb.modes:
            raise ModeMismatchError(f"factor mode mismatch: {fa.modes} vs {fb.modes}")
        return _dark_probability(fa.amplitudes, fb.amplitudes)

    def table(self, letters: Sequence[PureState]) -> np.ndarray:
        """The k x k table of :meth:`pair_probability` on every pair of
        ``letters``. Each letter is filed by its terms: the first of a class
        gets bit 0 and its parity flip bit 1 (a flip of only some modes is
        another class). One sum runs per key (class a, class b, bit a ^ bit
        b), on its first pair in ascending (a, b) order."""
        filed: dict[tuple, tuple[int, int]] = {}
        classes = []
        for i, letter in enumerate(letters):
            terms = tuple(letter.amplitudes.items())
            if terms not in filed:
                filed[terms] = (i, 0)
                filed.setdefault(tuple(_parity_flipped(letter.amplitudes).items()), (i, 1))
            classes.append(filed[terms])
        sums: dict[tuple[int, int, int], float] = {}
        table = np.empty((len(letters), len(letters)))
        for a, (class_a, bit_a) in enumerate(classes):
            for b, (class_b, bit_b) in enumerate(classes):
                key = (class_a, class_b, bit_a ^ bit_b)
                if key not in sums:
                    sums[key] = self.pair_probability(letters[a], letters[b])
                table[a, b] = sums[key]
        return table

    def at_cutoff(self, protocol: "SmpProtocol", cutoff: int) -> "CollectiveModeReferee":
        """This referee on fingerprint messages projected onto at most ``cutoff`` photons."""
        alpha, top = math.sqrt(protocol.mu / protocol.m), protocol.letters[0].max_total_photons()
        plus = coherent_state(alpha, top).amplitudes
        if [getattr(letter, "amplitudes", None) for letter in protocol.letters] != [plus, _parity_flipped(plus)]:
            raise ConfigError(f"a binding cutoff of {cutoff} photons needs a fingerprint's two coherent letters")
        return CollectiveModeReferee(protocol.m, protocol.mu, cutoff)

    def output_one_probability(self, a: Message, b: Message) -> float:
        """The product of :meth:`pair_probability` over corresponding
        factors, taken in factor order from 1.0 as evaluation takes it over
        positions."""
        if len(a.factors) != len(b.factors):
            raise ModeMismatchError("messages have different factor counts")
        p = 1.0
        for fa, fb in zip(a.factors, b.factors):
            p *= self.pair_probability(fa, fb)
        return _clamp01(p)


@lru_cache(maxsize=32)
def _binomial_halves(top: int) -> np.ndarray:
    """The (2 top + 1) x (top + 1) table of C(t, j) / 2^t, each correctly
    rounded (an exact integer, then an exact halving), at t - top <= j <= top
    and 0 elsewhere. Read-only: referees of one cutoff share it."""
    table = np.zeros((2 * top + 1, top + 1))
    row = [1]  # C(t, j) for j = 0..t
    for t in range(2 * top + 1):
        lo, hi = max(0, t - top), min(t, top)
        table[t, lo : hi + 1] = np.ldexp(np.array(row[lo : hi + 1], dtype=float), -t)
        row = [a + b for a, b in zip(row + [0], [0] + row)]
    table.flags.writeable = False
    return table


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x`` as hi + lo, each of at most 26 significant bits (Dekker's
    split by 2^27 + 1), so that products of such halves are exact."""
    c = x * 134217729.0
    hi = c - (c - x)
    return hi, x - hi


class CollectiveModeReferee:
    """The interference referee on fingerprint messages projected onto at
    most ``cutoff`` photons, as a function of codeword distance d.

    A product of |+alpha> and |-alpha> over m modes is |sqrt(mu)> in one
    collective mode, so the projection cuts that mode alone; turning both
    parties' modes alike commutes with the beamsplitters, so the two modes
    may be taken as A and c A + s B, c = 1 - 2d/m and s = sqrt(1 - c^2).
    The kets end at ``top`` = K photons: the cutoff, or past the mean once
    sqrt(mu)^k / sqrt(k!), a bound on every amplitude at k photons, is below
    ``AMPLITUDE_PRUNE``. They are the exact coherent messages: past the
    letters' per-mode cut, about 2 * ``message_tail`` off.

    Distance 0's ket lives in mode A alone, so the dark-port sum is a small
    matrix product: C = Toeplitz(a) B(d), with a_n = sqrt(mu)^n / n! and
    B(d) the outer product of (sqrt(mu) c)^j / j! and (sqrt(mu) s)^i / i!
    at i + j <= K, and P(d) = w_A^T (C o C) w_B / norm^4, with w(t) = t! /
    2^t and norm^2 the sum of mu^k / k! to K. Gathering the factorials, the
    term at ports (tA, tB) is pi(tA) * (mu s^2 / 2)^tB / tB! * G(tA, K - tB)^2,
    where pi(t) = (2 mu)^t / t! / norm^4 and G(t, J) sums C(t, j) / 2^t * c^j
    over j <= J (:func:`_binomial_halves`): one cumulative sum gives every
    column, and no factorial leaves floating-point range up to the 512-photon
    pair limit. pi is built once from exact integers, as a correctly rounded
    double plus its rounded remainder; each distance's row sums meet it in
    exact (split) products, and one ``math.fsum`` rounds the total once. c^j
    is (m - 2d)^j / m^j, correctly rounded from integers, so it keeps its
    digits where c is near 1 and no bit depends on a math library. Each
    distinct distance is computed once, in blocks of at most ``BLOCK_ROWS``
    terms, and no ket is built.
    """

    def __init__(self, m: int, mu: float, cutoff: int) -> None:
        if m < 1 or cutoff < 0 or not (math.isfinite(mu) and mu >= 0.0):
            raise ConfigError(
                f"a collective-mode referee needs m >= 1, a finite mu >= 0 and a cutoff >= 0, "
                f"got m={m}, mu={mu!r}, cutoff={cutoff}"
            )
        self.m, self.mu, self.cutoff, self._values = m, mu, cutoff, {}
        top, amplitude = 0, 1.0  # sqrt(mu)^k / sqrt(k!)
        for k in range(1, cutoff + 1):
            amplitude *= math.sqrt(mu / k)
            if k > mu and amplitude < AMPLITUDE_PRUNE:
                break
            if 2 * k > PAIR_PHOTON_CAP:
                raise PhotonCapError(
                    f"a projected message of mean {mu!r} keeps more than {k - 1} photons, "
                    f"half the {PAIR_PHOTON_CAP}-photon limit of a mode pair"
                )
            top = k
        if top and top * math.log(mu / 2) - math.lgamma(top + 1) > 700:
            raise PhotonCapError(
                f"a projected message of mean {mu!r} has port weights past floating-point range"
            )
        # pi(t) = tops[t] bottoms[top]^2 / (bottoms[t] norm^2), exactly.
        num, den = float(mu).as_integer_ratio()
        tops, bottoms = [1], [1]  # (2 num)^t and den^t t!
        for t in range(1, 2 * top + 1):
            tops.append(tops[-1] * 2 * num)
            bottoms.append(bottoms[-1] * den * t)
        norm = sum((tops[k] >> k) * (bottoms[top] // bottoms[k]) for k in range(top + 1))
        scale, norm = bottoms[top] ** 2, norm**2
        hi, lo = [], []
        for a, b in zip(tops, bottoms):
            a, b = a * scale, b * norm
            hi.append(a / b)
            h, k = hi[-1].as_integer_ratio()
            lo.append((a * k - h * b) / (b * k))
        self._pi_split, self._pi_lo = _split(np.array(hi)), np.array(lo)
        self._halves = _binomial_halves(top)
        self.top = top
        self._step = max(1, BLOCK_ROWS // self._halves.size)

    def _accepts(self, distances: list[int]) -> list[float]:
        """The acceptance at each distance, in one array pass."""
        m, top = self.m, self.top
        powers, weights = [], []
        for d in distances:
            num, den, row = 1, 1, [1.0]  # c^j = (m - 2d)^j / m^j
            for _ in range(top):
                num, den = num * (m - 2 * d), den * m
                row.append(num / den)
            powers.append(row)
            sigma = self.mu * (2 * d * (m - d) / (m * m))  # mu s^2 / 2
            row = [1.0]  # sigma^t / t!
            for t in range(1, top + 1):
                row.append(row[-1] * sigma / t)
            weights.append(row[::-1])
        # g[d, tA, J] = G(tA, J), and port tB = top - J.
        g = np.multiply(self._halves, np.array(powers)[:, None, :])
        np.cumsum(g, axis=2, out=g)
        g *= g
        g *= np.array(weights)[:, None, :]
        rows = g.sum(axis=2)
        # rows * pi as four exact products of halves, and rows * pi's remainder.
        (rh, rl), (ph, pl) = _split(rows), self._pi_split
        terms = np.concatenate((rh * ph, rh * pl, rl * ph, rl * pl, rows * self._pi_lo), axis=1)
        return [_clamp01(math.fsum(row)) for row in terms.tolist()]

    def by_distance(self, distances: np.ndarray) -> np.ndarray:
        """The acceptance at each entry of an integer array. Each distinct
        distance is computed once per referee, whatever the calls."""
        values, index = np.unique(distances, return_inverse=True)
        values = values.tolist()
        if values and not 0 <= values[0] <= values[-1] <= self.m:
            raise ConfigError(f"codeword distances must lie in 0..{self.m}, got {values[0]}..{values[-1]}")
        new = [d for d in values if d not in self._values]
        for start in range(0, len(new), self._step):
            block = new[start : start + self._step]
            self._values.update(zip(block, self._accepts(block)))
        return np.array([self._values[d] for d in values])[index]

    def accept(self, d: int) -> float:
        """The acceptance of a pair at codeword distance ``d``."""
        return float(self.by_distance(np.array([d]))[0])

    def output_one_probability(self, a: Message, b: Message) -> float:
        """:meth:`accept` at the distance of two of the protocol's messages,
        each a product of ``m`` letters."""
        if not len(a.factors) == len(b.factors) == self.m:
            raise ModeMismatchError(
                f"messages have different factor counts from the m = {self.m} letters of a "
                f"codeword: {len(a.factors)} and {len(b.factors)}"
            )
        return self.accept(sum(fa is not fb for fa, fb in zip(a.factors, b.factors)))


class DiagonalMapReferee:
    """Measures both messages in the occupation basis and outputs 1 exactly
    when the two outcomes agree.

    Only the photon-number weights of each message matter, so pure,
    Fock-diagonal and dense messages are all accepted. Outcomes of
    independent factors agree independently, so on a protocol's letters
    the probability is the product of :meth:`pair_probability` (the pair
    kernel, tabulated by :meth:`table`) over positions. The one-pair oracle
    reads the joint weights of two whole messages (a product is joined into
    its ket first), so the two need not be factored alike.
    """

    def pair_probability(self, a: Message, b: Message) -> float:
        """Agreement probability of one pair of letters."""
        return _agreement(a.weights(), dict(b.weights()))

    def table(self, letters: Sequence[Message]) -> np.ndarray:
        """The k x k table of :meth:`pair_probability` on every pair of ``letters``."""
        return np.array([[self.pair_probability(a, b) for b in letters] for a in letters])

    def output_one_probability(self, a: Message, b: Message) -> float:
        a, b = (m.to_pure_state() if isinstance(m, ProductPureState) else m for m in (a, b))
        return self.pair_probability(a, b)


def _agreement(weights_a: Iterable, weights_b: Mapping[FockIndex, float]) -> float:
    """The sum of ``pa * pb`` over the outcomes both states can give, in the
    order of ``weights_a``."""
    p = 0.0
    for ia, pa in weights_a:
        pb = weights_b.get(ia)
        if pb is not None:
            p += pa * pb
    return _clamp01(p)


# ---------------------------------------------------------------------------
# Protocols

def letter_per_input(xs: np.ndarray) -> np.ndarray:
    """The codeword map of a protocol whose letters are its whole messages:
    input x sends letter x at the one position."""
    return np.asarray(xs)[:, None]


@dataclass(frozen=True)
class SmpProtocol:
    """One-round simultaneous-message protocol with exact referee evaluation.

    Both parties use one message table: a short sequence of ``letters``
    (single-factor states) and a ``codewords`` map from an array of inputs
    to a 2-D array of letter indices, one row per input and one column per
    run of ``repeats`` factor positions. The message for input x is the
    product of its row's letters in position order, each ``repeats`` times
    (the letter itself at one position); it is built only on demand by
    :meth:`message`, never by evaluation, which reads each column once.

    ``mu`` is the declared per-party maximum mean photon number. The mode
    count and mean of each letter are computed once; each row's mode count
    (columns x ``repeats`` x letter modes) and its sum of ``repeats`` x mean,
    taken left to right in column order, are checked against ``m`` and
    ``mu``: all 2^n rows at construction for n <= ``TABLE_N_CAP``, the rows
    read above it. ``message_tail`` records mass discarded when the
    letters were built from pre-truncated infinite states; it feeds error
    budgets downstream. The ``referee`` gives the output-1 ("equal")
    probability of every pair of letters (``table(letters)``, the k x k
    table that evaluation reads) or of a codeword distance
    (``by_distance``), and of one message pair (``output_one_probability``,
    the one-pair oracle). The letter table and the columns' XOR structure
    are built by the first evaluation that reads each, once for the
    protocol and its twins.
    """

    name: str
    n: int
    m: int
    mu: float
    letters: Sequence[Message]
    codewords: Callable[[np.ndarray], np.ndarray]
    referee: object
    message_tail: float = 0.0
    repeats: int = 1
    _table: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    # Derived data, each built on first read into a list that twins share.
    _letter_table: list = field(default_factory=list, init=False, repr=False, compare=False)
    _xor_rows: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if self.m < 1:
            raise ConfigError(f"m must be >= 1, got {self.m}")
        if not (math.isfinite(self.mu) and self.mu >= 0.0):
            raise ConfigError(f"mu must be a finite number >= 0, got {self.mu}")
        self._check_referee()
        if self.n <= TABLE_N_CAP:
            self._check_table_size(1 << self.n)
            object.__setattr__(self, "_table", self.rows(np.arange(1 << self.n)))

    def renamed(self, name: str, referee: object | None = None) -> "SmpProtocol":
        """This protocol under another name, and ``referee`` unless it is None.

        The twin shares the checked table, which ``dataclasses.replace`` would
        rebuild, and the columns' XOR structure, whichever of the two reads it
        first. It shares the letter table too unless it gets a referee, which
        tabulates the letters for itself."""
        twin = copy.copy(self)
        object.__setattr__(twin, "name", name)
        if referee is not None:
            object.__setattr__(twin, "referee", referee)
            object.__setattr__(twin, "_letter_table", [])
            twin._check_referee()
        return twin

    def _check_referee(self) -> None:
        if not (hasattr(self.referee, "table") or hasattr(self.referee, "by_distance")):
            raise ConfigError("referee must provide table or by_distance")

    def rows(self, xs: np.ndarray) -> np.ndarray:
        """The checked codeword rows of the inputs ``xs``."""
        if self._table is not None:
            return self._table[xs]
        rows = np.asarray(self.codewords(xs))
        self._check(xs, rows)
        return rows

    def message(self, x: int) -> Message:
        """The message for input ``x``, built from its row on each call."""
        if x < 0 or x >> self.n:
            raise ConfigError(f"input {x} is outside 0..2^{self.n}-1")
        row = np.repeat(self.rows(np.array([x]))[0], self.repeats).tolist()
        return self.letters[row[0]] if len(row) == 1 else ProductPureState(self.letters[s] for s in row)

    def max_total_photons(self) -> int:
        """The most photons any message holds: ``repeats`` times the largest
        sum of letter maxima over the codeword rows, or above ``TABLE_N_CAP``,
        where not all rows are built, every position's heaviest letter."""
        tops = np.array([letter.max_total_photons() for letter in self.letters])
        if self._table is None:
            return int(tops.max()) * (self.m // self.letters[0].modes)
        return int(_position_sums(tops, self._table).max()) * self.repeats

    def _row_sums(self, rows: np.ndarray) -> tuple[int, np.ndarray]:
        """The mode count of every row and each row's mean photon number,
        from those of its letters. Every letter must have the first letter's
        mode count: letters of different sizes share no occupation, so a
        position holding both would compare nothing. A row's mode count is
        therefore its columns times ``repeats`` times that count. Each
        letter's ``repeats`` x mean is summed by :func:`_position_sums` in
        column order."""
        means = []
        for i, letter in enumerate(self.letters):
            if len(letter.factors) != 1:
                raise ConfigError(f"letter {i} has {len(letter.factors)} factors, not one")
            if letter.modes != self.letters[0].modes:
                raise ConfigError(
                    f"letter {i} has {letter.modes} modes, letter 0 has {self.letters[0].modes}"
                )
            means.append(self.repeats * mean_photon_number(letter))
        return rows.shape[1] * self.repeats * self.letters[0].modes, _position_sums(np.array(means), rows)

    def _check(self, xs: np.ndarray, rows: np.ndarray) -> None:
        """Refuse the first input whose row has the wrong shape, a wrong mode
        count or a mean above ``mu``."""
        if not (
            rows.ndim == 2
            and rows.shape[0] == len(xs)
            and rows.shape[1] >= 1
            and rows.dtype.kind in "iu"
        ):
            raise ConfigError(f"codewords must give one integer row per input, got shape {rows.shape}")
        # One pass: viewed as unsigned, a negative entry is past every index.
        unsigned = rows if rows.dtype.kind == "u" else rows.view(rows.dtype.str.replace("i", "u"))
        if unsigned.max() >= len(self.letters):
            raise ConfigError(f"codeword entries must index the {len(self.letters)} letters")
        modes, means = self._row_sums(rows)
        if modes != self.m:
            raise ConfigError(f"encoder output for x={int(xs[0])} has {modes} modes, expected {self.m}")
        # A row of c columns is p = c * repeats positions; its sum rounds at
        # most p - 1 times (c - 1 adds, and c products when repeats > 1), each
        # by up to eps/2 of the sum, so a row whose exact mean is at most mu
        # sums to at most about (1 + (p - 1) * eps/2) * mu. Allow twice that
        # drift, above an absolute 1e-9 for the rounding of each letter's mean.
        drift = (rows.shape[1] * self.repeats - 1) * sys.float_info.epsilon * self.mu
        bad = means > self.mu + 1e-9 + drift
        i = int(bad.argmax())
        if bad[i]:
            raise ConfigError(
                f"encoder output for x={int(xs[i])} has mean photon number {float(means[i])} "
                f"above mu={self.mu}"
            )

    def _check_table_size(self, rows: int) -> None:
        """Refuse, before building any, ``rows`` codeword rows whose entries
        (``n + m`` per row: the input bits and the codeword) pass
        ``CODEWORD_ENTRY_CAP``."""
        entries = rows * (self.n + self.m)
        if entries > CODEWORD_ENTRY_CAP:
            raise InputCapError(
                f"{rows} codeword rows of n + m = {self.n + self.m} entries hold {entries} "
                f"entries, above the cap of {CODEWORD_ENTRY_CAP} built at once"
            )


def _position_sums(values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Each row's sum of ``values`` at its letters: one running sum, column
    by column in position order (as ``np.add.accumulate`` adds along a row,
    unlike a reduction). The columns are gathered in blocks of at most
    ``BLOCK_ROWS`` entries, or one column: a block's first column takes the
    sums so far, so every add stays in order and no gather of the whole
    table is made."""
    sums = values[rows[:, 0]]
    step = max(1, BLOCK_ROWS // len(rows))
    for start in range(1, rows.shape[1], step):
        block = values[rows[:, start : start + step]]
        block[:, 0] += sums
        sums = np.add.accumulate(block, axis=1)[:, -1]
    return sums


def _linear_rows(rows: np.ndarray) -> bool:
    """Whether row x is row(x & (x - 1)) ^ row(x & -x) for every x (so row 0
    is zero), which makes row(x) ^ row(y) row(x ^ y)."""
    x = np.arange(len(rows))
    return not (rows != rows[x & (x - 1)] ^ rows[x & -x]).any()


def _xor_invariant(table: np.ndarray | None, protocol: SmpProtocol) -> bool:
    """Whether every pair (x, y) is accepted as pair (0, x ^ y), bit for bit.

    ``table`` is the protocol's k x k table of every letter pair, which every
    column reads, or None for a referee read at codeword distance.
    Evaluation reads only these and the codeword columns, so the structure is
    checked there, exactly:

    * k is a power of two and the table depends only on the XOR of its
      letters: T[a, b] has the bits of T[0, a ^ b] (compared as bit
      patterns, so neither a signed zero nor a NaN passes on ``==`` alone);
    * row x of the columns is row(x & (x - 1)) ^ row(x & -x) for every x
      (:func:`_linear_rows`, scanned once for the protocol and its twins,
      which keep the answer).

    Then each factor of pair (x, y) has the bits of the one of pair
    (0, x ^ y), so the position-order products are the same IEEE
    multiplications, and the two pairs are at one codeword distance.
    """
    if table is not None:
        k, bits = len(table), table.view(np.int64)
        first = bits[0].tolist()
        # One row at a time, in as many steps as the kernel took.
        if k & (k - 1) or any(bits[a].tolist() != [first[a ^ b] for b in range(k)] for a in range(1, k)):
            return False
    if not protocol._xor_rows:
        protocol._xor_rows.append(_linear_rows(protocol._table))
    return protocol._xor_rows[0]


def _accepted(
    protocol: SmpProtocol, table: np.ndarray | None, columns: np.ndarray, ix: np.ndarray, iy: np.ndarray
) -> np.ndarray:
    """The output-1 probability of each pair of codeword rows
    ``(ix[i], iy[i])`` of ``columns``.

    With a letter ``table``, it is the product of ``table[a, b]`` over the
    letters a and b of the columns, each multiplied in ``protocol.repeats``
    times, from ones in position order as the one-pair oracle takes it;
    without one, the referee's ``by_distance`` at the pair's codeword
    distance. The pairs are read in blocks of at most ``BLOCK_ROWS`` entries
    (pairs x columns), or one pair.
    """
    accepted, repeats = np.empty(len(ix)), protocol.repeats
    step = max(1, BLOCK_ROWS // columns.shape[1])
    for start in range(0, len(ix), step):
        # Row j of each gather is column j, so that each factor is contiguous.
        a, b = columns[ix[start : start + step]].T, columns[iy[start : start + step]].T
        block = accepted[start : start + step]
        if table is None:
            block[:] = protocol.referee.by_distance(repeats * np.count_nonzero(a != b, axis=0))
            continue
        block.fill(1.0)
        for factor in table[a, b]:
            for _ in range(repeats):
                block *= factor
    return accepted


def evaluate_error(
    protocol: SmpProtocol,
    *,
    samples: int | None = None,
    seed: int | None = None,
) -> ErrorReport:
    """Exact worst-case error of a protocol for equality.

    Without ``samples``, all 4^n input pairs are evaluated (n <= 12
    enforced). With ``samples``, that many pairs are drawn from a
    deterministic stream of the required ``seed`` and each is evaluated
    exactly; the report gives the max observed error plus the mean and its
    standard error, taken in draw order. No message is built.

    Every pair is read by :func:`_accepted`: the drawn pairs when sampling;
    exhaustively, the 2^n pairs (0, z) when :func:`_xor_invariant` holds
    (every protocol the CLI builds), pair (x, y) reading the one at
    z = x ^ y, else all 4^n pairs, their indices built block by block.
    Unless the referee reads codeword distances (``by_distance``), one call
    of its ``table(protocol.letters)`` gives every letter pair's value; the
    protocol keeps it, and the XOR check, for later evaluations and twins.
    """
    if samples is None:
        if seed is not None:
            raise ConfigError("a seed needs samples")
        if protocol.n > TABLE_N_CAP:
            raise InputCapError(
                f"exhaustive evaluation requires n <= {TABLE_N_CAP}, got n={protocol.n}"
            )
        size = 1 << protocol.n
        columns = protocol._table  # checked at construction; read in place
    else:
        if samples < 1:
            raise ConfigError("sampled evaluation requires samples >= 1")
        if seed is None or seed < 0:
            raise ConfigError(f"sampled evaluation requires an explicit seed >= 0, got {seed}")
        if protocol.n > INPUT_BITS_CAP:
            raise InputCapError(
                f"sampled evaluation holds inputs as 64-bit integers: n is {protocol.n}, "
                f"above the {INPUT_BITS_CAP}-bit input limit"
            )
        if samples > SAMPLES_CAP:
            raise InputCapError(
                f"sampled evaluation of {samples} pairs is above the cap of {SAMPLES_CAP} pairs"
            )
        # Up to TABLE_N_CAP the rows are a gather of the checked table; above
        # it each distinct drawn input builds its row.
        size = 1 << protocol.n
        if protocol.n > TABLE_N_CAP:
            protocol._check_table_size(min(2 * samples, size))
        seed = int(seed)
        rng = np.random.default_rng([seed, protocol.n])
        xs = rng.integers(0, size, size=samples)
        ys = rng.integers(0, size, size=samples)
        order = np.lexsort((ys, xs))  # stable: tied pairs keep draw order
        x, y = xs[order], ys[order]
        inputs, index = np.unique(np.concatenate((x, y)), return_inverse=True)
        columns = protocol.rows(inputs)
    if not protocol._letter_table:  # once for the protocol and its twins
        by_distance = hasattr(protocol.referee, "by_distance")
        protocol._letter_table.append(None if by_distance else protocol.referee.table(protocol.letters))
    table = protocol._letter_table[0]
    if samples is not None:
        p_error = _accepted(protocol, table, columns, index[:samples], index[samples:])
        np.subtract(1.0, p_error, out=p_error, where=x == y)
        # Each draw's sorted position, for statistics in draw order.
        drawn = (x, y, np.argsort(order))
        return ErrorReport(protocol.name, protocol.n, p_error, seed=seed, drawn=drawn)
    if _xor_invariant(table, protocol):
        xor_errors = _accepted(protocol, table, columns, np.zeros(size, int), np.arange(size))
        xor_errors[0] = 1.0 - xor_errors[0]
        return ErrorReport(protocol.name, protocol.n, xor_errors=xor_errors)
    p_error = np.empty(size * size)
    for start in range(0, size * size, BLOCK_ROWS):
        x, y = np.divmod(np.arange(start, min(start + BLOCK_ROWS, size * size)), size)
        p_error[start : start + BLOCK_ROWS] = _accepted(protocol, table, columns, x, y)
    equal = p_error[:: size + 1]
    np.subtract(1.0, equal, out=equal)
    return ErrorReport(protocol.name, protocol.n, p_error)


# ---------------------------------------------------------------------------
# Concrete protocols

def coherent_accept_probability(mu_total: float, m: int, distance: int) -> float:
    """Closed-form dark-difference-port probability for phase-encoded
    coherent fingerprints at codeword distance ``distance``:
    exp(-2 * (mu_total/m) * distance). Cross-checked against the exact
    interference computation in the test suite."""
    return math.exp(-2.0 * (mu_total / m) * distance)


def coherent_fingerprint_protocol(n: int, code: FoldCode, mu_total: float) -> SmpProtocol:
    """Phase-encoded coherent-state fingerprinting for equality.

    Each party spreads ``mu_total`` mean photons over the code's m modes with
    per-mode amplitude alpha = sqrt(mu_total/m), sign (-1)^codeword_bit. The
    referee pairs matching modes on balanced beamsplitters and declares
    "equal" exactly when no difference port shows a photon. The worst error is
    exp(-2*mu_total*d_min/m) for a code of minimum distance d_min, so error 1/3
    needs mu_total > m*ln(3)/(2*d_min). The two letters are the coherent
    states |+alpha> and |-alpha>, and codeword bit b picks letter b. They are
    pre-truncated so the whole message discards mass below
    ``MESSAGE_TAIL_BOUND`` (recorded on the protocol); a per-mode cutoff
    above half of ``PAIR_PHOTON_CAP`` raises :class:`PhotonCapError`.
    """
    if code.n != n:
        raise ConfigError(f"code encodes n={code.n} bits, protocol wants n={n}")
    if not math.isfinite(mu_total):
        raise ConfigError(f"mu_total must be finite, got {mu_total}")
    if mu_total < 0.0:
        raise ConfigError(f"mu_total must be >= 0, got {mu_total}")
    m = code.m
    alpha = math.sqrt(mu_total / m)
    per_mode_tail = MESSAGE_TAIL_BOUND / m
    # A mode pair of two messages holds up to twice the per-mode cutoff, and
    # the tail falls as the cutoff grows: refuse before searching when even
    # half the pair limit leaves too much tail.
    cap = PAIR_PHOTON_CAP // 2
    if mu_total > 0 and poisson_tail(alpha**2, cap) >= per_mode_tail:
        raise PhotonCapError(
            f"a Poisson mean of {alpha**2!r} photons per mode needs a cutoff above {cap} "
            f"photons to keep its tail below {per_mode_tail!r}; a pair of such modes "
            f"would pass {PAIR_PHOTON_CAP} photons"
        )
    cutoff, actual_tail = cutoff_for_tail(alpha**2, per_mode_tail) if mu_total > 0 else (0, 0.0)
    # 1 - (1 - t)^m, with the digits that 1 - t would round away.
    message_tail = -math.expm1(m * math.log1p(-actual_tail))
    return SmpProtocol(
        name=f"qfp-n{n}-m{m}",
        n=n,
        m=m,
        mu=mu_total,
        letters=(coherent_state(alpha, cutoff), coherent_state(-alpha, cutoff)),
        codewords=code.codewords,
        referee=InterferenceVacuumReferee(),
        message_tail=message_tail,
        repeats=code.repeats,
    )


def trivial_classical_protocol(n: int, code: FoldCode | None = None) -> SmpProtocol:
    """Both parties send their (encoded) bit string, one single-mode basis
    state |0> or |1> per position; the referee outputs 1 exactly when the
    two strings agree.

    With the default code (each bit once) this decides equality with zero
    error at mu <= n. With a folded code it exercises the counting path:
    every message lives in the subspace of occupation tuples with total at
    most the maximum codeword weight, which is ``code.m`` for every fold
    code (some input lights every position).
    """
    if code is None:
        code = FoldCode(n, n)
    if code.n != n:
        raise ConfigError(f"code encodes n={code.n} bits, protocol wants n={n}")
    return SmpProtocol(
        name=f"classical-trivial-n{n}-m{code.m}",
        n=n,
        m=code.m,
        mu=float(code.m),
        letters=(PureState.basis_state((0,)), PureState.basis_state((1,))),
        codewords=code.codewords,
        referee=DiagonalMapReferee(),
        repeats=code.repeats,
    )


# ---------------------------------------------------------------------------
# Protocol descriptions (JSON)

def _load_code(data, n: int) -> FoldCode:
    if data is None:
        return FoldCode(n, n)
    if not isinstance(data, Mapping):
        raise ConfigError("field 'code' must be an object")
    kind = data.get("kind")
    if kind == "repetition":
        repeats = data.get("repeats")
        if type(repeats) is not int or repeats < 1:
            raise ConfigError("field 'code.repeats' must be a positive integer")
        return FoldCode(n, n, repeats)
    if kind == "identity":
        return FoldCode(n, n)
    if kind == "xor-fold":
        m = data.get("m")
        if type(m) is not int or m < 1:
            raise ConfigError("field 'code.m' must be a positive integer")
        return FoldCode(n, m)
    raise ConfigError(f"field 'code.kind' must be repetition|identity|xor-fold, got {kind!r}")


def load_protocol(data: Mapping) -> SmpProtocol:
    """Build a protocol from its JSON description.

    Layout: ``{"type": "qfp"|"classical-trivial", "n": ..., "m": ...,
    "mu": ..., "code": {...}}``. ``m`` is optional; when present it must
    match the code's length. Integer fields take JSON integers only, not
    booleans, floats such as ``2.0`` or strings. Other keys are ignored.
    """
    if not isinstance(data, Mapping):
        raise ConfigError("protocol spec must be a JSON object")
    ptype = data.get("type")
    if ptype not in ("qfp", "classical-trivial"):
        raise ConfigError(f"field 'type' must be qfp|classical-trivial, got {ptype!r}")
    n = data.get("n")
    if type(n) is not int or n < 1:
        raise ConfigError("field 'n' must be a positive integer")
    if ptype == "qfp":
        default_code = {"kind": "repetition", "repeats": 3}
        code = _load_code(data.get("code", default_code), n)
        mu = data.get("mu")
        if not isinstance(mu, (int, float)) or isinstance(mu, bool) or mu < 0:
            raise ConfigError("field 'mu' must be a nonnegative number")
        protocol = coherent_fingerprint_protocol(n, code, float(mu))
    else:
        code = _load_code(data.get("code"), n)
        protocol = trivial_classical_protocol(n, code)
    m = data.get("m")
    if m is not None and type(m) is not int:
        raise ConfigError("field 'm' must be an integer")
    if m is not None and m != protocol.m:
        raise ConfigError(f"field 'm' is {m}, but the code produces m={protocol.m}")
    return protocol
