"""Simultaneous-message protocols over optical messages, evaluated exactly.

A protocol is one message table that both parties use, plus a referee rule.
The table is a short sequence of letters (single-factor states, such as the
coherent states |+alpha> and |-alpha> of one mode) and a codeword map from
inputs to rows of letter indices, one column per factor position: the
message for input x is the product of its row's letters. Every protocol
decides equality, so a pair's error is the referee's chance of answering
other than ``x == y``. The dark-port test after balanced beamsplitters pair
mode i of one message with mode i of the other
(:class:`InterferenceVacuumReferee`) and the same-outcome test of both
messages measured in the occupation basis (:class:`DiagonalMapReferee`)
factorize over positions: each is a pair kernel on letters
(``pair_probability``), tabulated once per evaluation on the letters
present. Messages projected below a binding photon cutoff do not
factorize; their referee (:class:`CollectiveModeReferee`) is read at a
pair's codeword distance. One evaluator reads either over the codeword
columns, for every pair list: exhaustive, through x XOR y, or sampled.
Worst-case error is exact, without sampling noise. Adaptive referees are
deliberately not modeled.
"""

from __future__ import annotations

import copy
import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence, Union

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
#: input bits and its codeword. Checked before any row is built: the 2^n rows
#: at construction for n <= TABLE_N_CAP, and above it, before sampled
#: evaluation draws, the rows its distinct inputs can need (two per drawn
#: pair, at most 2^n); past it the run is refused as an internal limit.
#: Measured at the cap in a fresh process (Python 3.11.7, numpy 2.4.6, a
#: shared 2-vCPU VM): building qfp n=12 with repeats 2033 (99,975,168
#: entries) peaks at 795 MB of RSS in 1.3-1.9 s, and its exhaustive
#: `simulate --out` at 889 MB in 4.9 s, as does the same run with a vacuous
#: `--truncate 1e-5` (5.4 s); `simulate --out` of qfp n=40 with repeats 3 and
#: 312,500 samples (625,000 distinct rows) at 827 MB in 5.2 s.
CODEWORD_ENTRY_CAP = 10**8
#: Most pairs one sampled evaluation draws, checked before drawing: its
#: per-pair arrays (drawn inputs, sort order, unique index, errors) take
#: about 135 bytes a pair. Measured at the cap as above: `simulate --out` of
#: classical-trivial with 5,000,000 samples peaks at 695 MB in 3.4 s at
#: n=1 and at 704 MB in 13.5 s at n=20.
SAMPLES_CAP = 5 * 10**6
#: Most photons one mode pair may hold in an exact interference computation:
#: past it the scaled dark-port sums leave floating-point range.
PAIR_PHOTON_CAP = 512


# ---------------------------------------------------------------------------
# Codes (input -> codeword maps; a codeword bit picks a letter per position)

def _input_bits(xs: np.ndarray, n: int) -> np.ndarray:
    """Bit i of every input in column i; bit 0 is the least significant."""
    return (np.asarray(xs, dtype=np.int64)[:, None] >> np.arange(n)) & 1


@dataclass(frozen=True)
class RepetitionCode:
    """Each input bit repeated ``repeats`` times; distance = repeats."""

    n: int
    repeats: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.repeats < 1:
            raise ConfigError(f"repetition code needs n >= 1 and repeats >= 1")

    @property
    def m(self) -> int:
        return self.n * self.repeats

    @property
    def min_distance(self) -> int:
        return self.repeats

    def codewords(self, xs: np.ndarray) -> np.ndarray:
        """The codeword of every input in ``xs``, one row each."""
        return np.repeat(_input_bits(xs, self.n), self.repeats, axis=1)

    def encode(self, x: int) -> tuple[int, ...]:
        return tuple(self.codewords(np.array([x]))[0].tolist())


@dataclass(frozen=True)
class XorFoldCode:
    """Fold n input bits into m <= n positions by XOR.

    A lossy fingerprint with codeword weight (hence photon budget) at most m;
    used to exercise counting at short message lengths, not for correctness.
    """

    n: int
    m: int

    def __post_init__(self) -> None:
        if not 1 <= self.m <= self.n:
            raise ConfigError(f"xor-fold code needs 1 <= m <= n, got m={self.m}, n={self.n}")

    @property
    def min_distance(self) -> int:
        return 1

    def codewords(self, xs: np.ndarray) -> np.ndarray:
        """The codeword of every input in ``xs``, one row each: bit i of the
        input is XORed into position i mod m."""
        bits = _input_bits(xs, self.n)
        out = bits[:, : self.m].copy()
        for start in range(self.m, self.n, self.m):
            block = bits[:, start : start + self.m]
            out[:, : block.shape[1]] ^= block
        return out

    encode = RepetitionCode.encode


Code = Union[RepetitionCode, XorFoldCode]


# ---------------------------------------------------------------------------
# Balanced beamsplitter on sparse kets

@lru_cache(maxsize=None)
def _bs_coefficients(n_in: int, m_in: int) -> tuple[tuple[int, int, float], ...]:
    """Output terms (p, q, coeff) of |n_in, m_in> under a balanced beamsplitter.

    Convention: input creation operators map to (c + d)/sqrt(2) and
    (c - d)/sqrt(2), so the second output port carries the difference.
    """
    if n_in + m_in > PAIR_PHOTON_CAP:
        raise ConfigError(f"beamsplitter input too energetic: {n_in}+{m_in} photons")
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
        raise ConfigError(f"interference input too energetic: {top} photons in one mode pair")
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


def _sign_flip(
    rep: Mapping[FockIndex, complex], amps: Mapping[FockIndex, complex], modes: int
) -> int | None:
    """The bit mask s of modes with ``amps`` equal to D_s ``rep``, or None.

    The two must hold the same occupations in the same order. Bit i of s is
    read from the single-photon occupation of mode i, then every amplitude
    is checked exactly: ``==``, with no tolerance, which equates only the
    signs of zeros."""
    s = 0
    for i in range(modes):
        one = (0,) * i + (1,) + (0,) * (modes - i - 1)
        if amps.get(one) != rep.get(one):
            s |= 1 << i
    flipped = [i for i in range(modes) if s >> i & 1]
    for (idx, amp), base in zip(amps.items(), rep.values()):
        if amp != (-base if sum(idx[i] for i in flipped) & 1 else base):
            return None
    return s


def _tabulated(kernel: Callable, letters: Sequence, symbols: np.ndarray) -> np.ndarray:
    """The k x k letter table of ``symbols``: entry (a, b) is
    ``kernel(letters[a], letters[b])`` for the letters a and b present in
    ``symbols`` and 0 elsewhere. The kernel runs on them in ascending
    order."""
    k = len(letters)
    present = np.bincount(symbols, minlength=k).nonzero()[0].tolist()
    table = np.zeros((k, k))
    for a in present:
        for b in present:
            table[a, b] = kernel(letters[a], letters[b])
    return table


class InterferenceVacuumReferee:
    """Interferes Alice's mode i with Bob's mode i on balanced beamsplitters
    and outputs 1 ("equal") exactly when every difference port is dark.

    The acceptance event factorizes over factor pairs, so the probability is
    the product of one dark-port sum per pair of corresponding factors
    (:meth:`pair_probability`, the pair kernel); a :class:`PureState` is its
    own single factor. No beamsplitter output is built.

    The kernel runs once per sign class of letter pairs that occurs. For a
    set s of modes, D_s multiplies the amplitude at occupation n by
    (-1)^(sum of n_i over i in s). Every product that feeds output t of the
    dark-port sum then carries the one sign (-1)^(sum of t_i over i in s),
    so each partial sum is kept or negated exactly (negation is exact and
    round-to-nearest is symmetric in sign), and its squared magnitude, the
    keys, their order and the scale tables do not change:
    ``_dark_probability(D_s a, D_s b)`` equals ``_dark_probability(a, b)``
    bit for bit. A letter is filed as ``D_s`` of a representative, the first
    letter met with the same per-term magnitudes of which it is such a
    flip, and a pair's value is cached on the two representatives and the
    XOR of the two sign sets. The caches are keyed on the letter objects,
    which a protocol holds once each.
    """

    def __init__(self) -> None:
        self._classes: dict[PureState, tuple[PureState, int]] = {}
        self._representatives: dict[tuple, PureState] = {}
        self._pair_cache: dict[tuple, float] = {}

    def _sign_class(self, letter: PureState) -> tuple[PureState, int]:
        """``(rep, s)`` with ``letter`` equal to D_s ``rep``, item for item
        and in the same order; s is a bit mask of modes. A letter that is no
        such flip of its representative is its own class, ``(letter, 0)``."""
        found = self._classes.get(letter)
        if found is None:
            amps = letter.amplitudes
            magnitudes = tuple((idx, abs(v.real), abs(v.imag)) for idx, v in amps.items())
            rep = self._representatives.setdefault(magnitudes, letter)
            s = _sign_flip(rep.amplitudes, amps, letter.modes)
            found = self._classes[letter] = (letter, 0) if s is None else (rep, s)
        return found

    def pair_probability(self, fa: PureState, fb: PureState) -> float:
        """Dark-port probability of one pair of corresponding factors."""
        if fa.modes != fb.modes:
            raise ModeMismatchError(f"factor mode mismatch: {fa.modes} vs {fb.modes}")
        (rep_a, s_a), (rep_b, s_b) = self._sign_class(fa), self._sign_class(fb)
        key = (rep_a, rep_b, s_a ^ s_b)
        p = self._pair_cache.get(key)
        if p is None:
            p = self._pair_cache[key] = _dark_probability(fa.amplitudes, fb.amplitudes)
        return p

    def at_cutoff(self, protocol: "SmpProtocol", cutoff: int) -> "CollectiveModeReferee":
        """This referee on fingerprint messages projected onto at most ``cutoff`` photons."""
        alpha, top = math.sqrt(protocol.mu / protocol.m), protocol.letters[0].max_total_photons()
        coherent = [coherent_state(sign * alpha, top).amplitudes for sign in (1, -1)]
        if [getattr(letter, "amplitudes", None) for letter in protocol.letters] != coherent:
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


class CollectiveModeReferee:
    """The interference referee on fingerprint messages projected onto at
    most ``cutoff`` photons, as a function of codeword distance d.

    A product of |+alpha> and |-alpha> over m modes is |sqrt(mu)> in one
    collective mode, so the projection cuts that mode alone; turning both
    parties' modes alike commutes with the beamsplitters, so the two modes
    may be taken as A and c A + sqrt(1 - c^2) B, c = 1 - 2d/m. The kets end
    past the mean once sqrt(mu)^k / sqrt(k!), a bound on every amplitude at
    k photons, is below ``AMPLITUDE_PRUNE``. They are the exact coherent
    messages: past the letters' per-mode cut, about 2 * ``message_tail`` off.
    Each distance read costs its ket and one dark-port sum with distance 0's.
    """

    def __init__(self, m: int, mu: float, cutoff: int) -> None:
        self.m, self.cutoff, self._accepted = m, cutoff, {}
        self._amplitudes = [1.0]  # sqrt(mu)^k / sqrt(k!)
        for k in range(1, cutoff + 1):
            term = self._amplitudes[-1] * math.sqrt(mu / k)
            if k > mu and term < AMPLITUDE_PRUNE:
                break
            if 2 * k > PAIR_PHOTON_CAP:
                raise PhotonCapError(
                    f"a projected message of mean {mu!r} keeps more than {k - 1} photons, "
                    f"half the {PAIR_PHOTON_CAP}-photon limit of a mode pair"
                )
            self._amplitudes.append(term)
        self._ket0 = self._ket(0).amplitudes

    def _ket(self, d: int) -> PureState:
        """The projected ket at codeword distance ``d`` from the one in A."""
        c, s = (self.m - 2 * d) / self.m, 2.0 * math.sqrt(d * (self.m - d)) / self.m
        terms = {
            (j, k - j): amp * math.sqrt(math.comb(k, j)) * c**j * s ** (k - j)
            for k, amp in enumerate(self._amplitudes)
            for j in range(k + 1)
        }
        return PureState(2, terms, normalize=True)

    def accept(self, d: int) -> float:
        """The acceptance at codeword distance ``d``, computed once."""
        if d not in self._accepted:
            self._accepted[d] = _dark_probability(self._ket0, self._ket(d).amplitudes)
        return self._accepted[d]

    def by_distance(self, distances: np.ndarray) -> np.ndarray:
        """:meth:`accept` at each entry of an integer array."""
        values, index = np.unique(distances, return_inverse=True)
        return np.array([self.accept(d) for d in values.tolist()])[index]

    def output_one_probability(self, a: Message, b: Message) -> float:
        """:meth:`accept` at the distance of two of the protocol's messages."""
        if len(a.factors) != len(b.factors):
            raise ModeMismatchError("messages have different factor counts")
        return self.accept(sum(fa is not fb for fa, fb in zip(a.factors, b.factors)))


class DiagonalMapReferee:
    """Measures both messages in the occupation basis and outputs 1 exactly
    when the two outcomes agree.

    Only the photon-number weights of each message matter, so pure,
    Fock-diagonal and dense messages are all accepted. Outcomes of
    independent factors agree independently, so on a protocol's letters
    the probability is the product of :meth:`pair_probability` (the pair
    kernel) over positions. The one-pair oracle reads the joint weights of
    two whole messages (a product is joined into its ket first), so the two
    need not be factored alike.
    """

    def pair_probability(self, a: Message, b: Message) -> float:
        """Agreement probability of one pair of letters."""
        return _agreement(a.weights(), dict(b.weights()))

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
    factor position. The message for input x is the product of its row's
    letters in position order (the letter itself at one position); it is
    built only on demand by :meth:`message`, never by evaluation.

    ``mu`` is the declared per-party maximum mean photon number. The mode
    count and mean of each letter are computed once; each row's sums of
    them, taken left to right in position order, are checked against ``m``
    and ``mu``: all 2^n rows at construction for n <= ``TABLE_N_CAP``, the
    rows read above it. ``message_tail`` records mass discarded when the
    letters were built from pre-truncated infinite states; it feeds error
    budgets downstream. The ``referee`` gives the output-1 ("equal")
    probability of one letter pair (``pair_probability``, the kernel that
    evaluation tabulates) or of a codeword distance (``by_distance``), and
    of one message pair (``output_one_probability``, the one-pair oracle).
    """

    name: str
    n: int
    m: int
    mu: float
    letters: Sequence[Message]
    codewords: Callable[[np.ndarray], np.ndarray]
    referee: object
    message_tail: float = 0.0
    _table: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if self.m < 1:
            raise ConfigError(f"m must be >= 1, got {self.m}")
        if self.mu < 0.0:
            raise ConfigError(f"mu must be >= 0, got {self.mu}")
        if not hasattr(self.referee, "pair_probability"):
            raise ConfigError("referee must provide pair_probability")
        if self.n <= TABLE_N_CAP:
            self._check_table_size(1 << self.n)
            object.__setattr__(self, "_table", self.rows(np.arange(1 << self.n)))

    def renamed(self, name: str, referee: object | None = None) -> "SmpProtocol":
        """This protocol under another name, and ``referee`` if given; the copy
        shares the checked table, which ``dataclasses.replace`` would rebuild."""
        twin = copy.copy(self)
        object.__setattr__(twin, "name", name)
        object.__setattr__(twin, "referee", referee or self.referee)
        return twin

    def rows(self, xs: np.ndarray) -> np.ndarray:
        """The checked codeword rows of the inputs ``xs``."""
        if self._table is not None:
            return self._table[xs]
        rows = np.asarray(self.codewords(xs))
        self._check(xs, rows)
        return rows

    def message(self, x: int) -> Message:
        """The message for input ``x``, built from its row on each call."""
        if not 0 <= x < 1 << self.n:
            raise ConfigError(f"input {x} is outside 0..2^{self.n}-1")
        row = self.rows(np.array([x]))[0].tolist()
        return self.letters[row[0]] if len(row) == 1 else ProductPureState(self.letters[s] for s in row)

    def max_total_photons(self) -> int:
        """The most photons any message holds: the largest sum of letter
        maxima over the codeword rows. Above ``TABLE_N_CAP`` the rows are
        not all built, so each position is charged its heaviest letter."""
        tops = np.array([letter.max_total_photons() for letter in self.letters])
        if self._table is None:
            return int(tops.max()) * self.rows(np.zeros(1, dtype=np.int64)).shape[1]
        return int(_position_sums(tops, self._table).max())

    def _row_sums(self, rows: np.ndarray) -> tuple[int, np.ndarray]:
        """The mode count of every row and each row's mean photon number,
        from those of its letters. Every letter must have the first letter's
        mode count: letters of different sizes share no occupation, so a
        position holding both would compare nothing. A row's mode count is
        therefore its positions times that count. The means are summed by
        :func:`_position_sums` in position order, as ``mean_photon_number``
        adds a product's factor means."""
        means = []
        for i, letter in enumerate(self.letters):
            if len(letter.factors) != 1:
                raise ConfigError(f"letter {i} has {len(letter.factors)} factors, not one")
            if letter.modes != self.letters[0].modes:
                raise ConfigError(
                    f"letter {i} has {letter.modes} modes, letter 0 has {self.letters[0].modes}"
                )
            means.append(mean_photon_number(letter))
        return rows.shape[1] * self.letters[0].modes, _position_sums(np.array(means), rows)

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
        # Each add of the running sum over the p positions rounds by up to
        # eps/2 of the sum so far, so a row whose exact mean is at most mu
        # sums to at most about (1 + (p - 1) * eps/2) * mu. Allow twice that
        # drift, above an absolute 1e-9 for the rounding of each letter's
        # own mean.
        drift = (rows.shape[1] - 1) * sys.float_info.epsilon * self.mu
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


def _column_runs(rows: np.ndarray) -> list[tuple[int, int]]:
    """``(start, stop)`` of each run of equal consecutive codeword columns
    (each block of a repetition code)."""
    bounds = [0, rows.shape[1]]
    if rows.shape[1] > 1:
        bounds[1:1] = ((rows[:, 1:] != rows[:, :-1]).any(axis=0).nonzero()[0] + 1).tolist()
    return list(zip(bounds, bounds[1:]))


def _xor_invariant(table: np.ndarray | None, columns: np.ndarray) -> bool:
    """Whether every pair (x, y) is accepted as pair (0, x ^ y), bit for bit.

    Column j of ``columns`` is the first codeword column of run j, and
    ``table`` is the k x k letter table that every run reads (0 at letters
    that do not occur), or None for a referee read at codeword distance.
    Evaluation reads only these, so the structure is checked there, exactly:

    * k is a power of two and the table depends only on the XOR of its
      letters: T[a, b] has the bits of T[0, a ^ b] (compared as bit
      patterns, so neither a signed zero nor a NaN passes on ``==`` alone);
    * row x of the columns is row(x & (x - 1)) ^ row(x & -x) for every x
      (so row 0 is zero), which makes row(x) ^ row(y) row(x ^ y).

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
    x = np.arange(len(columns))
    return not (columns != columns[x & (x - 1)] ^ columns[x & -x]).any()


def _accepted(
    protocol: SmpProtocol, table: np.ndarray | None, columns: np.ndarray, repeats: Sequence[int],
    ix: np.ndarray, iy: np.ndarray,
) -> np.ndarray:
    """The output-1 probability of each pair of rows ``(ix[i], iy[i])`` of
    ``columns``, whose column j is the first codeword column of run j.

    With a letter ``table``, it is the product of ``table[a, b]`` over the
    letters a and b of the runs, each multiplied in ``repeats[j]`` times,
    from ones in position order as the one-pair oracle takes it; without
    one, the referee's ``by_distance`` at the pair's codeword distance. The
    pairs are read in blocks of at most ``BLOCK_ROWS`` entries (pairs x
    runs), or one pair.
    """
    accepted, weights = np.empty(len(ix)), np.array(repeats)
    step = max(1, BLOCK_ROWS // len(repeats))
    for start in range(0, len(ix), step):
        # Row j of each gather is run j, so that each factor is contiguous.
        a, b = columns[ix[start : start + step]].T, columns[iy[start : start + step]].T
        block = accepted[start : start + step]
        if table is None:
            block[:] = protocol.referee.by_distance(weights @ (a != b))
            continue
        block.fill(1.0)
        for factor, count in zip(table[a, b], repeats):
            for _ in range(count):
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
    z = x ^ y, else all 4^n pairs, their indices built block by block. The
    kernel is tabulated once on the letters present, unless the referee
    reads codeword distances (``by_distance``).
    """
    size = 1 << protocol.n
    if samples is None:
        if seed is not None:
            raise ConfigError("a seed needs samples")
        if protocol.n > TABLE_N_CAP:
            raise InputCapError(
                f"exhaustive evaluation requires n <= {TABLE_N_CAP}, got n={protocol.n}"
            )
        rows = protocol._table  # checked at construction; read in place
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
        if protocol.n > TABLE_N_CAP:
            protocol._check_table_size(min(2 * samples, size))
        seed = int(seed)
        rng = np.random.default_rng([seed, protocol.n])
        xs = rng.integers(0, size, size=samples)
        ys = rng.integers(0, size, size=samples)
        order = np.lexsort((ys, xs))  # stable: tied pairs keep draw order
        x, y = xs[order], ys[order]
        inputs, index = np.unique(np.concatenate((x, y)), return_inverse=True)
        rows = protocol.rows(inputs)
    runs = _column_runs(rows)
    # The first column of each run: the rows themselves when no column
    # repeats the one before it, else a copy in row order.
    columns = rows if len(runs) == rows.shape[1] else rows.take([start for start, _ in runs], axis=1)
    repeats = [stop - start for start, stop in runs]
    table = None
    if not hasattr(protocol.referee, "by_distance"):
        # One table of the letters present serves every run.
        table = _tabulated(protocol.referee.pair_probability, protocol.letters, columns.reshape(-1))
    if samples is not None:
        p_error = _accepted(protocol, table, columns, repeats, index[:samples], index[samples:])
        np.subtract(1.0, p_error, out=p_error, where=x == y)
        # Each draw's sorted position, for statistics in draw order.
        drawn = (x, y, np.argsort(order))
        return ErrorReport(protocol.name, protocol.n, p_error, seed=seed, drawn=drawn)
    if _xor_invariant(table, columns):
        xor_errors = _accepted(protocol, table, columns, repeats, np.zeros(size, int), np.arange(size))
        xor_errors[0] = 1.0 - xor_errors[0]
        return ErrorReport(protocol.name, protocol.n, xor_errors=xor_errors)
    p_error = np.empty(size * size)
    for start in range(0, size * size, BLOCK_ROWS):
        x, y = np.divmod(np.arange(start, min(start + BLOCK_ROWS, size * size)), size)
        p_error[start : start + BLOCK_ROWS] = _accepted(protocol, table, columns, repeats, x, y)
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


def coherent_fingerprint_protocol(n: int, code: Code, mu_total: float) -> SmpProtocol:
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
    message_tail = 1.0 - (1.0 - actual_tail) ** m
    return SmpProtocol(
        name=f"qfp-n{n}-m{m}",
        n=n,
        m=m,
        mu=mu_total,
        letters=(coherent_state(alpha, cutoff), coherent_state(-alpha, cutoff)),
        codewords=code.codewords,
        referee=InterferenceVacuumReferee(),
        message_tail=message_tail,
    )


def trivial_classical_protocol(n: int, code: Code | None = None) -> SmpProtocol:
    """Both parties send their (encoded) bit string, one single-mode basis
    state |0> or |1> per position; the referee outputs 1 exactly when the
    two strings agree.

    With the default code (each bit once) this decides equality with zero
    error at mu <= n.
    With a short lossy code it exercises the counting path: every message
    lives in the subspace of occupation tuples with total at most the
    maximum codeword weight, which is ``code.m`` for both codes (some input
    lights every position).
    """
    if code is None:
        code = RepetitionCode(n, 1)
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
    )


# ---------------------------------------------------------------------------
# Protocol descriptions (JSON)

def _load_code(data, n: int) -> Code:
    if data is None:
        return RepetitionCode(n, 1)
    if not isinstance(data, Mapping):
        raise ConfigError("field 'code' must be an object")
    kind = data.get("kind")
    if kind == "repetition":
        repeats = data.get("repeats")
        if type(repeats) is not int or repeats < 1:
            raise ConfigError("field 'code.repeats' must be a positive integer")
        return RepetitionCode(n, repeats)
    if kind == "identity":
        return RepetitionCode(n, 1)
    if kind == "xor-fold":
        m = data.get("m")
        if type(m) is not int or m < 1:
            raise ConfigError("field 'code.m' must be a positive integer")
        return XorFoldCode(n, m)
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
