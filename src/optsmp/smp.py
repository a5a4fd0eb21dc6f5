"""Simultaneous-message protocols over optical messages, evaluated exactly.

A protocol is one encoder (input -> message state) that both parties use and
a referee rule; every protocol here is a symmetric fingerprint that decides
equality, so a pair's error is the referee's chance of answering other than
``x == y``. Referee rules come in exactly two classes:

* the dark-port test after balanced beamsplitters pair mode i of one message
  with mode i of the other (:class:`InterferenceVacuumReferee`), and
* the same-outcome test: measure both messages in the occupation basis
  and accept exactly when the two outcomes agree
  (:class:`DiagonalMapReferee`), which reads each message's photon-number
  weights.

Both classes admit exact output-probability computation, so worst-case error
is evaluated without sampling noise. Adaptive referees (measure one message,
choose the next measurement) are deliberately not modeled.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from .errors import ConfigError, ModeMismatchError, SupportCapError
from .fock import (
    FockDiagonalState,
    FockIndex,
    ProductPureState,
    PureState,
    SUPPORT_CAP,
    coherent_state,
    cutoff_for_tail,
    mean_photon_number,
    poisson_tail,
    tensor,
)

Message = Union[PureState, FockDiagonalState, ProductPureState]

#: Coherent fingerprint messages are pre-truncated so that each whole message
#: discards mass below this bound (recorded as ``message_tail``).
MESSAGE_TAIL_BOUND = 1e-10
#: Protocols build and check all 2^n messages at construction, and evaluate
#: all 4^n pairs exhaustively, up to this n. Above it each message is built
#: and checked on first use, and only sampled evaluation runs.
TABLE_N_CAP = 12
#: Brute-force deterministic-communication search is exponential in 2^n, so
#: it takes tables of at most 2^DCC_N_CAP rows and columns.
DCC_N_CAP = 3
#: Errors this close to the worst one count as tied with it when the worst
#: pair is chosen: pairs that tie exactly on paper differ in the last bits of
#: their float products.
WORST_TIE = 1e-12
#: Rows per block when a report's columns are read row by row or formatted
#: as CSV; bounds the memory of the Python objects made per block.
BLOCK_ROWS = 1 << 16


# ---------------------------------------------------------------------------
# Codes (pluggable input -> codeword maps for fingerprinting encoders)

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

    def encode(self, x: int) -> tuple[int, ...]:
        bits = [(x >> i) & 1 for i in range(self.n)]
        return tuple(b for b in bits for _ in range(self.repeats))


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

    def encode(self, x: int) -> tuple[int, ...]:
        out = [0] * self.m
        for i in range(self.n):
            out[i % self.m] ^= (x >> i) & 1
        return tuple(out)


Code = Union[RepetitionCode, XorFoldCode]


# ---------------------------------------------------------------------------
# Balanced beamsplitter on sparse kets

@lru_cache(maxsize=None)
def _bs_coefficients(n_in: int, m_in: int) -> tuple[tuple[int, int, float], ...]:
    """Output terms (p, q, coeff) of |n_in, m_in> under a balanced beamsplitter.

    Convention: input creation operators map to (c + d)/sqrt(2) and
    (c - d)/sqrt(2), so the second output port carries the difference.
    """
    if n_in + m_in > 512:
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
    """Probability that every difference port stays dark when mode i of ket
    ``a`` meets mode i of ket ``b`` on a balanced beamsplitter.

    The beamsplitter sends |n, l> to the dark-port outcome |n+l, 0> with
    amplitude sqrt(C(n+l, n) / 2^(n+l)), so

        P = sum_t prod(t_i!) / 2^|t| * |sum_{n+l=t} a(n) b(l) / sqrt(n! l!)|^2,

    one double loop over the two supports. Each amplitude is scaled by
    rho^|n| and each weight by rho^(-2|t|), which leaves P unchanged and keeps
    both in floating-point range up to the 512-photon limit per mode pair.
    Occupations are keyed by their digits in base ``top + 1``; no digit of
    n + l exceeds ``top``, so n + l is one integer addition.
    """
    top = max(x + y for x, y in zip(map(max, zip(*a)), map(max, zip(*b))))
    if top > 512:
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
    return p


def _alphabet(items: Iterable) -> tuple[list, np.ndarray]:
    """The distinct items in order of first appearance, and each item's
    symbol: the position of its equal among them."""
    index: dict = {}
    symbols = [index.setdefault(item, len(index)) for item in items]
    return list(index), np.array(symbols, dtype=np.intp)


def _tabulated(
    kernel: Callable, distinct: Sequence, symbols: np.ndarray, ix: np.ndarray, iy: np.ndarray
) -> np.ndarray:
    """``kernel(distinct[symbols[i]], distinct[symbols[j]])`` for every pair
    (i, j) of the index arrays ``ix`` and ``iy``. The kernel runs once per
    symbol pair that occurs, and the table the pairs read never has more
    entries than there are pairs: all k x k symbol pairs when they are no
    more (a full grid always), else the sorted symbol pairs that occur."""
    k = len(distinct)
    pair = (symbols * k)[ix]
    pair += symbols[iy]
    if k * k <= pair.size:
        codes = np.bincount(pair, minlength=k * k).nonzero()[0]
        table, slots = np.zeros(k * k), codes
    else:
        codes, pair = np.unique(pair, return_inverse=True)
        table, slots = np.zeros(codes.size), np.arange(codes.size)
    table[slots] = [kernel(distinct[s // k], distinct[s % k]) for s in codes.tolist()]
    return table[pair]


class InterferenceVacuumReferee:
    """Interferes Alice's mode i with Bob's mode i on balanced beamsplitters
    and outputs 1 ("equal") exactly when every difference port is dark.

    The acceptance event factorizes over factor pairs, so the probability is
    the product of one dark-port sum per pair of corresponding factors; a
    :class:`PureState` is its own single factor. No beamsplitter output is
    built. The factor-pair cache is keyed on the factor objects themselves,
    so encoders should reuse one object per distinct factor.
    """

    def __init__(self) -> None:
        self._pair_cache: dict[tuple, float] = {}

    def _pair_dark_probability(self, fa: PureState, fb: PureState) -> float:
        key = (fa, fb)
        hit = self._pair_cache.get(key)
        if hit is not None:
            return hit
        if fa.modes != fb.modes:
            raise ModeMismatchError(f"factor mode mismatch: {fa.modes} vs {fb.modes}")
        pairs = fa.support_size() * fb.support_size()
        if pairs > SUPPORT_CAP:
            raise SupportCapError(f"pair support {pairs} exceeds cap {SUPPORT_CAP}")
        p = _clamp01(_dark_probability(fa.amplitudes, fb.amplitudes))
        self._pair_cache[key] = p
        return p

    def output_one_probability(self, a: Message, b: Message) -> float:
        if len(a.factors) != len(b.factors):
            raise ModeMismatchError("messages have different factor counts")
        p = 1.0
        for fa, fb in zip(a.factors, b.factors):
            p *= self._pair_dark_probability(fa, fb)
        return _clamp01(p)

    def output_one_probabilities(
        self, messages: Sequence[Message], ix: np.ndarray, iy: np.ndarray
    ) -> np.ndarray:
        """Output-1 probability of every pair ``(messages[i], messages[j])``
        over the index arrays ``ix`` and ``iy``.

        Each factor position gets an alphabet of the factor objects found
        there and a table of their dark-port sums; the probabilities are the
        products of one table gather per position, taken in position order,
        so each equals :meth:`output_one_probability` of its pair bit for bit.
        """
        if len({len(msg.factors) for msg in messages}) > 1:
            raise ModeMismatchError("messages have different factor counts")
        # Consecutive positions with the same factor objects (each block of a
        # repetition code) share one gather. The product starts from ones, as
        # the one-pair product starts from 1.0, so it never aliases a gather.
        p = np.ones(ix.size)
        for column, run in itertools.groupby(zip(*(msg.factors for msg in messages))):
            gather = _tabulated(self._pair_dark_probability, *_alphabet(column), ix, iy)
            for _ in run:
                p *= gather
        return p


class DiagonalMapReferee:
    """Measures both messages in the occupation basis and outputs 1 exactly
    when the two outcomes agree.

    Only the photon-number weights of each message matter, so pure,
    Fock-diagonal and dense messages are all accepted.
    """

    def output_one_probability(self, a: Message, b: Message) -> float:
        return self._probability(tuple(a.weights()), tuple(b.weights()))

    @staticmethod
    def _probability(weights_a: tuple, weights_b: tuple) -> float:
        """The sum of ``pa * pb`` over the outcomes both messages can give,
        in the order of ``weights_a``."""
        weights_b = dict(weights_b)
        p = 0.0
        for ia, pa in weights_a:
            pb = weights_b.get(ia)
            if pb is not None:
                p += pa * pb
        return _clamp01(p)

    def output_one_probabilities(
        self, messages: Sequence[Message], ix: np.ndarray, iy: np.ndarray
    ) -> np.ndarray:
        """Output-1 probability of every pair ``(messages[i], messages[j])``
        over the index arrays ``ix`` and ``iy``: messages with the same
        weights share one row and one column of the table."""
        weights = _alphabet(tuple(msg.weights()) for msg in messages)
        return _tabulated(self._probability, *weights, ix, iy)


# ---------------------------------------------------------------------------
# Protocols

@dataclass(frozen=True)
class SmpProtocol:
    """One-round simultaneous-message protocol with exact referee evaluation.

    Both parties use the one ``encoder``. Every evaluation reads messages
    through :meth:`message`, so each message is built and checked once per
    protocol: all 2^n at construction for n <= ``TABLE_N_CAP``, each on first
    use above it. ``mu`` is the declared per-party maximum mean photon
    number that every message is checked against. ``message_tail`` records
    mass discarded when messages were built from pre-truncated infinite
    states; it feeds error budgets downstream. The ``referee`` gives the
    output-1 ("equal") probability of one message pair
    (``output_one_probability``) and of index arrays over a message list
    (``output_one_probabilities``).
    """

    name: str
    n: int
    m: int
    mu: float
    encoder: Callable[[int], Message]
    referee: object
    message_tail: float = 0.0
    _messages: dict[int, Message] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _factor_means: dict[Message, float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if self.m < 1:
            raise ConfigError(f"m must be >= 1, got {self.m}")
        if self.mu < 0.0:
            raise ConfigError(f"mu must be >= 0, got {self.mu}")
        if not hasattr(self.referee, "output_one_probabilities"):
            raise ConfigError("referee must provide output_one_probabilities")
        if self.n <= TABLE_N_CAP:
            for x in range(1 << self.n):
                self.message(x)

    def message(self, x: int) -> Message:
        """The message for input ``x``, encoded and checked on first use."""
        msg = self._messages.get(x)
        if msg is None:
            msg = self.encoder(x)
            if msg.modes != self.m:
                raise ConfigError(
                    f"encoder output for x={x} has {msg.modes} modes, expected {self.m}"
                )
            mean = self._mean_photon_number(msg)
            if mean > self.mu + 1e-9:
                raise ConfigError(
                    f"encoder output for x={x} has mean photon number "
                    f"{mean} above mu={self.mu}"
                )
            self._messages[x] = msg
        return msg

    def _mean_photon_number(self, msg: Message) -> float:
        """``mean_photon_number(msg)``, bit for bit, with the mean of each
        distinct factor object computed once per protocol and summed in
        factor order. A message that is not a product is its own single
        factor, so its mean is computed once per message."""
        means = self._factor_means
        for f in msg.factors:
            if f not in means:
                means[f] = mean_photon_number(f)
        return sum(means[f] for f in msg.factors)


class PairErrors:
    """The rows ``(x, y, f, p_error)`` of an :class:`ErrorReport` as Python
    ints and floats, read from its columns in ascending (x, y) order.
    ``len`` is the number of pairs."""

    def __init__(self, report: "ErrorReport") -> None:
        self._report = report

    def __len__(self) -> int:
        return self._report.p_error.size

    def __iter__(self) -> Iterator[tuple[int, int, int, float]]:
        r = self._report
        for block in _row_blocks(r.x, r.y, r.f, r.p_error):
            yield from zip(*(column.tolist() for column in block))

    def __eq__(self, other) -> bool:
        return list(self) == list(other)


@dataclass(frozen=True, eq=False)
class ErrorReport:
    """Error probabilities of a protocol run, held as columns.

    ``x``, ``y``, ``f`` (1 when ``x == y``, else 0) and ``p_error`` are
    arrays of one length, one entry per evaluated pair in ascending (x, y)
    order: the rows of :attr:`pair_errors`, and the columns of the CSV
    serialization. ``mean_error`` and its standard error ``stderr_mean`` are
    summed over the pairs in the order they were drawn. ``seed`` is the
    sampling seed, and ``None`` for an exhaustive report.
    """

    protocol_name: str
    n: int
    x: np.ndarray
    y: np.ndarray
    f: np.ndarray
    p_error: np.ndarray
    mean_error: float
    stderr_mean: float
    seed: int | None = None

    @property
    def pair_errors(self) -> PairErrors:
        return PairErrors(self)

    @cached_property
    def worst_error(self) -> float:
        return float(self.p_error.max())

    @property
    def worst_pair(self) -> tuple[int, int]:
        """The smallest ``(x, y)`` whose error lies within ``WORST_TIE`` of
        the worst error."""
        first = int(np.argmax(self.p_error >= self.worst_error - WORST_TIE))
        return (int(self.x[first]), int(self.y[first]))


def _mean_and_stderr(errors: np.ndarray) -> tuple[float, float]:
    """``np.mean(errors)`` and ``np.std(errors, ddof=1) / sqrt(size)`` (0.0
    for one error), bit for bit: the same reductions in the same order,
    without the per-call overhead of numpy's Python wrappers, which is a
    large share of an evaluation at n = 1 (four pairs)."""
    size = errors.size
    mean = np.add.reduce(errors) / size
    if size == 1:
        return float(mean), 0.0
    square = errors - mean
    np.multiply(square, square, out=square)
    return float(mean), math.sqrt(np.add.reduce(square) / (size - 1)) / math.sqrt(size)


def _row_blocks(*columns: np.ndarray) -> Iterator[list[np.ndarray]]:
    """The columns, arrays of one length, in blocks of ``BLOCK_ROWS`` rows."""
    for start in range(0, len(columns[0]), BLOCK_ROWS):
        yield [column[start : start + BLOCK_ROWS] for column in columns]


def csv_rows(*columns: np.ndarray) -> Iterator[str]:
    """CSV lines of the columns, arrays of one length, in blocks of whole
    lines, each ending in a newline. Each value prints as ``repr`` of its
    Python int or float, formatted once per distinct value in a block."""
    for block in _row_blocks(*columns):
        yield "\n".join(map(",".join, zip(*map(_words, block)))) + "\n"


def _words(column: np.ndarray) -> Iterator[str]:
    values = column.tolist()
    words = {v: repr(v) for v in set(values)}
    return map(words.__getitem__, values)


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
    standard error, taken in draw order. The referee is called once on the
    index arrays.
    """
    size = 1 << protocol.n
    if samples is None:
        if seed is not None:
            raise ConfigError("a seed needs samples")
        if protocol.n > TABLE_N_CAP:
            raise ConfigError(
                f"exhaustive evaluation requires n <= {TABLE_N_CAP}, got n={protocol.n}"
            )
        # Every (x, y), x-major; 4^12 pairs fit 32-bit indices.
        x, y = np.divmod(np.arange(size * size, dtype=np.int32), size)
        inputs, ix, iy = np.arange(size), x, y
        draw_order = slice(None)
    else:
        if samples < 1:
            raise ConfigError("sampled evaluation requires samples >= 1")
        if seed is None or seed < 0:
            raise ConfigError(f"sampled evaluation requires an explicit seed >= 0, got {seed}")
        seed = int(seed)
        rng = np.random.default_rng([seed, protocol.n])
        xs = rng.integers(0, size, size=samples)
        ys = rng.integers(0, size, size=samples)
        order = np.lexsort((ys, xs))  # stable: tied pairs keep draw order
        x, y = xs[order], ys[order]
        inputs, index = np.unique(np.concatenate((x, y)), return_inverse=True)
        ix, iy = index[:samples], index[samples:]
        draw_order = np.argsort(order)  # sorted position of each draw

    messages = [protocol.message(v) for v in inputs.tolist()]
    equal = x == y
    p_error = protocol.referee.output_one_probabilities(messages, ix, iy)
    np.subtract(1.0, p_error, out=p_error, where=equal)
    mean, stderr = _mean_and_stderr(p_error[draw_order])
    return ErrorReport(
        protocol_name=protocol.name,
        n=protocol.n,
        x=x,
        y=y,
        f=equal.view(np.uint8),
        p_error=p_error,
        mean_error=mean,
        stderr_mean=stderr,
        seed=seed,
    )


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
    needs mu_total > m*ln(3)/(2*d_min). Coherent factors are pre-truncated so
    the whole message discards mass below ``MESSAGE_TAIL_BOUND`` (recorded on
    the protocol).
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
    cutoff = cutoff_for_tail(alpha**2, per_mode_tail) if mu_total > 0 else 0
    plus = coherent_state(alpha, cutoff)
    minus = coherent_state(-alpha, cutoff)
    actual_tail = poisson_tail(alpha**2, cutoff)
    message_tail = 1.0 - (1.0 - actual_tail) ** m

    def factors_for(x: int) -> ProductPureState:
        return ProductPureState(tuple(minus if bit else plus for bit in code.encode(x)))

    return SmpProtocol(
        name=f"qfp-n{n}-m{m}",
        n=n,
        m=m,
        mu=mu_total,
        encoder=factors_for,
        referee=InterferenceVacuumReferee(),
        message_tail=message_tail,
    )


def trivial_classical_protocol(n: int, code: Code | None = None) -> SmpProtocol:
    """Both parties send their (encoded) bit string as a point-mass diagonal
    state; the referee outputs 1 exactly when the two tuples agree.

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

    def encoder(x: int) -> FockDiagonalState:
        return FockDiagonalState.point_mass(code.encode(x))

    return SmpProtocol(
        name=f"classical-trivial-n{n}-m{code.m}",
        n=n,
        m=code.m,
        mu=float(code.m),
        encoder=encoder,
        referee=DiagonalMapReferee(),
    )


# ---------------------------------------------------------------------------
# Deterministic communication complexity (exact, brute force)

def equality_function(n: int) -> list[list[int]]:
    """Equality on n-bit strings as a 0/1 matrix, row x and column y."""
    size = 1 << n
    return [[int(x == y) for y in range(size)] for x in range(size)]


def deterministic_cc_matrix(values: Sequence[Sequence[int]]) -> int:
    """Exact deterministic communication cost of an arbitrary 0/1 matrix.

    Convention: a monochromatic rectangle costs 0; otherwise one party sends
    one bit splitting its side, costing 1 plus the worse branch, minimized
    over senders and bipartitions. The final answer bit is not charged.
    ``values`` is a sequence of row sequences whose entries are the Python
    ints 0 and 1 (not bools), with at most 2^``DCC_N_CAP`` rows and columns.
    """
    if not isinstance(values, Sequence) or not all(isinstance(row, Sequence) for row in values):
        raise ConfigError("values must be a sequence of row sequences")
    n_rows = len(values)
    if n_rows == 0 or not values[0] or any(len(row) != len(values[0]) for row in values):
        raise ConfigError("values must be a nonempty rectangular matrix")
    n_cols = len(values[0])
    cap = 1 << DCC_N_CAP
    if n_rows > cap or n_cols > cap:
        raise ConfigError(f"matrix {n_rows}x{n_cols} exceeds the {cap}x{cap} search cap")
    if not all(type(v) is int and v in (0, 1) for row in values for v in row):
        raise ConfigError("matrix entries must be the integers 0 or 1")

    # A matrix is a tuple of row bitmasks over ``width`` columns. Removing a
    # duplicate row or column does not change the cost (the twin follows its
    # copy through any protocol), so the search runs on reduced matrices
    # only, and a reduced matrix is monochromatic exactly when it is 1x1.
    # Cost is the same for a matrix and its transpose.

    def transpose(rows: Sequence[int], width: int) -> list[int]:
        return [sum((r >> j & 1) << i for i, r in enumerate(rows)) for j in range(width)]

    def reduced(rows: Sequence[int], width: int) -> tuple[tuple[int, ...], int]:
        rows = sorted(set(rows))
        cols = sorted(set(transpose(rows, width)))
        return tuple(sorted(transpose(cols, len(rows)))), len(cols)

    def rank(rows: Iterable[int], width: int) -> int:
        # Over the integers mod a prime: the rank over any field bounds the
        # leaf count, and no minor of a 0/1 8x8 matrix is a nonzero multiple
        # of this prime, so this is the rational rank.
        prime = 2**31 - 1
        vecs = [[r >> j & 1 for j in range(width)] for r in rows]
        found = 0
        for j in range(width):
            pivot = next((v for v in vecs if v[j]), None)
            if pivot is None:
                continue
            vecs.remove(pivot)
            inv = pow(pivot[j], -1, prime)
            for v in vecs:
                if v[j]:
                    f = v[j] * inv % prime
                    v[j:] = [(x - f * y) % prime for x, y in zip(v[j:], pivot[j:])]
            found += 1
        return found

    memo: dict[tuple[tuple[int, ...], int], int] = {}

    def cost(rows: tuple[int, ...], width: int) -> int:
        key = (rows, width)
        hit = memo.get(key)
        if hit is not None:
            return hit
        height = len(rows)
        if height == 1 and width == 1:
            memo[key] = 0
            return 0
        # Bounds. A depth-c tree has at most 2^c leaves, and the 1-leaves
        # (0-leaves) sum to the matrix (its complement), so their number is
        # at least its rank. Sending one's line index and then the answer
        # bit costs ceil(log2 lines) + 1.
        full = (1 << width) - 1
        low = (rank(rows, width) + rank((full ^ r for r in rows), width) - 1).bit_length()
        best = (min(height, width) - 1).bit_length() + 1
        for lines, length in ((rows, width), (transpose(rows, width), height)):
            count = len(lines)
            # Canonical bipartitions: the half containing line 0.
            for half in range(1, (1 << count) - 1, 2):
                if best == low:
                    break
                a = cost(*reduced([r for i, r in enumerate(lines) if half >> i & 1], length))
                if 1 + a >= best:
                    continue
                b = cost(*reduced([r for i, r in enumerate(lines) if not half >> i & 1], length))
                best = min(best, 1 + max(a, b))
        memo[key] = best
        return best

    return cost(*reduced([sum(v << j for j, v in enumerate(row)) for row in values], n_cols))


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
