"""Error reports of protocol runs, and their CSV rows.

An :class:`ErrorReport` holds one error per evaluated input pair in
ascending (x, y) order. An exhaustive report keeps the 4^n pairs implicit
in the pair index, so it holds 8 bytes per pair, or only 2^n errors when
they depend on x XOR y alone; a sampled one holds its drawn pairs.
:func:`csv_rows` writes the rows that ``simulate`` prints, formatting each
distinct error tuple of a block once.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

#: Errors this close to the worst one count as tied with it when the worst
#: pair is chosen: pairs that tie exactly on paper differ in the last bits of
#: their float products.
WORST_TIE = 1e-12
#: Entries (pairs x codeword runs) per block when pairs are evaluated, and
#: pairs per block when the grid's pair indices are built or a report's rows
#: are read one by one or formatted as CSV (whole x rows of the grid, at
#: least one); bounds the memory of the temporaries and Python objects per
#: block.
BLOCK_ROWS = 1 << 16
#: Blocks of at least this many pairs find their distinct CSV values by
#: sorting; smaller ones through a dict, which costs less per call.
SORT_PAIRS = 128


class PairErrors:
    """The rows ``(x, y, f, p_error)`` of an :class:`ErrorReport` as Python
    ints and floats, in ascending (x, y) order, read block by block.
    ``len`` is the number of pairs."""

    def __init__(self, report: "ErrorReport") -> None:
        self._report = report

    def __len__(self) -> int:
        return self._report.pairs

    def __iter__(self) -> Iterator[tuple[int, int, int, float]]:
        r = self._report
        for start, stop in _blocks(len(self), BLOCK_ROWS):
            columns = (*r.columns(start, stop), r.errors(start, stop))
            yield from zip(*(column.tolist() for column in columns))

    def __eq__(self, other) -> bool:
        return list(self) == list(other)


class ErrorReport:
    """Error probabilities of a protocol run.

    ``p_error`` holds one error per evaluated pair in ascending (x, y)
    order. An exhaustive report (``seed`` is ``None``) evaluates all 4^n
    pairs and keeps their grid implicit: pair i is x = i >> n,
    y = i & (2^n - 1), and f (1 when x == y, else 0) is 1 exactly at
    i = x * (2^n + 1). An exhaustive report may hold ``xor_errors`` instead
    of ``p_error``: the error of every pair as a function of z = x XOR y,
    which is the errors of the pairs (0, z). Row 0 of the grid then holds
    every error of the grid, first, so the worst error, the worst pair and
    the CSV read ``xor_errors``, and ``p_error`` is built only when read. A
    sampled report holds its pairs in ``drawn``: the sorted x and y columns
    and each draw's position in them. The columns :attr:`x`, :attr:`y` and
    :attr:`f` are derived on each read, and are the rows of
    :attr:`pair_errors` and of the CSV serialization. ``mean_error`` and
    its standard error ``stderr_mean`` are summed over the pairs in the
    order they were drawn, on first read.
    """

    def __init__(
        self,
        protocol_name: str,
        n: int,
        p_error: np.ndarray | None = None,
        seed: int | None = None,
        drawn: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
        *,
        xor_errors: np.ndarray | None = None,
    ) -> None:
        if (p_error is None) == (xor_errors is None):
            raise ValueError("an error report holds either p_error or xor_errors")
        self.protocol_name, self.n, self.seed, self.drawn = protocol_name, n, seed, drawn
        self.xor_errors = xor_errors
        if p_error is not None:
            self.p_error = p_error

    @cached_property
    def p_error(self) -> np.ndarray:
        return self.errors()

    @property
    def pairs(self) -> int:
        """The number of evaluated pairs."""
        return 4**self.n if self.drawn is None else len(self.drawn[0])

    def columns(self, start: int = 0, stop: int | None = None) -> tuple[np.ndarray, ...]:
        """The x, y and f columns of pairs ``start`` to ``stop - 1``."""
        if stop is None:
            stop = self.pairs
        if self.drawn is None:
            # 4^12 pairs fit 32-bit indices.
            index = np.arange(start, stop, dtype=np.int32)
            x, y = index >> self.n, index & ((1 << self.n) - 1)
        else:
            x, y = self.drawn[0][start:stop], self.drawn[1][start:stop]
        return x, y, (x == y).view(np.uint8)

    def errors(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """The errors of pairs ``start`` to ``stop - 1``."""
        if self.xor_errors is None:
            return self.p_error[start:stop]
        x, y, _ = self.columns(start, stop)
        return self.xor_errors[x ^ y]

    x = property(lambda self: self.columns()[0])
    y = property(lambda self: self.columns()[1])
    f = property(lambda self: self.columns()[2])

    @property
    def pair_errors(self) -> PairErrors:
        return PairErrors(self)

    @cached_property
    def worst_error(self) -> float:
        return float(self._leading_errors.max())

    @cached_property
    def worst_pair(self) -> tuple[int, int]:
        """The smallest ``(x, y)`` whose error lies within ``WORST_TIE`` of
        the worst error."""
        first = int(np.argmax(self._leading_errors >= self.worst_error - WORST_TIE))
        if self.drawn is None:
            return divmod(first, 1 << self.n)
        return (int(self.drawn[0][first]), int(self.drawn[1][first]))

    @property
    def _leading_errors(self) -> np.ndarray:
        """Every error value, each first met at the report's first pair
        with it: ``xor_errors`` (the pairs (0, z), row 0 of the grid) when
        held, else ``p_error``."""
        return self.p_error if self.xor_errors is None else self.xor_errors

    @cached_property
    def _statistics(self) -> tuple[float, float]:
        drawn = self.p_error if self.drawn is None else self.p_error[self.drawn[2]]
        stderr = float(np.std(drawn, ddof=1)) / math.sqrt(drawn.size) if drawn.size > 1 else 0.0
        return float(np.mean(drawn)), stderr

    mean_error = property(lambda self: self._statistics[0])
    stderr_mean = property(lambda self: self._statistics[1])


def _blocks(size: int, step: int) -> Iterator[tuple[int, int]]:
    """``(start, stop)`` of ``range(size)`` in blocks of ``step``."""
    for start in range(0, size, step):
        yield start, min(start + step, size)


def csv_rows(report: ErrorReport, truncated: ErrorReport | None = None) -> Iterator[str]:
    """CSV lines ``x,y,f,p_error`` of a report, with ``,p_error_truncated``
    appended when ``truncated`` is a report of the same pairs, in blocks of
    whole lines, each ending in a newline. Each value prints as ``repr`` of
    its Python int or float.

    Each distinct error tuple of a block is formatted once, as one tail
    word; when both reports hold ``xor_errors``, each distinct tuple of the
    2^n values of z is formatted once for the whole report, and pair
    (x, y) reads the word of z = x ^ y. An exhaustive report is formatted
    one x row at a time from the words ``"y,0,"``, built once (the row's
    own y reads ``"x,1,"``), each followed by its tail word and joined by
    ``"\\n" + "x,"``. A sampled report's x, y and f columns are formatted
    per distinct value."""
    reports = [report] if truncated is None else [report, truncated]
    if report.drawn is not None:
        for start, stop in _blocks(report.pairs, BLOCK_ROWS):
            words = [_words(column) for column in report.columns(start, stop)]
            words.append(_tails([r.errors(start, stop) for r in reports]))
            yield "\n".join(map(",".join, zip(*words))) + "\n"
        return
    size = 1 << report.n
    z, z_words = np.arange(size), None
    if all(r.xor_errors is not None for r in reports):
        z_words = np.array(_tails([r.xor_errors for r in reports]), dtype=object)
    ys = [f"{y},0," for y in range(size)]
    # One line per y: the separator before it, its y word and its tail word.
    parts = [""] * (3 * size)
    parts[1::3] = ys
    for x_start, x_stop in _blocks(size, max(1, BLOCK_ROWS >> report.n)):
        if z_words is None:
            tails = _tails([r.errors(x_start * size, x_stop * size) for r in reports])
        else:
            tails = z_words[(np.arange(x_start, x_stop)[:, None] ^ z).reshape(-1)].tolist()
        lines = []
        for x in range(x_start, x_stop):
            parts[0::3] = [f"\n{x},"] * size
            if x == x_start:
                parts[0] = f"{x},"
            start = (x - x_start) * size
            parts[2::3] = tails[start : start + size]
            parts[3 * x + 1] = f"{x},1,"
            lines.append("".join(parts))
            parts[3 * x + 1] = ys[x]
        lines.append("\n")
        yield "".join(lines)


def _words(column: np.ndarray) -> Iterator[str]:
    values = column.tolist()
    words = {v: repr(v) for v in set(values)}
    return map(words.__getitem__, values)


def _tails(columns: Sequence[np.ndarray]) -> list[str]:
    """The tail word of each pair: its errors in ``columns`` (one or two
    arrays of one length) joined by a comma, each distinct tuple formatted
    once.

    A block of fewer than ``SORT_PAIRS`` pairs keys a dict on its Python
    values. A larger one finds the distinct values of both columns at once
    with ``np.unique`` on their bit patterns, so a value in both is
    formatted once, then the distinct pairs of value codes; per pair this
    costs far less than the dict."""
    if len(columns[0]) < SORT_PAIRS:
        if len(columns) == 1:
            keys = columns[0].tolist()
            words = {v: repr(v) for v in set(keys)}
        else:
            keys = list(zip(*(column.tolist() for column in columns)))
            words = {v: ",".join(map(repr, v)) for v in set(keys)}
        return list(map(words.__getitem__, keys))
    distinct, index = np.unique(np.concatenate(columns).view(np.int64), return_inverse=True)
    reprs = list(map(repr, distinct.view(np.float64).tolist()))
    if len(columns) == 1:
        words, code = reprs, index
    else:
        first, second = index.reshape(2, -1)
        tuples, code = np.unique(first * len(reprs) + second, return_inverse=True)
        words = [f"{reprs[t // len(reprs)]},{reprs[t % len(reprs)]}" for t in tuples.tolist()]
    return np.array(words, dtype=object)[code].tolist()
