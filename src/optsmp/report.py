"""Error reports of protocol runs, and their CSV rows.

An :class:`ErrorReport` holds one error per evaluated input pair in
ascending (x, y) order. An exhaustive report keeps the 4^n pairs implicit
in the pair index, so it holds 8 bytes per pair; a sampled one holds its
drawn pairs. :func:`csv_rows` writes the rows that ``simulate`` prints,
formatting each distinct error tuple of a block once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

#: Errors this close to the worst one count as tied with it when the worst
#: pair is chosen: pairs that tie exactly on paper differ in the last bits of
#: their float products.
WORST_TIE = 1e-12
#: Pairs per block when the exhaustive grid is filled, or a report's rows are
#: read one by one or formatted as CSV (whole x rows of the grid, at least
#: one); bounds the memory of the temporaries and Python objects per block.
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
        return self._report.p_error.size

    def __iter__(self) -> Iterator[tuple[int, int, int, float]]:
        r = self._report
        for start, stop in _blocks(len(self), BLOCK_ROWS):
            columns = (*r.columns(start, stop), r.p_error[start:stop])
            yield from zip(*(column.tolist() for column in columns))

    def __eq__(self, other) -> bool:
        return list(self) == list(other)


@dataclass(frozen=True, eq=False)
class ErrorReport:
    """Error probabilities of a protocol run.

    ``p_error`` holds one error per evaluated pair in ascending (x, y)
    order. An exhaustive report (``seed`` is ``None``) evaluates all 4^n
    pairs and keeps their grid implicit: pair i is x = i >> n,
    y = i & (2^n - 1), and f (1 when x == y, else 0) is 1 exactly at
    i = x * (2^n + 1). A sampled report holds its pairs in ``drawn``: the
    sorted x and y columns and each draw's position in them. The columns
    :attr:`x`, :attr:`y` and :attr:`f` are derived on each read, and are the
    rows of :attr:`pair_errors` and of the CSV serialization.
    ``mean_error`` and its standard error ``stderr_mean`` are summed over
    the pairs in the order they were drawn, on first read.
    """

    protocol_name: str
    n: int
    p_error: np.ndarray
    seed: int | None = None
    drawn: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    def columns(self, start: int = 0, stop: int | None = None) -> tuple[np.ndarray, ...]:
        """The x, y and f columns of pairs ``start`` to ``stop - 1``."""
        if stop is None:
            stop = self.p_error.size
        if self.drawn is None:
            # 4^12 pairs fit 32-bit indices.
            index = np.arange(start, stop, dtype=np.int32)
            x, y = index >> self.n, index & ((1 << self.n) - 1)
        else:
            x, y = self.drawn[0][start:stop], self.drawn[1][start:stop]
        return x, y, (x == y).view(np.uint8)

    x = property(lambda self: self.columns()[0])
    y = property(lambda self: self.columns()[1])
    f = property(lambda self: self.columns()[2])

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
        x, y, _ = self.columns(first, first + 1)
        return (int(x[0]), int(y[0]))

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


def csv_rows(report: ErrorReport, truncated: np.ndarray | None = None) -> Iterator[str]:
    """CSV lines ``x,y,f,p_error`` of a report, with ``,p_error_truncated``
    appended when ``truncated`` holds the errors of the same pairs, in
    blocks of whole lines, each ending in a newline. Each value prints as
    ``repr`` of its Python int or float.

    Each distinct error tuple of a block is formatted once, as one tail
    word. An exhaustive report is formatted one x row at a time from the
    words ``"y,0,"``, built once (the row's own y reads ``"x,1,"``), each
    followed by its tail word and joined by ``"\\n" + "x,"``. A sampled
    report's x, y and f columns are formatted per distinct value."""
    errors = [report.p_error] if truncated is None else [report.p_error, truncated]
    if report.drawn is not None:
        for start, stop in _blocks(report.p_error.size, BLOCK_ROWS):
            words = [_words(column) for column in report.columns(start, stop)]
            words.append(_tails([column[start:stop] for column in errors]))
            yield "\n".join(map(",".join, zip(*words))) + "\n"
        return
    size = 1 << report.n
    ys = [f"{y},0," for y in range(size)]
    # One line per y: the separator before it, its y word and its tail word.
    parts = [""] * (3 * size)
    parts[1::3] = ys
    for x_start, x_stop in _blocks(size, max(1, BLOCK_ROWS >> report.n)):
        tails = _tails([column[x_start * size : x_stop * size] for column in errors])
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
