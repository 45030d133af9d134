"""Text lines rendered as numpy byte matrices.

A template is a list of segments, each constant ``bytes`` or a
:class:`Column`. :func:`lines` lays the segments out side by side for a
block of rows, as one ``(rows, width)`` uint8 matrix and a mask of the bytes
that are text; ``matrix[mask]`` is those rows' lines. A column gives its
rows' bytes padded to its width: texts gathered from one table by index,
and integers and 6-decimal numbers written digit by digit from exact whole
numbers (of 1e-6 for a decimal). A number the digits cannot show is
written by Python's own formatter, inside the same column. Blocks hold a
few MB of matrix, however wide the template.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Sequence
from typing import NamedTuple

import numpy as np

__all__ = ["Column", "decimals", "gather", "integers", "json_decimals", "lines", "texts"]

_BLOCK_BYTES = 1 << 22  # matrix bytes per block, so a wide template uses fewer rows
_POW10 = 10.0 ** np.arange(17)  # every digit count below 2**53


class Column(NamedTuple):
    width: int
    take: Callable[[slice], tuple[np.ndarray, np.ndarray]]  # rows -> (bytes, mask)


def lines(n: int, template: Sequence[bytes | Column]) -> tuple[bytearray, np.ndarray]:
    """The template's lines for rows 0..n-1: their text, and the int64
    offset in it where each line ends."""
    bounds = np.cumsum([0] + [len(s) if isinstance(s, bytes) else s.width for s in template])
    step = max(1, _BLOCK_BYTES // max(1, bounds[-1]))
    text, ends = bytearray(), []
    for start in range(0, n, step):
        rows = slice(start, min(start + step, n))
        matrix = np.empty((rows.stop - start, bounds[-1]), np.uint8)
        mask = np.ones(matrix.shape, bool)
        for segment, lo, hi in zip(template, bounds.tolist(), bounds[1:].tolist()):
            if isinstance(segment, bytes):
                matrix[:, lo:hi] = np.frombuffer(segment, np.uint8)
            else:
                matrix[:, lo:hi], mask[:, lo:hi] = segment.take(rows)
        text.extend(matrix[mask])
        ends.append(mask.view(np.uint8).sum(axis=1, dtype=np.int64))
    return text, np.cumsum(np.concatenate([[0], *ends]), dtype=np.int64)[1:]


def texts(strings: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The strings' UTF-8 bytes one after another, and each one's start and
    length: a table of the texts as long as they are, not padded to the
    longest."""
    encoded = [s.encode("utf-8") for s in strings]
    lengths = np.array([len(b) for b in encoded], np.int64)
    return np.frombuffer(b"".join(encoded), np.uint8), np.cumsum(lengths) - lengths, lengths


def gather(table: tuple[np.ndarray, np.ndarray, np.ndarray], index: np.ndarray) -> Column:
    """Row i is text ``index[i]`` of a :func:`texts` table, padded to the
    longest; the padding bytes are whatever the table holds there, masked."""
    flat, starts, lengths = table
    position = np.arange(lengths.max(initial=0))

    def take(rows: slice) -> tuple[np.ndarray, np.ndarray]:
        i = index[rows]  # built column by column, then transposed: rows are short
        text = flat.take(starts[i] + position[:, None], mode="clip")
        return text.T, (position[:, None] < lengths[i]).T

    return Column(position.size, take)


def integers(values: np.ndarray) -> Column:
    """Each int64 as ``str`` writes it."""
    values = np.asarray(values, np.int64)
    fast = (values >= 0) & (values < 2**53)  # exact as a float
    return _digits(np.where(fast, values, 0).astype(np.float64), 0, False, fast, values, str)


def decimals(values: np.ndarray) -> Column:
    """Each float as ``f"{v:.6f}"`` writes it."""
    units, fast = _micro_units(values)
    return _digits(units, 6, False, fast, values, "{:.6f}".format)


def json_decimals(values: np.ndarray) -> Column:
    """Each float as ``json.dumps(round(v, 6))`` writes it: the 6-decimal
    digits with trailing zeros stripped, keeping one, where that is how
    ``repr`` writes the rounded value (0 or at least 1e-4, below 1e9)."""
    units, fast = _micro_units(values)
    fast &= (units == 0) | (units >= 100)
    return _digits(units, 6, True, fast, values, lambda v: json.dumps(round(v, 6)))


def _micro_units(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each value in [0, 1e9) as a whole number of 1e-6, rounded half to
    even on its exact binary value as ``f"{v:.6f}"`` rounds, and the mask
    of those values (0 elsewhere). ``p = v * 1e6`` is rounded; a Veltkamp
    split gives its exact error ``e``. ``rint(p)`` is then right unless p
    is a tie that e tips to the other side."""
    values = np.asarray(values, np.float64)
    fast = (values >= 0) & (values < 1e9) & ~np.signbit(values)  # NaN fails both
    v = np.where(fast, values, 0.0)
    p = v * 1e6
    hi = v * 134217729.0  # 2**27 + 1
    hi -= hi - v  # the upper 26 bits of v: hi * 1e6 and (v - hi) * 1e6 are exact
    e = (hi * 1e6 - p) + (v - hi) * 1e6
    r = np.rint(p)
    return r + ((p - r == 0.5) & (e > 0)) - ((p - r == -0.5) & (e < 0)), fast


def _digits(units, n_frac, strip, fast, values, fallback) -> Column:
    """Whole numbers below 2**53, held as floats, written as decimal digits
    with ``n_frac`` of them after a point and no leading zero; ``strip``
    drops the fraction's trailing zeros but its first digit. Rows outside
    ``fast`` are ``fallback(value)`` instead."""
    slow = np.flatnonzero(~fast)
    slow_column = gather(
        texts([fallback(v) for v in np.asarray(values)[slow].tolist()]), np.arange(slow.size)
    )
    n_int = len(str(int(units.max(initial=0)) // 10**n_frac))
    n = n_int + n_frac
    width = max(n + (n_frac > 0), slow_column.width)
    position = np.arange(width)

    def take(rows: slice) -> tuple[np.ndarray, np.ndarray]:
        x = units[rows]
        first = n - np.maximum(np.searchsorted(_POW10, x, side="right"), n_frac + 1)
        stop = np.full(x.size, n + (n_frac > 0))
        if strip:  # less one per trailing zero of the fraction, but its first digit
            stop -= sum(x % _POW10[k] == 0 for k in range(1, n_frac))
        # built column by column, then transposed: rows are short. x / 10**k
        # is correctly rounded, which below 2**53 never rounds up to a whole
        # number, so its floor is exact
        quotient = np.floor(x / _POW10[n - 1 :: -1, None])  # x's leading 1, 2, ... digits
        quotient[1:] -= 10 * quotient[:-1]  # each one's last digit
        text = np.zeros((width, x.size), np.uint8)
        text[:n_int], text[n_int + 1 : n + 1] = quotient[:n_int], quotient[n_int:]
        text[: n + (n_frac > 0)] += ord("0")
        if n_frac:
            text[n_int] = ord(".")
        mask = (first <= position[:, None]) & (position[:, None] < stop)
        lo, hi = np.searchsorted(slow, [rows.start, rows.stop])
        here = slow[lo:hi] - rows.start
        mask[:, here] = False
        slow_text, slow_mask = slow_column.take(slice(lo, hi))
        text[: slow_column.width, here], mask[: slow_column.width, here] = slow_text.T, slow_mask.T
        return text.T, mask.T

    return Column(width, take)
