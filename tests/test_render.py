"""The byte-matrix renderer's columns against Python's own formatting.

Examples are derived from the test source (``derandomize=True``), so every
run checks the same cases.
"""

from __future__ import annotations

import json
import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from collabnet import render

DETERMINISTIC = settings(derandomize=True, deadline=None, database=None, max_examples=300)

FIXED = [
    0.0, -0.0, 5e-7, 1e-4, math.nextafter(1e-4, 0), math.nextafter(1e-4, 1),
    999999999.9999995, 1e9, 1e16, 1e22, math.inf, -math.inf, math.nan, -1.5, -2.5e-7, -1e22,
]


def _near(value: float) -> st.SearchStrategy[float]:
    """The value and the doubles on either side of it."""
    return st.sampled_from([math.nextafter(value, -math.inf), value, math.nextafter(value, math.inf)])


WEIGHTS = st.one_of(
    st.floats(0, 100),
    st.integers(0, 1_000_000).map(lambda k: k / 10_000),  # 4-decimal cells
    st.integers(0, 128 * 1000).map(lambda k: k / 128),  # exact ties at 6 decimals when k is odd
    st.integers(0, 10**9).flatmap(lambda k: _near((2 * k + 1) / 2e6)),  # nearest (k + 0.5)e-6
    st.sampled_from(FIXED),
    st.floats(allow_nan=True, allow_infinity=True),
)

# small blocks put slow rows at and across block edges
BLOCK_BYTES = st.sampled_from([1, 40, 200, render._BLOCK_BYTES])


def rendered(column: render.Column, n: int, block_bytes: int) -> list[str]:
    """The column's rows between two constant segments, split at the line
    ends ``render.lines`` gives."""
    with mock.patch.object(render, "_BLOCK_BYTES", block_bytes):
        text, ends = render.lines(n, [b"<", column, b">"])
    assert len(ends) == n and (not n or ends[-1] == len(text))
    rows = [bytes(text[i:j]).decode() for i, j in zip([0, *ends[:-1].tolist()], ends.tolist())]
    assert all(row[0] == "<" and row[-1] == ">" for row in rows)
    return [row[1:-1] for row in rows]


@DETERMINISTIC
@given(st.lists(WEIGHTS, max_size=40), BLOCK_BYTES)
def test_decimal_columns_match_python_formatting(weights, block_bytes):
    values = np.array(weights, np.float64)
    assert rendered(render.decimals(values), len(weights), block_bytes) == [
        f"{w:.6f}" for w in weights
    ]
    assert rendered(render.json_decimals(values), len(weights), block_bytes) == [
        json.dumps(round(w, 6)) for w in weights
    ]


INT64 = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.integers(0, 10**6),
    st.sampled_from([0, -1, 2**53 - 1, 2**53, 2**63 - 1, -(2**63)]),
)


@DETERMINISTIC
@given(st.lists(INT64, max_size=40), BLOCK_BYTES)
def test_integer_column_matches_str(values, block_bytes):
    column = render.integers(np.array(values, np.int64))
    assert rendered(column, len(values), block_bytes) == [str(i) for i in values]


def test_gathered_ids_keep_zero_bytes_and_empty_ids():
    ids = ["a", "nul\x00id", "", "café", "\x00"]
    index = np.array([3, 2, 1, 0, 1, 4, 2])
    assert rendered(render.gather(render.texts(ids), index), index.size, 40) == [
        ids[i] for i in index
    ]
