"""The coefficient diff of rewritten rows against a sparse diff of every row at once.

``_HighsBackend._apply_edits`` pushes a rewritten row to HiGHS as the
coefficients that differ from the terms HiGHS holds (``_coefficient_diff``:
a row whose index array was kept diffs its values in place, any other row is
compared as two dense rows).  The reference below finds the same coefficients
in one sparse pass over every row, keyed by (row order, column), a term absent
on one side counting as 0.  Both must yield the same ``(row, column, value)``
sequence, term for term and in the same order, whatever the rewrite did:
terms added, dropped, set to zero, moved, or only their values changed with
the index array kept.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.solver.lp import _coefficient_diff


def _sparse_diff(rewrites, num_cols):
    """Every row at once: one ``np.unique`` over (row ordinal, column) keys."""
    keys, values = [], []
    for side in (1, 2):
        terms = [rewrite[side] for rewrite in rewrites]
        ordinals = np.repeat(np.arange(len(terms)), [len(indices) for indices, _ in terms])
        keys.append(ordinals * num_cols + np.concatenate([indices for indices, _ in terms]))
        values.append(np.concatenate([coefficients for _, coefficients in terms]))
    unique, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    before, after = np.zeros(len(unique)), np.zeros(len(unique))
    before[inverse[: len(keys[0])]] = values[0]
    after[inverse[len(keys[0]):]] = values[1]
    (moved,) = (before != after).nonzero()
    rows = [rewrite[0] for rewrite in rewrites]
    ordinals, columns = (unique[moved] // num_cols).tolist(), (unique[moved] % num_cols).tolist()
    return [rows[k] for k in ordinals], columns, after[moved].tolist()


@st.composite
def _rewrites(draw):
    """Rows and their rewrites: kept, changed, dropped, zeroed and added terms, in any order."""
    num_cols = draw(st.integers(1, 12))
    value = st.sampled_from([-2.5, -1.0, 0.0, 0.5, 1.0, 3.0])
    rewrites = []
    for row in draw(st.permutations(range(draw(st.integers(1, 6))))):
        columns = draw(st.lists(st.integers(0, num_cols - 1), unique=True, max_size=num_cols))
        old = (np.array(columns, np.int64), np.array([draw(value.filter(bool)) for _ in columns]))
        if draw(st.booleans()):  # a column edit: the same index array, values changed in place
            kept = np.array([draw(st.sampled_from([c, 0.0, 2.0])) for c in old[1].tolist()])
            rewrites.append((row, old, (old[0], kept)))
            continue
        fates = [draw(st.sampled_from(["keep", "change", "zero", "drop"])) for _ in columns]
        rewritten = [
            (column, {"keep": coefficient, "change": draw(value), "zero": 0.0}[fate])
            for column, coefficient, fate in zip(columns, old[1].tolist(), fates)
            if fate != "drop"
        ]
        free = [column for column in range(num_cols) if column not in columns]
        added = draw(st.lists(st.sampled_from(free), unique=True)) if free else []
        rewritten = draw(st.permutations(rewritten + [(column, draw(value)) for column in added]))
        new_columns, new_values = [c for c, _ in rewritten], [v for _, v in rewritten]
        rewrites.append((row, old, (np.array(new_columns, np.int64), np.array(new_values, float))))
    return rewrites, num_cols


@settings(max_examples=300, deadline=None)
@given(_rewrites())
def test_diff_matches_the_sparse_diff_of_every_row(rewrite):
    rewrites, num_cols = rewrite
    assert _coefficient_diff(rewrites, num_cols) == _sparse_diff(rewrites, num_cols)


@pytest.mark.parametrize(
    "old, new, expected",
    [
        # A term added, one dropped: the dropped one is pushed as 0.
        (([1, 3], [1.0, 1.0]), ([3, 4], [1.0, 2.0]), ([1, 4], [0.0, 2.0])),
        # Terms given out of column order come back in column order.
        (([4, 0], [1.0, 1.0]), ([0, 4, 2], [5.0, 1.0, 6.0]), ([0, 2], [5.0, 6.0])),
        # A term set to 0 is pushed as 0; a term absent on both sides never is.
        (([2], [7.0]), ([2], [0.0]), ([2], [0.0])),
        # Nothing changed: nothing pushed.
        (([1, 2], [1.0, 2.0]), ([2, 1], [2.0, 1.0]), ([], [])),
    ],
)
def test_one_rewritten_row(old, new, expected):
    sides = [(np.array(indices, np.int64), np.array(values)) for indices, values in (old, new)]
    rows, columns, values = _coefficient_diff([(7, *sides)], 6)
    assert (columns, values) == expected and rows == [7] * len(columns)


def test_a_kept_index_array_diffs_values_in_column_order():
    indices = np.array([5, 0, 2], np.int64)
    rewrite = (3, (indices, np.array([1.0, 2.0, 3.0])), (indices, np.array([4.0, 2.0, 0.0])))
    assert _coefficient_diff([rewrite], 6) == ([3, 3], [2, 5], [0.0, 4.0])
