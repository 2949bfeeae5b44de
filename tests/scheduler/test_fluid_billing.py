"""Fluid billing over the rows with time equals billing every row, bit for bit.

The fluid executor's paired path (``_bill_used_rows``) visits only the
allocation rows that carry time.  A row with no time adds ``+0.0`` to every
``bincount``, ``add.at`` and ``add.accumulate`` sum it would have entered,
so per-job rates, billed fractions, busy seconds, total cost and record costs
keep the floats of billing every row.  ``_every_row`` is the earlier
expression, kept as the oracle: all rows, each row's demand by
``Allocation.demand``'s rule (the largest scale factor in it).  Hypothesis
draws job sets with and without pair rows, multi-worker singletons, jobs with
no row, and all-zero rows of either kind.
"""

from itertools import chain

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.scheduler.service import _bill_used_rows, _RateTable
from repro.workloads import ColocationModel, ThroughputOracle

_ORACLE = ThroughputOracle()
_NAMES = tuple(_ORACLE.registry.names)
_COSTS = np.asarray(_ORACLE.registry.costs_per_hour())
_TYPES = ("resnet18-bs32", "lstm-bs5", "a3c-bs4", "transformer-bs64", "resnet50-bs64")


def _rate_keys(jobs):
    """Per member of a row, its rate-table key: its type, its partner's type or None, its scale."""
    def keys(combination):
        members = [jobs[job_id] for job_id in combination]
        partners = [None if len(members) == 1 else job_type for job_type, _ in reversed(members)]
        return [(job_type, partner, scale) for (job_type, scale), partner in zip(members, partners)]
    return keys


def _every_row(matrix, combinations, job_ids, alone, scale_factors, table, rate_keys):
    """The earlier per-member billing: every row, and each row's demand."""
    members = np.fromiter(chain.from_iterable(combinations), np.int64)
    sizes = np.fromiter(map(len, combinations), np.intp, len(combinations))
    rows = np.repeat(np.arange(len(combinations)), sizes)
    ordinals, starts = np.searchsorted(job_ids, members), np.cumsum(sizes) - sizes
    kinds = alone[ordinals]
    for row in np.flatnonzero((sizes > 1) & matrix.any(axis=1)).tolist():
        at = starts[row]
        kinds[at:at + 2] = [table[key] for key in rate_keys(combinations[row])]
    per_member = (table.packed.take(kinds, axis=0) * matrix[rows]).sum(axis=1)
    rates = np.bincount(ordinals, weights=per_member, minlength=len(job_ids))
    billed = np.zeros((len(job_ids), matrix.shape[1]))
    np.add.at(billed, ordinals, matrix[rows] / sizes[rows, None])
    scale_of = dict(zip(job_ids.tolist(), scale_factors.tolist()))
    demand = [max(int(scale_of[job_id]) for job_id in combination) for combination in combinations]
    return rates, billed, np.asarray(demand, dtype=float)


def _settle(billed, occupancy, scale_factors, dt):
    """``_run_fluid``'s running sums: busy seconds, total cost, record costs."""
    busy = np.add.accumulate(np.concatenate(([[11.0, 0.0, 7.5]], occupancy)))[-1]
    costs = _COSTS * ((billed * dt) * scale_factors[:, None]) / 3600.0
    total = np.add.accumulate(np.concatenate(([3.25], costs.ravel())))[-1]
    records = np.linspace(0.0, 2.0, len(billed))
    for column in costs.T:
        records = records + column
    return busy, total, records


@st.composite
def _allocations(draw):
    count = draw(st.integers(min_value=1, max_value=9))
    ids = st.lists(st.integers(0, 500), min_size=count, max_size=count, unique=True)
    job_ids = sorted(draw(ids))
    multi_worker = draw(st.lists(st.booleans(), min_size=count, max_size=count))
    jobs = {
        job_id: (draw(st.sampled_from(_TYPES)), draw(st.sampled_from((2, 4))) if wide else 1)
        for job_id, wide in zip(job_ids, multi_worker)
    }
    alone = [job_id for job_id in job_ids if draw(st.integers(0, 9)) > 0]  # some jobs have no row
    singles = [job_id for job_id in job_ids if jobs[job_id][1] == 1]
    pairs = []
    if draw(st.booleans()):  # space sharing
        candidates = [(a, b) for i, a in enumerate(singles) for b in singles[i + 1:]]
        pairs = [pair for pair in candidates if draw(st.booleans())]
    combinations = sorted([(job_id,) for job_id in alone] + pairs)
    fraction = st.one_of(st.just(0.0), st.floats(0.0, 1.0, allow_nan=False, allow_subnormal=False))
    matrix = np.array(
        [[draw(fraction) for _ in _NAMES] for _ in combinations], dtype=float
    ).reshape(len(combinations), len(_NAMES))
    for row in range(len(combinations)):
        if draw(st.integers(0, 3)) == 0:  # a row with no time, singleton or pair
            matrix[row] = 0.0
    dt = draw(st.floats(0.0, 1e6, allow_nan=False, allow_subnormal=False))
    return jobs, job_ids, combinations, matrix, dt


def _bits(array):
    return np.asarray(array, dtype=float).tobytes()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_allocations())
def test_billing_rows_with_time_equals_billing_every_row(case):
    jobs, job_ids, combinations, matrix, dt = case
    table = _RateTable(ColocationModel(_ORACLE), _NAMES)
    ids = np.asarray(job_ids, dtype=np.int64)
    members = [jobs[job_id] for job_id in job_ids]
    alone = np.fromiter((table[job_type, None, scale] for job_type, scale in members), np.intp)
    scale_factors = np.asarray([scale for _, scale in members], dtype=float)

    rates, billed, used, demand = _bill_used_rows(
        matrix, combinations, ids, alone, scale_factors, table
    )
    expected_rates, expected_billed, expected_demand = _every_row(
        matrix, combinations, ids, alone, scale_factors, table, _rate_keys(jobs)
    )
    assert used.tolist() == np.flatnonzero(matrix.any(axis=1)).tolist()
    assert _bits(rates) == _bits(expected_rates)
    assert _bits(billed) == _bits(expected_billed)
    assert _bits(demand) == _bits(expected_demand[used])

    settled = _settle(billed, (matrix[used] * dt) * demand[:, None], scale_factors, dt)
    expected = _settle(
        expected_billed, (matrix * dt) * expected_demand[:, None], scale_factors, dt
    )
    for value, expected_value in zip(settled, expected):
        assert _bits(value) == _bits(expected_value)
