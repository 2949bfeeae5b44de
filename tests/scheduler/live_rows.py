"""One accessor for a scheduler's live-job table, for the tests that read or write it.

``ClusterScheduler._active`` (``_JobTable`` in ``repro.scheduler.service``)
is the only store of a live job's state, one column per field.  The
equivalence and coverage tests compare every column of every row through
:func:`rows` and the records as a result would show them through
:func:`records`; the scalar references write the columns through
:class:`Row` and take a job out through :func:`leave`.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.scheduler import ClusterScheduler
from repro.scheduler.metrics import JobRecord
from repro.scheduler.service import _PROGRESS_COLUMNS, _records_view

#: Every per-row column of the table.
COLUMNS = ("total_steps", "scale_factors", "admitted_at", "alone", *_PROGRESS_COLUMNS)
#: The columns that hold a :class:`~repro.scheduler.metrics.JobRecord` field of the same name.
RECORD_COLUMNS = (
    "steps_done", "cost_dollars", "first_allocation_time", "accelerator_seconds",
    "preemptions", "checkpoint_seconds",
)  # fmt: skip


class Row:
    """Job ``job_id``'s row of ``scheduler``'s live table, read and written by column name.

    ``job`` is the job.  ``first_allocation_time`` reads ``None`` for never,
    as a record does, and takes ``None`` back.  The row is looked up by id on
    every access, so it follows the job when rows move up.
    """

    def __init__(self, scheduler: ClusterScheduler, job_id: int) -> None:
        object.__setattr__(self, "_table", scheduler._active)
        object.__setattr__(self, "job", scheduler._active.jobs[job_id])

    def _row(self) -> int:
        return self._table.ids.index(self.job.job_id)

    def __getattr__(self, name: str) -> Any:
        value = getattr(self._table, name)[self._row()]
        if name == "first_allocation_time" and value == math.inf:
            return None
        return value.item() if isinstance(value, np.generic) else value

    def __setattr__(self, name: str, value: Any) -> None:
        if name == "first_allocation_time" and value is None:
            value = math.inf
        getattr(self._table, name)[self._row()] = value


def rows(scheduler: ClusterScheduler) -> List[Tuple[int, Dict[str, Any]]]:
    """Every live job's row in row order, each column by name; floats compare exactly.

    ``alone`` indexes the scheduler's own rate table, so it is given as the
    rates it names.
    """
    rates = scheduler._rate_table.rows
    view = []
    for job_id in scheduler._active.ids:
        row = Row(scheduler, job_id)
        columns = {name: getattr(row, name) for name in COLUMNS}
        view.append((job_id, {**columns, "job": row.job, "alone": rates[columns["alone"]]}))
    return view


def records(scheduler: ClusterScheduler) -> Dict[int, Dict[str, Any]]:
    """Every job's record at this instant (a live job's made from its row), field by field."""
    view = _records_view(scheduler._records, scheduler._pending_ids, scheduler._active)
    return {job_id: dict(vars(record)) for job_id, record in view.items()}


def leave(scheduler: ClusterScheduler, job_id: int) -> JobRecord:
    """Write ``job_id``'s record from its row and drop the row: a reference's way out."""
    row, record = Row(scheduler, job_id), scheduler._records[job_id]
    for name in RECORD_COLUMNS:
        setattr(record, name, getattr(row, name))
    record.accelerator_seconds = dict(record.accelerator_seconds)
    scheduler._active.remove(scheduler._active.ids.index(job_id))
    return record
