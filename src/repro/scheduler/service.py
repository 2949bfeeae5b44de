"""Event-driven scheduler service: Gavel's round loop as an online API.

Gavel's real deployment is an *online* scheduler — jobs are submitted and
cancelled at runtime, the cluster grows and shrinks under it, and allocations
are recomputed on events.  :class:`ClusterScheduler` is that service core:
it owns admission, the :class:`~repro.core.allocation_engine.AllocationEngine`
delta stream, one long-lived :class:`~repro.core.session.PolicySession`, the
Section 5 round mechanism, and lease/cost accounting, and exposes them
through an event API instead of a closed trace loop:

* :meth:`ClusterScheduler.submit` / :meth:`~ClusterScheduler.cancel` — job
  churn at runtime;
* :meth:`~ClusterScheduler.resize` — grow or shrink the cluster mid-run;
* :meth:`~ClusterScheduler.swap_policy` — hot-swap the scheduling policy,
  rebuilding the policy session from the live engine state;
* ``schedule_cancel`` / ``schedule_resize`` / ``schedule_swap_policy`` — queue
  any of the above on the control-event heap for a future instant: it fires
  exactly then in the fluid modes or while the scheduler is idle, at the next
  round boundary otherwise;
* :meth:`~ClusterScheduler.step` / :meth:`~ClusterScheduler.run_until` —
  advance the scheduler by one event or until a time horizon;
* :meth:`~ClusterScheduler.status` / :meth:`~ClusterScheduler.result` —
  observe progress / collect the final metrics;
* :meth:`~ClusterScheduler.snapshot` / :meth:`~ClusterScheduler.restore` —
  checkpoint and resume a long run deterministically.

Execution comes in four modes.  ``round``/``physical`` run the Section 5
round mechanism; ``continuous`` replaces the round boundary with a central
event heap — arrivals, completions, scheduled cancels/resizes/policy swaps
and optional periodic re-solve ticks — where every event triggers an
incremental re-allocation through the live policy session (Firmament-style
event-driven scheduling); ``ideal`` is the same event loop without re-solve
ticks — the fluid baseline of Figure 13b.  Time comes from a pluggable
:class:`~repro.scheduler.clock.Clock`: the simulator drives a
:class:`~repro.scheduler.clock.VirtualClock`, a live deployment would plug in
a :class:`~repro.scheduler.clock.WallClock`.  The
:class:`~repro.simulator.simulator.Simulator` is a thin trace-replay driver
over this core (``submit`` every trace job, ``run_until`` the end).

Every mode runs one :meth:`~ClusterScheduler.step`: wake, fire due control
events, admit, solve, then the mode's *executor* runs the event.  The round
executor works on indices: Algorithm 1's ``(row, column)`` picks, placement
flags, and accounting through a *member table* whose entries live as long as
their jobs (see :class:`_MemberTable`).  The fluid executor integrates
``X * T`` to the next event in bulk.  Both run every row at the rule the
policies planned with, :func:`~repro.workloads.colocation.member_throughputs`
on the true models.  A live job's state is one row of the live-job table
(:class:`_JobTable`), the only copy of it; its ``JobRecord`` is written from
that row only on the job's way out, and made from it for a result or snapshot.
"""

from __future__ import annotations

import heapq
import math
import time as _time
from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat
from typing import (
    Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple
)

import numpy as np

from repro.cluster.cluster_spec import ClusterSpec
from repro.cluster.placement import Placer
from repro.cluster.worker import ClusterTopology
from repro.core.allocation import Allocation
from repro.core.aggregation import _Deferred
from repro.core.allocation_engine import AllocationEngine
from repro.core.effective_throughput import isolated_reference_throughput
from repro.core.policy import Policy
from repro.core.problem import PolicyProblem
from repro.core.registry import make_policy
from repro.core.session import PolicySession
from repro.core.throughput_matrix import JobCombination, ThroughputMatrix, build_throughput_matrix
from repro.exceptions import ConfigurationError, SchedulingError, UnknownJobError
from repro.scheduler.clock import Clock, VirtualClock
from repro.scheduler.config import SchedulerConfig
from repro.scheduler.mechanism import RoundScheduler
from repro.scheduler.metrics import JobRecord, SimulationResult
from repro.scheduler.priorities import PriorityTracker
from repro.workloads.colocation import ColocationModel, member_throughputs, pair_throughputs
from repro.workloads.job import Job
from repro.workloads.throughputs import ThroughputOracle

__all__ = [
    "SchedulerConfig",
    "SchedulerStatus",
    "SchedulerSnapshot",
    "ClusterScheduler",
]

_SECONDS_PER_HOUR = 3600.0
_ARRIVAL_EPSILON = 1e-9
_FLUID_MODES = ("ideal", "continuous")


#: What a snapshot keeps of :class:`_JobTable` besides the records: job ids,
#: admission instants, last accelerators and last rounds, in row order.
_Checkpoint = Tuple[List[int], np.ndarray, List[Optional[str]], List[int]]
_Alone = Callable[[Job], int]
#: :class:`_JobTable`'s list columns, and a new row's values in them.
_PROGRESS_COLUMNS = (
    "steps_done", "cost_dollars", "first_allocation_time", "accelerator_seconds",
    "preemptions", "checkpoint_seconds", "last_accelerator", "last_round",
)


class _JobTable:
    """The live jobs, one row each in admission order: the only store of their state.

    Fixed per job, numpy views: ``total_steps``, ``scale_factors``,
    ``admitted_at`` (``max(arrival, clock at admission)``: elapsed times are
    never negative) and ``alone`` (the rate-table row alone), over
    ``_numbers`` / ``_keys``; an admission writes past the live rows and a
    departure makes new arrays, so no live row is written in place.  Progress
    and accounting are lists (:data:`_PROGRESS_COLUMNS`, named as the record
    fields they hold; ``inf`` / -1 for never), written per pick by the round
    executor and replaced in bulk by the fluid one.  A job's record is made
    from its row only where it is read: on the way out and in a view.  Rows
    stay in admission order, the fluid run-level sums' order, and a leaving
    job's is compacted away.  ``sorted_ids`` / ``position`` (each row's place
    in id order) change only with membership (:meth:`reindex`); ``row_of`` is
    remade on its first read after a departure.
    """

    def __init__(self) -> None:
        #: The jobs by id, in row order.
        self.jobs: Dict[int, Job] = {}
        self.ids: List[int] = []
        self._row_of: Optional[Dict[int, int]] = {}
        #: Per row: total steps, scale factor, admission instant; and job id, row alone.
        self._numbers, self._keys = np.zeros((8, 3)), np.zeros((8, 2), np.int64)
        self.steps_done: List[float] = []
        self.cost_dollars: List[float] = []
        self.first_allocation_time: List[float] = []
        self.accelerator_seconds: List[Dict[str, float]] = []
        self.preemptions: List[int] = []
        self.checkpoint_seconds: List[float] = []
        self.last_accelerator: List[Optional[str]] = []
        self.last_round: List[int] = []
        self.reindex()

    @property
    def row_of(self) -> Dict[int, int]:
        if self._row_of is None:
            self._row_of = dict(zip(self.ids, range(len(self.ids))))
        return self._row_of

    def add(self, job: Job, admitted_at: float, alone: int) -> None:
        """A last row for ``job``, with no progress; :meth:`reindex` once all are added."""
        row = len(self.ids)
        if row == len(self._numbers):  # no room: about double it
            self._numbers = np.concatenate((self._numbers, np.zeros((row + 8, 3))))
            self._keys = np.concatenate((self._keys, np.zeros((row + 8, 2), np.int64)))
        self._numbers[row] = job.total_steps, job.scale_factor, admitted_at
        self._keys[row] = job.job_id, alone
        if self._row_of is not None:
            self._row_of[job.job_id] = row
        self.jobs[job.job_id] = job
        self.ids.append(job.job_id)
        for name, value in zip(_PROGRESS_COLUMNS, (0.0, 0.0, math.inf, {}, 0, 0.0, None, -1)):
            getattr(self, name).append(value)

    def remove(self, row: int) -> None:
        """Drop row ``row``; the rows behind it move up one."""
        del self.jobs[self.ids[row]], self.ids[row]
        self._numbers = np.concatenate((self._numbers[:row], self._numbers[row + 1:]))
        self._keys = np.concatenate((self._keys[:row], self._keys[row + 1:]))
        for name in _PROGRESS_COLUMNS:
            del getattr(self, name)[row]
        self._row_of = None
        self.reindex()

    def reindex(self) -> None:
        """The fixed columns' views and the id order of the rows, after membership changed."""
        count = len(self.ids)
        self.total_steps, self.scale_factors, self.admitted_at = self._numbers[:count].T
        ids, self.alone = self._keys[:count].T
        self.sorted_ids = ids.copy()
        self.sorted_ids.sort()
        self.position = self.sorted_ids.searchsorted(ids)

    # JobRecord's fields in order: job, completion time, steps, cost, seconds per type,
    # preemptions, checkpoint seconds, cancelled, first allocation.
    def record(self, row: int) -> JobRecord:
        """Row ``row`` as its job's record at this instant."""
        first = self.first_allocation_time[row]
        return JobRecord(
            self.jobs[self.ids[row]], None, self.steps_done[row], self.cost_dollars[row],
            dict(self.accelerator_seconds[row]), self.preemptions[row],
            self.checkpoint_seconds[row], False, None if first == math.inf else first,
        )  # fmt: skip

    def records(self) -> Iterator[JobRecord]:
        """Every row as its job's record at this instant, in row order (:meth:`record` in bulk)."""
        firsts = [None if first == math.inf else first for first in self.first_allocation_time]
        return map(
            JobRecord, self.jobs.values(), repeat(None), self.steps_done, self.cost_dollars,
            map(dict, self.accelerator_seconds), self.preemptions, self.checkpoint_seconds,
            repeat(False), firsts,
        )  # fmt: skip

    def checkpoint(self) -> _Checkpoint:
        """What a snapshot needs besides the rows' records (``admitted_at`` is never written)."""
        return self.ids[:], self.admitted_at, self.last_accelerator[:], self.last_round[:]

    @classmethod
    def restored(cls, kept: _Checkpoint, records: Dict[int, JobRecord], alone: _Alone) -> "_JobTable":
        """The table checkpoint ``kept`` was taken of, its rows' progress read off ``records``."""
        table, rows = cls(), [records[job_id] for job_id in kept[0]]
        for record, admitted_at in zip(rows, kept[1].tolist()):
            table.add(record.job, admitted_at, alone(record.job))
        table.reindex()
        for name in _PROGRESS_COLUMNS[:6]:  # the record's fields
            setattr(table, name, [getattr(record, name) for record in rows])
        firsts = table.first_allocation_time
        table.first_allocation_time = [math.inf if first is None else first for first in firsts]
        table.accelerator_seconds = list(map(dict, table.accelerator_seconds))
        table.last_accelerator, table.last_round = list(kept[2]), list(kept[3])
        return table


#: One job of an allocation row: ``(job id, or live-table row in a period view, total steps,
#: scale factor, rates)``; ``rates[consolidated]`` is its rate in this row per type.
_Member = Tuple[int, float, int, Tuple[List[float], ...]]
#: ``(job type, partner's job type or None, scale factor)``.
_RateKey = Tuple[str, Optional[str], int]


class _RateTable(Dict[_RateKey, int]):
    """Memo: a :data:`_RateKey`'s index into ``rows``, its ``[consolidated][type]`` rates.

    A singleton key is evaluated per placement on first lookup.  Pair keys
    are made only by :meth:`pair`, which finds a pair's two rows from its
    members' rows alone and fills both members' keys of a new type pair from
    one evaluation; placement and scale do not apply to a pair member (see
    :func:`~repro.workloads.colocation.member_throughputs`), so its spread
    and consolidated rates are one list.  ``packed`` repeats each row's
    consolidated rates as one block, grown by doubling, for the fluid
    executor's ``take``.  The round executor reads single floats off ``rows``
    per pick: a list read and float arithmetic cost about a third of a numpy
    scalar read and ``float64`` arithmetic.
    """

    def __init__(self, model: ColocationModel, names: Tuple[str, ...]) -> None:
        self._model, self._names = model, names
        self.rows: List[Tuple[List[float], ...]] = []
        self.packed = np.zeros((16, len(names)))
        #: Each row's key, and each pair's rows by its members' rows alone.
        self._keys: List[_RateKey] = []
        self._pairs: Dict[Tuple[int, int], Tuple[int, int]] = {}

    def __missing__(self, key: _RateKey) -> int:
        """A singleton key's row: its rates on spread-out and on consolidated placements."""
        job_type, _, scale = key
        spread, consolidated = (
            member_throughputs(self._model, job_type, None, self._names, scale, placement).tolist()
            for placement in (False, True)
        )
        return self._add(key, spread, consolidated)

    def _add(self, key: _RateKey, spread: List[float], consolidated: List[float]) -> int:
        """Give ``key`` the next row, ``(spread, consolidated)``."""
        self.rows.append((spread, consolidated))
        self._keys.append(key)
        self[key] = row = len(self.rows) - 1
        if row == len(self.packed):
            self.packed = np.concatenate((self.packed, np.zeros_like(self.packed)))
        self.packed[row] = consolidated
        return row

    def pair(self, first: int, second: int) -> Tuple[int, int]:
        """A pair row's two rate rows, in member order, from each member's row alone.

        A new type pair costs one :func:`~repro.workloads.colocation.pair_throughputs`
        (one model call per accelerator), which fills both members' keys.
        """
        rows = self._pairs.get((first, second))
        if rows is None:
            (type_a, _, scale_a), (type_b, _, scale_b) = self._keys[first], self._keys[second]
            keys = (type_a, type_b, scale_a), (type_b, type_a, scale_b)
            if keys[0] not in self or keys[1] not in self:
                members = pair_throughputs(self._model, type_a, type_b, self._names).tolist()
                for key, rates in zip(keys, members):
                    if key not in self:
                        self._add(key, rates, rates)
            rows = self._pairs[first, second] = (self[keys[0]], self[keys[1]])
        return rows


class _MemberTable(Dict[JobCombination, Tuple[_Member, ...]]):
    """Memo: an allocation row's :data:`_Member` per job, keyed by the row's combination.

    A row is resolved the first time a round picks it and its entry lives as
    long as its jobs: an entry names its jobs by id, allocation periods,
    resizes and policy swaps change nothing it holds, and :meth:`drop` evicts
    a job's rows when it leaves.  ``restore``, which replaces the rate table's
    rows, starts a new table.  ``period`` holds the entries of the current
    period's tracker rows, each looked up once (:meth:`row`) with every job's
    live-table row in place of its id: any arrival or departure starts a new
    period, so rows do not move within one, and a round reads lists by index.
    """

    def __init__(self, resolve: Callable[[JobCombination], Tuple[_Member, ...]]) -> None:
        self._resolve = resolve
        #: Per job, the rows it is resolved in.
        self._rows_of: Dict[int, List[JobCombination]] = {}
        self._combinations: Tuple[JobCombination, ...] = ()
        self._row_of: Dict[int, int] = {}
        self.period: List[Optional[Tuple[_Member, ...]]] = []

    def start_period(self, combinations: Tuple[JobCombination, ...], rows: Dict[int, int]) -> None:
        """A new period over tracker rows ``combinations``, jobs at ``rows``: none looked up yet."""
        self._combinations, self._row_of = combinations, rows
        self.period = [None] * len(combinations)

    def row(self, row: int) -> Tuple[_Member, ...]:
        """The entry of tracker row ``row``, job ids made live-table rows, kept in ``period``."""
        entry = self[self._combinations[row]]
        self.period[row] = members = tuple((self._row_of[m[0]],) + m[1:] for m in entry)
        return members

    def __missing__(self, combination: JobCombination) -> Tuple[_Member, ...]:
        self[combination] = members = self._resolve(combination)
        for job_id in combination:
            self._rows_of.setdefault(job_id, []).append(combination)
        return members

    def drop(self, job_id: int) -> None:
        """Forget every row ``job_id`` is in (it left the scheduler)."""
        for combination in self._rows_of.pop(job_id, ()):
            self.pop(combination, None)


def _records_view(
    records: Dict[int, JobRecord], live: Iterable[int], table: Optional[_JobTable] = None
) -> Dict[int, JobRecord]:
    """``records`` at this instant: ``live`` (pending or active) jobs' copied, ``table``'s made.

    The rest are shared: a record is written only on its job's way out
    (``_retire``, or :meth:`~ClusterScheduler.cancel` of a pending job).
    """
    view = dict(records)
    for job_id in live:
        view[job_id] = records[job_id].copy()
    if table is not None:
        view.update(zip(table.ids, table.records()))
    return view


def _steps_left(jobs: Dict[int, Job], total: np.ndarray, done: List[float]) -> Dict[int, float]:
    """Per job of ``jobs`` (in row order), the steps it has left, never negative."""
    return dict(zip(jobs, np.maximum(total - np.array(done), 0.0).tolist()))


def _time_elapsed(jobs: Dict[int, Job], now: float, admitted_at: np.ndarray) -> Dict[int, float]:
    """Per job of ``jobs`` (in row order), its time in service since admission (never negative)."""
    return dict(zip(jobs, (now - admitted_at).tolist()))


def _bill_used_rows(
    matrix: np.ndarray,
    combinations: Sequence[JobCombination],
    job_ids: np.ndarray,
    alone: np.ndarray,
    scale_factors: np.ndarray,
    table: _RateTable,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The fluid executor's per-member billing, over the rows that carry time.

    ``job_ids`` is sorted, and ``alone`` (rate-table row alone) and
    ``scale_factors`` are aligned with it; a pair row's members run at the
    rows :meth:`_RateTable.pair` finds from theirs alone.  Returns, per job
    in ``job_ids`` order, its rate (packed rates times its rows' fractions)
    and its billed fractions (its share of its rows: a pair's is split), and
    the rows with time with each one's demand (the largest scale factor in
    it).

    A row with no time adds ``+0.0`` to every sum it would enter, so leaving
    it out keeps every float of billing every row.
    """
    used = matrix.any(axis=1).nonzero()[0]
    rows = [combinations[row] for row in used.tolist()]
    sizes = np.fromiter(map(len, rows), np.intp, len(rows))
    ordinals = np.searchsorted(job_ids, np.fromiter(chain.from_iterable(rows), np.int64))
    starts = np.cumsum(sizes) - sizes
    kinds = alone[ordinals]
    firsts = starts[sizes > 1]
    if len(firsts):
        kinds[firsts], kinds[firsts + 1] = zip(
            *map(table.pair, kinds[firsts].tolist(), kinds[firsts + 1].tolist())
        )
    fractions = matrix[np.repeat(used, sizes)]
    per_member = (table.packed.take(kinds, axis=0) * fractions).sum(axis=1)
    rates = np.bincount(ordinals, weights=per_member, minlength=len(job_ids))
    billed = np.zeros((len(job_ids), matrix.shape[1]))
    np.add.at(billed, ordinals, fractions / np.repeat(sizes, sizes)[:, None])
    demand = scale_factors[ordinals]
    demand = np.maximum.reduceat(demand, starts) if len(rows) else demand
    return rates, billed, used, demand


@dataclass(frozen=True)
class SchedulerStatus:
    """Point-in-time view of a :class:`ClusterScheduler`."""

    current_time: float
    policy_name: str
    mode: str
    cluster_spec: ClusterSpec
    active_job_ids: Tuple[int, ...]
    pending_job_ids: Tuple[int, ...]
    completed_job_ids: Tuple[int, ...]
    cancelled_job_ids: Tuple[int, ...]
    num_rounds: int
    num_policy_recomputations: int
    total_cost_dollars: float
    #: Control events (scheduled cancels/resizes/policy swaps) still queued
    #: on the central event heap.
    num_queued_events: int

    @property
    def has_work(self) -> bool:
        return bool(self.active_job_ids) or bool(self.pending_job_ids)


class _SessionPin:
    """A snapshot's policy session: pinned live, copied before it next changes.

    ``state`` is the scheduler's live session itself (or ``None``) until the
    scheduler next solves; that solve first replaces it with a clone without
    a HiGHS model (:meth:`~repro.core.session.PolicySession.clone`), so the
    pin keeps the session as the snapshot saw it.  ``solves`` counts the
    solves the session had made.  Snapshots taken with no solve between them
    share one pin.
    """

    __slots__ = ("state", "solves")

    def __init__(self, state: Optional[PolicySession], solves: int) -> None:
        self.state = state
        self.solves = solves


@dataclass
class SchedulerSnapshot:
    """In-process checkpoint of a :class:`ClusterScheduler`.

    Captures the full logical execution state — time, job queues and
    progress, accounting, the current allocation period (target allocation
    plus time received), the jitter-RNG state and what running the policy
    changed in it (``policy_state``: Gandiva's packing generator).  Snapshots
    are plain in-memory data tied to the policy/oracle objects of the run
    that produced them.  ``records`` holds a copy of each pending or active
    job's record and *shares* the records of completed and cancelled jobs
    with the scheduler (and with other snapshots and results): those never
    change again, and are read-only for every holder.

    The policy session is checkpointed in two parts.  Its Python side — the
    programs, allocation variables, caches, Dinkelbach's ratio — is *pinned*
    (``session``): ``snapshot()`` copies nothing, and the scheduler's first
    solve after a snapshot pays one clone of the session before it changes
    it.  Its HiGHS side is each live model's call journal (see
    :class:`~repro.solver.lp.LinearProgram`), which the clone carries as it
    was.  :meth:`ClusterScheduler.restore` clones the pinned session again,
    bound to the restoring scheduler's policy, and gives every program a
    fresh HiGHS model that receives its journal's calls: the model holds the
    same LP, basis and last solution as the original's did, so a resumed run
    makes bit-identical decisions to an uninterrupted one, and a restore
    solves no LP.  A snapshot costs O(live jobs) record copies; a restore
    the same copies, one session clone and one replay of the HiGHS calls
    since the session was created.

    ``session_history`` has one entry per solve the pinned session made.
    """

    time: float
    policy: Policy
    cluster_spec: ClusterSpec
    capacity_epochs: List[Tuple[float, ClusterSpec]]
    pending: List[Tuple[float, int, Job]]
    submit_seq: int
    #: Queued control events ``(time, seq, kind, payload)`` in deterministic
    #: (time, sequence) order; the seq tiebreak makes equal-timestamp events
    #: replay identically.
    event_heap: List[Tuple[float, int, str, object]]
    event_seq: int
    #: The live jobs' admission instants, last accelerators and last rounds
    #: (:meth:`_JobTable.checkpoint`); their progress is in ``records``.
    active: _Checkpoint
    records: Dict[int, JobRecord]
    busy_seconds: Dict[str, float]
    checkpoint_seconds: Dict[str, float]
    total_cost: float
    num_rounds: int
    recomputations: int
    policy_seconds: float
    matrix_seconds: float
    allocation_stale: bool
    #: Churn events (by occurrence time) not yet incorporated into a solve,
    #: plus the incorporation-latency accumulators already banked.
    stale_event_times: List[float]
    staleness_integral: float
    staleness_events: int
    tracker_allocation: Optional[Allocation]
    tracker_state: Optional[np.ndarray]
    rng_state: dict
    policy_state: object
    session: _SessionPin

    @property
    def session_history(self) -> Sequence[int]:
        """One entry per solve the pinned session made."""
        return range(self.session.solves)


class ClusterScheduler:
    """Online scheduler core: submit/cancel/resize/swap driven by a clock.

    One instance owns one cluster and one (swappable) policy.  Jobs enter via
    :meth:`submit`, progress is made by :meth:`step` / :meth:`run_until`, and
    aggregate metrics come from :meth:`result` — the same
    :class:`~repro.scheduler.metrics.SimulationResult` the simulator reports,
    because the simulator is a thin replay driver over this class.
    """

    def __init__(
        self,
        policy: "Policy | str",
        cluster_spec: ClusterSpec,
        oracle: Optional[ThroughputOracle] = None,
        colocation_model: Optional[ColocationModel] = None,
        config: Optional[SchedulerConfig] = None,
        workers_per_server: int = 4,
        clock: Optional[Clock] = None,
    ) -> None:
        self._config = config if config is not None else SchedulerConfig()
        self._policy = self._adopt_policy(policy)
        self._oracle = oracle if oracle is not None else ThroughputOracle()
        self._colocation = (
            colocation_model if colocation_model is not None else ColocationModel(self._oracle)
        )
        self._workers_per_server = workers_per_server
        self._clock = clock if clock is not None else VirtualClock()
        self._rng = np.random.default_rng(self._config.seed)
        self._set_cluster(cluster_spec)
        #: Piecewise-constant capacity history: (start time, spec) per epoch,
        #: so utilization stays correct across mid-run resizes.
        self._capacity_epochs: List[Tuple[float, ClusterSpec]] = [
            (self._clock.now(), cluster_spec)
        ]

        self._pending: List[Tuple[float, int, Job]] = []
        self._pending_ids: Set[int] = set()
        self._cancelled_pending: Set[int] = set()
        self._submit_seq = 0
        #: Central control-event heap: (time, seq, kind, payload).  The
        #: monotone ``_event_seq`` tiebreak keeps equal-timestamp events in
        #: submission order, so replay and snapshot/restore are exact.
        self._event_heap: List[Tuple[float, int, str, object]] = []
        self._event_seq = 0
        self._active = _JobTable()
        #: Every submitted job's record, written only on its way out:
        #: snapshots and results share the rest (_records_view).
        self._records: Dict[int, JobRecord] = {}

        self._busy_seconds = dict.fromkeys(self._cluster_spec.registry.names, 0.0)
        self._checkpoint_seconds = dict.fromkeys(self._cluster_spec.registry.names, 0.0)
        self._total_cost = 0.0
        self._num_rounds = 0
        self._recomputations = 0
        self._policy_seconds = 0.0
        self._matrix_seconds = 0.0
        #: Allocation-staleness accounting: occurrence times of churn events
        #: (arrivals, completions, cancels, resizes, policy swaps) not yet
        #: reflected in a policy solve, plus the running sum of their
        #: incorporation lags (solve time minus occurrence time) and count.
        #: Continuous mode re-solves at the event instant, driving the lag to
        #: zero; round mode holds events until the next boundary.
        self._stale_event_times: List[float] = []
        self._staleness_integral = 0.0
        self._staleness_events = 0

        self._allocation_stale = True
        self._tracker: Optional[PriorityTracker] = None
        self._members = _MemberTable(self._row_members)
        #: Execution rates per (job type, partner type, scale factor); see _RateTable.
        self._rate_table = _RateTable(self._colocation, tuple(cluster_spec.registry.names))
        self._engine = self._make_engine()
        self._session: Optional[PolicySession] = None
        #: Solves the live session has made (max_session_history counts them).
        self._session_solves = 0
        #: The last snapshot's pin while it still holds the live session: the
        #: next solve clones the session into it first (see _SessionPin).
        self._pin: Optional[_SessionPin] = None

    # -- construction helpers ---------------------------------------------------------
    def _set_cluster(self, cluster_spec: ClusterSpec) -> None:
        self._cluster_spec = cluster_spec
        self._topology = ClusterTopology(cluster_spec, workers_per_server=self._workers_per_server)
        self._placer = Placer(self._topology)
        self._round_scheduler = RoundScheduler(cluster_spec)

    def _checked_policy(self, policy: "Policy | str") -> Policy:
        """The policy ``policy`` names, checked against the config; changes nothing.

        A spec string is built through :func:`~repro.core.registry.make_policy`
        (unknown specs raise there).  Under a ``"type"`` config a policy not
        already built with ``aggregation="type"`` must have a base whose
        objective can be aggregated.
        """
        from repro.core.aggregation import AGGREGATION_SUPPORTED_BASES, supports_type_aggregation

        checked = make_policy(policy) if isinstance(policy, str) else policy
        if (
            self._config.aggregation == "type"
            and checked.aggregation != "type"
            and not supports_type_aggregation(checked.name)
        ):
            raise ConfigurationError(
                f"policy {checked.name!r} does not support aggregation='type'; "
                f"supported bases: {sorted(AGGREGATION_SUPPORTED_BASES)}"
            )
        return checked

    def _adopt_policy(self, policy: "Policy | str") -> Policy:
        """:meth:`_checked_policy`, switched over to the config's aggregation mode."""
        adopted = self._checked_policy(policy)
        if self._config.aggregation == "type":
            adopted.aggregation = "type"
        return adopted

    def _check_resize(self, cluster: "ClusterSpec | Mapping[str, int]") -> None:
        """Reject a resize that names accelerator types this cluster does not have.

        A full :class:`ClusterSpec` must keep the registry's type names; a
        delta mapping may only name existing types.  Whether a delta drives a
        count negative depends on the capacity when it applies, so
        :meth:`resize` checks that itself.
        """
        names = self._cluster_spec.registry.names
        if isinstance(cluster, ClusterSpec):
            if tuple(cluster.registry.names) != tuple(names):
                raise ConfigurationError(
                    "resize cannot change the set of accelerator types mid-run"
                )
        else:
            unknown = set(cluster) - set(names)
            if unknown:
                raise ConfigurationError(
                    f"resize deltas reference unknown accelerator types {sorted(unknown)}"
                )

    def _make_engine(self) -> AllocationEngine:
        """Incremental matrix engine; policies see the estimator when one is set."""
        colocation = (
            self._config.estimator if self._config.estimator is not None else self._colocation
        )
        return AllocationEngine(
            self._oracle,
            space_sharing=self._policy.space_sharing,
            colocation_model=colocation,
            colocation_threshold=self._config.colocation_threshold,
            aggregation=self._policy.aggregation,
        )

    # -- introspection ---------------------------------------------------------------
    @property
    def policy(self) -> Policy:
        return self._policy

    @property
    def cluster_spec(self) -> ClusterSpec:
        return self._cluster_spec

    @property
    def clock(self) -> Clock:
        return self._clock

    @property
    def now(self) -> float:
        return self._clock.now()

    @property
    def has_work(self) -> bool:
        """Whether any job is active or waiting to be admitted."""
        return bool(self._active.ids) or self._peek_pending() is not None

    def status(self) -> SchedulerStatus:
        """A point-in-time summary of the scheduler's state."""
        pending = tuple(
            job.job_id
            for _, _, job in sorted(self._pending)
            if job.job_id not in self._cancelled_pending
        )
        return SchedulerStatus(
            current_time=self._clock.now(),
            policy_name=self._policy.display_name,
            mode=self._config.mode,
            cluster_spec=self._cluster_spec,
            active_job_ids=tuple(sorted(self._active.jobs)),
            pending_job_ids=pending,
            completed_job_ids=tuple(
                job_id for job_id, record in sorted(self._records.items()) if record.completed
            ),
            cancelled_job_ids=tuple(
                job_id for job_id, record in sorted(self._records.items()) if record.cancelled
            ),
            num_rounds=self._num_rounds,
            num_policy_recomputations=self._recomputations,
            total_cost_dollars=self._total_cost,
            num_queued_events=len(self._event_heap),
        )

    # -- event API: job churn -----------------------------------------------------------
    def submit(self, job: Job) -> None:
        """Queue one job for admission at ``job.arrival_time``.

        Arrival times in the past (relative to the scheduler clock) are
        admitted at the next step; future arrival times make the job wait, so
        a trace replay is just ``submit`` for every job followed by
        :meth:`run_until`.  A job type the oracle does not know raises
        :class:`~repro.exceptions.UnknownJobError` here, not at admission.
        """
        if job.job_id in self._records:
            raise ConfigurationError(f"job {job.job_id} was already submitted")
        self._oracle.spec(job.job_type)
        self._records[job.job_id] = JobRecord(job=job)
        # The heap key is the *effective* arrival: a nominal arrival time in
        # the past is clamped to the submit instant, since the scheduler
        # cannot see (or incorporate) a job before it is submitted.
        effective_arrival = max(job.arrival_time, self._clock.now())
        heapq.heappush(self._pending, (effective_arrival, self._submit_seq, job))
        self._pending_ids.add(job.job_id)
        self._submit_seq += 1

    def cancel(self, job_id: int) -> None:
        """Remove one job (active or still queued) from the scheduler.

        The job's record survives with ``cancelled=True`` and whatever
        progress/cost it accrued; the next step recomputes the allocation
        without it.
        """
        if job_id in self._active.jobs:
            self._retire(job_id, self._clock.now(), cancelled=True)
        elif job_id in self._pending_ids:
            self._pending_ids.discard(job_id)
            self._cancelled_pending.add(job_id)
            self._records[job_id].cancelled = True
        elif job_id in self._records:
            raise SchedulingError(
                f"job {job_id} already left the scheduler and cannot be cancelled"
            )
        else:
            raise UnknownJobError(f"job {job_id} was never submitted")

    def _retire(self, job_id: int, at: float, cancelled: bool = False) -> None:
        """An active job leaves at ``at``, completed or cancelled: the one exit path.

        Its record is written from its row, and it leaves the live table, the member
        table and the engine (timed as matrix preparation); the allocation is stale.
        """
        table, row = self._active, self._active.ids.index(job_id)
        record = self._records[job_id] = table.record(row)
        if cancelled:
            record.cancelled = True
        else:
            record.completion_time = at
        table.remove(row)
        self._members.drop(job_id)
        start = _time.perf_counter()
        self._engine.remove_job(job_id)
        self._matrix_seconds += _time.perf_counter() - start
        self._note_churn(at)
        self._allocation_stale = True

    def _note_churn(self, occurred_at: float) -> None:
        """Record a churn event awaiting incorporation into a policy solve.

        The next solve at time ``T`` adds ``T - occurred_at`` to the
        allocation-staleness integral.
        """
        self._stale_event_times.append(occurred_at)

    # -- event API: scheduled control events -------------------------------------------------
    def _schedule_event(self, at: float, kind: str, payload: object) -> None:
        when = float(at)
        if not math.isfinite(when) or when < 0:
            raise ConfigurationError(f"control-event time must be finite and >= 0, got {at!r}")
        # Like submit()'s arrivals: the scheduler cannot see (or incorporate)
        # an event before it is scheduled, so a past time is the current one.
        when = max(when, self._clock.now())
        heapq.heappush(self._event_heap, (when, self._event_seq, kind, payload))
        self._event_seq += 1

    def schedule_cancel(self, job_id: int, at: float) -> None:
        """Queue a :meth:`cancel` of ``job_id`` for scheduler time ``at``.

        In the fluid modes, and in any mode while the scheduler is idle, the
        cancellation fires exactly at ``at`` (the event heap wakes the loop
        there); while jobs run in the round modes it applies at the first
        round boundary at or after ``at``.  A job that has already
        completed or been cancelled when the event fires is skipped silently
        — completion times are not known when the event is scheduled.  An
        ``at`` in the past is clamped to the current scheduler time, as
        :meth:`submit` clamps arrivals.
        """
        if job_id not in self._records:
            raise UnknownJobError(f"job {job_id} was never submitted")
        self._schedule_event(at, "cancel", job_id)

    def schedule_resize(self, cluster: "ClusterSpec | Mapping[str, int]", at: float) -> None:
        """Queue a :meth:`resize` (full spec or per-type deltas) for time ``at``.

        Unknown accelerator names and a spec with other type names raise
        :class:`~repro.exceptions.ConfigurationError` here.  A delta that
        drives a count negative depends on the capacity when the event fires,
        so that one still raises from the step that fires it.  An ``at`` in
        the past is clamped to the current scheduler time, as :meth:`submit`
        clamps arrivals.
        """
        self._check_resize(cluster)
        self._schedule_event(at, "resize", cluster)

    def schedule_swap_policy(self, policy: "Policy | str", at: float) -> None:
        """Queue a :meth:`swap_policy` to ``policy`` for scheduler time ``at``.

        The policy is checked as :meth:`swap_policy` checks it (an unknown
        spec, or a base the config's ``aggregation="type"`` cannot run,
        raises :class:`~repro.exceptions.ConfigurationError` here).  An ``at``
        in the past is clamped to the current scheduler time, as
        :meth:`submit` clamps arrivals.
        """
        self._checked_policy(policy)
        self._schedule_event(at, "swap_policy", policy)

    def _apply_due_control_events(self, current_time: float) -> None:
        """Fire every queued control event with timestamp <= ``current_time``.

        Events fire in (time, sequence) order.  Cancels of jobs that already
        left the scheduler are skipped; resizes and policy swaps apply
        unconditionally and mark the allocation stale through their
        respective methods.
        """
        while self._event_heap and self._event_heap[0][0] <= current_time:
            when, _seq, kind, payload = heapq.heappop(self._event_heap)
            notes_before = len(self._stale_event_times)
            if kind == "cancel":
                try:
                    self.cancel(int(payload))  # type: ignore[arg-type]
                except (SchedulingError, UnknownJobError):
                    continue  # the job beat its scripted cancel time
            elif kind == "resize":
                self.resize(payload)  # type: ignore[arg-type]
            elif kind == "swap_policy":
                self.swap_policy(payload)  # type: ignore[arg-type]
            else:
                raise SchedulingError(f"unknown control-event kind {kind!r}")
            if len(self._stale_event_times) > notes_before:
                # The underlying method noted the churn at the fire instant;
                # staleness must count from the *scheduled* timestamp — in
                # round mode the gap to the firing boundary is real latency.
                self._stale_event_times[-1] = when

    # -- event API: cluster and policy churn ------------------------------------------------
    def resize(self, cluster: "ClusterSpec | Mapping[str, int]") -> ClusterSpec:
        """Grow or shrink the cluster; returns the new spec.

        ``cluster`` is either a complete :class:`ClusterSpec` or a mapping of
        per-type worker-count *deltas* (``{"v100": +2, "k80": -1}``).  The
        change takes effect at the next round: the target allocation is
        recomputed and capacity accounting switches to the new counts from the
        current instant.
        """
        self._check_resize(cluster)
        if isinstance(cluster, ClusterSpec):
            new_spec = cluster
        else:
            counts = {
                name: self._cluster_spec.count(name) + int(cluster.get(name, 0))
                for name in self._cluster_spec.registry.names
            }
            new_spec = ClusterSpec.from_counts(counts, registry=self._cluster_spec.registry)
        self._set_cluster(new_spec)
        self._capacity_epochs.append((self._clock.now(), new_spec))
        # The current allocation period targeted the old capacity; start a
        # fresh one at the next step.
        self._allocation_stale = True
        self._tracker = None
        self._note_churn(self._clock.now())
        return new_spec

    def swap_policy(self, policy: "Policy | str") -> Policy:
        """Replace the scheduling policy at runtime; returns the old policy.

        The policy session is rebuilt from the live engine state: when the
        new policy shares the old one's space-sharing setting the incremental
        throughput matrix is kept as-is, otherwise the engine is rebuilt for
        the new row structure.  Either way a fresh session is opened at the
        next allocation recomputation, which starts a new allocation period.
        """
        new_policy = self._adopt_policy(policy)
        old_policy, self._policy = self._policy, new_policy
        if (
            new_policy.space_sharing != old_policy.space_sharing
            or new_policy.aggregation != old_policy.aggregation
        ):
            self._rebuild_engine()
        self._session, self._session_solves = None, 0
        self._allocation_stale = True
        self._tracker = None
        self._note_churn(self._clock.now())
        return old_policy

    def _rebuild_engine(self) -> None:
        """Fresh engine over the current active set (admission order preserved)."""
        start = _time.perf_counter()
        self._engine = self._make_engine()
        for job in self._active.jobs.values():
            self._engine.add_job(job)
        self._engine.drain_deltas()
        self._matrix_seconds += _time.perf_counter() - start

    # -- event API: time ------------------------------------------------------------------
    def step(self) -> bool:
        """Process one scheduling event; returns whether work remains.

        Wake if idle (:meth:`_next_wake`), fire due control events, admit,
        solve (fluid modes: every event; round modes: when stale), run the
        mode's executor (:meth:`_run_round` / :meth:`_run_fluid`), retire its
        completions.  A step may only *start* strictly before
        ``max_simulated_seconds``; one starting at it does not run.
        """
        cap = self._config.max_simulated_seconds
        if not self.has_work or self._clock.now() >= cap:
            return False
        if not self._active.ids:
            self._clock.advance_to(min(self._next_wake(), cap))
        if self._clock.now() >= cap:
            return self.has_work
        self._apply_due_control_events(self._clock.now())
        self._admit_arrivals(self._clock.now())
        current_time = self._clock.now()
        if not self._active.ids:
            return self.has_work
        if self._config.mode in _FLUID_MODES:
            end, finished = self._run_fluid(current_time, self._solve_allocation(current_time))
        else:
            if self._allocation_stale or self._tracker is None:
                self._start_period(self._solve_allocation(current_time))
            end, finished = self._run_round(current_time)
        for job_id, finish_time in finished:
            self._retire(job_id, finish_time)
        self._clock.advance_to(end)
        self._num_rounds += 1
        return self.has_work

    def _next_wake(self) -> float:
        """Earliest of the next arrival and the next queued control event (``inf``: neither)."""
        head, events = self._peek_pending(), self._event_heap
        return min(head[0] if head else math.inf, events[0][0] if events else math.inf)

    def run_until(self, until: float = math.inf) -> "ClusterScheduler":
        """Advance until ``until`` (scheduler time), the work runs out, or the cap hits.

        Steps are atomic, so while jobs run the clock overshoots ``until`` by
        up to one round (round modes) or the span to the next event (fluid
        modes, whose allocations only change at event boundaries); an idle
        scheduler stops at ``until`` in every mode.  Interventions issued
        after ``run_until(t)`` take effect at the first event boundary at or
        after ``t``.  No step *starts* at or past ``max_simulated_seconds``.
        With the default horizon this drains every submitted job — the
        simulator's replay loop.
        """
        while self.has_work:
            now = self._clock.now()
            if now >= self._config.max_simulated_seconds or now >= until:
                break
            if not self._active.ids and self._next_wake() >= until:
                break  # idle gap: the next arrival/event is beyond the horizon
            self.step()
        if math.isfinite(until):
            # The clamp mirrors the step guard: the clock never parks past the
            # simulation cap on account of the caller's horizon alone.
            self._clock.advance_to(min(until, self._config.max_simulated_seconds))
        return self

    # -- results ---------------------------------------------------------------------------
    def result(self) -> SimulationResult:
        """Aggregate metrics for everything executed so far: a point-in-time view.

        Later steps change neither the result nor its ``records``: the
        records of pending and active jobs are copies, those of jobs that
        left are shared and final (read-only).
        """
        end_time = self._clock.now()
        fluid = self._config.mode in _FLUID_MODES
        suffix = f" ({self._config.mode})" if fluid else ""
        checkpoint = {} if fluid else dict(self._checkpoint_seconds)
        return SimulationResult(
            policy_name=f"{self._policy.display_name}{suffix}",
            records=_records_view(self._records, self._pending_ids, self._active),
            end_time=end_time,
            num_rounds=self._num_rounds,
            busy_worker_seconds=dict(self._busy_seconds),
            capacity_worker_seconds=self._capacity_worker_seconds(end_time),
            total_cost_dollars=self._total_cost,
            isolated_durations=self._isolated_durations(),
            policy_compute_seconds=self._policy_seconds,
            num_policy_recomputations=self._recomputations,
            checkpoint_worker_seconds=checkpoint,
            matrix_prep_seconds=self._matrix_seconds,
            allocation_staleness_integral=self._staleness_integral,
            num_allocation_stale_events=self._staleness_events,
        )

    def _capacity_worker_seconds(self, end_time: float) -> Dict[str, float]:
        """Integrate per-type capacity over the (piecewise-constant) epoch history."""
        names = self._cluster_spec.registry.names
        capacity = dict.fromkeys(names, 0.0)
        ends = [start for start, _ in self._capacity_epochs[1:]] + [end_time]
        for (start, spec), end in zip(self._capacity_epochs, ends):
            span = min(end, end_time) - start
            if span > 0:
                for name in names:
                    capacity[name] += spec.count(name) * span
        return capacity

    def _isolated_durations(self) -> Dict[int, float]:
        """Reference JCT under a dedicated 1/n cluster share, per submitted job (for FTF)."""
        jobs = [record.job for record in self._records.values()]
        if not jobs:
            return {}
        matrix = build_throughput_matrix(jobs, self._oracle, space_sharing=False)
        durations: Dict[int, float] = {}
        num_jobs = max(1, len(jobs))
        for job in jobs:
            throughput = isolated_reference_throughput(
                matrix,
                self._cluster_spec,
                job.job_id,
                num_jobs=num_jobs,
                scale_factor=job.scale_factor,
            )
            if throughput > 0:
                durations[job.job_id] = job.total_steps / throughput
        return durations

    # -- checkpoint/resume ------------------------------------------------------------------
    def snapshot(self) -> SchedulerSnapshot:
        """Checkpoint the full logical state (see :class:`SchedulerSnapshot`)."""
        tracker = self._tracker
        pin = self._pin
        if pin is None or pin.state is not self._session:
            pin = self._pin = _SessionPin(self._session, self._session_solves)
        pending = [
            entry
            for entry in sorted(self._pending)
            if entry[2].job_id not in self._cancelled_pending
        ]
        return SchedulerSnapshot(
            time=self._clock.now(),
            policy=self._policy,
            cluster_spec=self._cluster_spec,
            capacity_epochs=list(self._capacity_epochs),
            pending=pending,
            submit_seq=self._submit_seq,
            event_heap=sorted(self._event_heap),
            event_seq=self._event_seq,
            active=self._active.checkpoint(),
            records=_records_view(self._records, self._pending_ids, self._active),
            busy_seconds=dict(self._busy_seconds),
            checkpoint_seconds=dict(self._checkpoint_seconds),
            total_cost=self._total_cost,
            num_rounds=self._num_rounds,
            recomputations=self._recomputations,
            policy_seconds=self._policy_seconds,
            matrix_seconds=self._matrix_seconds,
            allocation_stale=self._allocation_stale,
            stale_event_times=list(self._stale_event_times),
            staleness_integral=self._staleness_integral,
            staleness_events=self._staleness_events,
            tracker_allocation=tracker.allocation if tracker is not None else None,
            tracker_state=tracker.snapshot_state() if tracker is not None else None,
            rng_state=self._rng.bit_generator.state,  # a fresh dict per read
            policy_state=self._policy.checkpoint_state(),
            session=pin,
        )

    def restore(self, snapshot: SchedulerSnapshot) -> "ClusterScheduler":
        """Load a :meth:`snapshot`, replacing the current state entirely.

        Works both as a rollback on the scheduler that took the snapshot and
        as a resume on a freshly constructed scheduler sharing the same
        oracle/colocation/config.  Requires a
        :class:`~repro.scheduler.clock.VirtualClock` (real time cannot be
        rewound).
        """
        if not isinstance(self._clock, VirtualClock):
            raise ConfigurationError("restore() requires a VirtualClock")
        # Before the session is cloned, which binds it to this policy.
        self._policy = snapshot.policy.restored(snapshot.policy_state)
        self._set_cluster(snapshot.cluster_spec)
        self._capacity_epochs = list(snapshot.capacity_epochs)
        self._clock = VirtualClock(start=snapshot.time)
        self._pending = list(snapshot.pending)
        heapq.heapify(self._pending)
        self._pending_ids = {job.job_id for _, _, job in self._pending}
        self._cancelled_pending = set()
        self._submit_seq = snapshot.submit_seq
        self._event_heap = list(snapshot.event_heap)
        heapq.heapify(self._event_heap)
        self._event_seq = snapshot.event_seq
        live = chain(snapshot.active[0], self._pending_ids)
        self._records = _records_view(snapshot.records, live)
        # ``alone`` indexes the snapshot's scheduler's rate table: look it up in this one.
        self._active = _JobTable.restored(snapshot.active, self._records, self._alone)
        self._members = _MemberTable(self._row_members)
        self._busy_seconds = dict(snapshot.busy_seconds)
        self._checkpoint_seconds = dict(snapshot.checkpoint_seconds)
        self._total_cost = snapshot.total_cost
        self._num_rounds = snapshot.num_rounds
        self._recomputations = snapshot.recomputations
        self._policy_seconds = snapshot.policy_seconds
        self._stale_event_times = list(snapshot.stale_event_times)
        self._staleness_integral = snapshot.staleness_integral
        self._staleness_events = snapshot.staleness_events
        self._rng = np.random.default_rng(self._config.seed)
        self._rng.bit_generator.state = snapshot.rng_state  # the setter copies the values
        self._rebuild_engine()
        # Set after the rebuild, which times itself: rebuilding is not run time.
        self._matrix_seconds = snapshot.matrix_seconds
        self._restore_session(snapshot.session)
        if snapshot.tracker_allocation is not None and snapshot.tracker_state is not None:
            self._start_period(snapshot.tracker_allocation).restore_state(snapshot.tracker_state)
        else:
            self._tracker = None
        self._allocation_stale = snapshot.allocation_stale
        return self

    def _restore_session(self, pin: _SessionPin) -> None:
        """The pinned session, cloned onto this scheduler's policy, its models rebuilt.

        A warm program's next vertex depends on its solve history, which its
        HiGHS model's basis carries: each model is rebuilt by replaying the
        calls it received (:meth:`~repro.solver.lp.LinearProgram.rebuild_model`),
        so solves after a restore match the uninterrupted run bit for bit.
        The pin itself is left as it is, so a snapshot restores any number of
        times.
        """
        self._pin = None
        self._session_solves = pin.solves
        self._session = None if pin.state is None else pin.state.clone(self._policy)
        if self._session is not None:
            for program in self._session.programs():
                program.rebuild_model()

    # -- internals: admission -----------------------------------------------------------------
    def _peek_pending(self) -> Optional[Tuple[float, int, Job]]:
        """Next queued entry, dropping lazily-cancelled ones."""
        while self._pending:
            entry = self._pending[0]
            if entry[2].job_id in self._cancelled_pending:
                heapq.heappop(self._pending)
                self._cancelled_pending.discard(entry[2].job_id)
                continue
            return entry
        return None

    def _admit_arrivals(self, current_time: float) -> None:
        """Move every job whose arrival time has come into the active set.

        An admission makes the allocation stale.  The heap comparison allows
        ``_ARRIVAL_EPSILON`` of slack, so a job may be admitted marginally
        before its nominal arrival; the admission instant is recorded as
        ``max(arrival_time, current_time)`` and the clock nudged up to the
        latest one, so elapsed times are never negative.  Callers must
        re-read the clock after admission.
        """
        latest_admission, admitted = current_time, False
        while True:
            head = self._peek_pending()
            if head is None or head[0] > current_time + _ARRIVAL_EPSILON:
                break
            heapq.heappop(self._pending)
            job = head[2]
            self._pending_ids.discard(job.job_id)
            admitted_at = max(job.arrival_time, current_time)
            latest_admission = max(latest_admission, admitted_at)
            self._active.add(job, admitted_at, self._alone(job))
            admitted = True
            # Staleness counts from the *effective* arrival (the heap key): a
            # job waiting in the pending queue for a round boundary is
            # unincorporated churn from the moment it became visible.
            self._note_churn(head[0])
            start = _time.perf_counter()
            self._engine.add_job(job)
            self._matrix_seconds += _time.perf_counter() - start
            self._allocation_stale = True
        if admitted:
            self._active.reindex()
        if latest_admission > current_time:
            # An epsilon-early admission: advance (<= _ARRIVAL_EPSILON) so the
            # solve that follows sees current_time >= every admission instant.
            self._clock.advance_to(latest_admission)

    def _build_problem(self, current_time: float, matrix: ThroughputMatrix) -> PolicyProblem:
        """The policy's view of the live table; its per-job mappings are made on first read."""
        table = self._active
        jobs = dict(table.jobs)
        # The fixed columns are never written in place; the progress list may be.
        return PolicyProblem(
            jobs=jobs,
            throughputs=matrix,
            cluster_spec=self._cluster_spec,
            steps_remaining=_Deferred(
                jobs, partial(_steps_left, jobs, table.total_steps, list(table.steps_done))
            ),
            time_elapsed=_Deferred(
                jobs, partial(_time_elapsed, jobs, current_time, table.admitted_at)
            ),
            current_time=current_time,
        )

    def _solve_allocation(self, current_time: float) -> Allocation:
        """One recomputation through the live session."""
        pin, self._pin = self._pin, None
        if pin is not None and pin.state is not None and pin.state is self._session:
            # The first solve since a snapshot: keep the session as the
            # snapshot saw it before anything below changes it.
            pin.state = pin.state.clone(pin.state.policy)
        if (
            self._config.max_session_history is not None
            and self._session is not None
            and self._session_solves >= self._config.max_session_history
        ):
            # Bounded-history mode: re-base onto a cold session so the call
            # journals a checkpoint carries (and a restore replays) cannot
            # grow with run length.
            self._session, self._session_solves = None, 0
        start = _time.perf_counter()
        matrix = self._engine.matrix()
        self._matrix_seconds += _time.perf_counter() - start
        problem = self._build_problem(current_time, matrix)
        deltas = self._engine.drain_deltas()
        start = _time.perf_counter()
        try:
            if self._session is None:
                self._session = self._policy.session(problem)
            else:
                self._session.apply(deltas)
            allocation = self._session.solve(problem)
        except BaseException:
            # A session that failed part-way is in no state to go on from:
            # the next solve starts cold, as a max_session_history re-base does.
            self._session, self._session_solves = None, 0
            raise
        self._session_solves += 1
        self._policy_seconds += _time.perf_counter() - start
        self._recomputations += 1
        # This solve incorporates every churn event noted since the previous
        # one; each waited (solve time - occurrence time) to take effect.
        if self._stale_event_times:
            self._staleness_integral += sum(
                max(0.0, current_time - occurred_at)
                for occurred_at in self._stale_event_times
            )
            self._staleness_events += len(self._stale_event_times)
            self._stale_event_times.clear()
        return allocation

    def _start_period(self, allocation: Allocation) -> PriorityTracker:
        """Open a period on a fresh allocation: a new tracker and its dense arrays.

        Only the tracker and the member table's row view are period-scoped.
        The table's entries outlive them (see :class:`_MemberTable`): a row
        the new allocation shares with the last, the same combination, keeps
        its entry.
        """
        self._tracker, self._allocation_stale = PriorityTracker(allocation), False
        self._members.start_period(self._tracker.combinations, self._active.row_of)
        return self._tracker

    def _row_members(self, combination: JobCombination) -> Tuple[_Member, ...]:
        """Resolve an allocation row to its jobs and their rates: the member table's miss."""
        table, jobs = self._rate_table, self._active
        alone = [int(jobs.alone[jobs.row_of[job_id]]) for job_id in combination]
        rows = table.pair(*alone) if len(alone) == 2 else alone
        return tuple(
            (job_id, job.total_steps, job.scale_factor, table.rows[row])
            for job_id, job, row in zip(combination, map(jobs.jobs.__getitem__, combination), rows)
        )

    def _alone(self, job: Job) -> int:
        """``job``'s rate-table row alone (its type and scale are constant)."""
        return self._rate_table[job.job_type, None, job.scale_factor]

    # -- internals: the round executor (round, physical) ------------------------------------------
    def _run_round(self, current_time: float) -> Tuple[float, List[Tuple[int, float]]]:
        """One round of the period; returns ``(round end, [(job id, finish time)])``.

        On indices: Algorithm 1 picks ``(row, column)`` cells of the tracker's
        arrays, the placer says which picks sit on one server, and the
        accounting loop resolves a row to its jobs through the member table.
        ``physical`` adds checkpoint overhead and throughput jitter.
        """
        config = self._config
        round_duration = config.round_duration_seconds
        tracker = self._tracker
        picks = self._round_scheduler.schedule_round(tracker)
        self._round_scheduler.validate_round(picks)
        rows, columns, scales = picks.rows, picks.columns, picks.scales
        consolidated = self._placer.place(rows, columns, scales)
        tracker.add_time(rows, columns, round_duration)

        physical = config.mode == "physical"
        jitter_std = config.throughput_jitter_std
        checkpoint_overhead = min(config.checkpoint_overhead_seconds, round_duration)
        round_end = current_time + round_duration
        this_round = self._num_rounds
        finished: List[Tuple[int, float]] = []
        names = picks.names
        costs_per_hour = self._cluster_spec.registry.costs_per_hour()
        table, busy_seconds, total_cost = self._members, self._busy_seconds, self._total_cost
        period = table.period
        # The live table's columns, read and written per member at list speed.
        jobs = self._active
        steps_done, cost_dollars = jobs.steps_done, jobs.cost_dollars
        first_allocation, accelerator_seconds = jobs.first_allocation_time, jobs.accelerator_seconds
        last_round, last_accelerator = jobs.last_round, jobs.last_accelerator
        never = math.inf
        for row, column, scale, on_one_server in zip(rows, columns, scales, consolidated):
            members = period[row] or table.row(row)
            accelerator_name = names[column]
            # A job completing mid-round releases its accelerator then, so
            # utilization and cost are prorated.  Cost is job-attributable:
            # when one job of a pair finishes early, the survivor keeps the
            # device busy (occupancy = max over the pair) but the freed
            # half-slot is billed to no one.
            occupancy_seconds = 0.0
            for job_row, total_steps, job_scale, rates in members:
                if first_allocation[job_row] == never:
                    first_allocation[job_row] = current_time
                throughput = rates[on_one_server][column]
                overhead = 0.0
                if physical:
                    if (
                        last_round[job_row] != this_round - 1
                        or last_accelerator[job_row] != accelerator_name
                    ):
                        overhead = checkpoint_overhead
                        jobs.preemptions[job_row] += 1
                    if jitter_std > 0:
                        throughput *= max(0.0, float(self._rng.normal(1.0, jitter_std)))
                progress = throughput * (round_duration - overhead)
                done = steps_done[job_row]
                needed = total_steps - done
                if not needed > 0.0:
                    needed = 0.0
                if throughput > 0 and progress >= needed:
                    finish = min(current_time + overhead + needed / throughput, round_end)
                    finished.append((jobs.ids[job_row], finish))
                    steps_done[job_row] = total_steps
                    used_seconds = finish - current_time
                else:
                    steps_done[job_row] = done + progress
                    used_seconds = round_duration
                last_accelerator[job_row] = accelerator_name
                last_round[job_row] = this_round
                seconds = accelerator_seconds[job_row]
                seconds[accelerator_name] = seconds.get(accelerator_name, 0.0) + used_seconds
                if overhead > 0:
                    # A checkpoint window holds the device without progress:
                    # billed like productive time, and also accounted apart.
                    overhead_used = min(overhead, used_seconds)
                    jobs.checkpoint_seconds[job_row] += overhead_used
                    self._checkpoint_seconds[accelerator_name] += (
                        overhead_used * scale / len(members)
                    )
                cost = costs_per_hour[column] * job_scale * used_seconds / _SECONDS_PER_HOUR
                if len(members) > 1:
                    cost /= len(members)
                cost_dollars[job_row] += cost
                total_cost += cost
                if used_seconds > occupancy_seconds:
                    occupancy_seconds = used_seconds
            busy_seconds[accelerator_name] += scale * occupancy_seconds
        self._total_cost = total_cost
        return round_end, finished

    # -- internals: the fluid executor (continuous, ideal) ---------------------------------------
    def _next_resolve_tick(self, current_time: float) -> float:
        """Next multiple of ``resolve_interval_seconds`` after ``current_time`` (needs no state)."""
        interval = self._config.resolve_interval_seconds
        if interval is None:
            return math.inf
        return (math.floor(current_time / interval) + 1) * interval

    def _run_fluid(
        self, current_time: float, allocation: Allocation
    ) -> Tuple[float, List[Tuple[int, float]]]:
        """``X * T`` integrated to the next event; returns ``(its time, [(job id, finish)])``.

        The next event is the earliest of the next arrival or control event,
        the earliest completion and the next re-solve tick.  Numpy over one
        per-job x per-type block, straight on the live table's columns, in
        admission order (the run-level sums' order).  When rows are not jobs
        (pairs), :func:`_bill_used_rows` bills only the rows with time, each
        pair key's rates evaluated once by the rate table; a row with no time
        would add ``+0.0`` to every sum.
        """
        # Section 3.1's effective throughput at the rate rule's (packed) rates; each
        # job is billed its share of its rows (a pair's is split, no row pays nothing).
        table, combinations, matrix = self._rate_table, allocation.combinations, allocation.matrix
        jobs = self._active
        # The allocation's shape says whether rows are jobs: every active job
        # has its singleton row (the engine's matrix has one per job, and so
        # has every policy's allocation over it), so rows beyond the job count
        # are pairs, and as many rows as jobs are the jobs alone, in id order.
        paired = len(combinations) > len(jobs.ids)
        if len(combinations) == len(jobs.ids):  # row k is job k, alone
            billed = matrix.take(jobs.position, axis=0)
            rates = (table.packed.take(jobs.alone, axis=0) * billed).sum(axis=1)
        else:  # per member of a row with time: its row's fractions, its part to bill, its rates
            order = jobs.position.argsort()  # the rows in id order
            rates, billed, used, demand = _bill_used_rows(
                matrix, combinations, jobs.sorted_ids, jobs.alone[order],
                jobs.scale_factors[order], table,
            )  # fmt: skip
            rates, billed = rates.take(jobs.position), billed.take(jobs.position, axis=0)
        moving = rates > 0
        steps_done = np.array(jobs.steps_done)
        # Every live job has steps left: one within 1e-6 of its total leaves in the step.
        to_finish = np.full(len(rates), math.inf)
        np.divide(jobs.total_steps - steps_done, rates, out=to_finish, where=moving)
        earliest_completion = current_time + np.minimum.reduce(to_finish).item()
        next_event = min(
            self._next_wake(), earliest_completion, self._next_resolve_tick(current_time)
        )
        if not math.isfinite(next_event):
            raise SchedulingError(
                f"{self._config.mode} execution stalled: no job can make progress"
            )
        dt = max(0.0, next_event - current_time)

        steps_done += rates * dt
        worker_seconds = (billed * dt) * jobs.scale_factors[:, None]
        registry = self._cluster_spec.registry
        costs = np.asarray(registry.costs_per_hour()) * worker_seconds / _SECONDS_PER_HOUR
        # A row occupies ``demand`` devices once, whoever is in it — the round executor's rule.
        if not paired:  # every row a singleton: rows are jobs
            occupancy = worker_seconds
        else:
            occupancy = (matrix[used] * dt) * demand[:, None]
        # Running sums, added in the order the per-item loop added them
        # (``accumulate`` is sequential, so the floats are the loop's).
        busy, names = self._busy_seconds, registry.names
        sums = np.concatenate(([[busy[name] for name in names]], occupancy))
        busy.update(zip(names, np.add.accumulate(sums)[-1].tolist()))
        sums = np.concatenate(([self._total_cost], costs.ravel()))
        self._total_cost = np.add.accumulate(sums)[-1].item()
        totals = np.array(jobs.cost_dollars)
        for column in costs.T:
            totals = totals + column
        if math.inf in jobs.first_allocation_time:  # some job has never run
            first = np.array(jobs.first_allocation_time)
            first[moving & (first == math.inf)] = current_time
            jobs.first_allocation_time = first.tolist()
        jobs.steps_done, jobs.cost_dollars = steps_done.tolist(), totals.tolist()
        # A completion is incorporated by the solve at the very next event
        # boundary, i.e. at the completion instant itself — zero staleness.
        done = (jobs.total_steps - steps_done <= 1e-6).nonzero()[0].tolist()
        return next_event, [(jobs.ids[index], current_time + dt) for index in done]
