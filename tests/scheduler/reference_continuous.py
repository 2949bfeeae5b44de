"""Scalar reference of one fluid event: the per-job loop ``continuous`` mode replaced.

This is the fluid step as it stood before the event moved onto arrays — per
job per accelerator type a ``job_row``-style lookup, a registry lookup for the
price and three dictionary updates — kept as the differential oracle of
``test_continuous_equivalence.py``.  It differs from that code in two places on
purpose.  The *pair fix*: a space-sharing pair row used to be charged once per
member (busy time and cost both counted twice).  Here, as in the round loop, a
row occupies ``demand`` devices once whoever is in it, and each member is billed
the row's fraction divided by the row's size.  The *rate fix*: rates used to be
read off the session's planned matrix, where a type-aggregated allocation's
expanded member pairs have no row and so ran at zero.  Here every member of every
allocation row is asked of the models, from the definition: alone, the oracle's
throughput at the job's scale factor; in a pair, the colocation model's
``first`` with the job's own type first.  State is reached through the
scheduler passed in, a live job's state and accounting through its live-table
row (``live_rows.Row``, which stands for both the per-job state object and the
record the loop used to write while the job ran), and completions skip the
wall-clock timing of the engine call.  Do not optimise it: its value is that it
does every step per item, in the obvious order.
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.exceptions import SchedulingError
from repro.scheduler import ClusterScheduler

from live_rows import Row, leave

_SECONDS_PER_HOUR = 3600.0


def reference_step(scheduler: ClusterScheduler) -> bool:
    """``ClusterScheduler.step()`` in a fluid mode, through the scalar event below.

    Returns whether work remains, as ``step()`` does.
    """
    if not scheduler.has_work or scheduler.now >= scheduler._config.max_simulated_seconds:
        return False
    _reference_step_continuous(scheduler)
    return scheduler.has_work


def _next_wake(self: ClusterScheduler) -> float:
    """The idle wake, written out from its definition (``inf``: nothing to wake for).

    The earliest of the next pending arrival (skipping jobs cancelled while
    pending) and the next queued control event.  Not the scheduler's own
    ``_next_wake``, so the rule under test is not on both sides of the comparison.
    """
    arrivals = [at for at, _seq, job in self._pending if job.job_id not in self._cancelled_pending]
    return min(arrivals + [entry[0] for entry in self._event_heap], default=math.inf)


def _reference_step_continuous(self: ClusterScheduler) -> None:
    if not self._active.ids:
        self._clock.advance_to(min(_next_wake(self), self._config.max_simulated_seconds))
    current_time = self._clock.now()
    if current_time >= self._config.max_simulated_seconds:
        return
    self._apply_due_control_events(current_time)
    self._admit_arrivals(current_time)
    current_time = self._clock.now()
    if not self._active.ids:
        return

    allocation = self._solve_allocation(current_time)

    names = self._cluster_spec.registry.names
    # The rate fix: sum_k sum_j T[k, j, m] * X[k, j], each T asked of the models.
    throughputs = {job_id: 0.0 for job_id in self._active.ids}
    for combination, fractions in zip(allocation.combinations, allocation.matrix):
        for job_id in combination:
            job = Row(self, job_id).job
            partner = [other for other in combination if other != job_id]
            rate = 0.0
            for column, name in enumerate(names):
                if partner:
                    other = Row(self, partner[0]).job
                    member = self._colocation.colocated_throughputs(
                        job.job_type, other.job_type, name
                    ).first
                else:
                    member = self._oracle.throughput(
                        job.job_type, name, scale_factor=job.scale_factor
                    )
                rate += member * fractions[column]
            throughputs[job_id] += rate
    for job_id, throughput in throughputs.items():
        if throughput > 0 and Row(self, job_id).first_allocation_time is None:
            Row(self, job_id).first_allocation_time = current_time
    # Time to the next event: the next arrival or control event, a completion or a tick.
    earliest_completion = math.inf
    for job_id in self._active.ids:
        state = Row(self, job_id)
        throughput = throughputs[job_id]
        if throughput > 0:
            steps_remaining = max(0.0, state.job.total_steps - state.steps_done)
            earliest_completion = min(
                earliest_completion, current_time + steps_remaining / throughput
            )
    next_event = min(
        _next_wake(self), earliest_completion, self._next_resolve_tick(current_time)
    )
    if not math.isfinite(next_event):
        raise SchedulingError(f"{self._config.mode} execution stalled: no job can make progress")
    dt = max(0.0, next_event - current_time)

    # The pair fix, part one: the rows each job is billed for, in row order.
    rows_of: Dict[int, List[int]] = {}
    for row, combination in enumerate(allocation.combinations):
        for job_id in combination:
            rows_of.setdefault(job_id, []).append(row)
    for job_id in list(self._active.ids):
        state = record = Row(self, job_id)
        throughput = throughputs[job_id]
        state.steps_done += throughput * dt
        record.steps_done = state.steps_done
        for column, name in enumerate(names):
            share = 0.0
            for row in rows_of.get(job_id, []):
                share += allocation.matrix[row][column] / len(allocation.combinations[row])
            worker_seconds = share * dt * state.job.scale_factor
            cost = (
                self._cluster_spec.registry.get(name).cost_per_hour
                * worker_seconds
                / _SECONDS_PER_HOUR
            )
            record.cost_dollars += cost
            self._total_cost += cost
        if max(0.0, state.job.total_steps - state.steps_done) <= 1e-6:
            completed = leave(self, job_id)
            completed.completion_time = current_time + dt
            self._engine.remove_job(job_id)
            self._note_churn(completed.completion_time)
    # The pair fix, part two: a row is busy once, on ``demand`` devices.
    for values, demand in zip(allocation.matrix, allocation.demand):
        for column, name in enumerate(names):
            self._busy_seconds[name] += values[column] * dt * demand

    self._clock.advance_to(next_event)
    self._num_rounds += 1
