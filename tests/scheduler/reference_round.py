"""Scalar reference of one scheduling round: selection, placement and accounting.

This is the per-item code ``repro.cluster.placement`` and the round step
shipped before the round moved onto ``(row, column)`` indices and the
per-period member table — one request object and one worker-id list per pick,
every job looked up by id for every item — kept verbatim as the differential
oracle of ``test_round_equivalence.py``.  The differences are deliberate and
few: state is reached through the scheduler passed in, a live job's state and
accounting through its live-table row (``live_rows.Row``, which stands for both
the per-job state object and the record the round used to write while the job
ran), selection is the scalar Algorithm 1 of ``reference_mechanism.py``,
throughputs are asked of the oracle every time (the period cache only ever
saved calls), and the idle jump is clamped to the simulation cap (the bug fixed
with the move) and wakes at a queued control event too (the one wake rule of
every mode).  Do not optimise it: its value is that it holds no index and no
table that could go stale.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.cluster import ClusterTopology
from repro.exceptions import SchedulingError
from repro.scheduler import ClusterScheduler

from live_rows import Row, leave
from reference_mechanism import Combination, reference_priorities, reference_schedule_round

_SECONDS_PER_HOUR = 3600.0

#: ``(combination, accelerator name, scale factor, priority)``, as the scalar Algorithm 1 returns it.
Pick = Tuple[Combination, str, int, float]


class ReferencePlacement(NamedTuple):
    """Concrete worker assignment for one pick."""

    combination: Combination
    worker_ids: Tuple[int, ...]
    consolidated: bool


class ReferenceRound(NamedTuple):
    """What one reference round decided, in pick order."""

    picks: List[Pick]
    placements: List[ReferencePlacement]


def reference_place(topology: ClusterTopology, picks: List[Pick]) -> List[ReferencePlacement]:
    """The list-of-free-worker-ids placer; placements come back per pick, in pick order."""
    demanded: Dict[str, int] = {}
    for _combination, name, scale, _priority in picks:
        demanded[name] = demanded.get(name, 0) + scale
    for name, demand in demanded.items():
        available = sum(server.num_workers for server in topology.servers_of_type(name))
        if demand > available:
            raise SchedulingError(
                f"placement demand for {name!r} ({demand}) exceeds available workers ({available})"
            )
    # Free worker ids per server (server order), for the demanded types only.
    free: Dict[str, List[List[int]]] = {
        name: [list(server.worker_ids) for server in topology.servers_of_type(name)]
        for name in demanded
    }
    placed = {
        pick[0]: _place_one(pick, free[pick[1]])
        for pick in sorted(picks, key=lambda pick: (-pick[2], pick[0]))
    }
    return [placed[combination] for combination, _name, _scale, _priority in picks]


def _place_one(pick: Pick, servers: List[List[int]]) -> ReferencePlacement:
    combination, name, needed, _priority = pick

    # Prefer the single server with the fewest free workers that still fits
    # the whole request (best-fit => consolidated placement, low
    # fragmentation); the first such server wins a tie.
    best: Optional[List[int]] = None
    best_free = 0
    for ids in servers:
        free = len(ids)
        if free >= needed and (best is None or free < best_free):
            best, best_free = ids, free
    if best is not None:
        chosen = tuple(best[:needed])
        del best[:needed]
        return ReferencePlacement(combination, chosen, True)

    # Otherwise spread across servers with the most free workers first so
    # the job touches as few servers as possible.
    chosen_list: List[int] = []
    for ids in sorted(servers, key=len, reverse=True):
        take = min(needed - len(chosen_list), len(ids))
        chosen_list.extend(ids[:take])
        del ids[:take]
        if len(chosen_list) == needed:
            break
    if len(chosen_list) != needed:
        raise SchedulingError(
            f"could not place combination {combination} on {name!r}: needed {needed} workers"
        )
    return ReferencePlacement(combination, tuple(chosen_list), False)


def reference_validate_round(scheduler: ClusterScheduler, picks: List[Pick]) -> None:
    """No job twice, no accelerator type oversubscribed."""
    seen: Set[int] = set()
    usage: Dict[str, int] = {}
    for combination, name, scale, _priority in picks:
        for job_id in combination:
            if job_id in seen:
                raise SchedulingError(f"job {job_id} scheduled more than once in a round")
            seen.add(job_id)
        usage[name] = usage.get(name, 0) + scale
    for name, used in usage.items():
        if used > scheduler.cluster_spec.count(name):
            raise SchedulingError(
                f"round oversubscribes {name}: {used} > {scheduler.cluster_spec.count(name)}"
            )


def _execution_throughput(
    scheduler: ClusterScheduler,
    combination: Combination,
    job_id: int,
    accelerator_name: str,
    consolidated: bool,
) -> float:
    """True throughput used to advance training progress (with the physical mode's jitter draw)."""
    state = Row(scheduler, job_id)
    if len(combination) == 1:
        throughput = scheduler._oracle.throughput(
            state.job.job_type,
            accelerator_name,
            scale_factor=state.job.scale_factor,
            consolidated=consolidated,
        )
    else:
        other_id = combination[0] if combination[1] == job_id else combination[1]
        other = Row(scheduler, other_id)
        # Own type first: ``first`` is this job's rate in either position.
        throughput = scheduler._colocation.colocated_throughputs(
            state.job.job_type, other.job.job_type, accelerator_name
        ).first
    config = scheduler._config
    if config.mode == "physical" and config.throughput_jitter_std > 0:
        throughput *= max(0.0, float(scheduler._rng.normal(1.0, config.throughput_jitter_std)))
    return throughput


def reference_step(scheduler: ClusterScheduler) -> Optional[ReferenceRound]:
    """``ClusterScheduler.step()`` in a round mode, through the scalar round below.

    Returns what the round decided, or ``None`` when the step ran no round
    (nothing to do, the cap, or an idle jump that admitted nothing).
    """
    if not scheduler.has_work:
        return None
    if scheduler.now >= scheduler._config.max_simulated_seconds:
        return None
    return _reference_step_round(scheduler)


def _next_wake(self: ClusterScheduler) -> float:
    """The idle wake, written out from its definition (``inf``: nothing to wake for).

    The earliest of the next pending arrival (skipping jobs cancelled while
    pending) and the next queued control event.  Not the scheduler's own
    ``_next_wake``, so the rule under test is not on both sides of the comparison.
    """
    arrivals = [at for at, _seq, job in self._pending if job.job_id not in self._cancelled_pending]
    return min(arrivals + [entry[0] for entry in self._event_heap], default=math.inf)


def _reference_step_round(self: ClusterScheduler) -> Optional[ReferenceRound]:
    config = self._config
    round_duration = config.round_duration_seconds
    physical = config.mode == "physical"

    if not self._active.ids:
        self._clock.advance_to(min(_next_wake(self), config.max_simulated_seconds))
    current_time = self._clock.now()
    if current_time >= config.max_simulated_seconds:
        return None
    self._apply_due_control_events(current_time)
    self._admit_arrivals(current_time)
    current_time = self._clock.now()
    if not self._active.ids:
        return None

    tracker = self._tracker
    if self._allocation_stale or tracker is None:
        tracker = self._start_period(self._solve_allocation(current_time))
        self._allocation_stale = False

    allocation = tracker.allocation
    received = dict(zip(tracker.combinations, tracker.time_received))
    scale_factors = {job_id: allocation.scale_factor(job_id) for job_id in allocation.job_ids}
    scheduled = reference_schedule_round(
        allocation, reference_priorities(allocation, received), scale_factors, self._cluster_spec
    )
    reference_validate_round(self, scheduled)
    placements = reference_place(self._topology, scheduled)
    consolidated_by_combination = {
        placement.combination: placement.consolidated for placement in placements
    }

    round_end = current_time + round_duration
    this_round = self._num_rounds
    completed_this_round: List[Tuple[int, float]] = []
    registry = self._cluster_spec.registry
    cost_per_hour = dict(zip(registry.names, registry.costs_per_hour()))
    for job_id in sorted({job_id for combination, _, _, _ in scheduled for job_id in combination}):
        if Row(self, job_id).first_allocation_time is None:
            Row(self, job_id).first_allocation_time = current_time
    for combination, accelerator_name, scale_factor, _priority in scheduled:
        consolidated = consolidated_by_combination.get(combination, True)
        # Worker-occupancy within the round: jobs that complete mid-round
        # release their accelerators at the completion instant, so
        # utilization and cost are prorated rather than charged a full
        # round.  Cost is job-attributable: when one job of a pair
        # finishes early, the surviving job keeps the device busy
        # (occupancy = max over the pair) but the freed half-slot is
        # billed to no one.
        occupancy_seconds = 0.0
        for job_id in combination:
            state = record = Row(self, job_id)
            overhead = 0.0
            if physical and (
                state.last_round != this_round - 1 or state.last_accelerator != accelerator_name
            ):
                overhead = min(config.checkpoint_overhead_seconds, round_duration)
                record.preemptions += 1
            usable = max(0.0, round_duration - overhead)
            throughput = _execution_throughput(
                self, combination, job_id, accelerator_name, consolidated
            )
            progress = throughput * usable
            needed = max(0.0, state.job.total_steps - state.steps_done)
            if throughput > 0 and progress >= needed:
                finish = min(current_time + overhead + needed / throughput, round_end)
                completed_this_round.append((job_id, finish))
                state.steps_done = state.job.total_steps
                used_seconds = finish - current_time
            else:
                state.steps_done += progress
                used_seconds = round_duration
            state.last_accelerator = accelerator_name
            state.last_round = this_round
            record.steps_done = state.steps_done
            record.accelerator_seconds[accelerator_name] = (
                record.accelerator_seconds.get(accelerator_name, 0.0) + used_seconds
            )
            if overhead > 0:
                # Checkpoint/restore windows occupy the accelerator but
                # produce no training progress; they are billed like
                # productive time (the device is held) and accounted
                # separately so cost/utilization can be decomposed.
                overhead_used = min(overhead, used_seconds)
                record.checkpoint_seconds += overhead_used
                self._checkpoint_seconds[accelerator_name] += (
                    overhead_used * scale_factor / len(combination)
                )
            cost = (
                cost_per_hour[accelerator_name]
                * state.job.scale_factor
                * used_seconds
                / _SECONDS_PER_HOUR
            )
            if len(combination) > 1:
                cost /= len(combination)
            record.cost_dollars += cost
            self._total_cost += cost
            occupancy_seconds = max(occupancy_seconds, used_seconds)
        self._busy_seconds[accelerator_name] += scale_factor * occupancy_seconds
        tracker.record_time(combination, accelerator_name, round_duration)

    for job_id, finish_time in completed_this_round:
        leave(self, job_id).completion_time = finish_time
        self._engine.remove_job(job_id)
        self._note_churn(finish_time)
    if completed_this_round:
        self._allocation_stale = True

    self._clock.advance_to(round_end)
    self._num_rounds += 1
    return ReferenceRound(scheduled, placements)
