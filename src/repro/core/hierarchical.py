"""Hierarchical (multi-level) scheduling policies — Section 4.3.

An organization shares the cluster among *entities* (teams) using weighted
fairness; each entity shares its slice among its own jobs using either
fairness or FIFO.  The allocation is computed with the water-filling
procedure of :mod:`repro.core.water_filling`: each entity's weight is split
among its non-bottlenecked jobs according to the entity's internal policy,
and weights are redistributed whenever jobs bottleneck.

``WaterFillingFairnessPolicy`` exposes the same machinery for single-level
max-min fairness, which improves the throughput of non-bottlenecked jobs
compared to the plain LAS LP (Section 4.3, last paragraph).

Both policies are **sessionful**: :meth:`~repro.core.policy.Policy.session`
returns a :class:`~repro.core.water_filling.WaterFillingSession` that keeps
one level-loop program alive across allocation recomputations and applies
engine deltas (job churn, estimate refinements — including the entity-weight
redistribution they trigger) as targeted edits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.allocation import Allocation
from repro.core.policy import Policy
from repro.core.problem import PolicyProblem
from repro.core.session import PolicySession
from repro.core.water_filling import (
    WaterFillingResult,
    WaterFillingSession,
    _Redistribute,
)
from repro.exceptions import ConfigurationError
from repro.workloads.job import Job

__all__ = ["EntitySpec", "HierarchicalPolicy", "WaterFillingFairnessPolicy"]

_FAIRNESS = "fairness"
_FIFO = "fifo"

#: ``entity_fallback`` modes for jobs submitted without an ``entity_id``.
_STRICT = "strict"
_ROUND_ROBIN = "round_robin"


@dataclass(frozen=True)
class EntitySpec:
    """One entity (team / department) in the hierarchy."""

    entity_id: int
    weight: float
    internal_policy: str = _FAIRNESS

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ConfigurationError(
                f"entity {self.entity_id}: weight must be positive, got {self.weight}"
            )
        if self.internal_policy not in (_FAIRNESS, _FIFO):
            raise ConfigurationError(
                f"entity {self.entity_id}: internal policy must be "
                f"'{_FAIRNESS}' or '{_FIFO}', got {self.internal_policy!r}"
            )


class _WaterFillingPolicyBase(Policy):
    """Shared sessionful plumbing for the two water-filling policies."""

    # -- weight semantics supplied by subclasses -----------------------------------------
    def water_filling_weights(self, problem: PolicyProblem) -> Dict[int, float]:
        """Initial per-job weights for one water-filling run."""
        raise NotImplementedError

    def water_filling_redistribution(
        self, problem: PolicyProblem
    ) -> Optional[_Redistribute]:
        """Per-iteration weight redistribution; ``None`` keeps weights fixed."""
        return None

    # -- policy interface ------------------------------------------------------------------
    def _make_session(self, problem: PolicyProblem) -> PolicySession:
        return WaterFillingSession(self, problem)

    def compute_allocation(self, problem: PolicyProblem) -> Allocation:
        if self.aggregation == "type" and problem.group_counts is None:
            # Route through ``session`` so the stateless API honours the
            # aggregated mode (one level row per group of interchangeable
            # jobs) instead of silently running the per-job level loop.
            return self.session(problem).solve(problem)
        return self.compute_with_diagnostics(problem).allocation

    def compute_with_diagnostics(self, problem: PolicyProblem) -> WaterFillingResult:
        """Run water filling and return the allocation plus per-job levels.

        Opens a fresh session and solves once, so the stateless and
        sessionful APIs always agree.
        """
        session = WaterFillingSession(self, problem)
        session.solve(problem)
        return session.last_result


class HierarchicalPolicy(_WaterFillingPolicyBase):
    """Weighted fairness across entities, fairness or FIFO within each entity."""

    name = "hierarchical"

    def __init__(
        self,
        entities: Sequence[EntitySpec],
        heterogeneity_agnostic: bool = False,
        space_sharing: bool = False,
        entity_fallback: str = _STRICT,
    ) -> None:
        super().__init__(
            heterogeneity_agnostic=heterogeneity_agnostic, space_sharing=space_sharing
        )
        if not entities:
            raise ConfigurationError("hierarchical policy requires at least one entity")
        ids = [entity.entity_id for entity in entities]
        if len(set(ids)) != len(ids):
            raise ConfigurationError(f"duplicate entity ids: {ids}")
        if entity_fallback not in (_STRICT, _ROUND_ROBIN):
            raise ConfigurationError(
                f"entity_fallback must be '{_STRICT}' or '{_ROUND_ROBIN}', "
                f"got {entity_fallback!r}"
            )
        self._entities: Dict[int, EntitySpec] = {e.entity_id: e for e in entities}
        self._entity_fallback = entity_fallback
        self._entity_order: Tuple[int, ...] = tuple(sorted(self._entities))

    @property
    def entities(self) -> Tuple[EntitySpec, ...]:
        return tuple(self._entities.values())

    def entity(self, entity_id: int) -> EntitySpec:
        if entity_id not in self._entities:
            raise ConfigurationError(f"unknown entity id {entity_id}")
        return self._entities[entity_id]

    # -- weight distribution -----------------------------------------------------------
    def _entity_of_job(self, job: Job) -> int:
        entity_id = job.entity_id
        if entity_id is None:
            if self._entity_fallback == _ROUND_ROBIN:
                return self._entity_order[job.job_id % len(self._entity_order)]
            raise ConfigurationError(
                f"job {job.job_id} has no entity_id but the hierarchical policy requires one"
            )
        if entity_id not in self._entities:
            raise ConfigurationError(
                f"job {job.job_id} belongs to unknown entity {entity_id}"
            )
        return entity_id

    def _entity_of(self, problem: PolicyProblem, job_id: int) -> int:
        return self._entity_of_job(problem.job(job_id))

    # -- aggregation grouping ----------------------------------------------------------
    def aggregation_group_key(self, job: Job) -> Tuple[object, ...]:
        """Refine the type key with the job's (effective) entity.

        Entities water-fill at different levels, so a group must never
        straddle an entity boundary; the effective entity (including the
        round-robin fallback) is a pure function of the job, so the group's
        representative resolves to the same entity as every member.  Jobs in
        a FIFO-internal entity are not interchangeable at all — the earliest
        one carries the whole entity weight — so their key also bakes the job
        id, degenerating those groups to singletons (the exact per-job path).
        """
        base = super().aggregation_group_key(job)
        entity_id = self._entity_of_job(job)
        if self._entities[entity_id].internal_policy == _FIFO:
            return (*base, entity_id, job.job_id)
        return (*base, entity_id)

    def _jobs_by_entity(self, problem: PolicyProblem) -> Dict[int, List[int]]:
        grouped: Dict[int, List[int]] = {entity_id: [] for entity_id in self._entities}
        for job_id in problem.job_ids:
            grouped[self._entity_of(problem, job_id)].append(job_id)
        return grouped

    def _distribute_weights(
        self,
        problem: PolicyProblem,
        bottlenecked: Set[int],
        grouped: Optional[Mapping[int, List[int]]] = None,
    ) -> Dict[int, float]:
        """Split each entity's weight among its non-bottlenecked jobs.

        ``grouped`` is :meth:`_jobs_by_entity` of ``problem`` when the caller
        already holds it (the level loop redistributes once per iteration).

        Invariants (guarded by property tests): bottlenecked jobs always get
        zero weight; an entity whose jobs are all bottlenecked contributes no
        weight; with unit priority weights the total distributed weight equals
        the summed weight of the entities that still have a job in play; and
        the result depends only on the entity/job structure, not on id
        labelling.
        """
        weights: Dict[int, float] = {job_id: 0.0 for job_id in problem.job_ids}
        if grouped is None:
            grouped = self._jobs_by_entity(problem)
        for entity_id, job_ids in grouped.items():
            if not job_ids:
                continue
            entity = self._entities[entity_id]
            active = [job_id for job_id in job_ids if job_id not in bottlenecked]
            if not active:
                continue
            if entity.internal_policy == _FAIRNESS:
                # Split per *member*, not per row: on a type-aggregated
                # problem a row stands for group_count interchangeable jobs
                # (and its priority_weight is already baked to w·n_g), so the
                # member count keeps the per-job share identical to the
                # per-job path.  Ordinary problems have group_count == 1.
                members = sum(problem.group_count(job_id) for job_id in active)
                share = entity.weight / members
                for job_id in active:
                    weights[job_id] = share * problem.priority_weight(job_id)
            else:  # FIFO: the earliest non-bottlenecked job carries the entity weight.
                ordered = sorted(
                    active, key=lambda job_id: (problem.job(job_id).arrival_time, job_id)
                )
                weights[ordered[0]] = entity.weight
        return weights

    # -- water-filling weight semantics ----------------------------------------------------
    def water_filling_weights(self, problem: PolicyProblem) -> Dict[int, float]:
        return self._distribute_weights(problem, bottlenecked=set())

    def water_filling_redistribution(
        self, problem: PolicyProblem
    ) -> Optional[_Redistribute]:
        grouped = self._jobs_by_entity(problem)

        def redistribute(_weights: Mapping[int, float], frozen: Set[int]) -> Dict[int, float]:
            return self._distribute_weights(problem, bottlenecked=frozen, grouped=grouped)

        return redistribute


class WaterFillingFairnessPolicy(_WaterFillingPolicyBase):
    """Single-level weighted max-min fairness solved with water filling."""

    name = "max_min_fairness_water_filling"

    def water_filling_weights(self, problem: PolicyProblem) -> Dict[int, float]:
        return {job_id: problem.priority_weight(job_id) for job_id in problem.job_ids}
