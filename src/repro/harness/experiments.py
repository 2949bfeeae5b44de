"""Experiment harness: the building blocks benchmarks use to regenerate figures.

Every evaluation figure in the paper is some combination of the primitives in
this module: run a trace under a policy, sweep the input job rate (cluster
load), replicate over seeds, or time the policy computation as the number of
active jobs grows.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.cluster_spec import ClusterSpec
from repro.core.allocation_engine import AllocationEngine
from repro.core.policy import Policy
from repro.core.problem import PolicyProblem
from repro.core.registry import make_policy
from repro.core.throughput_matrix import build_throughput_matrix
from repro.exceptions import ConfigurationError
from repro.workloads.colocation import ColocationModel
from repro.scheduler.metrics import SimulationResult
from repro.simulator.simulator import Simulator, SimulatorConfig
from repro.workloads.job import Job
from repro.workloads.throughputs import ThroughputOracle
from repro.workloads.trace import Trace
from repro.workloads.trace_generator import TraceGenerator, TraceGeneratorConfig

__all__ = [
    "LoadSweepPoint",
    "run_policy_on_trace",
    "run_load_sweep",
    "measure_policy_runtime",
    "measure_matrix_prep_runtime",
    "measure_policy_solve_under_churn",
    "measure_lp_build_runtime",
    "measure_aggregated_solve_runtime",
    "steady_state_job_ids",
]

#: Events per point of the ``"resolve"`` series of :func:`measure_aggregated_solve_runtime`.
RESOLVE_EVENTS = 20


@dataclass
class LoadSweepPoint:
    """Aggregated metric at one input job rate."""

    jobs_per_hour: float
    mean: float
    std: float
    values: List[float] = field(default_factory=list)


def _resolve_policy(policy: "Policy | str") -> Policy:
    return make_policy(policy) if isinstance(policy, str) else policy


def steady_state_job_ids(trace: Trace, warmup_fraction: float = 0.2, cooldown_fraction: float = 0.2) -> List[int]:
    """Job ids in the steady-state window of a continuous trace.

    The first ``warmup_fraction`` of arrivals (cluster filling up) and the
    last ``cooldown_fraction`` (cluster draining) are excluded, matching the
    paper's use of steady-state average JCT.
    """
    num_jobs = len(trace)
    start = int(num_jobs * warmup_fraction)
    end = int(num_jobs * (1.0 - cooldown_fraction))
    if end <= start:
        start, end = 0, num_jobs
    return [job.job_id for job in trace.jobs[start:end]]


def run_policy_on_trace(
    policy: "Policy | str",
    trace: Trace,
    cluster_spec: ClusterSpec,
    oracle: Optional[ThroughputOracle] = None,
    config: Optional[SimulatorConfig] = None,
) -> SimulationResult:
    """Simulate one trace under one policy."""
    simulator = Simulator(
        policy=_resolve_policy(policy),
        cluster_spec=cluster_spec,
        oracle=oracle,
        config=config,
    )
    return simulator.run(trace)


def run_load_sweep(
    policy: "Policy | str",
    jobs_per_hour_values: Sequence[float],
    cluster_spec: ClusterSpec,
    num_jobs: int = 60,
    seeds: Sequence[int] = (0,),
    multi_worker: bool = False,
    oracle: Optional[ThroughputOracle] = None,
    config: Optional[SimulatorConfig] = None,
    metric: str = "average_jct_hours",
) -> List[LoadSweepPoint]:
    """Average-JCT (or FTF) versus input job rate, replicated over seeds.

    This is the x-axis sweep of Figures 8, 9, 10, 16, 17, 18 and 20.  The
    metric is computed over the steady-state window of each trace.
    """
    if metric not in ("average_jct_hours", "average_finish_time_fairness"):
        raise ConfigurationError(f"unsupported sweep metric {metric!r}")
    oracle = oracle if oracle is not None else ThroughputOracle()
    generator = TraceGenerator(
        oracle=oracle, config=TraceGeneratorConfig(multi_worker=multi_worker)
    )
    points: List[LoadSweepPoint] = []
    for rate in jobs_per_hour_values:
        values: List[float] = []
        for seed in seeds:
            trace = generator.generate_continuous(
                num_jobs=num_jobs, jobs_per_hour=rate, seed=seed
            )
            result = run_policy_on_trace(
                policy, trace, cluster_spec, oracle=oracle, config=config
            )
            window = steady_state_job_ids(trace)
            if metric == "average_jct_hours":
                values.append(result.average_jct_hours(window))
            else:
                values.append(result.average_finish_time_fairness(window))
        points.append(
            LoadSweepPoint(
                jobs_per_hour=float(rate),
                mean=float(np.mean(values)),
                std=float(np.std(values)),
                values=values,
            )
        )
    return points


def measure_policy_runtime(
    policy: "Policy | str",
    num_jobs_values: Sequence[int],
    per_type_workers_per_job: float = 0.05,
    seeds: Sequence[int] = (0,),
    oracle: Optional[ThroughputOracle] = None,
    space_sharing: Optional[bool] = None,
) -> Dict[int, float]:
    """Wall-clock seconds to compute one allocation versus the number of active jobs.

    The cluster is scaled with the number of jobs, as in Figure 12 (the paper
    uses an equal number of V100s, P100s and K80s growing with the job count).
    """
    oracle = oracle if oracle is not None else ThroughputOracle()
    resolved = _resolve_policy(policy)
    generator = TraceGenerator(oracle=oracle)
    runtimes: Dict[int, float] = {}
    for num_jobs in num_jobs_values:
        per_type = max(1, int(round(num_jobs * per_type_workers_per_job)))
        cluster_spec = ClusterSpec.from_counts(
            {name: per_type for name in oracle.registry.names}, registry=oracle.registry
        )
        samples: List[float] = []
        for seed in seeds:
            trace = generator.generate_static(num_jobs=num_jobs, seed=seed)
            jobs = list(trace.jobs)
            use_space_sharing = (
                space_sharing if space_sharing is not None else resolved.space_sharing
            )
            matrix = build_throughput_matrix(jobs, oracle, space_sharing=use_space_sharing)
            problem = PolicyProblem(
                jobs={job.job_id: job for job in jobs},
                throughputs=matrix,
                cluster_spec=cluster_spec,
            )
            start = _time.perf_counter()
            resolved.compute_allocation(problem)
            samples.append(_time.perf_counter() - start)
        runtimes[int(num_jobs)] = float(np.mean(samples))
    return runtimes


def measure_policy_solve_under_churn(
    policy: "Policy | str",
    num_jobs_values: Sequence[int],
    per_type_workers_per_job: float = 0.05,
    num_events: int = 8,
    seeds: Sequence[int] = (0,),
    oracle: Optional[ThroughputOracle] = None,
) -> Dict[int, Dict[str, float]]:
    """Policy-solve seconds across a job-churn sequence, per strategy.

    For each job count the same event sequence — an initial active set
    followed by ``num_events`` alternating completions and arrivals — is
    replayed twice, recomputing the allocation after every event:

    * ``"scratch"`` times the stateless ``compute_allocation`` API, which
      rebuilds the policy's solver program from nothing each time;
    * ``"session"`` times the stateful session API (one
      ``policy.session(...)`` kept alive and fed the engine's delta stream),
      including the initial session construction.

    Matrix preparation runs through an :class:`AllocationEngine` in both
    strategies and is *excluded* from the timings, so the comparison isolates
    the policy-side solve — the counterpart of
    :func:`measure_matrix_prep_runtime` for the Figure 12 story.
    """
    oracle = oracle if oracle is not None else ThroughputOracle()
    resolved = _resolve_policy(policy)
    generator = TraceGenerator(oracle=oracle)
    results: Dict[int, Dict[str, float]] = {}
    for num_jobs in num_jobs_values:
        per_type = max(1, int(round(num_jobs * per_type_workers_per_job)))
        cluster_spec = ClusterSpec.from_counts(
            {name: per_type for name in oracle.registry.names}, registry=oracle.registry
        )
        scratch_total = 0.0
        session_total = 0.0
        for seed in seeds:
            trace = generator.generate_static(num_jobs=num_jobs + num_events, seed=seed)
            jobs = list(trace.jobs)
            initial, later = jobs[:num_jobs], jobs[num_jobs:]
            events: List[Tuple[str, Job]] = []
            for index, job in enumerate(later):
                events.append(("remove", jobs[index]))
                events.append(("add", job))

            def replay(use_session: bool) -> float:
                engine = AllocationEngine(
                    oracle,
                    space_sharing=resolved.space_sharing,
                    colocation_model=ColocationModel(oracle),
                )
                engine.add_jobs(initial)
                active: Dict[int, Job] = {job.job_id: job for job in initial}
                session = None
                elapsed = 0.0
                pending_events: List[Optional[Tuple[str, Job]]] = [None] + list(events)
                for event in pending_events:
                    if event is not None:
                        action, job = event
                        if action == "remove":
                            engine.remove_job(job.job_id)
                            del active[job.job_id]
                        else:
                            engine.add_job(job)
                            active[job.job_id] = job
                    problem = PolicyProblem(
                        jobs=dict(active),
                        throughputs=engine.matrix(),
                        cluster_spec=cluster_spec,
                    )
                    deltas = engine.drain_deltas()
                    start = _time.perf_counter()
                    if use_session:
                        if session is None:
                            session = resolved.session(problem)
                        else:
                            session.apply(deltas)
                        session.solve(problem)
                    else:
                        resolved.compute_allocation(problem)
                    elapsed += _time.perf_counter() - start
                return elapsed

            scratch_total += replay(use_session=False)
            session_total += replay(use_session=True)
        results[int(num_jobs)] = {
            "scratch": scratch_total / len(seeds),
            "session": session_total / len(seeds),
        }
    return results


def measure_lp_build_runtime(
    policy: "Policy | str",
    num_jobs_values: Sequence[int],
    per_type_workers_per_job: float = 0.05,
    seeds: Sequence[int] = (0,),
    oracle: Optional[ThroughputOracle] = None,
) -> Dict[int, float]:
    """LP *construction* seconds versus active-job count.

    For each job count the policy-input matrix is built once (through the
    incremental :class:`AllocationEngine`, whose type-level colocation cache
    keeps pair-row generation tractable at thousands of jobs) and the full
    policy->LP construction — ``policy.session(problem)`` followed by
    ``session.prepare(problem)``, i.e. decision variables, the Section 3.1
    validity constraints and the policy objective, everything except the LP
    solve — is timed.  Returns ``{num_jobs: seconds}``.
    """
    oracle = oracle if oracle is not None else ThroughputOracle()
    resolved = _resolve_policy(policy)
    generator = TraceGenerator(oracle=oracle)
    results: Dict[int, float] = {}
    for num_jobs in num_jobs_values:
        per_type = max(1, int(round(num_jobs * per_type_workers_per_job)))
        cluster_spec = ClusterSpec.from_counts(
            {name: per_type for name in oracle.registry.names}, registry=oracle.registry
        )
        total = 0.0
        for seed in seeds:
            trace = generator.generate_static(num_jobs=num_jobs, seed=seed)
            jobs = list(trace.jobs)
            engine = AllocationEngine(
                oracle,
                space_sharing=resolved.space_sharing,
                colocation_model=ColocationModel(oracle),
            )
            engine.add_jobs(jobs)
            problem = PolicyProblem(
                jobs={job.job_id: job for job in jobs},
                throughputs=engine.matrix(),
                cluster_spec=cluster_spec,
            )
            start = _time.perf_counter()
            session = resolved.session(problem)
            session.prepare(problem)
            total += _time.perf_counter() - start
        results[int(num_jobs)] = total / len(seeds)
    return results


def measure_aggregated_solve_runtime(
    spec: str,
    num_jobs_values: Sequence[int],
    per_type_workers_per_job: float = 0.05,
    per_job_max: Optional[int] = 2048,
    seeds: Sequence[int] = (0,),
    oracle: Optional[ThroughputOracle] = None,
) -> Dict[int, Dict[str, object]]:
    """Single-shot policy solve: per-job session versus type-aggregated session.

    For each job count a static trace is materialised once and the full
    session path — ``policy.session(problem)`` followed by
    ``session.solve(problem)``, i.e. LP construction, solve and (for the
    aggregated leg) the proportional-split expansion back to per-job totals —
    is timed under both representations:

    * ``"per_job"`` — the reference ``aggregation="job"`` policy, whose LP
      carries one row per active job.  Skipped (``None``) above
      ``per_job_max`` jobs, where the per-job LP is too large to time in a
      default benchmark run; the aggregated series keeps going.
    * ``"aggregated"`` — the same spec in ``aggregation="type"`` mode, whose
      inner LP carries one row per active *type* group.

    * ``"resolve"`` — what the aggregated session costs once it exists, which
      is what a scheduler pays per re-allocation: the session of the
      ``"aggregated"`` leg is kept, and the mean of ``session.apply(deltas);
      session.solve(problem)`` is taken over :data:`RESOLVE_EVENTS` events per seed,
      each one departure (the oldest job) plus one arrival, on snapshots that
      carry ``steps_remaining`` / ``time_elapsed`` for every job as the
      service's do.

    Matrix preparation runs through an :class:`AllocationEngine` per leg and
    is excluded from the timings.  Alongside the seconds, each point reports
    ``"lp_rows"`` (the aggregated session's inner row count, over the cold
    solve and every re-solve) and ``"active_types"`` (concurrent aggregation
    groups) so callers can gate the LP size on the type count rather than the
    job count.
    """
    oracle = oracle if oracle is not None else ThroughputOracle()
    per_job_policy = make_policy(spec)
    aggregated_policy = make_policy(spec, aggregation="type")
    generator = TraceGenerator(oracle=oracle)
    results: Dict[int, Dict[str, object]] = {}
    for num_jobs in num_jobs_values:
        per_type = max(1, int(round(num_jobs * per_type_workers_per_job)))
        cluster_spec = ClusterSpec.from_counts(
            {name: per_type for name in oracle.registry.names}, registry=oracle.registry
        )
        run_per_job = per_job_max is None or num_jobs <= per_job_max
        aggregated_total = 0.0
        resolve_total = 0.0
        resolve_events = 0
        per_job_total = 0.0
        lp_rows = 0
        active_types = 0
        for seed in seeds:
            trace = generator.generate_static(num_jobs=num_jobs, seed=seed)
            jobs = {job.job_id: job for job in trace.jobs}

            engine_type = AllocationEngine(
                oracle,
                space_sharing=aggregated_policy.space_sharing,
                aggregation="type",
            )
            engine_type.add_jobs(list(jobs.values()))
            aggregated_problem = PolicyProblem(
                jobs=dict(jobs),
                throughputs=engine_type.matrix(),
                cluster_spec=cluster_spec,
            )
            start = _time.perf_counter()
            session = aggregated_policy.session(aggregated_problem)
            session.solve(aggregated_problem)
            aggregated_total += _time.perf_counter() - start
            lp_rows = max(lp_rows, session.view.problem.throughputs.num_rows())
            # Policies may refine the engine's type histogram (the
            # hierarchical key appends the entity), so the group evidence is
            # the larger of the histogram and the session's group partition.
            active_types = max(
                active_types, len(engine_type.group_counts), len(session.view.groups)
            )

            arrivals = generator.generate_static(num_jobs=RESOLVE_EVENTS, seed=seed + 1).jobs
            active = dict(jobs)
            engine_type.drain_deltas()  # the initial arrivals: the session was built from them
            for departing, arrival in zip(list(active.values())[:RESOLVE_EVENTS], arrivals):
                arriving = replace(arrival, job_id=num_jobs + arrival.job_id)
                engine_type.remove_job(departing.job_id)
                del active[departing.job_id]
                engine_type.add_job(arriving)
                active[arriving.job_id] = arriving
                problem = PolicyProblem(
                    jobs=dict(active),
                    throughputs=engine_type.matrix(),
                    cluster_spec=cluster_spec,
                    steps_remaining={job_id: job.total_steps for job_id, job in active.items()},
                    time_elapsed=dict.fromkeys(active, 0.0),
                )
                deltas = engine_type.drain_deltas()
                start = _time.perf_counter()
                session.apply(deltas)
                session.solve(problem)
                resolve_total += _time.perf_counter() - start
                resolve_events += 1
                lp_rows = max(lp_rows, session.view.problem.throughputs.num_rows())
                active_types = max(active_types, len(session.view.groups))

            if run_per_job:
                engine_job = AllocationEngine(
                    oracle, space_sharing=per_job_policy.space_sharing
                )
                engine_job.add_jobs(list(jobs.values()))
                per_job_problem = PolicyProblem(
                    jobs=dict(jobs),
                    throughputs=engine_job.matrix(),
                    cluster_spec=cluster_spec,
                )
                start = _time.perf_counter()
                per_job_session = per_job_policy.session(per_job_problem)
                per_job_session.solve(per_job_problem)
                per_job_total += _time.perf_counter() - start
        results[int(num_jobs)] = {
            "aggregated": aggregated_total / len(seeds),
            "resolve": resolve_total / max(1, resolve_events),
            "per_job": per_job_total / len(seeds) if run_per_job else None,
            "lp_rows": int(lp_rows),
            "active_types": int(active_types),
        }
    return results


def measure_matrix_prep_runtime(
    num_jobs_values: Sequence[int],
    oracle: Optional[ThroughputOracle] = None,
    space_sharing: bool = True,
    num_events: int = 16,
    seeds: Sequence[int] = (0,),
    colocation_threshold: float = 1.1,
) -> Dict[int, Dict[str, float]]:
    """Policy-input preparation time across a job churn sequence, per strategy.

    For each job count the same event sequence — an initial set of active
    jobs followed by ``num_events`` alternating completions and arrivals — is
    replayed twice: once rebuilding the throughput matrix from scratch after
    every event (what the simulator did before the
    :class:`~repro.core.allocation_engine.AllocationEngine` existed) and once
    updating it incrementally through the engine.  Returns, per job count,
    the total matrix-construction seconds under ``"rebuild"`` and
    ``"incremental"`` — the before/after yardstick for the Figure 12
    scalability story.
    """
    oracle = oracle if oracle is not None else ThroughputOracle()
    generator = TraceGenerator(oracle=oracle)
    results: Dict[int, Dict[str, float]] = {}
    for num_jobs in num_jobs_values:
        rebuild_total = 0.0
        incremental_total = 0.0
        for seed in seeds:
            trace = generator.generate_static(num_jobs=num_jobs + num_events, seed=seed)
            jobs = list(trace.jobs)
            initial, later = jobs[:num_jobs], jobs[num_jobs:]
            # Alternate a completion of the longest-active job with the next
            # arrival, keeping the active set near ``num_jobs`` throughout.
            events: List[Tuple[str, Job]] = []
            for index, job in enumerate(later):
                events.append(("remove", jobs[index]))
                events.append(("add", job))

            # From-scratch rebuild after every event.
            model = ColocationModel(oracle)
            active: Dict[int, Job] = {job.job_id: job for job in initial}
            start = _time.perf_counter()
            build_throughput_matrix(
                list(active.values()),
                oracle,
                space_sharing=space_sharing,
                colocation_model=model,
                colocation_threshold=colocation_threshold,
            )
            rebuild_total += _time.perf_counter() - start
            for action, job in events:
                if action == "remove":
                    del active[job.job_id]
                else:
                    active[job.job_id] = job
                start = _time.perf_counter()
                build_throughput_matrix(
                    list(active.values()),
                    oracle,
                    space_sharing=space_sharing,
                    colocation_model=model,
                    colocation_threshold=colocation_threshold,
                )
                rebuild_total += _time.perf_counter() - start

            # Incremental engine over the identical event sequence.
            engine = AllocationEngine(
                oracle,
                space_sharing=space_sharing,
                colocation_model=ColocationModel(oracle),
                colocation_threshold=colocation_threshold,
            )
            start = _time.perf_counter()
            engine.add_jobs(initial)
            engine.matrix()
            incremental_total += _time.perf_counter() - start
            for action, job in events:
                start = _time.perf_counter()
                if action == "remove":
                    engine.remove_job(job.job_id)
                else:
                    engine.add_job(job)
                engine.matrix()
                incremental_total += _time.perf_counter() - start
        results[int(num_jobs)] = {
            "rebuild": rebuild_total / len(seeds),
            "incremental": incremental_total / len(seeds),
        }
    return results
