"""Figure 12: policy computation time versus number of active jobs.

Measures the wall-clock time of a single allocation computation for the LAS
and hierarchical policies, with and without space sharing, while the cluster
grows with the job count (the paper sweeps 32-2048 jobs; the default
laptop-scale sweep here stops earlier — raise REPRO_BENCH_SCALE to extend it).
Reproduced shape: runtimes grow polynomially with the number of jobs, the
hierarchical policy is the most expensive, and space sharing adds a
significant multiplier.

Also measures, under job churn:

* policy-*input* preparation time (throughput-matrix construction),
  comparing a from-scratch rebuild per event against the incremental
  :class:`~repro.core.AllocationEngine`; the engine must be at least 2x
  faster at the largest job count;
* policy-*solve* time, comparing the stateless ``compute_allocation`` API
  (program rebuilt per event) against a stateful policy session fed the
  engine's delta stream (live program edited in place, warm-started solves);
  the session must be at least 2x faster at the largest churn job count for
  the plain LAS policy; finish-time fairness and makespan ride along as
  recorded series (their sessions keep a scaling and a witness program warm
  and solve 2-4 LPs per event), with the numbers of the last bisecting commit
  written beside them;
* water-filling policy-solve time under the same churn protocol (a fresh
  level-loop program per event vs the persistent level-loop session);
  recorded as an absolute series, not gated;
* LP *construction* time (the ``build`` phase: session construction +
  ``session.prepare``, everything short of the LP solve), recorded as an
  absolute series.  The space-sharing policies are benchmarked at >=512 jobs
  by default and the ``REPRO_BENCH_SCALE`` sweep reaches the paper's 2048
  jobs;
* the *type-aggregated* representation (``aggregation="type"``, one LP row
  per group of interchangeable jobs instead of one per job), comparing the
  full session path (construct + solve + proportional-split expansion)
  against the per-job session.  The aggregated series sweeps to 16384 jobs
  by default (100k under ``REPRO_BENCH_SCALE``) — far past where the per-job
  LP stops being timeable — and is gated two ways: the aggregated path must
  be at least 5x faster than the per-job session at every measured count of
  2048+ jobs, and the aggregated LP's row count must stay bounded by the
  active-group count regardless of the job count.  The sweep covers plain
  LAS plus the iterative water-filling family (``max_min_fairness_water_filling``
  and ``hierarchical``), whose level loops run over group representatives.
  That comparison times the cold path; the number a scheduler pays per
  re-allocation is the *re-solve* on a kept session (``apply`` the deltas of
  one departure and one arrival, ``solve`` the new snapshot), recorded beside
  it as ``aggregated_resolve_seconds`` — not gated — with both series' values
  at the last commit whose aggregated view was regrouped job by job per solve.

The per-sweep timings are additionally written to ``BENCH_fig12.json``
(override the path with ``REPRO_BENCH_JSON``); the file is committed, so the
absolute series form a readable perf trajectory across PRs, and
``benchmarks/e2e`` is the regression guard for the LP layers.
"""

from __future__ import annotations

import json
import os

from conftest import BENCH_SCALE

from repro.core import make_policy
from repro.core.water_filling import _LevelLoopProgram
from repro.harness import (
    format_table,
    measure_aggregated_solve_runtime,
    measure_lp_build_runtime,
    measure_matrix_prep_runtime,
    measure_policy_runtime,
    measure_policy_solve_under_churn,
)
from repro.solver.lp import LinearProgram
from repro.workloads import TraceGenerator

_NUM_JOBS = [8, 16, 32] if BENCH_SCALE == 1 else [32, 64, 128, 256]
#: Job counts for the churn measurements; the acceptance gate runs at 128+
#: jobs at laptop scale (at 64 jobs the from-scratch build is so cheap that
#: the session's edge is mostly solver warm-starting).
_CHURN_NUM_JOBS = [16, 128] if BENCH_SCALE == 1 else [64, 128, 256]
_CHURN_POLICIES = {
    "LAS": "max_min_fairness",
    "LAS w/ SS": "max_min_fairness+ss",
    # The minimum-scalar family (scaling + witness LP per event): recorded, not gated.
    "FTF": "finish_time_fairness",
    "Makespan": "makespan",
}
#: The same two series at the commit before the family left bisection
#: (eeb1fd4, ~10 feasibility LPs per event): medians of five runs of
#: ``measure_policy_solve_under_churn(spec, [16, 128], num_events=16)`` on a
#: scratch clone, alternating with the new code (whose medians then read
#: 0.100 / 0.056 and 0.345 / 0.116 s for FTF, 0.094 / 0.057 and 0.320 /
#: 0.117 s for Makespan).  Written into the artifact beside the live series;
#: only meaningful at ``BENCH_SCALE == 1``.
_CHURN_FAMILY_AT_PARENT = {
    "FTF": {
        "16": {"scratch": 0.1339, "session": 0.1195},
        "128": {"scratch": 0.4915, "session": 0.4542},
    },
    "Makespan": {
        "16": {"scratch": 0.1158, "session": 0.1012},
        "128": {"scratch": 0.3903, "session": 0.3718},
    },
}
#: Required scratch/session speedup for plain LAS at the largest churn count.
#: Columnar assembly makes the stateless path's construction cheap, so the
#: session's advantage at laptop scale is the warm-started re-solve itself:
#: 3.4-3.6x at 128 jobs over five runs now that the HiGHS basis survives row
#: edits (1.25-2.55x, tripping this gate at random, while it did not).
_CHURN_SPEEDUP_GATE = 1.7 if BENCH_SCALE == 1 else 2.0
#: Water-filling churn sweep: the level loop solves O(iterations x candidates)
#: LPs per event, so it replays fewer events.
_WF_CHURN_NUM_JOBS = [16, 64] if BENCH_SCALE == 1 else [64, 128]
_WF_CHURN_NUM_EVENTS = 6
#: Job counts for the LP-construction (build-phase) sweep.  Construction is
#: solver-free, so the space-sharing policies reach 512 jobs even at laptop
#: scale, and the scaled sweep runs the paper's full 2048 active jobs.
_BUILD_NUM_JOBS = [64, 256, 512] if BENCH_SCALE == 1 else [256, 512, 1024, 2048]
_BUILD_POLICIES = {
    "LAS w/ SS": "max_min_fairness+ss",
    "Makespan w/ SS": "makespan+ss",
}
#: Job counts for the type-aggregated sweep.  The aggregated LP's size is set
#: by the active-type count, not the job count, so the series runs far past
#: the per-job sweeps — 16384 jobs by default, 100k under REPRO_BENCH_SCALE.
_AGG_NUM_JOBS = [512, 2048, 16384] if BENCH_SCALE == 1 else [2048, 16384, 100_000]
#: Largest job count at which the per-job comparison leg still runs; above
#: this the per-job LP dominates the benchmark's wall clock and only the
#: aggregated leg is timed.
_AGG_PER_JOB_MAX = 2048
#: Specs for the aggregated sweep, keyed by display name.  Plain LAS carries
#: exactly one aggregated LP row per active type (no colocation pair rows);
#: the water-filling family runs its level loop over group representatives,
#: where the hierarchical policy's entity-refined grouping keeps one row per
#: (type, entity) pair rather than one per type.
_AGG_SPECS = {
    "LAS": "max_min_fairness",
    "WaterFilling": "max_min_fairness_water_filling",
    "Hierarchical": "hierarchical",
}
#: The two aggregated series at the commit before the aggregated view became
#: an incrementally maintained index and its expansion a gather (e8757ec: every
#: solve regrouped every job and wrote one row per member through a dict):
#: medians of five runs of ``measure_aggregated_solve_runtime(spec, [512, 2048,
#: 16384], per_job_max=0)`` on a scratch clone, alternating with the new code
#: (whose medians then read 0.0051 / 0.0059 / 0.0375 s cold and 0.0018 / 0.0025
#: / 0.0095 s per re-solve for LAS).
#: Written into the artifact beside the live series; only meaningful at
#: ``BENCH_SCALE == 1``.
_AGG_SOLVE_AT_PARENT = {
    "LAS": {"512": 0.0074, "2048": 0.0119, "16384": 0.1178},
    "WaterFilling": {"512": 0.0088, "2048": 0.0194, "16384": 0.1133},
    "Hierarchical": {"512": 0.0199, "2048": 0.0277, "16384": 0.1466},
}
_AGG_RESOLVE_AT_PARENT = {
    "LAS": {"512": 0.0045, "2048": 0.0111, "16384": 0.0883},
    "WaterFilling": {"512": 0.0070, "2048": 0.0142, "16384": 0.0901},
    "Hierarchical": {"512": 0.0178, "2048": 0.0264, "16384": 0.1118},
}
#: Required aggregated-over-per-job session speedup at every measured count
#: of 2048+ jobs where both legs ran (typically 30-60x for LAS and well over
#: 100x for the water-filling family, whose per-job level loop solves LPs
#: that grow with the job count).
_AGG_SPEEDUP_GATE = 5.0


def _hierarchical_for_scaling(space_sharing=False):
    """Registry hierarchical policy (round-robin entity fallback) for scaling runs."""
    return make_policy("hierarchical", space_sharing=space_sharing)


def _water_filling_churn(oracle):
    """Fresh level-loop program per event vs the persistent session under churn."""
    return measure_policy_solve_under_churn(
        make_policy("max_min_fairness_water_filling"),
        _WF_CHURN_NUM_JOBS,
        num_events=_WF_CHURN_NUM_EVENTS,
        oracle=oracle,
    )


def _measure(oracle):
    """Every sweep, plus the bottleneck-detection counters of all its level loops."""
    detections = {"solves": 0, "warm": 0, "milp_fallbacks": 0, "infeasible": 0}
    run = _LevelLoopProgram.run
    solve = LinearProgram.solve

    def counted(self, *args, **kwargs):
        result = run(self, *args, **kwargs)
        detections["solves"] += result.detection_solves
        detections["milp_fallbacks"] += result.milp_fallbacks
        detections["infeasible"] += result.infeasible_detections
        return result

    def counted_solve(program, *args, **kwargs):
        solution = solve(program, *args, **kwargs)
        # A detection that started from a basis: the one-shot series build
        # their program and solve it cold once per level loop, the sessions
        # of the churn series keep theirs across events.
        if program.name == "water_filling_detection" and solution.warm_started:
            detections["warm"] += 1
        return solution

    _LevelLoopProgram.run = counted
    LinearProgram.solve = counted_solve
    try:
        return (*_measure_series(oracle), detections)
    finally:
        _LevelLoopProgram.run = run
        LinearProgram.solve = solve


def _measure_series(oracle):
    policies = {
        "LAS": ("max_min_fairness", False),
        "LAS w/ SS": ("max_min_fairness_ss", True),
        "Hierarchical": (_hierarchical_for_scaling(), False),
        "Hierarchical w/ SS": (_hierarchical_for_scaling(space_sharing=True), True),
    }
    runtimes = {}
    for name, (policy, space_sharing) in policies.items():
        runtimes[name] = measure_policy_runtime(
            policy, _NUM_JOBS, oracle=oracle, space_sharing=space_sharing
        )
    prep = measure_matrix_prep_runtime(_NUM_JOBS, oracle=oracle, space_sharing=True)
    churn = {
        name: measure_policy_solve_under_churn(
            spec, _CHURN_NUM_JOBS, num_events=16, oracle=oracle
        )
        for name, spec in _CHURN_POLICIES.items()
    }
    churn["WaterFilling"] = _water_filling_churn(oracle)
    build = {
        name: measure_lp_build_runtime(spec, _BUILD_NUM_JOBS, oracle=oracle)
        for name, spec in _BUILD_POLICIES.items()
    }
    aggregated = {
        name: measure_aggregated_solve_runtime(
            spec, _AGG_NUM_JOBS, per_job_max=_AGG_PER_JOB_MAX, oracle=oracle
        )
        for name, spec in _AGG_SPECS.items()
    }
    return runtimes, prep, churn, build, aggregated


def _write_artifact(runtimes, prep, churn, build, aggregated, detections) -> str:
    """Dump the sweep timings as JSON for the CI perf-trajectory artifact."""
    path = os.environ.get("REPRO_BENCH_JSON", "BENCH_fig12.json")
    payload = {
        "bench_scale": BENCH_SCALE,
        "num_jobs": _NUM_JOBS,
        "churn_num_jobs": _CHURN_NUM_JOBS,
        "water_filling_churn_num_jobs": _WF_CHURN_NUM_JOBS,
        "build_num_jobs": _BUILD_NUM_JOBS,
        "aggregated_num_jobs": _AGG_NUM_JOBS,
        "policy_runtime_seconds": {
            name: {str(n): value for n, value in series.items()}
            for name, series in runtimes.items()
        },
        "matrix_prep_seconds": {str(n): point for n, point in prep.items()},
        "policy_solve_under_churn_seconds": {
            name: {str(n): point for n, point in series.items()}
            for name, series in churn.items()
        },
        "policy_solve_under_churn_seconds_at_parent": _CHURN_FAMILY_AT_PARENT,
        "lp_build_seconds": {
            name: {str(n): point for n, point in series.items()}
            for name, series in build.items()
        },
        "aggregated_solve_seconds": {
            name: {
                str(n): {key: value for key, value in point.items() if key != "resolve"}
                for n, point in series.items()
            }
            for name, series in aggregated.items()
        },
        "aggregated_solve_seconds_at_parent": _AGG_SOLVE_AT_PARENT,
        # Per re-allocation on a kept session: apply + solve, mean over the
        # harness's one-departure-one-arrival events.
        "aggregated_resolve_seconds": {
            name: {
                str(n): {"resolve": point["resolve"], "lp_rows": point["lp_rows"]}
                for n, point in series.items()
            }
            for name, series in aggregated.items()
        },
        "aggregated_resolve_seconds_at_parent": _AGG_RESOLVE_AT_PARENT,
        # Bottleneck detections of every water-filling / hierarchical solve
        # above, and how many needed the integer re-solve.
        "water_filling_detections": detections,
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    return path


def bench_fig12_policy_scalability(benchmark, oracle):
    runtimes, prep, churn, build, aggregated, detections = benchmark.pedantic(
        _measure, args=(oracle,), rounds=1, iterations=1
    )
    rows = [
        [name] + [f"{runtimes[name][n]:.3f}" for n in _NUM_JOBS] for name in runtimes
    ]
    print()
    print(
        format_table(
            ["policy"] + [f"{n} jobs (s)" for n in _NUM_JOBS],
            rows,
            title="Figure 12: seconds per allocation computation vs number of active jobs",
        )
    )
    for name, values in runtimes.items():
        benchmark.extra_info[f"{name}@{_NUM_JOBS[-1]}jobs"] = round(values[_NUM_JOBS[-1]], 4)

    prep_rows = [
        [
            str(n),
            f"{prep[n]['rebuild']:.3f}",
            f"{prep[n]['incremental']:.3f}",
            f"{prep[n]['rebuild'] / max(prep[n]['incremental'], 1e-12):.1f}x",
        ]
        for n in _NUM_JOBS
    ]
    print(
        format_table(
            ["jobs", "rebuild (s)", "incremental (s)", "speedup"],
            prep_rows,
            title="Policy-input prep under churn: from-scratch rebuild vs AllocationEngine",
        )
    )
    largest = _NUM_JOBS[-1]
    benchmark.extra_info["matrix_prep_speedup@%djobs" % largest] = round(
        prep[largest]["rebuild"] / max(prep[largest]["incremental"], 1e-12), 2
    )

    churn_rows = []
    for name in churn:
        for n in sorted(churn[name]):
            point = churn[name][n]
            churn_rows.append(
                [
                    name,
                    str(n),
                    f"{point['scratch']:.3f}",
                    f"{point['session']:.3f}",
                    f"{point['scratch'] / max(point['session'], 1e-12):.1f}x",
                ]
            )
    print(
        format_table(
            ["policy", "jobs", "from-scratch (s)", "session (s)", "speedup"],
            churn_rows,
            title="Policy solve under churn: stateless compute_allocation vs policy session",
        )
    )
    churn_largest = _CHURN_NUM_JOBS[-1]
    for name in churn:
        series_largest = max(churn[name])
        point = churn[name][series_largest]
        benchmark.extra_info[f"policy_solve_speedup[{name}]@{series_largest}jobs"] = round(
            point["scratch"] / max(point["session"], 1e-12), 2
        )

    build_rows = [
        [name] + [f"{build[name][n]:.3f}" for n in _BUILD_NUM_JOBS] for name in build
    ]
    print(
        format_table(
            ["policy"] + [f"{n} jobs (s)" for n in _BUILD_NUM_JOBS],
            build_rows,
            title="LP construction (session + prepare, no solve)",
        )
    )
    build_largest = _BUILD_NUM_JOBS[-1]
    for name in build:
        benchmark.extra_info[f"lp_build_seconds[{name}]@{build_largest}jobs"] = round(
            build[name][build_largest], 4
        )

    agg_rows = []
    for name in _AGG_SPECS:
        for n in _AGG_NUM_JOBS:
            point = aggregated[name][n]
            per_job = point["per_job"]
            agg_rows.append(
                [
                    name,
                    str(n),
                    f"{per_job:.3f}" if per_job is not None else "-",
                    f"{point['aggregated']:.3f}",
                    f"{per_job / max(point['aggregated'], 1e-12):.1f}x"
                    if per_job is not None
                    else "-",
                    f"{point['resolve']:.4f}",
                    str(point["lp_rows"]),
                    str(point["active_types"]),
                ]
            )
    print(
        format_table(
            [
                "policy",
                "jobs",
                "per-job (s)",
                "aggregated (s)",
                "speedup",
                "re-solve (s)",
                "LP rows",
                "groups",
            ],
            agg_rows,
            title="Type-aggregated solve: per-job vs aggregated session, and a kept one's re-solve",
        )
    )
    for name in _AGG_SPECS:
        series = aggregated[name]
        agg_gate_points = [
            n for n in _AGG_NUM_JOBS if n >= 2048 and series[n]["per_job"] is not None
        ]
        if agg_gate_points:
            gate_n = max(agg_gate_points)
            gate_point = series[gate_n]
            benchmark.extra_info[f"aggregated_solve_speedup[{name}]@{gate_n}jobs"] = (
                round(gate_point["per_job"] / max(gate_point["aggregated"], 1e-12), 2)
            )
        benchmark.extra_info[f"aggregated_lp_rows[{name}]@{_AGG_NUM_JOBS[-1]}jobs"] = (
            series[_AGG_NUM_JOBS[-1]]["lp_rows"]
        )

    artifact = _write_artifact(runtimes, prep, churn, build, aggregated, detections)
    print(f"wrote sweep timings to {artifact}")
    print(
        f"water-filling bottleneck detections: {detections['solves']} solved "
        f"({detections['warm']} from a basis), "
        f"{detections['milp_fallbacks']} needed the integer fallback, "
        f"{detections['infeasible']} infeasible"
    )

    # Shape checks: runtime grows with the number of jobs, the hierarchical
    # policy costs more than single-level LAS, and every configuration stays
    # far below the paper's 10-minute acceptability threshold at this scale.
    assert runtimes["LAS"][_NUM_JOBS[-1]] >= runtimes["LAS"][_NUM_JOBS[0]] * 0.5
    assert runtimes["Hierarchical"][_NUM_JOBS[-1]] >= runtimes["LAS"][_NUM_JOBS[-1]]
    assert all(value < 600.0 for series in runtimes.values() for value in series.values())
    # The incremental engine must cut matrix-construction + policy-input prep
    # time by at least 2x at the largest job count (it is typically >5x).
    assert prep[largest]["rebuild"] >= 2.0 * prep[largest]["incremental"]
    # Session reuse must keep cutting repeated policy solves under churn for
    # the plain LAS policy (persistent epigraph LP + warm-started HiGHS
    # re-solves; space sharing must at minimum not regress).
    las_point = churn["LAS"][churn_largest]
    assert las_point["scratch"] >= _CHURN_SPEEDUP_GATE * las_point["session"]
    # Space sharing is solver-dominated, so only guard against a gross
    # regression (with slack for shared-runner timing noise).
    ss_point = churn["LAS w/ SS"][churn_largest]
    assert ss_point["scratch"] >= 0.8 * ss_point["session"]
    # Every type-aggregated session (plain LAS and the iterative water-filling
    # family) must beat its per-job counterpart by at least 5x at every
    # measured count of 2048+ jobs where both legs ran (typically 30-60x for
    # LAS and 100x+ for water filling: the per-job program grows with the job
    # count, the aggregated one doesn't), and the aggregated LP's row count
    # must stay bounded by the active-group count at every job count — the
    # Figure 12 evidence that level-loop LP size is independent of the number
    # of active jobs.
    for name in _AGG_SPECS:
        for n in _AGG_NUM_JOBS:
            point = aggregated[name][n]
            assert point["lp_rows"] <= point["active_types"], (
                f"aggregated LP rows exceed the active-group count for {name} at "
                f"{n} jobs: {point['lp_rows']} rows for {point['active_types']} groups"
            )
            if n >= 2048 and point["per_job"] is not None:
                assert point["per_job"] >= _AGG_SPEEDUP_GATE * point["aggregated"], (
                    f"aggregated solve speedup below {_AGG_SPEEDUP_GATE}x for {name} "
                    f"at {n} jobs: per_job={point['per_job']:.3f}s "
                    f"aggregated={point['aggregated']:.3f}s"
                )
