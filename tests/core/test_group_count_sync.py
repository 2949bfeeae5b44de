"""A type-aggregated update pays for the groups it touched.

When no group came or went and no representative changed, the aggregated
view carries its matrix over, and :meth:`AllocationVariables.update_to`
takes it as a count-only update: no key diff, only the moved groups' job-row
right-hand sides and the caps of the rows holding them, found through the
dense rows' job index.  These tests pin that contract on a ``+ss`` view with
a same-group ``(rep, rep)`` pair row:

* the rows whose caps :meth:`AllocationVariables._resync_counts` rewrites
  are exactly those a scan of every member (``np.isin``) finds;
* a count-only update on the held matrix leaves the program as the full key
  diff against an equal but distinct matrix leaves it;
* in a scheduler, a count-only re-allocation sends HiGHS no structural call.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cluster import ClusterSpec
from repro.core import AggregatedProblem, PolicyProblem, make_policy
from repro.core.policy import AllocationVariables
from repro.core.throughput_matrix import ThroughputMatrix, build_throughput_matrix
from repro.scheduler import ClusterScheduler, SchedulerConfig
from repro.solver.lp import LinearProgram
from repro.workloads import Job, ThroughputOracle

from tests.outcomes import recording_highs

_ORACLE = ThroughputOracle()
_CLUSTER = ClusterSpec.from_counts({"v100": 2, "p100": 2, "k80": 2})
#: Three, two, one and two jobs of four single-worker types: the a3c group
#: has a same-group pair row ``(6, 6)``, and every group pairs with it.
_TYPES = ["resnet50-bs16"] * 3 + ["resnet50-bs128"] * 2 + ["resnet18-bs128"] + ["a3c-bs4"] * 2
_POLICY = make_policy("max_min_fairness+ss")


def _view():
    jobs = [Job(job_id=job_id, job_type=name, total_steps=1e5) for job_id, name in enumerate(_TYPES)]
    problem = PolicyProblem(
        jobs={job.job_id: job for job in jobs},
        throughputs=build_throughput_matrix(jobs, _ORACLE, space_sharing=True),
        cluster_spec=_CLUSTER,
    )
    view = AggregatedProblem.build(problem)
    assert (6, 6) in view.problem.throughputs.combinations
    return view.problem


def _recounted(problem, counts):
    """``problem`` with group sizes ``counts``, over the very same matrix object."""
    return PolicyProblem(
        jobs=problem.jobs,
        throughputs=problem.throughputs,
        cluster_spec=problem.cluster_spec,
        group_counts=counts,
    )


def _variables(problem):
    program = LinearProgram(name="count-sync")
    return AllocationVariables(problem, _POLICY.effective_matrix(problem), program), program


#: New group sizes; a group with a same-group pair row keeps at least two members.
_COUNTS = st.fixed_dictionaries(
    {0: st.integers(1, 6), 3: st.integers(1, 6), 5: st.integers(1, 6), 6: st.integers(2, 6)}
)


@given(counts=_COUNTS)
@settings(max_examples=40, deadline=None)
def test_resync_finds_the_rows_a_member_scan_finds(counts):
    problem = _view()
    variables, program = _variables(problem)
    previous = dict(problem.group_counts)
    changed, bounded = [], []
    resync, set_bounds = variables._resync_counts, program.set_variable_bounds_from_arrays

    def recording_resync(jobs):
        changed.append(set(jobs))
        resync(jobs)

    def recording_bounds(indices, lower, upper):
        bounded.extend(np.asarray(indices).tolist())
        set_bounds(indices, lower, upper)

    variables._resync_counts = recording_resync
    program.set_variable_bounds_from_arrays = recording_bounds
    variables.update_to(_recounted(problem, counts), variables.matrix)

    moved = sorted(job_id for job_id in counts if counts[job_id] != previous[job_id])
    if not moved:
        assert changed == [] and bounded == []
        return
    assert changed == [set(moved)]
    row_of = {
        column: row for row, columns in enumerate(variables._var_matrix.tolist()) for column in columns
    }
    dense = variables.matrix.dense_rows()
    scanned = np.unique(dense.member_rows[np.isin(dense.member_jobs, moved)]).tolist()
    assert sorted({row_of[column] for column in bounded}) == scanned
    assert variables.touched_since(variables.revision - 1) == set(moved)


def _program_state(program):
    """Everything an update writes: column bounds, and each row's terms and bounds."""
    rows = {
        handle: (
            row.indices.tolist(),
            row.values.tolist(),
            float(program._row_lower_buf[row.slot]),
            float(program._row_upper_buf[row.slot]),
        )
        for handle, row in program._constraints.items()
    }
    return program._lower.tolist(), program._upper.tolist(), rows


@given(counts=_COUNTS)
@settings(max_examples=40, deadline=None)
def test_count_only_update_equals_the_full_diff(counts):
    problem = _view()
    held, held_program = _variables(problem)
    diffed, diffed_program = _variables(problem)
    matrix = held.matrix
    dense = matrix.dense_rows()
    pairs = {
        combination: dense.values[dense.offsets[row] : dense.offsets[row + 1]]
        for row, combination in enumerate(dense.combinations)
        if len(combination) == 2
    }
    equal = ThroughputMatrix.from_parts(
        matrix.registry, matrix.job_ids, matrix.singles_matrix()[1], pairs
    )
    assert equal is not matrix and equal.combinations == matrix.combinations

    recounted = _recounted(problem, counts)
    held.update_to(recounted, matrix)
    diffed.update_to(recounted, equal)

    assert _program_state(held_program) == _program_state(diffed_program)
    np.testing.assert_array_equal(held._var_matrix, diffed._var_matrix)
    assert held.touched_since(held.revision - 1) == diffed.touched_since(diffed.revision - 1)


def _scheduler():
    config = SchedulerConfig(mode="round", aggregation="type")
    return ClusterScheduler("max_min_fairness", _CLUSTER, oracle=_ORACLE, config=config)


def test_a_count_only_reallocation_makes_no_structural_call():
    """A job joins a group whose representative stays: bounds and coefficients move, no structure."""
    with recording_highs() as models:
        scheduler = _scheduler()
        for job_id in range(4):
            scheduler.submit(Job(job_id=job_id, job_type=_TYPES[2 * job_id], total_steps=1e9))
        # Joins job 0's group (a larger id: the representative stays).
        scheduler.submit(
            Job(job_id=9, job_type=_TYPES[0], total_steps=1e9, arrival_time=1000.0)
        )
        while scheduler.result().num_policy_recomputations < 1:
            scheduler.step()
        view = scheduler._session.view
        before = [dict(model.counts) for model in models]
        while scheduler.result().num_policy_recomputations < 2:
            scheduler.step()
        after = scheduler._session.view
        assert after.problem.throughputs is view.problem.throughputs  # the matrix carried over
        assert after.problem.group_counts[0] == view.problem.group_counts[0] + 1

        moved = {}
        for model, counts in zip(models, before):
            for kind, count in model.counts.items():
                if count != counts.get(kind, 0):
                    moved[kind] = moved.get(kind, 0) + count - counts.get(kind, 0)
    assert not {"addRows", "deleteRows", "addCols", "setBasis", "passModel"} & moved.keys()
    assert moved.get("run") == 1
    # The group's job row (its size) and its rescaled epigraph row reached HiGHS.
    assert moved.get("changeRowBounds", 0) >= 1 and moved.get("changeCoeff", 0) >= 1
