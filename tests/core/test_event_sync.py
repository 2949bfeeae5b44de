"""A re-allocation's policy-side sync costs its event, not the live set.

A live LAS session is fed one arrival and then one departure at two sizes of
the active set.  Three things are counted per event: visits of
``AllocationVariables.effective_throughput_terms`` (what the normalization
refresh looks at), normalization computes, and the outermost
``LinearProgram`` edit calls the sync makes.  Without space sharing an event
touches one job's rows, and type-aggregated it moves one group's size, so
the counts must not depend on the size; with space sharing per job they
follow the rows that contain the event's job: every job sharing a row with
it is visited and re-normalized once, and each edit family is still one call.

The same holds for every program of the sessions built on per-job row
families (:class:`~repro.core.session.JobRows`): LAS's epigraph rows,
water filling's floor/level and detection programs, and finish-time
fairness's witness and scaling programs.  Per program the structural edits
an event makes are counted, and the row families' own share is one call of
each kind at most; and per program the jobs whose rows an event looks at
are counted, which for water filling's detection program and the requirement
rows of makespan and finish-time fairness is the event's own job.
"""

import collections
import functools

import pytest

from repro.cluster import ClusterSpec
from repro.core import make_policy
from repro.core.allocation_engine import AllocationEngine
from repro.core.max_min_fairness import MaxMinFairnessPolicy
from repro.core.policy import AllocationVariables
from repro.core.problem import PolicyProblem
from repro.core.session import JobRows
from repro.solver.lp import LinearProgram
from repro.workloads import ColocationModel, Job, ThroughputOracle

#: Single-worker types: the two heavy ones pair with the light ``a3c`` only,
#: so a heavy job shares rows with a quarter of the others, not with all.
_JOB_TYPES = ("resnet50-bs128", "cyclegan-bs1", "a3c-bs4", "transformer-bs256")

#: Every public ``LinearProgram`` method that edits a program.
_EDITS = sorted(
    name for name in vars(LinearProgram) if name.startswith(("add_", "remove_", "set_", "release_"))
)

#: The edits that add, remove or rewrite a program's rows or columns.
_STRUCTURAL = (
    "add_constraints_from_arrays",
    "remove_constraints",
    "set_constraints_coefficients_from_arrays",
    "add_variables_from_arrays",
    "release_variables",
)


@pytest.fixture(scope="module")
def oracle():
    return ThroughputOracle()


@pytest.fixture
def counts(monkeypatch):
    """Per-kind call counters; LP edits count only when not made by another edit."""
    seen = {"visits": 0, "computes": 0, "edits": 0}
    depth = [0]

    def counting(kind, function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if kind != "edits" or depth[0] == 0:
                seen[kind] += 1
            depth[0] += kind == "edits"
            try:
                return function(*args, **kwargs)
            finally:
                depth[0] -= kind == "edits"

        return wrapper

    monkeypatch.setattr(
        AllocationVariables,
        "effective_throughput_terms",
        counting("visits", AllocationVariables.effective_throughput_terms),
    )
    monkeypatch.setattr(
        MaxMinFairnessPolicy,
        "normalized_throughput_scale",
        counting("computes", MaxMinFairnessPolicy.normalized_throughput_scale),
    )
    for name in _EDITS:
        monkeypatch.setattr(LinearProgram, name, counting("edits", getattr(LinearProgram, name)))
    return seen


@pytest.fixture
def structural(monkeypatch):
    """Outermost structural edits by ``(whose, program name, edit)``.

    ``whose`` is ``"all"`` for every edit and ``"families"`` for the row
    families' own (made inside a :class:`JobRows` method).
    """
    seen = collections.Counter()
    depth = [0]
    in_family = [0]

    def counting(name, function):
        @functools.wraps(function)
        def wrapper(program, *args, **kwargs):
            if depth[0] == 0:
                seen["all", program.name, name] += 1
                if in_family[0]:
                    seen["families", program.name, name] += 1
            depth[0] += 1
            try:
                return function(program, *args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapper

    def family(function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            in_family[0] += 1
            try:
                return function(*args, **kwargs)
            finally:
                in_family[0] -= 1

        return wrapper

    for name in _STRUCTURAL:
        monkeypatch.setattr(LinearProgram, name, counting(name, getattr(LinearProgram, name)))
    for name in ("remove_departed", "write"):
        monkeypatch.setattr(JobRows, name, family(getattr(JobRows, name)))
    return seen


@pytest.fixture
def visits(monkeypatch):
    """Visits of ``effective_throughput_terms`` by the name of the variables' program."""
    seen = collections.Counter()
    terms = AllocationVariables.effective_throughput_terms

    @functools.wraps(terms)
    def counting(variables, job_id):
        seen[variables._program.name] += 1
        return terms(variables, job_id)

    monkeypatch.setattr(AllocationVariables, "effective_throughput_terms", counting)
    return seen


def _event_counts(oracle, counts, size, space_sharing, aggregation, policy=None):
    """Counters of one arrival and of one departure on a live session of ``size`` jobs.

    Returns ``(arrival counts, departure counts, rows with the arriving job,
    rows with the departing job)``; the row counts are of the per-job matrix.
    ``policy`` defaults to LAS, with space sharing when ``space_sharing``.
    """
    # ``size / 4`` aggregation groups of four (type and priority weight): the
    # newcomer joins group 0, the job that leaves is no group's first member.
    groups = size // 4
    jobs = [
        Job(
            job_id=job_id,
            job_type=_JOB_TYPES[job_id % groups % len(_JOB_TYPES)],
            total_steps=1e5,
            priority_weight=1.0 + job_id % groups,
        )
        for job_id in range(size + 1)
    ]
    engine = AllocationEngine(
        oracle,
        space_sharing=space_sharing,
        colocation_model=ColocationModel(oracle),
        aggregation=aggregation,
    )
    spec = ClusterSpec.from_counts({"v100": 8, "p100": 8, "k80": 8})
    active = {job.job_id: job for job in jobs[:size]}
    engine.add_jobs(jobs[:size])

    def problem():
        return PolicyProblem(jobs=dict(active), throughputs=engine.matrix(), cluster_spec=spec)

    if policy is None:
        policy = "max_min_fairness+ss" if space_sharing else "max_min_fairness"
    session = make_policy(policy, aggregation=aggregation).session(problem())
    session.solve()
    engine.drain_deltas()
    observed = []
    for arriving, leaving in ((jobs[size], None), (None, jobs[groups + 1])):
        if arriving is not None:
            engine.add_job(arriving)
            active[arriving.job_id] = arriving
        else:
            rows = len(engine.matrix().rows_containing(leaving.job_id))
            engine.remove_job(leaving.job_id)
            del active[leaving.job_id]
        snapshot = problem()
        if arriving is not None:
            rows = len(snapshot.throughputs.rows_containing(arriving.job_id))
        session.apply(engine.drain_deltas())
        for kind in counts:
            counts[kind] = 0
        session.solve(snapshot)
        observed.append((dict(counts), rows))
    (arrival, arrival_rows), (departure, departure_rows) = observed
    return arrival, departure, arrival_rows, departure_rows


@pytest.mark.parametrize(
    ("space_sharing", "aggregation"), [(False, "job"), (False, "type"), (True, "type")]
)
def test_event_costs_the_same_at_any_size(oracle, counts, space_sharing, aggregation):
    """One job's rows per event, or (aggregated) one group's size: the same at 20 and 80 jobs."""
    small = _event_counts(oracle, counts, 20, space_sharing, aggregation)
    large = _event_counts(oracle, counts, 80, space_sharing, aggregation)
    assert small[:2] == large[:2]
    assert small[0]["visits"] <= 1 and small[1]["visits"] <= 1


def test_with_space_sharing_an_event_costs_the_rows_of_its_job(oracle, counts):
    """Per job: the event's job and its partners are visited, each edit family is one call."""
    small, large = (_event_counts(oracle, counts, size, True, "job") for size in (20, 80))
    for arrival, departure, arrival_rows, departure_rows in (small, large):
        # An arrival touches the new job and each partner (one pair row each);
        # a departure touches each former partner.
        assert arrival["visits"] == arrival["computes"] == arrival_rows
        assert departure["visits"] == departure["computes"] == departure_rows - 1
    assert large[2] > small[2] > 1
    assert (small[0]["edits"], small[1]["edits"]) == (large[0]["edits"], large[1]["edits"])


@pytest.mark.parametrize(
    ("policy", "programs", "with_columns"),
    [
        ("max_min_fairness", ("max_min_fairness",), ()),
        (
            "max_min_fairness_water_filling",
            ("max_min_fairness_water_filling", "water_filling_detection"),
            ("water_filling_detection",),
        ),
        ("finish_time_fairness", ("finish_time_fairness", "throughput_scaling"), ()),
    ],
)
def test_row_families_edit_once_per_event_at_any_size(
    oracle, structural, policy, programs, with_columns
):
    """Per program the structural edits of an event do not grow with the live set.

    The row families' own share is one batched call per kind: an arrival
    adds its job's rows (and the detection's indicator column), a departure
    removes them (and releases the indicator); nothing is rewritten.
    """
    small, large = (
        [{key: count for key, count in event.items() if count} for event in counts[:2]]
        for counts in (
            _event_counts(oracle, structural, size, False, "job", policy) for size in (20, 80)
        )
    )
    assert small == large
    arrival, departure = (
        {key[1:]: count for key, count in event.items() if key[0] == "families"} for event in small
    )
    assert arrival == {
        **{(program, "add_constraints_from_arrays"): 1 for program in programs},
        **{(program, "add_variables_from_arrays"): 1 for program in with_columns},
    }
    assert departure == {
        **{(program, "remove_constraints"): 1 for program in programs},
        **{(program, "release_variables"): 1 for program in with_columns},
    }


@pytest.mark.parametrize(
    ("policy", "programs"),
    [
        (
            "max_min_fairness_water_filling",
            ("max_min_fairness_water_filling", "water_filling_detection"),
        ),
        ("hierarchical", ("hierarchical", "water_filling_detection")),
        ("finish_time_fairness", ("finish_time_fairness", "throughput_scaling")),
        ("makespan", ("min_makespan", "throughput_scaling")),
    ],
)
def test_each_program_looks_at_the_event_job_only_at_any_size(oracle, visits, policy, programs):
    """Water filling's detection rows and the requirement rows follow the event, not the live set.

    An arrival looks at the new job once per program, a departure at nobody:
    a program that re-derived every job's terms on each event would count
    the live set here, even where its row writes then find nothing changed.
    """
    small, large = (
        [{name: count for name, count in event.items() if count} for event in counts[:2]]
        for counts in (
            _event_counts(oracle, visits, size, False, "job", policy) for size in (20, 80)
        )
    )
    assert small == large
    assert small == [{program: 1 for program in programs}, {}]
