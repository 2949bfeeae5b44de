"""Every mode executes an allocation's rows at the one rate rule the policy planned with.

The LP sees a pair row as two throughput vectors, one per member
(``matrix.row(combination)[k]``); whatever runs the pair must advance member *k*
at exactly that rate.  The rule, from the definition: a job alone runs at the
oracle's throughput for its scale factor; a pair member at the colocation
model's ``first``, asked with its own type first — so ``first`` is its rate in
either position.  Three bugs broke it:

* round execution returned ``second`` for a combination's second member, i.e.
  the *other* job's rate (``resnet18-bs32`` + ``lstm-bs5`` on a V100: 40.4 / 31.4
  steps/s, and the LSTM was credited 40.4);
* fluid execution read rates off the planned matrix, where a type-aggregated
  allocation's expanded member pairs have no row, so they held devices, were
  billed and made no progress;
* for the same reason fluid execution with an estimator advanced jobs at the
  *estimated* colocated rates.
"""

import contextlib
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import ClusterSpec
from repro.estimator import ThroughputEstimator
from repro.scheduler import ClusterScheduler, RoundScheduler, SchedulerConfig
from repro.workloads import ColocationModel, Job, ThroughputOracle, TraceGenerator

from solved_problems import solved_problems

_ORACLE = ThroughputOracle()
_MODEL = ColocationModel(_ORACLE)
_ROUND = 360.0
#: Far more steps than any test runs: nobody completes, so a job scheduled in a
#: round advances by exactly ``rate * (round - overhead)``.
_ENDLESS = 1e12
_FLUID = ("continuous", "ideal")


def _scheduler(mode, jobs, counts, **config):
    cluster = ClusterSpec.from_counts(counts, registry=_ORACLE.registry)
    scheduler = ClusterScheduler(
        "max_min_fairness+ss",
        cluster,
        oracle=_ORACLE,
        config=SchedulerConfig(mode=mode, round_duration_seconds=_ROUND, **config),
    )
    for job in jobs:
        scheduler.submit(job)
    return scheduler


def _rule(job, partner, name):
    """``job``'s rate on ``name``: alone the oracle's, beside ``partner`` the model's ``first``."""
    if partner is None:
        return _ORACLE.throughput(job.job_type, name, scale_factor=job.scale_factor)
    return _MODEL.colocated_throughputs(job.job_type, partner.job_type, name).first


def _members(combination, jobs):
    """``(position, job, partner or None)`` per member of an allocation row."""
    if len(combination) == 1:
        return [(0, jobs[combination[0]], None)]
    first, second = (jobs[job_id] for job_id in combination)
    return [(0, first, second), (1, second, first)]


def _planned(problem, combination, position, column):
    """The rate ``problem``'s solve planned member ``position`` with, or ``None`` if it has no row."""
    matrix = problem.throughputs
    if combination not in matrix.combinations:
        return None
    return matrix.row(combination)[position][column]


class TestAsymmetricPair:
    """Two jobs, one V100: the LP space-shares them, and their colocated rates differ."""

    _JOBS = [
        Job(job_id=0, job_type="resnet18-bs32", total_steps=_ENDLESS),
        Job(job_id=1, job_type="lstm-bs5", total_steps=_ENDLESS),
    ]

    @pytest.mark.parametrize(
        "mode, config, productive_seconds",
        [
            ("round", {}, _ROUND),
            # First round: every job pays the checkpoint overhead once; no jitter.
            (
                "physical",
                {"checkpoint_overhead_seconds": 30.0, "throughput_jitter_std": 0.0},
                _ROUND - 30.0,
            ),
        ],
    )
    def test_each_member_advances_at_its_own_colocated_rate(
        self, mode, config, productive_seconds
    ):
        scheduler = _scheduler(mode, self._JOBS, {"v100": 1}, **config)
        scheduler.step()
        rates = _MODEL.colocated_throughputs("resnet18-bs32", "lstm-bs5", "v100")
        assert rates.first != rates.second
        records = scheduler.result().records
        # Both ran (together: there is one GPU), each at its own rate.
        assert records[0].steps_done == rates.first * productive_seconds
        assert records[1].steps_done == rates.second * productive_seconds


@contextlib.contextmanager
def _recorded(owner, name):
    """Every return value of ``owner.name`` while the block runs."""
    seen = []
    original = getattr(owner, name)

    def recording(self, *args, **kwargs):
        seen.append(original(self, *args, **kwargs))
        return seen[-1]

    with mock.patch.object(owner, name, recording):
        yield seen


def _round_cells(scheduler, problem, jobs, picks, before):
    """Per member of every pick: ``(combination, position, planned rate, rule rate)``.

    Checks that the member advanced at the rule's rate for the whole round.
    """
    names = _ORACLE.registry.names
    records = scheduler.result().records
    cells = []
    for row, column in zip(picks.rows, picks.columns):
        combination = picks.combinations[row]
        for position, job, partner in _members(combination, jobs):
            rule = _rule(job, partner, names[column])
            executed = (records[job.job_id].steps_done - before[job.job_id]) / _ROUND
            assert executed == pytest.approx(rule, rel=1e-9), (combination, column, position)
            planned = _planned(problem, combination, position, column)
            cells.append((combination, position, planned, rule))
    return cells


def _fluid_cells(scheduler, problem, jobs, allocation, before, dt):
    """Per member of every row, per type it runs on: ``(combination, position, planned, rule)``.

    Checks that every job advanced at ``sum X * rule`` over its rows for the event.
    """
    names = _ORACLE.registry.names
    records = scheduler.result().records
    expected = dict.fromkeys(before, 0.0)
    cells = []
    for combination, fractions in zip(allocation.combinations, allocation.matrix):
        for position, job, partner in _members(combination, jobs):
            for column, name in enumerate(names):
                if fractions[column] > 0:
                    rule = _rule(job, partner, name)
                    expected[job.job_id] += rule * fractions[column]
                    planned = _planned(problem, combination, position, column)
                    cells.append((combination, position, planned, rule))
    for job_id, rate in expected.items():
        executed = (records[job_id].steps_done - before[job_id]) / dt
        assert executed == pytest.approx(rate, rel=1e-9), job_id
    return cells


def _pairs_run_at_planned_rates(jobs, counts, mode="round", aggregation="job", **config):
    """Step the run, holding every member of every executed row to the rule; the cells run.

    A round mode steps four rounds; a fluid mode staggers the arrivals one
    round apart and steps one event per arrival (the last runs to the first
    completion).  Without an estimator, the solve planned every cell it gave
    a positive rate at the rule's rate.
    """
    by_id = {job.job_id: job for job in jobs}
    fluid = mode in _FLUID
    if fluid:
        jobs = [replace(job, arrival_time=_ROUND * index) for index, job in enumerate(jobs)]
    scheduler = _scheduler(mode, jobs, counts, aggregation=aggregation, **config)
    cells = []
    with _recorded(RoundScheduler, "schedule_round") as rounds, _recorded(
        ClusterScheduler, "_solve_allocation"
    ) as allocations, solved_problems() as problems:
        for _ in range(len(jobs) if fluid else 4):
            before = {job_id: r.steps_done for job_id, r in scheduler.result().records.items()}
            start = scheduler.now
            scheduler.step()
            if fluid:
                active = problems[-1].jobs
                before = {job_id: before[job_id] for job_id in active}
                cells += _fluid_cells(
                    scheduler, problems[-1], by_id, allocations[-1], before, scheduler.now - start
                )
            else:
                cells += _round_cells(scheduler, problems[-1], by_id, rounds[-1], before)
    for _combination, _position, planned, rule in cells:
        if config.get("estimator") is None and planned is not None and planned > 0:
            assert planned == rule
    return cells


@st.composite
def _pair_workload(draw):
    job_types = draw(
        st.lists(st.sampled_from(sorted(_ORACLE.job_types.names)), min_size=2, max_size=6)
    )
    jobs = [
        Job(job_id=job_id, job_type=job_type, total_steps=_ENDLESS)
        for job_id, job_type in enumerate(job_types)
    ]
    counts = {"v100": draw(st.integers(1, 2))}
    counts.update((name, draw(st.integers(0, 2))) for name in ("p100", "k80"))
    return jobs, counts


#: Four light jobs of different types on two GPUs: the LP pairs them up.
_LIGHT_JOBS = [
    Job(job_id=job_id, job_type=job_type, total_steps=_ENDLESS)
    for job_id, job_type in enumerate(["resnet18-bs32", "lstm-bs5", "a3c-bs4", "recoder-bs512"])
]


@pytest.mark.parametrize("aggregation", ["job", "type"])
@pytest.mark.parametrize("mode", ["round", "continuous", "ideal"])
class TestExecutedRatesAreThePlannedRows:
    @given(workload=_pair_workload())
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_every_member_of_every_row_runs_at_the_rule(self, mode, aggregation, workload):
        _pairs_run_at_planned_rates(*workload, mode=mode, aggregation=aggregation)

    def test_the_property_is_not_vacuous(self, mode, aggregation):
        cells = _pairs_run_at_planned_rates(
            _LIGHT_JOBS, {"v100": 1, "p100": 1}, mode=mode, aggregation=aggregation
        )
        # Pair cells, counted once per pair (its first member): a round's pair
        # picks, or a fluid event's pair rows times the types they run on.
        pairs = [cell for cell in cells if len(cell[0]) == 2 and cell[1] == 0]
        assert len(pairs) >= 4


class TestFluidExecutionIgnoresTheEstimator:
    @pytest.mark.parametrize("mode", _FLUID)
    def test_every_job_advances_at_the_true_models_rates(self, mode):
        """Policies plan with the estimator; every member still runs at the true rate."""
        estimator = ThroughputEstimator(
            _MODEL, reference_job_types=sorted(_ORACLE.job_types.names)[::3], seed=1
        )
        cells = _pairs_run_at_planned_rates(
            _LIGHT_JOBS, {"v100": 1, "p100": 1}, mode=mode, estimator=estimator
        )
        # Some pair ran on a cell where the estimate was off the truth.
        assert any(
            len(combination) == 2 and planned not in (None, rule)
            for combination, _position, planned, rule in cells
        )


class TestAggregatedSpaceSharingExecutesThePlan:
    """Type aggregation must not change what a fluid ``+ss`` run does.

    The expanded allocation holds member pairs the per-job matrix lacks; they
    used to run at rate zero (14 jobs: 40.80 h, 57.85 %, $780.05 aggregated
    against 36.59 h, 54.16 %, $707.57 per job).
    """

    @pytest.mark.parametrize("mode", _FLUID)
    def test_aggregated_run_equals_the_per_job_run(self, mode):
        jobs = TraceGenerator(_ORACLE).generate_continuous(14, 8.0, seed=3).jobs
        results = []
        for aggregation in ("job", "type"):
            scheduler = _scheduler(
                mode, jobs, {"v100": 2, "p100": 2, "k80": 2}, aggregation=aggregation
            )
            scheduler.run_until()
            results.append(scheduler.result())
        per_job, aggregated = results
        for metric in ("average_jct_hours", "utilization"):
            assert getattr(aggregated, metric)() == pytest.approx(
                getattr(per_job, metric)(), rel=1e-9
            )
        assert aggregated.total_cost_dollars == pytest.approx(
            per_job.total_cost_dollars, rel=1e-9
        )
        assert per_job.average_jct_hours() == pytest.approx(36.589, abs=5e-4)
