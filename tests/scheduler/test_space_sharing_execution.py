"""A space-sharing pair executes at the rates the policy planned with.

The LP sees a pair row as two throughput vectors, one per member
(``matrix.row(combination)[k]``); a round that runs the pair must advance
member *k* at exactly that rate.  ``_execution_throughput`` asks the colocation
model with the caller's own type first, so its answer's ``first`` is the
caller's rate in either position — it used to return ``second`` for the
combination's second member, i.e. the *other* job's rate (``resnet18-bs32`` +
``lstm-bs5`` on a V100: 40.4 / 31.4 steps/s, and the LSTM was credited 40.4).
"""

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import ClusterSpec
from repro.scheduler import ClusterScheduler, RoundScheduler, SchedulerConfig
from repro.workloads import ColocationModel, Job, ThroughputOracle

_ORACLE = ThroughputOracle()
_ROUND = 360.0
#: Far more steps than any test runs: nobody completes, so a job scheduled in a
#: round advances by exactly ``rate * (round - overhead)``.
_ENDLESS = 1e12


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
        rates = ColocationModel(_ORACLE).colocated_throughputs(
            "resnet18-bs32", "lstm-bs5", "v100"
        )
        assert rates.first != rates.second
        records = scheduler.result().records
        # Both ran (together: there is one GPU), each at its own rate.
        assert records[0].steps_done == rates.first * productive_seconds
        assert records[1].steps_done == rates.second * productive_seconds


def _pairs_run_at_planned_rates(jobs, counts, rounds=4):
    """Step ``rounds`` rounds, holding each pick's members to their matrix rates; pairs seen."""
    scheduler = _scheduler("round", jobs, counts)
    recorded = []
    schedule_round = RoundScheduler.schedule_round

    def recording(self, tracker):
        recorded.append(schedule_round(self, tracker))
        return recorded[-1]

    names = _ORACLE.registry.names
    pairs_seen = 0
    steps_done = {job.job_id: 0.0 for job in jobs}
    with mock.patch.object(RoundScheduler, "schedule_round", recording):
        for _ in range(rounds):
            scheduler.step()
            records = scheduler.result().records
            # The matrix of the period's solve: the rows the LP planned with.
            matrix = scheduler._session.problem.throughputs
            picks = recorded[-1]
            for row, column in zip(picks.rows, picks.columns):
                combination = picks.combinations[row]
                pairs_seen += len(combination) == 2
                for position, job_id in enumerate(combination):
                    executed = (records[job_id].steps_done - steps_done[job_id]) / _ROUND
                    assert executed == pytest.approx(
                        matrix.row(combination)[position][column], rel=1e-9
                    ), (combination, names[column], position)
            steps_done = {job_id: record.steps_done for job_id, record in records.items()}
    return pairs_seen


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


class TestExecutedRatesAreThePlannedRows:
    @given(workload=_pair_workload())
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_every_member_of_every_pick_runs_at_its_matrix_rate(self, workload):
        _pairs_run_at_planned_rates(*workload)

    def test_the_property_is_not_vacuous(self):
        # Four light jobs of different types on two GPUs: the LP pairs them up.
        jobs = [
            Job(job_id=job_id, job_type=job_type, total_steps=_ENDLESS)
            for job_id, job_type in enumerate(
                ["resnet18-bs32", "lstm-bs5", "a3c-bs4", "recoder-bs512"]
            )
        ]
        assert _pairs_run_at_planned_rates(jobs, {"v100": 1, "p100": 1}) >= 4
