"""The solve log: what a policy session consumed, kept as what replay needs.

:class:`~repro.scheduler.service.ClusterScheduler` logs every solve of its
live policy session, so that :meth:`~repro.scheduler.service.ClusterScheduler.restore`
can rebuild the session's exact solver state by replaying them.  A log is a
list of entries ``(problem, deltas)``: the newest holds the solved
:class:`~repro.core.problem.PolicyProblem` itself, which the live session
holds anyway; :func:`log_solve` turns the entry it supersedes into a
:class:`SolvedProblem`, and :func:`logged_problems` rebuilds the problems
for a replay.  A superseded entry costs a few KB (about 4.4 KB at 60 active
jobs) where the whole problem with its matrix caches cost about 27 KB.
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.cluster.cluster_spec import ClusterSpec
from repro.core.problem import PolicyProblem
from repro.core.session import PolicyDelta
from repro.core.throughput_matrix import ThroughputMatrix
from repro.workloads.job import Job

__all__ = ["SolvedProblem", "LogEntry", "log_solve", "logged_problems"]


class SolvedProblem(NamedTuple):
    """A superseded solve of the log, as the values its problem is rebuilt from.

    The scheduler's ``_build_problem`` keys ``jobs``, ``steps_remaining`` and
    ``time_elapsed`` alike, in admission order, so the jobs in that order and
    two aligned float arrays give the three dicts back: key order, and the
    floats bit for bit.  ``cluster_spec`` is the solved problem's own
    object; ``throughputs`` holds its matrix's parts (see :func:`log_solve`).
    """

    jobs: Tuple[Job, ...]
    steps_remaining: np.ndarray
    time_elapsed: np.ndarray
    current_time: float
    cluster_spec: ClusterSpec
    throughputs: ThroughputMatrix

    def problem(self, throughputs: ThroughputMatrix) -> PolicyProblem:
        """The problem that was solved, over ``throughputs`` (equal to the stored matrix)."""
        ids = [job.job_id for job in self.jobs]
        return PolicyProblem(
            jobs=dict(zip(ids, self.jobs)),
            throughputs=throughputs,
            cluster_spec=self.cluster_spec,
            steps_remaining=dict(zip(ids, self.steps_remaining.tolist())),
            time_elapsed=dict(zip(ids, self.time_elapsed.tolist())),
            current_time=self.current_time,
        )


#: One solve of the live session: its problem (the newest) or what rebuilds it
#: (every older one), and the deltas it consumed (``None``: it created the session).
LogEntry = Tuple[Union[PolicyProblem, SolvedProblem], Optional[List[PolicyDelta]]]


def log_solve(
    log: List[LogEntry], problem: PolicyProblem, deltas: Optional[List[PolicyDelta]]
) -> None:
    """Append a solve to the solve log, compacting the entry it supersedes.

    The newest entry is the problem itself, which the live session holds
    anyway.  An older one keeps what replay needs (:class:`SolvedProblem`),
    not the dicts and matrix caches of its problem.  Entries whose problems
    shared one matrix share one after compaction too: while the newest
    problem uses it, the matrix itself; once none does, one
    :meth:`~repro.core.throughput_matrix.ThroughputMatrix.uncached` copy of
    it.  Entries are replaced, never changed, for snapshots hold them as well.
    """
    if log:
        previous, previous_deltas = log[-1]
        assert isinstance(previous, PolicyProblem)
        matrix, count = previous.throughputs, len(previous.jobs)
        solved = SolvedProblem(
            jobs=tuple(previous.jobs.values()),
            steps_remaining=np.fromiter(previous.steps_remaining.values(), float, count),
            time_elapsed=np.fromiter(previous.time_elapsed.values(), float, count),
            current_time=previous.current_time,
            cluster_spec=previous.cluster_spec,
            throughputs=matrix,
        )
        log[-1] = (solved, previous_deltas)
        if matrix is not problem.throughputs:
            uncached = matrix.uncached()
            for index in range(len(log) - 1, -1, -1):
                entry, entry_deltas = log[index]
                if not isinstance(entry, SolvedProblem) or entry.throughputs is not matrix:
                    break
                log[index] = (entry._replace(throughputs=uncached), entry_deltas)
    log.append((problem, deltas))


def logged_problems(
    log: List[LogEntry],
) -> Iterator[Tuple[PolicyProblem, Optional[List[PolicyDelta]]]]:
    """Each solve of the log in order, its problem rebuilt: what a replay feeds a session.

    A run of entries that share a stored matrix shares one fresh
    :meth:`~repro.core.throughput_matrix.ThroughputMatrix.uncached` copy of
    it, so a replay derives its caches on no stored matrix; one the newest
    problem still uses is used as it is, as by the solves themselves.
    """
    if not log:
        return
    newest = log[-1][0].throughputs
    stored: Optional[ThroughputMatrix] = None
    replayed = newest
    for solved, deltas in log:
        if isinstance(solved, SolvedProblem):
            if solved.throughputs is not stored:
                stored = solved.throughputs
                replayed = stored if stored is newest else stored.uncached()
            solved = solved.problem(replayed)
        yield solved, deltas
