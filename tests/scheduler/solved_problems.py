"""Record the problems policy sessions are asked to solve, for tests that inspect them."""

import contextlib
from typing import Iterator, List
from unittest import mock

from repro.core.problem import PolicyProblem
from repro.core.session import PolicySession


@contextlib.contextmanager
def solved_problems() -> Iterator[List[PolicyProblem]]:
    """Every problem handed to ``PolicySession.solve`` while the block runs, in order.

    Only outermost calls count: the type-level view an aggregated session
    hands its inner session is not a problem the scheduler built.
    """
    problems: List[PolicyProblem] = []
    depth = [0]
    solve = PolicySession.solve

    def recording(session, problem=None):
        if not depth[0]:
            problems.append(session.problem if problem is None else problem)
        depth[0] += 1
        try:
            return solve(session, problem)
        finally:
            depth[0] -= 1

    with mock.patch.object(PolicySession, "solve", recording):
        yield problems
