"""The warm-start guard: a session's re-solves start from a basis and stay optimal.

A LAS session is driven through the engine's add/remove churn sequence
(``churn_problems``: every step retires one job and admits another).  Every
solve after the first must enter HiGHS with a valid basis, cost a fraction of
what the same problems cost solved cold, and reach the cold optimum — the
objective is unique even where the vertex is not.  This is what the 1.7x
session-vs-scratch gate of the Figure 12 benchmark rests on.
"""

import pytest
from churn_fingerprint_scenarios import churn_problems, session_allocations

from repro.core import make_policy
from repro.solver.lp import LinearProgram


@pytest.fixture
def solutions(monkeypatch):
    """Every :class:`Solution` ``LinearProgram.solve`` returns, in order."""
    recorded = []
    solve = LinearProgram.solve

    def recording(program, *args, **kwargs):
        recorded.append(solve(program, *args, **kwargs))
        return recorded[-1]

    monkeypatch.setattr(LinearProgram, "solve", recording)
    return recorded


@pytest.mark.parametrize(
    "policy_spec, iteration_share",
    # Without pair rows an event touches a handful of rows: a tenth of the
    # cold pivots.  With them one departure rewrites every partner's rows, so
    # the basis is worth less — but never less than nothing.
    [("max_min_fairness", 0.1), ("max_min_fairness+ss", 1.0)],
)
def test_las_session_re_solves_warm_to_the_cold_optimum(
    oracle, solutions, policy_spec, iteration_share
):
    steps = churn_problems(oracle)
    session_allocations(policy_spec, steps)
    warm = list(solutions)
    solutions.clear()
    for problem, _deltas in steps:
        make_policy(policy_spec).session(problem).solve(problem)
    cold = list(solutions)

    assert len(warm) == len(cold) == len(steps)
    assert [solution.warm_started for solution in warm] == [False] + [True] * (len(steps) - 1)
    assert not any(solution.warm_started for solution in cold)
    for step, (live, scratch) in enumerate(zip(warm, cold)):
        assert live.objective_value == pytest.approx(scratch.objective_value, rel=1e-9), step
    assert sum(solution.simplex_iterations for solution in warm[1:]) < iteration_share * sum(
        solution.simplex_iterations for solution in cold[1:]
    )
