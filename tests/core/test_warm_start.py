"""The warm-start guard: a session's re-solves start from a basis and stay optimal.

A LAS session is driven through the engine's add/remove churn sequence
(``churn_problems``: every step retires one job and admits another).  Every
solve after the first must enter HiGHS with a valid basis, cost a fraction of
what the same problems cost solved cold, and reach the cold optimum — the
objective is unique even where the vertex is not.  This is what the 1.7x
session-vs-scratch gate of the Figure 12 benchmark rests on.

The water-filling family keeps *two* programs alive per session — the level
program and the Appendix A.1 detection program — and the same sequence must
find both warm from their second solve on, on the one pair of programs the
session was opened with.  So do makespan and finish-time fairness (the
scaling and the witness program), and their guard also bounds what a
re-allocation may cost: two LPs for makespan, exactly; at most four and at
most three on average for finish-time fairness, where the bracket search
they replaced took about ten.  Min cost and min cost with space sharing
solve their ratio by Dinkelbach's method on one program: every LP after the
session's first is warm, and a re-allocation takes one to five of them, two
on average, where the iteration starts from the previous ratio.
"""

import numpy as np
import pytest
from churn_fingerprint_scenarios import (
    churn_problems,
    policy_objective,
    session_allocations,
    session_solves,
)

from repro.core import WaterFillingAllocator, make_policy
from repro.core.water_filling import _LevelLoopProgram
from repro.solver.lp import LinearProgram

from tests.equivalence import LEVEL_PROFILE_TOL, water_filling_level_profile


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


@pytest.mark.parametrize("policy_spec", ["max_min_fairness_water_filling", "hierarchical"])
def test_water_filling_session_keeps_two_programs_warm(oracle, monkeypatch, policy_spec):
    """One detection program per session; every solve but each program's first is warm."""
    built = []
    init = LinearProgram.__init__

    def counting_init(program, name="lp"):
        built.append(name)
        init(program, name=name)

    solved = []
    solve = LinearProgram.solve

    def recording(program, *args, **kwargs):
        solved.append((program, solve(program, *args, **kwargs)))
        return solved[-1][1]

    in_play = []  # jobs in play, per level iteration
    begin = _LevelLoopProgram._begin_iteration

    def counting_begin(loop, weights, levels, playing):
        in_play.append(int(np.count_nonzero(playing)))
        return begin(loop, weights, levels, playing)

    monkeypatch.setattr(LinearProgram, "__init__", counting_init)
    monkeypatch.setattr(LinearProgram, "solve", recording)
    monkeypatch.setattr(_LevelLoopProgram, "_begin_iteration", counting_begin)
    steps = churn_problems(oracle)
    policy = make_policy(policy_spec)
    session = policy.session(steps[0][0])
    results = []
    for step, (problem, deltas) in enumerate(steps):
        if step:
            session.apply(deltas)
        results.append((session.solve(problem), session.last_result))
    assert built == [policy.display_name, "water_filling_detection"]

    level, detection = session.program, session.detection_program
    assert {id(program) for program, _ in solved} == {id(level), id(detection)}
    for program in (level, detection):
        flags = [solution.warm_started for owner, solution in solved if owner is program]
        assert flags == [False] + [True] * (len(flags) - 1), program.name
        assert program.basis_rejections == 0
    # One detection per level iteration, except where a lone job was in play.
    iterations = sum(result.iterations for _, result in results)
    detections = sum(result.detection_solves for _, result in results)
    assert len(in_play) == iterations == sum(owner is level for owner, _ in solved)
    assert detections == iterations - in_play.count(1) >= len(steps)
    assert sum(owner is detection for owner, _ in solved) == detections

    # Cold one-shot runs of the same problems: same profile, same freeze sizes.
    monkeypatch.undo()
    for step, (problem, _deltas) in enumerate(steps):
        allocation, result = results[step]
        cold = WaterFillingAllocator(problem, policy.effective_matrix(problem)).run(
            policy.water_filling_weights(problem),
            redistribute=policy.water_filling_redistribution(problem),
        )
        assert result.milp_fallbacks == cold.milp_fallbacks == 0
        assert [len(frozen) for frozen in result.bottleneck_order] == [
            len(frozen) for frozen in cold.bottleneck_order
        ], step
        np.testing.assert_allclose(
            water_filling_level_profile(policy, problem, allocation),
            water_filling_level_profile(policy, problem, cold.allocation),
            atol=LEVEL_PROFILE_TOL,
            err_msg=f"step {step}",
        )


@pytest.mark.parametrize(
    "policy_spec",
    ["makespan", "makespan+ss", "finish_time_fairness", "finish_time_fairness+ss"],
)
def test_scalar_session_solves_few_lps_on_two_warm_programs(oracle, monkeypatch, policy_spec):
    """Two programs per session, warm after their first solve, a handful of LPs per event."""
    built = []
    init = LinearProgram.__init__

    def counting_init(program, name="lp"):
        built.append(name)
        init(program, name=name)

    solved = []
    solve = LinearProgram.solve

    def recording(program, *args, **kwargs):
        solved.append((program, solve(program, *args, **kwargs)))
        return solved[-1][1]

    monkeypatch.setattr(LinearProgram, "__init__", counting_init)
    monkeypatch.setattr(LinearProgram, "solve", recording)
    steps = churn_problems(oracle)
    policy = make_policy(policy_spec)
    per_step = []
    for session, _allocation in session_solves(policy_spec, steps):
        per_step.append(len(solved) - sum(per_step))
        lower, upper = session.last_bracket
        assert upper - lower <= policy.relative_tolerance * upper
    assert built == [policy.display_name, "throughput_scaling"]

    witness, scaling = session.program, session.scaling_program
    assert {id(program) for program, _ in solved} == {id(witness), id(scaling)}
    for program in (witness, scaling):
        flags = [solution.warm_started for owner, solution in solved if owner is program]
        assert flags == [False] + [True] * (len(flags) - 1), program.name
        assert program.basis_rejections == 0
    # One witness LP per re-allocation; the rest are scaling LPs.
    assert sum(owner is witness for owner, _ in solved) == len(steps)
    if policy_spec.startswith("makespan"):
        assert per_step == [2] * len(steps)
    else:
        assert max(per_step) <= 4
        assert sum(per_step) <= 3 * len(steps)


@pytest.mark.parametrize("policy_spec", ["min_cost", "min_cost+ss"])
def test_dinkelbach_session_re_solves_warm_in_few_lps(oracle, solutions, policy_spec):
    steps = churn_problems(oracle, num_events=12)
    per_step, live = [], []
    for (problem, _deltas), (_session, allocation) in zip(steps, session_solves(policy_spec, steps)):
        per_step.append(len(solutions) - sum(per_step))
        live.append(policy_objective(policy_spec, problem, allocation))
    assert [solution.warm_started for solution in solutions] == [False] + [True] * (
        len(solutions) - 1
    )
    assert max(per_step[1:]) <= 5, per_step
    assert sum(per_step) <= 2.5 * len(steps), per_step
    # The ratio is the cold one-shot optimum, whatever vertex the history picked.
    for step, (problem, _deltas) in enumerate(steps):
        cold = make_policy(policy_spec).session(problem).solve(problem)
        assert live[step] == pytest.approx(
            policy_objective(policy_spec, problem, cold), rel=1e-9
        ), step
