"""Regression tests: HiGHS edit/solve statuses must be checked, not dropped.

PR 6 fixed an ``addRows`` whose rejection was silently ignored, leaving the
live model desynchronised from the program.  These tests wrap the live
backend in a proxy that forces ``kError`` from individual calls and assert
the backend surfaces it as :class:`SolverError` instead of answering from a
diverged model.
"""

import re

import numpy as np
import pytest
from scipy.optimize._highspy import _core as _highs_core

from repro.cluster import ClusterSpec
from repro.core import PolicyProblem, build_throughput_matrix, make_policy
from repro.core.effective_throughput import effective_throughputs
from repro.exceptions import SolverError
from repro.solver import LinearProgram
from repro.solver.lp import _HighsBackend
from repro.workloads import ThroughputOracle, TraceGenerator

from tests.equivalence import LEVEL_PROFILE_TOL, water_filling_level_profile
from tests.lp_rows import add_row, set_objective


class _ForcedError:
    """Delegating proxy that performs the real call but reports ``kError``.

    ``on_call`` restricts the forced status to the n-th call of the method
    (1-based); by default every call reports the error.
    """

    def __init__(self, real, failing_method, on_call=None):
        self._real = real
        self._failing_method = failing_method
        self._on_call = on_call
        self._calls = 0

    def __getattr__(self, name):
        attribute = getattr(self._real, name)
        if name != self._failing_method:
            return attribute

        def forced(*args, **kwargs):
            status = attribute(*args, **kwargs)
            self._calls += 1
            if self._on_call is None or self._calls == self._on_call:
                return _highs_core.HighsStatus.kError
            return status

        return forced


def _warm_program():
    lp = LinearProgram(name="status-guard")
    x = lp.add_variable("x", upper=4.0)
    y = lp.add_variable("y", upper=3.0)
    add_row(lp, {x.index: 1.0, y.index: 1.0}, upper=5.0)
    set_objective(lp, {x.index: 2.0, y.index: 1.0})
    lp.solve()  # instantiate the warm-started backend
    assert lp._backend is not None
    return lp, x, y


def test_run_error_raises_solver_error():
    lp, _x, _y = _warm_program()
    lp._backend._highs = _ForcedError(lp._backend._highs, "run")
    with pytest.raises(SolverError, match="run failed"):
        lp.solve()


def test_add_rows_error_raises_solver_error():
    lp, x, y = _warm_program()
    lp._backend._highs = _ForcedError(lp._backend._highs, "addRows")
    add_row(lp, {x.index: 1.0, y.index: -1.0}, upper=1.0)  # forces an addRows on the next replay
    with pytest.raises(SolverError, match="addRows failed"):
        lp.solve()


def test_delete_rows_error_raises_solver_error():
    lp, x, y = _warm_program()
    handle = add_row(lp, {x.index: 1.0, y.index: -1.0}, upper=1.0)
    lp.solve()
    lp._backend._highs = _ForcedError(lp._backend._highs, "deleteRows")
    lp.remove_constraints([handle])
    with pytest.raises(SolverError, match="deleteRows failed"):
        lp.solve()


def test_failed_sync_falls_back_to_a_cold_rebuild():
    """A rejected edit must not leave later solves answering for a diverged model.

    ``deleteRows`` really deletes the row but reports ``kError``, so the
    backend's row maps and the program's edit journal are half-advanced when
    the error surfaces.  Replaying them would delete whichever row now sits
    at the stale index (here the binding ``x <= 2``); the next solve must pass
    the full model instead.
    """
    lp, x, y = _warm_program()
    doomed = add_row(lp, {x.index: 1.0, y.index: -1.0}, upper=1.0)
    add_row(lp, {x.index: 1.0}, upper=2.0)
    assert lp.solve().objective_value == pytest.approx(7.0)
    real = lp._backend._highs
    lp._backend._highs = _ForcedError(real, "deleteRows")
    lp.remove_constraints([doomed])
    with pytest.raises(SolverError, match="deleteRows failed"):
        lp.solve()
    if lp._backend is not None:
        lp._backend._highs = real
    recovered = lp.solve()

    fresh = LinearProgram()
    fx = fresh.add_variable("x", upper=4.0)
    fy = fresh.add_variable("y", upper=3.0)
    add_row(fresh, {fx.index: 1.0, fy.index: 1.0}, upper=5.0)
    add_row(fresh, {fx.index: 1.0}, upper=2.0)
    set_objective(fresh, {fx.index: 2.0, fy.index: 1.0})
    cold = fresh.solve()
    assert recovered.objective_value == pytest.approx(cold.objective_value)
    assert recovered.values[x.index] == pytest.approx(cold.values[fx.index])
    assert recovered.values[y.index] == pytest.approx(cold.values[fy.index])


def test_rejected_basis_is_counted_never_raised():
    """``setBasis`` is a hint: ``kError`` costs the warm start, not the solve."""
    lp, x, y = _warm_program()
    doomed = add_row(lp, {x.index: 1.0, y.index: -1.0}, upper=1.0)
    assert lp.solve().objective_value == pytest.approx(8.0)
    lp._backend._highs = _ForcedError(lp._backend._highs, "setBasis")
    lp.remove_constraints([doomed])  # a real row deletion: the basis is carried across it
    recovered = lp.solve()
    assert lp.basis_rejections == 1
    assert lp._backend._highs._calls == 1

    fresh, fx, fy = _warm_program()
    cold = fresh.solve()
    assert recovered.objective_value == pytest.approx(cold.objective_value)
    assert recovered.values[x.index] == pytest.approx(cold.values[fx.index])
    assert recovered.values[y.index] == pytest.approx(cold.values[fy.index])


class _Recorder:
    """Delegating proxy that records the arguments of the named HiGHS calls."""

    def __init__(self, real, *methods):
        self._real = real
        self.calls = {method: [] for method in methods}

    def __getattr__(self, name):
        attribute = getattr(self._real, name)
        if name not in self.calls:
            return attribute

        def recorded(*args):
            self.calls[name].append(args)
            return attribute(*args)

        return recorded


def test_only_moved_columns_are_pushed_to_the_live_model():
    """A re-solve pushes the columns whose bounds or costs moved, and no others."""
    lp, x, y = _warm_program()
    z = lp.add_variable("z", upper=1.0)  # a new column arrives with its bounds
    recorder = _Recorder(
        lp._backend._highs, "addCols", "changeColsBounds", "changeColsCost", "changeObjectiveSense"
    )
    lp._backend._highs = recorder
    lp.set_variable_bounds_from_arrays([y.index], 0.0, 2.0)
    set_objective(lp, {x.index: 2.0, y.index: 1.0, z.index: 3.0})
    assert lp.solve().objective_value == pytest.approx(2.0 * 4.0 + 1.0 + 3.0)
    assert [call[0] for call in recorder.calls["addCols"]] == [1]
    ((count, columns, lowers, uppers),) = recorder.calls["changeColsBounds"]
    assert (count, list(columns), list(lowers), list(uppers)) == (1, [y.index], [0.0], [2.0])
    ((count, columns, costs),) = recorder.calls["changeColsCost"]
    assert (count, list(columns), list(costs)) == (1, [z.index], [3.0])
    assert recorder.calls["changeObjectiveSense"] == []

    for calls in recorder.calls.values():
        calls.clear()
    lp.solve()  # nothing moved: nothing is pushed
    assert not any(recorder.calls.values())
    set_objective(lp, {x.index: 2.0, y.index: 1.0, z.index: 3.0}, maximize=False)
    assert lp.solve().objective_value == pytest.approx(0.0)
    assert len(recorder.calls["changeObjectiveSense"]) == 1
    assert recorder.calls["changeColsBounds"] == recorder.calls["changeColsCost"] == []


def _contended_problem(num_jobs=6, per_type=1):
    oracle = ThroughputOracle()
    jobs = list(TraceGenerator(oracle).generate_static(num_jobs=num_jobs, seed=3).jobs)
    return PolicyProblem(
        jobs={job.job_id: job for job in jobs},
        throughputs=build_throughput_matrix(jobs, oracle),
        cluster_spec=ClusterSpec.from_counts(
            {"v100": per_type, "p100": per_type, "k80": per_type}
        ),
    )


@pytest.mark.parametrize("failing", ["scaling", "witness"])
@pytest.mark.parametrize("spec", ["makespan", "finish_time_fairness"])
def test_hard_failure_in_a_scalar_session_is_not_infeasible(spec, failing, monkeypatch):
    """``kError`` on a scaling or a witness solve must raise, not loosen the optimum.

    Reading the failure as "infeasible" would silently return a looser
    makespan / fairness ratio (or none at all).  The session keeps two live
    programs; the failure drops the live model of the one it hit and leaves
    the other alone, and the next solve on the same session passes that one
    model again, cold, and certifies what a fresh session certifies.
    """
    problem = _contended_problem()
    policy = make_policy(spec)
    session = policy.session(problem)
    session.solve(problem)
    programs = {"scaling": session.scaling_program, "witness": session.program}
    broken = programs.pop(failing)
    (other,) = programs.values()
    backend = broken._backend
    backend._highs = _ForcedError(backend._highs, "run", on_call=1)
    with pytest.raises(SolverError, match=f"{re.escape(broken.name)}: HiGHS run failed"):
        session.solve(problem)
    assert backend._highs._calls == 1
    assert broken._backend is None and other._backend is not None

    passed = []
    pass_full_model = _HighsBackend._pass_full_model

    def recording(backend, program):
        passed.append(program.name)
        pass_full_model(backend, program)

    monkeypatch.setattr(_HighsBackend, "_pass_full_model", recording)
    recovered = session.solve(problem)
    assert passed == [broken.name]
    monkeypatch.undo()

    fresh = policy.session(problem)
    expected = fresh.solve(problem)
    assert session.last_bracket == pytest.approx(fresh.last_bracket, rel=1e-9)
    matrix = policy.effective_matrix(problem)
    for allocation in (recovered, expected):
        allocation.validate(problem.cluster_spec)
    # Both witnesses maximize total throughput over the same requirements.
    assert sum(effective_throughputs(matrix, recovered).values()) == pytest.approx(
        sum(effective_throughputs(matrix, expected).values()), rel=1e-7
    )


def test_hard_failure_in_bottleneck_detection_is_not_a_bottleneck(monkeypatch):
    """``kError`` on a detection solve must raise, not freeze every job.

    The level loop turns an *infeasible* detection into an empty improvable
    set (counted in ``WaterFillingResult.infeasible_detections``); a hard
    solver failure on the detection program is not that and must propagate.
    The detection program lives as long as the session, so the failure must
    also drop its live model: the next solve on the same session passes that
    one model again, cold, and nothing of the aborted loop (level and floor
    bounds swept for an iteration that never finished) shows in its result.
    """
    problem = _contended_problem(num_jobs=5, per_type=2)
    policy = make_policy("hierarchical")
    session = policy.session(problem)
    session.solve(problem)
    assert session.last_result.infeasible_detections == 0
    assert session.last_result.iterations == 2

    # Fail the second detection of the next run: one iteration has completed,
    # the second has swept its bounds and solved its level LP.
    detection = session.detection_program
    backend = detection._backend
    backend._highs = _ForcedError(backend._highs, "run", on_call=2)
    with pytest.raises(SolverError, match="water_filling_detection: HiGHS run failed"):
        session.solve(problem)
    assert backend._highs._calls == 2
    assert detection._backend is None and session.program._backend is not None

    passed = []
    pass_full_model = _HighsBackend._pass_full_model

    def recording(backend, program):
        passed.append(program.name)
        pass_full_model(backend, program)

    monkeypatch.setattr(_HighsBackend, "_pass_full_model", recording)
    recovered = session.solve(problem)
    assert passed == ["water_filling_detection"]
    assert session.detection_program is detection
    fresh = policy.compute_with_diagnostics(problem)
    assert session.last_result.bottleneck_order == fresh.bottleneck_order
    np.testing.assert_allclose(
        water_filling_level_profile(policy, problem, recovered),
        water_filling_level_profile(policy, problem, fresh.allocation),
        atol=LEVEL_PROFILE_TOL,
    )
