"""The basis a re-solve carries across deleted rows and released columns.

``_HighsBackend`` re-installs the basis after a sync that deletes rows or
releases columns without reading HiGHS' status lists: the rows' statuses are
the ones HiGHS keeps through ``deleteRows``, and the columns' are derived
from the basic set, the last run's values and the column mirrors (see its
docstring and ``tests/solver/test_highs_contracts.py``).  ``_listed_basis``
is the earlier construction, kept as the oracle: HiGHS' lists read at the
drop, the deleted rows' statuses taken out, and each released column at the
default non-basic status for its bounds.  At every carry of the churn
scenarios whose call counts are pinned, of a per-job LAS drain, and of the
two fallbacks (an ambiguous fixed column, a ``getBasicVariables`` that is
not ``kOk``), the ``setBasis`` the backend makes must install exactly the
oracle's statuses.
"""

import collections
import contextlib
import math

import numpy as np
import pytest
from churn_fingerprint_scenarios import CALL_COUNT_CASES, churn_problems, session_solves

from repro.cluster import ClusterSpec
from repro.scheduler import ClusterScheduler, SchedulerConfig
from repro.solver import lp
from repro.solver.lp import LinearProgram
from repro.workloads import TraceGenerator

from tests.lp_rows import add_row, set_objective


def _listed_basis(backend, program, rows):
    """The statuses the earlier carry installed, or ``None`` when it installed none."""
    basis = backend._highs.getBasis()
    if not basis.valid:
        return None
    deleted = set(np.asarray(rows).tolist())
    row_status = [int(status) for row, status in enumerate(basis.row_status) if row not in deleted]
    col_status = [int(status) for status in basis.col_status]
    for column in program._hs_released:
        lower, upper = program._lower_buf[column], program._upper_buf[column]
        col_status[column] = int(
            lp._highs_core.HighsBasisStatus.kLower if lower > -math.inf
            else lp._highs_core.HighsBasisStatus.kUpper if upper < math.inf
            else lp._highs_core.HighsBasisStatus.kZero
        )  # fmt: skip
    return col_status, row_status


@contextlib.contextmanager
def _checked_carries(monkeypatch):
    """Check every carry against the oracle; yields counts of carries, derivations and reads."""
    seen = collections.Counter()
    drop, read = lp._HighsBackend._drop_rows_and_columns, lp._HighsBackend._read_col_status

    def checked(backend, program, rows, col_status):
        expected = _listed_basis(backend, program, rows)
        journalled = len(backend._journal)
        drop(backend, program, rows, col_status)
        installed = [entry[1] for entry in backend._journal[journalled:] if entry[0] == "setBasis"]
        if expected is None:
            assert not installed
            return
        (basis,) = installed
        assert ([int(s) for s in basis.col_status], [int(s) for s in basis.row_status]) == expected
        assert basis.alien
        seen["carries"] += 1
        seen["derived"] += col_status is not None
        seen["released"] += bool(program._hs_released)

    def counted(backend, program):
        seen["reads"] += 1
        return read(backend, program)

    monkeypatch.setattr(lp._HighsBackend, "_drop_rows_and_columns", checked)
    monkeypatch.setattr(lp._HighsBackend, "_read_col_status", counted)
    yield seen


@pytest.mark.parametrize(("policy_spec", "aggregation"), CALL_COUNT_CASES)
def test_churn_carries_install_the_listed_basis(monkeypatch, oracle, policy_spec, aggregation):
    with _checked_carries(monkeypatch) as seen:
        for _solved in session_solves(policy_spec, churn_problems(oracle), aggregation):
            pass
    assert seen["carries"] > 0
    # A carry that released columns derives them or reads them, never both.
    assert seen["derived"] + seen["reads"] == seen["released"]


def test_per_job_las_completions_carry_without_reading(monkeypatch, oracle):
    jobs = TraceGenerator(oracle).generate_continuous(24, 6.0, seed=5).jobs
    scheduler = ClusterScheduler(
        "max_min_fairness",
        ClusterSpec.from_counts({"v100": 2, "p100": 2, "k80": 2}, registry=oracle.registry),
        oracle=oracle,
        config=SchedulerConfig(mode="continuous"),
    )
    for job in jobs:
        scheduler.submit(job)
    with _checked_carries(monkeypatch) as seen:
        while scheduler.step():
            pass
    assert len(scheduler.status().completed_job_ids) == len(jobs)
    assert seen["carries"] >= len(jobs) - 1  # every completion but the last
    assert seen["derived"] == seen["carries"] and seen["reads"] == 0


def _program():
    """max x0 + x1 + x2 + x3 over [0, 1]^4 with two shared rows and a row per column."""
    program = LinearProgram("carry")
    xs = [program.add_variable(f"x{index}", upper=1.0) for index in range(4)]
    set_objective(program, {x.index: 1.0 for x in xs})
    shared = [
        add_row(program, {xs[0].index: 1.0, xs[1].index: 1.0}, upper=1.5),
        add_row(program, {xs[2].index: 1.0, xs[3].index: 1.0}, upper=1.2),
    ]
    own = [add_row(program, {x.index: 1.0}, upper=0.9) for x in xs]
    return program, xs, shared, own


def _retire(program, x, rows):
    """Scrub ``x`` from ``rows``, release it, and drop its own row: one carry."""
    program.remove_terms_from_constraints(rows[:-1], [x.index])
    program.release_variables([x.index])
    program.remove_constraints(rows[-1:])


class _Asked:
    """The live model, counting ``getBasicVariables`` calls; ``refuse``: answer ``kError``."""

    def __init__(self, highs, refuse=False):
        self._highs, self._refuse, self.asked = highs, refuse, 0

    def __getattr__(self, name):
        return getattr(self._highs, name)

    def getBasicVariables(self):
        self.asked += 1
        if self._refuse:
            return lp._highs_core.HighsStatus.kError, np.empty(0, np.int32)
        return self._highs.getBasicVariables()


def test_a_fixed_column_not_released_reads_the_list(monkeypatch):
    program, xs, shared, own = _program()
    program.solve()
    add_row(program, {xs[2].index: 1.0}, upper=0.5)
    program.solve()  # warm
    # Fixed, never released: ambiguous from now on.
    program.set_variable_bounds_from_arrays([xs[1].index], 0.0, 0.0)
    program.solve()
    backend = program._backend
    _status, basic = backend._highs.getBasicVariables()
    assert xs[1].index not in basic.tolist()
    backend._highs = asked = _Asked(backend._highs)
    with _checked_carries(monkeypatch) as seen:
        _retire(program, xs[0], [shared[0], own[0]])
        solution = program.solve()
    assert (seen["carries"], seen["released"], seen["derived"], seen["reads"]) == (1, 1, 0, 1)
    assert asked.asked == 0  # the fixed column alone sends the carry to the list
    assert solution.warm_started
    assert solution.objective_value == pytest.approx(1.2)  # x2 + x3, x1 fixed at 0


def test_a_basic_set_highs_will_not_give_reads_the_list(monkeypatch):
    program, xs, shared, own = _program()
    program.solve()
    add_row(program, {xs[2].index: 1.0}, upper=0.5)
    program.solve()  # warm
    backend = program._backend
    backend._highs = asked = _Asked(backend._highs, refuse=True)
    with _checked_carries(monkeypatch) as seen:
        _retire(program, xs[3], [shared[1], own[3]])
        solution = program.solve()
    assert (seen["carries"], seen["released"], seen["derived"], seen["reads"]) == (1, 1, 0, 1)
    assert asked.asked == 1
    assert solution.warm_started
    assert solution.objective_value == pytest.approx(1.5 + 0.5)


def test_the_derived_basis_matches_after_rows_without_coefficients(monkeypatch):
    """A model whose rows hold no coefficient never asks HiGHS for its basic set.

    HiGHS 1.12 answers ``getBasicVariables`` on such a model from memory it
    never set up (and crashes); the carry reads the list instead.
    """
    program = LinearProgram("empty rows")
    xs = [program.add_variable(f"x{index}", upper=1.0) for index in range(3)]
    set_objective(program, {x.index: 1.0 for x in xs})
    rows = [add_row(program, {}, upper=1.0) for _ in range(3)]
    program.solve()
    program.set_constraint_bounds_from_arrays([rows[1]], upper=2.0)
    program.solve()  # warm
    with _checked_carries(monkeypatch) as seen:
        program.release_variables([xs[0].index])
        program.remove_constraints([rows[0]])
        solution = program.solve()
    assert seen["carries"] == 1 and seen["derived"] == 0
    assert solution.objective_value == pytest.approx(2.0)
