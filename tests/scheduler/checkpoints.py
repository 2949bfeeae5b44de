"""Policy-session checkpoints as comparable values, for snapshot and restore tests.

A :class:`~repro.scheduler.service.SchedulerSnapshot` pins the live policy
session and holds a clone of it once the scheduler solves again; a restore
clones it once more and rebuilds each program's HiGHS model from the
program's call journal.  These helpers read what such copies must agree on:
the logical content of a session (per program its rows, bounds, objective and
journal) and the state of a live HiGHS model (its LP arrays and basis).
"""

import numpy as np


def _value(argument):
    """A journal argument as a plain comparable value."""
    if isinstance(argument, np.ndarray):
        return (str(argument.dtype), argument.tolist())
    if hasattr(argument, "col_status"):  # HiGHS' own basis object
        return (
            bool(argument.valid),
            bool(argument.alien),
            [int(status) for status in argument.col_status],
            [int(status) for status in argument.row_status],
        )
    return argument


def journal(program):
    """A program's call journal as values (``None``: it has no live model)."""
    if program._backend is None:
        return None
    return [tuple(_value(argument) for argument in entry) for entry in program._backend._journal]


def program_content(program):
    """What a copy of ``program`` must reproduce: rows, bounds, objective, ratio, journal."""
    rows = {
        handle: (
            row.indices.tolist(),
            row.values.tolist(),
            float(program._row_lower_buf[row.slot]),
            float(program._row_upper_buf[row.slot]),
        )
        for handle, row in program._constraints.items()
    }
    return (
        program.name,
        rows,
        program._lower.tolist(),
        program._upper.tolist(),
        program._objective_dense().tolist(),
        program._maximize,
        getattr(program, "_ratio", None),
        program.basis_rejections,
        journal(program),
    )


def session_content(session):
    """A policy session's logical content (``None``: no session)."""
    if session is None:
        return None
    return (type(session).__name__, [program_content(program) for program in session.programs()])


def checkpoint_content(snapshot):
    """A snapshot's session checkpoint: its solve count and the pinned session's content."""
    return len(snapshot.session_history), session_content(snapshot.session.state)


def model_state(program):
    """A program's live HiGHS model: LP arrays, sense, basis and solution (``None``: no model)."""
    if program._backend is None:
        return None
    highs = program._backend._highs
    lp, basis = highs.getLp(), highs.getBasis()
    matrix = lp.a_matrix_
    arrays = [
        lp.col_cost_, lp.col_lower_, lp.col_upper_, lp.row_lower_, lp.row_upper_,
        matrix.start_, matrix.index_, matrix.value_,
    ]
    return (
        [np.asarray(array).tolist() for array in arrays],
        int(matrix.format_),
        int(lp.sense_),
        bool(basis.valid),
        [int(status) for status in basis.col_status],
        [int(status) for status in basis.row_status],
        list(highs.getSolution().col_value),
    )


def model_states(session):
    """:func:`model_state` of every program of ``session``."""
    return [] if session is None else [model_state(program) for program in session.programs()]
