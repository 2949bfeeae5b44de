"""Experiment harness: sweeps, runtime measurement and reporting.

The session-equivalence driver the tests use lives beside them in
``tests/equivalence.py``; the runtime package does not import it.
"""

from repro.harness.experiments import (
    LoadSweepPoint,
    measure_aggregated_solve_runtime,
    measure_lp_build_runtime,
    measure_matrix_prep_runtime,
    measure_policy_runtime,
    measure_policy_solve_under_churn,
    run_load_sweep,
    run_policy_on_trace,
    steady_state_job_ids,
)
from repro.harness.reporting import format_series, format_table, speedup, summarize_cdf

__all__ = [
    "run_policy_on_trace",
    "run_load_sweep",
    "measure_policy_runtime",
    "measure_matrix_prep_runtime",
    "measure_policy_solve_under_churn",
    "measure_lp_build_runtime",
    "measure_aggregated_solve_runtime",
    "steady_state_job_ids",
    "LoadSweepPoint",
    "format_table",
    "format_series",
    "summarize_cdf",
    "speedup",
]
