"""Reproduction of Gavel: heterogeneity-aware cluster scheduling for DNN training.

The public API re-exports the most commonly used pieces; see the subpackages
for the full surface:

* :mod:`repro.cluster` — accelerator types, cluster specs, topology, placement;
* :mod:`repro.workloads` — jobs, the Table 2 workload, throughput oracles, traces;
* :mod:`repro.core` — allocation matrices and every scheduling policy;
* :mod:`repro.scheduler` — the round-based scheduling mechanism;
* :mod:`repro.simulator` — the cluster simulator and its metrics;
* :mod:`repro.estimator` — the matrix-completion throughput estimator;
* :mod:`repro.harness` — experiment sweeps, runtime measurement and reporting.

The package is the scheduler and its experiment harness only: the source
rules (``tests/test_source_rules.py``) and the session-equivalence driver
(``tests/equivalence.py``) live under ``tests/``, and importing ``repro``
loads neither.
"""

from repro.cluster import AcceleratorRegistry, AcceleratorType, ClusterSpec, default_registry
from repro.core import (
    Allocation,
    AllocationEngine,
    EntitySpec,
    FifoPolicy,
    FinishTimeFairnessPolicy,
    HierarchicalPolicy,
    MakespanPolicy,
    MaxMinFairnessPolicy,
    MinCostPolicy,
    MinCostWithSLOsPolicy,
    Policy,
    PolicyProblem,
    PolicySession,
    ThroughputMatrix,
    available_policies,
    build_throughput_matrix,
    effective_throughput,
    make_policy,
    parse_policy_spec,
)
from repro.estimator import ThroughputEstimator
from repro.harness import run_load_sweep, run_policy_on_trace
from repro.scheduler import (
    Clock,
    ClusterScheduler,
    SchedulerConfig,
    SchedulerSnapshot,
    SchedulerStatus,
    VirtualClock,
    WallClock,
)
from repro.simulator import SimulationResult, Simulator, SimulatorConfig
from repro.workloads import (
    ColocationModel,
    Job,
    ThroughputOracle,
    Trace,
    TraceGenerator,
    TraceGeneratorConfig,
    default_job_type_table,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # cluster
    "AcceleratorType",
    "AcceleratorRegistry",
    "ClusterSpec",
    "default_registry",
    # workloads
    "Job",
    "ThroughputOracle",
    "ColocationModel",
    "Trace",
    "TraceGenerator",
    "TraceGeneratorConfig",
    "default_job_type_table",
    # core
    "Policy",
    "PolicyProblem",
    "PolicySession",
    "AllocationEngine",
    "Allocation",
    "ThroughputMatrix",
    "build_throughput_matrix",
    "effective_throughput",
    "MaxMinFairnessPolicy",
    "FifoPolicy",
    "MakespanPolicy",
    "FinishTimeFairnessPolicy",
    "MinCostPolicy",
    "MinCostWithSLOsPolicy",
    "HierarchicalPolicy",
    "EntitySpec",
    "make_policy",
    "available_policies",
    "parse_policy_spec",
    # scheduler service
    "ClusterScheduler",
    "SchedulerConfig",
    "SchedulerStatus",
    "SchedulerSnapshot",
    "Clock",
    "VirtualClock",
    "WallClock",
    # simulator / estimator / harness
    "Simulator",
    "SimulatorConfig",
    "SimulationResult",
    "ThroughputEstimator",
    "run_policy_on_trace",
    "run_load_sweep",
]
