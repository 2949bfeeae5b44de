"""Gavel's core contribution: heterogeneity-aware scheduling policies."""

from repro.core.aggregation import (
    AGGREGATION_SUPPORTED_BASES,
    AggregatedProblem,
    AggregatedSession,
    AggregationKey,
    aggregation_key,
    supports_type_aggregation,
)
from repro.core.allocation import Allocation
from repro.core.allocation_engine import AllocationEngine, PairThroughputCache
from repro.core.baselines import AlloXPolicy, GandivaPolicy, IsolatedPolicy
from repro.core.effective_throughput import (
    effective_throughput,
    effective_throughputs,
    equal_share_reference_throughput,
    fastest_reference_throughput,
    isolated_reference_throughput,
    normalized_throughput_scale,
)
from repro.core.fifo import FifoPolicy
from repro.core.finish_time_fairness import FinishTimeFairnessPolicy, finish_time_fairness_rho
from repro.core.hierarchical import EntitySpec, HierarchicalPolicy, WaterFillingFairnessPolicy
from repro.core.makespan import MakespanPolicy
from repro.core.max_min_fairness import MaxMinFairnessPolicy
from repro.core.max_throughput import MaxTotalThroughputPolicy
from repro.core.min_cost import MinCostPolicy, MinCostWithSLOsPolicy
from repro.core.policy import AllocationVariables, OptimizationPolicy, Policy
from repro.core.problem import PolicyProblem
from repro.core.registry import available_policies, make_policy, parse_policy_spec
from repro.core.session import (
    EstimateRefined,
    IncrementalLPSession,
    JobAdded,
    JobRemoved,
    PolicyDelta,
    PolicySession,
    RebuildSession,
    TypeCountChanged,
)
from repro.core.shortest_job_first import ShortestJobFirstPolicy
from repro.core.throughput_matrix import JobCombination, ThroughputMatrix, build_throughput_matrix
from repro.core.water_filling import (
    WaterFillingAllocator,
    WaterFillingResult,
    WaterFillingSession,
)

__all__ = [
    "Allocation",
    "AllocationEngine",
    "PairThroughputCache",
    "PolicyProblem",
    "Policy",
    "OptimizationPolicy",
    "AllocationVariables",
    "ThroughputMatrix",
    "JobCombination",
    "build_throughput_matrix",
    "effective_throughput",
    "effective_throughputs",
    "equal_share_reference_throughput",
    "isolated_reference_throughput",
    "fastest_reference_throughput",
    "normalized_throughput_scale",
    "MaxMinFairnessPolicy",
    "WaterFillingFairnessPolicy",
    "WaterFillingAllocator",
    "WaterFillingResult",
    "WaterFillingSession",
    "FifoPolicy",
    "MakespanPolicy",
    "FinishTimeFairnessPolicy",
    "finish_time_fairness_rho",
    "ShortestJobFirstPolicy",
    "MaxTotalThroughputPolicy",
    "MinCostPolicy",
    "MinCostWithSLOsPolicy",
    "HierarchicalPolicy",
    "EntitySpec",
    "IsolatedPolicy",
    "GandivaPolicy",
    "AlloXPolicy",
    "available_policies",
    "make_policy",
    "parse_policy_spec",
    "PolicySession",
    "RebuildSession",
    "IncrementalLPSession",
    "PolicyDelta",
    "JobAdded",
    "JobRemoved",
    "EstimateRefined",
    "TypeCountChanged",
    "AGGREGATION_SUPPORTED_BASES",
    "AggregatedProblem",
    "AggregatedSession",
    "AggregationKey",
    "aggregation_key",
    "supports_type_aggregation",
]
