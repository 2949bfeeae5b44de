"""Effective throughput and the reference allocations used to normalize it.

``throughput(m, X)`` — the *effective throughput* of job ``m`` under
allocation ``X`` — is the time-weighted average throughput over every
(combination, accelerator type) the job runs in:

    throughput(m, X) = sum_{k: m in k} sum_j T[k, j, m] * X[k, j]

Policies normalize this quantity against reference allocations:

* ``X^equal`` — the job runs all the time, spread over accelerator types in
  proportion to their counts (Section 4.1's fairness normalizer);
* ``X^isolated`` — the job receives a dedicated 1/n share of the cluster
  (finish-time fairness, Section 4.2);
* ``X^fastest`` — the job runs exclusively on its fastest accelerator type
  (FIFO, Section 4.2).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.cluster_spec import ClusterSpec
from repro.core.allocation import Allocation
from repro.core.throughput_matrix import ThroughputMatrix
from repro.exceptions import ConfigurationError

__all__ = [
    "effective_throughput",
    "effective_throughputs",
    "equal_share_reference_throughput",
    "isolated_reference_throughput",
    "isolated_reference_throughputs",
    "fastest_reference_throughput",
    "normalized_throughput_scale",
]


def effective_throughput(matrix: ThroughputMatrix, allocation: Allocation, job_id: int) -> float:
    """Effective throughput of ``job_id`` under ``allocation`` (steps/second).

    Rows of the throughput matrix that the allocation does not cover (for
    example pair rows when the allocation was computed without space sharing)
    contribute nothing.
    """
    total = 0.0
    for combination, position in matrix.rows_containing(job_id):
        if not allocation.has_row(combination):
            continue
        row = matrix.row(combination)[position]
        total += float(np.dot(row, allocation.row(combination)))
    return total


def effective_throughputs(matrix: ThroughputMatrix, allocation: Allocation) -> Dict[int, float]:
    """:func:`effective_throughput` of every job of ``matrix`` at once.

    One pass over the matrix's columnar view instead of one walk per job;
    equal to the scalar function up to floating-point summation order.
    """
    dense = matrix.dense_rows()
    if allocation.combinations == dense.combinations:
        shares = allocation.matrix
    else:
        # Rows the allocation does not cover contribute nothing.
        shares = np.zeros((len(dense.combinations), len(matrix.registry)))
        row_of = {combination: row for row, combination in enumerate(allocation.combinations)}
        for row, combination in enumerate(dense.combinations):
            covered = row_of.get(combination)
            if covered is not None:
                shares[row] = allocation.matrix[covered]
    per_member = (dense.values * shares[dense.member_rows]).sum(axis=1)
    totals = np.bincount(dense.member_ordinals, weights=per_member, minlength=len(dense.job_ids))
    return dict(zip(dense.job_ids.tolist(), totals.tolist()))


def equal_share_reference_throughput(
    matrix: ThroughputMatrix, cluster_spec: ClusterSpec, job_id: int
) -> float:
    """``throughput(m, X^equal_m)``: time split across types proportionally to their counts.

    With one V100 and one K80, ``X^equal = [0.5, 0.5]``; in general the
    fraction of time on type ``j`` is ``num_workers_j / total_workers``.  Only
    the job's own singleton (isolated) throughputs are used.
    """
    counts = cluster_spec.counts_vector()
    total_workers = counts.sum()
    if total_workers <= 0:
        raise ConfigurationError("cluster has no workers")
    reference = counts / total_workers
    return float(np.dot(matrix.isolated_throughputs(job_id), reference))


def isolated_reference_throughput(
    matrix: ThroughputMatrix,
    cluster_spec: ClusterSpec,
    job_id: int,
    num_jobs: int,
    scale_factor: int = 1,
) -> float:
    """``throughput(m, X^isolated)``: a dedicated 1/n slice of the cluster.

    A job that needs ``scale_factor`` workers at a time can turn a slice of
    ``num_workers_j / n`` devices of type ``j`` into a time fraction of
    ``num_workers_j / (n * scale_factor)`` on that type; the total time
    fraction is capped at 1 (a job cannot run more than all of the time).
    """
    if num_jobs <= 0:
        raise ConfigurationError(f"num_jobs must be positive, got {num_jobs}")
    if scale_factor <= 0:
        raise ConfigurationError(f"scale_factor must be positive, got {scale_factor}")
    counts = cluster_spec.counts_vector()
    fractions = counts / (num_jobs * scale_factor)
    total = fractions.sum()
    if total > 1.0:
        fractions = fractions / total
    return float(np.dot(matrix.isolated_throughputs(job_id), fractions))


def isolated_reference_throughputs(
    matrix: ThroughputMatrix, cluster_spec: ClusterSpec, scale_factors: np.ndarray
) -> np.ndarray:
    """:func:`isolated_reference_throughput` of every job of ``matrix`` at once.

    One entry per job in the matrix's (sorted) job order, each for a 1/n
    slice with ``n`` the matrix's own job count; ``scale_factors`` is aligned
    the same way.  One pass over the singleton block instead of one
    ``counts_vector()`` and one fraction vector per job; equal to the scalar
    function up to floating-point summation order.
    """
    _job_ids, singles = matrix.singles_matrix()
    scales = np.asarray(scale_factors, dtype=float)
    if scales.shape != (len(singles),):
        raise ConfigurationError(
            f"expected one scale factor per job ({len(singles)}), got shape {scales.shape}"
        )
    if np.any(scales <= 0):
        raise ConfigurationError("scale factors must be positive")
    fractions = cluster_spec.counts_vector()[None, :] / (len(singles) * scales)[:, None]
    fractions /= np.maximum(fractions.sum(axis=1, keepdims=True), 1.0)
    return (singles * fractions).sum(axis=1)


def fastest_reference_throughput(matrix: ThroughputMatrix, job_id: int) -> float:
    """``throughput(m, X^fastest)``: run 100% of the time on the fastest type."""
    return float(matrix.isolated_throughputs(job_id).max())


def normalized_throughput_scale(
    matrix: ThroughputMatrix,
    cluster_spec: ClusterSpec,
    job_id: int,
    scale_factor: int = 1,
    priority_weight: float = 1.0,
) -> float:
    """Factor turning ``throughput(m, X)`` into a normalized fairness term.

    ``scale_factor / (priority_weight * throughput(m, X^equal_m))`` — the
    scaffolding shared by the LAS epigraph objective (Section 4.1) and the
    water-filling level loop (Section 4.3; water filling passes the default
    ``priority_weight`` because it carries per-iteration weights separately).
    Raises :class:`ConfigurationError` when the job cannot run on any
    accelerator type, which would make the normalization meaningless.
    """
    reference = equal_share_reference_throughput(matrix, cluster_spec, job_id)
    if reference <= 0:
        raise ConfigurationError(
            f"job {job_id} has zero throughput on every accelerator type"
        )
    return scale_factor / (priority_weight * reference)
