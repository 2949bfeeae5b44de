"""Cluster specifications: how many workers of each accelerator type exist.

A :class:`ClusterSpec` is the static description of a cluster that policies
need (``num_workers_j`` in the constraints of Section 3.1).  The dynamic
topology — which physical server each accelerator lives in — is modelled by
:mod:`repro.cluster.worker` and used by the placement logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.cluster.accelerators import AcceleratorRegistry, AcceleratorType, default_registry
from repro.exceptions import ConfigurationError, UnknownAcceleratorError

__all__ = ["ClusterSpec"]


@dataclass(frozen=True)
class ClusterSpec:
    """Number of workers (accelerators) of each type in a cluster.

    Attributes:
        registry: The accelerator registry fixing column order.
        counts: Mapping from accelerator name to number of devices.
    """

    registry: AcceleratorRegistry
    counts: Mapping[str, int]

    def __deepcopy__(self, memo: dict) -> "ClusterSpec":
        return self  # immutable: a deep copy (a policy-session clone) shares it

    def __post_init__(self) -> None:
        for name, count in self.counts.items():
            if name not in self.registry:
                raise UnknownAcceleratorError(
                    f"cluster spec references unknown accelerator {name!r}"
                )
            if count < 0 or int(count) != count:
                raise ConfigurationError(
                    f"cluster spec count for {name!r} must be a non-negative integer, got {count}"
                )
        if self.total_workers() == 0:
            raise ConfigurationError("cluster spec must contain at least one worker")

    # -- constructors ---------------------------------------------------------
    @classmethod
    def from_counts(
        cls,
        counts: Mapping[str, int],
        registry: Optional[AcceleratorRegistry] = None,
    ) -> "ClusterSpec":
        """Build a spec from ``{"v100": 8, "p100": 16, ...}``."""
        registry = registry if registry is not None else default_registry()
        normalized = {name: int(counts.get(name, 0)) for name in registry.names}
        return cls(registry=registry, counts=normalized)

    @classmethod
    def physical_paper_cluster(cls) -> "ClusterSpec":
        """The paper's 48-GPU physical cluster: 8 V100, 16 P100, 24 K80."""
        return cls.from_counts({"v100": 8, "p100": 16, "k80": 24})

    @classmethod
    def simulated_paper_cluster(cls) -> "ClusterSpec":
        """The paper's 108-GPU simulated cluster: 36 of each type."""
        return cls.from_counts({"v100": 36, "p100": 36, "k80": 36})

    @classmethod
    def small_cluster(cls, per_type: int = 3) -> "ClusterSpec":
        """A small cluster with ``per_type`` devices of each type (Figure 11 uses 3)."""
        return cls.from_counts({"v100": per_type, "p100": per_type, "k80": per_type})

    # -- queries --------------------------------------------------------------
    def count(self, accelerator: "AcceleratorType | str") -> int:
        """Number of devices of the given accelerator type."""
        name = accelerator.name if isinstance(accelerator, AcceleratorType) else accelerator
        if name not in self.registry:
            raise UnknownAcceleratorError(f"unknown accelerator type {name!r}")
        return int(self.counts.get(name, 0))

    def counts_vector(self) -> np.ndarray:
        """Worker counts as a vector in registry column order (``num_workers_j``).

        The vector is computed once per (immutable) spec; callers receive a
        fresh copy each time, so they may mutate it freely.
        """
        cached = getattr(self, "_counts_vector", None)
        if cached is None:
            cached = np.array([self.count(name) for name in self.registry.names], dtype=float)
            object.__setattr__(self, "_counts_vector", cached)
        return cached.copy()

    def total_workers(self) -> int:
        """Total number of devices across all types."""
        return int(sum(int(v) for v in self.counts.values()))

    def cost_per_hour(self) -> float:
        """Dollar cost per hour of keeping the full cluster rented."""
        return float(
            sum(self.count(t) * t.cost_per_hour for t in self.registry.types)
        )

    def scaled(self, factor: int) -> "ClusterSpec":
        """Return a spec with every per-type count multiplied by ``factor``."""
        if factor <= 0 or int(factor) != factor:
            raise ConfigurationError(f"scale factor must be a positive integer, got {factor}")
        return ClusterSpec.from_counts(
            {name: self.count(name) * int(factor) for name in self.registry.names},
            registry=self.registry,
        )

    def with_counts(self, **overrides: int) -> "ClusterSpec":
        """Return a copy with some per-type counts replaced."""
        merged = dict(self.counts)
        merged.update(overrides)
        return ClusterSpec.from_counts(merged, registry=self.registry)

    def __str__(self) -> str:
        parts = ", ".join(f"{name}={self.count(name)}" for name in self.registry.names)
        return f"ClusterSpec({parts})"
