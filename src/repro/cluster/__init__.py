"""Cluster model: accelerator types, cluster specifications, topology, placement."""

from repro.cluster.accelerators import (
    DEFAULT_ACCELERATOR_TYPES,
    K80,
    P100,
    V100,
    AcceleratorRegistry,
    AcceleratorType,
    default_registry,
)
from repro.cluster.cluster_spec import ClusterSpec
from repro.cluster.placement import Placer
from repro.cluster.worker import ClusterTopology, Server, Worker

__all__ = [
    "AcceleratorType",
    "AcceleratorRegistry",
    "default_registry",
    "DEFAULT_ACCELERATOR_TYPES",
    "V100",
    "P100",
    "K80",
    "ClusterSpec",
    "ClusterTopology",
    "Server",
    "Worker",
    "Placer",
]
