"""Accelerator type registry.

Gavel schedules jobs across heterogeneous accelerator types (V100, P100 and
K80 GPUs in the paper).  This module defines the :class:`AcceleratorType`
value object and a :class:`AcceleratorRegistry` that maps names to types and
fixes a deterministic column ordering used by allocation and throughput
matrices throughout the library.

Prices are US-dollar per hour on-demand prices modelled on the GCP prices the
paper uses for its dollar-normalized throughput comparison (Figure 1b) and
its cost policies (Section 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, UnknownAcceleratorError

__all__ = [
    "AcceleratorType",
    "AcceleratorRegistry",
    "V100",
    "P100",
    "K80",
    "DEFAULT_ACCELERATOR_TYPES",
    "default_registry",
]


@dataclass(frozen=True, order=True)
class AcceleratorType:
    """A class of interchangeable compute devices.

    Attributes:
        name: Short unique identifier, e.g. ``"v100"``.
        cost_per_hour: On-demand rental price in dollars per device-hour.
        memory_gb: Device memory; used by the colocation model to decide
            whether two jobs fit on the same device.
        peak_tflops: Nominal peak compute, only used to synthesise plausible
            throughput ratios for models not covered by the calibrated table.
    """

    name: str
    cost_per_hour: float
    memory_gb: float
    peak_tflops: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("accelerator name must be non-empty")
        if self.cost_per_hour < 0:
            raise ConfigurationError(
                f"accelerator {self.name!r}: cost_per_hour must be >= 0, "
                f"got {self.cost_per_hour}"
            )
        if self.memory_gb <= 0 or self.peak_tflops <= 0:
            raise ConfigurationError(
                f"accelerator {self.name!r}: memory_gb and peak_tflops must be positive"
            )

    def __str__(self) -> str:
        return self.name


# Prices follow the GCP on-demand prices used in the paper's Figure 1b
# (approximate 2020 values: V100 $2.48/hr, P100 $1.46/hr, K80 $0.45/hr).
V100 = AcceleratorType(name="v100", cost_per_hour=2.48, memory_gb=16.0, peak_tflops=15.7)
P100 = AcceleratorType(name="p100", cost_per_hour=1.46, memory_gb=16.0, peak_tflops=9.3)
K80 = AcceleratorType(name="k80", cost_per_hour=0.45, memory_gb=12.0, peak_tflops=4.1)

DEFAULT_ACCELERATOR_TYPES: Tuple[AcceleratorType, ...] = (V100, P100, K80)


class AcceleratorRegistry:
    """Ordered collection of accelerator types.

    The registry fixes the column order of every matrix in the library
    (throughput matrices, allocation matrices, rounds-received matrices), so
    that numeric code can index by integer column while user-facing code can
    use names.
    """

    def __init__(self, accelerator_types: Optional[Iterable[AcceleratorType]] = None) -> None:
        types = tuple(accelerator_types) if accelerator_types is not None else DEFAULT_ACCELERATOR_TYPES
        if not types:
            raise ConfigurationError("registry requires at least one accelerator type")
        names = [t.name for t in types]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate accelerator names: {names}")
        self._types: Tuple[AcceleratorType, ...] = types
        self._index: Dict[str, int] = {t.name: i for i, t in enumerate(types)}

    # -- container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._types)

    def __iter__(self) -> Iterator[AcceleratorType]:
        return iter(self._types)

    def __contains__(self, item: object) -> bool:
        if isinstance(item, AcceleratorType):
            return item in self._types
        if isinstance(item, str):
            return item in self._index
        return False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AcceleratorRegistry):
            return NotImplemented
        return self._types == other._types

    def __hash__(self) -> int:
        return hash(self._types)

    def __repr__(self) -> str:
        return f"AcceleratorRegistry({[t.name for t in self._types]})"

    # -- lookups -------------------------------------------------------------
    @property
    def types(self) -> Tuple[AcceleratorType, ...]:
        """All registered accelerator types, in column order."""
        return self._types

    @property
    def names(self) -> Tuple[str, ...]:
        """Names of all registered accelerator types, in column order."""
        cached = getattr(self, "_names", None)
        if cached is None:
            cached = tuple(t.name for t in self._types)
            self._names = cached
        return cached

    @property
    def name_order(self) -> np.ndarray:
        """The column indices sorted by name (read-only): name order, which is not column order."""
        cached = getattr(self, "_name_order", None)
        if cached is None:
            cached = np.argsort(self.names, kind="stable")
            cached.setflags(write=False)
            self._name_order = cached
        return cached

    def get(self, name: str) -> AcceleratorType:
        """Return the accelerator type registered under ``name``."""
        try:
            return self._types[self._index[name]]
        except KeyError:
            raise UnknownAcceleratorError(
                f"unknown accelerator type {name!r}; known: {list(self._index)}"
            ) from None

    def index_of(self, accelerator: "AcceleratorType | str") -> int:
        """Return the column index of ``accelerator`` (by object or name)."""
        name = accelerator.name if isinstance(accelerator, AcceleratorType) else accelerator
        if name not in self._index:
            raise UnknownAcceleratorError(
                f"unknown accelerator type {name!r}; known: {list(self._index)}"
            )
        return self._index[name]

    def costs_per_hour(self) -> List[float]:
        """Per-hour cost of each accelerator type, in column order."""
        return [t.cost_per_hour for t in self._types]

    def subset(self, names: Sequence[str]) -> "AcceleratorRegistry":
        """Return a new registry containing only ``names`` (in the given order)."""
        return AcceleratorRegistry([self.get(name) for name in names])


def default_registry() -> AcceleratorRegistry:
    """Return a registry with the paper's three GPU generations (V100, P100, K80)."""
    return AcceleratorRegistry(DEFAULT_ACCELERATOR_TYPES)
