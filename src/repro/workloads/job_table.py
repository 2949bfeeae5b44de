"""The evaluation workload: Table 2's model / batch-size configurations.

The paper's traces are populated from 26 job configurations spanning seven
models (Table 2).  Each configuration here carries the calibration data the
synthetic throughput oracle needs:

* a base throughput on the slowest GPU generation (K80), in steps/second;
* per-generation speedup factors calibrated to Figure 1a (e.g. ResNet-50 is
  about 10x faster on a V100 than a K80 while A3C only gains about 2x);
* a compute-intensity figure in ``[0, 1]`` describing how much of a single
  GPU's compute the job saturates — used by the colocation model to decide
  how well two jobs space-share (Figure 15);
* a per-device memory footprint used to rule out colocations that do not fit;
* a distributed-scaling efficiency describing how well the model scales to
  multiple workers when consolidated vs. unconsolidated (placement
  sensitivity, Section 3.1).

Absolute throughputs are synthetic (no GPUs are available to this
reproduction); the *ratios* across accelerator types and across models follow
the paper, which is what the heterogeneity-aware policies exploit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError, UnknownJobError

__all__ = ["JobTypeSpec", "JobTypeTable", "default_job_type_table", "job_type_name"]


@dataclass(frozen=True)
class JobTypeSpec:
    """Calibration record for one model / batch-size configuration."""

    model: str
    batch_size: int
    base_k80_throughput: float
    speedups: Mapping[str, float]
    compute_intensity: float
    memory_gb: float
    consolidated_scaling: float
    unconsolidated_scaling: float

    def __post_init__(self) -> None:
        for key in ("base_k80_throughput", "memory_gb"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value > 0):
                raise ConfigurationError(f"{self.name}: {key} must be positive and finite")
        for accelerator_name, speedup in self.speedups.items():
            # 0 is legal: it marks the type as unable to run on that accelerator.
            if not (math.isfinite(speedup) and speedup >= 0):
                raise ConfigurationError(
                    f"{self.name}: speedup on {accelerator_name!r} must be finite and >= 0"
                )
        if not 0.0 < self.compute_intensity <= 1.0:
            raise ConfigurationError(
                f"{self.name}: compute_intensity must be in (0, 1]"
            )
        for key in ("consolidated_scaling", "unconsolidated_scaling"):
            value = getattr(self, key)
            if not 0.0 < value <= 1.0:
                raise ConfigurationError(f"{self.name}: {key} must be in (0, 1]")
        if self.unconsolidated_scaling > self.consolidated_scaling:
            raise ConfigurationError(
                f"{self.name}: unconsolidated scaling cannot beat consolidated scaling"
            )

    @property
    def name(self) -> str:
        """Canonical job-type name, e.g. ``"resnet50-bs64"``."""
        return job_type_name(self.model, self.batch_size)

    def speedup(self, accelerator_name: str) -> float:
        """Throughput multiplier of ``accelerator_name`` relative to a K80."""
        if accelerator_name == "k80":
            return 1.0
        if accelerator_name not in self.speedups:
            raise UnknownJobError(
                f"{self.name}: no speedup calibration for accelerator {accelerator_name!r}"
            )
        return float(self.speedups[accelerator_name])


def job_type_name(model: str, batch_size: int) -> str:
    """Canonical name for a model / batch-size configuration."""
    return f"{model}-bs{batch_size}"


def _spec(
    model: str,
    batch_size: int,
    base_k80_throughput: float,
    v100: float,
    p100: float,
    compute_intensity: float,
    memory_gb: float,
    consolidated_scaling: float,
    unconsolidated_scaling: float,
) -> JobTypeSpec:
    return JobTypeSpec(
        model=model,
        batch_size=batch_size,
        base_k80_throughput=base_k80_throughput,
        speedups={"v100": v100, "p100": p100},
        compute_intensity=compute_intensity,
        memory_gb=memory_gb,
        consolidated_scaling=consolidated_scaling,
        unconsolidated_scaling=unconsolidated_scaling,
    )


def _default_specs() -> List[JobTypeSpec]:
    """The 26 configurations of Table 2 with synthetic calibration data."""
    specs: List[JobTypeSpec] = []

    # ResNet-50 on ImageNet: compute bound, large V100 speedup (~10x, Fig. 1a).
    for batch_size, base, mem in [(16, 1.60, 4.5), (32, 0.95, 6.0), (64, 0.52, 8.5), (128, 0.27, 12.0)]:
        specs.append(
            _spec("resnet50", batch_size, base, v100=9.8, p100=4.2,
                  compute_intensity=0.90, memory_gb=mem,
                  consolidated_scaling=0.92, unconsolidated_scaling=0.70)
        )

    # ResNet-18 on CIFAR-10: small model, moderate speedups, colocates well.
    for batch_size, base, mem in [(16, 14.0, 1.2), (32, 9.5, 1.5), (64, 6.0, 1.9),
                                  (128, 3.6, 2.6), (256, 2.0, 3.8)]:
        specs.append(
            _spec("resnet18", batch_size, base, v100=5.6, p100=2.9,
                  compute_intensity=0.45, memory_gb=mem,
                  consolidated_scaling=0.88, unconsolidated_scaling=0.62)
        )

    # A3C deep RL on Pong: CPU/environment bound, tiny GPU speedup (~2x).
    specs.append(
        _spec("a3c", 4, 4.3, v100=2.0, p100=1.6,
              compute_intensity=0.18, memory_gb=1.0,
              consolidated_scaling=0.80, unconsolidated_scaling=0.55)
    )

    # LSTM language modelling on Wikitext-2: memory-bandwidth bound.
    for batch_size, base, mem in [(5, 11.0, 1.4), (10, 8.0, 1.7), (20, 5.6, 2.1),
                                  (40, 3.6, 2.8), (80, 2.2, 4.0)]:
        specs.append(
            _spec("lstm", batch_size, base, v100=4.1, p100=2.4,
                  compute_intensity=0.38, memory_gb=mem,
                  consolidated_scaling=0.85, unconsolidated_scaling=0.58)
        )

    # Transformer translation on Multi30k: benefits strongly from tensor cores.
    for batch_size, base, mem in [(16, 5.5, 2.2), (32, 3.8, 2.9), (64, 2.4, 4.0),
                                  (128, 1.4, 6.2), (256, 0.8, 9.8)]:
        specs.append(
            _spec("transformer", batch_size, base, v100=6.4, p100=3.1,
                  compute_intensity=0.72, memory_gb=mem,
                  consolidated_scaling=0.90, unconsolidated_scaling=0.66)
        )

    # CycleGAN image-to-image translation: heavy convolutions, large speedup.
    specs.append(
        _spec("cyclegan", 1, 0.90, v100=8.2, p100=3.9,
              compute_intensity=0.95, memory_gb=9.0,
              consolidated_scaling=0.86, unconsolidated_scaling=0.60)
    )

    # Recoder autoencoder on ML-20M: sparse recommendation workload.
    for batch_size, base, mem in [(512, 9.0, 1.8), (1024, 6.2, 2.4), (2048, 4.0, 3.4),
                                  (4096, 2.4, 5.2), (8192, 1.3, 8.6)]:
        specs.append(
            _spec("recoder", batch_size, base, v100=5.0, p100=2.6,
                  compute_intensity=0.55, memory_gb=mem,
                  consolidated_scaling=0.87, unconsolidated_scaling=0.64)
        )

    return specs


class JobTypeTable:
    """Registry of job-type specifications, indexed by canonical name."""

    def __init__(self, specs: Optional[Sequence[JobTypeSpec]] = None) -> None:
        specs = list(specs) if specs is not None else _default_specs()
        if not specs:
            raise ConfigurationError("job type table must contain at least one spec")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate job type names: {names}")
        self._specs: Dict[str, JobTypeSpec] = {s.name: s for s in specs}
        self._ordered: Tuple[JobTypeSpec, ...] = tuple(specs)

    def __len__(self) -> int:
        return len(self._ordered)

    def __iter__(self) -> Iterator[JobTypeSpec]:
        return iter(self._ordered)

    def __contains__(self, name: object) -> bool:
        return name in self._specs

    @property
    def names(self) -> Tuple[str, ...]:
        """All job-type names, in table order."""
        return tuple(s.name for s in self._ordered)

    def get(self, name: str) -> JobTypeSpec:
        """Return the spec for ``name``, raising :class:`UnknownJobError` if absent."""
        try:
            return self._specs[name]
        except KeyError:
            raise UnknownJobError(
                f"unknown job type {name!r}; known types: {sorted(self._specs)}"
            ) from None

    def models(self) -> Tuple[str, ...]:
        """Distinct model names in table order."""
        seen: List[str] = []
        for spec in self._ordered:
            if spec.model not in seen:
                seen.append(spec.model)
        return tuple(seen)

    def types_for_model(self, model: str) -> Tuple[JobTypeSpec, ...]:
        """All batch-size configurations of ``model``."""
        matches = tuple(s for s in self._ordered if s.model == model)
        if not matches:
            raise UnknownJobError(f"unknown model {model!r}; known models: {self.models()}")
        return matches


def default_job_type_table() -> JobTypeTable:
    """The 26-configuration workload table used throughout the evaluation."""
    return JobTypeTable()
