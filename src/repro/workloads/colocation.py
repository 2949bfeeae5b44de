"""Colocation (space-sharing) throughput model.

When two jobs space-share a single accelerator (Section 2.2 / 3.1), each sees
a fraction of its isolated throughput.  The paper measured these pairwise
throughputs on real GPUs (Figure 15); this reproduction uses a deterministic
interference model with the same qualitative structure:

* two jobs whose combined memory footprint exceeds the device memory cannot
  colocate at all;
* a job's retained fraction shrinks with the *other* job's compute intensity —
  two compute-bound jobs (e.g. ResNet-50 + CycleGAN) gain almost nothing from
  sharing, while a compute-bound job paired with a light job (e.g. A3C or a
  small LSTM) keeps most of its throughput;
* colocation is slightly less punishing on faster accelerators, which have
  more spare compute.

The key property the SS-aware policies rely on — different pairs have vastly
different colocated performance, and good pairs yield combined throughput
well above 1.0x of a single job — is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.accelerators import AcceleratorRegistry, default_registry
from repro.exceptions import ConfigurationError
from repro.workloads.job_table import JobTypeTable, default_job_type_table
from repro.workloads.throughputs import ThroughputOracle

__all__ = [
    "ColocationModel",
    "ColocatedThroughputs",
    "beneficial_pair_row",
    "member_throughputs",
    "pair_throughputs",
]


def member_throughputs(
    model: "ColocationModel",
    job_type: str,
    partner_type: Optional[str],
    accelerator_names: Sequence[str],
    scale_factor: int = 1,
    consolidated: bool = True,
) -> np.ndarray:
    """Steps/second of one member of an allocation row, one entry per accelerator name.

    This is the one rate rule: every execution mode runs with it, and
    policies plan with it — pair rows through :func:`beneficial_pair_row`,
    singleton rows through the oracle's memoized ``throughput_vector``, which
    is this function's singleton case.

    * A singleton (``partner_type`` is ``None``) runs at
      ``model.oracle.throughput_vector(job_type, scale_factor, consolidated)``:
      the oracle's throughput for its scale factor and placement, in registry
      order (so ``accelerator_names`` must be the oracle registry's names).
    * A pair member runs at ``model.colocated_throughputs(job_type,
      partner_type, name).first``: asked with its own type first, so
      ``first`` is its rate in either position of the pair.  The models are
      symmetric — ``colocated_throughputs(b, a, name).first`` is bit for bit
      ``colocated_throughputs(a, b, name).second`` — which is what lets
      :func:`beneficial_pair_row` evaluate a pair once for both members.

    Pair rows only ever join two *single-worker* jobs (see
    :meth:`~repro.core.allocation_engine.AllocationEngine.add_job`), so a pair
    member runs on one device and ``scale_factor`` and ``consolidated`` do not
    apply to it: one evaluation serves a member's consolidated and packed
    rates.  ``model`` may be any object exposing the
    :class:`ColocationModel` query interface and an ``oracle``, e.g. a
    throughput estimator.
    """
    if partner_type is None:
        return model.oracle.throughput_vector(job_type, scale_factor, consolidated)
    return pair_throughputs(model, job_type, partner_type, accelerator_names)[0]


def pair_throughputs(
    model: "ColocationModel",
    job_type_a: str,
    job_type_b: str,
    accelerator_names: Sequence[str],
) -> np.ndarray:
    """Both members' :func:`member_throughputs` in a pair, from one evaluation.

    Row ``[0]`` is ``job_type_a``'s rates, row ``[1]`` ``job_type_b``'s: one
    ``model.colocated_throughputs(job_type_a, job_type_b, name)`` per
    accelerator, read as ``first`` and ``second``.  By the models' symmetry
    row ``[1]`` is bit for bit what ``job_type_b`` asked first would get, and
    the first call is ``(job_type_a, job_type_b, accelerator_names[0])``, as
    for member ``job_type_a`` alone.
    """
    pair = [
        model.colocated_throughputs(job_type_a, job_type_b, name) for name in accelerator_names
    ]
    return np.array([[rates.first for rates in pair], [rates.second for rates in pair]])


def beneficial_pair_row(
    model: "ColocationModel",
    job_type_a: str,
    job_type_b: str,
    accelerator_names: Sequence[str],
    threshold: float = 1.1,
) -> Optional[np.ndarray]:
    """Colocated-throughput row for a *type* pair, or ``None`` if never beneficial.

    Row ``[k]`` holds member ``k``'s :func:`member_throughputs` (``job_type_a``
    first), masked to the columns where the pair fits in memory (both rates
    positive) *and* its combined normalized throughput reaches ``threshold``;
    if no column qualifies the pair carries no information for space-sharing
    policies and ``None`` is returned.

    The pair is evaluated once per accelerator: one
    ``model.colocated_throughputs(job_type_a, job_type_b, name)`` gives
    member 0's rate (``first``), member 1's (``second``, by the models'
    symmetry) and, with the two isolated throughputs, the benefit test of
    :meth:`ColocationModel.combined_normalized_throughput`.  The first call
    is ``(job_type_a, job_type_b, accelerator_names[0])``: an estimator
    fingerprints a type when it first sees it, so this order decides which
    random draws each type gets.

    Because the result depends only on the two job *types* (never on job
    ids), it is the natural unit to memoize across allocation recomputations.
    """
    oracle = model.oracle
    rates = np.zeros((2, len(accelerator_names)))
    for column, name in enumerate(accelerator_names):
        pair = model.colocated_throughputs(job_type_a, job_type_b, name)
        if pair.feasible and (
            pair.first / oracle.throughput(job_type_a, name)
            + pair.second / oracle.throughput(job_type_b, name)
            >= threshold
        ):
            rates[:, column] = pair.first, pair.second
    return rates if rates.any() else None


@dataclass(frozen=True)
class ColocatedThroughputs:
    """Absolute throughputs (steps/s) of a colocated job pair on one accelerator."""

    first: float
    second: float

    @property
    def feasible(self) -> bool:
        """Whether the pair can run together at all (both non-zero)."""
        return self.first > 0.0 and self.second > 0.0


class ColocationModel:
    """Pairwise interference model on top of a :class:`ThroughputOracle`."""

    #: Accelerator-specific interference discount: faster devices have more
    #: spare capacity, so the same pair interferes a little less.
    _DEVICE_SLACK: Mapping[str, float] = {"v100": 0.90, "p100": 1.00, "k80": 1.10}

    def __init__(
        self,
        oracle: Optional[ThroughputOracle] = None,
        interference_strength: float = 0.75,
    ) -> None:
        self._oracle = oracle if oracle is not None else ThroughputOracle()
        if not 0.0 <= interference_strength <= 1.0:
            raise ConfigurationError(
                f"interference_strength must be in [0, 1], got {interference_strength}"
            )
        self._strength = interference_strength

    @property
    def oracle(self) -> ThroughputOracle:
        return self._oracle

    @property
    def registry(self) -> AcceleratorRegistry:
        return self._oracle.registry

    # -- pairwise queries -------------------------------------------------------
    def fits_in_memory(self, job_type_a: str, job_type_b: str, accelerator_name: str) -> bool:
        """Whether the two job types fit together in the device's memory."""
        accelerator = self.registry.get(accelerator_name)
        spec_a = self._oracle.spec(job_type_a)
        spec_b = self._oracle.spec(job_type_b)
        return spec_a.memory_gb + spec_b.memory_gb <= accelerator.memory_gb

    def retained_fraction(
        self, job_type: str, other_job_type: str, accelerator_name: str
    ) -> float:
        """Fraction of isolated throughput ``job_type`` keeps when sharing with ``other``."""
        spec_other = self._oracle.spec(other_job_type)
        slack = self._DEVICE_SLACK.get(accelerator_name, 1.0)
        penalty = self._strength * spec_other.compute_intensity * slack
        return min(max(1.0 - penalty, 0.05), 1.0)

    def colocated_throughputs(
        self,
        job_type_a: str,
        job_type_b: str,
        accelerator_name: str,
        scale_factor: int = 1,
        consolidated: bool = True,
    ) -> ColocatedThroughputs:
        """Absolute throughputs of both jobs when colocated on one accelerator type.

        Returns zeros for both jobs when the pair does not fit in device
        memory (the policy treats such rows as unusable).
        """
        if not self.fits_in_memory(job_type_a, job_type_b, accelerator_name):
            return ColocatedThroughputs(first=0.0, second=0.0)
        isolated_a = self._oracle.throughput(
            job_type_a, accelerator_name, scale_factor=scale_factor, consolidated=consolidated
        )
        isolated_b = self._oracle.throughput(
            job_type_b, accelerator_name, scale_factor=scale_factor, consolidated=consolidated
        )
        frac_a = self.retained_fraction(job_type_a, job_type_b, accelerator_name)
        frac_b = self.retained_fraction(job_type_b, job_type_a, accelerator_name)
        return ColocatedThroughputs(first=isolated_a * frac_a, second=isolated_b * frac_b)

    def combined_normalized_throughput(
        self, job_type_a: str, job_type_b: str, accelerator_name: str
    ) -> float:
        """Sum of both jobs' normalized (to isolated) throughputs when colocated.

        Values above 1.0 mean colocation beats time-slicing the two jobs; this
        is the quantity Gandiva's ad-hoc packing searches for and the SS-aware
        policies optimise directly.
        """
        pair = self.colocated_throughputs(job_type_a, job_type_b, accelerator_name)
        if not pair.feasible:
            return 0.0
        isolated_a = self._oracle.throughput(job_type_a, accelerator_name)
        isolated_b = self._oracle.throughput(job_type_b, accelerator_name)
        return pair.first / isolated_a + pair.second / isolated_b

    def is_beneficial(
        self, job_type_a: str, job_type_b: str, accelerator_name: str, threshold: float = 1.1
    ) -> bool:
        """Whether colocating the pair beats time slicing by at least ``threshold``."""
        return bool(
            self.combined_normalized_throughput(job_type_a, job_type_b, accelerator_name)
            >= threshold
        )

    # -- matrix view (Figure 15) -------------------------------------------------
    def normalized_matrix(
        self, accelerator_name: str, job_types: Optional[Sequence[str]] = None
    ) -> Tuple[List[str], np.ndarray]:
        """Pairwise normalized-throughput matrix on one accelerator.

        Entry ``[i, j]`` is the combined normalized throughput of job types
        ``i`` and ``j`` when colocated (NaN when the pair does not fit in
        memory), matching the presentation of Figure 15.
        """
        names = list(job_types) if job_types is not None else list(self._oracle.job_types.names)
        matrix = np.full((len(names), len(names)), np.nan)
        for i, a in enumerate(names):
            for j, b in enumerate(names):
                combined = self.combined_normalized_throughput(a, b, accelerator_name)
                matrix[i, j] = combined if combined > 0.0 else np.nan
        return names, matrix
