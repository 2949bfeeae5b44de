"""Placement of scheduled job combinations onto concrete workers.

Once the round-based mechanism (Section 5) has decided *which* job
combinations run on *which accelerator type* this round, the placer assigns
concrete workers.  Gavel places jobs in decreasing order of requested worker
count and prefers giving a distributed job accelerators on the same server
("consolidated") to minimise fragmentation and communication cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.cluster.accelerators import AcceleratorType
from repro.cluster.worker import ClusterTopology, Server, Worker
from repro.exceptions import SchedulingError

__all__ = ["PlacementRequest", "Placement", "Placer"]


@dataclass(frozen=True)
class PlacementRequest:
    """A request to place one scheduled job combination this round.

    Attributes:
        combination: Tuple of job ids sharing the workers (length 1, or 2 when
            space sharing).
        accelerator_name: Accelerator type the combination was scheduled on.
        scale_factor: Number of workers the combination needs.
    """

    combination: Tuple[int, ...]
    accelerator_name: str
    scale_factor: int


@dataclass(frozen=True)
class Placement:
    """Concrete worker assignment for one placement request."""

    request: PlacementRequest
    worker_ids: Tuple[int, ...]
    consolidated: bool

    @property
    def combination(self) -> Tuple[int, ...]:
        return self.request.combination

    @property
    def accelerator_name(self) -> str:
        return self.request.accelerator_name


class Placer:
    """Greedy bin-packing placer preferring consolidated placements."""

    def __init__(self, topology: ClusterTopology) -> None:
        #: Per accelerator type, the worker ids of each server in server
        #: order: the (immutable) table every round's free lists start from.
        self._servers: Dict[str, List[Tuple[int, ...]]] = {}
        for server in topology.servers:
            self._servers.setdefault(server.accelerator_type.name, []).append(server.worker_ids)
        self._capacity: Dict[str, int] = {
            name: sum(len(ids) for ids in servers) for name, servers in self._servers.items()
        }

    def place(self, requests: Sequence[PlacementRequest]) -> List[Placement]:
        """Assign workers to every request.

        Requests are handled in decreasing order of ``scale_factor`` (ties
        broken by combination id for determinism), mirroring Gavel's placement
        pass.  Raises :class:`SchedulingError` if the requests oversubscribe
        any accelerator type — the mechanism is responsible for never handing
        the placer an infeasible round.
        """
        demanded: Dict[str, int] = {}
        for request in requests:
            demanded[request.accelerator_name] = (
                demanded.get(request.accelerator_name, 0) + request.scale_factor
            )
        for name, demand in demanded.items():
            available = self._capacity.get(name, 0)
            if demand > available:
                raise SchedulingError(
                    f"placement demand for {name!r} ({demand}) exceeds available workers ({available})"
                )
        # Free worker ids per server (server order), for the demanded types only.
        free: Dict[str, List[List[int]]] = {
            name: [list(ids) for ids in self._servers.get(name, ())] for name in demanded
        }
        ordered = sorted(requests, key=lambda r: (-r.scale_factor, r.combination))
        return [self._place_one(request, free[request.accelerator_name]) for request in ordered]

    @staticmethod
    def _place_one(request: PlacementRequest, servers: List[List[int]]) -> Placement:
        needed = request.scale_factor

        # Prefer the single server with the fewest free workers that still fits
        # the whole request (best-fit => consolidated placement, low
        # fragmentation); the first such server wins a tie.
        best: Optional[List[int]] = None
        best_free = 0
        for ids in servers:
            free = len(ids)
            if free >= needed and (best is None or free < best_free):
                best, best_free = ids, free
        if best is not None:
            chosen = tuple(best[:needed])
            del best[:needed]
            return Placement(request=request, worker_ids=chosen, consolidated=True)

        # Otherwise spread across servers with the most free workers first so
        # the job touches as few servers as possible.
        chosen_list: List[int] = []
        for ids in sorted(servers, key=len, reverse=True):
            take = min(needed - len(chosen_list), len(ids))
            chosen_list.extend(ids[:take])
            del ids[:take]
            if len(chosen_list) == needed:
                break
        if len(chosen_list) != needed:
            raise SchedulingError(
                f"could not place combination {request.combination} on "
                f"{request.accelerator_name!r}: needed {needed} workers"
            )
        return Placement(
            request=request, worker_ids=tuple(chosen_list), consolidated=False
        )
