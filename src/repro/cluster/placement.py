"""Placement of scheduled job combinations onto concrete workers.

Once the round-based mechanism (Section 5) has decided *which* job
combinations run on *which accelerator type* this round, the placer assigns
concrete workers.  Gavel places jobs in decreasing order of requested worker
count and prefers giving a distributed job accelerators on the same server
("consolidated") to minimise fragmentation and communication cost.

A round's requests arrive as parallel lists — per request a key that orders
requests of equal size, the accelerator *column* (registry order) and the
worker count — and the best-fit rule runs on per-server free *counts*: a
server's workers are handed out front to back, so how many are still free says
which ones.  What a simulated round needs is whether each request fits one
server (:meth:`Placer.place`), and only a multi-worker request can fail to:
single-worker requests sort after every multi-worker one and the demand check
has already shown that a free worker is left for each, so no server is scanned
for them.  :meth:`Placer.worker_ids` runs the same rule over every request for
callers that want the concrete workers.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

from repro.cluster.worker import ClusterTopology
from repro.exceptions import SchedulingError

__all__ = ["Placer"]


class Placer:
    """Greedy bin-packing placer preferring consolidated placements.

    Both public methods take one round's requests as parallel sequences:
    request ``i`` wants ``scales[i]`` workers of accelerator column
    ``columns[i]``.  Requests are handled in decreasing order of ``scales``,
    ties broken by ``keys`` for determinism (the scheduler passes tracker rows,
    which order like the combinations), mirroring Gavel's placement pass;
    results are per request, in the order given.  Both raise
    :class:`SchedulingError` if the requests oversubscribe any accelerator
    type — the mechanism is responsible for never handing the placer an
    infeasible round.
    """

    def __init__(self, topology: ClusterTopology) -> None:
        registry = topology.spec.registry
        self._names: Tuple[str, ...] = registry.names
        #: Per accelerator column, the worker ids of each server in server
        #: order: the (immutable) table every round's free counts start from.
        self._servers: List[List[Tuple[int, ...]]] = [[] for _ in self._names]
        for server in topology.servers:
            self._servers[registry.index_of(server.accelerator_type)].append(server.worker_ids)
        self._capacity: List[int] = [
            sum(len(ids) for ids in servers) for servers in self._servers
        ]

    def place(
        self, keys: Sequence[int], columns: Sequence[int], scales: Sequence[int]
    ) -> List[bool]:
        """Whether each request is consolidated (all its workers on one server)."""
        self._check_demand(columns, scales)
        consolidated = [True] * len(keys)
        multi_worker = [request for request, scale in enumerate(scales) if scale > 1]
        multi_worker.sort(key=lambda request: (-scales[request], keys[request]))
        for request, spans in self._best_fit(multi_worker, columns, scales):
            consolidated[request] = len(spans) == 1
        return consolidated

    def worker_ids(
        self, keys: Sequence[int], columns: Sequence[int], scales: Sequence[int]
    ) -> List[Tuple[int, ...]]:
        """The concrete workers of each request."""
        self._check_demand(columns, scales)
        order = sorted(range(len(keys)), key=lambda request: (-scales[request], keys[request]))
        workers: List[Tuple[int, ...]] = [()] * len(order)
        for request, spans in self._best_fit(order, columns, scales):
            servers = self._servers[columns[request]]
            workers[request] = tuple(
                worker for server, first, last in spans for worker in servers[server][first:last]
            )
        return workers

    def _check_demand(self, columns: Sequence[int], scales: Sequence[int]) -> None:
        demanded = [0] * len(self._capacity)
        for column, scale in zip(columns, scales):
            demanded[column] += scale
        for name, demand, available in zip(self._names, demanded, self._capacity):
            if demand > available:
                raise SchedulingError(
                    f"placement demand for {name!r} ({demand}) exceeds available workers "
                    f"({available})"
                )

    def _best_fit(
        self, order: Sequence[int], columns: Sequence[int], scales: Sequence[int]
    ) -> Iterator[Tuple[int, List[Tuple[int, int, int]]]]:
        """Place the requests in ``order``; yields each with its ``(server, first, last)`` spans.

        A span is the slice ``first:last`` of that server's worker-id tuple; a
        request with one span is consolidated.
        """
        free: Dict[int, List[int]] = {}  # per demanded column: free workers per server
        for request in order:
            column, needed = columns[request], scales[request]
            servers = self._servers[column]
            counts = free.get(column)
            if counts is None:
                counts = free[column] = [len(ids) for ids in servers]
            # Prefer the single server with the fewest free workers that still
            # fits the whole request (best-fit => consolidated placement, low
            # fragmentation); the first such server wins a tie.
            best = -1
            for server, count in enumerate(counts):
                if count >= needed and (best < 0 or count < counts[best]):
                    best = server
            # Otherwise spread across servers with the most free workers first
            # so the job touches as few servers as possible.
            chosen = (
                [best]
                if best >= 0
                else sorted(range(len(counts)), key=counts.__getitem__, reverse=True)
            )
            spans: List[Tuple[int, int, int]] = []
            for server in chosen:
                take = min(needed, counts[server])
                if take:
                    first = len(servers[server]) - counts[server]
                    spans.append((server, first, first + take))
                    counts[server] -= take
                    needed -= take
            if needed:
                raise SchedulingError(
                    f"could not place request {request} on {self._names[column]!r}: "
                    f"{needed} of {scales[request]} workers are missing"
                )
            yield request, spans
