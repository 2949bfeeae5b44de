"""Tests for placing scheduled job combinations on concrete workers.

Requests are parallel lists — ``keys`` (tie-break among equal sizes),
``columns`` (accelerator type, registry order: v100, p100, k80) and ``scales``
(workers wanted) — and results come back per request, in the order given.
"""

import pytest

from repro.cluster import ClusterSpec, ClusterTopology, Placer
from repro.exceptions import SchedulingError

V100, P100, K80 = 0, 1, 2


@pytest.fixture
def topology():
    spec = ClusterSpec.from_counts({"v100": 8, "p100": 4, "k80": 4})
    return ClusterTopology(spec, workers_per_server=4)


@pytest.fixture
def placer(topology):
    return Placer(topology)


class TestPlacement:
    def test_single_worker_job_is_consolidated(self, placer):
        request = ([0], [V100], [1])
        assert placer.place(*request) == [True]
        [workers] = placer.worker_ids(*request)
        assert len(workers) == 1

    def test_distributed_job_fits_one_server_when_possible(self, placer, topology):
        request = ([0], [V100], [4])
        assert placer.place(*request) == [True]
        [workers] = placer.worker_ids(*request)
        assert len(set(workers)) == 4
        assert len({topology.worker(worker).server_id for worker in workers}) == 1

    def test_distributed_job_spanning_servers_is_unconsolidated(self, placer):
        request = ([0], [V100], [8])
        assert placer.place(*request) == [False]
        [workers] = placer.worker_ids(*request)
        assert len(set(workers)) == 8

    def test_requests_do_not_share_workers(self, placer):
        placed = placer.worker_ids([0, 1, 2], [V100, V100, P100], [4, 4, 2])
        used = [worker for workers in placed for worker in workers]
        assert len(used) == len(set(used)) == 10

    def test_demand_exceeding_capacity_raises(self, placer):
        requests = ([0, 1, 2], [K80] * 3, [2] * 3)
        with pytest.raises(SchedulingError):
            placer.place(*requests)
        with pytest.raises(SchedulingError):
            placer.worker_ids(*requests)

    def test_larger_jobs_placed_first(self, placer, topology):
        requests = ([0, 1], [P100, P100], [1, 3])
        # The 3-worker job is handled before the single-worker request given
        # ahead of it: it is consolidated and gets the server's first workers.
        assert placer.place(*requests) == [True, True]
        single, triple = placer.worker_ids(*requests)
        assert triple == topology.servers_of_type("p100")[0].worker_ids[:3]
        assert single == topology.servers_of_type("p100")[0].worker_ids[3:]

    def test_key_breaks_ties_among_equal_sizes_and_results_follow_request_order(self, placer):
        """Results line up with their requests however the placer orders its pass."""
        forward = placer.worker_ids([3, 7], [K80, K80], [1, 1])
        backward = placer.worker_ids([7, 3], [K80, K80], [1, 1])
        assert forward == backward[::-1]  # key 3 is served first either way
        assert forward[0] < forward[1]

    def test_accelerator_type_respected(self, placer, topology):
        [workers] = placer.worker_ids([0], [P100], [2])
        assert {topology.worker(worker).accelerator_type.name for worker in workers} == {"p100"}

    def test_flags_agree_with_the_workers_handed_out(self, placer, topology):
        """``place`` skips the server scan for single-worker requests; ``worker_ids`` does not."""
        requests = ([0, 1, 2, 3], [V100, V100, V100, K80], [2, 3, 3, 1])
        flags = placer.place(*requests)
        assert flags == [False, True, True, True]  # the 2-worker job gets the two leftovers
        placed = placer.worker_ids(*requests)
        for flag, workers, scale in zip(flags, placed, requests[2]):
            assert len(workers) == scale
            assert flag == (len({topology.worker(worker).server_id for worker in workers}) <= 1)
