"""Unit tests for the collective cost models."""

import pytest

from repro.errors import ConfigError
from repro.hardware.interconnect import (
    EthernetFabric,
    InfinibandFabric,
    SharedMemoryFabric,
)
from repro.smpi.collectives.algorithms import (
    CollectiveContext,
    allgather_time,
    allreduce_time,
    alltoall_time,
    alltoallv_time,
    barrier_time,
    gather_time,
    scatter_time,
)

IB = InfinibandFabric()
ETH = EthernetFabric("eth", latency=25e-6, peak_bw=196e6)
SHM = SharedMemoryFabric()


def ctx(p=8, nnodes=2, rpn=4, net=IB, extra=0.0, shm_factor=1.0):
    return CollectiveContext(
        p=p, nnodes=nnodes, rpn=rpn, net=net, shm=SHM,
        extra_latency=extra, shm_bw_factor=shm_factor,
    )


class TestContext:
    def test_invalid_shapes_rejected(self):
        with pytest.raises(ConfigError):
            ctx(p=0)
        with pytest.raises(ConfigError):
            ctx(p=4, nnodes=8)
        with pytest.raises(ConfigError):
            ctx(p=4, rpn=8)

    def test_tree_rounds_split(self):
        c = ctx(p=16, nnodes=4, rpn=4)
        inter, intra = c.tree_rounds()
        assert (inter, intra) == (2, 2)

    def test_single_rank_no_rounds(self):
        c = ctx(p=1, nnodes=1, rpn=1)
        assert c.tree_rounds() == (0, 0)
        assert c.ring_pass(4096) == 0.0

    def test_ring_pass_gated_by_internode_when_spanning(self):
        spanning = ctx(p=16, nnodes=4, rpn=4)
        local = ctx(p=16, nnodes=1, rpn=16)
        assert spanning.ring_pass(4096) == pytest.approx(15 * spanning.net_msg(4096))
        assert local.ring_pass(4096) == pytest.approx(15 * local.shm_msg(4096))

    def test_net_msg_congestion_applies_to_shared_links(self):
        c = ctx(net=ETH)
        solo = c.net_msg(1 << 20, link_share=1)
        shared = c.net_msg(1 << 20, link_share=2)
        # 2x the bytes through the link plus the congestion factor.
        assert shared > 2.0 * (solo - ETH.latency - ETH.o_send - ETH.o_recv)

    def test_net_msg_rendezvous_latency(self):
        c = ctx(net=IB)
        small = c.net_msg(IB.eager_threshold)
        big = c.net_msg(IB.eager_threshold + 1)
        # The handshake triples the latency term.
        assert big - small > 1.5 * IB.latency

    def test_shm_pressure_slows_intranode(self):
        slow = ctx(shm_factor=0.5).shm_msg(1 << 20)
        fast = ctx(shm_factor=1.0).shm_msg(1 << 20)
        assert slow > 1.8 * fast


class TestCosts:
    def test_single_rank_collectives_free(self):
        c = ctx(p=1, nnodes=1, rpn=1)
        assert allreduce_time(c, 1024) == 0.0
        assert alltoall_time(c, 1024) == 0.0
        assert allgather_time(c, 1024) == 0.0

    def test_barrier_grows_with_node_count(self):
        t2 = barrier_time(ctx(p=8, nnodes=2, rpn=4))
        t8 = barrier_time(ctx(p=8, nnodes=8, rpn=1))
        assert t8 > t2

    def test_allreduce_small_dominated_by_latency(self):
        eth = ctx(net=ETH)
        ib = ctx(net=IB)
        assert allreduce_time(eth, 8) > 10 * allreduce_time(ib, 8)

    def test_allreduce_large_uses_ring(self):
        c = ctx()
        n = 8 << 20
        ring = allreduce_time(c, n)
        # Ring moves ~2n/p per inter-node step; must beat log-p doubling
        # of the full buffer.
        inter, intra = c.tree_rounds()
        doubling = inter * c.net_msg(n) + intra * c.shm_msg(n)
        assert ring < doubling

    def test_alltoall_volume_shrinks_with_p(self):
        """FT's recovery: total volume per rank D/p, so time drops as p
        grows at fixed node count."""
        d = 500e6
        t16 = alltoall_time(ctx(p=16, nnodes=2, rpn=8, net=ETH), d / 16)
        t64 = alltoall_time(ctx(p=64, nnodes=8, rpn=8, net=ETH), d / 64)
        assert t64 < t16

    def test_alltoall_monotone_in_bytes(self):
        c = ctx(net=ETH)
        assert alltoall_time(c, 1e6) < alltoall_time(c, 1e7)

    def test_alltoallv_max_pair_gates_rounds(self):
        c = ctx(net=ETH)
        balanced = alltoallv_time(c, 1e6, max_pair=1e6 / c.p)
        skewed = alltoallv_time(c, 1e6, max_pair=4e6 / c.p)
        assert skewed > 2 * balanced

    def test_scatter_gather_positive(self):
        c = ctx()
        for fn in (gather_time, scatter_time, allgather_time):
            assert fn(c, 4096) > 0.0

    def test_negative_free_for_zero_bytes(self):
        c = ctx()
        assert gather_time(c, 0.0) >= 0.0
        assert allgather_time(c, 0.0) >= 0.0


class TestHypervisorExtraLatency:
    def test_extra_latency_inflates_internode_rounds(self):
        base = allreduce_time(ctx(net=ETH, extra=0.0), 8)
        jittery = allreduce_time(ctx(net=ETH, extra=100e-6), 8)
        inter, _ = ctx(net=ETH).tree_rounds()
        assert jittery - base == pytest.approx(inter * 100e-6, rel=0.01)
