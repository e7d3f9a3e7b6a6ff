"""Analytic cost models for MPI collective algorithms.

Every function returns the elapsed seconds of one collective once all
ranks have arrived, for the standard algorithms used by OpenMPI-era
runtimes:

========== =====================================================
allreduce  recursive doubling (small), ring reduce-scatter+allgather (large)
allgather  ring
alltoall   pairwise exchange over ``p - 1`` rounds
gather     root-link serialisation
scatter    root-link serialisation
barrier    recursive doubling with minimal messages
========== =====================================================

Topology awareness
------------------
Rounds are split into inter-node and intra-node parts.  An inter-node
round pays fabric latency (plus the hypervisor's per-message extra) and —
crucially — shares the node's NIC among the ``rpn`` ranks resident on the
node, so its transfer term is ``rpn * m / bw(m)``.  This NIC sharing is
what reproduces the paper's GigE cliff when NPB jobs first span two DCC
nodes, and the recovery at higher process counts for All-to-all-bound FT
("the message size for MPI AlltoAll communication decreas[es] with an
increase in the number of processes, resulting in reduced communication
overhead").
"""

from __future__ import annotations

import dataclasses
import math

from repro.errors import ConfigError
from repro.hardware.interconnect import FabricSpec

#: Reduction arithmetic throughput (bytes/s) — combining buffers runs
#: at streaming memory speed.
_REDUCE_BW = 8.0e9

#: Message size used by barrier control messages.
_BARRIER_BYTES = 8


@dataclasses.dataclass(frozen=True, slots=True)
class CollectiveContext:
    """Topology snapshot a collective executes in.

    ``p`` ranks over ``nnodes`` nodes with at most ``rpn`` ranks on any
    node; ``extra_latency`` is the hypervisor's sampled per-message
    addition for this operation; ``net_bw_factor`` scales fabric
    bandwidth (hypervisor throughput loss).
    """

    p: int
    nnodes: int
    rpn: int
    net: FabricSpec
    shm: FabricSpec
    extra_latency: float = 0.0
    net_bw_factor: float = 1.0
    #: Intra-node copy bandwidth factor (memory pressure / NUMA masking).
    shm_bw_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.p < 1 or self.nnodes < 1 or self.rpn < 1:
            raise ConfigError(f"invalid CollectiveContext: {self}")
        if self.nnodes > self.p or self.rpn > self.p:
            raise ConfigError(f"inconsistent CollectiveContext: {self}")

    # -- per-message costs -------------------------------------------------
    def net_msg(self, nbytes: float, link_share: int = 1) -> float:
        """One inter-node message with ``link_share`` concurrent senders
        on the same NIC.

        Concurrent streams pay the fabric's congestion factor (TCP
        incast on commodity Ethernet), and rendezvous-sized messages add
        the handshake round trip.
        """
        net = self.net
        bw = net.bw.at(nbytes) * self.net_bw_factor
        if nbytes > 0:
            transfer = (nbytes * link_share) / bw
            if link_share > 1:
                transfer *= net.congestion_factor
        else:
            transfer = 0.0
        latency = net.latency + self.extra_latency
        if nbytes > net.eager_threshold:
            latency *= 3.0  # RTS/CTS handshake: two extra traversals
        return net.o_send + latency + transfer + net.o_recv

    def shm_msg(self, nbytes: float) -> float:
        """One intra-node (shared-memory) message."""
        shm = self.shm
        if nbytes > 0:
            transfer = nbytes / (shm.bw.at(nbytes) * self.shm_bw_factor)
        else:
            transfer = 0.0
        return shm.o_send + shm.latency + transfer + shm.o_recv

    # -- round structure -----------------------------------------------------
    def tree_rounds(self) -> tuple[int, int]:
        """(inter-node, intra-node) rounds of a log2-depth tree/doubling."""
        total = math.ceil(math.log2(self.p)) if self.p > 1 else 0
        inter = math.ceil(math.log2(self.nnodes)) if self.nnodes > 1 else 0
        inter = min(inter, total)
        return inter, total - inter

    def ring_pass(self, chunk: float) -> float:
        """One ``p-1``-step ring pass moving ``chunk`` bytes per step.

        All ranks send concurrently each step; with block placement each
        node has exactly one boundary rank sending off-node, so when the
        communicator spans nodes every step is gated by a single
        inter-node message (no NIC sharing), otherwise by the
        shared-memory path.
        """
        steps = self.p - 1
        if steps <= 0:
            return 0.0
        if self.nnodes > 1:
            return steps * self.net_msg(chunk)
        return steps * self.shm_msg(chunk)


def _reduce_cost(nbytes: float, rounds: int) -> float:
    """Arithmetic cost of combining ``nbytes`` buffers ``rounds`` times."""
    return rounds * nbytes / _REDUCE_BW


def barrier_time(ctx: CollectiveContext) -> float:
    """Recursive-doubling barrier."""
    inter, intra = ctx.tree_rounds()
    return inter * ctx.net_msg(_BARRIER_BYTES) + intra * ctx.shm_msg(_BARRIER_BYTES)


def allreduce_time(ctx: CollectiveContext, nbytes: float) -> float:
    """Recursive doubling (small) or ring reduce-scatter+allgather (large).

    The small-message path is the one the applications hammer: Chaste's
    KSp section is "entirely 4-byte all-reduce operations" and UM's
    Helmholtz solver is dominated by short all-reduces, so their scaling
    on each platform follows ``log2(nnodes) * (latency + hv_extra)``.
    """
    if ctx.p == 1:
        return 0.0
    inter, intra = ctx.tree_rounds()
    if nbytes <= 2048:
        return (
            inter * ctx.net_msg(nbytes)
            + intra * ctx.shm_msg(nbytes)
            + _reduce_cost(nbytes, inter + intra)
        )
    # Ring: two passes of p-1 steps carrying nbytes/p each.
    chunk = nbytes / ctx.p
    return 2.0 * ctx.ring_pass(chunk) + _reduce_cost(nbytes, 1)


def allgather_time(ctx: CollectiveContext, nbytes_contrib: float) -> float:
    """Ring allgather of a ``nbytes_contrib`` block per rank."""
    return ctx.ring_pass(nbytes_contrib)


def alltoall_time(ctx: CollectiveContext, nbytes_per_rank: float) -> float:
    """Pairwise-exchange all-to-all.

    ``nbytes_per_rank`` is the *total* payload each rank sends (split
    evenly over the ``p`` destinations, self included, as NPB FT/IS do).
    Each rank runs ``p-1`` exchange rounds: ``p - rpn`` with off-node
    partners (NIC shared by ``rpn`` co-resident ranks) and ``rpn - 1``
    with on-node partners.
    """
    if ctx.p == 1:
        return 0.0
    pair = nbytes_per_rank / ctx.p
    remote_rounds = ctx.p - ctx.rpn
    local_rounds = ctx.rpn - 1
    return remote_rounds * ctx.net_msg(pair, link_share=ctx.rpn) + local_rounds * ctx.shm_msg(
        pair
    )


def alltoallv_time(
    ctx: CollectiveContext, total_send: float, max_pair: float | None = None
) -> float:
    """Irregular all-to-all: like :func:`alltoall_time` but the per-round
    message is the *largest* pairwise block (stragglers gate each round)."""
    if ctx.p == 1:
        return 0.0
    pair = max_pair if max_pair is not None else total_send / ctx.p
    remote_rounds = ctx.p - ctx.rpn
    local_rounds = ctx.rpn - 1
    return remote_rounds * ctx.net_msg(pair, link_share=ctx.rpn) + local_rounds * ctx.shm_msg(
        pair
    )


def gather_time(ctx: CollectiveContext, nbytes_contrib: float) -> float:
    """Gather to a root: the root's link serialises off-node blocks."""
    if ctx.p == 1:
        return 0.0
    off_node = ctx.p - ctx.rpn
    on_node = ctx.rpn - 1
    net = ctx.net
    bw = net.bw.at(nbytes_contrib) * ctx.net_bw_factor
    wire = off_node * nbytes_contrib / bw if off_node else 0.0
    lat = (net.latency + ctx.extra_latency + net.o_recv) if off_node else 0.0
    return lat + wire + on_node * ctx.shm_msg(nbytes_contrib) * 0.5


def scatter_time(ctx: CollectiveContext, nbytes_contrib: float) -> float:
    """Scatter from a root (mirror of :func:`gather_time`)."""
    return gather_time(ctx, nbytes_contrib)
