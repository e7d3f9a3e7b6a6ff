"""Platform specification and per-run runtime.

A :class:`PlatformSpec` declares everything Table I of the paper lists
for a machine (nodes, CPU, memory, OS, filesystem, interconnect) plus the
calibration constants of the performance models.  A :class:`Platform` is
instantiated per simulation run: it owns the runtime
:class:`~repro.hardware.node.Node` objects, the topology, a hypervisor
instance and the random streams feeding the stochastic models.

The compute-time model
----------------------
``compute_seconds(rank, flops, mem_bytes)`` implements a per-rank
roofline with platform perturbations::

    t_flop = flops / (core_rate * smt_factor(ranks_on_node))
    bw     = socket_bw / ranks_on_socket          # bandwidth sharing
    bw    *= numa_penalty   if hypervisor masks NUMA and node spans sockets
    t_mem  = mem_bytes / bw
    t      = max(t_flop, t_mem)                   # overlap assumption
    t     += os_noise(t) + hypervisor_jitter(t)

The ``max`` (perfect overlap) is the standard roofline assumption; the
calibration constants absorb the real codes' partial overlap.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.errors import ConfigError
from repro.hardware.interconnect import FabricSpec
from repro.hardware.node import Node, NodeSpec
from repro.hardware.storage import FilesystemSpec
from repro.hardware.topology import ClusterTopology
from repro.virt.hypervisor import Hypervisor, NoHypervisor
from repro.virt.jitter import OsNoiseModel

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


@dataclasses.dataclass(frozen=True, slots=True)
class PlatformSpec:
    """Declarative description of one experimental platform."""

    name: str
    description: str
    num_nodes: int
    node: NodeSpec
    fabric: FabricSpec
    shm: FabricSpec
    fs: FilesystemSpec
    hypervisor_factory: _t.Callable[[], Hypervisor] = NoHypervisor
    noise: OsNoiseModel = OsNoiseModel()
    #: True when the MPI runtime can and does bind ranks and memory to
    #: sockets (Vayu's OpenMPI enforces NUMA affinity, paper V-C.2).
    numa_affinity_enforced: bool = False
    #: Memory-bandwidth multiplier applied when the hypervisor masks
    #: NUMA and a node's ranks span sockets (remote-access penalty).
    numa_penalty_factor: float = 0.62
    #: Half-width of the per-rank uniform spread around the penalty:
    #: with the topology masked, page placement is a lottery — some
    #: ranks land mostly local, others mostly remote.  The spread is the
    #: source of the "greater degree and ... higher irregularity of load
    #: imbalance" the paper's IPM profiles show on DCC (Fig 7), and the
    #: waits it induces in bulk-synchronous collectives are counted as
    #: MPI time, driving memory-bound CG's communication percentages.
    numa_penalty_spread: float = 0.0
    #: Per-burst multiplicative noise amplitude for *memory-bound* bursts
    #: under masked NUMA: each burst draws ``1 + amp * Exp(1)``.  In a
    #: bulk-synchronous code a different rank stalls each iteration, so
    #: every rank accumulates wait time at the next collective — how the
    #: paper's 68-90% CG communication shares arise on DCC without the
    #: average rank being anywhere near that slow.
    numa_burst_noise: float = 0.0
    os_name: str = "CentOS 5.7"
    interconnect_label: str = ""
    scheduler: str = ""

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ConfigError(f"platform needs >= 1 node: {self}")
        if not (0.0 < self.numa_penalty_factor <= 1.0):
            raise ConfigError(f"bad numa_penalty_factor: {self.numa_penalty_factor}")

    def table1_row(self) -> dict[str, str]:
        """This platform's column of the paper's Table I."""
        cpu = self.node.cpu
        cores = cpu.schedulable_slots
        core_note = f"{cores}" + (" (HT)" if cpu.smt_enabled else f" ({cpu.sockets} slots)")
        return {
            "Platform": self.name,
            "# of Nodes": str(self.num_nodes),
            "Model": cpu.model,
            "Clock Spd": f"{cpu.socket.core.clock_hz / 1e9:.2f}GHz",
            "#Cores": core_note,
            "L2 Cache": f"{cpu.socket.l2_cache_bytes >> 20}MB (shared)",
            "Memory per node": f"{self.node.dram_bytes >> 30}GB",
            "Operating System": self.os_name,
            "File System": self.fs.name,
            "Interconnect": self.interconnect_label or self.fabric.name,
        }


class RankComputeModel:
    """Pre-resolved per-rank compute parameters (hot-path cache).

    ``compute_seconds`` is called for every compute burst of every rank,
    so the placement-dependent factors are resolved once after placement
    instead of per call.

    ``cache_share`` is the rank's slice of the socket's last-level cache;
    a burst that declares a ``working_set`` smaller than (or comparable
    to) it re-reads mostly from cache, cutting its DRAM traffic.  The
    quadratic miss form is a standard capacity-miss surrogate: traffic
    falls off sharply once the working set approaches cache size, which
    is what keeps strong scaling of memory-bound kernels (CG, MG) close
    to linear at high process counts on the bare-metal platform.
    """

    __slots__ = ("flop_rate", "mem_bw", "cache_share", "numa_noise", "shapes")

    #: DRAM-traffic floor: even cache-resident sweeps miss compulsorily.
    MISS_FLOOR = 0.08

    def __init__(
        self,
        flop_rate: float,
        mem_bw: float,
        cache_share: float,
        numa_noise: float = 0.0,
    ) -> None:
        self.flop_rate = flop_rate
        self.mem_bw = mem_bw
        self.cache_share = cache_share
        self.numa_noise = numa_noise
        #: ``(flops, mem_bytes, working_set) -> seconds(...)``: the model
        #: is fixed for the life of a world, so each burst shape's
        #: noise-free roofline is computed once.
        self.shapes: dict[tuple[float, float, float], tuple[float, float]] = {}

    def miss_factor(self, working_set: float) -> float:
        """Fraction of declared traffic that actually reaches DRAM."""
        if working_set <= 0 or working_set <= self.cache_share:
            return self.MISS_FLOOR
        frac = 1.0 - self.cache_share / working_set
        return max(self.MISS_FLOOR, frac * frac)

    def seconds(
        self, flops: float, mem_bytes: float, working_set: float = 0.0
    ) -> tuple[float, float]:
        """(noise-free burst duration, memory-boundedness ratio).

        The second element is ``t_mem / t_flop`` (0 when there is no
        memory traffic, ``inf`` for pure traffic): 1 is the roofline
        ridge, larger means deeper into the bandwidth-bound regime.
        """
        t_flop = flops / self.flop_rate if flops > 0 else 0.0
        if mem_bytes > 0:
            traffic = mem_bytes
            if working_set > 0:
                traffic *= self.miss_factor(working_set)
            t_mem = traffic / self.mem_bw
        else:
            t_mem = 0.0
        if t_flop >= t_mem:
            ratio = t_mem / t_flop if t_flop > 0 else 0.0
            return t_flop, ratio
        return t_mem, (t_mem / t_flop if t_flop > 0 else float("inf"))


class Platform:
    """Per-run runtime state for a platform."""

    def __init__(self, spec: PlatformSpec, engine: "Engine") -> None:
        self.spec = spec
        self.engine = engine
        self.hypervisor = spec.hypervisor_factory()
        self.nodes = [Node(engine, spec.node, i) for i in range(spec.num_nodes)]
        self.topology = ClusterTopology(self.nodes, spec.fabric, spec.shm)
        self.fs = spec.fs
        rng = engine.rng.child(f"platform:{spec.name}")
        self._net_rng = rng.stream("net")
        self._compute_rng = rng.stream("compute")
        self._numa_rng = rng.stream("numa")
        # Dedicated stream for the OS-noise spike draws, so that noise
        # models differing only in spike parameters consume identical
        # draw counts from the main compute stream (see OsNoiseModel).
        self._noise_spike_rng = rng.stream("noise-spike")
        self._models: dict[int, RankComputeModel] = {}
        self._shm_pressure: dict[int, float] = {}

    # -- placement-dependent model resolution -----------------------------
    def finalize_placement(self) -> None:
        """Resolve per-rank compute models once all ranks are placed."""
        self._models.clear()
        self._shm_pressure: dict[int, float] = {}
        cpu = self.spec.node.cpu
        core_rate = cpu.socket.core.flop_rate
        for node in self.nodes:
            if not node.ranks:
                continue
            smt_factor = cpu.core_throughput_factor(node.nranks)
            penalized = (
                self.hypervisor.masks_numa
                and not self.spec.numa_affinity_enforced
                and node.spans_sockets()
            )
            max_rps = max(load for load in node.socket_load if load > 0)
            # Intra-node MPI copies share the memory system with the
            # resident ranks; with NUMA masked they also bounce across
            # sockets.  The paper attributes DCC's pathological CG comm
            # percentages on a *single* node to exactly this ("the
            # communication between processes references remote memory
            # frequently", section V-B).
            alpha = 0.45 if penalized else 0.12
            self._shm_pressure[node.index] = 1.0 / (1.0 + alpha * (max_rps - 1))
            numa_rng = self._numa_rng
            # Socket-occupancy scaling: with lightly loaded sockets the
            # memory system absorbs remote accesses (prefetch hides the
            # latency), so the penalty only develops as sockets fill.
            phys = cpu.physical_cores
            load_frac = (
                (min(node.nranks, phys) - 1) / (phys - 1) if phys > 1 else 1.0
            )
            for rank in node.ranks:
                socket = node.rank_socket[rank]
                share = max(1, node.ranks_on_socket(socket))
                bw = cpu.socket.mem_bw / share
                cache_share = cpu.socket.l2_cache_bytes / share
                numa_noise = 0.0
                if penalized and load_frac > 0:
                    base = self.spec.numa_penalty_factor
                    factor = 1.0 - (1.0 - base) * load_frac
                    spread = self.spec.numa_penalty_spread * load_frac
                    if spread > 0:
                        lo = max(0.05, factor - spread)
                        hi = min(1.0, factor + spread)
                        factor = float(numa_rng.uniform(lo, hi))
                    bw *= factor
                    numa_noise = self.spec.numa_burst_noise * load_frac
                self._models[rank] = RankComputeModel(
                    core_rate * smt_factor, bw, cache_share, numa_noise
                )

    def shm_pressure(self, node_index: int) -> float:
        """Intra-node communication bandwidth factor for one node."""
        return self._shm_pressure.get(node_index, 1.0)

    def worst_shm_pressure(self) -> float:
        """The smallest (worst) pressure factor over occupied nodes."""
        return min(self._shm_pressure.values()) if self._shm_pressure else 1.0

    def compute_model(self, rank: int) -> RankComputeModel:
        """The resolved compute model for ``rank``."""
        try:
            return self._models[rank]
        except KeyError:
            raise ConfigError(
                f"rank {rank} has no compute model; was finalize_placement called?"
            ) from None

    # -- performance queries ----------------------------------------------
    #: NUMA-noise weight per access pattern: hardware prefetch hides
    #: remote-memory latency for streaming sweeps, but random sparse
    #: gathers (CG's SpMV, IS's ranking scatter) eat it raw — which is
    #: why the paper sees CG collapse on one DCC node while FT/MG/BT
    #: stay healthy until the job spans GigE.
    ACCESS_NOISE_WEIGHT = {"stream": 0.15, "random": 1.0}

    def compute_seconds(
        self,
        rank: int,
        flops: float,
        mem_bytes: float = 0.0,
        working_set: float = 0.0,
        access: str = "stream",
    ) -> float:
        """Duration of a compute burst on ``rank``, noise included."""
        try:
            model = self._models[rank]
        except KeyError:
            model = self.compute_model(rank)  # raises the ConfigError
        shape = (flops, mem_bytes, working_set)
        roofline = model.shapes.get(shape)
        if roofline is None:
            roofline = model.shapes[shape] = model.seconds(*shape)
        base, boundedness = roofline
        if base <= 0.0:
            return 0.0
        if boundedness > 1.0 and model.numa_noise > 0.0:
            try:
                weight = self.ACCESS_NOISE_WEIGHT[access]
            except KeyError:
                raise ConfigError(
                    f"unknown access pattern {access!r}; expected "
                    f"{sorted(self.ACCESS_NOISE_WEIGHT)}"
                ) from None
            # Stall noise grows with how deep into the bandwidth-bound
            # regime the burst sits.
            depth = min(1.0, (boundedness - 1.0) / 2.5)
            base *= 1.0 + model.numa_noise * weight * depth * float(
                self._compute_rng.exponential(1.0)
            )
        noisy = base + self.spec.noise.sample(
            self._compute_rng, base, spike_rng=self._noise_spike_rng
        )
        return noisy + self.hypervisor.compute_jitter(self._compute_rng, base)

    def net_extra_latency(self) -> float:
        """Sample the hypervisor's extra network latency for one message."""
        return self.hypervisor.net_extra_latency(self._net_rng)

    def net_serialize(self, nbytes: int) -> float:
        """NIC serialisation time for an inter-node message."""
        fabric = self.spec.fabric
        return fabric.serialize_time(nbytes) / self.hypervisor.net_bw_factor()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Platform {self.spec.name} nodes={self.spec.num_nodes}>"
