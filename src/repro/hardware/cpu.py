"""CPU performance models.

The model is a two-parameter roofline per core: an effective flop rate
(clock x effective flops/cycle) and a share of the socket memory
bandwidth.  "Effective flops/cycle" is a *sustained* figure for the
workload mix in this study (CFD kernels, sparse solvers), not the SIMD
peak — the calibration notes in :mod:`repro.platforms` explain the values
chosen for each machine.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ConfigError


@dataclasses.dataclass(frozen=True, slots=True)
class CoreSpec:
    """One CPU core.

    Parameters
    ----------
    clock_hz:
        Core clock frequency.
    flops_per_cycle:
        Sustained double-precision flops retired per cycle for the
        workload family under study (calibration constant).
    """

    clock_hz: float
    flops_per_cycle: float = 1.0

    def __post_init__(self) -> None:
        if self.clock_hz <= 0 or self.flops_per_cycle <= 0:
            raise ConfigError(f"invalid CoreSpec: {self}")

    @property
    def flop_rate(self) -> float:
        """Sustained flop/s of one core with no memory or SMT pressure."""
        return self.clock_hz * self.flops_per_cycle


@dataclasses.dataclass(frozen=True, slots=True)
class SocketSpec:
    """One CPU socket: cores plus the shared cache and memory channel.

    ``mem_bw`` is the *sustained* socket memory bandwidth (bytes/s) —
    stream-like, shared by all ranks resident on the socket.
    """

    cores: int
    core: CoreSpec
    l2_cache_bytes: int
    mem_bw: float

    def __post_init__(self) -> None:
        if self.cores < 1 or self.l2_cache_bytes <= 0 or self.mem_bw <= 0:
            raise ConfigError(f"invalid SocketSpec: {self}")


@dataclasses.dataclass(frozen=True, slots=True)
class CpuSpec:
    """A whole CPU package complement for one node.

    Parameters
    ----------
    model:
        Marketing name, echoed in Table-I style reports.
    sockets / socket:
        Socket count and per-socket description.
    smt:
        Hardware threads per core.  ``smt=2`` with
        ``smt_enabled=True`` doubles the *schedulable* slots but SMT
        siblings share the core pipeline: the aggregate throughput of a
        2-way SMT core is ``smt_yield`` x one thread, so each of two
        co-resident threads runs at ``smt_yield / 2`` of a full core.
    """

    model: str
    sockets: int
    socket: SocketSpec
    smt: int = 2
    smt_enabled: bool = False
    smt_yield: float = 1.25

    def __post_init__(self) -> None:
        if self.sockets < 1 or self.smt < 1:
            raise ConfigError(f"invalid CpuSpec: {self}")
        if not (1.0 <= self.smt_yield <= float(self.smt)):
            raise ConfigError(
                f"smt_yield must lie in [1, smt]={self.smt}, got {self.smt_yield}"
            )

    @property
    def physical_cores(self) -> int:
        """Physical cores on the node."""
        return self.sockets * self.socket.cores

    @property
    def schedulable_slots(self) -> int:
        """Hardware threads the OS (or hypervisor) exposes as 'cores'."""
        if self.smt_enabled:
            return self.physical_cores * self.smt
        return self.physical_cores

    def core_throughput_factor(self, ranks_on_node: int) -> float:
        """Per-rank pipeline-throughput factor for ``ranks_on_node`` ranks.

        Below the physical core count every rank gets a full core
        (factor 1).  Beyond it, SMT sharing kicks in: with ``r`` ranks on
        ``c`` physical cores, total node throughput interpolates from
        ``c`` (at ``r = c``) towards ``c * smt_yield`` (at ``r = c*smt``),
        so each rank gets ``throughput / r`` of a core.  This is what
        makes the EC2 cluster's 16-"core" nodes lose per-rank speed past
        8 ranks (paper section V-B, Fig 4 and the EC2 vs EC2-4 UM runs).
        """
        if ranks_on_node < 1:
            raise ConfigError(f"ranks_on_node must be >= 1, got {ranks_on_node}")
        c = self.physical_cores
        if ranks_on_node <= c:
            return 1.0
        slots = self.schedulable_slots
        if ranks_on_node > slots:
            # Oversubscription beyond hardware threads: pure timesharing.
            node_throughput = c * self.smt_yield if self.smt_enabled else c
            return node_throughput / ranks_on_node
        # Linear interpolation of aggregate throughput between c and
        # c * smt_yield as SMT siblings fill up.
        frac = (ranks_on_node - c) / (slots - c)
        node_throughput = c + (c * self.smt_yield - c) * frac
        return node_throughput / ranks_on_node
