"""Declarative builder for user-defined platforms.

The three paper platforms are hand-calibrated, but the study API is
general: :func:`make_platform` assembles a :class:`PlatformSpec` from
named building blocks so users can model their own cluster (or
counterfactuals — "Vayu with GigE", "DCC without a hypervisor") in a few
lines::

    from repro.platforms.builder import make_platform

    spec = make_platform(
        "mycluster", num_nodes=16, clock_ghz=2.6, cores_per_socket=8,
        fabric="10gige", hypervisor="none", filesystem="lustre",
    )
    result = get_benchmark("cg").run(spec, 64)
"""

from __future__ import annotations

import typing as _t

from repro.errors import ConfigError
from repro.hardware.cpu import CoreSpec, CpuSpec, SocketSpec
from repro.hardware.interconnect import (
    EthernetFabric,
    FabricSpec,
    InfinibandFabric,
    SharedMemoryFabric,
)
from repro.hardware.node import NodeSpec
from repro.hardware.storage import FilesystemSpec, LUSTRE_VAYU, NFS_DCC
from repro.platforms.base import PlatformSpec
from repro.virt.esx import VmwareEsx
from repro.virt.hypervisor import Hypervisor, NoHypervisor
from repro.virt.jitter import OsNoiseModel, QUIET_HPC_NODE, STOCK_GUEST_VM
from repro.virt.xen import XenHvm

#: Named fabric presets (factories so each call owns its spec).
_FABRICS: dict[str, _t.Callable[[], FabricSpec]] = {
    "gige": lambda: EthernetFabric("1 GigE", latency=30e-6, peak_bw=118e6,
                                   n_half=2048),
    "10gige": lambda: EthernetFabric("10 GigE", latency=12e-6, peak_bw=1.15e9,
                                     n_half=4096),
    "qdr-ib": lambda: InfinibandFabric(),
    "fdr-ib": lambda: InfinibandFabric("FDR IB", latency=1.0e-6, peak_bw=6.0e9),
}

#: Named hypervisor presets.
_HYPERVISORS: dict[str, _t.Callable[[], Hypervisor]] = {
    "none": NoHypervisor,
    "esx": VmwareEsx,
    "xen": XenHvm,
}

#: Named filesystem presets.
_FILESYSTEMS: dict[str, FilesystemSpec] = {
    "nfs": NFS_DCC,
    "lustre": LUSTRE_VAYU,
}


def _pick(table: _t.Mapping[str, _t.Any], key: str, what: str) -> _t.Any:
    try:
        return table[key.lower()]
    except KeyError:
        raise ConfigError(
            f"unknown {what} {key!r}; available: {sorted(table)}"
        ) from None


def make_platform(
    name: str,
    *,
    num_nodes: int,
    clock_ghz: float,
    cores_per_socket: int = 4,
    sockets: int = 2,
    flops_per_cycle: float = 1.0,
    mem_bw_gbs: float = 14.0,
    cache_mb: int = 8,
    dram_gb: int = 32,
    smt_enabled: bool = False,
    fabric: str | FabricSpec = "10gige",
    hypervisor: str | _t.Callable[[], Hypervisor] = "none",
    filesystem: str | FilesystemSpec = "nfs",
    noise: OsNoiseModel | None = None,
    numa_affinity_enforced: bool | None = None,
    description: str = "",
) -> PlatformSpec:
    """Assemble a :class:`PlatformSpec` from presets and scalars.

    Defaults follow sensible 2012-era commodity-cluster values; pass a
    concrete :class:`FabricSpec`/:class:`FilesystemSpec`/hypervisor
    factory to override any preset.
    """
    if num_nodes < 1 or clock_ghz <= 0:
        raise ConfigError(f"invalid platform shape: nodes={num_nodes}, clock={clock_ghz}")
    core = CoreSpec(clock_hz=clock_ghz * 1e9, flops_per_cycle=flops_per_cycle)
    socket = SocketSpec(
        cores=cores_per_socket,
        core=core,
        l2_cache_bytes=cache_mb << 20,
        mem_bw=mem_bw_gbs * 1e9,
    )
    cpu = CpuSpec(model=f"{name} CPU", sockets=sockets, socket=socket,
                  smt=2, smt_enabled=smt_enabled)
    fabric_spec = fabric if isinstance(fabric, FabricSpec) else _pick(
        _FABRICS, fabric, "fabric")()
    hv_factory = hypervisor if callable(hypervisor) else _pick(
        _HYPERVISORS, hypervisor, "hypervisor")
    fs_spec = filesystem if isinstance(filesystem, FilesystemSpec) else _pick(
        _FILESYSTEMS, filesystem, "filesystem")
    bare_metal = isinstance(hv_factory(), NoHypervisor)
    if numa_affinity_enforced is None:
        numa_affinity_enforced = bare_metal
    return PlatformSpec(
        name=name,
        description=description or f"user-defined platform {name!r}",
        num_nodes=num_nodes,
        node=NodeSpec(name=name.lower(), cpu=cpu, dram_bytes=dram_gb << 30),
        fabric=fabric_spec,
        shm=SharedMemoryFabric(),
        fs=fs_spec,
        hypervisor_factory=hv_factory,
        noise=noise or (QUIET_HPC_NODE if bare_metal else STOCK_GUEST_VM),
        numa_affinity_enforced=numa_affinity_enforced,
        numa_penalty_spread=0.0 if bare_metal else 0.05,
        numa_burst_noise=0.0 if bare_metal else 0.2,
        interconnect_label=fabric_spec.name,
    )
