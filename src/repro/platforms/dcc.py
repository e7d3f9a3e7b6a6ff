"""DCC — the NCI-NF private VMware cluster (paper Table I, col 1).

Eight Dell M610 blades, each hosting exactly one guest VM under VMware
ESX 4.0 with all physical resources (two quad-core Xeon E5520, 40 GB)
allocated to it; no oversubscription.  Guest networking uses the Intel
E1000 *driver* (a 1 GigE device model) through the ESX vSwitch, whose
two 10 GigE uplinks are channel-bonded; filesystems are NFS mounts from
an external storage cluster.

Calibration notes
-----------------
* ``flops_per_cycle = 1.00`` at 2.27 GHz — DCC is the Fig 3 baseline
  (all normalisations are w.r.t. DCC serial runs).
* ``mem_bw = 11.5 GB/s`` per socket — sustained triad-class bandwidth of
  Nehalem-EP with the E5520's DDR3-800 configuration.
* GigE vNIC: ~195 MB/s effective peak (paper Fig 1: "peak bandwidth of
  ~190 MB/s"); small-message latency dominated by the vSwitch hop plus a
  scheduling-delay tail (Fig 2's fluctuating DCC curve).
* ESX masks NUMA: "the VMware ESX hypervisor masks NUMA effects from
  guest VMs" (paper V-B), so memory-bound codes pay
  ``numa_penalty_factor`` once a node's ranks span both sockets — this
  is what makes CG's speedup drop at 8 processes on DCC (Fig 4).
"""

from __future__ import annotations

from repro.hardware.cpu import CoreSpec, CpuSpec, SocketSpec
from repro.hardware.interconnect import EthernetFabric, SharedMemoryFabric
from repro.hardware.node import NodeSpec
from repro.hardware.storage import NFS_DCC
from repro.platforms.base import PlatformSpec
from repro.virt.esx import VmwareEsx
from repro.virt.jitter import STOCK_GUEST_VM

_E5520 = CoreSpec(clock_hz=2.27e9, flops_per_cycle=1.00)

_SOCKET = SocketSpec(
    cores=4,
    core=_E5520,
    l2_cache_bytes=8 << 20,
    mem_bw=11.5e9,
)

_CPU = CpuSpec(
    model="Intel Xeon E5520",
    sockets=2,
    socket=_SOCKET,
    smt=2,
    smt_enabled=False,  # the guest VM is given 8 vCPUs = 8 physical cores
)

_NODE = NodeSpec(name="dcc", cpu=_CPU, dram_bytes=40 << 30)

DCC = PlatformSpec(
    name="DCC",
    description="NCI-NF private VMware ESX cluster, E1000 vNIC over GigE, NFS",
    num_nodes=8,
    node=_NODE,
    fabric=EthernetFabric(
        "1 GigE (E1000 vNIC)",
        latency=25e-6,
        peak_bw=196e6,
        n_half=2 * 1024,  # ~10 us per-packet E1000 emulation cost
        o_send=7e-6,
        o_recv=7e-6,
        eager_threshold=64 * 1024,
    ),
    shm=SharedMemoryFabric(peak_bw=2.6e9),
    fs=NFS_DCC,
    hypervisor_factory=VmwareEsx,
    noise=STOCK_GUEST_VM,
    numa_affinity_enforced=False,
    numa_penalty_factor=0.94,
    numa_penalty_spread=0.05,
    numa_burst_noise=0.35,
    os_name="Centos 5.7",
    interconnect_label="1GigE",
    scheduler="(dedicated VMs)",
)
