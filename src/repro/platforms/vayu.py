"""Vayu — the NCI National Facility supercomputer (paper Table I, col 3).

1492 Sun/Oracle X6275 blades, two quad-core Xeon X5570 (Nehalem-EP,
2.93 GHz) per node, 24 GB RAM, QDR InfiniBand fat tree, Lustre, ANUPBS
suspend-resume scheduler.  Ranked #64 on the June 2011 Top500.

Calibration notes
-----------------
* ``flops_per_cycle = 1.10`` — sustained rate for the CFD/solver workload
  family; together with DCC's 1.00 it yields a serial-speed ratio of
  (2.93*1.10)/(2.27*1.00) = 1.42, matching the ~0.7 normalised Vayu bars
  of the paper's Fig 3 and the rcomp = 1.37 of Table III.
* ``mem_bw = 16 GB/s`` per socket — sustained triad-class bandwidth of
  Nehalem-EP with DDR3-1333 (X5570 has ~2x the E5520's sustained
  bandwidth, which is why memory-bound kernels normalise below the clock
  ratio in Fig 3).
* QDR IB: 1.3 us one-way latency, 3.2 GB/s effective peak — the paper's
  Fig 1 shows Vayu "more than one order of magnitude" above EC2's
  ~560 MB/s for all message sizes, and Fig 2 shows microsecond-class
  latency.
* NUMA affinity enforced: "NUMA affinity is enforced by the version of
  OpenMPI used on Vayu" (paper V-C.2), hence no NUMA penalty.
* SSE4 present (Nehalem) — binaries compiled here with SSE4 enabled fail
  on pre-Nehalem hosts, the packaging pitfall of section V-C.
"""

from __future__ import annotations

from repro.hardware.cpu import CoreSpec, CpuSpec, SocketSpec
from repro.hardware.interconnect import InfinibandFabric, SharedMemoryFabric
from repro.hardware.node import NodeSpec
from repro.hardware.storage import LUSTRE_VAYU
from repro.platforms.base import PlatformSpec
from repro.virt.hypervisor import NoHypervisor
from repro.virt.jitter import QUIET_HPC_NODE

_X5570 = CoreSpec(clock_hz=2.93e9, flops_per_cycle=1.10)

_SOCKET = SocketSpec(
    cores=4,
    core=_X5570,
    l2_cache_bytes=8 << 20,
    mem_bw=16e9,
)

_CPU = CpuSpec(
    model="Intel Xeon X5570",
    sockets=2,
    socket=_SOCKET,
    smt=2,
    smt_enabled=False,  # HT disabled on Vayu compute nodes (8 cores seen)
)

_NODE = NodeSpec(name="vayu", cpu=_CPU, dram_bytes=24 << 30)

VAYU = PlatformSpec(
    name="Vayu",
    description="NCI-NF Sun/Oracle X6275 cluster, QDR InfiniBand, Lustre",
    num_nodes=16,  # ample subset of the 1492-node machine for <=128-rank runs
    node=_NODE,
    fabric=InfinibandFabric(
        "QDR IB",
        latency=1.3e-6,
        peak_bw=3.2e9,
        n_half=1024,  # ~0.3 us per-packet HCA cost
        o_send=0.3e-6,
        o_recv=0.3e-6,
        eager_threshold=12 * 1024,
    ),
    shm=SharedMemoryFabric(peak_bw=3.2e9),
    fs=LUSTRE_VAYU,
    hypervisor_factory=NoHypervisor,
    noise=QUIET_HPC_NODE,
    numa_affinity_enforced=True,
    os_name="CentOS 5.7",
    interconnect_label="QDR IB",
    scheduler="ANUPBS (suspend-resume)",
)
