"""Virtualisation models: hypervisors and OS noise.

The paper's three platforms differ in their virtualisation layer — none
(Vayu), VMware ESX 4.0 (DCC) and Xen (EC2) — and several of its findings
are direct consequences of that layer:

* DCC's OSU latency "fluctuated from 1 byte to 512 KB" because packets
  traverse ESX's software vSwitch and depend on hypervisor CPU
  scheduling;
* EC2's EP runs "fluctuate but maintain an upward trend" because of Xen
  scheduling and HyperThreading-induced system jitter;
* both hypervisors hide NUMA topology from the guest, so runtimes cannot
  make "judicious thread and memory placement decisions";
* on the virtualised platforms communication time is reported mostly as
  *system* time (paper Fig 7).

Each effect is a small, named model here, applied by the platform's
compute/communication paths.
"""

from repro.virt.hypervisor import Hypervisor, NoHypervisor
from repro.virt.esx import VmwareEsx
from repro.virt.xen import XenHvm
from repro.virt.jitter import OsNoiseModel

__all__ = [
    "Hypervisor",
    "NoHypervisor",
    "OsNoiseModel",
    "VmwareEsx",
    "XenHvm",
]
