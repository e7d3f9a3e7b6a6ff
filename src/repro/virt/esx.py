"""VMware ESX model (the DCC private cloud's hypervisor).

Calibration notes (paper section V-A and IV):

* DCC guests use the Intel E1000 *emulated* vNIC through the ESX
  vSwitch; every packet is processed by hypervisor software, so messages
  pay a substantial extra latency whose magnitude depends on whether the
  vSwitch service happens to be scheduled — the paper observes OSU
  latencies that "fluctuated from 1 byte to 512 KB messages" and
  attributes them to "CPU scheduling of [the] VMware hypervisor as
  networking is done through a proprietary software switch".
  We model this as a base software-switch cost plus an exponential
  scheduling-delay tail.
* ESX masks NUMA from the guest, so neither OpenMPI nor the application
  can bind memory ("applications or supporting runtimes are unable to
  make judicious thread and memory placement decisions").
* Communication time appears almost entirely as guest *system* time
  (Fig 7b).
"""

from __future__ import annotations

import typing as _t

from repro.virt.hypervisor import Hypervisor

if _t.TYPE_CHECKING:  # pragma: no cover
    import numpy as np


class VmwareEsx(Hypervisor):
    """VMware ESX 4.0 with an emulated E1000 vNIC behind a vSwitch."""

    name = "VMware ESX 4.0 (E1000 vNIC, vSwitch)"
    masks_numa = True
    exposes_smt_as_cores = False
    system_time_share = 0.85

    def __init__(
        self,
        *,
        switch_latency: float = 28e-6,
        sched_delay_mean: float = 22e-6,
        sched_spike_prob: float = 0.06,
        sched_spike_mean: float = 180e-6,
        bw_factor: float = 1.0,
        jitter_frac: float = 0.04,
        compute_spike_prob: float = 0.015,
        compute_spike_seconds: float = 0.025,
    ) -> None:
        self.switch_latency = switch_latency
        self.sched_delay_mean = sched_delay_mean
        self.sched_spike_prob = sched_spike_prob
        self.sched_spike_mean = sched_spike_mean
        self.bw_factor = bw_factor
        self.jitter_frac = jitter_frac
        self.compute_spike_prob = compute_spike_prob
        self.compute_spike_seconds = compute_spike_seconds

    def net_extra_latency(self, rng: np.random.Generator) -> float:
        extra = self.switch_latency + rng.exponential(self.sched_delay_mean)
        if rng.random() < self.sched_spike_prob:
            # vSwitch service descheduled: order-100 microsecond stall.
            extra += rng.exponential(self.sched_spike_mean)
        return extra

    def net_bw_factor(self) -> float:
        return self.bw_factor

    def compute_jitter(self, rng: np.random.Generator, duration: float) -> float:
        """Timeslicing noise plus rare long preemptions.

        In bulk-synchronous codes the per-burst noise converts into
        communication wait on every *other* rank — the paper's "load
        imbalance caused by jitter" diagnosis for DCC.
        """
        noise = duration * self.jitter_frac * rng.exponential(1.0)
        if rng.random() < self.compute_spike_prob:
            noise += rng.exponential(self.compute_spike_seconds)
        return noise
