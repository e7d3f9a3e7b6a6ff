"""Xen model (Amazon EC2's hypervisor for cc1.4xlarge instances).

Calibration notes (paper sections IV and V-B, and the cited Atif &
Strazdins HPCVirt'09 study of communication interfaces in virtualised SMP
clusters):

* EC2 networking goes through the Xen netfront/netback split-driver path
  plus the placement-group 10 GigE fabric; per-message latency is tens of
  microseconds but *stable* compared with ESX's vSwitch (the paper's
  Fig 2 shows smooth EC2 curves).
* cc1.4xlarge exposes 16 hardware threads of 8 physical cores as vCPUs;
  "the fluctuation [of EP] is due to CPU scheduling of [the] Xen
  hypervisor and system jitter brought on by the use of HyperThreading",
  and kernels drop in performance at 16 rather than 32 cores because of
  "the HyperThreading and communication overhead of the Xen hypervisor".
* Xen also hides NUMA from the guest.
"""

from __future__ import annotations

import typing as _t

from repro.virt.hypervisor import Hypervisor

if _t.TYPE_CHECKING:  # pragma: no cover
    import numpy as np


class XenHvm(Hypervisor):
    """Xen as deployed for EC2 cluster-compute instances."""

    name = "Xen (EC2 cc1.4xlarge, HVM + split network driver)"
    masks_numa = True
    exposes_smt_as_cores = True
    system_time_share = 0.6

    def __init__(
        self,
        *,
        driver_latency: float = 18e-6,
        sched_delay_mean: float = 6e-6,
        bw_factor: float = 1.0,
        jitter_frac: float = 0.03,
        jitter_spike_prob: float = 0.02,
        jitter_spike_frac: float = 0.35,
    ) -> None:
        self.driver_latency = driver_latency
        self.sched_delay_mean = sched_delay_mean
        self.bw_factor = bw_factor
        self.jitter_frac = jitter_frac
        self.jitter_spike_prob = jitter_spike_prob
        self.jitter_spike_frac = jitter_spike_frac

    def net_extra_latency(self, rng: np.random.Generator) -> float:
        return self.driver_latency + rng.exponential(self.sched_delay_mean)

    def net_bw_factor(self) -> float:
        return self.bw_factor

    def compute_jitter(self, rng: np.random.Generator, duration: float) -> float:
        """HT/scheduler noise: small steady term plus occasional spikes.

        The spikes are what makes EC2's EP speedup "fluctuate but
        maintain an upward trend" in the paper's Fig 4, since EP has no
        communication to hide them behind.
        """
        noise = duration * self.jitter_frac * rng.exponential(1.0)
        if rng.random() < self.jitter_spike_prob:
            noise += duration * self.jitter_spike_frac * rng.random()
        return noise
