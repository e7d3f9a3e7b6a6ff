"""Hypervisor base model.

A hypervisor perturbs the bare-hardware models in four ways:

1. **Network path** — extra per-message latency (software switch,
   driver-domain hop) and a throughput factor on the wire time.
2. **NUMA masking** — the guest sees a flat topology, so memory-bound
   ranks pay a locality penalty the bare-metal platform avoids through
   affinity (paper sections V-B "CG" and V-C.2).
3. **Compute jitter** — multiplicative noise on compute bursts from
   hypervisor CPU scheduling.
4. **System-time attribution** — the share of communication time the
   guest kernel accounts as *system* time (visible in the paper's Fig 7
   IPM profiles, where DCC's MPI time "is primarily in system time").
"""

from __future__ import annotations

import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover
    import numpy as np


class Hypervisor:
    """Base class; also usable directly as a perturbation-free layer."""

    #: Display name for Table-I style reports.
    name: str = "hypervisor"
    #: Whether the guest is denied the host's NUMA topology.
    masks_numa: bool = False
    #: Whether SMT siblings are exposed to the guest as full cores.
    exposes_smt_as_cores: bool = False
    #: Fraction of communication time attributed to system time in
    #: guest-side profiles (bare metal: interrupt handling only).
    system_time_share: float = 0.1

    def net_extra_latency(self, rng: np.random.Generator) -> float:
        """Additional one-way latency for one message (seconds)."""
        return 0.0

    def net_bw_factor(self) -> float:
        """Multiplier (<= 1) on effective network bandwidth."""
        return 1.0

    def compute_jitter(self, rng: np.random.Generator, duration: float) -> float:
        """Extra compute time injected into a burst of ``duration`` seconds."""
        return 0.0

    def describe(self) -> str:
        """One-line description for reports."""
        return self.name


class NoHypervisor(Hypervisor):
    """Bare metal: no virtualisation perturbations at all."""

    name = "none (bare metal)"
    masks_numa = False
    exposes_smt_as_cores = False
    system_time_share = 0.05
