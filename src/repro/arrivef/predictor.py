"""Cross-platform execution-time prediction (ARRIVE-F's model stage).

Given a job's :class:`~repro.arrivef.profiler.OnlineProfile` measured on
one platform, predict its runtime on another by rescaling each subsystem
share with the platforms' model parameters:

* compute: flop-bound share scales with core rate, memory-bound share
  with sustained per-socket bandwidth (NUMA penalty included);
* communication: latency-bound share scales with one-way small-message
  cost, bandwidth-bound share with effective fabric bandwidth;
* I/O scales with filesystem client bandwidth.

This is precisely the ratio arithmetic the paper performs by hand in its
Table III analysis (rcomp tracking the clock ratio, rcomm the fabric),
packaged as a predictor.
"""

from __future__ import annotations

from repro.arrivef.profiler import OnlineProfile
from repro.errors import ConfigError
from repro.platforms.base import PlatformSpec


class PlatformPredictor:
    """Predicts runtimes across calibrated platform models."""

    def __init__(self, reference: PlatformSpec) -> None:
        self.reference = reference

    # -- subsystem rates ---------------------------------------------------
    @staticmethod
    def _core_rate(spec: PlatformSpec) -> float:
        return spec.node.cpu.socket.core.flop_rate

    @staticmethod
    def _mem_rate(spec: PlatformSpec) -> float:
        rate = spec.node.cpu.socket.mem_bw
        hv = spec.hypervisor_factory()
        if hv.masks_numa and not spec.numa_affinity_enforced:
            rate *= spec.numa_penalty_factor
        return rate

    @staticmethod
    def _latency_cost(spec: PlatformSpec) -> float:
        hv = spec.hypervisor_factory()
        # Mean extra latency: sample-free estimate from the model means.
        extra = 0.0
        for attr in ("switch_latency", "driver_latency"):
            extra += getattr(hv, attr, 0.0)
        for attr in ("sched_delay_mean",):
            extra += getattr(hv, attr, 0.0)
        return spec.fabric.oneway_time(8) + extra

    @staticmethod
    def _bw_cost(spec: PlatformSpec, nbytes: float) -> float:
        return max(1e-12, nbytes) / spec.fabric.bw.at(max(1.0, nbytes))

    def slowdown(self, profile: OnlineProfile, target: PlatformSpec) -> float:
        """Predicted runtime ratio target/reference for this profile."""
        ref, tgt = self.reference, target
        # Compute share.
        comp_share = max(0.0, 1.0 - profile.comm_fraction - profile.io_fraction)
        flop_ratio = self._core_rate(ref) / self._core_rate(tgt)
        mem_ratio = self._mem_rate(ref) / self._mem_rate(tgt)
        comp_ratio = (
            (1.0 - profile.mem_boundedness) * flop_ratio
            + profile.mem_boundedness * mem_ratio
        )
        # Communication share.
        lat_ratio = self._latency_cost(tgt) / self._latency_cost(ref)
        bw_ratio = self._bw_cost(tgt, profile.mean_msg_bytes) / self._bw_cost(
            ref, profile.mean_msg_bytes
        )
        comm_ratio = (
            profile.small_msg_fraction * lat_ratio
            + (1.0 - profile.small_msg_fraction) * bw_ratio
        )
        # I/O share.
        io_ratio = ref.fs.client_bw / tgt.fs.client_bw
        return (
            comp_share * comp_ratio
            + profile.comm_fraction * comm_ratio
            + profile.io_fraction * io_ratio
        )

    def predict(
        self, profile: OnlineProfile, runtime_on_reference: float, target: PlatformSpec
    ) -> float:
        """Predicted wall time on ``target``."""
        if runtime_on_reference <= 0:
            raise ConfigError(f"bad reference runtime: {runtime_on_reference}")
        return runtime_on_reference * self.slowdown(profile, target)
