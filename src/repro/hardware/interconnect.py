"""Interconnect fabric models.

A fabric answers two questions for an ``n``-byte message:

* ``wire_time(n)`` — serialisation + propagation once the message is on
  the link;
* ``latency`` / ``overhead_*`` — fixed per-message costs (NIC + software
  stack on each side).

The measured curves of the OSU benchmarks (paper Figs 1-2) are then an
*output* of the model: the latency test sees
``o_send + extra + latency + n / bw_eff(n) + o_recv``
per one-way trip, and the windowed bandwidth test sees roughly
``n / max(o_send, n / bw_eff(n))``.

Bandwidth as a function of message size follows the classic
half-power-point form ``bw(n) = peak * n / (n + n_half)``, optionally
with a large-message decline term (observed on EC2's virtualised 10 GigE
past ~1 MB).
"""

from __future__ import annotations

import dataclasses

from repro.errors import ConfigError


@dataclasses.dataclass(frozen=True, slots=True)
class BandwidthCurve:
    """Effective bandwidth vs message size.

    ``peak`` is the asymptotic bandwidth (bytes/s); ``n_half`` the message
    size achieving half of it; ``decline`` an optional fractional loss of
    peak approached for messages much larger than ``decline_scale``
    (models TCP window / copy effects on virtualised Ethernet).

    Note that ``serialize_time(n) = n / at(n)`` tends to ``n_half / peak``
    as ``n -> 0``, i.e. ``n_half`` encodes a fixed *per-packet processing
    cost beyond the fabric latency* (which :class:`FabricSpec` charges
    separately).  Keep ``n_half`` small — the small-message shape of the
    measured curves comes from latency and overheads, not from here.
    """

    peak: float
    n_half: float = 4096.0
    decline: float = 0.0
    decline_scale: float = 1 << 20

    def __post_init__(self) -> None:
        if self.peak <= 0 or self.n_half <= 0:
            raise ConfigError(f"invalid BandwidthCurve: {self}")
        if not (0.0 <= self.decline < 1.0):
            raise ConfigError(f"decline must be in [0,1): {self.decline}")

    def at(self, nbytes: float) -> float:
        """Effective bandwidth (bytes/s) for an ``nbytes`` message."""
        if nbytes <= 0:
            return self.peak
        bw = self.peak * nbytes / (nbytes + self.n_half)
        if self.decline:
            loss = self.decline * nbytes / (nbytes + self.decline_scale)
            bw *= 1.0 - loss
        return bw


@dataclasses.dataclass(frozen=True, slots=True)
class FabricSpec:
    """A point-to-point communication fabric.

    Parameters
    ----------
    name:
        Display name ("QDR IB", "10 GigE", ...).
    latency:
        One-way propagation + switch latency for a minimal message (s).
    bw:
        Effective-bandwidth curve.
    o_send / o_recv:
        CPU time consumed on the sender / receiver per message (s).
    eager_threshold:
        Messages at or below this size use the eager protocol; larger
        ones use rendezvous (adds a handshake round trip).
    """

    name: str
    latency: float
    bw: BandwidthCurve
    o_send: float = 1e-6
    o_recv: float = 1e-6
    eager_threshold: int = 12 * 1024
    #: Goodput-loss multiplier (>= 1) on transfer time when several
    #: concurrent streams share the link — TCP incast/contention on
    #: commodity Ethernet; lossless fabrics keep 1.0.
    congestion_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.latency < 0 or self.o_send < 0 or self.o_recv < 0:
            raise ConfigError(f"invalid FabricSpec: {self}")
        if self.eager_threshold < 0:
            raise ConfigError(f"invalid eager threshold: {self.eager_threshold}")

    # -- derived times ---------------------------------------------------
    def serialize_time(self, nbytes: int) -> float:
        """Time to push ``nbytes`` through the NIC onto the wire."""
        if nbytes <= 0:
            return 0.0
        return nbytes / self.bw.at(nbytes)

    def wire_time(self, nbytes: int) -> float:
        """Serialisation plus propagation for one message."""
        return self.latency + self.serialize_time(nbytes)

    def oneway_time(self, nbytes: int) -> float:
        """Full one-way cost including both end-host overheads.

        This is the quantity the OSU latency test reports (it halves a
        round trip, which for symmetric fabrics equals the one-way time).
        """
        return self.o_send + self.wire_time(nbytes) + self.o_recv

    def uses_rendezvous(self, nbytes: int) -> bool:
        """True when ``nbytes`` exceeds the eager threshold."""
        return nbytes > self.eager_threshold


def EthernetFabric(
    name: str,
    *,
    latency: float,
    peak_bw: float,
    n_half: float = 16 * 1024,
    decline: float = 0.0,
    o_send: float = 6e-6,
    o_recv: float = 6e-6,
    eager_threshold: int = 64 * 1024,
    congestion_factor: float = 1.5,
) -> FabricSpec:
    """Ethernet/TCP fabric: higher per-message CPU overheads, late
    half-power point, eager (TCP-buffered) up to a large threshold,
    and goodput loss under concurrent streams (incast)."""
    return FabricSpec(
        name=name,
        latency=latency,
        bw=BandwidthCurve(peak=peak_bw, n_half=n_half, decline=decline),
        o_send=o_send,
        o_recv=o_recv,
        eager_threshold=eager_threshold,
        congestion_factor=congestion_factor,
    )


def InfinibandFabric(
    name: str = "QDR IB",
    *,
    latency: float = 1.3e-6,
    peak_bw: float = 3.2e9,
    n_half: float = 3 * 1024,
    o_send: float = 0.3e-6,
    o_recv: float = 0.3e-6,
    eager_threshold: int = 12 * 1024,
) -> FabricSpec:
    """RDMA-class fabric: microsecond latency, tiny CPU overheads,
    rendezvous beyond the typical 12 KiB eager limit."""
    return FabricSpec(
        name=name,
        latency=latency,
        bw=BandwidthCurve(peak=peak_bw, n_half=n_half),
        o_send=o_send,
        o_recv=o_recv,
        eager_threshold=eager_threshold,
    )


def SharedMemoryFabric(
    name: str = "shm",
    *,
    latency: float = 0.5e-6,
    peak_bw: float = 3.0e9,
    n_half: float = 2 * 1024,
    o_send: float = 0.2e-6,
    o_recv: float = 0.2e-6,
    eager_threshold: int = 32 * 1024,
) -> FabricSpec:
    """Intra-node path through shared memory (per pair of ranks)."""
    return FabricSpec(
        name=name,
        latency=latency,
        bw=BandwidthCurve(peak=peak_bw, n_half=n_half),
        o_send=o_send,
        o_recv=o_recv,
        eager_threshold=eager_threshold,
    )
