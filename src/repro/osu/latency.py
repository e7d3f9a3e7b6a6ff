"""``osu_latency``: ping-pong latency vs message size (paper Fig 2).

:func:`osu_latency` evaluates the ping-pong between two ranks on two
nodes as a recurrence over message times (:class:`_Wire`), with no
event engine.  :func:`_latency_program` is the same loop as a simulated
MPI program; it is the oracle the recurrence must equal, float for
float.
"""

from __future__ import annotations

import typing as _t

from repro.errors import ConfigError
from repro.platforms.base import Platform, PlatformSpec
from repro.sim.engine import Engine


def _pingpong(comm, peer: int, size: int) -> _t.Generator:
    """One ping-pong round trip (rank 0 sends first, rank 1 echoes)."""
    if comm.rank == 0:
        yield from comm.send(peer, size)
        yield from comm.recv(peer)
    else:
        yield from comm.recv(peer)
        yield from comm.send(peer, size)


def _latency_program(
    comm, sizes: _t.Sequence[int], iterations: int, warmup: int
) -> _t.Generator:
    """The OSU ping-pong loop: rank 0 sends, rank 1 echoes."""
    results: dict[int, float] = {}
    peer = 1 - comm.rank
    for size in sizes:
        for phase, count in (("warmup", warmup), ("timed", iterations)):
            if phase == "timed":
                t_start = comm.wtime()
            for _ in range(count):
                yield from _pingpong(comm, peer, size)
        results[size] = (comm.wtime() - t_start) / (2.0 * iterations)
    return results


class _Wire:
    """Message times between two ranks on two nodes, as the engine's
    point-to-point protocol (:mod:`repro.smpi.world`) computes them.

    Each step does the engine's float operations in its order: a delay
    lands at ``now + delay``, and a ``call_at`` at ``now + ((now +
    latency + draw) - now)``.  The draws come from the stream a world
    on ``spec`` with ``seed`` would draw from, and must be taken in the
    order the world takes them.
    """

    def __init__(self, spec: PlatformSpec, seed: int) -> None:
        plat = Platform(spec, Engine(seed=seed))
        self.platform = plat
        self.fabric = fabric = spec.fabric
        self.draw = plat.net_extra_latency
        self.latency = fabric.latency
        self.o_send = float(fabric.o_send)
        self.o_recv = float(fabric.o_recv)

    def land(self, now: float) -> float:
        """When a message (or an RTS or CTS) sent at ``now`` lands."""
        return now + ((now + self.latency + self.draw()) - now)

    def received(self, landed: float) -> float:
        """When a receive matched at ``landed`` completes."""
        return landed + self.o_recv if self.o_recv > 0 else landed

    def serialize(self, size: int) -> float:
        """The NIC's serialisation time for ``size`` bytes."""
        return float(self.platform.net_serialize(size))

    def oneway(self, now: float, size: int, ser: float) -> float:
        """Completion of a receive already posted for a ``size``-byte
        message that is sent at ``now`` through an idle NIC."""
        t = now + self.o_send
        if self.fabric.uses_rendezvous(size):
            t = self.land(self.land(t))  # the RTS, then the CTS back
        return self.received(self.land(t + ser))


def osu_latency(
    platform: PlatformSpec,
    sizes: _t.Sequence[int] | None = None,
    *,
    iterations: int = 100,
    warmup: int = 10,
    seed: int = 0,
) -> dict[int, float]:
    """Run the OSU latency test between two nodes of ``platform``.

    Returns ``{message size: one-way latency in seconds}``.
    """
    from repro.osu import DEFAULT_SIZES

    sizes = list(sizes) if sizes is not None else list(DEFAULT_SIZES)
    if not sizes or min(sizes) < 1:
        raise ConfigError(f"invalid message sizes: {sizes}")
    if platform.num_nodes < 2:
        raise ConfigError("osu_latency needs two nodes")
    wire = _Wire(platform, seed)
    oneway = wire.oneway
    results: dict[int, float] = {}
    now = 0.0  # rank 0's clock; each receive is posted before its message lands
    for size in sizes:
        ser = wire.serialize(size)
        for phase, count in (("warmup", warmup), ("timed", iterations)):
            if phase == "timed":
                t_start = now
            for _ in range(count):
                now = oneway(oneway(now, size, ser), size, ser)
        results[size] = (now - t_start) / (2.0 * iterations)
    return results
