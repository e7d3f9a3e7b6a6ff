"""``osu_bw``: streaming bandwidth vs message size (Fig 1).

The OSU bandwidth test posts a *window* of non-blocking sends per
iteration and waits for a short acknowledgement, so fabric latency is
pipelined away and the measured figure approaches the NIC serialisation
rate — which is why the paper's Fig 1 peaks (~190 MB/s DCC, ~560 MB/s
EC2, multi-GB/s Vayu) sit well above what the latency figures alone
would allow.

:func:`osu_bandwidth` evaluates the loop as a recurrence over message
times (:func:`_window`), with no event engine; :func:`_bw_program` is the
same loop as a simulated MPI program, the oracle the recurrence must
equal, float for float.
"""

from __future__ import annotations

import heapq
import typing as _t

from repro.errors import ConfigError
from repro.osu.latency import _Wire
from repro.platforms.base import PlatformSpec

#: OSU default window size (messages in flight per iteration).
WINDOW_SIZE = 64


def _bw_iteration(comm, peer: int, size: int, window: int) -> _t.Generator:
    """One window of non-blocking sends plus the short ack."""
    if comm.rank == 0:
        reqs = [comm.isend(peer, size, tag=i) for i in range(window)]
        yield from comm.waitall(reqs)
        yield from comm.recv(peer, tag=999)  # window ack
    else:
        reqs = [comm.irecv(peer, tag=i) for i in range(window)]
        yield from comm.waitall(reqs)
        yield from comm.send(peer, 4, tag=999)


def _bw_program(
    comm, sizes: _t.Sequence[int], iterations: int, warmup: int, window: int
) -> _t.Generator:
    results: dict[int, float] = {}
    peer = 1 - comm.rank
    for size in sizes:
        for phase, count in (("warmup", warmup), ("timed", iterations)):
            if phase == "timed":
                t_start = comm.wtime()
            for _ in range(count):
                yield from _bw_iteration(comm, peer, size, window)
        elapsed = comm.wtime() - t_start
        results[size] = size * window * iterations / elapsed
    return results


def _window(wire: _Wire, now: float, size: int, ser: float, window: int) -> float:
    """When the last of ``window`` receives completes, for sends posted
    at ``now`` into the sender's idle NIC.

    Eager data leaves the FIFO NIC back to back and draws its latency
    as it leaves.  A rendezvous window draws every RTS at post time;
    then each RTS landing draws its CTS and each NIC completion its
    data, in event-time order, which a heap of ``(time, seq)`` replays.
    The NIC serves the CTS landings first come, first served.  Float
    addition is monotone, so the last receive is the last landing's.
    """
    land = wire.land
    posted = now + wire.o_send
    last = 0.0
    if not wire.fabric.uses_rendezvous(size):
        done = posted
        for _ in range(window):
            done += ser
            last = max(last, land(done))
        return wire.received(last)
    heap = [(land(posted), seq, 0) for seq in range(window)]
    heapq.heapify(heap)
    seq = window
    queued = 0  # CTS landings waiting for the NIC
    busy = False
    while heap:
        when, _, kind = heapq.heappop(heap)
        if kind == 0:  # an RTS lands and is matched: its CTS flies back
            heapq.heappush(heap, (land(when), seq, 1))
        elif kind == 1 and busy:  # a CTS lands behind a busy NIC
            queued += 1
            continue
        else:  # a CTS lands at an idle NIC, or the NIC finishes a send
            if kind == 2:
                last = max(last, land(when))
                if not queued:
                    busy = False
                    continue
                queued -= 1
            busy = True
            heapq.heappush(heap, (when + ser, seq, 2))
        seq += 1
    return wire.received(last)


def osu_bandwidth(
    platform: PlatformSpec,
    sizes: _t.Sequence[int] | None = None,
    *,
    iterations: int = 20,
    warmup: int = 2,
    window: int = WINDOW_SIZE,
    seed: int = 0,
) -> dict[int, float]:
    """Unidirectional streaming bandwidth, ``{size: bytes/s}``."""
    from repro.osu import DEFAULT_SIZES

    sizes = list(sizes) if sizes is not None else list(DEFAULT_SIZES)
    if not sizes or min(sizes) < 1:
        raise ConfigError(f"invalid message sizes: {sizes}")
    if platform.num_nodes < 2:
        raise ConfigError("bandwidth tests need two nodes")
    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    wire = _Wire(platform, seed)
    ack_ser = wire.serialize(4)  # the window's 4-byte ack
    results: dict[int, float] = {}
    now = 0.0  # rank 0's clock: each iteration starts when its ack is received
    for size in sizes:
        ser = wire.serialize(size)
        for phase, count in (("warmup", warmup), ("timed", iterations)):
            if phase == "timed":
                t_start = now
            for _ in range(count):
                acked = _window(wire, now, size, ser, window)
                now = wire.oneway(acked, 4, ack_ser)
        elapsed = now - t_start
        results[size] = size * window * iterations / elapsed
    return results
