"""``osu_bw``: streaming bandwidth vs message size (Fig 1).

The OSU bandwidth test posts a *window* of non-blocking sends per
iteration and waits for a short acknowledgement, so fabric latency is
pipelined away and the measured figure approaches the NIC serialisation
rate — which is why the paper's Fig 1 peaks (~190 MB/s DCC, ~560 MB/s
EC2, multi-GB/s Vayu) sit well above what the latency figures alone
would allow.
"""

from __future__ import annotations

import typing as _t

from repro.errors import ConfigError
from repro.platforms.base import PlatformSpec
from repro.smpi import Placement, run_program

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
    result = run_program(
        platform,
        2,
        _bw_program,
        sizes,
        iterations,
        warmup,
        window,
        placement=Placement(num_nodes=2, ranks_per_node=1),
        seed=seed,
    )
    return result.rank_results[0]

