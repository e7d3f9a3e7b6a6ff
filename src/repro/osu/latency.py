"""``osu_latency``: ping-pong latency vs message size (paper Fig 2)."""

from __future__ import annotations

import typing as _t

from repro.errors import ConfigError
from repro.platforms.base import PlatformSpec
from repro.smpi import Placement, run_program


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
    result = run_program(
        platform,
        2,
        _latency_program,
        sizes,
        iterations,
        warmup,
        placement=Placement(num_nodes=2, ranks_per_node=1),
        seed=seed,
    )
    return result.rank_results[0]
