"""Per-world float pins: every accounted number of twelve 8-rank worlds.

The golden report digests hash the *rendered* report, which rounds each
number to its printed precision, so a change to the simulation hot path
that moves only the last bits of a burst or a collective can still
render the same text.  These pins hash the raw floats instead:
``float.hex`` of every :class:`~repro.ipm.monitor.RankProfile` region
field and :class:`~repro.ipm.monitor.CallStats`, each rank's
``finish_time`` and the world's ``wall_time``, for MetUM, Chaste, NPB CG
class S and OSU all-reduce on each registered platform.  A hot-path
change is byte-identical only if every pin holds.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.platforms import get_platform

NPROCS = 8


def _metum(platform):
    from repro.apps.metum import MetumBenchmark

    return MetumBenchmark(sim_steps=2).run(platform, NPROCS, seed=1)


def _chaste(platform):
    from repro.apps.chaste import ChasteBenchmark

    return ChasteBenchmark(sim_steps=3).run(platform, NPROCS, seed=1)


def _cg(platform):
    from repro.npb import get_benchmark

    return get_benchmark("cg", "S", sim_iters=4).run(platform, NPROCS, seed=1)


def _allreduce_program(comm, sizes, iterations, warmup):
    """The OSU all-reduce timing loop: a barrier, then back-to-back
    all-reduces per message size."""
    results: dict[int, float] = {}
    for size in sizes:
        for phase, count in (("warmup", warmup), ("timed", iterations)):
            yield from comm.barrier()
            if phase == "timed":
                t_start = comm.wtime()
            for _ in range(count):
                yield from comm.allreduce(size, value=0.0)
        results[size] = (comm.wtime() - t_start) / iterations
    return results


def _osu_allreduce(platform):
    from repro.smpi import Placement, run_program

    return run_program(
        platform, NPROCS, _allreduce_program, (4, 1024, 65536, 1 << 20), 4, 1,
        placement=Placement(strategy="block"), seed=1,
    )


WORLDS = {
    "metum": _metum,
    "chaste": _chaste,
    "cg-S": _cg,
    "osu-allreduce": _osu_allreduce,
}


def world_digest(result) -> str:
    """sha256 over ``float.hex`` of every number the world accounted."""
    lines = [f"wall {float(result.wall_time).hex()}"]
    for prof in result.monitor.profiles:
        lines.append(f"rank {prof.rank} finish {prof.finish_time.hex()}")
        for name, stats in prof.regions.items():
            lines.append(
                f" region {name} compute {stats.compute_time.hex()} "
                f"io {stats.io_time.hex()} wall {stats.wall_time.hex()}"
            )
            for key, call in stats.mpi.items():
                lines.append(
                    f"  {key.call} {key.nbytes} {call.count} {call.time.hex()}"
                )
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


#: ``(world, platform) -> digest``, taken before the engine's one-frame
#: stepping, the per-shape roofline memo and the skipped spike draws.
PINS = {
    ("metum", "Vayu"):
        "360b8bfa03ea031be1887b47b6c24171bea53f32c4b38071eb39519e586884a1",
    ("metum", "DCC"):
        "63872f30aeff95541010cdf2f504b086d04a50482ee812acf533d769d42a9e0e",
    ("metum", "EC2"):
        "1f1386f567910dee4456ac76512d81bf370afa716b768f7e1040f11169153ca1",
    ("chaste", "Vayu"):
        "49d8af7e0c6ff5b00494d29d4c19e450c65604358b4f63c9123b5074a3015ea6",
    ("chaste", "DCC"):
        "b8e3b8b3598a2b1241a9486a1e55042282c8710126f25df889f9bb867d25a4b0",
    ("chaste", "EC2"):
        "eb6d456b91b3b373b5a5190491e55ed42f24bc29aacbedef0310cb535478540a",
    ("cg-S", "Vayu"):
        "402a916a9c28c2c8fc506e5b00d7b1c05815e1c1c6d74c06c44f4252f63beca5",
    ("cg-S", "DCC"):
        "cc2af5e0153e98d58705f743ea483311ea4615e35bd792b7f78299ddc615d559",
    ("cg-S", "EC2"):
        "b753c8e90c58a617ce0fc87532978c40e2afd9c35ac542909d90a23e86d8d07f",
    ("osu-allreduce", "Vayu"):
        "36ceb1a67bcafd774b933e7b486efd01dbe775ae23c61d66e20f4c620e3ace9e",
    ("osu-allreduce", "DCC"):
        "646d737a68c96ec5a52b8b345cb31f82a5397d22d27b10241831751516ef48b8",
    ("osu-allreduce", "EC2"):
        "ed387b0e6abd7b8e16d015ab3f909aee541a5fc08c1fc01a72c8001cf333de21",
}


@pytest.mark.parametrize(
    "world, platform", list(PINS), ids=[f"{w}-{p}" for w, p in PINS]
)
def test_world_floats_are_pinned(world, platform):
    result = WORLDS[world](get_platform(platform))
    assert world_digest(result) == PINS[world, platform]
