"""Per-world float pins: every accounted number and the event count of
twelve 8-rank worlds and fifteen point-to-point worlds.

The golden report digests hash the *rendered* report, which rounds each
number to its printed precision, so a change to the simulation hot path
that moves only the last bits of a burst or a collective can still
render the same text.  These pins hash the raw floats instead:
``float.hex`` of every :class:`~repro.ipm.monitor.RankProfile` region
field and :class:`~repro.ipm.monitor.CallStats`, each rank's
``finish_time``, the world's ``wall_time`` and the number of events its
engine dispatched, for MetUM, Chaste, NPB CG class S and OSU all-reduce
on each registered platform, and for the point-to-point worlds below:
OSU latency and bandwidth with sizes on both sides of every fabric's
eager threshold (so eager and rendezvous both run), two senders sharing
one node's NIC, an intra-node pair and ``ANY_SOURCE`` receives.  A
hot-path change is byte-identical only if every pin holds.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.platforms import get_platform
from repro.smpi import ANY_SOURCE, MpiWorld, Placement, run_program

NPROCS = 8

#: Each fabric's eager threshold and one byte more (Vayu 12 KiB, DCC and
#: EC2 64 KiB, shared memory 32 KiB), plus a size below and above all.
P2P_SIZES = (1, 12288, 12289, 32768, 32769, 65536, 65537, 1 << 20)

TWO_NODES = Placement(num_nodes=2, ranks_per_node=1)
SHARED_NIC = Placement(num_nodes=2, ranks_per_node=2)


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
    return run_program(
        platform, NPROCS, _allreduce_program, (4, 1024, 65536, 1 << 20), 4, 1,
        placement=Placement(strategy="block"), seed=1,
    )


def _osu_latency(platform):
    from repro.osu.latency import _latency_program

    return run_program(
        platform, 2, _latency_program, P2P_SIZES, 3, 1,
        placement=TWO_NODES, seed=1,
    )


def _osu_bandwidth(platform):
    from repro.osu.bandwidth import WINDOW_SIZE, _bw_program

    return run_program(
        platform, 2, _bw_program, P2P_SIZES, 2, 1, WINDOW_SIZE,
        placement=TWO_NODES, seed=1,
    )


def _shared_nic_program(comm, sizes):
    """Ranks 0 and 1 (node 0) both stream to ranks 2 and 3 (node 1), so
    their transfers queue for node 0's NIC."""
    for size in sizes:
        if comm.rank < 2:
            reqs = [comm.isend(comm.rank + 2, size, tag=i) for i in range(4)]
            yield from comm.waitall(reqs)
        else:
            yield from comm.delay(1e-6 * comm.rank)  # receivers post late
            for i in range(4):
                yield from comm.recv(comm.rank - 2, tag=i)
    yield from comm.barrier()


def _shared_nic(platform):
    return run_program(
        platform, 4, _shared_nic_program, P2P_SIZES,
        placement=SHARED_NIC, seed=1,
    )


def _intranode_program(comm, sizes):
    """Ping-pong and a short window between two ranks of one node."""
    from repro.osu.bandwidth import _bw_program
    from repro.osu.latency import _latency_program

    latency = yield from _latency_program(comm, sizes, 2, 1)
    bandwidth = yield from _bw_program(comm, sizes, 2, 1, 8)
    return latency, bandwidth


def _intranode(platform):
    return run_program(
        platform, 2, _intranode_program, P2P_SIZES,
        placement=Placement(num_nodes=1), seed=1,
    )


def _any_source_program(comm, sizes):
    """Rank 0 takes every message from ``ANY_SOURCE``: one from its node
    mate and two from the other node, which compute for different
    times first."""
    for size in sizes:
        if comm.rank == 0:
            for _ in range(comm.size - 1):
                yield from comm.recv(ANY_SOURCE)
        else:
            yield from comm.compute(flops=comm.rank * 1e5)
            yield from comm.send(0, size)
        yield from comm.barrier()


def _any_source(platform):
    return run_program(
        platform, 4, _any_source_program, P2P_SIZES,
        placement=SHARED_NIC, seed=1,
    )


WORLDS = {
    "metum": _metum,
    "chaste": _chaste,
    "cg-S": _cg,
    "osu-allreduce": _osu_allreduce,
    "osu-latency": _osu_latency,
    "osu-bandwidth": _osu_bandwidth,
    "shared-nic": _shared_nic,
    "intranode": _intranode,
    "any-source": _any_source,
}


def world_digest(result, events: int | None = None) -> str:
    """sha256 over ``float.hex`` of every number the world accounted,
    and over ``events`` (the engine's dispatched events) when given."""
    lines = [f"wall {float(result.wall_time).hex()}"]
    if events is not None:
        lines.append(f"events {events}")
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


#: ``(world, platform) -> digest``, taken while point-to-point transfers
#: still ran as one simulated process per message.
PINS = {
    ("metum", "Vayu"):
        "97e0abab28d3444be4ddc958baab2611cfe0f5512524333e9b62208ebbaab2fb",
    ("metum", "DCC"):
        "e0ca65ec3fc0f07c78ed190e1a5aac70fd18ba5ed20ea13414a2642d4f5d3e0f",
    ("metum", "EC2"):
        "e2e9d3fd043e5674e281722febd06c023e9e37f4e3751d9e7fb8ccfa820e7a5a",
    ("chaste", "Vayu"):
        "76917d8a91f957b6e791d4ba2bf87963bff35b134ed69f87b4a0287c5e4f72e4",
    ("chaste", "DCC"):
        "dece8fd9a4991e7d204c04c271259a677e9f30f5fa162ef2859e8d11c167c4d6",
    ("chaste", "EC2"):
        "bc2b515e977fc56aec27468eccce8099e321dceec38741b6bcafab9eec176561",
    ("cg-S", "Vayu"):
        "c62c20d27305b539b6593635d55b5705dc57c6160a58d9b3453c20896322c017",
    ("cg-S", "DCC"):
        "f5692ad6cabd9fd07c1aac9e84fe3185441a531b98af8cdb05924af9d7103fd0",
    ("cg-S", "EC2"):
        "5ce09bdf111716800d7703e399190c5935e0dc75ef693bba8d2a3978a3744b3f",
    ("osu-allreduce", "Vayu"):
        "d601f70f6ac6eaa069861bbbfb5e18188eb4429d1501fb203969a4e206b9f815",
    ("osu-allreduce", "DCC"):
        "9454429f56e88abd51ee754fc8e1cccf77beeeefb90addd6f28c54b459202e77",
    ("osu-allreduce", "EC2"):
        "2dee31b1cdbd7fd8a00c9d5f6cb5434a77026ed2fd8c9a22b2cf67ae29cfb066",
    ("osu-latency", "Vayu"):
        "1969ec415b1fc888da1e4cdfad3d176d73871237b2268db6dee74f8dd79831de",
    ("osu-latency", "DCC"):
        "5670f1f88f676a2c89b501f42299c30167ab68f10c80da29352c416395de3a1f",
    ("osu-latency", "EC2"):
        "43f5646108326472980302384fd1ecd7ad7b5eb459b0fea838e1ed1647d76d69",
    ("osu-bandwidth", "Vayu"):
        "eafcdf32017e8a05bcf6963c4d511129775335360b4c3d6a8685f3b0701d94ac",
    ("osu-bandwidth", "DCC"):
        "1159861596e82e5be1030e14987cc66282f421806e8d88897b24466b22fac5ac",
    ("osu-bandwidth", "EC2"):
        "09ba83b25b4b33455c015324433d6c247ba81b1bfc7287ab6f826262d7708271",
    ("shared-nic", "Vayu"):
        "75356ce3445bc4888f642ab6a9cc94661d747324ba2ac7d4941a35fc6f585cfd",
    ("shared-nic", "DCC"):
        "eeea8f176c6831af46f7382b2d54227336aff7b273a8afdb6f8fcfab6384b56d",
    ("shared-nic", "EC2"):
        "bb1a7f06ad5356bd68d4b1f9a4d18a3cb5482bbe21c5f99a397bc64d11f07f11",
    ("intranode", "Vayu"):
        "0d93c3ddd8014b3a8037883f6c91551350e0b2fe19a5cb90d37f2ef1f47b3b7e",
    ("intranode", "DCC"):
        "b270c1bf89f889e3640d51b8bd3766f5a982956693600d173d3ab4b8aca67d38",
    ("intranode", "EC2"):
        "1b23ee493c3e1733461240f01e59a82040bcc90579f1afaabef7de45cd45e43b",
    ("any-source", "Vayu"):
        "c09ca8c64866e7e2dffadd456e1f10d491411ce13c3e9d742199278c9ca54c88",
    ("any-source", "DCC"):
        "b660aae8668841d89c316dda7b2dac2fba671a2b9595e2bc8646c53bf47b472b",
    ("any-source", "EC2"):
        "4bb57e11681edd1bf3fcb409222616df05f84c7fc2138947a2f06450c7e3f25b",
}


@pytest.fixture
def engines(monkeypatch):
    """Every engine a world is launched on while the test runs."""
    seen = []
    launch = MpiWorld.launch

    def recording(world, *args, **kwargs):
        seen.append(world.engine)
        return launch(world, *args, **kwargs)

    monkeypatch.setattr(MpiWorld, "launch", recording)
    return seen


@pytest.mark.parametrize(
    "world, platform", list(PINS), ids=[f"{w}-{p}" for w, p in PINS]
)
def test_world_floats_are_pinned(world, platform, engines):
    result = WORLDS[world](get_platform(platform))
    events = sum(engine.dispatched for engine in engines)
    assert world_digest(result, events) == PINS[world, platform]
