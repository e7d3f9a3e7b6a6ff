"""Collective chains against the same phases called one by one.

``Comm.chain`` resumes each rank once per chain instead of once per
phase, so it must reproduce the one-by-one program bit for bit: every
IPM number, every clock and the engine's dispatched-event count (the
``world_digest`` of the world pins), the sanitizer's checks and its
errors.  The last tests pin how many times the engine resumes a rank in
the pinned 8-rank MetUM and Chaste worlds, so a change that splits a
chain back into its phases shows there.
"""

from __future__ import annotations

import pytest

from repro.errors import MpiError, SanitizerError
from repro.platforms import get_platform
from repro.sim.process import Process
from repro.smpi import MpiWorld, Placement
from tests.test_world_pins import _chaste, _metum, world_digest

PLATFORMS = ("Vayu", "DCC", "EC2")
TWO_NODES = Placement(num_nodes=2)


def _halo_time(rank: int):
    """A per-rank cost closure, as MetUM's halo phases are: the last
    arriver's prices the phase."""

    def time_fn(ctx, nbytes: float) -> float:
        return (rank + 1) * 1e-6 + nbytes * 1e-9 + ctx.extra_latency

    return time_fn


def _one_by_one(comm, phases):
    """Each phase as its plain collective, in turn."""
    for phase in phases:
        if phase.name == "MPI_Allreduce":
            yield from comm.allreduce(phase.nbytes, value=0.0)
        elif phase.name == "MPI_Barrier":
            yield from comm.barrier()
        else:
            yield from comm.composite(phase.name, phase.nbytes, phase.time_fn)


def _run_phases(comm, phases, chained):
    if chained:
        return comm.chain(*phases)
    return _one_by_one(comm, phases)


def _uneven_phases(comm):
    """An all-reduce whose byte counts tie as ``8`` against ``8.0``, a
    halo phase with per-rank volumes and costs, an all-reduce whose
    counts diverge (a sanitizer warning), and a barrier."""
    r = comm.rank
    return (
        comm.allreduce_phase(8 if r % 2 else 8.0),
        comm.composite_phase("MPI_Sendrecv(halo)", 1024 * (r + 1), _halo_time(r)),
        comm.allreduce_phase(8 * (1 + r % 3)),
        comm.barrier_phase(),
    )


def _uneven_program(comm, chained):
    phases = _uneven_phases(comm)
    for i in range(3):
        # Bursts of different lengths, so the ranks arrive in a different
        # order each time.
        yield from comm.compute(flops=1e6 * (1 + (comm.rank * (i + 3)) % 5))
        yield from _run_phases(comm, phases, chained)
    return comm.wtime()


def _launch(platform, program, *args, sanitize=False):
    world = MpiWorld(
        get_platform(platform), 8, placement=TWO_NODES, seed=1, sanitize=sanitize
    )
    result = world.launch(program, *args)
    return result, world_digest(result, world.engine.dispatched)


@pytest.mark.parametrize("platform", PLATFORMS)
def test_uneven_chain_is_the_one_by_one_program(platform):
    chained, digest = _launch(platform, _uneven_program, True)
    plain, expected = _launch(platform, _uneven_program, False)
    assert digest == expected
    assert chained.rank_results == plain.rank_results


def _composite_program(comm, as_chain):
    phase = comm.composite_phase("MPI_Sendrecv(halo)", 512 * (comm.rank + 2),
                                 _halo_time(comm.rank))
    for _ in range(4):
        yield from comm.compute(flops=1e6 * (comm.rank + 1))
        if as_chain:
            yield from comm.chain(phase)
        else:
            yield from comm.composite(phase.name, phase.nbytes, phase.time_fn)
    return comm.wtime()


@pytest.mark.parametrize("platform", PLATFORMS)
def test_one_phase_chain_is_composite(platform):
    assert (_launch(platform, _composite_program, True)[1]
            == _launch(platform, _composite_program, False)[1])


def _split_program(comm, chained):
    """Even ranks chain on their half while the odd half streams
    ``isend``s around a ring that crosses the node boundary (eager and
    rendezvous sizes), so the chain's latency draws interleave with the
    messages' on a jittered fabric."""
    half = yield from comm.split(comm.rank % 2)
    if comm.rank % 2 == 0:
        phases = (
            half.composite_phase("MPI_Sendrecv(halo)", 256 * (half.rank + 1),
                                 _halo_time(half.rank)),
            half.allreduce_phase(8),
        )
    nxt, prv = (half.rank + 1) % half.size, (half.rank - 1) % half.size
    for i in range(4):
        yield from comm.compute(flops=2e5 * (1 + (comm.rank + i) % 4))
        if comm.rank % 2 == 0:
            yield from _run_phases(half, phases, chained)
        else:
            size = 1024 if i % 2 else 65537
            yield from half.waitall([half.irecv(prv, tag=i), half.isend(nxt, size, tag=i)])
    yield from comm.barrier()
    return comm.wtime()


@pytest.mark.parametrize("platform", PLATFORMS)
def test_chain_on_a_split_interleaves_with_point_to_point(platform):
    assert (_launch(platform, _split_program, True)[1]
            == _launch(platform, _split_program, False)[1])


@pytest.mark.parametrize("platform", PLATFORMS)
def test_sanitized_chain_checks_what_the_one_by_one_program_checks(platform):
    unsanitized = _launch(platform, _uneven_program, True)[1]
    chained, digest = _launch(platform, _uneven_program, True, sanitize=True)
    plain, expected = _launch(platform, _uneven_program, False, sanitize=True)
    assert digest == expected == unsanitized
    got, want = chained.sanitizer_report, plain.sanitizer_report
    # 8 ranks x 4 phases x 3 rounds.
    assert got.collectives_checked == want.collectives_checked == 96
    # Only the diverging all-reduce warns: each phase keeps its own
    # ``uneven`` flag, and 8 ties with 8.0.
    assert [d.render() for d in got.diagnostics] == [d.render() for d in want.diagnostics]
    assert {d.check for d in got.diagnostics} == {"nbytes-divergence"}
    assert len(got.diagnostics) == 3


def _mismatch_program(comm, chained):
    """Rank 3 chains (halo, barrier) while the others chain (halo,
    all-reduce)."""
    last = comm.barrier_phase() if comm.rank == 3 else comm.allreduce_phase(8)
    phases = (comm.composite_phase("MPI_Sendrecv(halo)", 64, _halo_time(comm.rank)), last)
    yield from comm.compute(flops=1e6 * (comm.rank + 1))
    yield from _run_phases(comm, phases, chained)


@pytest.mark.parametrize("platform", PLATFORMS)
def test_mismatched_chains_raise_where_the_one_by_one_program_does(platform):
    with pytest.raises(SanitizerError) as chained:
        _launch(platform, _mismatch_program, True, sanitize=True)
    with pytest.raises(SanitizerError) as plain:
        _launch(platform, _mismatch_program, False, sanitize=True)
    got, want = chained.value.diagnostics, plain.value.diagnostics
    assert [d.check for d in got] == ["collective-mismatch"]
    assert got[0].details == want[0].details
    assert got[0].details["seq"] == 1
    assert got[0].render() == want[0].render()


def test_mismatched_chains_raise_unsanitized():
    with pytest.raises(MpiError, match="called MPI_Barrier"):
        _launch("Vayu", _mismatch_program, True)


def _chain_meets_plain(comm):
    phases = (comm.composite_phase("MPI_Sendrecv(halo)", 64, _halo_time(comm.rank)),
              comm.allreduce_phase(8))
    yield from _run_phases(comm, phases, comm.rank != 5)


@pytest.mark.parametrize("sanitize", [False, True])
def test_a_chain_never_meets_a_plain_collective(sanitize):
    with pytest.raises(MpiError, match="a chain met a plain collective"):
        _launch("Vayu", _chain_meets_plain, sanitize=sanitize)


def test_an_empty_chain_is_an_error():
    def program(comm):
        yield from comm.chain()

    with pytest.raises(MpiError, match="at least one phase"):
        _launch("Vayu", program)


@pytest.fixture
def resumes(monkeypatch):
    """How many times the engine resumes a rank's generator."""
    count = [0]
    step = Process._step

    def counting(self, *args):
        count[0] += 1
        return step(self, *args)

    monkeypatch.setattr(Process, "_step", counting)
    return count


@pytest.mark.parametrize("world, platform, expected", [
    # One-by-one phases resumed each rank 7,313 and 7,824 times.
    (_metum, "Vayu", 4889),
    (_chaste, "Vayu", 3984),
])
def test_pinned_worlds_resume_each_rank_once_per_chain(world, platform, expected, resumes):
    world(get_platform(platform))
    assert resumes[0] == expected
