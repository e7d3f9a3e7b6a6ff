"""Runtime MPI-sanitizer coverage: each seeded defect class is caught
by exactly the intended check, and clean programs stay clean and
unperturbed.  That every paper experiment runs clean under ``sanitize``
is a row of the golden strategy table (``tests/test_golden.py``)."""

import pytest

from repro.config import RunConfig
from repro.errors import ConfigError, DeadlockError, SanitizerError
from repro.harness.parallel import Cell, cell_worker
from repro.harness.supervisor import run_cells
from repro.platforms import get_platform
from repro.smpi.collectives import COLLECTIVE_METHODS
from repro.smpi.world import MpiWorld

VAYU = get_platform("vayu")


class TestDeadlockWaitForGraph:
    def test_recv_cycle_names_ranks(self):
        """A crafted send/recv cycle yields a named-rank cycle report."""

        def prog(comm):
            peer = 1 - comm.rank
            yield from comm.recv(peer)  # both ranks recv first: classic cycle
            yield from comm.send(peer, 64)

        with pytest.raises(DeadlockError) as exc:
            MpiWorld(VAYU, 2, sanitize=True).launch(prog)
        err = exc.value
        assert err.cycle == (0, 1, 0)
        assert len(err.pending_ops) == 2
        assert any("rank 0: recv from rank 1" in op for op in err.pending_ops)
        assert "wait-for cycle" in str(err)

    def test_collective_straggler_reports_pending_op(self):
        """The engine-drain path goes through the sanitizer's report."""

        def prog(comm):
            if comm.rank == 0:  # lint-ok: DET006 deliberate defect under test
                yield from comm.barrier()
            return None

        with pytest.raises(DeadlockError) as exc:
            MpiWorld(VAYU, 2, sanitize=True).launch(prog)
        err = exc.value
        assert err.cycle is None  # rank 1 terminated; no cycle, just a wait
        assert any("MPI_Barrier" in op for op in err.pending_ops)

    def test_unsanitized_deadlock_is_bare(self):
        """Without the sanitizer the old queue-drained error remains."""

        def prog(comm):
            yield from comm.recv(1 - comm.rank)

        with pytest.raises(DeadlockError) as exc:
            MpiWorld(VAYU, 2, sanitize=False).launch(prog)
        assert exc.value.pending_ops == ()
        assert exc.value.cycle is None


class TestCollectiveMismatch:
    def test_op_divergence(self):
        """One rank calls scatter while the other calls allreduce."""

        def prog(comm):
            if comm.rank == 0:  # lint-ok: DET006 deliberate defect under test
                yield from comm.scatter(64)
            else:
                yield from comm.allreduce(64)

        with pytest.raises(SanitizerError) as exc:
            MpiWorld(VAYU, 2, sanitize=True).launch(prog)
        (diag,) = exc.value.diagnostics
        assert diag.check == "collective-mismatch"
        assert diag.severity == "error"
        assert set(diag.ranks) == {0, 1}
        assert set(diag.details["ops"].values()) == {"MPI_Scatter(root=0)", "MPI_Allreduce"}

    def test_root_divergence(self):
        """Same op, different roots — silent corruption without the check."""

        def prog(comm):
            yield from comm.scatter(64, root=comm.rank % 2)

        with pytest.raises(SanitizerError) as exc:
            MpiWorld(VAYU, 2, sanitize=True).launch(prog)
        (diag,) = exc.value.diagnostics
        assert diag.check == "collective-mismatch"
        assert "root=0" in str(diag.details["ops"]) and "root=1" in str(diag.details["ops"])

    def test_composite_phase_names_are_still_checked(self):
        """Composite phases skip only the byte check: op names still
        have to agree."""

        def prog(comm):
            name = "MPI_Sendrecv(a)" if comm.rank == 0 else "MPI_Sendrecv(b)"
            yield from comm.composite(name, 64, _phase_time)

        with pytest.raises(SanitizerError) as exc:
            MpiWorld(VAYU, 2, sanitize=True).launch(prog)
        assert exc.value.diagnostics[0].check == "collective-mismatch"

    def test_nbytes_divergence_is_warning_only(self):
        def prog(comm):
            result = yield from comm.allreduce(8 * (comm.rank + 1), value=1)
            return result

        res = MpiWorld(VAYU, 2, sanitize=True).launch(prog)
        assert res.rank_results == [2, 2]  # run completes normally
        report = res.sanitizer_report
        assert not report.errors()
        (warn,) = report.warnings()
        assert warn.check == "nbytes-divergence"
        assert warn.details["nbytes"] == {0: 8, 1: 16}


class TestFinalizeChecks:
    def test_leaked_unmatched_send(self):
        def prog(comm):
            if comm.rank == 0:
                yield from comm.send(1, 128, tag=7)
            return None

        with pytest.raises(SanitizerError) as exc:
            MpiWorld(VAYU, 2, sanitize=True).launch(prog)
        (diag,) = exc.value.diagnostics
        assert diag.check == "message-leak"
        assert diag.ranks == (0, 1)
        assert diag.details == {"tag": 7, "nbytes": 128}

    def test_invalid_send_tag(self):
        def prog(comm):
            yield from comm.send(1 - comm.rank, 8, tag=-2)

        with pytest.raises(SanitizerError) as exc:
            MpiWorld(VAYU, 2, sanitize=True).launch(prog)
        assert exc.value.diagnostics[0].check == "invalid-tag"

    def test_invalid_recv_peer(self):
        world = MpiWorld(VAYU, 2, sanitize=True)
        with pytest.raises(SanitizerError) as exc:
            world.post_recv(0, source=5, tag=0)
        assert exc.value.diagnostics[0].check == "invalid-peer"


def _phase_time(ctx, nbytes):
    """Cost of a custom phase: a latency plus a bandwidth term."""
    return 1e-6 + nbytes / 1e9


def _split(comm):
    sub = yield from comm.split(comm.rank % 2)
    total = yield from sub.allreduce(8, value=comm.rank)
    return (sub.size, sub.rank, total)


def _ring(comm):
    nxt, prv = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
    msg = yield from comm.sendrecv(nxt, 1024 * (comm.rank + 1), prv)
    return msg.nbytes


def _nonblocking(comm):
    nxt, prv = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
    requests = [
        comm.irecv(prv, tag=1), comm.irecv(nxt, tag=2),
        comm.isend(nxt, 256, tag=1), comm.isend(prv, 65536, tag=2),
    ]
    values = yield from comm.waitall(requests)
    return [msg.nbytes for msg in values[:2]]


#: One correct program per ``COLLECTIVE_METHODS`` entry, plus the
#: point-to-point patterns the paper workloads use.  ``composite`` is an
#: uneven phase: each rank moves a different volume, as a halo exchange
#: on an uneven partition does; ``chain`` runs one before two even ones.
PROGRAMS = {
    "barrier": lambda comm: comm.barrier(),
    "allreduce": lambda comm: comm.allreduce(8, value=comm.rank),
    "scatter": lambda comm: comm.scatter(
        32, root=0, values=list(range(comm.size)) if comm.rank == 0 else None
    ),
    "alltoall": lambda comm: comm.alltoall(
        512, values=[10 * comm.rank + j for j in range(comm.size)]
    ),
    "alltoallv": lambda comm: comm.alltoallv(1024, max_pair=512.0),
    "split": _split,
    "composite": lambda comm: comm.composite(
        "MPI_Sendrecv(halo)", 4096 * (comm.rank + 1), _phase_time
    ),
    "collective": lambda comm: comm.world.collective(
        comm, "custom_phase", 16, _phase_time
    ),
    "chain": lambda comm: comm.chain(
        comm.composite_phase("MPI_Sendrecv(halo)", 4096 * (comm.rank + 1), _phase_time),
        comm.allreduce_phase(8),
        comm.barrier_phase(),
    ),
    "sendrecv-ring": _ring,
    "nonblocking": _nonblocking,
}


def _twice(step):
    """A program that runs ``step`` twice around uneven compute bursts,
    so ranks arrive at different times; returns both results and the
    rank's clock."""

    def program(comm):
        yield from comm.compute(flops=1e6 * (comm.rank + 1))
        first = yield from step(comm)
        yield from comm.compute(flops=2e6)
        second = yield from step(comm)
        return (first, second, comm.wtime())

    return program


def _ipm_totals(result):
    """Every rank's whole-run IPM accounting."""
    return [
        (p.total.wall_time, p.total.compute_time,
         {(k.call, k.nbytes): (s.count, s.time) for k, s in p.total.mpi.items()})
        for p in result.monitor.profiles
    ]


class TestNoFalsePositives:
    def test_sanitize_does_not_change_timing(self):
        def ring(comm):
            nxt = (comm.rank + 1) % comm.size
            prv = (comm.rank - 1) % comm.size
            for _ in range(5):
                yield from comm.sendrecv(nxt, 1024, prv)
                yield from comm.allreduce(8, value=1)
            return comm.wtime()

        plain = MpiWorld(VAYU, 4, sanitize=False).launch(ring)
        checked = MpiWorld(VAYU, 4, sanitize=True).launch(ring)
        assert plain.wall_time == checked.wall_time
        assert plain.rank_results == checked.rank_results
        report = checked.sanitizer_report
        assert report.clean
        assert report.sends_checked == 20 and report.collectives_checked == 20

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_program_unperturbed_and_clean(self, name):
        """Sanitizing a world changes none of its results, and a correct
        program gets a clean report."""
        program = _twice(PROGRAMS[name])
        plain = MpiWorld(VAYU, 4, seed=3, sanitize=False).launch(program)
        checked = MpiWorld(VAYU, 4, seed=3, sanitize=True).launch(program)
        assert checked.wall_time == plain.wall_time
        assert checked.rank_results == plain.rank_results
        assert _ipm_totals(checked) == _ipm_totals(plain)
        report = checked.sanitizer_report
        assert report.clean, report.render()
        assert report.sends_checked + report.collectives_checked > 0

    def test_programs_cover_every_collective(self):
        assert COLLECTIVE_METHODS <= set(PROGRAMS)

    def test_npb_collective_workload_clean(self):
        from repro.npb import get_benchmark

        with RunConfig(sanitize=True).open() as run:
            get_benchmark("cg").run(VAYU, 4, seed=1)
        reports = run.sanitizer_reports
        assert reports, "no sanitized worlds were finalized"
        assert all(r.clean for r in reports)
        assert sum(r.collectives_checked for r in reports) > 0


def _diverging_allreduce(comm):
    yield from comm.allreduce(8 * (comm.rank + 1), value=1)


@cell_worker("sanitizer_test_divergence")
def _divergence_cell(nprocs):
    """One world whose allreduce sizes diverge: one warning, no error."""
    MpiWorld(VAYU, nprocs).launch(_diverging_allreduce)
    return nprocs


class TestPooledReports:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_worker_reports_reach_the_run_in_cell_order(self, jobs):
        cells = [Cell((n,), "sanitizer_test_divergence", (n,)) for n in (2, 3, 4)]
        with RunConfig(sanitize=True, jobs=jobs).open() as run:
            run_cells(cells, run)
        reports = run.sanitizer_reports
        assert [r.nprocs for r in reports] == [2, 3, 4]
        assert [d.check for r in reports for d in r.warnings()] == (
            ["nbytes-divergence"] * 3)


class TestWorkerRegistration:
    def test_nested_worker_rejected_at_registration(self):
        with pytest.raises(ConfigError, match="module-level"):
            @cell_worker("sanitizer_test_nested")
            def nested(x):  # pragma: no cover - registration must fail
                return x

    def test_lambda_worker_rejected_at_registration(self):
        with pytest.raises(ConfigError, match="module-level"):
            cell_worker("sanitizer_test_lambda")(lambda x: x)  # lint-ok: DET005


class TestReportShape:
    def test_report_to_dict_round_trips(self):
        def prog(comm):
            yield from comm.barrier()
            return None

        res = MpiWorld(VAYU, 2, sanitize=True).launch(prog)
        d = res.sanitizer_report.to_dict()
        assert d["nprocs"] == 2
        assert d["collectives_checked"] == 2
        assert d["diagnostics"] == []
        assert "clean" in res.sanitizer_report.render()
