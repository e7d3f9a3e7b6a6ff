"""Runtime MPI-sanitizer coverage: each seeded defect class is caught
by exactly the intended check, and clean paper workloads stay clean."""

import pytest

from repro.errors import ConfigError, DeadlockError, SanitizerError
from repro.harness.parallel import cell_worker
from repro.harness.runner import run_batch
from repro.platforms import get_platform
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
        """One rank calls bcast while the other calls allreduce."""

        def prog(comm):
            if comm.rank == 0:  # lint-ok: DET006 deliberate defect under test
                yield from comm.bcast(64)
            else:
                yield from comm.allreduce(64)

        with pytest.raises(SanitizerError) as exc:
            MpiWorld(VAYU, 2, sanitize=True).launch(prog)
        (diag,) = exc.value.diagnostics
        assert diag.check == "collective-mismatch"
        assert diag.severity == "error"
        assert set(diag.ranks) == {0, 1}
        assert set(diag.details["ops"].values()) == {"MPI_Bcast(root=0)", "MPI_Allreduce"}

    def test_root_divergence(self):
        """Same op, different roots — silent corruption without the check."""

        def prog(comm):
            yield from comm.bcast(64, root=comm.rank % 2)

        with pytest.raises(SanitizerError) as exc:
            MpiWorld(VAYU, 2, sanitize=True).launch(prog)
        (diag,) = exc.value.diagnostics
        assert diag.check == "collective-mismatch"
        assert "root=0" in str(diag.details["ops"]) and "root=1" in str(diag.details["ops"])

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

    def test_paper_experiment_clean_under_sanitize(self):
        """One full paper experiment runs --sanitize with zero diagnostics."""
        batch = run_batch(["fig1"], quick=True, seed=1, sanitize=True)
        assert batch.sanitize_summary is not None
        assert batch.sanitize_summary.startswith("sanitize: clean")
        assert "0 errors" in batch.sanitize_summary
        assert "0 warning(s)" in batch.sanitize_summary
        assert "[sanitize:" not in batch.render()  # stderr-only banner

    def test_npb_collective_workload_clean(self):
        from repro.analysis.sanitizer import sanitize_scope
        from repro.npb import get_benchmark

        with sanitize_scope() as reports:
            get_benchmark("cg").run(VAYU, 4, seed=1)
        assert reports, "no sanitized worlds were finalized"
        assert all(r.clean for r in reports)
        assert sum(r.collectives_checked for r in reports) > 0


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
