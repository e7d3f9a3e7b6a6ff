"""Tests for the deterministic fault-injection layer (repro.faults)."""

import os

import numpy as np
import pytest

from repro.errors import ConfigError, DeadlockError, RankFailedError
from repro.faults import (
    CheckpointPolicy,
    FaultSchedule,
    LinkDegradation,
    NfsBrownout,
    NodeCrash,
    StolenTimeBurst,
    default_schedule,
    faults_scope,
    resolve_schedule,
    run_with_restarts,
    simulate_completion,
    sweep_failure_checkpoint,
    young_interval,
)
from repro.platforms import VAYU
from repro.sim.rng import RandomStreams
from repro.smpi import MpiWorld


def ring_program(comm):
    """A few compute/exchange rounds; spans nodes at 16 ranks on Vayu."""
    buf = np.zeros(1024)
    for _ in range(5):
        yield from comm.compute(flops=1e7)
        yield from comm.sendrecv(
            (comm.rank + 1) % comm.size, buf.nbytes, (comm.rank - 1) % comm.size
        )
    return comm.rank


def io_program(comm):
    yield from comm.compute(flops=1e7)
    yield from comm.io_write(1 << 20)
    yield from comm.barrier()
    return comm.rank


class TestScheduleSpec:
    def test_parse_round_trips_through_spec(self):
        spec = (
            "crash:at=120,node=1;spot:at=300;crash:rate=1e-4;"
            "link:start=10,dur=5,bw=0.25,loss=0.05,latency=2e-4;"
            "steal:start=20,dur=10,frac=0.5;nfs:start=30,dur=60,factor=8"
        )
        sched = FaultSchedule.parse(spec)
        assert len(sched.crashes) == 2
        assert sched.crashes[0].kind == "node-crash"
        assert sched.crashes[1].kind == "spot-reclaim"
        assert sched.crash_rate == pytest.approx(1e-4)
        assert sched.links[0].bw_factor == pytest.approx(0.25)
        assert sched.steals[0].steal_frac == pytest.approx(0.5)
        assert sched.brownouts[0].slowdown == pytest.approx(8.0)
        again = FaultSchedule.parse(sched.spec())
        assert again.spec() == sched.spec()

    def test_events_sorted_by_time(self):
        sched = FaultSchedule([
            NodeCrash(at=50.0), NodeCrash(at=10.0),
            LinkDegradation(start=9.0, duration=1.0, bw_factor=0.5),
            LinkDegradation(start=3.0, duration=1.0, bw_factor=0.5),
        ])
        assert [c.at for c in sched.crashes] == [10.0, 50.0]
        assert [w.start for w in sched.links] == [3.0, 9.0]

    def test_window_active_is_half_open(self):
        w = LinkDegradation(start=10.0, duration=5.0, bw_factor=0.5)
        assert not w.active(9.999)
        assert w.active(10.0)
        assert w.active(14.999)
        assert not w.active(15.0)

    @pytest.mark.parametrize("bad", [
        "boom:at=1",                       # unknown kind
        "crash:at=-1",                     # negative time
        "crash:at=1,color=red",            # unknown field
        "crash",                           # missing fields
        "link:start=0,dur=0,bw=0.5",       # zero-length window
        "link:start=0,dur=1,bw=0",         # bw out of range
        "link:start=0,dur=1,loss=1.0",     # loss out of range
        "steal:start=0,dur=1,frac=1.0",    # frac out of range
        "nfs:start=0,dur=1,factor=0.5",    # speed-up is not a brown-out
        "crash:rate=-1",                   # negative rate
        "link:start;dur=1",                # not key=value
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ConfigError):
            FaultSchedule.parse(bad)

    def test_empty_forms_collapse_to_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert resolve_schedule(None) is None
        assert resolve_schedule("") is None
        assert resolve_schedule("none; off") is None
        assert resolve_schedule(FaultSchedule()) is None
        assert default_schedule() is None
        monkeypatch.setenv("REPRO_FAULTS", "0")
        assert default_schedule() is None

    def test_env_default_and_scope(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash:at=1e9")
        assert default_schedule().spec() == FaultSchedule.parse("crash:at=1e9").spec()
        with faults_scope("nfs:start=0,dur=10,factor=2") as sched:
            # Installed in this process; the environment is untouched.
            assert os.environ["REPRO_FAULTS"] == "crash:at=1e9"
            inner = default_schedule()
            assert inner is not None and inner.spec() == sched.spec()
        assert default_schedule().spec() == FaultSchedule.parse("crash:at=1e9").spec()


class TestFaultFreePassThrough:
    def test_no_schedule_and_empty_schedule_bit_identical(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        base = MpiWorld(VAYU, 8, seed=3).launch(ring_program)
        empty = MpiWorld(VAYU, 8, seed=3, faults="").launch(ring_program)
        assert empty.wall_time == base.wall_time
        assert empty.resilience is None

    def test_inert_window_bit_identical(self, monkeypatch):
        """A schedule whose windows never overlap the run must not change
        a single bit of the result — hooks are pure queries."""
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        base = MpiWorld(VAYU, 16, seed=3).launch(ring_program)
        inert = MpiWorld(
            VAYU, 16, seed=3,
            faults="link:start=1e9,dur=1,bw=0.5;steal:start=1e9,dur=1,frac=0.5",
        ).launch(ring_program)
        assert inert.wall_time == base.wall_time
        assert inert.resilience is not None
        assert inert.resilience.completed
        assert not inert.resilience.injected

    def test_inert_crash_event_bit_identical(self, monkeypatch):
        """A crash scheduled long after completion is disarmed and pulled
        from the event heap before the final drain."""
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        base = MpiWorld(VAYU, 8, seed=3).launch(ring_program)
        inert = MpiWorld(VAYU, 8, seed=3, faults="crash:at=1e9").launch(ring_program)
        assert inert.wall_time == base.wall_time
        assert not inert.resilience.injected


class TestCrashInjection:
    def test_explicit_crash_raises_rank_failed(self):
        with pytest.raises(RankFailedError) as exc:
            MpiWorld(VAYU, 8, seed=3, faults="crash:at=1e-4,node=0").launch(
                ring_program
            )
        err = exc.value
        assert err.failed_ranks == tuple(range(8))  # all ranks on node 0
        assert err.failed_at == pytest.approx(1e-4)
        assert err.kind == "node-crash"
        assert err.resilience is not None
        assert err.resilience.killed_ranks == tuple(range(8))
        assert not err.resilience.completed
        (ev,) = err.resilience.injected
        assert ev.kind == "node-crash" and ev.ranks == tuple(range(8))

    def test_spot_reclaim_kind_propagates(self):
        with pytest.raises(RankFailedError) as exc:
            MpiWorld(VAYU, 16, seed=3, faults="spot:at=1e-4,node=1").launch(
                ring_program
            )
        err = exc.value
        assert err.kind == "spot-reclaim"
        # Only node 1's ranks die; node 0 survivors block on dead peers.
        assert err.failed_ranks == tuple(range(8, 16))

    def test_rank_failed_is_a_deadlock_subclass(self):
        """Callers that catch DeadlockError keep working."""
        with pytest.raises(DeadlockError):
            MpiWorld(VAYU, 8, seed=3, faults="crash:at=1e-4").launch(ring_program)

    def test_survivors_pending_ops_listed(self):
        with pytest.raises(RankFailedError) as exc:
            MpiWorld(
                VAYU, 16, seed=3, sanitize=True, faults="crash:at=1e-4,node=1"
            ).launch(ring_program)
        assert "pending operations" in str(exc.value)

    def test_sanitizer_distinguishes_injected_failure_from_deadlock(self):
        world = MpiWorld(
            VAYU, 16, seed=3, sanitize=True, faults="crash:at=1e-4,node=0"
        )
        with pytest.raises(RankFailedError):
            world.launch(ring_program)
        report = world.sanitizer._report
        checks = {(d.check, d.severity) for d in report.diagnostics}
        assert ("injected-rank-failure", "warning") in checks
        assert not any(c == "deadlock" for c, _ in checks)

    def test_poisson_crashes_deterministic_per_seed(self):
        def failed_at(seed):
            with pytest.raises(RankFailedError) as exc:
                MpiWorld(VAYU, 16, seed=seed, faults="crash:rate=500").launch(
                    ring_program
                )
            return exc.value.failed_at

        assert failed_at(3) == failed_at(3)
        assert failed_at(3) != failed_at(4)

    def test_explicit_crash_node_out_of_range(self):
        with pytest.raises(ConfigError):
            MpiWorld(VAYU, 8, seed=3, faults="crash:at=1e-4,node=99").launch(
                ring_program
            )


class TestDegradationWindows:
    def test_link_degradation_slows_internode_traffic(self):
        base = MpiWorld(VAYU, 16, seed=3).launch(ring_program)
        slow = MpiWorld(
            VAYU, 16, seed=3, faults="link:start=0,dur=1e9,bw=0.25,loss=0.2"
        ).launch(ring_program)
        assert slow.wall_time > base.wall_time
        kinds = {ev.kind for ev in slow.resilience.injected}
        assert kinds == {"link"}

    def test_steal_burst_slows_compute(self):
        base = MpiWorld(VAYU, 16, seed=3).launch(ring_program)
        slow = MpiWorld(
            VAYU, 16, seed=3, faults="steal:start=0,dur=1e9,frac=0.3"
        ).launch(ring_program)
        assert slow.wall_time > base.wall_time

    def test_nfs_brownout_slows_io(self):
        base = MpiWorld(VAYU, 8, seed=3).launch(io_program)
        slow = MpiWorld(
            VAYU, 8, seed=3, faults="nfs:start=0,dur=1e9,factor=4"
        ).launch(io_program)
        assert slow.wall_time > base.wall_time
        (ev,) = slow.resilience.injected
        assert ev.kind == "nfs"

    def test_windows_recorded_once_not_per_query(self):
        res = MpiWorld(
            VAYU, 16, seed=3, faults="link:start=0,dur=1e9,bw=0.5"
        ).launch(ring_program)
        assert len(res.resilience.injected) == 1


class TestCheckpointRestart:
    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            CheckpointPolicy(0.0)
        with pytest.raises(ConfigError):
            CheckpointPolicy(1.0, checkpoint_cost=-1)

    def test_young_interval(self):
        assert young_interval(1e-4, 50.0) == pytest.approx(1000.0)
        with pytest.raises(ConfigError):
            young_interval(0.0, 50.0)

    def test_simulate_completion_no_failures(self):
        rng = np.random.default_rng(0)
        stats = simulate_completion(
            100.0, CheckpointPolicy(30.0, checkpoint_cost=5.0), 0.0, rng
        )
        # Three checkpoints mid-run; the final segment needs none.
        assert stats.restarts == 0 and stats.wasted_work == 0.0
        assert stats.checkpoint_overhead == pytest.approx(15.0)
        assert stats.completion_time == pytest.approx(115.0)

    def test_simulate_completion_with_failures_pays_restarts(self):
        stream = RandomStreams(1).stream("ckpt-test")
        policy = CheckpointPolicy(10.0, checkpoint_cost=1.0, restart_cost=2.0)
        stats = simulate_completion(200.0, policy, 0.02, stream)
        assert stats.restarts > 0
        assert stats.wasted_work > 0
        assert stats.completion_time > 200.0

    def test_simulate_completion_deterministic_per_stream(self):
        def run():
            stream = RandomStreams(7).stream("ckpt-test")
            return simulate_completion(
                500.0, CheckpointPolicy(20.0, 1.0, 5.0), 0.01, stream
            )

        assert run() == run()

    def test_frequent_checkpoints_beat_rare_under_high_failure_rate(self):
        def mean_completion(interval):
            total = 0.0
            for trial in range(16):
                stream = RandomStreams(trial).stream("ckpt-test")
                total += simulate_completion(
                    300.0, CheckpointPolicy(interval, 1.0, 2.0), 0.01, stream
                ).completion_time
            return total / 16

        assert mean_completion(20.0) < mean_completion(300.0)

    def test_run_with_restarts_completes_and_accounts(self):
        def prog(comm):
            for _ in range(10):
                yield from comm.compute(flops=1e7)
                yield from comm.barrier()
                yield from comm.checkpoint()
            return comm.rank

        policy = CheckpointPolicy(0.01, restart_cost=0.5)
        result = run_with_restarts(
            VAYU, 8, prog, faults="crash:rate=100", policy=policy, seed=3
        )
        rep = result.resilience
        assert rep.completed
        assert rep.restart_count > 0
        assert rep.checkpoints > 0
        assert rep.time_to_completion == pytest.approx(
            result.wall_time
            + rep.wasted_work
            + rep.restart_count * policy.restart_cost
        )
        assert rep.time_to_completion > result.wall_time
        text = rep.render()
        assert "restart" in text and "time-to-completion" in text

    def test_run_with_restarts_deterministic(self):
        def prog(comm):
            for _ in range(5):
                yield from comm.compute(flops=1e7)
                yield from comm.checkpoint()
            return comm.rank

        def run():
            res = run_with_restarts(
                VAYU, 8, prog, faults="crash:rate=150",
                policy=CheckpointPolicy(0.01, restart_cost=0.2), seed=5,
            )
            return (res.wall_time, res.resilience.restart_count,
                    res.resilience.time_to_completion)

        assert run() == run()

    def test_run_with_restarts_gives_up_on_permanent_failure(self):
        """An explicit crash:at repeats every attempt and can never
        complete; the harness must raise instead of looping forever."""
        with pytest.raises(RankFailedError) as exc:
            run_with_restarts(
                VAYU, 8, ring_program, faults="crash:at=1e-4",
                max_restarts=3, seed=3,
            )
        assert "no completion within 3 restart(s)" in str(exc.value)
        assert exc.value.resilience.restart_count == 4


class TestSweep:
    def test_sweep_grid_shape_and_render(self):
        res = sweep_failure_checkpoint(
            [0.01, 0.05], [10.0, 50.0], work=300.0,
            checkpoint_cost=1.0, restart_cost=2.0, trials=4, seed=1,
        )
        assert set(res.cells) == {
            (0.01, 10.0), (0.01, 50.0), (0.05, 10.0), (0.05, 50.0)
        }
        text = res.render()
        assert "rate\\interval" in text and "# best cell" in text
        d = res.to_dict()
        assert len(d["cells"]) == 4

    def test_sweep_jobs_parallel_identical_to_serial(self):
        kwargs = dict(
            work=300.0, checkpoint_cost=1.0, restart_cost=2.0,
            trials=8, seed=1,
        )
        serial = sweep_failure_checkpoint(
            [0.01, 0.05], [10.0, 50.0], jobs=1, **kwargs
        )
        parallel = sweep_failure_checkpoint(
            [0.01, 0.05], [10.0, 50.0], jobs=2, **kwargs
        )
        assert serial.render() == parallel.render()
        assert serial.cells == parallel.cells

    def test_sweep_validation(self):
        with pytest.raises(ConfigError):
            sweep_failure_checkpoint([], [1.0], work=10.0)
        with pytest.raises(ConfigError):
            sweep_failure_checkpoint([0.1], [1.0], work=10.0, trials=0)


class TestCli:
    def test_faults_sweep_command(self, capsys):
        from repro.cli import main

        rc = main([
            "faults", "sweep", "--rates", "0.01", "0.05",
            "--intervals", "10", "50", "--work", "300",
            "--checkpoint-cost", "1", "--restart-cost", "2",
            "--trials", "4",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "mean time-to-completion" in out and "# best cell" in out

    def test_faults_sweep_json(self, capsys):
        import json

        from repro.cli import main

        rc = main([
            "faults", "sweep", "--rates", "0.01", "--intervals", "10",
            "--work", "100", "--trials", "2", "--json",
        ])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["cells"][0]["rate"] == 0.01

    def test_run_faults_flag_banner(self, capsys):
        from repro.cli import main

        rc = main(["run", "fig3", "--faults", "link:start=1e9,dur=1,bw=0.5"])
        assert rc == 0
        assert "[faults: link:start=1000000000.0" in capsys.readouterr().out
