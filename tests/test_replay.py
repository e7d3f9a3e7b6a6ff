"""Tests for steady-state iteration capture & replay (repro.perf.replay).

Replay is a pure optimization: every test here either shows it engaging
(fewer engine events, same rendered numbers) or falling back cleanly
(diagnostics attached, results bitwise-unchanged).
"""

import pytest

from repro.errors import ConfigError
from repro.harness.runner import run_batch
from repro.npb import get_benchmark
from repro.perf.replay import (
    ReplayRecorder,
    deterministic_variant,
    replay_scope,
)
from repro.platforms import VAYU, get_platform
from repro.platforms.base import Platform
from repro.sim.engine import Engine
from repro.smpi.world import MpiWorld

QUIET = deterministic_variant(VAYU)


def _run_cg(replay: bool, sim_iters: int = 16, nprocs: int = 8, seed: int = 7):
    """One CG steady loop on the quiet platform; (engine, result)."""
    bench = get_benchmark("cg", sim_iters=sim_iters)
    world = MpiWorld(QUIET, nprocs, seed=seed, replay=replay)
    result = world.launch(bench.make_program())
    return world.engine, result


@pytest.mark.usefixtures("fast_path_preconditions")
class TestEngagement:
    def test_fast_forward_cuts_events(self):
        full, _ = _run_cg(False)
        fast, result = _run_cg(True)
        assert result.replay is not None and result.replay.active
        assert result.replay.replayed_iters > 0
        assert full.dispatched / fast.dispatched >= 3.0

    def test_loop_accounting(self):
        _, result = _run_cg(True)
        (loop,) = result.replay.loops
        assert loop.label == "npb:cg"
        assert loop.simulated + loop.replayed == loop.total == 16
        assert loop.replayed >= loop.total - 3  # k=2 plus decision lag

    def test_results_identical_at_report_precision(self):
        _, off = _run_cg(False)
        _, on = _run_cg(True)
        assert on.wall_time == pytest.approx(off.wall_time, rel=1e-9)
        for p_on, p_off in zip(on.monitor.profiles, off.monitor.profiles):
            assert p_on.regions.keys() == p_off.regions.keys()
            for name, r_on in p_on.regions.items():
                r_off = p_off.regions[name]
                # The precision every report renders at (and then some).
                assert f"{r_on.wall_time:.6f}" == f"{r_off.wall_time:.6f}"
                assert f"{r_on.compute_time:.6f}" == f"{r_off.compute_time:.6f}"

    def test_bench_report_renders_identically(self):
        bench = get_benchmark("cg", sim_iters=16)
        with replay_scope(False):
            off = bench.run(QUIET, 8, seed=7)
        with replay_scope(True) as reports:
            on = bench.run(QUIET, 8, seed=7)
        assert any(r.replayed_iters > 0 for r in reports)
        assert f"{on.projected_time:.4f}" == f"{off.projected_time:.4f}"
        assert f"{on.per_iter_time:.6f}" == f"{off.per_iter_time:.6f}"
        assert f"{on.comm_percent:.2f}" == f"{off.comm_percent:.2f}"


@pytest.mark.usefixtures("fast_path_preconditions")
class TestFallback:
    @pytest.mark.parametrize("platform", ["vayu", "dcc", "ec2"])
    def test_registered_platforms_are_refused(self, platform):
        world = MpiWorld(get_platform(platform), 4, seed=1, replay=True)
        assert world.replay is not None and not world.replay.active
        assert "stochastic" in world.replay.reason

    def test_sanitizer_forces_fallback(self):
        world = MpiWorld(QUIET, 4, seed=1, sanitize=True, replay=True)
        assert not world.replay.active
        assert "sanitizer" in world.replay.reason

    def test_faults_force_fallback(self):
        world = MpiWorld(
            QUIET, 4, seed=1, faults="nfs:start=0,dur=10,factor=2", replay=True
        )
        assert not world.replay.active
        assert "fault" in world.replay.reason

    def test_timeline_forces_fallback(self):
        world = MpiWorld(QUIET, 4, seed=1, timeline=True, replay=True)
        assert not world.replay.active
        assert "timeline" in world.replay.reason

    def test_engine_tracer_forces_fallback(self):
        engine = Engine(seed=1, trace=True)
        world = MpiWorld(Platform(QUIET, engine), 4, replay=True)
        assert not world.replay.active
        assert "tracer" in world.replay.reason

    def test_fallback_is_bitwise_inert(self):
        """A refused recorder must not perturb the simulation at all."""
        base = MpiWorld(get_platform("vayu"), 4, seed=3).launch(
            get_benchmark("cg", sim_iters=4).make_program()
        )
        refused = MpiWorld(get_platform("vayu"), 4, seed=3, replay=True).launch(
            get_benchmark("cg", sim_iters=4).make_program()
        )
        assert refused.replay is not None and not refused.replay.active
        assert refused.wall_time == base.wall_time

    def test_k_must_be_at_least_two(self):
        world = MpiWorld(QUIET, 2, seed=1)
        with pytest.raises(ConfigError):
            ReplayRecorder(world, k=1)


@pytest.mark.usefixtures("fast_path_preconditions")
class TestStationarity:
    def test_varying_iterations_never_replay(self):
        def _body(comm, it):
            yield from comm.compute(flops=1e6 * (it + 1))
            yield from comm.allreduce(8, value=0.0)

        def varying(comm, iters: int):
            for it in range(iters):
                yield from comm.iteration_scope(
                    it, iters, lambda it=it: _body(comm, it), label="varying"
                )

        runs = {}
        for replay in (False, True):
            world = MpiWorld(QUIET, 4, seed=5, replay=replay)
            runs[replay] = world.launch(varying, 12)
        report = runs[True].replay
        assert report.active
        assert report.replayed_iters == 0  # captures never stationary
        assert runs[True].wall_time == runs[False].wall_time

    def test_steady_iterations_do_replay(self):
        def _body(comm):
            yield from comm.compute(flops=1e6)
            yield from comm.allreduce(8, value=0.0)

        def steady(comm, iters: int):
            for it in range(iters):
                yield from comm.iteration_scope(
                    it, iters, lambda: _body(comm), label="steady"
                )

        world = MpiWorld(QUIET, 4, seed=5, replay=True)
        result = world.launch(steady, 12)
        assert result.replay.replayed_iters > 0


@pytest.mark.usefixtures("fast_path_preconditions")
class TestOsuPhases:
    def test_warmup_and_timed_loops_replay_separately(self):
        from repro.osu.latency import osu_latency

        with replay_scope(True) as reports:
            on = osu_latency(QUIET, sizes=[8], iterations=30, warmup=5, seed=3)
        off = osu_latency(QUIET, sizes=[8], iterations=30, warmup=5, seed=3)
        assert on[8] == pytest.approx(off[8], rel=1e-9)
        loops = {s.label: s for r in reports for s in r.loops}
        warm = loops["latency:8:warmup"]
        timed = loops["latency:8:timed"]
        assert (warm.total, warm.replayed) == (5, 2)
        assert (timed.total, timed.replayed) == (30, 27)


class TestBatchIntegration:
    def test_all_experiments_byte_identical(self):
        """Replay on vs off across every registered experiment."""
        off = run_batch(None, quick=True, seed=3, replay=False, fastcollect=False)
        on = run_batch(None, quick=True, seed=3, replay=True)
        assert off.perf_summary is None
        assert on.perf_summary is not None and on.perf_summary.startswith("perf:")
        for eid, out in off.outputs.items():
            assert on.outputs[eid].render() == out.render(), eid
        assert on.comparison_rows() == off.comparison_rows()
        # The [perf: ...] banner is stderr-only: the reports are identical.
        assert on.render() == off.render()

    def test_batch_exports_identical(self, tmp_path):
        off = run_batch(["fig3"], quick=True, seed=3, replay=False)
        on = run_batch(["fig3"], quick=True, seed=3, replay=True)
        for batch, tag in ((off, "off"), (on, "on")):
            batch.write_json(tmp_path / f"{tag}.json")
            batch.write_csv(tmp_path / f"{tag}.csv")
        assert (tmp_path / "on.json").read_bytes() == (tmp_path / "off.json").read_bytes()
        assert (tmp_path / "on.csv").read_bytes() == (tmp_path / "off.csv").read_bytes()

    def test_sim_iters_validation(self):
        with pytest.raises(ConfigError):
            run_batch(["tab1"], sim_iters=0)

    def test_sim_iters_reaches_benchmark(self):
        from repro.harness.parallel import npb_point

        point = npb_point("cg", "vayu", 2, 0, "B", 6)
        direct = get_benchmark("cg", sim_iters=6).run(get_platform("vayu"), 2, seed=0)
        assert point["projected_time"] == direct.projected_time
        assert point["per_iter_time"] == direct.per_iter_time


class TestEngineBench:
    @pytest.mark.usefixtures("fast_path_preconditions")
    def test_replay_workload_event_ratio(self):
        from repro.perf.enginebench import replay_event_counts

        counts = replay_event_counts()
        assert counts["events_ratio"] >= 3.0
        assert counts["replayed_iters"] > 0
        assert counts["replay_events"] < counts["full_events"]

    def test_baseline_check(self):
        from repro.perf.enginebench import check_against_baseline

        rows = {"p2p": {"events_per_sec": 65_000.0}}
        base = {"p2p": {"events_per_sec": 100_000.0},
                "other": {"events_per_sec": 1.0}}
        assert check_against_baseline(rows, base, tolerance=0.30)
        assert not check_against_baseline(rows, base, tolerance=0.40)
        with pytest.raises(ConfigError):
            check_against_baseline(rows, base, tolerance=1.5)
