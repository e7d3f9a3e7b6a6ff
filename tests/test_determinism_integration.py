"""Cross-cutting determinism and consistency checks.

Determinism is a design requirement (DESIGN.md section 4): two runs with
the same seed must agree exactly, across every layer of the stack — not
just the engine (covered in test_sim_engine) but whole experiments.
"""

import pytest

from repro.apps.chaste import ChasteBenchmark
from repro.apps.metum import MetumBenchmark
from repro.harness import run_batch
from repro.npb import get_benchmark
from repro.osu import osu_bandwidth, osu_latency
from repro.platforms import DCC, EC2, VAYU
from tests.test_world_pins import world_digest


class TestDeterminism:
    def test_osu_sweeps_repeat_exactly(self):
        sizes = [1, 1024, 65536]
        a = osu_latency(DCC, sizes, iterations=20, seed=9)
        b = osu_latency(DCC, sizes, iterations=20, seed=9)
        assert a == b
        c = osu_bandwidth(EC2, sizes, iterations=3, seed=9)
        d = osu_bandwidth(EC2, sizes, iterations=3, seed=9)
        assert c == d

    def test_different_seeds_differ_on_noisy_platform(self):
        a = osu_latency(DCC, [1], iterations=20, seed=1)[1]
        b = osu_latency(DCC, [1], iterations=20, seed=2)[1]
        assert a != b

    def test_full_monitor_state_identical(self):
        """Not just wall time: every accounting bucket must agree."""
        runs = [get_benchmark("mg").run(DCC, 8, seed=5) for _ in range(2)]
        assert world_digest(runs[0]) == world_digest(runs[1])

    def test_application_runs_repeat(self):
        a = MetumBenchmark(sim_steps=1).run(EC2, 16, seed=7)
        b = MetumBenchmark(sim_steps=1).run(EC2, 16, seed=7)
        assert a.warmed_time == b.warmed_time
        assert a.io_time == b.io_time
        c = ChasteBenchmark(sim_steps=1).run(VAYU, 16, seed=7)
        d = ChasteBenchmark(sim_steps=1).run(VAYU, 16, seed=7)
        assert c.total_time == d.total_time

    def test_experiment_outputs_repeat(self):
        a = run_batch(["fig3"], quick=True, seed=3)
        b = run_batch(["fig3"], quick=True, seed=3)
        assert not a.failures and not b.failures
        assert a.outputs["fig3"].comparisons
        assert a.outputs["fig3"].comparisons == b.outputs["fig3"].comparisons


class TestCrossLayerConsistency:
    def test_bench_comm_percent_matches_monitor(self):
        """BenchResult.comm_percent must be derivable from its monitor."""
        from repro.ipm.report import summarize

        r = get_benchmark("cg").run(DCC, 16, seed=2)
        direct = summarize(r.monitor, "steady").comm_percent
        assert r.comm_percent == pytest.approx(direct)

    def test_projection_consistent_with_iteration_count(self):
        short = get_benchmark("ft", sim_iters=1).run(VAYU, 8, seed=2)
        long = get_benchmark("ft", sim_iters=4).run(VAYU, 8, seed=2)
        # Different simulated-iteration counts project to similar totals.
        assert short.projected_time == pytest.approx(long.projected_time, rel=0.1)

    def test_wall_time_ge_any_region(self):
        r = MetumBenchmark(sim_steps=1).run(DCC, 8, seed=1)
        for prof in r.monitor.profiles:
            for stats in prof.regions.values():
                assert prof.finish_time + 1e-9 >= stats.wall_time
