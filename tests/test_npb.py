"""Tests for the NPB problem classes, skeletons and scaling behaviour."""

import pytest

from repro.errors import ConfigError
from repro.npb import (
    BENCHMARK_NAMES,
    STEADY_REGION,
    get_benchmark,
    problem,
    valid_nprocs,
)
from repro.npb.base import intra_fraction, mixed_msg_time
from repro.platforms import DCC, EC2, VAYU


class TestProblemClasses:
    def test_all_benchmarks_have_all_classes(self):
        for name in BENCHMARK_NAMES:
            for klass in ("S", "W", "A", "B", "C"):
                cfg = problem(name, klass)
                assert cfg.total_flops > 0
                assert cfg.iterations >= 1

    def test_class_b_dims_official(self):
        assert problem("ft", "B").dims == (512, 256, 256)
        assert problem("cg", "B").dims == (75000, 13, 60)
        assert problem("lu", "B").dims == (102,)
        assert problem("is", "B").dims == (25, 21)

    def test_class_work_ordering(self):
        for name in BENCHMARK_NAMES:
            works = [problem(name, k).total_flops for k in ("S", "W", "A", "B", "C")]
            assert works == sorted(works), name

    def test_unknown_names_rejected(self):
        with pytest.raises(ConfigError):
            problem("xx")
        with pytest.raises(ConfigError):
            problem("cg", "Z")
        with pytest.raises(ConfigError):
            get_benchmark("nope")

    def test_per_iter_helpers(self):
        cfg = problem("ft", "B")
        assert cfg.flops_per_iter * cfg.iterations == pytest.approx(cfg.total_flops)


class TestValidProcessCounts:
    def test_powers_of_two_for_kernels(self):
        assert valid_nprocs("cg", 64) == [1, 2, 4, 8, 16, 32, 64]

    def test_squares_for_bt_sp(self):
        assert valid_nprocs("bt", 64) == [1, 4, 9, 16, 25, 36, 49, 64]
        assert valid_nprocs("sp", 64) == valid_nprocs("bt", 64)

    def test_ep_accepts_anything(self):
        counts = valid_nprocs("ep", 12)
        assert counts == list(range(1, 13))

    def test_ft_limited_by_slabs(self):
        bench = get_benchmark("ft")
        assert bench.valid_nprocs(256)
        assert not bench.valid_nprocs(512)

    def test_run_rejects_invalid_counts(self):
        with pytest.raises(ConfigError):
            get_benchmark("bt").run(VAYU, 8)
        with pytest.raises(ConfigError):
            get_benchmark("cg").run(VAYU, 3)


class TestDecompositionHelpers:
    def test_grid2d_factorises(self):
        bench = get_benchmark("cg")
        for p in (1, 2, 4, 8, 16, 64):
            px, py = bench.grid2d(p)
            assert px * py == p and px <= py

    def test_grid3d_factorises(self):
        bench = get_benchmark("mg")
        for p in (1, 8, 16, 32, 64):
            dims = bench.grid3d(p)
            assert dims[0] * dims[1] * dims[2] == p

    def test_grid_helpers_reject_non_powers(self):
        with pytest.raises(ConfigError):
            get_benchmark("cg").grid2d(6)

    def test_split_extent_conserves_total(self):
        bench = get_benchmark("cg")
        total = sum(bench.split_extent(481, 7, i) for i in range(7))
        assert total == 481

    def test_intra_fraction(self):
        assert intra_fraction(1, 8) == pytest.approx(7 / 8)
        assert intra_fraction(8, 8) == 0.0
        assert intra_fraction(0, 8) == 1.0
        with pytest.raises(ConfigError):
            intra_fraction(1, 0)


class TestBenchResults:
    def test_result_labels(self):
        r = get_benchmark("cg").run(VAYU, 4, seed=1)
        assert r.label() == "CG.B.4"

    def test_projection_arithmetic(self):
        r = get_benchmark("ft", sim_iters=2).run(VAYU, 4, seed=1)
        assert (r.steady.sim, r.steady.total) == (2, 20)
        assert r.projected_time == pytest.approx(
            r.setup_time + r.steady.per_step * r.steady.total
        )
        assert r.projected_time > r.wall_time  # 20 iterations projected from 2

    def test_steady_region_exists(self):
        r = get_benchmark("mg").run(VAYU, 8, seed=1)
        assert STEADY_REGION in r.monitor.region_names()

    def test_sim_iters_capped_at_total(self):
        bench = get_benchmark("is", sim_iters=500)
        assert bench.sim_iters == bench.cfg.iterations

    def test_deterministic_given_seed(self):
        a = get_benchmark("cg").run(DCC, 8, seed=9).projected_time
        b = get_benchmark("cg").run(DCC, 8, seed=9).projected_time
        assert a == b


class TestPaperShapes:
    """The qualitative Fig 3/4 and Table II claims, as assertions."""

    def test_fig3_serial_calibration(self):
        from repro.harness.paper import FIG3_DCC_SERIAL_SECONDS

        for name, ref in FIG3_DCC_SERIAL_SECONDS.items():
            t = get_benchmark(name).run(DCC, 1, seed=1).projected_time
            assert t == pytest.approx(ref, rel=0.15), name

    def test_fig3_vayu_normalised_band(self):
        for name in ("ep", "lu", "sp"):
            dcc = get_benchmark(name).run(DCC, 1, seed=1).projected_time
            vayu = get_benchmark(name).run(VAYU, 1, seed=1).projected_time
            assert 0.6 < vayu / dcc < 0.9, name

    def test_ep_near_linear_on_bare_metal(self):
        bench = get_benchmark("ep")
        t1 = bench.run(VAYU, 1, seed=1).projected_time
        t64 = bench.run(VAYU, 64, seed=1).projected_time
        assert t1 / t64 > 55

    def test_ep_ec2_ht_penalty_at_16(self):
        bench = get_benchmark("ep")
        t8 = bench.run(EC2, 8, seed=1).projected_time
        t16 = bench.run(EC2, 16, seed=1).projected_time
        # One HT-subscribed node: far from doubling.
        assert t8 / t16 < 1.5

    def test_cg_dcc_drops_at_eight(self):
        """The paper's NUMA-masking signature (Fig 4, section V-B)."""
        bench = get_benchmark("cg")
        t1 = bench.run(DCC, 1, seed=1).projected_time
        s4 = t1 / bench.run(DCC, 4, seed=1).projected_time
        s8 = t1 / bench.run(DCC, 8, seed=1).projected_time
        s16 = t1 / bench.run(DCC, 16, seed=1).projected_time
        assert s8 < s4  # the drop at 8
        assert s16 > s8  # recovery from 16 onwards

    def test_cg_vayu_scales_far_beyond_dcc(self):
        bench = get_benchmark("cg")
        for spec, floor in ((VAYU, 25.0), (DCC, 3.0)):
            t1 = bench.run(spec, 1, seed=1).projected_time
            s64 = t1 / bench.run(spec, 64, seed=1).projected_time
            assert s64 > floor, spec.name
        t1v = bench.run(VAYU, 1, seed=1).projected_time
        t1d = bench.run(DCC, 1, seed=1).projected_time
        s64v = t1v / bench.run(VAYU, 64, seed=1).projected_time
        s64d = t1d / bench.run(DCC, 64, seed=1).projected_time
        assert s64v > 3 * s64d

    def test_is_poor_everywhere(self):
        bench = get_benchmark("is")
        for spec in (DCC, EC2, VAYU):
            t1 = bench.run(spec, 1, seed=1).projected_time
            s64 = t1 / bench.run(spec, 64, seed=1).projected_time
            assert s64 < 40, spec.name

    def test_table2_comm_ordering_dcc_worst(self):
        for name in ("cg", "ft", "is"):
            bench_d = get_benchmark(name).run(DCC, 64, seed=1).comm_percent
            bench_e = get_benchmark(name).run(EC2, 64, seed=1).comm_percent
            bench_v = get_benchmark(name).run(VAYU, 64, seed=1).comm_percent
            assert bench_d > bench_e > bench_v, name

    def test_table2_comm_grows_with_np(self):
        for spec in (DCC, VAYU):
            pcts = [
                get_benchmark("is").run(spec, p, seed=1).comm_percent
                for p in (2, 16, 64)
            ]
            assert pcts[0] < pcts[1] < pcts[2], spec.name

    def test_ft_dcc_recovers_above_16(self):
        """All-to-all message sizes shrink with p (section V-B)."""
        bench = get_benchmark("ft")
        t1 = bench.run(DCC, 1, seed=1).projected_time
        s16 = t1 / bench.run(DCC, 16, seed=1).projected_time
        s64 = t1 / bench.run(DCC, 64, seed=1).projected_time
        assert s64 > 1.5 * s16

    def test_bt_runs_at_square_counts(self):
        bench = get_benchmark("bt")
        r36 = bench.run(VAYU, 36, seed=1)
        assert r36.label() == "BT.B.36"
        t1 = bench.run(VAYU, 1, seed=1).projected_time
        assert t1 / r36.projected_time > 15
