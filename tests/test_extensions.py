"""Tests for NPB class D, the one problem class beyond the paper's."""

from repro.npb import get_benchmark, problem
from repro.platforms import VAYU


class TestClassD:
    def test_class_d_defined_for_all(self):
        from repro.npb import BENCHMARK_NAMES

        for name in BENCHMARK_NAMES:
            cfg = problem(name, "D")
            assert cfg.total_flops > problem(name, "C").total_flops

    def test_class_d_runs(self):
        r = get_benchmark("cg", klass="D").run(VAYU, 64, seed=1)
        assert r.label() == "CG.D.64"
        assert r.projected_time > get_benchmark("cg").run(VAYU, 64, seed=1).projected_time

    def test_ft_class_d_slab_limit(self):
        bench = get_benchmark("ft", klass="D")
        assert bench.valid_nprocs(1024)  # nz = 1024 slabs
