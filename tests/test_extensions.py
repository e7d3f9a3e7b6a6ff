"""Tests for the extension surface: collective OSU benchmarks, scan/exscan,
Cartesian helpers, IPM export and NPB class D."""

import json

import pytest

from repro.errors import ConfigError, MpiError
from repro.ipm.export import load_json, monitor_to_dict, totals_by_call, write_json
from repro.npb import get_benchmark, problem
from repro.osu import osu_allreduce, osu_alltoall
from repro.platforms import DCC, EC2, VAYU
from repro.smpi import run_program


class TestOsuCollectives:
    def test_allreduce_latency_platform_ordering(self):
        sizes = [8]
        lat = {
            s.name: osu_allreduce(s, 16, sizes, iterations=20)[8]
            for s in (DCC, EC2, VAYU)
        }
        assert lat["Vayu"] < lat["EC2"] < lat["DCC"]

    def test_allreduce_monotone_in_size(self):
        out = osu_allreduce(VAYU, 8, [8, 4096, 1 << 20], iterations=10)
        assert out[8] <= out[4096] <= out[1 << 20]

    def test_alltoall_grows_with_pairs_size(self):
        out = osu_alltoall(DCC, 16, [64, 65536], iterations=5)
        assert out[65536] > out[64]

    def test_needs_two_ranks(self):
        with pytest.raises(ConfigError):
            osu_allreduce(VAYU, 1)


class TestScanExscan:
    def test_scan_prefix_sums(self):
        def prog(comm):
            v = yield from comm.scan(8, value=comm.rank + 1)
            return v

        res = run_program(VAYU, 4, prog)
        assert res.rank_results == [1, 3, 6, 10]

    def test_exscan_excludes_self(self):
        def prog(comm):
            v = yield from comm.exscan(8, value=comm.rank + 1)
            return v

        res = run_program(VAYU, 4, prog)
        assert res.rank_results == [None, 1, 3, 6]

    def test_scan_custom_op(self):
        def prog(comm):
            v = yield from comm.scan(8, value=comm.rank, op=max)
            return v

        res = run_program(VAYU, 3, prog)
        assert res.rank_results == [0, 1, 2]


class TestCartesianHelpers:
    def _with_comm(self, size, fn):
        def prog(comm):
            yield from comm.barrier()
            return fn(comm)

        return run_program(VAYU, size, prog).rank_results

    def test_coords_roundtrip(self):
        def check(comm):
            dims = (2, 4)
            coords = comm.cart_coords(dims)
            return comm.cart_rank(dims, coords) == comm.rank

        assert all(self._with_comm(8, check))

    def test_row_major_layout(self):
        def coords(comm):
            return comm.cart_coords((2, 4))

        res = self._with_comm(8, coords)
        assert res[0] == (0, 0)
        assert res[3] == (0, 3)
        assert res[4] == (1, 0)

    def test_shift_periodic(self):
        def shift(comm):
            return comm.cart_shift((2, 4), axis=1)

        res = self._with_comm(8, shift)
        assert res[0] == (3, 1)   # wraps west to rank 3
        assert res[3] == (2, 0)   # wraps east to rank 0

    def test_bad_dims_rejected(self):
        def bad(comm):
            yield from comm.barrier()
            comm.cart_coords((3, 3))

        with pytest.raises(MpiError):
            run_program(VAYU, 8, bad)


class TestIpmExport:
    def _monitor(self):
        def prog(comm):
            with comm.region("work"):
                yield from comm.compute(flops=1e7)
                yield from comm.allreduce(8, value=1.0)
            return None

        return run_program(VAYU, 4, prog).monitor

    def test_dict_structure(self):
        data = monitor_to_dict(self._monitor())
        assert data["nprocs"] == 4
        assert "work" in data["regions"]
        rank0 = data["ranks"][0]
        calls = rank0["regions"]["work"]["calls"]
        assert calls[0]["call"] == "MPI_Allreduce" and calls[0]["bytes"] == 8

    def test_json_roundtrip(self, tmp_path):
        mon = self._monitor()
        path = tmp_path / "ipm.json"
        write_json(mon, path)
        loaded = load_json(path)
        assert loaded["nprocs"] == 4
        json.dumps(loaded)  # fully serialisable

    def test_totals_by_call(self):
        totals = totals_by_call(self._monitor())
        assert set(totals) == {"MPI_Allreduce"}
        assert totals["MPI_Allreduce"] > 0


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
