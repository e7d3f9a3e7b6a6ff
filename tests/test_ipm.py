"""Unit tests for the IPM-style monitoring framework."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.ipm import (
    GLOBAL_REGION,
    CallKey,
    IpmMonitor,
    comm_percent,
    fig7_breakdown,
    imbalance_irregularity,
    imbalance_percent,
    imbalance_profile,
    render_fig7_ascii,
    summarize,
)


def make_monitor(nprocs=2):
    return IpmMonitor(nprocs)


class TestRegionAccounting:
    def test_global_region_always_present(self):
        mon = make_monitor()
        assert GLOBAL_REGION in mon[0].regions

    def test_enter_exit_accumulates_wall(self):
        mon = make_monitor()
        prof = mon[0]
        prof.enter("solve", 1.0)
        prof.exit("solve", 3.0)
        prof.enter("solve", 5.0)
        prof.exit("solve", 6.0)
        assert prof.regions["solve"].wall_time == pytest.approx(3.0)

    def test_reentering_open_region_rejected(self):
        mon = make_monitor()
        prof = mon[0]
        prof.enter("a", 0.0)
        with pytest.raises(ConfigError):
            prof.enter("a", 1.0)

    def test_mismatched_exit_rejected(self):
        mon = make_monitor()
        prof = mon[0]
        prof.enter("a", 0.0)
        prof.enter("b", 1.0)
        with pytest.raises(ConfigError):
            prof.exit("a", 2.0)

    def test_reserved_region_name_rejected(self):
        mon = make_monitor()
        with pytest.raises(ConfigError):
            mon[0].enter(GLOBAL_REGION, 0.0)

    def test_finalize_with_open_region_rejected(self):
        mon = make_monitor()
        mon[0].enter("a", 0.0)
        with pytest.raises(ConfigError):
            mon[0].finalize(1.0)

    def test_samples_charge_all_open_regions_plus_global(self):
        mon = make_monitor()
        prof = mon[0]
        prof.enter("outer", 0.0)
        prof.enter("inner", 0.0)
        prof.record_compute(2.0)
        prof.record_mpi("MPI_Allreduce", 8, 0.5)
        prof.exit("inner", 3.0)
        prof.exit("outer", 3.0)
        for region in ("outer", "inner", GLOBAL_REGION):
            stats = prof.regions[region]
            assert stats.compute_time == pytest.approx(2.0)
            assert stats.mpi_time == pytest.approx(0.5)

    def test_call_size_histogram(self):
        mon = make_monitor()
        prof = mon[0]
        prof.record_mpi("MPI_Allreduce", 4, 0.1)
        prof.record_mpi("MPI_Allreduce", 4, 0.2)
        prof.record_mpi("MPI_Allreduce", 1024, 0.3)
        sizes = prof.total.call_sizes("MPI_Allreduce")
        assert sizes[4].count == 2
        assert sizes[4].time == pytest.approx(0.3)
        assert sizes[1024].count == 1

    def test_mpi_bytes_total(self):
        mon = make_monitor()
        prof = mon[0]
        prof.record_mpi("MPI_Send", 100, 0.1)
        prof.record_mpi("MPI_Send", 100, 0.1)
        prof.record_mpi("MPI_Recv", 50, 0.1)
        assert prof.total.mpi_bytes() == 250


class TestSummaries:
    def _filled(self):
        mon = make_monitor(2)
        for rank, (comp, comm) in enumerate([(3.0, 1.0), (2.0, 2.0)]):
            prof = mon[rank]
            prof.enter("work", 0.0)
            prof.record_compute(comp)
            prof.record_mpi("MPI_Allreduce", 8, comm)
            prof.exit("work", 4.0)
            prof.finalize(4.0)
        return mon

    def test_summarize_totals(self):
        rep = summarize(self._filled(), "work")
        assert rep.compute_time == pytest.approx(5.0)
        assert rep.comm_time == pytest.approx(3.0)
        assert rep.comm_percent == pytest.approx(100 * 3.0 / 8.0)
        assert rep.wall_time == pytest.approx(4.0)

    def test_comm_percent_helper(self):
        assert comm_percent(self._filled(), "work") == pytest.approx(37.5)

    def test_calls_by_name_aggregated(self):
        rep = summarize(self._filled(), "work")
        assert rep.calls_by_name["MPI_Allreduce"] == (2, pytest.approx(3.0))

    def test_report_renders(self):
        text = str(summarize(self._filled(), "work"))
        assert "MPI_Allreduce" in text and "comm" in text

    def test_missing_region_is_empty(self):
        rep = summarize(self._filled(), "nonexistent")
        assert rep.comm_time == 0.0 and rep.comm_percent == 0.0


class TestImbalance:
    def _mon(self, comps, wall=10.0):
        mon = make_monitor(len(comps))
        for rank, c in enumerate(comps):
            prof = mon[rank]
            prof.enter("r", 0.0)
            prof.record_compute(c)
            prof.exit("r", wall)
            prof.finalize(wall)
        return mon

    def test_balanced_is_zero(self):
        assert imbalance_percent(self._mon([2.0, 2.0, 2.0]), "r") == pytest.approx(0.0)

    def test_wall_normalisation(self):
        # max=4, mean=3, wall=10 -> 10%
        mon = self._mon([2.0, 4.0], wall=10.0)
        assert imbalance_percent(mon, "r") == pytest.approx(10.0)

    def test_profile_vector(self):
        vec = imbalance_profile(self._mon([1.0, 2.0, 3.0]), "r")
        assert np.allclose(vec, [1.0, 2.0, 3.0])

    def test_irregularity_is_cv(self):
        mon = self._mon([1.0, 3.0])
        assert imbalance_irregularity(mon, "r") == pytest.approx(0.5)

    def test_empty_region_zero(self):
        assert imbalance_percent(self._mon([1.0]), "missing") == 0.0


class TestFig7:
    def test_breakdown_splits_system_share(self):
        mon = make_monitor(2)
        mon.system_time_share = 0.8
        for rank in range(2):
            prof = mon[rank]
            prof.enter("step", 0.0)
            prof.record_compute(1.0)
            prof.record_mpi("MPI_Allreduce", 8, 1.0)
            prof.exit("step", 2.0)
            prof.finalize(2.0)
        parts = fig7_breakdown(mon, "step")
        assert parts["comm_system"][0] == pytest.approx(0.8)
        assert parts["comm_user"][0] == pytest.approx(0.2)
        assert parts["compute"][0] == pytest.approx(1.0)

    def test_ascii_render_has_rank_rows(self):
        mon = make_monitor(3)
        for rank in range(3):
            prof = mon[rank]
            prof.enter("step", 0.0)
            prof.record_compute(1.0 + rank)
            prof.exit("step", 4.0)
            prof.finalize(4.0)
        text = render_fig7_ascii(fig7_breakdown(mon, "step"), "step")
        assert text.count("|") >= 3

    def test_invalid_nprocs(self):
        with pytest.raises(ConfigError):
            IpmMonitor(0)

    def test_callkey_hashable(self):
        assert CallKey("MPI_Send", 8) == CallKey("MPI_Send", 8)
        assert len({CallKey("a", 1), CallKey("a", 1), CallKey("b", 1)}) == 2


class TestExportRoundTrip:
    def _multi_region_monitor(self):
        mon = make_monitor(2)
        for rank in range(2):
            prof = mon[rank]
            prof.enter("advect", 0.0)
            prof.record_compute(1.0 + rank)
            prof.record_mpi("MPI_Isend", 512, 0.05 * (rank + 1))
            prof.record_mpi("MPI_Isend", 512, 0.05)
            prof.record_mpi("MPI_Allreduce", 8, 0.02)
            prof.exit("advect", 2.0)
            prof.enter("solve", 2.0)
            prof.record_mpi("MPI_Allreduce", 8, 0.03)
            prof.record_io(0.4)
            prof.exit("solve", 5.0)
            prof.finalize(5.0)
        return mon

    def test_write_load_preserves_buckets_and_regions(self, tmp_path):
        from repro.ipm.export import load_json, write_json

        mon = self._multi_region_monitor()
        path = tmp_path / "profile.json"
        write_json(mon, path)
        data = load_json(path)

        assert data["nprocs"] == 2
        assert data["regions"] == mon.region_names()
        for rank, rank_data in enumerate(data["ranks"]):
            prof = mon[rank]
            assert rank_data["rank"] == rank
            assert list(rank_data["regions"]) == sorted(prof.regions)
            advect = rank_data["regions"]["advect"]
            # Per-(call, bytes) buckets survive with counts and times.
            by_key = {(c["call"], c["bytes"]): c for c in advect["calls"]}
            assert by_key[("MPI_Isend", 512)]["count"] == 2
            assert by_key[("MPI_Isend", 512)]["time"] == pytest.approx(
                0.05 * (rank + 1) + 0.05
            )
            assert by_key[("MPI_Allreduce", 8)]["count"] == 1
            # Buckets are emitted in deterministic (call, bytes) order.
            assert [c["call"] for c in advect["calls"]] == sorted(
                c["call"] for c in advect["calls"]
            )

    def test_totals_by_call_matches_monitor(self):
        from repro.ipm.export import totals_by_call

        mon = self._multi_region_monitor()
        totals = totals_by_call(mon)
        # Global region sees every call from both ranks.
        assert totals["MPI_Allreduce"] == pytest.approx(2 * (0.02 + 0.03))
        assert totals["MPI_Isend"] == pytest.approx(
            (0.05 + 0.05) + (0.10 + 0.05)
        )
        # Region-scoped totals only count that region's calls.
        solve = totals_by_call(mon, "solve")
        assert solve == {"MPI_Allreduce": pytest.approx(2 * 0.03)}


# ---------------------------------------------------------------------------
# The cached accounting against an uncached reference
# ---------------------------------------------------------------------------


class _RefRegion:
    def __init__(self):
        self.wall = 0.0
        self.compute = 0.0
        self.io = 0.0
        self.entered = None
        self.mpi = {}  # (call, nbytes) -> [count, time]


class _ReferenceProfile:
    """Uncached accounting: resolves every target and bucket per call."""

    def __init__(self):
        self.regions = {GLOBAL_REGION: _RefRegion()}
        self.stack = []

    def _targets(self):
        return [self.regions[n] for n in self.stack] + [self.regions[GLOBAL_REGION]]

    def enter(self, name, now):
        region = self.regions.setdefault(name, _RefRegion())
        region.entered = now
        self.stack.append(name)

    def exit(self, name, now):
        region = self.regions[self.stack.pop()]
        region.wall += now - region.entered
        region.entered = None

    def record_mpi(self, call, nbytes, duration):
        for region in self._targets():
            bucket = region.mpi.setdefault((call, nbytes), [0, 0.0])
            bucket[0] += 1
            bucket[1] += duration

    def record_compute(self, duration):
        for region in self._targets():
            region.compute += duration

    def record_io(self, duration):
        for region in self._targets():
            region.io += duration


def _run_ops(ops):
    """Drive a RankProfile and the reference through ``ops``; skip ops
    that would be invalid (entering an open region, exiting an empty
    stack), so any drawn sequence is a legal program."""
    prof = IpmMonitor(1)[0]
    ref = _ReferenceProfile()
    now = 0.0
    for op in ops:
        now += 0.25
        kind = op[0]
        if kind == "enter":
            if op[1] in ref.stack:
                continue
            prof.enter(op[1], now)
            ref.enter(op[1], now)
        elif kind == "exit":
            if not ref.stack:
                continue
            name = ref.stack[-1]
            prof.exit(name, now)
            ref.exit(name, now)
        elif kind == "mpi":
            prof.record_mpi(op[1], op[2], op[3])
            ref.record_mpi(op[1], op[2], op[3])
        elif kind == "compute":
            prof.record_compute(op[1])
            ref.record_compute(op[1])
        else:  # "io"
            prof.record_io(op[1])
            ref.record_io(op[1])
    return prof, ref


def _assert_same_accounting(prof, ref):
    assert list(prof.regions) == list(ref.regions)
    for name, expected in ref.regions.items():
        stats = prof.regions[name]
        assert stats.wall_time == expected.wall
        assert stats.compute_time == expected.compute
        assert stats.io_time == expected.io
        # Same keys in the same insertion order, same counts, same floats.
        assert [(k.call, k.nbytes) for k in stats.mpi] == list(expected.mpi)
        for key, (count, time) in expected.mpi.items():
            bucket = stats.mpi[CallKey(*key)]
            assert (bucket.count, bucket.time) == (count, time)


_names = st.sampled_from(["a", "b", "c"])
_calls = st.sampled_from(["MPI_Allreduce", "MPI_Send"])
_nbytes = st.sampled_from([4, 1024])
_times = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)
_ops = st.one_of(
    st.tuples(st.just("enter"), _names),
    st.tuples(st.just("exit")),
    st.tuples(st.just("mpi"), _calls, _nbytes, _times),
    st.tuples(st.just("compute"), _times),
    st.tuples(st.just("io"), _times),
)


class TestCachedAccounting:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_ops, min_size=10, max_size=80))
    def test_matches_uncached_reference(self, ops):
        _assert_same_accounting(*_run_ops(ops))

    def test_scripted_stack_changes(self):
        ops = [
            ("enter", "a"), ("enter", "b"),
            ("mpi", "MPI_Allreduce", 4, 0.1),
            # After the inner region exits, only "a" and global are charged.
            ("exit",), ("mpi", "MPI_Allreduce", 4, 0.2), ("compute", 0.3),
            # Re-entering a seen stack reuses its resolved buckets.
            ("enter", "b"), ("mpi", "MPI_Allreduce", 4, 0.4), ("io", 0.5),
            ("mpi", "MPI_Send", 1024, 0.7),
            ("exit",), ("exit",), ("mpi", "MPI_Send", 1024, 0.8),
            # A different stack of the same depth gets buckets of its own.
            ("enter", "c"), ("mpi", "MPI_Allreduce", 4, 0.9), ("exit",),
        ]
        prof, ref = _run_ops(ops)
        _assert_same_accounting(prof, ref)
        send = CallKey("MPI_Send", 1024)
        assert prof.regions["b"].mpi[send].count == 1
        assert prof.regions["a"].mpi[send].count == 1
        assert prof.total.mpi[send].count == 2
        allreduce = CallKey("MPI_Allreduce", 4)
        assert prof.regions["b"].mpi[allreduce].count == 2
        assert prof.regions["c"].mpi[allreduce].count == 1
        assert prof.regions["a"].mpi[allreduce].count == 3
        assert prof.regions["a"].compute_time == 0.3
        assert prof.regions["b"].compute_time == 0.0

    def test_class_level_wrappers_see_every_call(self, monkeypatch):
        """Per-call instrumentation patched onto the classes (as an
        outside tracer does) observes every MPI and compute sample."""
        from repro.apps.metum import MetumBenchmark
        from repro.ipm.monitor import RankProfile
        from repro.platforms import VAYU
        from repro.platforms.base import Platform
        from repro.smpi.comm import Comm

        counts = {"record_mpi": 0, "compute_seconds": 0, "compute": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            RankProfile, "record_mpi", counted("record_mpi", RankProfile.record_mpi)
        )
        monkeypatch.setattr(
            Platform, "compute_seconds",
            counted("compute_seconds", Platform.compute_seconds),
        )
        monkeypatch.setattr(Comm, "compute", counted("compute", Comm.compute))
        result = MetumBenchmark(sim_steps=1).run(VAYU, 8, seed=1)
        mon = result.monitor
        assert counts["record_mpi"] == sum(p.total.mpi_calls for p in mon.profiles) > 0
        assert counts["compute_seconds"] == counts["compute"] > 0


# ---------------------------------------------------------------------------
# Conservation: every second of a rank is compute, MPI or I/O
# ---------------------------------------------------------------------------


def _paper_world(app, platform):
    if app == "metum":
        from repro.apps.metum import MetumBenchmark

        return MetumBenchmark(sim_steps=1).run(platform, 8, seed=1).monitor
    if app == "chaste":
        from repro.apps.chaste import ChasteBenchmark

        return ChasteBenchmark(sim_steps=2).run(platform, 8, seed=1).monitor
    from repro.npb import get_benchmark

    return get_benchmark(app, "B", sim_iters=2).run(platform, 8, seed=1).monitor


class TestConservation:
    @pytest.mark.parametrize("platform", ["DCC", "EC2", "Vayu"])
    @pytest.mark.parametrize(
        "app", ["metum", "chaste", "cg", "ep", "ft", "is", "mg", "lu"]
    )
    def test_time_is_conserved_per_rank(self, app, platform):
        from repro.platforms import get_platform

        mon = _paper_world(app, get_platform(platform))
        for prof in mon.profiles:
            total = prof.total
            parts = total.compute_time + total.mpi_time + total.io_time
            assert total.wall_time > 0
            assert abs(parts - total.wall_time) <= 1e-12 * total.wall_time
            for name, stats in prof.regions.items():
                if name == GLOBAL_REGION:
                    continue
                used = stats.compute_time + stats.mpi_time + stats.io_time
                assert used <= stats.wall_time * (1 + 1e-12), name
                assert stats.mpi_time <= total.mpi_time, name
                assert stats.compute_time <= total.compute_time, name
