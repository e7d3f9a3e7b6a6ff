"""Unit tests for the IPM-style monitoring framework."""

import numpy as np
import pytest

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
