"""Tests for the derived statistics and the experiment harness."""

import pytest

from repro.analysis.stats import (
    normalized_times,
    render_stats_table,
    speedup_series,
    table3_stats,
)
from repro.errors import ConfigError
from repro.harness import EXPERIMENTS, run_batch, run_cells
from repro.harness.figures import percent_delta, render_series_table, render_speedup_plot
from repro.harness.parallel import Cell, metum_point


class TestAnalysis:
    def test_speedup_series_default_base(self):
        out = speedup_series({1: 100.0, 4: 25.0, 16: 10.0})
        assert out == {1: 1.0, 4: 4.0, 16: 10.0}

    def test_speedup_series_explicit_base(self):
        out = speedup_series({8: 80.0, 32: 20.0}, base_procs=8)
        assert out[32] == pytest.approx(4.0)

    def test_speedup_series_validation(self):
        with pytest.raises(ConfigError):
            speedup_series({})
        with pytest.raises(ConfigError):
            speedup_series({2: 1.0}, base_procs=1)
        with pytest.raises(ConfigError):
            speedup_series({1: 0.0})

    def test_normalized_times(self):
        out = normalized_times({"DCC": 100.0, "Vayu": 70.0}, "DCC")
        assert out == {"DCC": 1.0, "Vayu": 0.7}
        with pytest.raises(ConfigError):
            normalized_times({"a": 1.0}, "b")

    def test_table3_stats_reference_rows(self):
        results = {
            "Vayu": metum_point("Vayu", 8, None, 1, 1),
            "DCC": metum_point("DCC", 8, None, 1, 1),
        }
        rows = table3_stats(results, reference_platform="Vayu")
        assert [r.platform for r in rows] == ["Vayu", "DCC"]
        assert rows[0].rcomp == pytest.approx(1.0)
        assert rows[1].rcomp > 1.2
        assert rows[1].io_time == results["DCC"]["io"]
        assert rows[1].time == results["DCC"]["total_time"]
        text = render_stats_table(rows)
        assert "rcomp" in text and "DCC" in text

    def test_table3_requires_reference(self):
        with pytest.raises(ConfigError):
            table3_stats({}, reference_platform="Vayu")


def _npb_sweep(bench, platforms, counts, seed=1):
    """``{(platform, p): npb_point result}`` for one benchmark sweep."""
    return run_cells(
        [Cell((name, p), "npb_point", (bench, name, p, seed, "B", None))
         for name in platforms for p in counts],
        jobs=1,
    ).results


class TestStudyApi:
    """Scaling studies and platform comparisons as sweeps of cells."""

    def test_npb_scaling_study(self):
        points = _npb_sweep("ep", ["Vayu"], [1, 4])
        sp = speedup_series({p: points[("Vayu", p)]["projected_time"] for p in (1, 4)})
        assert sp[1] == 1.0 and sp[4] > 3.0
        assert {p for _name, p in points} == {1, 4}
        assert all(0.0 <= r["comm_percent"] < 100.0 for r in points.values())

    def test_empty_proc_list_rejected(self):
        points = _npb_sweep("ep", ["Vayu"], [])
        assert points == {}
        with pytest.raises(ConfigError):
            speedup_series({p: r["projected_time"] for (_n, p), r in points.items()})

    def test_metum_study_constructor(self):
        out = run_cells([Cell(("Vayu", 8), "metum_point", ("Vayu", 8, None, 1, 1))],
                        jobs=1).results
        point = out[("Vayu", 8)]
        assert 0 < point["warmed_time"] <= point["total_time"]

    def test_chaste_study_constructor(self):
        out = run_cells([Cell(("Vayu", 8), "chaste_point", ("Vayu", 8, 1, 1))],
                        jobs=1).results
        point = out[("Vayu", 8)]
        assert 0 < point["ksp_time"] < point["total_time"]

    def test_platform_comparison_normalised(self):
        points = _npb_sweep("ep", ["DCC", "Vayu", "EC2"], [1])
        out = normalized_times(
            {name: r["projected_time"] for (name, _p), r in points.items()}, "DCC"
        )
        assert out["DCC"] == 1.0
        assert 0.6 < out["Vayu"] < 0.9


def _output(experiment_id, **options):
    """One experiment's output from a batch, failing the test if any of
    its cells failed (a failed experiment renders with no comparisons)."""
    batch = run_batch([experiment_id], **options)
    assert not batch.failures, batch.failures
    return batch.outputs[experiment_id]


class TestHarness:
    def test_registry_covers_every_artifact(self):
        assert set(EXPERIMENTS) == {
            "tab1", "fig1", "fig2", "fig3", "fig4", "tab2",
            "fig5", "fig6", "tab3", "fig7", "arrivef",
        }

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError):
            run_batch(["fig99"])

    def test_fig3_comparisons_within_band(self):
        out = _output("fig3", quick=True, seed=1)
        for metric, measured, ref in out.comparisons:
            assert measured == pytest.approx(ref, rel=0.2), metric

    def test_tab3_render_contains_all_rows(self):
        out = _output("tab3", quick=True, seed=1)
        for label in ("Vayu", "DCC", "EC2", "EC2-4"):
            assert label in out.text

    def test_render_includes_comparisons(self):
        out = _output("fig1", quick=True, seed=1)
        rendered = out.render()
        assert "paper-vs-measured" in rendered and "EC2 peak" in rendered


class TestFigureRendering:
    def test_series_table_alignment(self):
        text = render_series_table("t", ["a", "b"], {1: [1.0, 2.0], 2: [3.0, 4.0]})
        lines = text.splitlines()
        assert lines[0] == "t"
        assert len({len(line) for line in lines[1:]}) == 1

    def test_speedup_plot_legend(self):
        text = render_speedup_plot("p", {"x": {1: 1.0, 4: 4.0}})
        assert "legend: A=x" in text

    def test_speedup_plot_empty(self):
        assert "(no data)" in render_speedup_plot("p", {})

    def test_percent_delta(self):
        assert percent_delta(110.0, 100.0) == "+10%"
        assert percent_delta(90.0, 100.0) == "-10%"
        assert percent_delta(1.0, 0.0) == "n/a"
