"""Tests for the CLI and the batch runner/export."""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.harness.runner import run_batch


class TestRunner:
    def test_batch_runs_selection(self):
        batch = run_batch(["tab1", "fig3"], quick=True, seed=1)
        assert set(batch.outputs) == {"tab1", "fig3"}
        assert "NPB class B serial" in batch.render()

    def test_unknown_ids_rejected(self):
        with pytest.raises(ConfigError):
            run_batch(["nope"])

    def test_comparison_rows_have_deltas(self):
        batch = run_batch(["fig3"], quick=True, seed=1)
        rows = batch.comparison_rows()
        assert rows and all("delta_pct" in r for r in rows)

    def test_json_and_csv_export(self, tmp_path):
        batch = run_batch(["fig3"], quick=True, seed=1)
        jpath = tmp_path / "out.json"
        cpath = tmp_path / "out.csv"
        tpath = tmp_path / "out.txt"
        batch.write_json(jpath)
        batch.write_csv(cpath)
        batch.write_text(tpath)
        data = json.loads(jpath.read_text())
        assert data[0]["experiment"] == "fig3"
        assert cpath.read_text().startswith("experiment,metric")
        assert "fig3" in tpath.read_text()

    def test_progress_callback(self):
        seen = []
        run_batch(["tab1"], progress=seen.append)
        assert seen == ["tab1"]


class TestCli:
    def test_platforms(self, capsys):
        assert main(["platforms"]) == 0
        assert "Vayu" in capsys.readouterr().out

    def test_experiments_listing(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "tab3" in out

    def test_npb_point(self, capsys):
        assert main(["npb", "ep", "vayu", "4"]) == 0
        out = capsys.readouterr().out
        assert "EP.B.4" in out and "projected" in out

    def test_run_exports(self, tmp_path, capsys):
        jpath = tmp_path / "c.json"
        assert main(["run", "tab1", "fig3", "--json", str(jpath)]) == 0
        assert jpath.exists()
        assert "fig3" in capsys.readouterr().out

    def test_error_reported_cleanly(self, capsys):
        # Fatal errors exit 1 (0 = all ok, 3 = some sweep cells failed).
        assert main(["run", "bogus"]) == 1
        assert "error:" in capsys.readouterr().err
