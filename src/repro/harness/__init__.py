"""Experiment harness: one entry per paper figure/table.

Each experiment in :mod:`repro.harness.experiments` regenerates one
artefact of the paper's evaluation — the same rows/series the paper
reports — and pairs the measured values with the paper's published
numbers from :mod:`repro.harness.paper` so benches and EXPERIMENTS.md
can show paper-vs-measured side by side.

Usage::

    from repro.harness import run_batch
    out = run_batch(["fig4"], quick=True).outputs["fig4"]
    print(out.render())
"""

from repro.harness.experiments import EXPERIMENTS, ExperimentOutput
from repro.harness.figures import render_series_table, render_speedup_plot
from repro.harness.runner import run_batch
from repro.harness.supervisor import SweepReport, run_cells
from repro.harness import paper

__all__ = [
    "EXPERIMENTS",
    "ExperimentOutput",
    "SweepReport",
    "paper",
    "render_series_table",
    "render_speedup_plot",
    "run_batch",
    "run_cells",
]
