"""Batch experiment runner with result export.

Drives the experiment registry for reports and for regenerating
EXPERIMENTS.md: runs a set of experiments, collects renderings and
comparison triples, and exports machine-readable results (JSON/CSV) next
to the human-readable text.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import pathlib
import typing as _t

from repro.config import RunConfig
from repro.errors import CellExecutionError, ConfigError
from repro.harness.experiments import EXPERIMENTS, ExperimentOutput, run_experiments


@dataclasses.dataclass(slots=True)
class BatchResult:
    """All outputs of one harness batch."""

    outputs: dict[str, ExperimentOutput]
    #: One-line MPI-sanitizer summary (None when the batch ran
    #: unsanitized).  Like every banner below it is *not* part of
    #: :meth:`render`, and the CLI prints it to stderr: it counts the
    #: worlds the batch simulated, inline or in pool workers, which a
    #: store-served cell has none of, and the report must stay
    #: byte-identical whatever the execution strategy.
    sanitize_summary: str | None = None
    #: One-line ``harness: ...`` degrade/failure banner (None unless a
    #: cell degraded or failed).  Its degrade tally varies between a run
    #: that lost a worker and a clean one.
    harness_summary: str | None = None
    #: One-line ``store: ...`` cell-store banner (None when the batch ran
    #: without a store).  Also stderr-only and absent from
    #: :meth:`render`: its served/executed tallies differ between a
    #: cold-store and a warm-store run, and both must render
    #: byte-identical reports.
    store_summary: str | None = None
    #: Experiments whose sweep cells failed, by experiment id.  Their
    #: outputs render as explicit ``FAILED(worker-exception)`` entries and
    #: the CLI exits 3 ("partial") when this is non-empty.
    failures: dict[str, CellExecutionError] = dataclasses.field(default_factory=dict)

    def render(self) -> str:
        return "\n\n".join(o.render() for o in self.outputs.values())

    def comparison_rows(self) -> list[dict[str, _t.Any]]:
        """Flat (experiment, metric, measured, paper, delta%) rows."""
        rows = []
        for eid, out in self.outputs.items():
            for metric, measured, ref in out.comparisons:
                delta = 100.0 * (measured - ref) / ref if ref else float("nan")
                rows.append({
                    "experiment": eid,
                    "metric": metric,
                    "measured": measured,
                    "paper": ref,
                    "delta_pct": delta,
                })
        return rows

    # -- export ----------------------------------------------------------
    def write_json(self, path: str | pathlib.Path) -> None:
        """Comparison rows as JSON."""
        pathlib.Path(path).write_text(
            json.dumps(self.comparison_rows(), indent=2) + "\n"
        )

    def write_csv(self, path: str | pathlib.Path) -> None:
        """Comparison rows as CSV."""
        rows = self.comparison_rows()
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(
                fh, fieldnames=["experiment", "metric", "measured", "paper", "delta_pct"]
            )
            writer.writeheader()
            writer.writerows(rows)

    def write_text(self, path: str | pathlib.Path) -> None:
        """The full human-readable report."""
        pathlib.Path(path).write_text(self.render() + "\n")


def _sanitize_summary(reports: _t.Sequence[_t.Any]) -> str:
    """The ``sanitize: ...`` banner over the batch's sanitized worlds,
    in this process and in pool workers."""
    nwarn = sum(len(r.warnings()) for r in reports)
    summary = (
        f"sanitize: clean — {len(reports)} world(s), "
        f"{sum(r.sends_checked for r in reports)} send(s), "
        f"{sum(r.collectives_checked for r in reports)} collective "
        f"op(s) checked, {nwarn} warning(s), 0 errors"
    )
    details = [d.render() for r in reports for d in r.warnings()]
    return "\n".join([summary, *details])


def run_batch(
    experiment_ids: _t.Sequence[str] | None = None,
    config: RunConfig | None = None,
    *,
    progress: _t.Callable[[str], None] | None = None,
    **options: _t.Any,
) -> BatchResult:
    """Run ``experiment_ids`` (default: every registered experiment).

    The batch runs under ``config``, or a :class:`~repro.config.RunConfig`
    built from ``options`` — its fields: ``quick``, ``seed``, ``jobs``,
    ``sim_iters``, ``sanitize``, ``store``.
    The config is opened once (:meth:`~repro.config.RunConfig.open`)
    and the resulting :class:`~repro.config.Run` serves the whole batch
    — one store, one harness tally — and every world takes the run's
    ``sanitize``: inline from the open run, in pool workers through the
    pool initializer.

    The batch is one sweep, then renders
    (:func:`~repro.harness.experiments.run_experiments`).  Every cell
    the requested experiments declare
    (:data:`~repro.harness.experiments.CELLS`) goes into the sweep, in
    presentation order, so simulation happens before the first
    ``progress`` call; each distinct payload is simulated at most once
    (fig4 and tab2 reuse fig3's NPB points, tab3 and fig7 read fig6's UM
    runs).  Then each experiment is rendered in order, after
    ``progress(eid)``, from its own cells' results.  An experiment whose
    cell failed renders the sweep's failure of its first failed cell, so
    a failing payload is attempted once per batch however many
    experiments share it.

    Whatever the strategy, the report renders byte-identically:

    * ``jobs > 1`` runs the batch's cells on one process pool of
      ``min(jobs, cells)`` workers; results merge by cell key.
    * ``store`` serves cells from the content-addressed cell store and
      publishes fresh ones (:mod:`repro.harness.cellstore`); re-running
      an interrupted batch with the same store resumes it.
    * ``sanitize`` observes worlds without changing results; its
      banner (:attr:`BatchResult.sanitize_summary`) is stderr-only and
      counts every world the batch simulated, pool workers' included.
    * an experiment whose cell raised becomes a
      ``FAILED(worker-exception)`` entry (in
      :attr:`BatchResult.failures`) while the rest of the batch runs.

    ``sim_iters`` overrides the NPB steady-loop iteration count.
    """
    if config is None:
        config = RunConfig(**options)
    elif options:
        raise ConfigError(f"pass either config or options, not both: {sorted(options)}")
    ids = list(experiment_ids) if experiment_ids is not None else list(EXPERIMENTS)
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        raise ConfigError(f"unknown experiments: {unknown}")

    with config.open() as run:
        outputs, failures = run_experiments(ids, run, progress)
        sanitize = _sanitize_summary(run.sanitizer_reports) if config.sanitize else None
        summaries = run.summaries()
    return BatchResult(
        outputs, sanitize_summary=sanitize, failures=failures, **summaries,
    )
