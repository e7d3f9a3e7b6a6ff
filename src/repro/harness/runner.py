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

from repro.errors import CellExecutionError, ConfigError
from repro.harness.experiments import EXPERIMENTS, ExperimentOutput, run_experiment

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.harness.supervisor import SupervisorPolicy


@dataclasses.dataclass(slots=True)
class BatchResult:
    """All outputs of one harness batch."""

    outputs: dict[str, ExperimentOutput]
    #: One-line MPI-sanitizer summary (None when the batch ran unsanitized).
    sanitize_summary: str | None = None
    #: Canonical fault-schedule spec the batch ran under (None: fault-free).
    faults_spec: str | None = None
    #: One-line memo/replay/fastcollect banner (None unless ``replay=True``
    #: or ``fastcollect=True`` was asked).
    perf_summary: str | None = None
    #: One-line ``harness: ...`` retry/degrade banner (None unless the
    #: batch ran with an explicit ``supervisor=`` policy).  Deliberately
    #: *not* part of :meth:`render` — its retry and degrade tallies vary
    #: between a run that lost a worker and a clean one, and the rendered
    #: report must stay byte-identical across both.  The CLI prints it
    #: to stderr.
    harness_summary: str | None = None
    #: One-line ``store: ...`` cell-store banner (None when the batch ran
    #: without a store).  Also stderr-only and absent from
    #: :meth:`render`: its served/executed tallies differ between a
    #: cold-store and a warm-store run, and both must render
    #: byte-identical reports.
    store_summary: str | None = None
    #: One-line ``executor: ...`` dispatch-backend banner (None unless the
    #: batch ran with an explicit ``backend=``).  Stderr-only like the
    #: harness and store banners: dispatch tallies are scheduling detail,
    #: and every backend must render byte-identical reports.
    executor_summary: str | None = None
    #: Experiments whose sweep cells ultimately failed, by experiment id.
    #: Their outputs render as explicit ``FAILED(<cause>)`` entries and
    #: the CLI exits 3 ("partial") when this is non-empty.
    failures: dict[str, CellExecutionError] = dataclasses.field(default_factory=dict)

    def render(self) -> str:
        body = "\n\n".join(o.render() for o in self.outputs.values())
        if self.faults_spec is not None:
            body += f"\n\n[faults: {self.faults_spec}]"
        if self.sanitize_summary is not None:
            body += f"\n\n[{self.sanitize_summary}]"
        if self.perf_summary is not None:
            body += f"\n\n[{self.perf_summary}]"
        return body

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


def _failed_output(eid: str, err: CellExecutionError) -> ExperimentOutput:
    """Render an experiment whose cells ultimately failed as an explicit
    ``FAILED(<cause>)`` entry instead of dying mid-batch."""
    first_line = str(err).splitlines()[0]
    return ExperimentOutput(
        experiment_id=eid,
        title=f"FAILED({err.cause})",
        data={"error": str(err), "cell_key": err.key, "attempts": err.attempts},
        text=f"FAILED({err.cause}): {first_line}",
    )


def run_batch(
    experiment_ids: _t.Sequence[str] | None = None,
    *,
    quick: bool = True,
    seed: int = 0,
    jobs: int = 1,
    sanitize: bool = False,
    faults: str | None = None,
    replay: bool | None = None,
    fastcollect: bool | None = None,
    sim_iters: int | None = None,
    supervisor: "SupervisorPolicy | None" = None,
    store: "str | pathlib.Path | None" = None,
    backend: str | None = None,
    progress: _t.Callable[[str], None] | None = None,
) -> BatchResult:
    """Run ``experiment_ids`` (default: every registered experiment).

    ``jobs > 1`` parallelises each experiment's independent sweep cells
    over a process pool; results are merged by cell key, so the batch
    renders byte-identically to a serial run at the same seed.

    ``sanitize=True`` runs every simulated world in the batch under the
    MPI sanitizer (:mod:`repro.analysis.sanitizer`): a correctness
    violation aborts the batch with a
    :class:`~repro.errors.SanitizerError` (raised in whichever process
    the cell ran), and a clean batch carries a one-line summary of what
    was checked.  Sanitizing never changes results — the checks observe
    the simulation without scheduling events.

    ``faults`` installs a fault schedule (a spec string, see
    :mod:`repro.faults.schedule`) for every simulated world in the
    batch, exported through ``REPRO_FAULTS`` so pool workers inherit the
    very same timeline.

    ``replay`` forces steady-state iteration replay on (``True``, which
    also adds a ``[perf: ...]`` banner) or off (``False``) for every
    world, exported through ``REPRO_REPLAY``; the default ``None``
    leaves the environment's setting in charge and prints no banner.
    Replay is a pure fast-forward optimization — worlds it cannot prove
    safe fall back to full simulation, so results never change.

    ``fastcollect`` does the same for the analytic collective
    fast-forward (:mod:`repro.perf.fastcollect`), exported through
    ``REPRO_FASTCOLLECT``: ``True`` adds its counters to the
    ``[perf: ...]`` banner, worlds it cannot prove safe fall back to the
    per-operation collective path with a recorded reason, and results
    never change.

    ``sim_iters`` overrides the NPB steady-loop iteration count for
    every NPB cell in the batch (the knob that makes replay worthwhile:
    large counts amortise to the cost of the first few iterations).

    Every sweep runs through the one driver
    (:mod:`repro.harness.supervisor`): the cells of a dead pool worker
    degrade to inline execution, and an experiment whose cells
    ultimately fail becomes an explicit ``FAILED(<cause>)`` entry
    (collected in :attr:`BatchResult.failures`) while the rest of the
    batch keeps running.  ``supervisor`` replaces the default policy (no
    retries, no watchdog) with a
    :class:`~repro.harness.supervisor.SupervisorPolicy` for the whole
    batch and puts its one-line banner in
    :attr:`BatchResult.harness_summary`; a clean run renders
    byte-identically either way.

    ``store`` activates the content-addressed global cell store
    (:mod:`repro.harness.cellstore`) rooted at that path for the whole
    batch: every sweep cell is first looked up by content address —
    worker, encoded args, current code fingerprint — and served without
    executing when present; fresh results are published back.  A
    warm-store batch executes zero cell workers and still renders
    byte-identically to a cold one; the ``store: ...`` banner lands in
    :attr:`BatchResult.store_summary` (stderr-only, like the harness
    banner).  The store is also the resume path: re-running an
    interrupted batch with the same ``store`` serves every cell it
    completed and executes only the rest.  When several runs share one
    store directory, sweep dispatch is store-aware: each run leases the
    cells it will compute and awaits cells a peer holds, so no cell is
    ever computed twice.

    ``backend`` schedules every sweep cell through an explicit
    local :class:`~repro.harness.executor.CellExecutor` backend, given
    as a ``--backend`` spec string (``serial`` | ``pool[:chunk=K|auto]``
    | ``chunked``, see :func:`~repro.harness.executor.make_executor` and
    ``docs/distributed.md``).  The backend is dispatch only — results
    always merge by cell key in cell order — so every backend renders a
    byte-identical report; its one-line banner lands in
    :attr:`BatchResult.executor_summary` (stderr-only).
    """
    ids = list(experiment_ids) if experiment_ids is not None else list(EXPERIMENTS)
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        raise ConfigError(f"unknown experiments: {unknown}")
    if sim_iters is not None and sim_iters < 1:
        raise ConfigError(f"sim_iters must be >= 1: {sim_iters}")

    cell_failures: dict[str, CellExecutionError] = {}

    def _run_all() -> dict[str, ExperimentOutput]:
        outputs: dict[str, ExperimentOutput] = {}
        for eid in ids:
            if progress is not None:
                progress(eid)
            try:
                outputs[eid] = run_experiment(
                    eid, quick=quick, seed=seed, jobs=jobs, sim_iters=sim_iters
                )
            except CellExecutionError as err:
                cell_failures[eid] = err
                outputs[eid] = _failed_output(eid, err)
        return outputs

    def _run_sanitized() -> tuple[dict[str, ExperimentOutput], str]:
        from repro.analysis.sanitizer import sanitize_scope

        with sanitize_scope() as reports:
            outputs = _run_all()
            nwarn = sum(len(r.warnings()) for r in reports)
            summary = (
                f"sanitize: clean — {len(reports)} world(s), "
                f"{sum(r.sends_checked for r in reports)} send(s), "
                f"{sum(r.collectives_checked for r in reports)} collective "
                f"op(s) checked, {nwarn} warning(s), 0 errors"
            )
            if nwarn:
                details = [
                    d.render() for r in reports for d in r.warnings()
                ]
                summary += "\n" + "\n".join(details)
        return outputs, summary

    def _run_batch() -> BatchResult:
        faults_spec: str | None = None
        if faults:
            from repro.faults.schedule import faults_scope

            with faults_scope(faults) as schedule:
                faults_spec = schedule.spec()
                if sanitize:
                    outputs, summary = _run_sanitized()
                    return BatchResult(outputs, sanitize_summary=summary,
                                       faults_spec=faults_spec)
                return BatchResult(_run_all(), faults_spec=faults_spec)

        if not sanitize:
            return BatchResult(_run_all())
        outputs, summary = _run_sanitized()
        return BatchResult(outputs, sanitize_summary=summary)

    def _run_perf() -> BatchResult:
        if replay is None and fastcollect is None:
            return _run_batch()
        import contextlib as _ctx

        from repro.perf.fastcollect import fastcollect_scope
        from repro.perf.replay import perf_banner, replay_scope

        replay_reports = None
        fc_reports = None
        with _ctx.ExitStack() as stack:
            if replay is not None:
                replay_reports = stack.enter_context(replay_scope(replay))
            if fastcollect is not None:
                fc_reports = stack.enter_context(fastcollect_scope(fastcollect))
            result = _run_batch()
        if replay or fastcollect:
            result.perf_summary = perf_banner(
                replay_reports if replay else None,
                fastcollect=fc_reports if fastcollect else None,
            )
        return result

    def _run_supervised_perf() -> BatchResult:
        if supervisor is None:
            return _run_perf()
        from repro.harness.supervisor import supervision_scope

        with supervision_scope(supervisor) as sup:
            result = _run_perf()
        result.harness_summary = sup.banner()
        return result

    def _run_stored() -> BatchResult:
        if store is None:
            return _run_supervised_perf()
        from repro.harness.cellstore import store_scope

        with store_scope(store) as cs:
            result = _run_supervised_perf()
        result.store_summary = cs.banner()
        return result

    if backend is None:
        result = _run_stored()
    else:
        from repro.harness.executor import executor_scope, make_executor

        with executor_scope(make_executor(backend, jobs)) as ex:
            result = _run_stored()
            result.executor_summary = ex.banner()
    result.failures = dict(cell_failures)
    return result
