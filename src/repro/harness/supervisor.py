"""The sweep driver: the one path from a list of cells to ``{key: result}``.

:func:`run_cells` plans, dispatches and collects every sweep in the
package.  A batch (:func:`repro.harness.runner.run_batch`) is one
sweep: every cell its experiments declare, so it has one store plan
and one pool.  One pass runs:

* **plan** — a cell whose payload ``(worker, repr(args))`` an earlier
  cell of the sweep asks for is a *twin* that takes that cell's
  outcome.  Only first occurrences go on: with the run's cell store
  (:mod:`repro.harness.cellstore`) stored results are served and the
  rest run;
* **dispatch** — cells run inline (``jobs <= 1`` or a single pending
  cell) or on a ``ProcessPoolExecutor`` of ``min(jobs, cells)`` workers
  owned by the sweep (all cells submitted at once);
* **publish** — each fresh result goes to the store as it arrives;
* **share** — twins take their first occurrence's result, or a failure
  under their own key.

Each distinct payload is therefore simulated at most once per sweep,
whichever experiments ask for it, and a failing payload is attempted
once.

A cell is a deterministic function of its arguments, so it runs at
most once: a cell that raised would raise the same way again.  Failure
handling covers what can really go wrong and never changes a clean run:

* a pool worker that dies (``BrokenProcessPool``) kills the pool: the
  cells the pool may have taken (the first ``jobs + 1`` unfinished)
  degrade to inline execution, and the rest go to a fresh pool;
* a cell exception becomes a structured
  :class:`~repro.errors.CellExecutionError` on the :class:`SweepReport`
  (a :class:`~repro.errors.ConfigError` stays fatal);
* ``KeyboardInterrupt`` and ``SystemExit`` are never recorded: they
  propagate after outstanding cells are cancelled and the pool is
  killed.

Resuming an interrupted run is re-running it with the same ``--store``:
every completed cell was published (fsynced) and is served, so only the
missing cells execute and the report is byte-identical.  Two runs that
share a store at the same time do not wait for each other: each runs
the cells it misses, so a cell both miss runs twice and is appended
twice, as the same record.

``jobs`` and the store both come from the explicit
:class:`~repro.config.Run` a sweep is given (``repro run
--jobs/--store`` build it once per run).

The pool machinery (``concurrent.futures`` and the ``multiprocessing``
modules under it) is imported by the first :meth:`_Sweep.dispatch`,
not with this module: an inline run and a run served wholly from the
store start no pool, so they never pay its import.  Before the first
pool forks, ``dispatch`` imports numpy, which every cell that
simulates needs, so the workers inherit it instead of each importing
it again.
"""

from __future__ import annotations

import contextlib
import dataclasses
import traceback
import typing as _t

from repro.config import collect_sanitizer_report, using
from repro.errors import CellExecutionError, ConfigError
from repro.harness import parallel

if _t.TYPE_CHECKING:  # pragma: no cover
    from concurrent.futures import Future
    from concurrent.futures.process import ProcessPoolExecutor

    from repro.config import Run, RunConfig
    from repro.harness.parallel import Cell


# ---------------------------------------------------------------------------
# Accounting
# ---------------------------------------------------------------------------

@dataclasses.dataclass(slots=True)
class HarnessStats:
    """Cell tallies for one sweep (or, merged, one whole batch)."""

    ok: int = 0
    degraded: int = 0
    failed: int = 0

    def merge(self, other: "HarnessStats") -> None:
        self.ok += other.ok
        self.degraded += other.degraded
        self.failed += other.failed

    def banner(self) -> str | None:
        """The one-line ``harness: ...`` banner (stderr only), or
        ``None`` for a clean run: no cell degraded or failed."""
        if not (self.degraded or self.failed):
            return None
        return (
            f"harness: {self.ok + self.failed} cell(s): {self.ok} ok, "
            f"{self.degraded} degraded, {self.failed} failed"
        )


@dataclasses.dataclass(slots=True)
class SweepReport:
    """Outcome of one :func:`run_cells` call.

    ``results`` holds successful cells and ``failures`` the cells that
    raised, both keyed and ordered by cell.
    """

    results: dict[tuple, _t.Any]
    failures: dict[tuple, CellExecutionError]
    stats: HarnessStats


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------

def run_cells(
    cells: _t.Sequence["Cell"], run: "Run | None" = None, **options: _t.Any
) -> SweepReport:
    """Execute ``cells`` under ``run`` and return a :class:`SweepReport`.

    ``run`` (else one opened from ``RunConfig(**options)``) supplies
    the cell store to plan against, ``jobs`` — cells run inline for
    ``jobs <= 1`` and on a pool of ``min(jobs, cells)`` workers owned by
    this sweep otherwise — and the harness tally the sweep's stats merge
    into.  Results merge by key in cell order however the cells ran, so
    every strategy renders byte-identical reports.
    """
    with using(run, **options) as run:
        return _run_cells(list(cells), run)


def _run_cells(cells: list["Cell"], run: "Run") -> SweepReport:
    parallel.check_unique_keys(cells)
    store = run.store
    sweep = _Sweep(store)
    # Split by payload: twins of an earlier cell of this sweep, and
    # first occurrences (the only ones run).  Cell args are primitives,
    # for which ``repr`` is exact and typed (``1``, ``1.0`` and ``True``
    # are three payloads).
    firsts: dict[tuple[str, str], "Cell"] = {}
    twins: list[tuple["Cell", "Cell"]] = []
    for c in cells:
        first = firsts.setdefault((c.worker, repr(c.args)), c)
        if first is not c:
            twins.append((c, first))
    pending = list(firsts.values())
    if store is not None and pending:
        plan = store.plan_cells(pending)
        sweep.results.update(plan.served)
        sweep.addresses = plan.addresses
        pending = plan.to_run
    jobs = min(run.config.jobs, len(pending))
    demoted = sweep.dispatch(pending, jobs, run.config) if jobs > 1 else []
    inline = demoted if jobs > 1 else pending
    for c in inline:
        sweep.run_inline(c)

    failures = sweep.failures
    for twin, first in twins:
        if first.key in sweep.results:
            sweep.results[twin.key] = sweep.results[first.key]
        else:
            err = failures[first.key]
            failures[twin.key] = CellExecutionError(twin.key, err.worker, err.detail)
    stats = HarnessStats(
        ok=len(sweep.results),
        degraded=len(demoted),
        failed=len(failures),
    )
    run.stats.merge(stats)
    return SweepReport(
        results={c.key: sweep.results[c.key] for c in cells if c.key in sweep.results},
        failures={c.key: failures[c.key] for c in cells if c.key in failures},
        stats=stats,
    )


class _Sweep:
    """Results and failures of one sweep."""

    def __init__(self, store: _t.Any) -> None:
        self.store = store
        self.results: dict[tuple, _t.Any] = {}
        self.failures: dict[tuple, CellExecutionError] = {}
        #: Sanitizer reports of the worlds of cells run in pool workers.
        self.reports: dict[tuple, list] = {}
        #: The store address of each cell to run, from the sweep's plan.
        self.addresses: dict[tuple, _t.Any] = {}

    def succeed(self, cell: "Cell", value: _t.Any) -> None:
        self.results[cell.key] = value
        if self.store is not None:
            self.store.publish(cell.worker, cell.args, value, self.addresses[cell.key])

    def fail(self, cell: "Cell", exc: Exception) -> None:
        """Record the exception a cell raised as its failure."""
        detail = "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        ).rstrip()
        self.failures[cell.key] = CellExecutionError(cell.key, cell.worker, detail)

    def run_inline(self, cell: "Cell") -> None:
        """Execute one cell in this process."""
        try:
            value = parallel._execute(cell)
        except ConfigError:
            raise  # misconfiguration is fatal, never a per-cell failure
        except Exception as exc:
            self.fail(cell, exc)
        else:
            self.succeed(cell, value)

    def dispatch(
        self, cells: list["Cell"], jobs: int, config: "RunConfig"
    ) -> list["Cell"]:
        """Run ``cells`` on a ``jobs``-worker pool whose workers run
        under ``config``; returns the demoted ones.

        A pool that breaks is killed, and the cells it still owed past
        the demoted ones go to a fresh pool.  The last pool is shut
        down at the end, and killed if anything propagates.  The pooled
        cells' sanitizer reports go to this process's open runs, in cell
        order.
        """
        from concurrent.futures.process import ProcessPoolExecutor

        import numpy  # noqa: F401  (imported once here, inherited by the workers)

        demoted: list["Cell"] = []
        ordered = cells
        while cells:
            # Workers get the run's config through initargs, never
            # through the environment.
            pool = ProcessPoolExecutor(
                max_workers=jobs, initializer=parallel._pool_worker_init,
                initargs=(config,),
            )
            try:
                cells, lost = self._round(cells, pool, jobs)
            except BaseException:
                _kill_pool(pool)
                raise
            if lost:
                demoted += lost
                _kill_pool(pool)
            else:
                pool.shutdown()
        for cell in ordered:
            for report in self.reports.pop(cell.key, ()):
                collect_sanitizer_report(report)
        return demoted

    def _round(
        self, cells: list["Cell"], pool: ProcessPoolExecutor, jobs: int
    ) -> tuple[list["Cell"], list["Cell"]]:
        """One pool's dispatch: ``(rest, demoted)``, both empty unless the
        pool broke."""
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        order: dict[Future, int] = {}
        not_done: set[Future] = set()
        owed: list[int] = []  # positions in ``cells`` of broken futures
        broken = False
        try:
            for i, cell in enumerate(cells):
                try:
                    fut = pool.submit(parallel._execute_pooled, cell)
                except BrokenProcessPool:
                    broken = True
                    break
                order[fut] = i
            not_done = set(order)
            while not broken and not_done:
                done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                for fut in sorted(done, key=order.__getitem__):
                    try:
                        value, reports = fut.result()
                    except BrokenProcessPool:
                        broken = True
                        owed.append(order[fut])
                    except ConfigError:
                        raise
                    except Exception as exc:
                        self.fail(cells[order[fut]], exc)
                    else:
                        self.succeed(cells[order[fut]], value)
                        self.reports[cells[order[fut]].key] = reports
        except BaseException:
            for fut in order:
                fut.cancel()
            raise
        if not broken:
            return [], []
        # A dead worker poisons the whole pool, and the cell that killed
        # it is one a worker had taken.  The pool feeds its call queue
        # in submission order, so only the first ``jobs + 1`` unfinished
        # cells can have been taken: run those inline, and hand the rest
        # to the fresh pool of the next round.  Each broken round
        # demotes at least one cell, so the sweep ends even if every
        # pool dies.
        for fut in not_done:
            fut.cancel()
        unfinished = [
            cells[i] for i in sorted(owed + [order[f] for f in not_done])
        ] + cells[len(order):]
        return unfinished[jobs + 1:], unfinished[:jobs + 1]


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Hard teardown that never waits on dead workers: cancel
    everything still queued, then terminate and join the workers."""
    # ``shutdown`` forgets the worker processes, so take them first.
    procs = list((pool._processes or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        with contextlib.suppress(Exception):
            proc.terminate()
    for proc in procs:
        with contextlib.suppress(Exception):
            proc.join(timeout=5.0)
