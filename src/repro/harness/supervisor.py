"""The sweep driver: the one path from a list of cells to ``{key: result}``.

:func:`run_cells` plans, dispatches and collects every sweep in the
package.  A batch (:func:`repro.harness.runner.run_batch`) is one
sweep: every cell its experiments declare, so it has one store plan
and one pool.  One pass runs:

* **plan** — a cell whose payload ``(worker, repr(args))`` an earlier
  cell of the sweep asks for is a *twin* that takes that cell's
  outcome.  Only first occurrences go on: with the run's cell store
  (:mod:`repro.harness.cellstore`) stored results are served, the rest
  are leased to this run, and cells a peer holds a lease on are
  deferred;
* **dispatch** — cells run inline (``jobs <= 1`` or a single pending
  cell) or on a ``ProcessPoolExecutor`` of ``min(jobs, cells)`` workers
  owned by the sweep (all cells submitted at once);
* **publish** — each fresh result goes to the store as it arrives;
* **await** — deferred cells are awaited from the peer, or run here if
  the peer gave up;
* **release** — leases of cells that did not publish are dropped;
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
missing cells execute and the report is byte-identical.

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

from repro.config import using, world_options
from repro.errors import CellExecutionError, ConfigError
from repro.harness import parallel

if _t.TYPE_CHECKING:  # pragma: no cover
    from concurrent.futures import Future
    from concurrent.futures.process import ProcessPoolExecutor

    from repro.config import Run
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
    #: Cells that ran in pool workers (not part of the banner): their
    #: worlds' sanitizer reports stay in the worker.
    pooled: int = 0

    def merge(self, other: "HarnessStats") -> None:
        self.ok += other.ok
        self.degraded += other.degraded
        self.failed += other.failed
        self.pooled += other.pooled

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
    from repro.harness.cellstore import MISS

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
    try:
        pending, deferred = list(firsts.values()), []
        if store is not None and pending:
            plan = store.plan_cells(pending)
            sweep.results.update(plan.served)
            pending, deferred = plan.to_run, plan.deferred
        jobs = min(run.config.jobs, len(pending))
        demoted = sweep.dispatch(pending, jobs) if jobs > 1 else []
        inline = demoted if jobs > 1 else pending
        for c in inline:
            sweep.run_inline(c)
        for c in deferred:
            value = store.await_peer(c.worker, c.args)
            if value is MISS:
                # The peer gave up (or died): the lease is ours now,
                # run it here.
                sweep.run_inline(c)
            else:
                sweep.results[c.key] = value
    finally:
        if store is not None:
            # Published cells already dropped their leases; what is left
            # covers failed or aborted cells — free them so peers stop
            # waiting and compute those cells themselves.
            store.release_leases()

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
        pooled=len(pending) - len(inline),
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

    def succeed(self, cell: "Cell", value: _t.Any) -> None:
        self.results[cell.key] = value
        if self.store is not None:
            self.store.publish(cell.worker, cell.args, value)

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

    def dispatch(self, cells: list["Cell"], jobs: int) -> list["Cell"]:
        """Run ``cells`` on a ``jobs``-worker pool; returns the demoted
        ones.

        A pool that breaks is killed, and the cells it still owed past
        the demoted ones go to a fresh pool.  The last pool is shut
        down at the end, and killed if anything propagates.
        """
        from concurrent.futures.process import ProcessPoolExecutor

        import numpy  # noqa: F401  (imported once here, inherited by the workers)

        demoted: list["Cell"] = []
        while cells:
            # Workers get the world options in force through initargs,
            # never through the environment.
            pool = ProcessPoolExecutor(
                max_workers=jobs, initializer=parallel._pool_worker_init,
                initargs=(world_options(),),
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
                    fut = pool.submit(parallel._execute, cell)
                except BrokenProcessPool:
                    broken = True
                    break
                order[fut] = i
            not_done = set(order)
            while not broken and not_done:
                done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                for fut in sorted(done, key=order.__getitem__):
                    try:
                        value = fut.result()
                    except BrokenProcessPool:
                        broken = True
                        owed.append(order[fut])
                    except ConfigError:
                        raise
                    except Exception as exc:
                        self.fail(cells[order[fut]], exc)
                    else:
                        self.succeed(cells[order[fut]], value)
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
