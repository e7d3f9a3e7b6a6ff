"""The sweep driver: the one path from a list of cells to ``{key: result}``.

:func:`run_sweep` plans, dispatches and collects every sweep in the
package — :func:`repro.harness.parallel.run_cells` is a thin wrapper
over it.  :func:`repro.harness.runner.run_batch` runs every cell its
experiments declare in one sweep, so a batch has one store plan and
one pool.  One pass runs:

* **plan** — each cell's payload (:func:`run_table_key`) is
  looked up in the run table (:attr:`repro.config.Run.results`): a
  payload an earlier sweep of the run produced is served from it, and a
  payload a previous cell of this sweep asks for makes a *twin* that
  takes that cell's outcome.  Only first occurrences go on: with the
  run's cell store (:mod:`repro.harness.cellstore`) stored results are
  served, the rest are leased to this run, and cells a peer holds a
  lease on are deferred;
* **dispatch** — cells run inline (``jobs <= 1`` or a single pending
  cell) or on a ``ProcessPoolExecutor`` of ``min(jobs, cells)`` workers
  owned by the sweep (all cells submitted at once; under a watchdog at
  most ``jobs`` in flight, topped up as each completes);
* **publish** — each fresh result goes to the store as it arrives;
* **await** — deferred cells are awaited from the peer, or run here if
  the peer gave up;
* **release** — leases of cells that did not publish are dropped;
* **share** — twins take their first occurrence's result (or a failure
  under their own key), and successes join the run table.  Failures are
  never remembered, so a later sweep attempts them again (a batch runs
  every declared cell in one sweep and renders its failures, so there a
  failing payload spends one retry budget per batch).

Each distinct payload is therefore simulated at most once per run,
whichever experiments ask for it.

Failure handling is always on and never changes a clean run:

* a pool worker that dies (``BrokenProcessPool``) kills the pool: the
  cells the pool may have taken (the first ``jobs + 1`` unfinished)
  degrade to inline execution, and the rest go, uncharged, to a fresh
  pool;
* a cell exception becomes a structured
  :class:`~repro.errors.CellExecutionError` on the :class:`SweepReport`
  after ``RunConfig.retries`` extra attempts (a
  :class:`~repro.errors.ReproError` is deterministic and never retried;
  a :class:`~repro.errors.ConfigError` stays fatal);
* with a watchdog (``RunConfig.timeout``) a cell whose worker makes no
  progress is declared hung, the pool is torn down and the cell retried,
  while cells not yet sent re-run uncharged;
* ``KeyboardInterrupt`` and ``SystemExit`` are never retried or
  recorded: they propagate after outstanding cells are cancelled and
  the pool is killed.

Resuming an interrupted run is re-running it with the same ``--store``:
every completed cell was published (fsynced) and is served, so only the
missing cells execute and the report is byte-identical.

The policy and store both come from the explicit
:class:`~repro.config.Run` a sweep is given (``repro run
--jobs/--retries/--timeout/--store`` build it once per run).
"""

from __future__ import annotations

import contextlib
import dataclasses
import traceback
import typing as _t
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

from repro.config import using, world_options
from repro.errors import CellExecutionError, ConfigError, ReproError
from repro.harness import parallel

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.config import Run, RunConfig
    from repro.harness.parallel import Cell


# ---------------------------------------------------------------------------
# Accounting
# ---------------------------------------------------------------------------

@dataclasses.dataclass(slots=True)
class HarnessStats:
    """Cell tallies for one sweep (or, merged, one whole batch)."""

    ok: int = 0
    retried: int = 0
    degraded: int = 0
    failed: int = 0
    #: Cells that ran in pool workers (not part of the banner): their
    #: worlds' sanitizer/replay/fastcollect reports stay in the worker.
    pooled: int = 0

    def merge(self, other: "HarnessStats") -> None:
        self.ok += other.ok
        self.retried += other.retried
        self.degraded += other.degraded
        self.failed += other.failed
        self.pooled += other.pooled

    def banner(self) -> str:
        """The one-line ``harness: ...`` banner (stderr only)."""
        return (
            f"harness: {self.ok + self.failed} cell(s): {self.ok} ok, "
            f"{self.retried} retried, {self.degraded} degraded, "
            f"{self.failed} failed"
        )


@dataclasses.dataclass(slots=True)
class SweepReport:
    """Outcome of one :func:`run_sweep` call.

    ``results`` holds successful cells and ``failures`` the cells that
    exhausted their attempts, both keyed and ordered by cell; ``retries``
    records the classified cause of every failed attempt per cell —
    bookkeeping that never affects the result payloads.
    """

    results: dict[tuple, _t.Any]
    failures: dict[tuple, CellExecutionError]
    stats: HarnessStats
    retries: dict[tuple, tuple[str, ...]]


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------

@dataclasses.dataclass(slots=True)
class _Task:
    """Mutable per-cell state: one entry in ``causes`` per failed attempt."""

    cell: "Cell"
    causes: list[str] = dataclasses.field(default_factory=list)
    demoted: bool = False


def run_sweep(
    cells: _t.Sequence["Cell"], run: "Run | None" = None, **options: _t.Any
) -> SweepReport:
    """Execute ``cells`` under ``run`` and return a :class:`SweepReport`.

    ``run`` (else one opened from ``RunConfig(**options)``) supplies
    everything: the run table of results its earlier sweeps produced,
    the cell store to plan against, ``jobs`` — cells run inline for
    ``jobs <= 1`` and on a pool of ``min(jobs, cells)`` workers owned by
    this sweep otherwise — the failure policy (``retries``,
    ``timeout``) and the harness tally the sweep's stats merge into.
    Each distinct payload runs at most once per run.  Results merge by
    key in cell order however the cells ran, so every strategy renders
    byte-identical reports.
    """
    with using(run, **options) as run:
        return _run_sweep(list(cells), run)


def _run_sweep(cells: list["Cell"], run: "Run") -> SweepReport:
    from repro.harness.cellstore import MISS

    parallel.check_unique_keys(cells)
    store = run.store
    sweep = _Sweep(run.config, store)
    # Split by payload: served from the run table, twins of an earlier
    # cell of this sweep, and first occurrences (the only ones run).
    firsts: dict[tuple[str, str], "Cell"] = {}
    twins: list[tuple["Cell", "Cell"]] = []
    for c in cells:
        payload = run_table_key(c)
        if payload in run.results:
            sweep.results[c.key] = run.results[payload]
        elif payload in firsts:
            twins.append((c, firsts[payload]))
        else:
            firsts[payload] = c
    try:
        pending, deferred = list(firsts.values()), []
        if store is not None and pending:
            plan = store.plan_cells(pending)
            sweep.results.update(plan.served)
            pending, deferred = plan.to_run, plan.deferred
        tasks = [_Task(c) for c in pending]
        jobs = min(run.config.jobs, len(tasks))
        inline = sweep.dispatch(tasks, jobs) if jobs > 1 else tasks
        pooled = len(tasks) - len(inline)
        for task in inline:
            sweep.run_inline(task)
        for c in deferred:
            value = store.await_peer(c.worker, c.args)
            if value is MISS:
                # The peer gave up (or died): the lease is ours now,
                # run it here.
                tasks.append(_Task(c))
                sweep.run_inline(tasks[-1])
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
            failures[twin.key] = CellExecutionError(
                key=twin.key, worker=err.worker, attempts=err.attempts,
                cause=err.cause, detail=err.detail,
            )
    for payload, c in firsts.items():
        if c.key in sweep.results:
            run.results[payload] = sweep.results[c.key]
    stats = HarnessStats(
        ok=len(sweep.results),
        retried=sum(len(t.causes) > (t.cell.key in failures) for t in tasks),
        degraded=sum(t.demoted for t in tasks),
        failed=len(failures),
        pooled=pooled,
    )
    run.stats.merge(stats)
    return SweepReport(
        results={c.key: sweep.results[c.key] for c in cells if c.key in sweep.results},
        failures={c.key: failures[c.key] for c in cells if c.key in failures},
        stats=stats,
        retries={t.cell.key: tuple(t.causes) for t in tasks if t.causes},
    )


def run_table_key(cell: "Cell") -> tuple[str, str]:
    """A cell's payload as the run table keys it: ``(worker,
    repr(args))``.

    Cell args are primitives, for which ``repr`` is exact and typed
    (``1``, ``1.0`` and ``True`` are three payloads), like the store's
    :func:`~repro.harness.journal.payload_hash`, at a tenth of its cost:
    a batch keys every cell twice, once to run it and once to serve it.
    """
    return cell.worker, repr(cell.args)


class _Sweep:
    """Results, failures and the attempt accounting of one sweep."""

    def __init__(self, config: "RunConfig", store: _t.Any) -> None:
        self.config = config
        self.store = store
        self.results: dict[tuple, _t.Any] = {}
        self.failures: dict[tuple, CellExecutionError] = {}

    def succeed(self, task: _Task, value: _t.Any) -> None:
        self.results[task.cell.key] = value
        if self.store is not None:
            self.store.publish(task.cell.worker, task.cell.args, value)

    def fail(
        self,
        task: _Task,
        cause: str,
        exc: BaseException | None = None,
        detail: str = "",
    ) -> bool:
        """Charge one failed attempt; True when the cell gets another.

        A :class:`~repro.errors.ReproError` is a deterministic simulation
        error that would recur identically, so it is never retried.
        """
        task.causes.append(cause)
        if (
            not isinstance(exc, ReproError)
            and len(task.causes) <= self.config.retries
        ):
            return True
        if exc is not None:
            detail = "".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)
            ).rstrip()
        self.failures[task.cell.key] = CellExecutionError(
            key=task.cell.key,
            worker=task.cell.worker,
            attempts=len(task.causes),
            cause=cause,
            detail=detail,
        )
        return False

    def run_inline(self, task: _Task) -> None:
        """Execute one cell in this process, honouring the retry budget."""
        while True:
            try:
                value = parallel._execute(task.cell)
            except ConfigError:
                raise  # misconfiguration is fatal, never a per-cell failure
            except Exception as exc:
                if self.fail(task, "worker-exception", exc):
                    continue
            else:
                self.succeed(task, value)
            return


    def dispatch(self, tasks: list[_Task], jobs: int) -> list[_Task]:
        """Run ``tasks`` on a ``jobs``-worker pool in rounds; returns the
        demoted ones.

        Each round re-dispatches the cells the previous one retried; a
        round that lost workers (hung or dead) kills its pool, and the
        next round gets a fresh one.  The last pool is shut down at the
        end, and killed if anything propagates.
        """
        demoted: list[_Task] = []
        pool: ProcessPoolExecutor | None = None
        try:
            while tasks:
                if pool is None:
                    # Workers get the world options in force through
                    # initargs, never through the environment.
                    pool = ProcessPoolExecutor(
                        max_workers=jobs, initializer=parallel._pool_worker_init,
                        initargs=(world_options(),),
                    )
                tasks, lost, disrupted = self._round(tasks, pool, jobs)
                demoted += lost
                if disrupted:
                    _kill_pool(pool)
                    pool = None
        except BaseException:
            if pool is not None:
                _kill_pool(pool)
            raise
        if pool is not None:
            pool.shutdown()
        return demoted

    def _round(
        self, tasks: list[_Task], pool: ProcessPoolExecutor, jobs: int
    ) -> tuple[list[_Task], list[_Task], bool]:
        """One dispatch generation: ``(retry, demoted, disrupted)``."""
        timeout = self.config.timeout
        # The pool marks a future RUNNING as soon as it enters its call
        # queue, up to ``jobs + 1`` of them.  Under a watchdog at most
        # ``jobs`` cells are in flight, so a RUNNING cell is executing.
        limit = len(tasks) if timeout is None else jobs
        sent = 0
        order: dict[Future, int] = {}
        not_done: set[Future] = set()
        retry: list[int] = []  # positions in ``tasks``
        broken = hung = False
        try:
            while not broken:
                while sent < len(tasks) and len(not_done) < limit:
                    try:
                        fut = pool.submit(parallel._execute, tasks[sent].cell)
                    except BrokenProcessPool:
                        broken = True
                        break
                    order[fut] = sent
                    not_done.add(fut)
                    sent += 1
                if broken or not not_done:
                    break
                done, not_done = wait(
                    not_done, timeout=timeout, return_when=FIRST_COMPLETED
                )
                if not done:
                    hung = True
                    break
                for fut in sorted(done, key=order.__getitem__):
                    task = tasks[order[fut]]
                    try:
                        value = fut.result()
                    except BrokenProcessPool:
                        broken = True
                        retry.append(order[fut])
                    except ConfigError:
                        raise
                    except Exception as exc:
                        if self.fail(task, "worker-exception", exc):
                            retry.append(order[fut])
                    else:
                        self.succeed(task, value)
        except BaseException:
            for fut in order:
                fut.cancel()
            raise

        left = sorted(not_done, key=order.__getitem__)
        running = {f for f in left if f.running()}
        for fut in left:
            fut.cancel()
        queued = tasks[sent:]  # never sent to the pool
        if broken:
            # A dead worker poisons the whole pool, and the cell that
            # killed it is one a worker had taken.  The pool feeds its
            # call queue in submission order, so only the first
            # ``jobs + 1`` unfinished cells can have been taken: run
            # those inline, and hand the rest, uncharged, to the fresh
            # pool of the next round.  Each broken round demotes at
            # least one cell, so the sweep ends even if every pool dies.
            unfinished = [
                tasks[i] for i in sorted(retry + [order[f] for f in left])
            ] + queued
            lost = unfinished[:jobs + 1]
            for task in lost:
                task.demoted = True
            return unfinished[jobs + 1:], lost, True
        if hung and not running:
            # Nothing even started inside a full watchdog window: the
            # pool itself is stalled, so finish the sweep inline.
            lost = [tasks[order[f]] for f in left] + queued
            for task in lost:
                task.demoted = True
            return [tasks[i] for i in retry], lost, True
        for fut in left:
            task = tasks[order[fut]]
            if fut not in running:
                retry.append(order[fut])  # never started: uncharged
            elif self.fail(
                task, "timeout",
                detail=f"no completion within the {timeout:g}s watchdog window",
            ):
                retry.append(order[fut])
        return [tasks[i] for i in retry] + queued, [], hung


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Hard teardown that never waits on hung or dead workers: cancel
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
