"""The sweep driver: the one path from a list of cells to ``{key: result}``.

:func:`run_sweep` plans, dispatches and collects every sweep in the
package — :func:`repro.harness.parallel.run_cells` is a thin wrapper
over it, and ``repro faults sweep`` calls it directly for per-cell
failures.  One pass runs:

* **plan** — with the run's cell store (:mod:`repro.harness.cellstore`)
  stored results are served, the rest are leased to this run, and cells
  a peer holds a lease on are deferred;
* **dispatch** — cells run inline (``jobs <= 1`` and no backend) or
  through the run's :class:`~repro.harness.executor.CellExecutor`
  (``submit_many`` normally, per-cell ``submit`` under a watchdog);
* **publish** — each fresh result goes to the store as it arrives;
* **await** — deferred cells are awaited from the peer, or run here if
  the peer gave up;
* **release** — leases of cells that did not publish are dropped.

Failure handling is always on and never changes a clean run:

* a pool worker that dies (``BrokenProcessPool``) degrades its cells to
  inline execution and recycles the backend;
* a cell exception becomes a structured
  :class:`~repro.errors.CellExecutionError` on the :class:`SweepReport`
  after ``RunConfig.retries`` extra attempts (a
  :class:`~repro.errors.ReproError` is deterministic and never retried;
  a :class:`~repro.errors.ConfigError` stays fatal);
* with a watchdog (``RunConfig.timeout``) a cell whose worker makes no
  progress is declared hung, the pool is torn down and the cell retried,
  while cells merely queued behind it re-run uncharged;
* ``KeyboardInterrupt`` and ``SystemExit`` are never retried or
  recorded: they propagate after outstanding cells are cancelled and an
  owned pool is killed.

Resuming an interrupted run is re-running it with the same ``--store``:
every completed cell was published (fsynced) and is served, so only the
missing cells execute and the report is byte-identical.

The policy, store and executor all come from the explicit
:class:`~repro.config.Run` a sweep is given (``repro run
--retries/--timeout/--store/--backend`` build it once per run).
"""

from __future__ import annotations

import dataclasses
import traceback
import typing as _t
from concurrent.futures import FIRST_COMPLETED, Future, wait

from repro.config import using
from repro.errors import CellExecutionError, ConfigError, ReproError
from repro.harness import executor as _executor
from repro.harness.executor import WORKER_LOSS_ERRORS, CellExecutor

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
    everything: the cell store to plan against, the executor to dispatch
    through — without one, cells run inline for ``jobs <= 1`` and on a
    pool of ``min(jobs, cells)`` workers owned by this sweep otherwise —
    the failure policy (``retries``, ``timeout``) and the harness tally
    the sweep's stats merge into.  Results merge by key in cell order
    whatever the backend, so every strategy renders byte-identical
    reports.
    """
    with using(run, **options) as run:
        return _run_sweep(list(cells), run)


def _run_sweep(cells: list["Cell"], run: "Run") -> SweepReport:
    from repro.harness.cellstore import MISS
    from repro.harness.parallel import check_unique_keys

    check_unique_keys(cells)
    store = run.store
    sweep = _Sweep(run.config, store)
    pooled = 0
    try:
        pending, deferred = cells, []
        if store is not None:
            plan = store.plan_cells(cells)
            sweep.results.update(plan.served)
            pending, deferred = plan.to_run, plan.deferred
        tasks = [_Task(c) for c in pending]
        executor, owned = run.executor, False
        if executor is None and run.config.jobs > 1 and len(tasks) > 1:
            executor = _executor.LocalPoolExecutor(min(run.config.jobs, len(tasks)))
            owned = True
        inline = tasks if executor is None else sweep.dispatch(tasks, executor, owned)
        if executor is not None and executor.parallel:
            pooled = len(tasks) - len(inline)
        for task in inline:
            sweep.run_inline(task)
        for c in deferred:
            value = store.await_peer(c.worker, c.args)
            if value is MISS:
                # The peer gave up (or died), or our own same-address
                # sibling failed: the lease is ours now, run it here.
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
        from repro.harness.parallel import _execute

        while True:
            try:
                value = _execute(task.cell)
            except ConfigError:
                raise  # misconfiguration is fatal, never a per-cell failure
            except Exception as exc:
                if self.fail(task, "worker-exception", exc):
                    continue
            else:
                self.succeed(task, value)
            return

    def dispatch(
        self, tasks: list[_Task], executor: CellExecutor, owned: bool
    ) -> list[_Task]:
        """Run ``tasks`` on ``executor`` in rounds; returns the demoted ones.

        Each round re-dispatches the cells the previous one retried; a
        round that lost workers (hung or dead) tears the backend down
        hard first — a local pool rebuilds lazily for the next round and
        the rest of the batch.  An owned executor is shut down at the
        end, and killed if anything propagates.
        """
        demoted: list[_Task] = []
        try:
            while tasks:
                tasks, lost, disrupted = self._round(tasks, executor)
                demoted += lost
                if disrupted:
                    executor.shutdown(kill=True)
        except BaseException:
            if owned:
                executor.shutdown(kill=True)
            raise
        if owned:
            executor.shutdown()
        return demoted

    def _round(
        self, tasks: list[_Task], executor: CellExecutor
    ) -> tuple[list[_Task], list[_Task], bool]:
        """One dispatch generation: ``(retry, demoted, disrupted)``."""
        timeout = self.config.timeout
        try:
            if timeout is None:
                futures = executor.submit_many([t.cell for t in tasks])
            else:
                # The watchdog needs per-cell completion granularity.
                futures = [executor.submit(t.cell) for t in tasks]
        except WORKER_LOSS_ERRORS:
            for task in tasks:
                task.demoted = True
            return [], tasks, True
        order = {f: i for i, f in enumerate(futures)}
        retry: list[_Task] = []
        not_done: set[Future] = set(futures)
        broken = hung = False
        try:
            while not_done and not broken:
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
                    except WORKER_LOSS_ERRORS:
                        broken = True
                        retry.append(task)
                    except ConfigError:
                        raise
                    except Exception as exc:
                        if self.fail(task, "worker-exception", exc):
                            retry.append(task)
                    else:
                        self.succeed(task, value)
        except BaseException:
            for fut in futures:
                fut.cancel()
            raise

        left = sorted(not_done, key=order.__getitem__)
        running = {f for f in left if f.running()}
        for fut in left:
            fut.cancel()
        if broken:
            # A dead worker poisons the whole pool: run everything it
            # still owed inline instead of gambling on fresh workers.
            lost = retry + [tasks[order[f]] for f in left]
            for task in lost:
                task.demoted = True
            return [], lost, True
        if hung and not running:
            # Nothing even started inside a full watchdog window: the
            # pool itself is stalled, so finish the sweep inline.
            lost = [tasks[order[f]] for f in left]
            for task in lost:
                task.demoted = True
            return retry, lost, True
        for fut in left:
            task = tasks[order[fut]]
            if fut not in running:
                retry.append(task)  # queued behind a hung cell: uncharged
            elif self.fail(
                task, "timeout",
                detail=f"no completion within the {timeout:g}s watchdog window",
            ):
                retry.append(task)
        return retry, [], hung
