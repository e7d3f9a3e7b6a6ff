"""Supervised, resumable execution of sweep cells.

Wraps the parallel executor (:func:`repro.harness.parallel.run_cells`)
with the failure-isolation machinery a multi-hour measurement campaign
needs:

* **watchdog timeout** — a cell whose pool worker stops making progress
  past :attr:`SupervisorPolicy.timeout` seconds is declared hung; the
  pool is torn down (hung processes killed) and the cell is retried in a
  fresh pool, while cells that were merely queued behind it are re-run
  without being charged an attempt;
* **bounded retries** — each cell gets at most ``retries`` additional
  attempts, with a deterministic per-cell record of every retry and its
  classified cause (the record never touches the result payload, so a
  retried run still renders byte-identically);
* **graceful degradation** — a ``BrokenProcessPool`` (a worker process
  died) demotes just the affected cells to inline serial re-execution
  instead of aborting the sweep;
* **crash-safe journal/resume** — each completed cell is appended to a
  JSONL journal (:mod:`repro.harness.journal`); resuming from a journal
  skips cells whose key, payload hash and (when known) static code
  fingerprint match, merging journaled results by key so an
  interrupted-and-resumed sweep is byte-identical to an uninterrupted
  one — while an entry recorded by *different code* is re-simulated;
* **global result store** — under an active cell store
  (:mod:`repro.harness.cellstore`, via ``--store``/``REPRO_STORE``)
  cells are first served by content address (worker + encoded args +
  code fingerprint) and fresh results are published back, sharing
  completed work across runs, users and hosts with the same never-stale
  discipline as the journal.

Cells that exhaust their attempts surface as structured
:class:`~repro.errors.CellExecutionError` entries on the returned
:class:`SweepReport` rather than stdlib tracebacks.  Supervising a clean
run never changes its results: cells execute through the very same
worker functions and merge by key in cell order.

Supervision engages three ways: explicitly via
:func:`run_cells_supervised`, batch-wide via :func:`supervision_scope`
(what ``repro run --supervise/--journal/--resume`` uses, with cell keys
namespaced per experiment), or by default via ``REPRO_SUPERVISE=1`` in
the environment.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import os
import pathlib
import traceback
import typing as _t
from concurrent.futures import FIRST_COMPLETED, Future, wait

from repro.errors import CellExecutionError, ConfigError, ReproError
from repro.harness.executor import (
    WORKER_LOSS_ERRORS,
    CellExecutor,
    LocalPoolExecutor,
    active_executor,
)
from repro.harness.journal import (
    RunJournal,
    hash_matches,
    load_journal,
    payload_hash,
)

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.harness.parallel import Cell


# ---------------------------------------------------------------------------
# Policy and accounting
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, slots=True)
class SupervisorPolicy:
    """Knobs for supervised cell execution.

    ``timeout``
        Watchdog window in seconds: if *no* cell completes for this long
        while pool futures are outstanding, the slowest running cells
        are declared hung.  Needs a process pool (``jobs >= 2``) — an
        inline cell cannot be interrupted.  ``None`` disables the
        watchdog.
    ``retries``
        Additional attempts per cell after the first (default 1).
        Exceptions derived from :class:`~repro.errors.ReproError` are
        never retried — a deterministic simulation error recurs
        identically — and :class:`~repro.errors.ConfigError` stays
        fatal.
    ``degrade``
        On pool breakage, re-execute the affected cells inline serially
        (default) instead of charging them attempts in fresh pools.
    ``journal`` / ``resume``
        Paths for the append-only run journal and for resuming from a
        previous one (may be the same file: resumed runs keep
        journaling).
    """

    timeout: float | None = None
    retries: int = 1
    degrade: bool = True
    journal: str | pathlib.Path | None = None
    resume: str | pathlib.Path | None = None


def policy_from_env() -> SupervisorPolicy | None:
    """Default policy from ``REPRO_SUPERVISE`` (``0``/empty/unset: off)."""
    if os.environ.get("REPRO_SUPERVISE", "0").strip().lower() in ("", "0", "false"):
        return None
    return SupervisorPolicy()


@dataclasses.dataclass(slots=True)
class HarnessStats:
    """Cell tallies for one supervised call (or one whole batch)."""

    ok: int = 0
    journal_hits: int = 0
    store_hits: int = 0
    peer_hits: int = 0
    retried: int = 0
    degraded: int = 0
    failed: int = 0

    def merge(self, other: "HarnessStats") -> None:
        self.ok += other.ok
        self.journal_hits += other.journal_hits
        self.store_hits += other.store_hits
        self.peer_hits += other.peer_hits
        self.retried += other.retried
        self.degraded += other.degraded
        self.failed += other.failed

    def banner(self) -> str:
        """The one-line ``harness: ...`` batch banner."""
        text = f"harness: {self.ok + self.failed} cell(s): {self.ok} ok"
        served = []
        if self.journal_hits:
            served.append(f"{self.journal_hits} from journal")
        if self.store_hits:
            served.append(f"{self.store_hits} from store")
        if self.peer_hits:
            served.append(f"{self.peer_hits} from peer executor")
        if served:
            text += f" ({', '.join(served)})"
        text += (
            f", {self.retried} retried, {self.degraded} degraded, "
            f"{self.failed} failed"
        )
        return text


@dataclasses.dataclass(slots=True)
class SweepReport:
    """Outcome of one supervised :func:`run_cells_supervised` call.

    ``results`` holds successful cells and ``failures`` the cells that
    exhausted their attempts, both keyed and ordered by cell; ``retries``
    records the classified cause of every extra attempt per cell —
    seed-stable bookkeeping that never affects the result payloads.
    """

    results: dict[tuple, _t.Any]
    failures: dict[tuple, CellExecutionError]
    stats: HarnessStats
    retries: dict[tuple, tuple[str, ...]]

    def banner(self) -> str:
        return self.stats.banner()


# ---------------------------------------------------------------------------
# Supervision scope (batch-wide policy + journal + aggregated stats)
# ---------------------------------------------------------------------------

class SupervisionScope:
    """One supervised batch: shared policy, journal, resume index, stats.

    Created by :func:`supervision_scope`; every
    :func:`~repro.harness.parallel.run_cells` call inside the scope runs
    supervised, journals into the same file, and accumulates into
    :attr:`stats` (the source of the batch banner).  ``namespace``
    prefixes journal keys so identical cell keys in different
    experiments (e.g. fig1's and fig2's per-platform cells) never
    collide.
    """

    def __init__(self, policy: SupervisorPolicy) -> None:
        self.policy = policy
        self.journal = RunJournal(policy.journal) if policy.journal else None
        self.resume = load_journal(policy.resume) if policy.resume else None
        self.stats = HarnessStats()
        self.namespace = ""

    def banner(self) -> str:
        return self.stats.banner()

    def close(self) -> None:
        if self.journal is not None:
            self.journal.close()


_SCOPE: contextvars.ContextVar[SupervisionScope | None] = contextvars.ContextVar(
    "repro_supervision_scope", default=None
)


def active_scope() -> SupervisionScope | None:
    """The supervision scope currently in force, if any."""
    return _SCOPE.get()


@contextlib.contextmanager
def supervision_scope(
    policy: SupervisorPolicy,
) -> _t.Iterator[SupervisionScope]:
    """Run every ``run_cells`` call in the body supervised under ``policy``."""
    if _SCOPE.get() is not None:
        raise ConfigError("a supervision scope is already active")
    scope = SupervisionScope(policy)
    token = _SCOPE.set(scope)
    try:
        yield scope
    finally:
        _SCOPE.reset(token)
        scope.close()


@contextlib.contextmanager
def cell_namespace(name: str) -> _t.Iterator[None]:
    """Namespace journal keys for the body (no-op outside a scope)."""
    scope = _SCOPE.get()
    if scope is None:
        yield
        return
    prev = scope.namespace
    scope.namespace = name
    try:
        yield
    finally:
        scope.namespace = prev


def supervised_results(
    cells: _t.Sequence["Cell"], jobs: int, executor: CellExecutor | None = None
) -> dict[tuple, _t.Any] | None:
    """The ``run_cells`` supervision hook.

    Executes under the active scope, or under a ``REPRO_SUPERVISE``
    default policy; returns ``None`` when unsupervised so ``run_cells``
    falls through to its plain path.  ``executor`` (an explicit
    ``run_cells`` backend) is honoured under supervision too.  A cell
    that ultimately fails raises its :class:`CellExecutionError` here
    (first in cell order) — the batch runner catches it per experiment.
    """
    scope = _SCOPE.get()
    if scope is not None:
        report = run_cells_supervised(
            cells, jobs=jobs, scope=scope, executor=executor
        )
    else:
        policy = policy_from_env()
        if policy is None:
            return None
        report = run_cells_supervised(
            cells, jobs=jobs, policy=policy, executor=executor
        )
    if report.failures:
        raise next(iter(report.failures.values()))
    return report.results


# ---------------------------------------------------------------------------
# Supervised execution
# ---------------------------------------------------------------------------

@dataclasses.dataclass(slots=True)
class _Task:
    """Mutable per-cell supervision state."""

    cell: "Cell"
    digest: str
    code: str | None = None  # static code fingerprint of the worker
    attempts: int = 0  # failed attempts so far
    causes: list[str] = dataclasses.field(default_factory=list)
    demoted: bool = False


def _code_fingerprint(worker: str, cache: dict[str, str | None]) -> str | None:
    """Static code fingerprint for ``worker``, memoized per call.

    ``None`` when the worker is not statically registered (e.g. defined
    in a test module) — the journal then carries no code identity for
    it, matching pre-v2 behaviour.
    """
    if worker not in cache:
        from repro.analysis.static import worker_fingerprint

        cache[worker] = worker_fingerprint(worker)
    return cache[worker]


def run_cells_supervised(
    cells: _t.Sequence["Cell"],
    *,
    jobs: int = 1,
    policy: SupervisorPolicy | None = None,
    scope: SupervisionScope | None = None,
    namespace: str | None = None,
    executor: CellExecutor | None = None,
) -> SweepReport:
    """Execute ``cells`` under supervision and return a :class:`SweepReport`.

    Pass either an open ``scope`` (shares its journal/resume/stats) or a
    ``policy`` (an ephemeral scope is opened and closed around the
    call).  ``namespace`` overrides the scope's journal-key namespace.
    ``executor`` picks the dispatch backend explicitly; otherwise the
    active :func:`~repro.harness.executor.executor_scope` backend is
    used, falling back to a local pool sized by ``jobs``.  Results merge
    by key in cell order, exactly like plain
    :func:`~repro.harness.parallel.run_cells`.
    """
    own: SupervisionScope | None = None
    if scope is None:
        own = scope = SupervisionScope(policy or SupervisorPolicy())
    try:
        return _run_supervised(cells, jobs, scope, namespace, executor)
    finally:
        if own is not None:
            own.close()


def _run_supervised(
    cells: _t.Sequence["Cell"],
    jobs: int,
    scope: SupervisionScope,
    namespace: str | None,
    executor: CellExecutor | None = None,
) -> SweepReport:
    from repro.harness.parallel import check_unique_keys, resolve_jobs

    cells = list(cells)
    check_unique_keys(cells)
    ns = scope.namespace if namespace is None else namespace
    stats = HarnessStats()
    results: dict[tuple, _t.Any] = {}
    failures: dict[tuple, CellExecutionError] = {}

    # Code fingerprints are only relevant when results are persisted or
    # reused; a plain supervised run skips the static analysis entirely.
    fingerprints: dict[str, str | None] = {}
    want_code = scope.journal is not None or scope.resume is not None

    store = _active_store()
    tasks: list[_Task] = []
    deferred: list["Cell"] = []
    remaining: list[_Task] = []
    for c in cells:
        digest = payload_hash(c.worker, c.args)
        code = _code_fingerprint(c.worker, fingerprints) if want_code else None
        if scope.resume is not None:
            entry = scope.resume.get((ns, c.key))
            if (
                entry is not None
                and hash_matches(entry.payload_hash, digest)
                and entry.worker == c.worker
                and (
                    entry.code_fingerprint is None
                    or code is None
                    or entry.code_fingerprint == code
                )
            ):
                results[c.key] = entry.result
                stats.journal_hits += 1
                continue
        remaining.append(_Task(c, digest, code))
    if store is not None and remaining:
        # One store-aware scheduling pass for the whole sweep: served
        # results land directly, won leases become our tasks, and lost
        # leases — a peer executor sharing this store is computing that
        # cell right now — defer to await_peer after our own dispatch.
        plan = store.plan_cells([t.cell for t in remaining])
        deferred_keys = {c.key for c in plan.deferred}
        for t in remaining:
            if t.cell.key in plan.served:
                results[t.cell.key] = plan.served[t.cell.key]
                stats.store_hits += 1
            elif t.cell.key in deferred_keys:
                deferred.append(t.cell)
            else:
                tasks.append(t)
    else:
        tasks = remaining

    jobs_n = resolve_jobs(jobs)
    backend = executor if executor is not None else active_executor()
    pending = tasks
    inline: list[_Task] = []
    use_pool = (
        backend.parallel
        if backend is not None
        else (jobs_n > 1 and len(pending) > 1)
    )
    try:
        if use_pool and pending:
            owned = backend is None
            exec_ = (
                backend
                if backend is not None
                else LocalPoolExecutor(min(jobs_n, len(pending)))
            )
            try:
                while pending:
                    pending, demoted, disrupted = _pool_round(
                        pending, exec_, scope, ns, results, failures
                    )
                    inline.extend(demoted)
                    if disrupted:
                        # Hung or broken workers: recycle the backend so
                        # the next round (and the rest of the batch)
                        # dispatches onto healthy ones.
                        exec_ = exec_.recycle(kill=True)
            except BaseException:
                if owned:
                    exec_.shutdown(kill=True)
                raise
            else:
                if owned:
                    exec_.shutdown()
        else:
            inline = pending
        for task in inline:
            _run_inline(task, scope, ns, results, failures)
        for c in deferred:
            from repro.harness.cellstore import MISS

            peer_waits = store.peer_waits
            value = store.await_peer(c.worker, c.args)
            if value is not MISS:
                results[c.key] = value
                if store.peer_waits > peer_waits:
                    stats.peer_hits += 1
                else:  # a same-sweep duplicate of one of our own cells
                    stats.store_hits += 1
                continue
            # The peer gave up (or died), or our own duplicate failed:
            # the lease is ours now, run it.
            task = _Task(
                c,
                payload_hash(c.worker, c.args),
                _code_fingerprint(c.worker, fingerprints) if want_code else None,
            )
            tasks.append(task)
            _run_inline(task, scope, ns, results, failures)
    finally:
        if store is not None:
            # Leases for published cells are already gone; what remains
            # covers failed/aborted cells — free them so peers stop
            # waiting and compute those cells themselves.
            store.release_leases()

    for task in tasks:
        if task.demoted:
            stats.degraded += 1
        elif task.causes and (task.cell.key in results or task.attempts >= 2):
            stats.retried += 1
    stats.ok = len(results)
    stats.failed = len(failures)
    scope.stats.merge(stats)
    return SweepReport(
        results={c.key: results[c.key] for c in cells if c.key in results},
        failures={c.key: failures[c.key] for c in cells if c.key in failures},
        stats=stats,
        retries={t.cell.key: tuple(t.causes) for t in tasks if t.causes},
    )


def _active_store() -> "_t.Any | None":
    """The active cell store (late import keeps module load light)."""
    from repro.harness.cellstore import active_store

    return active_store()


def _record_success(
    scope: SupervisionScope,
    ns: str,
    task: _Task,
    value: _t.Any,
    results: dict[tuple, _t.Any],
) -> None:
    results[task.cell.key] = value
    if scope.journal is not None:
        scope.journal.record_cell(
            ns, task.cell.key, task.cell.worker, task.digest, value,
            code=task.code,
        )
    store = _active_store()
    if store is not None:
        store.publish(task.cell.worker, task.cell.args, value)


def _note_retry(
    scope: SupervisionScope, ns: str, task: _Task, cause: str
) -> None:
    task.attempts += 1
    task.causes.append(cause)
    if scope.journal is not None:
        scope.journal.record_event(
            ns, task.cell.key, "retry", cause=cause, attempt=task.attempts
        )


def _cell_error(
    task: _Task,
    cause: str,
    exc: BaseException | None,
    detail: str | None = None,
) -> CellExecutionError:
    if detail is None and exc is not None:
        detail = "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        ).rstrip()
    return CellExecutionError(
        key=task.cell.key,
        worker=task.cell.worker,
        attempts=task.attempts,
        cause=cause,
        detail=detail or "",
    )


def _run_inline(
    task: _Task,
    scope: SupervisionScope,
    ns: str,
    results: dict[tuple, _t.Any],
    failures: dict[tuple, CellExecutionError],
) -> None:
    """Execute one cell in this process, honouring the retry budget.

    No watchdog applies inline — a cell running in the supervising
    process cannot be interrupted — which is exactly why degraded cells
    land here only after the pool path has given up on them.
    """
    from repro.harness.parallel import _execute

    policy = scope.policy
    while True:
        try:
            value = _execute(task.cell)
        except ConfigError:
            raise  # misconfiguration is fatal, never a per-cell failure
        except ReproError as exc:
            # Deterministic simulation error: a retry would recur
            # identically, so fail the cell on the spot.
            task.attempts += 1
            task.causes.append("worker-exception")
            failures[task.cell.key] = _cell_error(task, "worker-exception", exc)
            return
        except BaseException as exc:
            if task.attempts < policy.retries:
                _note_retry(scope, ns, task, "worker-exception")
                continue
            task.attempts += 1
            task.causes.append("worker-exception")
            failures[task.cell.key] = _cell_error(task, "worker-exception", exc)
            return
        else:
            _record_success(scope, ns, task, value, results)
            return


def _pool_round(
    tasks: list[_Task],
    executor: CellExecutor,
    scope: SupervisionScope,
    ns: str,
    results: dict[tuple, _t.Any],
    failures: dict[tuple, CellExecutionError],
) -> tuple[list[_Task], list[_Task], bool]:
    """One dispatch generation over ``tasks`` on ``executor``.

    Returns ``(retry, demoted, disrupted)``: cells to re-dispatch in the
    next round, cells demoted to inline serial execution, and whether
    the backend lost workers (hung or dead) and should be recycled
    before that next round.  Successes and exhausted failures are
    recorded directly.  Cells are submitted one future each — never
    chunked — because the watchdog needs per-cell completion granularity.
    """
    policy = scope.policy
    retry: list[_Task] = []
    demoted: list[_Task] = []
    fut_to_task: dict[Future, _Task] = {}
    broken = hung = False
    try:
        for task in tasks:
            fut_to_task[executor.submit(task.cell)] = task
    except WORKER_LOSS_ERRORS:
        broken = True
        submitted = set(id(t) for t in fut_to_task.values())
        retry.extend(t for t in tasks if id(t) not in submitted)
    not_done: set[Future] = set(fut_to_task)
    while not_done and not broken:
        done, not_done = wait(
            not_done, timeout=policy.timeout, return_when=FIRST_COMPLETED
        )
        if not done:
            hung = True
            break
        for fut in done:
            task = fut_to_task[fut]
            try:
                value = fut.result()
            except WORKER_LOSS_ERRORS:
                broken = True
                retry.append(task)
            except ConfigError:
                raise  # fatal; the caller tears the backend down
            except ReproError as exc:
                task.attempts += 1
                task.causes.append("worker-exception")
                failures[task.cell.key] = _cell_error(task, "worker-exception", exc)
            except BaseException as exc:
                if task.attempts < policy.retries:
                    _note_retry(scope, ns, task, "worker-exception")
                    retry.append(task)
                else:
                    task.attempts += 1
                    task.causes.append("worker-exception")
                    failures[task.cell.key] = _cell_error(
                        task, "worker-exception", exc
                    )
            else:
                _record_success(scope, ns, task, value, results)

    if hung:
        running = [f for f in not_done if f.running()]
        queued = [f for f in not_done if not f.running()]
        if not running:
            # Nothing started inside a full watchdog window: the pool
            # itself is stalled.  Demote everything left so the sweep
            # still makes inline progress.
            for fut in queued:
                fut.cancel()
                task = fut_to_task[fut]
                if policy.degrade:
                    task.demoted = True
                    demoted.append(task)
                else:
                    retry.append(task)
        else:
            for fut in running:
                task = fut_to_task[fut]
                if task.attempts < policy.retries:
                    _note_retry(scope, ns, task, "timeout")
                    retry.append(task)
                else:
                    task.attempts += 1
                    task.causes.append("timeout")
                    failures[task.cell.key] = _cell_error(
                        task,
                        "timeout",
                        None,
                        detail=(
                            "no completion within the "
                            f"{policy.timeout:g}s watchdog window"
                        ),
                    )
            for fut in queued:
                # Queued behind the hung worker: a victim, re-run in the
                # next round without charging an attempt.
                fut.cancel()
                retry.append(fut_to_task[fut])
    elif broken:
        for fut in not_done:
            if not fut.done():
                fut.cancel()
            retry.append(fut_to_task[fut])
        # A dead worker poisons the whole backend; demote the affected
        # cells to inline serial execution instead of gambling on fresh
        # workers (unless degradation is disabled).
        affected, retry = retry, []
        for task in affected:
            if policy.degrade:
                task.demoted = True
                if scope.journal is not None:
                    scope.journal.record_event(
                        ns, task.cell.key, "degrade", cause="worker-death"
                    )
                demoted.append(task)
            elif task.attempts < policy.retries:
                _note_retry(scope, ns, task, "worker-death")
                retry.append(task)
            else:
                task.attempts += 1
                task.causes.append("worker-death")
                failures[task.cell.key] = _cell_error(
                    task, "worker-death", None,
                    detail="pool worker process died",
                )
    return retry, demoted, hung or broken
