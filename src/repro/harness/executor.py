"""Local cell executors: one scheduling interface, serial and pool backends.

Everything that fans sweep cells out — :func:`repro.harness.parallel.run_cells`,
the supervisor's dispatch rounds, the faults sweep, ``run_batch`` — schedules
through the :class:`CellExecutor` interface defined here instead of assuming a
``concurrent.futures.ProcessPoolExecutor``.  A backend only has to turn a
:class:`~repro.harness.parallel.Cell` into a ``concurrent.futures.Future``;
merge-by-key determinism, supervision, journaling and the content-addressed
cell store all layer on top unchanged, so every backend renders byte-identical
reports.

Backends
--------
:class:`SerialExecutor`
    Executes each cell inline at submit time.  The explicit spelling of
    ``--jobs 1`` for harness benchmarking and debugging.
:class:`LocalPoolExecutor`
    The classic process pool, plus *chunked dispatch*: with ``chunk > 1``
    cells are submitted in deterministic batches (one future per chunk
    internally, still one future per cell externally), cutting the
    per-cell IPC/pickling overhead that dominates large sweeps of cheap
    cells.

A pool worker that dies surfaces as ``BrokenProcessPool``; the
supervisor's retry/degrade machinery owns recovery from it.

Activation
----------
``run_cells(..., executor=...)`` takes an explicit backend;
:func:`executor_scope` (what ``repro run --backend SPEC`` uses via
``run_batch(backend=...)``) installs one for a whole batch; and
:func:`make_executor` parses the ``--backend`` spec grammar
(``serial`` | ``pool[:chunk=K|auto]`` | ``chunked``).  See
``docs/distributed.md``.
"""

from __future__ import annotations

import contextlib
import contextvars
import typing as _t
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.errors import ConfigError

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.harness.parallel import Cell


#: Exceptions that mean "the executor lost a worker".
WORKER_LOSS_ERRORS = (BrokenProcessPool,)


def _settle_future(fut: Future, value: _t.Any = None,
                   exc: BaseException | None = None) -> None:
    """Complete a manually managed future, tolerating cancellation."""
    if fut.cancelled():
        return
    try:
        if exc is not None:
            fut.set_exception(exc)
        else:
            fut.set_result(value)
    except Exception:  # InvalidStateError: racing cancel/settle, drop it
        pass


def _mark_running(fut: Future) -> bool:
    """Move a manual future to RUNNING; False when it was cancelled."""
    if fut.cancelled():
        return False
    try:
        return fut.set_running_or_notify_cancel()
    except RuntimeError:
        return not fut.done()


# ---------------------------------------------------------------------------
# The interface
# ---------------------------------------------------------------------------

class CellExecutor:
    """One backend for executing sweep cells.

    The contract is deliberately tiny: :meth:`submit` returns a
    ``concurrent.futures.Future`` for one cell (so ``wait``/
    ``as_completed`` and the supervisor's watchdog work on every
    backend), :meth:`submit_many` may batch, :meth:`recycle` yields the
    executor to use for the next supervised dispatch round after a
    disruption, and :meth:`shutdown` releases the workers.  Executors
    never reorder results — callers always merge by cell key in cell
    order, which is what keeps every backend byte-identical.
    """

    #: Short backend name (also the ``--backend`` spec head).
    kind = "abstract"
    #: Whether cells run outside the submitting thread of control.
    parallel = True

    def submit(self, cell: "Cell") -> Future:
        raise NotImplementedError

    def submit_many(self, cells: _t.Sequence["Cell"]) -> list[Future]:
        """Futures for ``cells``, in cell order (backends may batch)."""
        return [self.submit(c) for c in cells]

    def recycle(self, kill: bool = False) -> "CellExecutor":
        """The executor for the next dispatch round after a disruption.

        ``kill`` means workers may be hung (tear them down hard).  The
        default tears this executor down and hands back ``self``, which
        works for both backends: the local pool rebuilds lazily.
        """
        self.shutdown(kill=kill)
        return self

    def shutdown(self, kill: bool = False) -> None:
        """Release the backend's workers (idempotent).

        ``kill=True`` must not wait on hung or dead workers: cancel
        queued cells, terminate what can be terminated, return.
        """

    def describe(self) -> str:
        return self.kind

    def banner(self) -> str | None:
        """One-line ``executor: ...`` summary (stderr only), or ``None``."""
        return None

    def __enter__(self) -> "CellExecutor":
        return self

    def __exit__(self, exc_type: _t.Any, *_exc: _t.Any) -> None:
        self.shutdown(kill=exc_type is not None)


class SerialExecutor(CellExecutor):
    """Inline execution at submit time — the ``--backend serial`` spelling."""

    kind = "serial"
    parallel = False

    def __init__(self) -> None:
        self.dispatched = 0

    def submit(self, cell: "Cell") -> Future:
        from repro.harness.parallel import _execute

        fut: Future = Future()
        fut.set_running_or_notify_cancel()
        self.dispatched += 1
        try:
            value = _execute(cell)
        except Exception as exc:  # KeyboardInterrupt/SystemExit propagate
            fut.set_exception(exc)
        else:
            fut.set_result(value)
        return fut

    def banner(self) -> str:
        return f"executor: serial: {self.dispatched} cell(s) dispatched"


# ---------------------------------------------------------------------------
# Local process pool (with chunked dispatch)
# ---------------------------------------------------------------------------

def _execute_chunk(cells: _t.Sequence["Cell"]) -> list[tuple[bool, _t.Any]]:
    """Run one deterministic chunk of cells inside a pool worker.

    Each cell's outcome travels back as ``(ok, value-or-exception)`` so
    one raising cell never poisons its chunk-mates — the same pickled
    exception a per-cell future would have carried.
    """
    from repro.harness.parallel import _execute

    out: list[tuple[bool, _t.Any]] = []
    for cell in cells:
        try:
            out.append((True, _execute(cell)))
        except Exception as exc:
            out.append((False, exc))
    return out


def _fan_out_chunk(outs: list[Future], chunk_future: Future) -> None:
    """Spread one finished chunk future over its per-cell futures."""
    try:
        outcomes = chunk_future.result()
    except BaseException as exc:  # BrokenProcessPool kills the whole chunk
        for fut in outs:
            _mark_running(fut)
            _settle_future(fut, exc=exc)
        return
    for fut, (ok, payload) in zip(outs, outcomes):
        _mark_running(fut)
        if ok:
            _settle_future(fut, value=payload)
        else:
            _settle_future(fut, exc=payload)


class LocalPoolExecutor(CellExecutor):
    """The process-pool backend, refactored behind :class:`CellExecutor`.

    ``chunk`` controls dispatch granularity: ``1`` (default) submits one
    pool future per cell — the watchdog-friendly mode supervision uses —
    while ``chunk > 1`` or ``"auto"`` groups cells into deterministic
    batches to amortise IPC and pickling over large sweeps of cheap
    cells (callers still get one future per cell).  The underlying pool
    is built lazily and rebuilt after :meth:`shutdown`, so one instance
    can serve a whole batch and survive supervisor recycling.
    """

    kind = "pool"

    #: ``chunk="auto"``: aim for this many chunks per pool worker.
    AUTO_CHUNKS_PER_WORKER = 4
    #: ``chunk="auto"`` ceiling, so one chunk can never serialise a sweep.
    AUTO_CHUNK_MAX = 64

    def __init__(self, jobs: int | None = None, *,
                 chunk: int | str = 1) -> None:
        from repro.harness.parallel import resolve_jobs

        self.jobs = resolve_jobs(jobs)
        if chunk != "auto" and (not isinstance(chunk, int) or chunk < 1):
            raise ConfigError(f"chunk must be a positive int or 'auto': {chunk!r}")
        self.chunk = chunk
        self.dispatched = 0
        self._pool: ProcessPoolExecutor | None = None

    def describe(self) -> str:
        return f"pool(jobs={self.jobs}, chunk={self.chunk})"

    def banner(self) -> str:
        return (
            f"executor: {self.describe()}: {self.dispatched} cell(s) dispatched"
        )

    # -- pool lifecycle ----------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        from repro.harness.parallel import _pool_worker_init

        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, initializer=_pool_worker_init
            )
        return self._pool

    def shutdown(self, kill: bool = False) -> None:
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if not kill:
            pool.shutdown()
            return
        # Hard teardown: never wait on hung or dead workers, cancel
        # everything still queued, terminate the worker processes.
        pool.shutdown(wait=False, cancel_futures=True)
        procs = getattr(pool, "_processes", None) or {}
        for proc in list(procs.values()):
            with contextlib.suppress(Exception):
                proc.terminate()
        for proc in list(procs.values()):
            with contextlib.suppress(Exception):
                proc.join(timeout=5.0)

    # -- dispatch ----------------------------------------------------------
    def submit(self, cell: "Cell") -> Future:
        from repro.harness.parallel import _execute

        self.dispatched += 1
        return self._ensure_pool().submit(_execute, cell)

    def chunk_size(self, n_cells: int) -> int:
        """The deterministic batch size for an ``n_cells`` sweep."""
        if self.chunk != "auto":
            return int(self.chunk)
        per_worker = self.jobs * self.AUTO_CHUNKS_PER_WORKER
        auto = -(-n_cells // per_worker) if per_worker else 1  # ceil div
        return max(1, min(auto, self.AUTO_CHUNK_MAX))

    def submit_many(self, cells: _t.Sequence["Cell"]) -> list[Future]:
        cells = list(cells)
        size = self.chunk_size(len(cells))
        if size <= 1:
            return [self.submit(c) for c in cells]
        pool = self._ensure_pool()
        futures: list[Future] = [Future() for _ in cells]
        self.dispatched += len(cells)
        for start in range(0, len(cells), size):
            outs = futures[start:start + size]
            try:
                chunk_future = pool.submit(_execute_chunk, cells[start:start + size])
            except BrokenProcessPool as exc:
                for fut in futures[start:]:
                    _mark_running(fut)
                    _settle_future(fut, exc=exc)
                break
            chunk_future.add_done_callback(
                lambda cf, outs=outs: _fan_out_chunk(outs, cf)
            )
        return futures


# ---------------------------------------------------------------------------
# Activation: scope + spec grammar
# ---------------------------------------------------------------------------

_EXECUTOR: contextvars.ContextVar[CellExecutor | None] = contextvars.ContextVar(
    "repro_cell_executor", default=None
)


def active_executor() -> CellExecutor | None:
    """The cell executor currently installed for this context, if any."""
    return _EXECUTOR.get()


@contextlib.contextmanager
def executor_scope(
    executor: CellExecutor | str,
) -> _t.Iterator[CellExecutor]:
    """Route every ``run_cells`` call in the body through ``executor``.

    Accepts an instance or a ``--backend`` spec string; the executor is
    shut down when the scope exits (hard if the body raised).
    """
    if isinstance(executor, str):
        executor = make_executor(executor)
    token = _EXECUTOR.set(executor)
    try:
        yield executor
    except BaseException:
        _EXECUTOR.reset(token)
        executor.shutdown(kill=True)
        raise
    else:
        _EXECUTOR.reset(token)
        executor.shutdown()


def _parse_options(parts: _t.Sequence[str], spec: str) -> dict[str, str]:
    options: dict[str, str] = {}
    for part in parts:
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"bad backend option {part!r} in {spec!r}")
        key, _, value = part.partition("=")
        options[key.strip()] = value.strip()
    return options


def make_executor(spec: str, jobs: int | None = None) -> CellExecutor:
    """Build a backend from a ``--backend`` spec string.

    Grammar (see ``docs/distributed.md``)::

        serial                      inline execution
        pool                        process pool (--jobs workers)
        pool:chunk=K                chunked dispatch, K cells per batch
        chunked                     process pool, chunk size chosen automatically
    """
    spec = (spec or "").strip()
    if spec in ("", "serial"):
        return SerialExecutor()
    head, _, rest = spec.partition(":")
    head = head.strip()
    if head in ("pool", "chunked"):
        options = _parse_options(rest.split(","), spec)
        chunk: int | str = "auto" if head == "chunked" else 1
        if "chunk" in options:
            raw = options.pop("chunk")
            if raw == "auto":
                chunk = "auto"
            else:
                try:
                    chunk = int(raw)
                except ValueError:
                    raise ConfigError(
                        f"bad chunk value {raw!r} in {spec!r} "
                        "(expected a positive int or 'auto')"
                    ) from None
        if options:
            raise ConfigError(f"unknown pool backend option(s) {sorted(options)} in {spec!r}")
        return LocalPoolExecutor(jobs, chunk=chunk)
    raise ConfigError(
        f"unknown backend spec {spec!r}; expected serial | pool[:chunk=K] | "
        "chunked"
    )
