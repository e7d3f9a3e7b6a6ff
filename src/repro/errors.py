"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch the whole family with one handler while still being able
to discriminate simulation problems from configuration problems.
"""

from __future__ import annotations

import typing as _t


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class SimulationError(ReproError):
    """A problem detected inside the discrete-event engine.

    Raised, for example, when a simulated process deadlocks (the event
    queue drains while processes are still waiting) or when a process
    yields an object the engine does not understand.
    """


class DeadlockError(SimulationError):
    """The event queue drained while simulated processes were still blocked.

    When the run executed under the MPI sanitizer
    (:mod:`repro.analysis.sanitizer`), the error also carries
    ``pending_ops`` — one human-readable description per operation the
    blocked ranks were stuck in — and, if the blocked operations form a
    wait-for cycle, ``cycle`` names the ranks along it (first rank
    repeated at the end).  Both are empty for bare engine-level
    deadlocks detected without the sanitizer.
    """

    def __init__(
        self,
        waiting: int,
        message: str | None = None,
        pending_ops: _t.Sequence[str] = (),
        cycle: _t.Sequence[int] | None = None,
    ) -> None:
        self.waiting = waiting
        self.pending_ops = tuple(pending_ops)
        self.cycle = tuple(cycle) if cycle is not None else None
        if message is None:
            message = (
                f"simulation deadlock: event queue empty with {waiting} "
                "process(es) still waiting"
            )
            if self.cycle:
                message += "; wait-for cycle: " + " -> ".join(
                    f"rank {r}" for r in self.cycle
                )
            if self.pending_ops:
                message += "\npending operations:\n" + "\n".join(
                    f"  {op}" for op in self.pending_ops
                )
        super().__init__(message)


class MpiError(ReproError):
    """Misuse of the simulated MPI API (bad rank, truncated recv, ...)."""


class SanitizerError(MpiError):
    """The runtime MPI sanitizer detected a correctness violation.

    Carries the structured :class:`~repro.analysis.sanitizer.Diagnostic`
    records behind the message, so tests and tooling can assert on the
    check name, the ranks involved and the details rather than parsing
    text.
    """

    def __init__(self, message: str, diagnostics: _t.Sequence[_t.Any] = ()) -> None:
        self.diagnostics = tuple(diagnostics)
        super().__init__(message)


class CellExecutionError(ReproError):
    """One sweep cell ultimately failed under the sweep driver.

    Carries the cell ``key`` and registered ``worker`` name, the number
    of execution ``attempts`` made, the classified ``cause`` —
    ``"timeout"`` (no completion within the driver's watchdog window) or
    ``"worker-exception"`` (the worker function raised) — and ``detail``
    (traceback text or a one-line explanation).  A dead pool worker is
    not a cause: the driver runs the cells it may have taken inline.

    The driver (:func:`repro.harness.supervisor.run_sweep`) collects one
    instance per exhausted cell onto its
    :class:`~repro.harness.supervisor.SweepReport`;
    :func:`repro.harness.parallel.run_cells` raises the first in cell
    order, and ``run_batch`` renders it as a ``FAILED(<cause>)`` entry.
    """

    def __init__(
        self,
        key: _t.Sequence[_t.Any],
        worker: str,
        attempts: int,
        cause: str,
        detail: str = "",
        message: str | None = None,
    ) -> None:
        self.key = tuple(key)
        self.worker = worker
        self.attempts = attempts
        self.cause = cause
        self.detail = detail
        if message is None:
            message = (
                f"cell {self.key!r} [{worker}] failed after {attempts} "
                f"attempt(s): {cause}"
            )
            if detail:
                message += f"\n{detail}"
        super().__init__(message)


class ConfigError(ReproError):
    """Invalid platform, benchmark or experiment configuration."""


class SchedulerError(ReproError):
    """Batch-scheduler misuse or inconsistent job state."""
