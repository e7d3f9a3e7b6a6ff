"""The ``repro faults sweep`` harness: failure rate x checkpoint interval.

Evaluates the analytic checkpoint/restart model
(:func:`repro.faults.checkpoint.simulate_completion`) over a grid of
failure rates and checkpoint intervals, averaging a configurable number
of seeded trials per cell.  Cells run through the shared sweep driver
(:func:`repro.harness.supervisor.run_sweep`), and each cell
derives its random stream from its own ``(rate, interval)`` key, so the
output is byte-identical for ``--jobs 1`` and ``--jobs N``.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.errors import CellExecutionError, ConfigError
from repro.harness.parallel import Cell
from repro.harness.supervisor import SupervisorPolicy, run_sweep


@dataclasses.dataclass(slots=True)
class SweepResult:
    """Grid of mean completion statistics from one resilience sweep."""

    work: float
    checkpoint_cost: float
    restart_cost: float
    trials: int
    seed: int
    rates: tuple[float, ...]
    intervals: tuple[float, ...]
    #: ``(rate, interval) -> {"completion_time", "restarts", "wasted_work"}``
    cells: dict[tuple[float, float], dict[str, float]]
    #: Cells that exhausted their attempts (empty on a clean sweep);
    #: rendered as explicit ``FAILED(<cause>)`` grid entries.
    failures: dict[tuple[float, float], CellExecutionError] = dataclasses.field(
        default_factory=dict
    )
    #: One-line ``harness: ...`` banner (None without an explicit
    #: ``supervisor=`` policy).  Not part of :meth:`render`/:meth:`to_dict`
    #: — its retry/degrade tallies differ between a disrupted and a clean
    #: run, and both must produce byte-identical reports.  The CLI prints
    #: it to stderr.
    harness_summary: str | None = None
    #: One-line ``store: ...`` cell-store banner (None without a store).
    #: Stderr-only for the same byte-identity reason: a warm-store sweep
    #: serves every cell while a cold one executes them all.
    store_summary: str | None = None
    #: One-line ``executor: ...`` backend banner (None without an explicit
    #: ``backend=``).  Stderr-only: dispatch is scheduling detail and every
    #: backend renders the identical grid.
    executor_summary: str | None = None

    def render(self) -> str:
        """Fixed-width grid of mean time-to-completion (s); one row per
        failure rate, one column per checkpoint interval."""
        lines = [
            "# faults sweep: mean time-to-completion (s)",
            f"# work={self.work:g} s, checkpoint cost={self.checkpoint_cost:g} s, "
            f"restart cost={self.restart_cost:g} s, {self.trials} trial(s), "
            f"seed={self.seed}",
        ]
        head = "rate\\interval".ljust(14)
        head += "".join(f"{i:>12g}" for i in self.intervals)
        lines.append(head)
        for rate in self.rates:
            row = f"{rate:<14g}"
            for interval in self.intervals:
                key = (rate, interval)
                if key in self.failures:
                    row += f"{'FAILED(' + self.failures[key].cause + ')':>12}"
                else:
                    row += f"{self.cells[key]['completion_time']:>12.2f}"
            lines.append(row)
        if self.cells:
            best = min(
                self.cells.items(), key=lambda kv: (kv[1]["completion_time"], kv[0])
            )
            (rate, interval), stats = best
            lines.append(
                f"# best cell: rate={rate:g}, interval={interval:g} -> "
                f"{stats['completion_time']:.2f} s "
                f"({stats['restarts']:.2f} restart(s), "
                f"{stats['wasted_work']:.2f} s wasted)"
            )
        else:
            lines.append("# no successful cells")
        for (rate, interval), err in sorted(self.failures.items()):
            lines.append(
                f"# failed cell: rate={rate:g}, interval={interval:g} -> "
                f"{err.cause} after {err.attempts} attempt(s)"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict[str, _t.Any]:
        return {
            "work": self.work,
            "checkpoint_cost": self.checkpoint_cost,
            "restart_cost": self.restart_cost,
            "trials": self.trials,
            "seed": self.seed,
            "rates": list(self.rates),
            "intervals": list(self.intervals),
            "cells": [
                {"rate": r, "interval": i, **stats}
                for (r, i), stats in sorted(self.cells.items())
            ],
            "failures": [
                {"rate": r, "interval": i, "cause": err.cause,
                 "attempts": err.attempts}
                for (r, i), err in sorted(self.failures.items())
            ],
        }


def sweep_failure_checkpoint(
    rates: _t.Sequence[float],
    intervals: _t.Sequence[float],
    *,
    work: float,
    checkpoint_cost: float = 0.0,
    restart_cost: float = 0.0,
    trials: int = 32,
    seed: int = 1,
    jobs: int = 1,
    supervisor: SupervisorPolicy | None = None,
    store: _t.Any | None = None,
    backend: str | None = None,
) -> SweepResult:
    """Sweep the checkpoint/restart model over ``rates x intervals``.

    Cells that exhaust their attempts land in
    :attr:`SweepResult.failures` as ``FAILED(<cause>)`` grid entries
    instead of aborting the sweep.  ``supervisor`` replaces the default
    policy (no retries, no watchdog) and adds the ``harness: ...``
    banner; a clean sweep renders byte-identical output either way.

    ``store`` (a path or a :class:`~repro.harness.cellstore.CellStore`)
    activates the content-addressed global cell store for the sweep:
    cells already published — by any previous run, on any host sharing
    the store — are served without executing, and fresh cells are
    published back.  A warm-store sweep renders byte-identical output
    with zero cells executed, so re-running an interrupted sweep with
    the same store resumes it; the ``store: ...`` banner lands in
    :attr:`SweepResult.store_summary` (stderr-only).

    ``backend`` schedules the grid through an explicit
    :class:`~repro.harness.executor.CellExecutor` backend (a
    ``--backend`` spec string, see
    :func:`~repro.harness.executor.make_executor`): same cells, same
    merge-by-key grid, byte-identical output on every backend.
    """
    if not rates or not intervals:
        raise ConfigError("faults sweep needs at least one rate and one interval")
    if trials < 1:
        raise ConfigError(f"trials must be >= 1: {trials}")
    cells = [
        Cell(
            key=(float(rate), float(interval)),
            worker="faults_point",
            args=(
                float(rate), float(interval), float(work),
                float(checkpoint_cost), float(restart_cost), int(trials),
                int(seed),
            ),
        )
        for rate in rates
        for interval in intervals
    ]
    failures: dict[tuple[float, float], CellExecutionError] = {}
    harness_summary: str | None = None
    store_summary: str | None = None
    executor_summary: str | None = None

    def _execute_grid() -> dict[tuple, _t.Any]:
        nonlocal failures, harness_summary
        report = run_sweep(cells, jobs, policy=supervisor)
        failures = report.failures
        if supervisor is not None:
            harness_summary = report.banner()
        return report.results

    def _execute_stored() -> dict[tuple, _t.Any]:
        nonlocal store_summary
        if store is None:
            return _execute_grid()
        from repro.harness.cellstore import store_scope

        with store_scope(store) as cs:
            results = _execute_grid()
        store_summary = cs.banner()
        return results

    if backend is None:
        results = _execute_stored()
    else:
        from repro.harness.executor import executor_scope, make_executor

        with executor_scope(make_executor(backend, jobs)) as ex:
            results = _execute_stored()
            executor_summary = ex.banner()
    return SweepResult(
        work=float(work),
        checkpoint_cost=float(checkpoint_cost),
        restart_cost=float(restart_cost),
        trials=int(trials),
        seed=int(seed),
        rates=tuple(float(r) for r in rates),
        intervals=tuple(float(i) for i in intervals),
        cells=dict(results),
        failures=failures,
        harness_summary=harness_summary,
        store_summary=store_summary,
        executor_summary=executor_summary,
    )
