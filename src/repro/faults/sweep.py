"""The ``repro faults sweep`` harness: failure rate x checkpoint interval.

Evaluates the analytic checkpoint/restart model
(:func:`repro.faults.checkpoint.simulate_completion`) over a grid of
failure rates and checkpoint intervals, averaging a configurable number
of seeded trials per cell.  Cells run through the shared sweep driver
(:func:`repro.harness.supervisor.run_sweep`) under the same
:class:`~repro.config.Run` a ``repro run`` uses, and each cell
derives its random stream from its own ``(rate, interval)`` key, so the
output is byte-identical for ``--jobs 1`` and ``--jobs N``.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.config import Run, using
from repro.errors import CellExecutionError, ConfigError
from repro.harness.parallel import Cell
from repro.harness.supervisor import run_sweep


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
    #: One-line ``harness: ...`` banner (None without a non-default
    #: ``retries``/``timeout`` policy).  Not part of :meth:`render`/:meth:`to_dict`
    #: — its retry/degrade tallies differ between a disrupted and a clean
    #: run, and both must produce byte-identical reports.  The CLI prints
    #: it to stderr.
    harness_summary: str | None = None
    #: One-line ``store: ...`` cell-store banner (None without a store).
    #: Stderr-only for the same byte-identity reason: a warm-store sweep
    #: serves every cell while a cold one executes them all.
    store_summary: str | None = None

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
    run: Run | None = None,
    **options: _t.Any,
) -> SweepResult:
    """Sweep the checkpoint/restart model over ``rates x intervals``.

    The grid runs under ``run`` (else a run opened from
    ``RunConfig(**options)``: ``jobs``, ``retries``, ``timeout``,
    ``store``), exactly like a ``repro run`` sweep.  Cells
    that exhaust their attempts land in :attr:`SweepResult.failures` as
    ``FAILED(<cause>)`` grid entries instead of aborting the sweep.  A
    store serves cells already published — by any previous run sharing
    it — without executing them, so re-running an interrupted sweep with
    the same store resumes it; any ``jobs`` renders the same grid.  The
    run's stderr-only banners land in :attr:`SweepResult.harness_summary`
    and :attr:`~SweepResult.store_summary`.
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
    with using(run, **options) as run:
        report = run_sweep(cells, run)
        summaries = run.summaries()
    return SweepResult(
        work=float(work),
        checkpoint_cost=float(checkpoint_cost),
        restart_cost=float(restart_cost),
        trials=int(trials),
        seed=int(seed),
        rates=tuple(float(r) for r in rates),
        intervals=tuple(float(i) for i in intervals),
        cells=dict(report.results),
        failures=report.failures,
        **summaries,
    )
