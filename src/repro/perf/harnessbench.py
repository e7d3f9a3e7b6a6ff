"""Executor dispatch-overhead microbenchmark (``repro bench harness``).

Measures cells dispatched per second through each
:class:`~repro.harness.executor.CellExecutor` backend driving the same
synthetic ``bench_cell`` sweep — serial (inline), per-cell pool futures
and chunked pool dispatch — so the harness's scheduling overhead has dedicated
before/after numbers, separate from the engine's event throughput
(``repro bench engine``).

Rows reuse the ``BENCH_engine.json`` row shape (``events`` = cells,
``events_per_sec`` = cells/sec) under ``harness-<mode>`` names, so the
engine bench's render/baseline/history machinery applies unchanged.
The chunked row additionally records ``speedup_vs_pool`` — chunked
dispatch amortises one inter-process round trip over a whole batch of
cells, and ``--check`` enforces a machine-independent floor on that
ratio (:data:`SPEEDUP_FLOOR`) on top of the per-mode baseline gate.

Wall-clock timing here is host-side measurement of the dispatcher, not
simulated time, hence the ``DET001`` lint waivers.
"""

from __future__ import annotations

import time
import typing as _t

from repro.errors import ConfigError

#: Benchmark modes, in report order.
MODES = ("serial", "pool", "chunked")

#: ``--check`` floor for chunked cells/sec over per-cell pool futures.
#: A ratio, so it holds across machines — unlike the absolute
#: cells/sec baselines, which carry the usual noise tolerance.
SPEEDUP_FLOOR = 1.3

#: Per-cell spin for the synthetic ``bench_cell`` worker: small enough
#: that dispatch overhead dominates the measurement.
BENCH_SPIN = 64


def _bench_cells(n: int) -> list[_t.Any]:
    from repro.harness.parallel import Cell

    return [
        Cell(key=("bench", i), worker="bench_cell", args=(i, BENCH_SPIN))
        for i in range(n)
    ]


def _make_mode_executor(mode: str, jobs: int) -> _t.Any:
    from repro.harness.executor import LocalPoolExecutor, SerialExecutor

    if mode == "serial":
        return SerialExecutor()
    if mode == "pool":
        return LocalPoolExecutor(jobs, chunk=1)
    if mode == "chunked":
        return LocalPoolExecutor(jobs, chunk="auto")
    raise ConfigError(
        f"unknown harness bench mode {mode!r}; expected one of {list(MODES)}"
    )


def run_mode(mode: str, cells: int, jobs: int) -> dict[str, float]:
    """Time one backend pushing ``cells`` bench cells; returns its row.

    The batch goes straight through the executor (``submit_many`` +
    drain) — no store, no sweep driver — so the number is pure dispatch
    overhead.  A small untimed warm-up batch first pays the one-off
    backend costs (pool spin-up) that would
    otherwise swamp the per-cell rate.
    """
    if cells < 1:
        raise ConfigError(f"cells must be >= 1: {cells}")
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1: {jobs}")
    exec_ = _make_mode_executor(mode, jobs)
    try:
        for fut in exec_.submit_many(_bench_cells(min(cells, 4 * jobs))):
            fut.result()
        batch = _bench_cells(cells)
        t0 = time.perf_counter()  # lint-ok: DET001 host-side throughput timer
        for fut in exec_.submit_many(batch):
            fut.result()
        seconds = time.perf_counter() - t0  # lint-ok: DET001 host-side throughput timer
    finally:
        exec_.shutdown(kill=True)
    return {
        "events": cells,
        "seconds": seconds,
        "events_per_sec": cells / seconds if seconds else float("inf"),
        "jobs": jobs,
    }


def run_harness_bench(
    cells: int = 600,
    jobs: int = 2,
    reps: int = 1,
    modes: _t.Sequence[str] | None = None,
) -> dict[str, dict[str, float]]:
    """Run the harness benchmark; ``{"harness-<mode>": row}``.

    ``reps > 1`` repeats each mode and keeps the fastest rep.  When both
    the pool and chunked modes run, the chunked row gets
    ``speedup_vs_pool`` for the ``--check`` floor.
    """
    if reps < 1:
        raise ConfigError(f"reps must be >= 1: {reps}")
    names = list(modes) if modes is not None else list(MODES)
    for name in names:
        if name not in MODES:
            raise ConfigError(
                f"unknown harness bench mode {name!r}; "
                f"expected one of {list(MODES)}"
            )
    rows: dict[str, dict[str, float]] = {}
    for name in names:
        best: dict[str, float] | None = None
        for _ in range(reps):
            row = run_mode(name, cells, jobs)
            if best is None or row["events_per_sec"] > best["events_per_sec"]:
                best = row
        assert best is not None
        rows[f"harness-{name}"] = best
    pool = rows.get("harness-pool")
    chunked = rows.get("harness-chunked")
    if pool and chunked and pool["events_per_sec"]:
        chunked["speedup_vs_pool"] = (
            chunked["events_per_sec"] / pool["events_per_sec"]
        )
    return rows


def check_speedup(
    rows: dict[str, dict[str, float]], floor: float = SPEEDUP_FLOOR
) -> list[str]:
    """Regression message when chunked dispatch loses its edge.

    Recomputed from the measured rates (not the stored
    ``speedup_vs_pool``) so a baseline file can never mask a live
    regression.  Empty list when the floor holds or either mode is
    missing from ``rows``.
    """
    pool = rows.get("harness-pool")
    chunked = rows.get("harness-chunked")
    if not pool or not chunked or not pool.get("events_per_sec"):
        return []
    speedup = chunked["events_per_sec"] / pool["events_per_sec"]
    if speedup < floor:
        return [
            f"harness-chunked: {speedup:.2f}x over per-cell pool dispatch "
            f"is below the {floor:.1f}x floor"
        ]
    return []
