"""Deterministic parallel execution of independent simulation cells.

A *cell* is one independent unit of a sweep — one ``(experiment,
config-point, seed)`` simulation such as "CG class B on Vayu at 16
processes with seed 1".  Every simulation builds its own engine from an
explicit seed and touches no shared state, so cells can run in any
process in any order; determinism then only requires that results are
**merged by cell key, never by completion order**, which the sweep
driver guarantees.  ``jobs=1`` executes the very same worker
functions inline, so serial and parallel sweeps render byte-identical
reports.

Workers are plain module-level functions (registered with
:func:`cell_worker`) taking only picklable primitives and returning
plain dicts/floats — the contract that keeps cells cheap to ship to a
``ProcessPoolExecutor`` and trivially deterministic to merge.

Every sweep goes through the one driver,
:func:`repro.harness.supervisor.run_cells` (store planning, dispatch,
degradation of dead workers, and structured failures of cells that
raise).
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
import typing as _t

from repro.config import Run, RunConfig, open_in_worker
from repro.errors import ConfigError


@dataclasses.dataclass(frozen=True, slots=True)
class Cell:
    """One independent simulation unit of a sweep.

    ``key`` is the stable merge identity (a tuple of primitives, unique
    within one sweep); ``worker`` names a registered
    worker function; ``args`` are its positional arguments.
    """

    key: tuple
    worker: str
    args: tuple = ()


#: Registered worker functions, by name.
_WORKERS: dict[str, _t.Callable[..., _t.Any]] = {}


def cell_worker(name: str) -> _t.Callable[[_t.Callable], _t.Callable]:
    """Register a module-level function as a named cell worker.

    Registration is picklable-by-construction: lambdas and nested
    functions are rejected here (their qualified names cannot be
    resolved by a pool worker's unpickler), so a sweep cannot discover
    the problem only once ``--jobs`` fans it out to a process pool.
    """

    def deco(fn: _t.Callable) -> _t.Callable:
        if name in _WORKERS:
            raise ConfigError(f"cell worker {name!r} already registered")
        qualname = getattr(fn, "__qualname__", "")
        if fn.__name__ == "<lambda>" or "<locals>" in qualname:
            raise ConfigError(
                f"cell worker {name!r} ({qualname or fn!r}) is not a "
                "module-level function; pool workers cannot unpickle "
                "lambdas or nested functions"
            )
        _WORKERS[name] = fn  # lint-ok: DET007 import-time worker registration, not run-time state
        return fn

    return deco


#: The open run of a process-pool worker (set by
#: :func:`_pool_worker_init`); ``None`` outside a pool worker.
_WORKER_RUN: Run | None = None


def _pool_worker_init(config: RunConfig) -> None:
    """Pool-worker initializer: make the dispatching run's config the
    open run of this worker."""
    global _WORKER_RUN  # lint-ok: DET007 set once at pool start-up
    _WORKER_RUN = open_in_worker(config)


def _maybe_chaos_kill() -> None:
    """Test/CI chaos hook: kill one pool worker once per marker file.

    When ``REPRO_CHAOS_KILL`` is set, the first pool worker to claim the
    marker file (the variable's value, or a tempdir default for ``1``)
    exits abruptly mid-cell — simulating a real worker death so the
    chaos CI job can assert the driver degrades the affected cells to
    inline execution and the sweep still completes.  Never fires in the
    dispatching process itself, and is a no-op when the variable is unset.
    """
    spec = os.environ.get("REPRO_CHAOS_KILL")  # lint-ok: DET008 may end this process, never changes a cell's result
    if not spec or _WORKER_RUN is None:
        return
    marker = spec
    if spec in ("1", "true"):
        marker = os.path.join(
            tempfile.gettempdir(), f"repro-chaos-kill-{os.getppid()}"
        )
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return
    os.close(fd)
    os._exit(17)


def _execute(cell: Cell) -> _t.Any:
    """Run one cell (in this process or a pool worker)."""
    _maybe_chaos_kill()
    try:
        fn = _WORKERS[cell.worker]
    except KeyError:
        raise ConfigError(
            f"unknown cell worker {cell.worker!r}; available: {sorted(_WORKERS)}"
        ) from None
    return fn(*cell.args)


def _execute_pooled(cell: Cell) -> tuple[_t.Any, list]:
    """Run one cell in a pool worker: its result, and the sanitizer
    reports of the worlds it finalized, for the dispatching process to
    collect (they stay out of the result, so a store never sees them)."""
    reports = _WORKER_RUN.sanitizer_reports
    reports.clear()
    return _execute(cell), list(reports)


def check_unique_keys(cells: _t.Sequence[Cell]) -> None:
    """Reject duplicate cell keys up front.

    A duplicate key would silently overwrite the earlier cell's result
    during the key-ordered merge, so it is a configuration error in
    every execution mode (serial, pooled, store-served).
    """
    keys = [c.key for c in cells]
    if len(set(keys)) != len(keys):
        seen: set[tuple] = set()
        dupes: list[tuple] = []
        for k in keys:
            if k in seen and k not in dupes:
                dupes.append(k)
            seen.add(k)
        # Name the offenders (sorted for a stable message, capped so a
        # million-cell sweep with a systematic collision stays readable).
        dupes.sort(key=repr)
        shown = ", ".join(repr(k) for k in dupes[:10])
        more = f", ... ({len(dupes) - 10} more)" if len(dupes) > 10 else ""
        raise ConfigError(
            f"duplicate cell keys ({len(dupes)} distinct): {shown}{more}"
        )


# ---------------------------------------------------------------------------
# Workers for the registered experiments' sweeps
# ---------------------------------------------------------------------------
# Each returns only the scalars the experiment renders, keeping the
# pickled payload small (an IpmMonitor for a 64-rank run is far heavier
# than the three numbers a speedup curve needs).


@cell_worker("npb_point")
def npb_point(
    bench: str,
    platform: str,
    nprocs: int,
    seed: int,
    klass: str = "B",
    sim_iters: int | None = None,
) -> dict[str, float]:
    """One NPB benchmark point: projected time and steady %comm."""
    from repro.npb import get_benchmark
    from repro.platforms import get_platform

    r = get_benchmark(bench, klass=klass, sim_iters=sim_iters).run(
        get_platform(platform), nprocs, seed=seed
    )
    return {
        "projected_time": r.projected_time,
        "per_iter_time": r.steady.per_step,
        "comm_percent": r.comm_percent,
    }


@cell_worker("osu_curve")
def osu_curve(
    kind: str, platform: str, sizes: tuple, iterations: int, warmup: int, seed: int
) -> dict[int, float]:
    """One OSU sweep (``kind``: latency|bandwidth) on one platform."""
    from repro.osu import osu_bandwidth, osu_latency
    from repro.platforms import get_platform

    fns = {"latency": osu_latency, "bandwidth": osu_bandwidth}
    try:
        fn = fns[kind]
    except KeyError:
        raise ConfigError(f"unknown OSU kind {kind!r}; expected {sorted(fns)}") from None
    return fn(
        get_platform(platform), list(sizes), iterations=iterations, warmup=warmup,
        seed=seed,
    )


@cell_worker("chaste_point")
def chaste_point(
    platform: str, nprocs: int, seed: int, sim_steps: int
) -> dict[str, float]:
    """One Chaste run: total and KSp-section times."""
    from repro.apps.chaste import ChasteBenchmark
    from repro.platforms import get_platform

    r = ChasteBenchmark(sim_steps=sim_steps).run(
        get_platform(platform), nprocs, seed=seed
    )
    return {"total_time": r.total_time, "ksp_time": r.ksp_time}


@cell_worker("metum_point")
def metum_point(
    platform: str, nprocs: int, num_nodes: int | None, seed: int, sim_steps: int
) -> dict[str, _t.Any]:
    """One UM run: the 'warmed' (I/O-free steady) and total times, the
    Table-III section statistics, and the Fig-7 per-process ``ATM_STEP``
    breakdown (float lists by rank) with its compute and communication
    sums over ranks."""
    from repro.apps.metum import MetumBenchmark
    from repro.ipm.report import fig7_breakdown
    from repro.platforms import get_platform

    r = MetumBenchmark(sim_steps=sim_steps).run(
        get_platform(platform), nprocs, num_nodes=num_nodes, seed=seed
    )
    parts = fig7_breakdown(r.monitor, "ATM_STEP")
    return {
        "warmed_time": r.warmed_time,
        "total_time": r.total_time,
        "comp": r.compute_time(),
        "comm": r.comm_time(),
        "comm_percent": r.comm_percent(),
        "imbalance_percent": r.imbalance_percent(),
        "io": r.io_time,
        "breakdown": {part: values.tolist() for part, values in parts.items()},
        # Summed here, in numpy's pairwise order, so that Fig 7's ratio
        # is the same whether or not the renderer imports numpy.
        "breakdown_sums": {
            "compute": float(parts["compute"].sum()),
            "comm": float((parts["comm_user"] + parts["comm_system"]).sum()),
        },
    }


@cell_worker("arrivef_point")
def arrivef_point(seed: int) -> dict[str, float]:
    """One ARRIVE-F workload comparison at one seed."""
    from repro.arrivef.framework import throughput_experiment

    return throughput_experiment(seed=seed)

