"""How a run is configured: one frozen :class:`RunConfig`, built once.

Every knob of a ``repro run`` lives on :class:`RunConfig`, validated
in one place, and reaches the code below it as one explicit argument:
:meth:`RunConfig.open` opens the per-run resources (cell store, harness
tally) as a :class:`Run`, and that object is passed down ``run_batch`` →
``run_experiments`` → ``run_cells``.

Precedence is one rule for every field: an explicit value (a CLI flag,
a keyword argument) wins, else the field's environment spelling, else
its default.  Only the one *world option*, ``sanitize``, has an
environment spelling, ``REPRO_SANITIZE``, and this module is the one
place that reads it (:func:`env_world_options`).

World options reach simulated worlds without touching ``os.environ``:
:func:`world_scope` installs them in this process (what an open
:class:`Run` does for its lifetime), and a pool worker receives them
through its initializer (:func:`install_worker_options`).  A world that
is not told otherwise asks :func:`world_options`: the innermost install,
else the environment.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import typing as _t

from repro.errors import ConfigError

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.harness.cellstore import CellStore
    from repro.harness.supervisor import HarnessStats


# ---------------------------------------------------------------------------
# World options: what every simulated world of a run is built with
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, slots=True)
class WorldOptions:
    """The run-wide default a :class:`~repro.smpi.world.MpiWorld` takes
    for ``sanitize=`` when it is not given it explicitly."""

    sanitize: bool = False


def env_world_options() -> WorldOptions:
    """The process default: ``REPRO_SANITIZE``, the only environment
    variable read as configuration.  ``""`` and ``"0"`` mean off.
    """
    value = os.environ.get("REPRO_SANITIZE", "")  # lint-ok: DET008 the one sanctioned feature-gate reader, read before simulation starts
    return WorldOptions(sanitize=value.strip() not in ("", "0"))


@dataclasses.dataclass(slots=True)
class WorldReports:
    """Reports of the worlds finalized in this process inside one
    :func:`world_scope` (pool-worker worlds report in their own process)."""

    sanitizer: list = dataclasses.field(default_factory=list)


#: Installed world options, innermost last (empty: the environment rules).
_INSTALLED: list[WorldOptions] = []
#: Report collectors of the open :func:`world_scope` blocks.
_COLLECTORS: list[WorldReports] = []


def world_options() -> WorldOptions:
    """The world options in force in this process."""
    return _INSTALLED[-1] if _INSTALLED else env_world_options()


@contextlib.contextmanager
def world_scope(
    options: WorldOptions | None = None, *, sanitize: bool | None = None
) -> _t.Iterator[WorldReports]:
    """Install ``options`` (default: the ones in force), with
    ``sanitize`` when given, for every world built in this process
    inside the block; yields the reports of the worlds finalized
    meanwhile.

    This is the one in-process install of the world options:
    ``world_scope(sanitize=True) as reports`` sanitizes the block's
    worlds and collects ``reports.sanitizer``.
    """
    if sanitize is not None:
        options = WorldOptions(sanitize=sanitize)
    elif options is None:
        options = world_options()
    reports = WorldReports()
    _INSTALLED.append(options)  # lint-ok: DET007 in-process option install, restored on exit
    _COLLECTORS.append(reports)  # lint-ok: DET007 observer-side report collection, never in results
    try:
        yield reports
    finally:
        _COLLECTORS.pop()  # lint-ok: DET007 undoes the append above
        _INSTALLED.pop()  # lint-ok: DET007 undoes the append above


def install_worker_options(options: WorldOptions) -> None:
    """Pool-worker initializer hook: ``options`` rule this process, and
    collectors inherited from a forking parent are dropped."""
    _INSTALLED[:] = [options]  # lint-ok: DET007 pool start-up installs the dispatching run's options
    _COLLECTORS.clear()  # lint-ok: DET007 pool start-up drops a forking parent's observers


def collect_sanitizer_report(report: _t.Any) -> None:
    """Hand a finalized world's sanitizer report to every open collector."""
    for reports in _COLLECTORS:
        reports.sanitizer.append(report)


# ---------------------------------------------------------------------------
# The run configuration
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, slots=True)
class RunConfig:
    """Every knob of one run, validated once.

    ``quick``/``seed``/``sim_iters`` pick what is simulated (the default
    seed, 1, is the one the pinned report digests use, and every
    ``--seed`` flag defaults to it); ``jobs`` (``0`` = all CPUs) how
    many pool workers run a sweep's cells; ``store`` the cell-store
    directory.  The world option ``sanitize`` left as ``None`` takes
    the options in force (:func:`world_options`: an install, else the
    environment); after construction it is a plain bool.
    """

    quick: bool = True
    seed: int = 1
    jobs: int = 1
    sim_iters: int | None = None
    sanitize: bool | None = None
    store: "str | os.PathLike[str] | None" = None

    def __post_init__(self) -> None:
        from repro.harness.cellstore import store_root

        sanitize = self.sanitize
        resolved: dict[str, _t.Any] = {
            "sanitize": world_options().sanitize if sanitize is None else bool(sanitize),
        }
        optional = () if self.sim_iters is None else ("sim_iters",)
        for name in ("seed", "jobs", *optional):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an int: {value!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0: {self.seed}")
        if self.jobs < 0:
            raise ConfigError(f"jobs must be >= 0 (0 = all CPUs): {self.jobs}")
        if self.jobs == 0:
            resolved["jobs"] = os.cpu_count() or 1
        if self.sim_iters is not None and self.sim_iters < 1:
            raise ConfigError(f"sim_iters must be >= 1: {self.sim_iters}")
        if self.store is not None:
            resolved["store"] = os.fspath(store_root(self.store))
        for name, value in resolved.items():
            object.__setattr__(self, name, value)

    @property
    def world(self) -> WorldOptions:
        """The world options of this run."""
        return WorldOptions(sanitize=self.sanitize)

    @contextlib.contextmanager
    def open(self) -> _t.Iterator["Run"]:
        """Open this run's resources and install its world options."""
        from repro.harness.cellstore import CellStore

        store = CellStore(self.store) if self.store is not None else None
        with world_scope(self.world) as reports:
            yield Run(self, store=store, reports=reports)


def _harness_stats() -> "HarnessStats":
    from repro.harness.supervisor import HarnessStats

    return HarnessStats()


@dataclasses.dataclass(slots=True)
class Run:
    """One run in progress: its config plus what opening it provided.

    ``store`` is ``None`` when not configured (sweeps then run without
    a store); ``stats`` is the harness tally every sweep of the run
    merges into; ``reports`` collects the in-process worlds'
    sanitizer reports.  ``Run()`` is a default, unopened run: no store,
    the world options in force.
    """

    config: RunConfig = dataclasses.field(default_factory=RunConfig)
    store: "CellStore | None" = None
    stats: "HarnessStats" = dataclasses.field(default_factory=_harness_stats)
    reports: WorldReports = dataclasses.field(default_factory=WorldReports)

    def summaries(self) -> dict[str, str | None]:
        """The stderr-only ``harness``/``store`` banners.

        The harness banner is there only when a cell degraded or failed,
        the store banner only when a store was configured.
        """
        return {
            "harness_summary": self.stats.banner(),
            "store_summary": self.store.banner() if self.store else None,
        }


@contextlib.contextmanager
def using(run: Run | None = None, **options: _t.Any) -> _t.Iterator[Run]:
    """``run`` itself, or a run opened from ``RunConfig(**options)``."""
    if run is not None:
        if options:
            raise ConfigError(
                f"pass either an open run or config options, not both: {sorted(options)}"
            )
        yield run
        return
    with RunConfig(**options).open() as opened:
        yield opened
