"""How a run is configured: one frozen :class:`RunConfig`, built once.

Every knob of a ``repro run`` lives on :class:`RunConfig`, validated
in one place, and reaches the code below it as one explicit argument:
:meth:`RunConfig.open` opens the per-run resources (cell store, harness
tally) as a :class:`Run`, and that object is passed down ``run_batch`` →
``run_experiments`` → ``run_cells``.

Precedence is one rule for every field: an explicit value (a CLI flag,
a keyword argument) wins, else the field's environment spelling, else
its default.  Only ``sanitize`` has an environment spelling,
``REPRO_SANITIZE``, and this module is the one place that reads it.

The open runs are the only ambient run state, and ``os.environ`` is
never written: :meth:`RunConfig.open` makes its :class:`Run` the
innermost open run for as long as it is open, and a pool worker's
initializer makes the dispatching run's config the one open run there
(:func:`open_in_worker`).  A world built without ``sanitize=`` takes
:func:`default_sanitize`: the innermost open run's, else the
environment's; a sanitized world's report goes to every open run
(:func:`collect_sanitizer_report`).
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


#: The open runs of this process, innermost last.
_OPEN: list["Run"] = []


def default_sanitize() -> bool:
    """``sanitize`` of the innermost open run, else ``REPRO_SANITIZE``
    (the only environment variable read as configuration; ``""`` and
    ``"0"`` mean off)."""
    if _OPEN:
        return _OPEN[-1].config.sanitize
    value = os.environ.get("REPRO_SANITIZE", "")  # lint-ok: DET008 the one sanctioned feature-gate reader, read before simulation starts
    return value.strip() not in ("", "0")


def collect_sanitizer_report(report: _t.Any) -> None:
    """Hand a finalized world's sanitizer report to every open run."""
    for run in _OPEN:
        run.sanitizer_reports.append(report)


def open_in_worker(config: "RunConfig") -> "Run":
    """Pool-worker start-up: ``config``'s run (no store) becomes, and is
    returned as, the one open run of this process; a forking parent's
    runs are dropped."""
    _OPEN[:] = [Run(config)]  # lint-ok: DET007 pool start-up opens the dispatching run's config
    return _OPEN[0]


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
    directory; ``sanitize`` whether the run's worlds are sanitized.
    ``sanitize`` left as ``None`` takes :func:`default_sanitize`; after
    construction it is a plain bool.
    """

    quick: bool = True
    seed: int = 1
    jobs: int = 1
    sim_iters: int | None = None
    sanitize: bool | None = None
    store: "str | os.PathLike[str] | None" = None

    def __post_init__(self) -> None:
        from repro.harness.cellstore import store_root

        resolved: dict[str, _t.Any] = {}
        if self.sanitize is None:
            resolved["sanitize"] = default_sanitize()
        elif not isinstance(self.sanitize, bool):
            raise ConfigError(f"sanitize must be a bool or None: {self.sanitize!r}")
        if not isinstance(self.quick, bool):
            raise ConfigError(f"quick must be a bool: {self.quick!r}")
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

    @contextlib.contextmanager
    def open(self) -> _t.Iterator["Run"]:
        """Open this run's resources; the run is the innermost open run
        while the block runs."""
        from repro.harness.cellstore import CellStore

        store = CellStore(self.store) if self.store is not None else None
        run = Run(self, store=store)
        _OPEN.append(run)  # lint-ok: DET007 the open run is ambient until the block exits
        try:
            yield run
        finally:
            _OPEN.pop()  # lint-ok: DET007 undoes the append above


def _harness_stats() -> "HarnessStats":
    from repro.harness.supervisor import HarnessStats

    return HarnessStats()


@dataclasses.dataclass(slots=True)
class Run:
    """One run in progress: its config plus what opening it provided.

    ``store`` is ``None`` when not configured (sweeps then run without
    a store); ``stats`` is the harness tally every sweep of the run
    merges into; ``sanitizer_reports`` collects the reports of the
    sanitized worlds finalized in this process while the run is open,
    and of those its sweeps' pool workers finalized.
    ``Run()`` is a default, unopened run: no store, the default
    ``sanitize``.
    """

    config: RunConfig = dataclasses.field(default_factory=RunConfig)
    store: "CellStore | None" = None
    stats: "HarnessStats" = dataclasses.field(default_factory=_harness_stats)
    sanitizer_reports: list = dataclasses.field(default_factory=list)

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
