"""Shared infrastructure for the NPB skeletons.

A benchmark simulates ``sim_iters`` steady-state iterations inside the
:data:`STEADY_REGION` IPM region and projects the full run from them
(:mod:`repro.ipm.projection`)::

    projected_time = setup_time + steady.projected
"""

from __future__ import annotations

import abc
import dataclasses
import typing as _t

from repro.errors import ConfigError
from repro.ipm.monitor import IpmMonitor
from repro.ipm.projection import Steady, steady_steps
from repro.ipm.report import summarize
from repro.npb.classes import NpbClass, problem
from repro.platforms.base import PlatformSpec
from repro.smpi import Placement
from repro.smpi.world import run_program

#: IPM region name wrapping the timed steady-state iterations.
STEADY_REGION = "steady"


@dataclasses.dataclass(slots=True)
class BenchResult:
    """Outcome of one benchmark execution on one platform."""

    bench: str
    klass: str
    nprocs: int
    platform: str
    wall_time: float
    steady: Steady
    monitor: IpmMonitor

    @property
    def setup_time(self) -> float:
        """Non-iterative time (initialisation, warm-up)."""
        return max(0.0, self.wall_time - self.steady.time)

    @property
    def projected_time(self) -> float:
        """Projected full-run elapsed time (the Fig 3/4 quantity)."""
        return self.setup_time + self.steady.projected

    @property
    def comm_percent(self) -> float:
        """Steady-state communication percentage (the Table II quantity)."""
        return summarize(self.monitor, STEADY_REGION).comm_percent

    def label(self) -> str:
        """Paper-style run label, e.g. ``CG.B.16``."""
        return f"{self.bench.upper()}.{self.klass}.{self.nprocs}"


class NpbBenchmark(abc.ABC):
    """Base class for the eight NPB skeletons."""

    #: Benchmark short name, e.g. ``"cg"`` (set by subclasses).
    name: str = ""
    #: Default number of simulated steady iterations.
    default_sim_iters: int = 3

    def __init__(self, klass: str = "B", sim_iters: int | None = None) -> None:
        self.cfg: NpbClass = problem(self.name, klass)
        self.sim_iters = steady_steps(
            self.default_sim_iters if sim_iters is None else sim_iters,
            self.cfg.iterations, "sim_iters",
        )

    # -- to be provided by subclasses ---------------------------------------
    @abc.abstractmethod
    def iteration(self, comm, it: int) -> _t.Generator:
        """One steady-state iteration on one rank."""

    def setup(self, comm) -> _t.Generator:
        """Pre-loop initialisation (default: one untimed iteration)."""
        yield from self.iteration(comm, -1)

    def valid_nprocs(self, nprocs: int) -> bool:
        """Whether the benchmark accepts this process count (default:
        powers of two, the rule for CG/FT/IS/LU/MG/EP)."""
        return nprocs >= 1 and (nprocs & (nprocs - 1)) == 0

    # -- driver ---------------------------------------------------------------
    def make_program(self) -> _t.Callable[..., _t.Generator]:
        bench = self

        def program(comm) -> _t.Generator:
            yield from bench.setup(comm)
            yield from comm.barrier()
            with comm.region(STEADY_REGION):
                for it in range(bench.sim_iters):
                    yield from bench.iteration(comm, it)
            return None

        program.__name__ = f"npb_{bench.name}"
        return program

    def run(
        self,
        platform: PlatformSpec,
        nprocs: int,
        *,
        placement: Placement | None = None,
        seed: int = 0,
    ) -> BenchResult:
        """Execute the skeleton and return a :class:`BenchResult`."""
        if not self.valid_nprocs(nprocs):
            raise ConfigError(
                f"{self.name.upper()} does not support nprocs={nprocs}"
            )
        result = run_program(
            platform, nprocs, self.make_program(),
            placement=placement, seed=seed,
        )
        return BenchResult(
            bench=self.name,
            klass=self.cfg.klass,
            nprocs=nprocs,
            platform=platform.name,
            wall_time=result.wall_time,
            steady=Steady(
                result.monitor.region_wall(STEADY_REGION),
                self.sim_iters, self.cfg.iterations,
            ),
            monitor=result.monitor,
        )

    def local_ws(self, comm) -> float:
        """This rank's resident working set (its share of the footprint)."""
        return self.cfg.footprint_bytes / comm.size

    # -- shared decomposition helpers ------------------------------------------
    @staticmethod
    def grid2d(p: int) -> tuple[int, int]:
        """Near-square 2-D factorisation of a power-of-two ``p``:
        ``(px, py)`` with ``px <= py`` and ``px * py == p``."""
        if p < 1 or p & (p - 1):
            raise ConfigError(f"grid2d needs a power of two, got {p}")
        log = p.bit_length() - 1
        px = 1 << (log // 2)
        return px, p // px

    @staticmethod
    def grid3d(p: int) -> tuple[int, int, int]:
        """Near-cubic 3-D factorisation of a power-of-two ``p``."""
        if p < 1 or p & (p - 1):
            raise ConfigError(f"grid3d needs a power of two, got {p}")
        log = p.bit_length() - 1
        a = log // 3
        b = (log - a) // 2
        c = log - a - b
        dims = sorted([1 << a, 1 << b, 1 << c])
        return dims[0], dims[1], dims[2]

    @staticmethod
    def split_extent(n: int, parts: int, index: int) -> int:
        """Size of chunk ``index`` when ``n`` points split over ``parts``
        (first ``n % parts`` chunks get the extra point) — the source of
        the natural load imbalance of non-divisible grids."""
        if parts < 1 or not (0 <= index < parts):
            raise ConfigError(f"bad split: n={n} parts={parts} index={index}")
        base, extra = divmod(n, parts)
        return base + (1 if index < extra else 0)


def intra_fraction(stride: int, ranks_per_node: int) -> float:
    """Fraction of rank-``stride`` neighbour links that stay on-node under
    block placement (rank ``r`` lives on node ``r // rpn``)."""
    if ranks_per_node < 1:
        raise ConfigError(f"ranks_per_node must be >= 1: {ranks_per_node}")
    if stride <= 0:
        return 1.0
    return max(0.0, 1.0 - stride / ranks_per_node)


def mixed_msg_time(ctx, nbytes: float, stride: int) -> float:
    """Expected one-message time for a rank-``stride`` neighbour exchange:
    a blend of shared-memory and fabric paths by :func:`intra_fraction`."""
    frac = intra_fraction(stride, ctx.rpn)
    if frac >= 1.0:
        return ctx.shm_msg(nbytes)
    return frac * ctx.shm_msg(nbytes) + (1.0 - frac) * ctx.net_msg(
        nbytes, link_share=max(1, min(ctx.rpn, stride))
    )
