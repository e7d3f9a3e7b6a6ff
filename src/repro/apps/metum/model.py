"""The MetUM benchmark driver.

Per-timestep structure (the ``ATM_STEP`` region, with phase sub-regions):

* ``atm_dynamics`` — semi-Lagrangian advection and continuity: the bulk
  of the halo traffic (wide halos, many exchanged fields);
* ``atm_helmholtz`` — the semi-implicit Helmholtz solve: tens of
  iterations, each a thin single-field halo swap plus an 8-byte
  all-reduce (the short-collective load the paper blames for DCC's
  communication costs);
* ``atm_physics`` — column physics: no communication, but
  latitude-weighted cost (the structured part of the load imbalance).

Work calibration (documented in EXPERIMENTS.md): total flops/traffic are
fitted to the paper's ``t8`` values — Vayu 963 s (memory-bound at 8
ranks/node), EC2 812 s (same silicon, undersubscribed over 2 nodes,
hence *faster* than Vayu at 8), DCC 1486 s — and Table III's 32-core
times follow from the platform models.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.apps.metum.grid import N320L70, decompose, physics_weight
from repro.errors import ConfigError
from repro.ipm.monitor import IpmMonitor
from repro.ipm.projection import Steady, steady_steps, timed_steps
from repro.ipm.report import summarize
from repro.npb.base import mixed_msg_time
from repro.platforms.base import PlatformSpec
from repro.smpi import Placement
from repro.smpi.world import run_program

#: IPM region names.
IO_REGION = "IO"
STEP_REGION = "ATM_STEP"


@dataclasses.dataclass(frozen=True, slots=True)
class MetumConfig:
    """The N320L70 benchmark configuration."""

    grid: tuple[int, int, int] = N320L70
    timesteps: int = 18
    dump_bytes: float = 1.6e9
    #: Whole-run work over all timesteps (fitted to the paper's t8 set).
    total_flops: float = 2.1e13
    total_mem_bytes: float = 2.88e13
    #: Resident model state; drives the EC2 "cannot run on fewer than
    #: two nodes" memory constraint.
    footprint_bytes: float = 22e9
    #: Phase split of the per-step compute.
    dynamics_frac: float = 0.35
    helmholtz_frac: float = 0.30
    physics_frac: float = 0.35
    #: Halo model: exchange depth (points) and full-field exchanges per
    #: step across all advected/updated variables.
    halo_depth: int = 4
    halo_exchanges: int = 120
    #: Helmholtz solver iterations per step.
    helmholtz_iters: int = 100

    def __post_init__(self) -> None:
        total = self.dynamics_frac + self.helmholtz_frac + self.physics_frac
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"phase fractions must sum to 1, got {total}")

    @property
    def points(self) -> int:
        nx, ny, nz = self.grid
        return nx * ny * nz

    def min_nodes(self, node_dram_bytes: float) -> int:
        """Smallest node count whose aggregate memory holds the model."""
        return max(1, -(-int(self.footprint_bytes) // int(node_dram_bytes)))


@dataclasses.dataclass(slots=True)
class MetumResult:
    """Outcome of one MetUM run."""

    nprocs: int
    platform: str
    placement_nodes: int
    wall_time: float
    steady: Steady
    io_time: float
    monitor: IpmMonitor

    @property
    def warmed_time(self) -> float:
        """The Fig 6 quantity: steady per-step time over all timesteps."""
        return self.steady.projected

    @property
    def total_time(self) -> float:
        """The Table III 'time' quantity: warmed time plus I/O."""
        return self.warmed_time + self.io_time

    def comm_percent(self, region: str = STEP_REGION) -> float:
        return summarize(self.monitor, region).comm_percent

    def comm_time(self, region: str = STEP_REGION) -> float:
        """Mean per-rank MPI seconds in ``region``, projected to the
        full run length."""
        rep = summarize(self.monitor, region)
        return self.steady.scale(rep.comm_time / self.monitor.nprocs)

    def compute_time(self, region: str = STEP_REGION) -> float:
        """Mean per-rank compute seconds in ``region`` (projected)."""
        rep = summarize(self.monitor, region)
        return self.steady.scale(rep.compute_time / self.monitor.nprocs)

    def imbalance_percent(self, region: str = STEP_REGION) -> float:
        from repro.ipm.loadbalance import imbalance_percent

        return imbalance_percent(self.monitor, region)


class MetumBenchmark:
    """Runs the MetUM skeleton on a platform model."""

    def __init__(self, config: MetumConfig | None = None, sim_steps: int = 3) -> None:
        self.cfg = config or MetumConfig()
        self.sim_steps = steady_steps(sim_steps, self.cfg.timesteps)

    # -- placement ----------------------------------------------------------
    def placement_for(
        self, platform: PlatformSpec, nprocs: int, num_nodes: int | None = None
    ) -> Placement:
        """Choose a placement honouring the memory constraint.

        EC2's 20 GB nodes cannot hold the ~30 GB model on one node,
        reproducing the paper's "could not be run on fewer than 2
        nodes"; when a node count is given (the EC2-4 series) processes
        are distributed evenly (cyclic), as the paper describes.
        """
        min_nodes = self.cfg.min_nodes(platform.node.dram_bytes)
        slots = platform.node.cpu.schedulable_slots
        needed = max(min_nodes, -(-nprocs // slots))
        nodes = num_nodes if num_nodes is not None else needed
        if nodes < needed:
            raise ConfigError(
                f"MetUM needs >= {needed} {platform.name} nodes for "
                f"{nprocs} ranks (memory/slots), got {nodes}"
            )
        if nodes > platform.num_nodes:
            raise ConfigError(
                f"{platform.name} has only {platform.num_nodes} nodes; "
                f"{nodes} requested"
            )
        if nprocs < nodes:
            raise ConfigError(f"cannot spread {nprocs} ranks over {nodes} nodes")
        return Placement(strategy="cyclic", num_nodes=nodes)

    # -- program --------------------------------------------------------------
    def make_program(self) -> _t.Callable[..., _t.Generator]:
        cfg = self.cfg
        sim_steps = self.sim_steps

        def program(comm) -> _t.Generator:
            p = comm.size
            sub, ew, ns = decompose(cfg.grid, p, comm.rank)
            share = sub.points / cfg.points
            w_step = cfg.total_flops / cfg.timesteps * share
            q_step = cfg.total_mem_bytes / cfg.timesteps * share
            ws = cfg.footprint_bytes * share
            phys_w = physics_weight(sub, ew, ns)

            # Initial dump read: rank 0 reads, then scatters the fields.
            with comm.region(IO_REGION):
                if comm.rank == 0:
                    yield from comm.io_read(cfg.dump_bytes, concurrent=1)
                yield from comm.scatter(
                    cfg.dump_bytes / max(1, p), root=0,
                    values=[None] * p if comm.rank == 0 else None,
                )

            # Halo message sizes (bytes): depth x edge x levels x 8.
            ew_face = 8 * cfg.halo_depth * sub.ny * sub.levels
            ns_face = 8 * cfg.halo_depth * sub.nx * sub.levels
            thin_ew = ew_face // cfg.halo_depth
            thin_ns = ns_face // cfg.halo_depth

            def advection_halo(ctx, _n: float) -> float:
                per_exchange = 2.0 * mixed_msg_time(ctx, ew_face, 1) + 2.0 * (
                    mixed_msg_time(ctx, ns_face, ew)
                )
                return cfg.halo_exchanges * per_exchange

            def helmholtz_halo(ctx, _n: float) -> float:
                return 2.0 * mixed_msg_time(ctx, thin_ew, 1) + 2.0 * mixed_msg_time(
                    ctx, thin_ns, ew
                )

            def polar_comm(ctx, _n: float) -> float:
                # Polar rows gather/filter along the EW ring; only the
                # polar ranks pay, but the step synchronises everyone.
                rounds = max(1, ew.bit_length() - 1)
                return rounds * mixed_msg_time(ctx, 8 * sub.nx * sub.levels, 1)

            halo_volume = cfg.halo_exchanges * 2 * (ew_face + ns_face)
            # Back-to-back phases run as chains: one resume per rank.
            dynamics_comm = (
                comm.composite_phase(
                    "MPI_Sendrecv(swap_bounds)", halo_volume, advection_halo
                ),
                comm.composite_phase(
                    "MPI_Gatherv(polar)", 8 * sub.nx * sub.levels, polar_comm
                ),
            )
            helmholtz_comm = (
                comm.composite_phase(
                    "MPI_Sendrecv(helm_halo)", 2 * (thin_ew + thin_ns), helmholtz_halo
                ),
                comm.allreduce_phase(8),
            )
            # A Helmholtz iteration is this solver burst, then
            # ``helmholtz_comm``; the loop of them is one chain.
            helmholtz_burst = comm.compute_phase(
                flops=w_step * cfg.helmholtz_frac / cfg.helmholtz_iters,
                mem_bytes=q_step * cfg.helmholtz_frac / cfg.helmholtz_iters,
                working_set=ws,
            )

            def atm_step(mark) -> _t.Generator:
                with mark("atm_dynamics"):
                    yield from comm.compute(
                        flops=w_step * cfg.dynamics_frac,
                        mem_bytes=q_step * cfg.dynamics_frac,
                        working_set=ws,
                    )
                    if p > 1:
                        yield from comm.chain(*dynamics_comm)
                with mark("atm_helmholtz"):
                    if p > 1:
                        yield from comm.chain(
                            helmholtz_burst, *helmholtz_comm, repeat=cfg.helmholtz_iters
                        )
                    else:
                        for _ in range(cfg.helmholtz_iters):
                            yield from comm.compute(*helmholtz_burst)
                with mark("atm_physics"):
                    yield from comm.compute(
                        flops=w_step * cfg.physics_frac * phys_w,
                        mem_bytes=q_step * cfg.physics_frac * phys_w,
                        working_set=ws,
                    )

            # The warm-up step's spin-up costs stay out of 'warmed' time.
            yield from timed_steps(comm, STEP_REGION, sim_steps, atm_step)
            return None

        program.__name__ = "metum"
        return program

    # -- driver ------------------------------------------------------------------
    def run(
        self,
        platform: PlatformSpec,
        nprocs: int,
        *,
        num_nodes: int | None = None,
        seed: int = 0,
    ) -> MetumResult:
        placement = self.placement_for(platform, nprocs, num_nodes)
        result = run_program(
            platform, nprocs, self.make_program(),
            placement=placement, seed=seed,
        )
        mon = result.monitor
        io_time = max(
            (p.regions[IO_REGION].io_time for p in mon.profiles if IO_REGION in p.regions),
            default=0.0,
        )
        return MetumResult(
            nprocs=nprocs,
            platform=platform.name,
            placement_nodes=placement.num_nodes or 0,
            wall_time=result.wall_time,
            steady=Steady(
                mon.region_wall(STEP_REGION), self.sim_steps, self.cfg.timesteps
            ),
            io_time=io_time,
            monitor=mon,
        )
