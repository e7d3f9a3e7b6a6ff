"""Derived IPM reports: run summaries and Fig-7-style breakdowns."""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.ipm.loadbalance import imbalance_percent
from repro.ipm.monitor import GLOBAL_REGION, IpmMonitor

if _t.TYPE_CHECKING:  # pragma: no cover
    import numpy as np


@dataclasses.dataclass(frozen=True, slots=True)
class IpmReport:
    """Aggregate statistics for one run (whole program or one region).

    All times are totals across ranks except ``wall_time`` (the run's
    elapsed time) — mirroring IPM's banner output.
    """

    region: str
    nprocs: int
    wall_time: float
    comm_time: float
    compute_time: float
    io_time: float
    comm_percent: float
    imbalance_percent: float
    calls_by_name: dict[str, tuple[int, float]]

    def __str__(self) -> str:
        lines = [
            f"# IPM report  region={self.region}  ranks={self.nprocs}",
            f"#   wall      : {self.wall_time:12.4f} s",
            f"#   comm      : {self.comm_time:12.4f} s  ({self.comm_percent:5.1f} %)",
            f"#   compute   : {self.compute_time:12.4f} s",
            f"#   I/O       : {self.io_time:12.4f} s",
            f"#   %imbal    : {self.imbalance_percent:5.1f} %",
        ]
        if self.calls_by_name:
            lines.append("#   call                count        time(s)")
            for name, (count, time) in sorted(
                self.calls_by_name.items(), key=lambda kv: -kv[1][1]
            ):
                lines.append(f"#   {name:<18} {count:>9} {time:14.4f}")
        return "\n".join(lines)


def summarize(monitor: IpmMonitor, region: str = GLOBAL_REGION) -> IpmReport:
    """Build an :class:`IpmReport` for ``region`` (default: whole run)."""
    comm = compute = io = 0.0
    calls: dict[str, tuple[int, float]] = {}
    for profile in monitor.profiles:
        stats = profile.regions.get(region)
        if stats is None:
            continue
        comm += stats.mpi_time
        compute += stats.compute_time
        io += stats.io_time
        for key, cs in stats.mpi.items():
            count, time = calls.get(key.call, (0, 0.0))
            calls[key.call] = (count + cs.count, time + cs.time)
    total = comm + compute + io
    pct = 100.0 * comm / total if total > 0 else 0.0
    return IpmReport(
        region=region,
        nprocs=monitor.nprocs,
        wall_time=monitor.region_wall(region),
        comm_time=comm,
        compute_time=compute,
        io_time=io,
        comm_percent=pct,
        imbalance_percent=imbalance_percent(monitor, region),
        calls_by_name=calls,
    )


def comm_percent(monitor: IpmMonitor, region: str = GLOBAL_REGION) -> float:
    """Percentage of total rank time spent in MPI (paper Table II)."""
    return summarize(monitor, region).comm_percent


def fig7_breakdown(
    monitor: IpmMonitor, region: str = GLOBAL_REGION
) -> dict[str, np.ndarray]:
    """Per-process time breakdown for ``region`` (paper Fig 7).

    Returns arrays indexed by rank: ``compute``, ``comm_user``,
    ``comm_system`` and ``io``.  Communication is split into user and
    system shares with the platform hypervisor's attribution fraction —
    the paper's Fig 7b shows DCC's MPI time "is primarily in system
    time", whereas Vayu's is not.
    """
    import numpy as np

    n = monitor.nprocs
    compute = np.zeros(n)
    comm = np.zeros(n)
    io = np.zeros(n)
    for i, profile in enumerate(monitor.profiles):
        stats = profile.regions.get(region)
        if stats is None:
            continue
        compute[i] = stats.compute_time
        comm[i] = stats.mpi_time
        io[i] = stats.io_time
    share = monitor.system_time_share
    return {
        "compute": compute,
        "comm_user": comm * (1.0 - share),
        "comm_system": comm * share,
        "io": io,
    }


def render_fig7_ascii(
    parts: _t.Mapping[str, _t.Sequence[float]],
    region: str = GLOBAL_REGION,
    width: int = 60,
) -> str:
    """ASCII rendering of the Fig-7 per-process stacked bars.

    ``parts`` is a :func:`fig7_breakdown` of ``region``, as arrays or as
    float lists indexed by rank, so the rank count is their length.
    """
    totals = [
        compute + user + system + io
        for compute, user, system, io in zip(
            parts["compute"], parts["comm_user"], parts["comm_system"], parts["io"]
        )
    ]
    peak = max(totals, default=0.0)
    if peak <= 0:
        return "(no samples)"
    lines = [f"per-process time breakdown, region={region}"]
    lines.append("  rank |" + " bar (#=compute, u=comm user, s=comm system, i=io)")
    for rank in range(len(totals)):
        segs = []
        for label, key in (("#", "compute"), ("u", "comm_user"), ("s", "comm_system"), ("i", "io")):
            n = int(round(width * parts[key][rank] / peak))
            segs.append(label * n)
        lines.append(f"  {rank:4d} |{''.join(segs)}")
    return "\n".join(lines)
