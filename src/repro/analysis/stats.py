"""Performance-analysis helpers for the study results.

These functions compute exactly the derived quantities the paper
reports: speedup series (Figs 4-6), times normalised to a reference
platform (Fig 3), and the Table III statistics — computation and
communication ratios relative to a reference platform, communication
percentage, load imbalance and I/O time.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.errors import ConfigError


def speedup_series(
    times: _t.Mapping[int, float], base_procs: int | None = None
) -> dict[int, float]:
    """Speedups of a ``{nprocs: time}`` map relative to ``base_procs``.

    ``base_procs`` defaults to the smallest process count present (the
    paper uses 1 for NPB and 8 for the applications).
    """
    if not times:
        raise ConfigError("empty time series")
    base = base_procs if base_procs is not None else min(times)
    if base not in times:
        raise ConfigError(f"base process count {base} missing from series")
    t0 = times[base]
    if t0 <= 0:
        raise ConfigError(f"non-positive base time: {t0}")
    return {p: t0 / t for p, t in sorted(times.items())}


def normalized_times(
    times: _t.Mapping[str, float], reference: str
) -> dict[str, float]:
    """Times per platform normalised to ``reference`` (Fig 3 style)."""
    if reference not in times:
        raise ConfigError(f"reference platform {reference!r} missing")
    ref = times[reference]
    if ref <= 0:
        raise ConfigError(f"non-positive reference time: {ref}")
    return {name: t / ref for name, t in times.items()}


@dataclasses.dataclass(frozen=True, slots=True)
class SectionStats:
    """One platform's row of a Table-III-style statistics block."""

    platform: str
    time: float
    rcomp: float
    rcomm: float
    comm_percent: float
    imbalance_percent: float
    io_time: float

    def row(self) -> dict[str, str]:
        return {
            "": self.platform,
            "time(s)": f"{self.time:.0f}",
            "rcomp": f"{self.rcomp:.2f}",
            "rcomm": f"{self.rcomm:.2f}",
            "%comm": f"{self.comm_percent:.0f}",
            "%imbal": f"{self.imbalance_percent:.0f}",
            "I/O (s)": f"{self.io_time:.1f}",
        }


def table3_stats(
    results: _t.Mapping[str, _t.Mapping[str, float]],
    reference_platform: str = "Vayu",
) -> list[SectionStats]:
    """Build Table III from ``{label: metum_point result}`` (one per run).

    Labels like ``"EC2-4"`` distinguish placements on the same platform;
    rows follow the mapping's order.  Each result carries the run's
    ``total_time``, per-rank ``comp``/``comm`` totals, ``comm_percent``,
    ``imbalance_percent`` and ``io`` (the
    :func:`~repro.harness.parallel.metum_point` cell worker's keys).
    ``rcomp``/``rcomm`` are the computation/communication time ratios
    relative to the reference platform, as the paper defines them.
    """
    if reference_platform not in results:
        raise ConfigError(
            f"reference platform {reference_platform!r} not among results "
            f"({sorted(results)})"
        )
    ref = results[reference_platform]
    ref_comp, ref_comm = ref["comp"], ref["comm"]
    return [
        SectionStats(
            platform=label,
            time=r["total_time"],
            rcomp=r["comp"] / ref_comp if ref_comp > 0 else 0.0,
            rcomm=r["comm"] / ref_comm if ref_comm > 0 else 0.0,
            comm_percent=r["comm_percent"],
            imbalance_percent=r["imbalance_percent"],
            io_time=r["io"],
        )
        for label, r in results.items()
    ]


def render_stats_table(rows: _t.Sequence[SectionStats]) -> str:
    """Render a Table-III-style block as aligned text."""
    if not rows:
        return "(no rows)"
    dicts = [r.row() for r in rows]
    fields = list(dicts[0].keys())
    widths = {f: max(len(f), *(len(d[f]) for d in dicts)) for f in fields}
    lines = ["  ".join(f.ljust(widths[f]) for f in fields)]
    for d in dicts:
        lines.append("  ".join(d[f].ljust(widths[f]) for f in fields))
    return "\n".join(lines)
