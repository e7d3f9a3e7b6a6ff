"""The per-figure/table experiment registry.

Each experiment regenerates one artefact of the paper's evaluation and
returns an :class:`ExperimentOutput` holding the structured data, a text
rendering (the "same rows/series the paper reports"), and a list of
paper-vs-measured comparison points.

Every experiment function takes the open :class:`~repro.config.Run` and
reads what it needs from ``run.config``: ``quick=True`` trims sweep sizes
for test/bench budgets without changing what is measured, ``quick=False``
runs the full grids.

Sweep-style experiments decompose into independent simulation *cells*
(see :mod:`repro.harness.parallel`) keyed by config point and hand them
to ``run_cells`` with the run; ``jobs > 1`` fans the cells over a process
pool with results merged in cell order, so parallel and serial runs are
byte-identical.
"""

from __future__ import annotations

import dataclasses
import typing as _t

import numpy as np

from repro.analysis.stats import SectionStats, render_stats_table
from repro.config import Run, using
from repro.errors import ConfigError
from repro.harness import paper
from repro.harness.figures import (
    percent_delta,
    render_series_table,
    render_speedup_plot,
)
from repro.harness.parallel import Cell, run_cells
from repro.ipm.report import render_fig7_ascii
from repro.platforms import DCC, EC2, VAYU, platform_table


@dataclasses.dataclass(slots=True)
class ExperimentOutput:
    """The result of regenerating one paper artefact."""

    experiment_id: str
    title: str
    data: dict[str, _t.Any]
    text: str
    #: (metric, measured, paper) triples for EXPERIMENTS.md.
    comparisons: list[tuple[str, float, float]] = dataclasses.field(default_factory=list)

    def render(self) -> str:
        lines = [f"=== {self.experiment_id}: {self.title} ===", self.text]
        if self.comparisons:
            lines.append("paper-vs-measured:")
            for metric, measured, ref in self.comparisons:
                lines.append(
                    f"  {metric:<42} measured {measured:>10.2f}  paper "
                    f"{ref:>10.2f}  ({percent_delta(measured, ref)})"
                )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Individual experiments
# ---------------------------------------------------------------------------

_PLATFORMS = (DCC, EC2, VAYU)


def exp_tab1(run: Run) -> ExperimentOutput:
    """Table I: the experimental platforms."""
    text = platform_table()
    return ExperimentOutput("tab1", "Experimental platforms", {"table": text}, text)


def _osu_sizes(quick: bool) -> list[int]:
    if quick:
        return [1, 64, 1024, 16384, 262144, 1 << 22]
    return [2**k for k in range(0, 23)]


def exp_fig1(run: Run) -> ExperimentOutput:
    """Fig 1: OSU bandwidth on the three platforms."""
    quick, seed = run.config.quick, run.config.seed
    sizes = _osu_sizes(quick)
    iters = 4 if quick else 20
    cells = [
        Cell((spec.name,), "osu_curve",
             ("bandwidth", spec.name, tuple(sizes), iters, 1, seed))
        for spec in _PLATFORMS
    ]
    curves = run_cells(cells, run)
    series = {spec.name: curves[(spec.name,)] for spec in _PLATFORMS}
    rows = {n: [series[s.name][n] / 1e6 for s in _PLATFORMS] for n in sizes}
    text = render_series_table(
        "OSU bandwidth (MB/s)", [s.name for s in _PLATFORMS], rows, "{:.1f}",
        row_label="bytes",
    )
    peak = {name: max(curve.values()) for name, curve in series.items()}
    # The paper's "more than one order of magnitude" margin is a
    # per-size statement; it is widest in the latency-bound small/mid
    # range, so compare at 1 KiB.
    margin_size = min(sizes, key=lambda n: abs(n - 1024))
    comparisons = [
        ("EC2 peak bandwidth (B/s)", peak["EC2"], paper.FIG1_LANDMARKS["ec2_peak_bw"]),
        ("DCC peak bandwidth (B/s)", peak["DCC"], paper.FIG1_LANDMARKS["dcc_peak_bw"]),
        (
            "Vayu/EC2 bandwidth margin @1KiB (x)",
            series["Vayu"][margin_size] / series["EC2"][margin_size],
            paper.FIG1_LANDMARKS["vayu_margin_over_ec2"],
        ),
    ]
    return ExperimentOutput("fig1", "OSU MPI bandwidth", {"series": series}, text, comparisons)


def exp_fig2(run: Run) -> ExperimentOutput:
    """Fig 2: OSU latency on the three platforms."""
    quick, seed = run.config.quick, run.config.seed
    sizes = _osu_sizes(quick)
    iters = 20 if quick else 100
    cells = [
        Cell((spec.name,), "osu_curve",
             ("latency", spec.name, tuple(sizes), iters, 2, seed))
        for spec in _PLATFORMS
    ]
    curves = run_cells(cells, run)
    series = {spec.name: curves[(spec.name,)] for spec in _PLATFORMS}
    rows = {n: [series[s.name][n] * 1e6 for s in _PLATFORMS] for n in sizes}
    text = render_series_table(
        "OSU latency (us)", [s.name for s in _PLATFORMS], rows, "{:.2f}",
        row_label="bytes",
    )
    # Fluctuation check: coefficient of variation of DCC's sub-eager
    # latencies after removing the size trend (vs Vayu's).
    def _smallmsg_cv(curve: dict[int, float]) -> float:
        vals = np.array([v for n, v in sorted(curve.items()) if n <= 65536])
        base = vals.min()
        return float((vals - base).std() / vals.mean())

    comparisons = [
        (
            "DCC/Vayu small-message latency ratio",
            series["DCC"][1] / series["Vayu"][1],
            50.0,  # order-of-magnitude from Fig 2's log axis
        ),
    ]
    return ExperimentOutput(
        "fig2", "OSU MPI latency",
        {"series": series, "dcc_cv": _smallmsg_cv(series["DCC"])},
        text, comparisons,
    )


def exp_fig3(run: Run) -> ExperimentOutput:
    """Fig 3: single-process NPB times, normalised to DCC."""
    seed, sim_iters = run.config.seed, run.config.sim_iters
    benches = ("bt", "ep", "cg", "ft", "is", "lu", "mg", "sp")
    cells = [
        Cell((name, spec.name), "npb_point",
             (name, spec.name, 1, seed, "B", sim_iters))
        for name in benches
        for spec in _PLATFORMS
    ]
    points = run_cells(cells, run)
    data: dict[str, dict[str, float]] = {}
    comparisons = []
    for name in benches:
        times = {
            spec.name: points[(name, spec.name)]["projected_time"]
            for spec in _PLATFORMS
        }
        data[name] = times
        comparisons.append(
            (
                f"{name.upper()}.B.1 DCC wall (s)",
                times["DCC"],
                paper.FIG3_DCC_SERIAL_SECONDS[name],
            )
        )
    rows = {
        name.upper(): [
            data[name]["DCC"] / data[name]["DCC"],
            data[name]["EC2"] / data[name]["DCC"],
            data[name]["Vayu"] / data[name]["DCC"],
        ]
        for name in benches
    }
    text = render_series_table(
        "NPB class B serial time normalised to DCC",
        ["DCC", "EC2", "Vayu"], rows, "{:.2f}", row_label="bench",
    )
    return ExperimentOutput("fig3", "NPB serial times", {"times": data}, text, comparisons)


def _npb_counts(name: str, quick: bool) -> list[int]:
    if name in ("bt", "sp"):
        return [1, 4, 16, 64] if quick else [1, 4, 9, 16, 25, 36, 64]
    return [1, 8, 64] if quick else [1, 2, 4, 8, 16, 32, 64]


def exp_fig4(run: Run) -> ExperimentOutput:
    """Fig 4: NPB speedup curves on the three platforms."""
    quick, seed, sim_iters = run.config.quick, run.config.seed, run.config.sim_iters
    benches = ("cg", "ep", "is") if quick else (
        "bt", "ep", "cg", "ft", "is", "lu", "mg", "sp"
    )
    cells = [
        Cell((name, spec.name, p), "npb_point",
             (name, spec.name, p, seed, "B", sim_iters))
        for name in benches
        for spec in _PLATFORMS
        for p in _npb_counts(name, quick)
    ]
    points = run_cells(cells, run)
    plots = []
    data: dict[str, dict[str, dict[int, float]]] = {}
    for name in benches:
        counts = _npb_counts(name, quick)
        series: dict[str, dict[int, float]] = {}
        for spec in _PLATFORMS:
            times = {
                p: points[(name, spec.name, p)]["projected_time"] for p in counts
            }
            base = times[counts[0]]
            series[spec.name] = {p: base / t for p, t in times.items()}
        data[name] = series
        plots.append(render_speedup_plot(f"{name.upper()} speedup (class B)", series))
    return ExperimentOutput(
        "fig4", "NPB speedup scalability", {"series": data}, "\n\n".join(plots)
    )


def exp_tab2(run: Run) -> ExperimentOutput:
    """Table II: IPM percentage communication for CG, FT and IS."""
    quick, seed, sim_iters = run.config.quick, run.config.seed, run.config.sim_iters
    counts = [2, 8, 64] if quick else [2, 4, 8, 16, 32, 64]
    cells = [
        Cell((name, spec.name, p), "npb_point",
             (name, spec.name, p, seed, "B", sim_iters))
        for name in ("cg", "ft", "is")
        for p in counts
        for spec in _PLATFORMS
    ]
    points = run_cells(cells, run)
    blocks = []
    comparisons = []
    data: dict[str, dict[int, tuple[float, float, float]]] = {}
    for name in ("cg", "ft", "is"):
        rows = {}
        data[name] = {}
        for p in counts:
            vals = [
                points[(name, spec.name, p)]["comm_percent"] for spec in _PLATFORMS
            ]
            data[name][p] = tuple(vals)  # type: ignore[assignment]
            rows[p] = vals
            ref = paper.TABLE2_COMM_PERCENT[name][p]
            for i, spec in enumerate(_PLATFORMS):
                comparisons.append(
                    (f"{name.upper()} %comm {spec.name} np={p}", vals[i], ref[i])
                )
        blocks.append(
            render_series_table(
                f"{name.upper()} %comm", [s.name for s in _PLATFORMS], rows,
                "{:.1f}", row_label="np",
            )
        )
    return ExperimentOutput(
        "tab2", "IPM communication percentages", {"comm": data},
        "\n\n".join(blocks), comparisons,
    )


def exp_fig5(run: Run) -> ExperimentOutput:
    """Fig 5: Chaste total and KSp speedups on Vayu and DCC."""
    quick, seed = run.config.quick, run.config.seed
    counts = [8, 32, 64] if quick else [8, 16, 32, 48, 64]
    sim_steps = 2 if quick else 3
    cells = [
        Cell((spec.name, p), "chaste_point", (spec.name, p, seed, sim_steps))
        for spec in (VAYU, DCC)
        for p in counts
    ]
    points = run_cells(cells, run)
    series: dict[str, dict[int, float]] = {}
    t8: dict[str, float] = {}
    for spec in (VAYU, DCC):
        totals = {p: points[(spec.name, p)]["total_time"] for p in counts}
        ksps = {p: points[(spec.name, p)]["ksp_time"] for p in counts}
        t8[f"{spec.name.lower()}_total"] = totals[8]
        t8[f"{spec.name.lower()}_ksp"] = ksps[8]
        series[f"{spec.name} total"] = {p: totals[8] / t for p, t in totals.items()}
        series[f"{spec.name} KSp"] = {p: ksps[8] / t for p, t in ksps.items()}
    text = render_speedup_plot("Chaste speedup over 8 cores", series)
    comparisons = [
        ("Chaste Vayu t8 (s)", t8["vayu_total"], paper.FIG5_T8_ADOPTED["vayu_total"]),
        ("Chaste DCC t8 (s)", t8["dcc_total"], paper.FIG5_T8_ADOPTED["dcc_total"]),
        ("Chaste Vayu KSp t8 (s)", t8["vayu_ksp"], paper.FIG5_T8_ADOPTED["vayu_ksp"]),
        ("Chaste DCC KSp t8 (s)", t8["dcc_ksp"], paper.FIG5_T8_ADOPTED["dcc_ksp"]),
    ]
    return ExperimentOutput(
        "fig5", "Chaste scaling (Vayu vs DCC)", {"series": series, "t8": t8},
        text, comparisons,
    )


def _um_variants() -> list[tuple[str, _t.Any, int | None]]:
    return [("Vayu", VAYU, None), ("DCC", DCC, None), ("EC2", EC2, None),
            ("EC2-4", EC2, 4)]


def exp_fig6(run: Run) -> ExperimentOutput:
    """Fig 6: UM 'warmed' speedups on Vayu, DCC, EC2 and EC2-4."""
    quick, seed = run.config.quick, run.config.seed
    counts = [8, 32, 64] if quick else [8, 16, 32, 48, 64]
    sim_steps = 2 if quick else 3

    def _nodes(label: str, nodes: int | None, p: int) -> int | None:
        if label == "EC2" and nodes is None:
            return max(2, -(-p // 16))
        return nodes

    cells = [
        Cell((label, p), "metum_point",
             (spec.name, p, _nodes(label, nodes, p), seed, sim_steps))
        for label, spec, nodes in _um_variants()
        for p in counts
    ]
    points = run_cells(cells, run)
    series: dict[str, dict[int, float]] = {}
    t8: dict[str, float] = {}
    for label, spec, nodes in _um_variants():
        times = {p: points[(label, p)]["warmed_time"] for p in counts}
        t8[label] = times[8]
        series[label] = {p: times[8] / t for p, t in times.items()}
    text = render_speedup_plot("UM warmed-time speedup over 8 cores", series)
    comparisons = [
        (f"UM {label} t8 (s)", t8[label], paper.FIG6_T8[label])
        for label, _s, _n in _um_variants()
    ]
    return ExperimentOutput(
        "fig6", "MetUM scaling (all platforms)", {"series": series, "t8": t8},
        text, comparisons,
    )


def exp_tab3(run: Run) -> ExperimentOutput:
    """Table III: UM statistics at 32 cores."""
    quick, seed = run.config.quick, run.config.seed
    sim_steps = 2 if quick else 3

    def _nn(label: str, nodes: int | None) -> int | None:
        if label == "EC2" and nodes is None:
            return 2
        return nodes

    cells = [
        Cell((label,), "metum_stats",
             (spec.name, 32, _nn(label, nodes), seed, sim_steps))
        for label, spec, nodes in _um_variants()
    ]
    points = run_cells(cells, run)
    ref = points[("Vayu",)]
    ref_comp, ref_comm = ref["comp"], ref["comm"]
    rows = []
    comparisons = []
    for label, _spec, _nodes in _um_variants():
        r = points[(label,)]
        stats = SectionStats(
            platform=label,
            time=r["time"],
            rcomp=r["comp"] / ref_comp,
            rcomm=r["comm"] / ref_comm if ref_comm > 0 else 0.0,
            comm_percent=r["comm_percent"],
            imbalance_percent=r["imbalance_percent"],
            io_time=r["io"],
        )
        rows.append(stats)
        p = paper.TABLE3_UM_32[label]
        comparisons.extend([
            (f"UM@32 {label} time (s)", stats.time, p["time"]),
            (f"UM@32 {label} rcomp", stats.rcomp, p["rcomp"]),
            (f"UM@32 {label} %comm", stats.comm_percent, p["comm"]),
            (f"UM@32 {label} I/O (s)", stats.io_time, p["io"]),
        ])
    text = render_stats_table(rows)
    return ExperimentOutput(
        "tab3", "UM 32-core statistics", {"rows": rows}, text, comparisons
    )


def exp_fig7(run: Run) -> ExperimentOutput:
    """Fig 7: per-process ATM_STEP breakdown on Vayu and DCC.

    Fig 7 is the per-process view of Table III's 32-core Vayu and DCC
    runs, so its cells carry exactly tab3's payloads: within one run
    they are served from tab3's results instead of simulated again.
    """
    quick, seed = run.config.quick, run.config.seed
    sim_steps = 2 if quick else 3
    cells = [
        Cell((spec.name,), "metum_stats", (spec.name, 32, None, seed, sim_steps))
        for spec in (VAYU, DCC)
    ]
    points = run_cells(cells, run)
    sections = []
    data = {}
    for spec in (VAYU, DCC):
        parts = {
            part: np.asarray(values)
            for part, values in points[(spec.name,)]["breakdown"].items()
        }
        data[spec.name] = parts
        sections.append(f"--- {spec.name} ---")
        sections.append(render_fig7_ascii(parts, "ATM_STEP", width=40))
    dcc = data["DCC"]
    vayu = data["Vayu"]
    comm_dcc = dcc["comm_user"] + dcc["comm_system"]
    comm_vayu = vayu["comm_user"] + vayu["comm_system"]
    # Note: the system-time *attribution* share is a model constant
    # (hypervisor.system_time_share), so comparing it to the paper's
    # "primarily system time" would be circular; only the emergent
    # comm-proportion ratio is a genuine measurement.
    comparisons = [
        (
            "DCC/Vayu comm proportion ratio",
            float(
                (comm_dcc.sum() / (comm_dcc.sum() + dcc["compute"].sum()))
                / (comm_vayu.sum() / (comm_vayu.sum() + vayu["compute"].sum()))
            ),
            42.0 / 13.0,  # Table III proportions
        ),
    ]
    return ExperimentOutput(
        "fig7", "UM per-process time breakdown", {"breakdown": data},
        "\n".join(sections), comparisons,
    )


def exp_arrivef(run: Run) -> ExperimentOutput:
    """ARRIVE-F throughput experiment (section II)."""
    quick, seed = run.config.quick, run.config.seed
    seeds = range(4) if quick else range(12)
    cells = [Cell((s,), "arrivef_point", (seed + s,)) for s in seeds]
    points = run_cells(cells, run)
    runs = [points[(s,)] for s in seeds]
    best = max(r["wait_improvement_pct"] for r in runs)
    mean_impr = sum(r["wait_improvement_pct"] for r in runs) / len(runs)
    text = (
        f"ARRIVE-F relocation on a DCC+Vayu farm over {len(runs)} workloads:\n"
        f"  mean wait improvement: {mean_impr:.1f}%\n"
        f"  best wait improvement: {best:.1f}% (paper: up to "
        f"{paper.ARRIVEF_MAX_WAIT_IMPROVEMENT_PCT:.0f}%)"
    )
    comparisons = [
        ("max wait-time improvement (%)", best, paper.ARRIVEF_MAX_WAIT_IMPROVEMENT_PCT)
    ]
    return ExperimentOutput(
        "arrivef", "ARRIVE-F job-wait improvement", {"runs": runs}, text, comparisons
    )


#: The registry, in the paper's presentation order.
EXPERIMENTS: dict[str, _t.Callable[..., ExperimentOutput]] = {
    "tab1": exp_tab1,
    "fig1": exp_fig1,
    "fig2": exp_fig2,
    "fig3": exp_fig3,
    "fig4": exp_fig4,
    "tab2": exp_tab2,
    "fig5": exp_fig5,
    "fig6": exp_fig6,
    "tab3": exp_tab3,
    "fig7": exp_fig7,
    "arrivef": exp_arrivef,
}


def run_experiment(
    experiment_id: str, run: Run | None = None, **options: _t.Any
) -> ExperimentOutput:
    """Run one registered experiment by id, under ``run`` (else a run
    opened from ``RunConfig(**options)``: ``quick``, ``seed``, ``jobs``,
    ``sim_iters``, ...).

    ``jobs > 1`` fans the experiment's independent sweep cells over a
    process pool; results are merged deterministically, so the output is
    byte-identical to a ``jobs=1`` run at the same seed.  ``sim_iters``
    overrides the NPB steady-loop iteration count (non-NPB experiments
    ignore it).
    """
    try:
        fn = EXPERIMENTS[experiment_id]
    except KeyError:
        raise ConfigError(
            f"unknown experiment {experiment_id!r}; available: {sorted(EXPERIMENTS)}"
        ) from None
    with using(run, **options) as run:
        return fn(run)
