"""The per-figure/table experiment registry.

Each experiment regenerates one artefact of the paper's evaluation and
is two functions.  Its builder ``(RunConfig) -> list[Cell]`` in
:data:`CELLS` declares the independent simulation *cells* (see
:mod:`repro.harness.parallel`) it needs, keyed by config point; ``tab1``
declares none.  Its renderer in :data:`EXPERIMENTS`, ``(RunConfig,
{key: result}) -> ExperimentOutput``, turns those cells' results into
the structured data, a text rendering (the "same rows/series the paper
reports") and a list of paper-vs-measured comparison points.  A
renderer never sweeps.

Both read what they need from the config: ``quick=True`` trims sweep
sizes for test/bench budgets without changing what is measured,
``quick=False`` runs the full grids.

:func:`run_experiments` is a batch: it runs every cell its experiments
declare in one sweep, then renders each experiment from its slice of
the results.  ``jobs > 1`` fans the cells over a process pool with
results merged in cell order, so parallel and serial runs are
byte-identical.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.analysis.stats import (
    normalized_times,
    render_stats_table,
    speedup_series,
    table3_stats,
)
from repro.config import Run, RunConfig
from repro.errors import CellExecutionError
from repro.harness import paper
from repro.harness.figures import (
    percent_delta,
    render_series_table,
    render_speedup_plot,
)
from repro.harness.parallel import Cell
from repro.harness.supervisor import run_cells
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


def exp_tab1(config: RunConfig, points: dict) -> ExperimentOutput:
    """Table I: the experimental platforms."""
    text = platform_table()
    return ExperimentOutput("tab1", "Experimental platforms", {"table": text}, text)


def _osu_sizes(quick: bool) -> list[int]:
    if quick:
        return [1, 64, 1024, 16384, 262144, 1 << 22]
    return [2**k for k in range(0, 23)]


def _osu_cells(
    config: RunConfig, kind: str, iters: int, warmup: int
) -> list[Cell]:
    sizes = tuple(_osu_sizes(config.quick))
    return [
        Cell((spec.name,), "osu_curve",
             (kind, spec.name, sizes, iters, warmup, config.seed))
        for spec in _PLATFORMS
    ]


def _fig1_cells(config: RunConfig) -> list[Cell]:
    return _osu_cells(config, "bandwidth", 4 if config.quick else 20, 1)


def exp_fig1(config: RunConfig, points: dict) -> ExperimentOutput:
    """Fig 1: OSU bandwidth on the three platforms."""
    sizes = _osu_sizes(config.quick)
    series = {spec.name: points[(spec.name,)] for spec in _PLATFORMS}
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


def _fig2_cells(config: RunConfig) -> list[Cell]:
    return _osu_cells(config, "latency", 20 if config.quick else 100, 2)


def exp_fig2(config: RunConfig, points: dict) -> ExperimentOutput:
    """Fig 2: OSU latency on the three platforms."""
    sizes = _osu_sizes(config.quick)
    series = {spec.name: points[(spec.name,)] for spec in _PLATFORMS}
    rows = {n: [series[s.name][n] * 1e6 for s in _PLATFORMS] for n in sizes}
    text = render_series_table(
        "OSU latency (us)", [s.name for s in _PLATFORMS], rows, "{:.2f}",
        row_label="bytes",
    )
    comparisons = [
        (
            "DCC/Vayu small-message latency ratio",
            series["DCC"][1] / series["Vayu"][1],
            50.0,  # order-of-magnitude from Fig 2's log axis
        ),
    ]
    return ExperimentOutput(
        "fig2", "OSU MPI latency", {"series": series}, text, comparisons
    )


_NPB_BENCHES = ("bt", "ep", "cg", "ft", "is", "lu", "mg", "sp")


def _npb_cell(key: tuple, name: str, spec: _t.Any, p: int, config: RunConfig) -> Cell:
    return Cell(key, "npb_point",
                (name, spec.name, p, config.seed, "B", config.sim_iters))


def _fig3_cells(config: RunConfig) -> list[Cell]:
    return [
        _npb_cell((name, spec.name), name, spec, 1, config)
        for name in _NPB_BENCHES
        for spec in _PLATFORMS
    ]


def exp_fig3(config: RunConfig, points: dict) -> ExperimentOutput:
    """Fig 3: single-process NPB times, normalised to DCC."""
    data: dict[str, dict[str, float]] = {}
    rows = {}
    comparisons = []
    for name in _NPB_BENCHES:
        times = {
            spec.name: points[(name, spec.name)]["projected_time"]
            for spec in _PLATFORMS
        }
        data[name] = times
        normalized = normalized_times(times, "DCC")
        rows[name.upper()] = [normalized[n] for n in ("DCC", "EC2", "Vayu")]
        comparisons.append(
            (
                f"{name.upper()}.B.1 DCC wall (s)",
                times["DCC"],
                paper.FIG3_DCC_SERIAL_SECONDS[name],
            )
        )
    text = render_series_table(
        "NPB class B serial time normalised to DCC",
        ["DCC", "EC2", "Vayu"], rows, "{:.2f}", row_label="bench",
    )
    return ExperimentOutput("fig3", "NPB serial times", {"times": data}, text, comparisons)


def _npb_counts(name: str, quick: bool) -> list[int]:
    if name in ("bt", "sp"):
        return [1, 4, 16, 64] if quick else [1, 4, 9, 16, 25, 36, 64]
    return [1, 8, 64] if quick else [1, 2, 4, 8, 16, 32, 64]


def _fig4_benches(quick: bool) -> tuple[str, ...]:
    return ("cg", "ep", "is") if quick else _NPB_BENCHES


def _fig4_cells(config: RunConfig) -> list[Cell]:
    return [
        _npb_cell((name, spec.name, p), name, spec, p, config)
        for name in _fig4_benches(config.quick)
        for spec in _PLATFORMS
        for p in _npb_counts(name, config.quick)
    ]


def exp_fig4(config: RunConfig, points: dict) -> ExperimentOutput:
    """Fig 4: NPB speedup curves on the three platforms."""
    quick = config.quick
    benches = _fig4_benches(quick)
    plots = []
    data: dict[str, dict[str, dict[int, float]]] = {}
    for name in benches:
        counts = _npb_counts(name, quick)
        series: dict[str, dict[int, float]] = {}
        for spec in _PLATFORMS:
            times = {
                p: points[(name, spec.name, p)]["projected_time"] for p in counts
            }
            series[spec.name] = speedup_series(times, counts[0])
        data[name] = series
        plots.append(render_speedup_plot(f"{name.upper()} speedup (class B)", series))
    return ExperimentOutput(
        "fig4", "NPB speedup scalability", {"series": data}, "\n\n".join(plots)
    )


def _tab2_counts(quick: bool) -> list[int]:
    return [2, 8, 64] if quick else [2, 4, 8, 16, 32, 64]


def _tab2_cells(config: RunConfig) -> list[Cell]:
    return [
        _npb_cell((name, spec.name, p), name, spec, p, config)
        for name in ("cg", "ft", "is")
        for p in _tab2_counts(config.quick)
        for spec in _PLATFORMS
    ]


def exp_tab2(config: RunConfig, points: dict) -> ExperimentOutput:
    """Table II: IPM percentage communication for CG, FT and IS."""
    counts = _tab2_counts(config.quick)
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


def _app_counts(quick: bool) -> list[int]:
    """Core counts of the Chaste and UM scaling runs (Figs 5 and 6)."""
    return [8, 32, 64] if quick else [8, 16, 32, 48, 64]


def _sim_steps(quick: bool) -> int:
    """Simulated steps of every Chaste and UM run."""
    return 2 if quick else 3


def _fig5_cells(config: RunConfig) -> list[Cell]:
    steps = _sim_steps(config.quick)
    return [
        Cell((spec.name, p), "chaste_point", (spec.name, p, config.seed, steps))
        for spec in (VAYU, DCC)
        for p in _app_counts(config.quick)
    ]


def exp_fig5(config: RunConfig, points: dict) -> ExperimentOutput:
    """Fig 5: Chaste total and KSp speedups on Vayu and DCC."""
    counts = _app_counts(config.quick)
    series: dict[str, dict[int, float]] = {}
    t8: dict[str, float] = {}
    for spec in (VAYU, DCC):
        totals = {p: points[(spec.name, p)]["total_time"] for p in counts}
        ksps = {p: points[(spec.name, p)]["ksp_time"] for p in counts}
        t8[f"{spec.name.lower()}_total"] = totals[8]
        t8[f"{spec.name.lower()}_ksp"] = ksps[8]
        series[f"{spec.name} total"] = speedup_series(totals, 8)
        series[f"{spec.name} KSp"] = speedup_series(ksps, 8)
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


def _fig6_cells(config: RunConfig) -> list[Cell]:
    steps = _sim_steps(config.quick)

    def _nodes(label: str, nodes: int | None, p: int) -> int | None:
        if label == "EC2" and nodes is None:
            return max(2, -(-p // 16))
        return nodes

    return [
        Cell((label, p), "metum_point",
             (spec.name, p, _nodes(label, nodes, p), config.seed, steps))
        for label, spec, nodes in _um_variants()
        for p in _app_counts(config.quick)
    ]


def exp_fig6(config: RunConfig, points: dict) -> ExperimentOutput:
    """Fig 6: UM 'warmed' speedups on Vayu, DCC, EC2 and EC2-4."""
    counts = _app_counts(config.quick)
    series: dict[str, dict[int, float]] = {}
    t8: dict[str, float] = {}
    for label, spec, nodes in _um_variants():
        times = {p: points[(label, p)]["warmed_time"] for p in counts}
        t8[label] = times[8]
        series[label] = speedup_series(times, 8)
    text = render_speedup_plot("UM warmed-time speedup over 8 cores", series)
    comparisons = [
        (f"UM {label} t8 (s)", t8[label], paper.FIG6_T8[label])
        for label, _s, _n in _um_variants()
    ]
    return ExperimentOutput(
        "fig6", "MetUM scaling (all platforms)", {"series": series, "t8": t8},
        text, comparisons,
    )


def _tab3_cells(config: RunConfig) -> list[Cell]:
    """Fig 6's 32-core cells, keyed ``(label,)``.

    Table III and Fig 7 are IPM views of the 32-core runs Fig 6 times,
    so their cells carry exactly Fig 6's payloads and a batch simulates
    each of those worlds once.
    """
    return [
        Cell(cell.key[:1], cell.worker, cell.args)
        for cell in _fig6_cells(config)
        if cell.key[1] == 32
    ]


def exp_tab3(config: RunConfig, points: dict) -> ExperimentOutput:
    """Table III: UM statistics at 32 cores."""
    rows = table3_stats(
        {label: points[(label,)] for label, _spec, _nodes in _um_variants()},
        reference_platform="Vayu",
    )
    comparisons = []
    for stats in rows:
        label = stats.platform
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


def _fig7_cells(config: RunConfig) -> list[Cell]:
    return [cell for cell in _tab3_cells(config)
            if cell.key[0] in (VAYU.name, DCC.name)]


def exp_fig7(config: RunConfig, points: dict) -> ExperimentOutput:
    """Fig 7: per-process ATM_STEP breakdown on Vayu and DCC.

    Fig 7 is the per-process view of Fig 6's 32-core Vayu and DCC runs
    (also Table III's), so within one batch its cells are twins of
    those and are not simulated again.
    """
    sections = []
    data = {}
    for spec in (VAYU, DCC):
        parts = points[(spec.name,)]["breakdown"]
        data[spec.name] = parts
        sections.append(f"--- {spec.name} ---")
        sections.append(render_fig7_ascii(parts, "ATM_STEP", width=40))

    def comm_share(point: dict[str, _t.Any]) -> float:
        sums = point["breakdown_sums"]
        return sums["comm"] / (sums["comm"] + sums["compute"])

    # Note: the system-time *attribution* share is a model constant
    # (hypervisor.system_time_share), so comparing it to the paper's
    # "primarily system time" would be circular; only the emergent
    # comm-proportion ratio is a genuine measurement.
    comparisons = [
        (
            "DCC/Vayu comm proportion ratio",
            comm_share(points[(DCC.name,)]) / comm_share(points[(VAYU.name,)]),
            42.0 / 13.0,  # Table III proportions
        ),
    ]
    return ExperimentOutput(
        "fig7", "UM per-process time breakdown", {"breakdown": data},
        "\n".join(sections), comparisons,
    )


def _arrivef_cells(config: RunConfig) -> list[Cell]:
    seeds = range(4) if config.quick else range(12)
    return [Cell((s,), "arrivef_point", (config.seed + s,)) for s in seeds]


def exp_arrivef(config: RunConfig, points: dict) -> ExperimentOutput:
    """ARRIVE-F throughput experiment (section II)."""
    runs = list(points.values())
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


#: The renderers, by experiment id, in the paper's presentation order.
EXPERIMENTS: dict[str, _t.Callable[[RunConfig, dict], ExperimentOutput]] = {
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

#: The cells each experiment declares, by experiment id; an experiment
#: without an entry (``tab1``) declares none.
CELLS: dict[str, _t.Callable[[RunConfig], list[Cell]]] = {
    "fig1": _fig1_cells,
    "fig2": _fig2_cells,
    "fig3": _fig3_cells,
    "fig4": _fig4_cells,
    "tab2": _tab2_cells,
    "fig5": _fig5_cells,
    "fig6": _fig6_cells,
    "tab3": _tab3_cells,
    "fig7": _fig7_cells,
    "arrivef": _arrivef_cells,
}


def _failed_output(eid: str, err: CellExecutionError) -> ExperimentOutput:
    """Render an experiment whose cells failed as an explicit
    ``FAILED(worker-exception)`` entry instead of dying mid-batch."""
    first_line = str(err).splitlines()[0]
    return ExperimentOutput(
        experiment_id=eid,
        title="FAILED(worker-exception)",
        data={"error": str(err), "cell_key": err.key},
        text=f"FAILED(worker-exception): {first_line}",
    )


def run_experiments(
    ids: _t.Sequence[str],
    run: Run,
    progress: _t.Callable[[str], None] | None = None,
) -> tuple[dict[str, ExperimentOutput], dict[str, CellExecutionError]]:
    """Run the experiments ``ids`` under ``run`` as one batch: ``(outputs,
    failures)``, both by experiment id.

    Every cell the experiments declare goes into one sweep, keyed
    ``(experiment, key)``, in the order of ``ids``.  Then each
    experiment, in that order, after ``progress(eid)``, is rendered from
    its own cells' results under their own keys.  An experiment with a
    failed cell is not rendered: it becomes a ``FAILED(worker-exception)``
    entry for its first failed cell in its own cell order, under its own
    key.
    """
    declared = {eid: CELLS[eid](run.config) if eid in CELLS else [] for eid in ids}
    report = run_cells(
        [Cell((eid, c.key), c.worker, c.args)
         for eid, cells in declared.items() for c in cells],
        run,
    )
    outputs: dict[str, ExperimentOutput] = {}
    failures: dict[str, CellExecutionError] = {}
    for eid, cells in declared.items():
        if progress is not None:
            progress(eid)
        err = next((report.failures[(eid, c.key)] for c in cells
                    if (eid, c.key) in report.failures), None)
        if err is None:
            points = {c.key: report.results[(eid, c.key)] for c in cells}
            outputs[eid] = EXPERIMENTS[eid](run.config, points)
        else:
            failures[eid] = CellExecutionError(err.key[1], err.worker, err.detail)
            outputs[eid] = _failed_output(eid, failures[eid])
    return outputs, failures
