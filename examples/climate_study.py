#!/usr/bin/env python3
"""Climate-model study — MetUM across the platforms (Fig 6 + Table III).

Reproduces the paper's UM analysis on the sweep driver from one sweep of
``metum_point`` cells: the four speedup series, then, read from the same
32-core runs, the statistics table with Vayu-relative
computation/communication ratios and a per-process Fig-7 breakdown
showing DCC's system-time-dominated communication.

Run:  python examples/climate_study.py
"""

from repro.analysis.stats import render_stats_table, speedup_series, table3_stats
from repro.harness.figures import render_speedup_plot
from repro.harness.parallel import Cell
from repro.harness.supervisor import run_cells
from repro.ipm.report import render_fig7_ascii

SEED, SIM_STEPS = 7, 3
#: (label, platform, EC2 node count or None for the platform default).
VARIANTS = [("Vayu", "Vayu", None), ("DCC", "DCC", None),
            ("EC2", "EC2", None), ("EC2-4", "EC2", 4)]
COUNTS = (8, 16, 32, 64)


def _nodes(label, nodes, p):
    """EC2 packs 16 ranks a node but needs two nodes for UM's memory."""
    if label == "EC2":
        return max(2, -(-p // 16))
    return nodes


def main():
    # --- Fig 6: warmed-time speedups over 8 cores ---------------------------
    report = run_cells([
        Cell((label, p), "metum_point",
             (platform, p, _nodes(label, nodes, p), SEED, SIM_STEPS))
        for label, platform, nodes in VARIANTS
        for p in COUNTS
    ])
    if report.failures:
        raise next(iter(report.failures.values()))
    points = report.results
    series = {}
    for label, _platform, _nodes_ in VARIANTS:
        times = {p: points[(label, p)]["warmed_time"] for p in COUNTS}
        series[label] = speedup_series(times, 8)
        print(f"{label:>6}: t8 = {times[8]:7.1f} s")
    print()
    print(render_speedup_plot("UM warmed-time speedup over 8 cores", series))
    print()

    # --- Table III: 32-core statistics, from the Fig 6 runs ----------------
    stats = {label: points[(label, 32)] for label, _platform, _nodes_ in VARIANTS}
    print("UM statistics at 32 cores (Table III):")
    print(render_stats_table(table3_stats(stats, reference_platform="Vayu")))
    print()

    # --- Fig 7: per-process breakdown, from the Table III runs --------------
    for label in ("Vayu", "DCC"):
        print(f"--- {label} ATM_STEP breakdown (Fig 7) ---")
        print(render_fig7_ascii(stats[label]["breakdown"], "ATM_STEP", width=44))
        print()


if __name__ == "__main__":
    main()
