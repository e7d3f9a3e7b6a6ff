#!/usr/bin/env python3
"""Climate-model study — MetUM across the platforms (Fig 6 + Table III).

Reproduces the paper's UM analysis: the four speedup series, the 32-core
statistics table with Vayu-relative computation/communication ratios,
and a per-process Fig-7 breakdown showing DCC's system-time-dominated
communication.

Run:  python examples/climate_study.py
"""

from repro.apps.metum import MetumBenchmark
from repro.core.analysis import render_stats_table, table3_stats
from repro.harness.figures import render_speedup_plot
from repro.ipm.report import fig7_breakdown, render_fig7_ascii
from repro.platforms import DCC, EC2, VAYU


def main():
    bench = MetumBenchmark(sim_steps=3)
    variants = [("Vayu", VAYU, None), ("DCC", DCC, None),
                ("EC2", EC2, None), ("EC2-4", EC2, 4)]

    # --- Fig 6: warmed-time speedups over 8 cores ---------------------------
    series = {}
    for label, spec, nodes in variants:
        times = {}
        for p in (8, 16, 32, 64):
            nn = nodes if nodes else (max(2, -(-p // 16)) if label == "EC2" else None)
            times[p] = bench.run(spec, p, num_nodes=nn, seed=7).warmed_time
        series[label] = {p: times[8] / t for p, t in times.items()}
        print(f"{label:>6}: t8 = {times[8]:7.1f} s")
    print()
    print(render_speedup_plot("UM warmed-time speedup over 8 cores", series))
    print()

    # --- Table III: 32-core statistics --------------------------------------
    at32 = {}
    for label, spec, nodes in variants:
        nn = nodes if nodes else (2 if label == "EC2" else None)
        at32[label] = bench.run(spec, 32, num_nodes=nn, seed=7)
    print("UM statistics at 32 cores (Table III):")
    print(render_stats_table(table3_stats(at32, reference_platform="Vayu")))
    print()

    # --- Fig 7: per-process breakdown ---------------------------------------
    for label in ("Vayu", "DCC"):
        print(f"--- {label} ATM_STEP breakdown (Fig 7) ---")
        parts = fig7_breakdown(at32[label].monitor, "ATM_STEP")
        print(render_fig7_ascii(parts, "ATM_STEP", width=44))
        print()


if __name__ == "__main__":
    main()
