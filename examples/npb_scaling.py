#!/usr/bin/env python3
"""NPB scaling study — regenerate a panel of the paper's Fig 4.

Runs one NPB benchmark (default CG, class B) across process counts on
all three platforms as ``npb_point`` cells of the sweep driver, then
prints the speedup table, the Table-II-style communication percentages,
and an ASCII speedup plot.

Run:  python examples/npb_scaling.py [bench] [class]
      python examples/npb_scaling.py ft B
"""

import sys

from repro.analysis.stats import speedup_series
from repro.harness.figures import render_series_table, render_speedup_plot
from repro.harness.parallel import Cell
from repro.harness.supervisor import run_cells
from repro.npb import get_benchmark

PLATFORMS = ("DCC", "EC2", "Vayu")


def main():
    bench = sys.argv[1] if len(sys.argv) > 1 else "cg"
    klass = sys.argv[2] if len(sys.argv) > 2 else "B"
    counts = [p for p in (1, 2, 4, 8, 16, 32, 64)
              if get_benchmark(bench, klass=klass).valid_nprocs(p)]

    cells = [
        Cell((name, p), "npb_point", (bench, name, p, 7, klass, None))
        for name in PLATFORMS
        for p in counts
    ]
    report = run_cells(cells)
    if report.failures:
        raise next(iter(report.failures.values()))
    points = report.results
    curves = {
        name: speedup_series(
            {p: points[(name, p)]["projected_time"] for p in counts}, counts[0]
        )
        for name in PLATFORMS
    }

    rows = {p: [curves[n][p] for n in PLATFORMS] for p in counts}
    print(render_series_table(
        f"{bench.upper()}.{klass} speedup (base np={counts[0]})",
        list(PLATFORMS), rows, "{:.2f}", row_label="np",
    ))
    print()
    comm_rows = {
        p: [points[(n, p)]["comm_percent"] for n in PLATFORMS] for p in counts
    }
    print(render_series_table(
        "steady-state %comm (Table II style)",
        list(PLATFORMS), comm_rows, "{:.1f}", row_label="np",
    ))
    print()
    print(render_speedup_plot(f"{bench.upper()}.{klass} speedup", curves))


if __name__ == "__main__":
    main()
