"""NAS Parallel Benchmarks (NPB 3.3 MPI) on the simulated runtime.

All eight benchmarks of the suite the paper runs (class B, Figs 3-4 and
Table II) are implemented as *communication skeletons*: per-iteration
compute bursts sized from the calibrated work model plus the real
communication pattern of each benchmark (who talks to whom, with which
message sizes, as a function of the process count).  The skeletons run
unchanged on any platform model.

Benchmark selection::

    from repro.npb import get_benchmark
    bench = get_benchmark("cg")          # CG class B by default
    result = bench.run(VAYU, nprocs=16)
    print(result.projected_time, result.comm_percent)
"""

from repro.npb.base import BenchResult, NpbBenchmark, STEADY_REGION
from repro.npb.classes import CLASS_NAMES, NpbClass, problem
from repro.npb.registry import BENCHMARK_NAMES, get_benchmark, valid_nprocs

__all__ = [
    "BENCHMARK_NAMES",
    "BenchResult",
    "CLASS_NAMES",
    "NpbBenchmark",
    "NpbClass",
    "STEADY_REGION",
    "get_benchmark",
    "problem",
    "valid_nprocs",
]
