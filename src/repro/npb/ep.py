"""EP — Embarrassingly Parallel (Gaussian deviates via Marsaglia polar).

The only communication is the final result combination: two 8-byte sums
and the ten-bin deviate histogram.  Its value in the study is as a pure
compute/jitter probe: the paper's Fig 4 shows near-linear speedup on
Vayu and DCC but fluctuation "with an upward trend" on EC2, caused by
Xen scheduling and HyperThreading noise — which here enters through the
platform's compute-jitter model accumulating over the chunked
compute loop.
"""

from __future__ import annotations

import typing as _t

from repro.npb.base import NpbBenchmark


class EpBenchmark(NpbBenchmark):
    """NPB EP skeleton."""

    name = "ep"
    default_sim_iters = 1
    #: Compute is issued in chunks so per-chunk jitter draws accumulate
    #: the way per-batch random-number generation does in the real code.
    chunks = 32

    def valid_nprocs(self, nprocs: int) -> bool:
        # EP accepts any process count.
        return nprocs >= 1

    def setup(self, comm) -> _t.Generator:
        # EP has no setup phase worth modelling (table initialisation).
        yield from comm.compute(flops=1e6)

    def iteration(self, comm, it: int) -> _t.Generator:
        cfg = self.cfg
        p = comm.size
        flops = cfg.total_flops / p / self.chunks
        mem = cfg.total_mem_bytes / p / self.chunks
        for _ in range(self.chunks):
            yield from comm.compute(flops=flops, mem_bytes=mem, working_set=self.local_ws(comm))
        # Combine sx, sy and the q histogram: one chain of three all-reduces.
        yield from comm.chain(
            comm.allreduce_phase(8), comm.allreduce_phase(8), comm.allreduce_phase(80)
        )
        return None
