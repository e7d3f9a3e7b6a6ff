"""IS — Integer Sort (bucketed key redistribution).

Per iteration: local key ranking (a cheap, memory-streaming pass), an
all-reduce of the 1024-entry bucket-size table, and an ``MPI_Alltoallv``
that redistributes essentially every key.  Total compute is tiny (class
B finishes in 8.6 s serially on DCC) while the redistribution volume is
large and latency-heavy, which is why the paper finds IS "communication
intensive and does not scale well on any of the clusters" — DCC spends
~98% of its wall time in MPI at 64 processes, and even Vayu reaches 45%
(Table II, Fig 4).
"""

from __future__ import annotations

import typing as _t

from repro.npb.base import NpbBenchmark

#: NPB IS bucket-table size (class A..C).
NUM_BUCKETS = 1024


class IsBenchmark(NpbBenchmark):
    """NPB IS skeleton."""

    name = "is"
    default_sim_iters = 3

    def setup(self, comm) -> _t.Generator:
        # Key generation: one streaming pass, ~a quarter of an iteration
        # (IS has only 10 timed iterations, so an over-weighted setup
        # would visibly distort the projected total).
        share = 0.25 / comm.size
        yield from comm.compute(
            flops=self.cfg.flops_per_iter * share,
            mem_bytes=self.cfg.mem_bytes_per_iter * share,
            working_set=self.local_ws(comm),
        )

    def iteration(self, comm, it: int) -> _t.Generator:
        cfg = self.cfg
        total_keys = 1 << cfg.dims[0]
        p = comm.size
        share = 1.0 / p
        # Local bucket counting pass.
        yield from comm.compute(
            flops=cfg.flops_per_iter * share * 0.5,
            mem_bytes=cfg.mem_bytes_per_iter * share * 0.5,
            working_set=self.local_ws(comm),
        )
        if p > 1:
            yield from comm.allreduce(4 * NUM_BUCKETS)
            # Redistribute all local keys (4-byte ints); bucket-size
            # variance makes the largest pairwise block ~2x the average.
            local_bytes = 4 * total_keys // p
            yield from comm.alltoallv(local_bytes, max_pair=2 * local_bytes / p)
        # Local ranking of the received keys: a random scatter.
        yield from comm.compute(
            flops=cfg.flops_per_iter * share * 0.5,
            mem_bytes=cfg.mem_bytes_per_iter * share * 0.5,
            working_set=self.local_ws(comm),
            access="random",
        )
        return None
