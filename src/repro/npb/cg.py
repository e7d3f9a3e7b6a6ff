"""CG — Conjugate Gradient (smallest eigenvalue of a sparse SPD matrix).

Communication pattern (NPB 3.3 ``cg.f``): ranks form an
``nprows x npcols`` grid (``npcols >= nprows``, both powers of two).
Each of the 25 inner CG iterations per outer step performs

* a sum-reduction of the SpMV partial results across the process row
  (modelled as an all-reduce on the row sub-communicator, size
  ``8 * na / nprows`` bytes),
* an exchange with the transpose partner (``8 * na / p`` bytes), and
* two scalar dot-product reductions (8-byte all-reduces).

CG is the paper's NUMA showpiece: it is memory-bound
(``mem_fraction = 0.85``), so on DCC — where ESX masks the topology —
speedup "drops at 8 processes ... due [to] NUMA effects", before the
GigE hop adds the inter-node penalty at 16 (Fig 4, section V-B).
"""

from __future__ import annotations

import math
import typing as _t

from repro.npb.base import NpbBenchmark

#: Inner CG iterations per outer (power-method) step, per the NPB source.
CG_INNER_ITERS = 25


class CgBenchmark(NpbBenchmark):
    """NPB CG skeleton."""

    name = "cg"
    default_sim_iters = 2

    def proc_grid(self, p: int) -> tuple[int, int]:
        """NPB CG factorisation: ``npcols >= nprows``, both powers of 2."""
        log = p.bit_length() - 1
        npcols = 1 << ((log + 1) // 2)
        return p // npcols, npcols  # (nprows, npcols)

    def _shares(self, comm) -> tuple[float, int, int]:
        """(work share, nprows, npcols) for this rank."""
        na = self.cfg.dims[0]
        nprows, npcols = self.proc_grid(comm.size)
        row, col = divmod(comm.rank, npcols)
        local_rows = self.split_extent(na, nprows, row)
        local_cols = self.split_extent(na, npcols, col)
        share = (local_rows * local_cols) / (na * na)
        return share, nprows, npcols

    def setup(self, comm) -> _t.Generator:
        # Matrix generation (makea) costs roughly one outer iteration.
        share, nprows, npcols = self._shares(comm)
        yield from comm.compute(
            flops=self.cfg.flops_per_iter * share,
            mem_bytes=self.cfg.mem_bytes_per_iter * share,
            working_set=self.local_ws(comm),
        )
        # Row sub-communicator used by the SpMV sum-reduction (stored in
        # the rank-private cache: the benchmark object is shared).
        if comm.size > 1:
            comm.cache["cg_row"] = yield from comm.split(comm.rank // npcols)
        else:
            comm.cache["cg_row"] = comm

    def iteration(self, comm, it: int) -> _t.Generator:
        cfg = self.cfg
        na = cfg.dims[0]
        share, nprows, npcols = self._shares(comm)
        p = comm.size
        flops_inner = cfg.flops_per_iter * share * 0.95 / CG_INNER_ITERS
        mem_inner = cfg.mem_bytes_per_iter * share * 0.95 / CG_INNER_ITERS
        row_bytes = 8 * na // nprows
        transpose_bytes = max(8, 8 * na // p)
        # Transpose partner: the rank at the transposed grid position.
        row, col = divmod(comm.rank, npcols)
        t_row = col % nprows
        t_col = row + (col // nprows) * nprows
        partner = t_row * npcols + t_col
        row_comm = comm.cache["cg_row"]
        dots = (comm.allreduce_phase(8), comm.allreduce_phase(8))
        for _ in range(CG_INNER_ITERS):
            yield from comm.compute(flops=flops_inner, mem_bytes=mem_inner, working_set=self.local_ws(comm), access="random")
            if p > 1:
                yield from row_comm.allreduce(row_bytes)
                if partner != comm.rank:
                    yield from comm.sendrecv(partner, transpose_bytes, partner)
                yield from comm.chain(*dots)
        # Residual norm of the outer (power method) step.
        yield from comm.compute(
            flops=cfg.flops_per_iter * share * 0.05,
            mem_bytes=cfg.mem_bytes_per_iter * share * 0.05,
            working_set=self.local_ws(comm),
        )
        if p > 1:
            yield from comm.allreduce(8)
        return None
