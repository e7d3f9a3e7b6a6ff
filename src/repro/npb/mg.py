"""MG — Multigrid V-cycle on a 3-D Poisson problem.

Ranks form a 3-D grid.  Each V-cycle visits every grid level twice
(restriction down, prolongation up); at each visit a rank smooths its
local block (compute proportional to the level's point count) and
exchanges ghost faces with its six neighbours (``comm3`` in the NPB
source).  Face messages shrink by 4x per level, so the coarse levels are
pure latency — MG is the suite's mixed bandwidth/latency probe and one
of the kernels whose DCC speedup collapses when the job first spans two
GigE-connected nodes.

The per-level halo exchanges are priced analytically
(:func:`repro.npb.base.mixed_msg_time` blends on-node and off-node
neighbour links) as a synchronising composite per level visit; a
per-message simulation at 64 ranks x 8 levels x 20 iterations would cost
millions of events for no additional fidelity at this model order.
"""

from __future__ import annotations

import math
import typing as _t

from repro.npb.base import NpbBenchmark, mixed_msg_time


class MgBenchmark(NpbBenchmark):
    """NPB MG skeleton."""

    name = "mg"
    default_sim_iters = 3

    def _geometry(self, p: int) -> tuple[tuple[int, int, int], int]:
        n = self.cfg.dims[0]
        grid = self.grid3d(p)
        levels = int(math.log2(n))
        return grid, levels

    def _level_visit(self, comm, level: int, work_frac: float) -> _t.Generator:
        """Smooth + residual at one level plus the comm3 halo exchange.

        ``work_frac`` is this visit's share of the per-iteration work
        (proportional to the level's point count, normalised over the
        whole V-cycle by the caller).
        """
        cfg = self.cfg
        n = cfg.dims[0]
        p = comm.size
        (px, py, pz), levels = self._geometry(p)
        scale = 1 << (levels - level)  # coarsening factor at this level
        nloc = max(1, n // scale)
        yield from comm.compute(
            flops=cfg.flops_per_iter * work_frac / p,
            mem_bytes=cfg.mem_bytes_per_iter * work_frac / p,
            working_set=self.local_ws(comm),
        )
        if p == 1:
            return
        # Six ghost faces: bytes = 8 * (local face extents), neighbours at
        # rank strides 1 (x), px (y) and px*py (z).
        fx = 8 * max(1, nloc // py) * max(1, nloc // pz)
        fy = 8 * max(1, nloc // px) * max(1, nloc // pz)
        fz = 8 * max(1, nloc // px) * max(1, nloc // py)
        strides = (1, px, px * py)
        faces = (fx, fy, fz)

        def halo_time(ctx, _n: float) -> float:
            total = 0.0
            for stride, face in zip(strides, faces):
                total += 2.0 * mixed_msg_time(ctx, face, stride)
            return total

        yield from comm.composite("MPI_Sendrecv(comm3)", sum(faces) * 2, halo_time)

    def iteration(self, comm, it: int) -> _t.Generator:
        _grid, levels = self._geometry(comm.size)
        # Down sweep (restriction) then up sweep (prolongation): the fine
        # level dominates; per-visit work follows the 1/8-per-level point
        # decay, normalised so the cycle's visits sum to one iteration.
        visit_levels = list(range(levels, 0, -1)) + list(range(1, levels + 1))
        weights = [0.125 ** (levels - lev) for lev in visit_levels]
        norm = sum(weights)
        for lev, w in zip(visit_levels, weights):
            yield from self._level_visit(comm, lev, w / norm)
        if comm.size > 1:
            yield from comm.allreduce(8)  # residual norm
        return None
