"""FT — 3-D FFT PDE solver (spectral method).

Per iteration: evolve the spectrum (compute), inverse 3-D FFT (two local
FFT passes plus a global transpose), and a 16-byte checksum all-reduce.
The transpose is a single ``MPI_Alltoall`` moving each rank's entire
local array (``ntotal * 16 / p`` bytes of complex doubles), so FT is the
suite's bandwidth stress test.

Because the per-pair block is ``ntotal * 16 / p**2``, the All-to-all
volume through each NIC *shrinks* as ``p`` grows — the paper's
explanation for DCC's recovery above 16 processes: "the message size for
MPI AlltoAll communication decreas[es] with an increase in the number of
processes, resulting in reduced communication overhead" (section V-B).
"""

from __future__ import annotations

import typing as _t

from repro.npb.base import NpbBenchmark


class FtBenchmark(NpbBenchmark):
    """NPB FT skeleton (1-D slab layout, valid for ``p <= nz``)."""

    name = "ft"
    default_sim_iters = 3

    def valid_nprocs(self, nprocs: int) -> bool:
        nz = self.cfg.dims[2]
        return super().valid_nprocs(nprocs) and nprocs <= nz

    def _share(self, comm) -> float:
        """Slab share of this rank (slabs of nz planes over p ranks)."""
        nz = self.cfg.dims[2]
        return self.split_extent(nz, comm.size, comm.rank) / nz

    @property
    def ntotal(self) -> int:
        nx, ny, nz = self.cfg.dims
        return nx * ny * nz

    def setup(self, comm) -> _t.Generator:
        # Initial condition plus one forward FFT of the full array.
        share = self._share(comm)
        yield from comm.compute(
            flops=self.cfg.flops_per_iter * share,
            mem_bytes=self.cfg.mem_bytes_per_iter * share,
            working_set=self.local_ws(comm),
        )
        if comm.size > 1:
            yield from comm.alltoall(self.ntotal * 16 // comm.size)

    def iteration(self, comm, it: int) -> _t.Generator:
        share = self._share(comm)
        # evolve + cffts passes before the transpose (~60% of the work).
        yield from comm.compute(
            flops=self.cfg.flops_per_iter * share * 0.6,
            mem_bytes=self.cfg.mem_bytes_per_iter * share * 0.6,
            working_set=self.local_ws(comm),
        )
        if comm.size > 1:
            yield from comm.alltoall(self.ntotal * 16 // comm.size)
        # Final FFT pass in the transposed layout.
        yield from comm.compute(
            flops=self.cfg.flops_per_iter * share * 0.4,
            mem_bytes=self.cfg.mem_bytes_per_iter * share * 0.4,
            working_set=self.local_ws(comm),
        )
        yield from comm.allreduce(16)
        return None
