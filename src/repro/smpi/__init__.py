"""Simulated MPI runtime.

Programs are written against :class:`~repro.smpi.comm.Comm` — an API
deliberately close to mpi4py's lowercase object interface — as Python
generator functions, and executed in *virtual time* on a
:class:`~repro.platforms.base.Platform` model by
:class:`~repro.smpi.world.MpiWorld`::

    def program(comm):
        yield from comm.compute(flops=1e9, mem_bytes=4e8)
        total = yield from comm.allreduce(8, value=comm.rank)
        return total

    result = run_program(VAYU, 8, program)
    print(result.wall_time, result.report().comm_percent)

Two things distinguish this from a functional MPI:

* every operation *costs* virtual time, derived from the platform's
  fabric, hypervisor and CPU models (point-to-point messages are
  simulated individually with eager/rendezvous protocols and NIC
  serialisation; collectives use topology-aware algorithm cost models);
* payloads are optional — a skeleton benchmark passes only byte counts,
  while a program that passes real values/arrays gets real reductions
  and data movement.
"""

from repro.smpi.comm import ANY_SOURCE, ANY_TAG, Comm
from repro.smpi.mapping import Placement, place_ranks
from repro.smpi.message import Message, Request
from repro.smpi.world import MpiWorld, RunResult, run_program

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Comm",
    "Message",
    "MpiWorld",
    "Placement",
    "Request",
    "RunResult",
    "place_ranks",
    "run_program",
]
