"""Collective-communication cost models.

Collectives in the simulator are *synchronising composite operations*:
all participating ranks arrive, the completion time is
``max(arrival) + algorithm_time``, and each rank's MPI time is
``completion - its own arrival`` — so compute imbalance surfaces as
communication wait exactly the way IPM reports it on the real systems
(paper sections V-C.1/2).  A chain of back-to-back phases starts each
phase at the previous one's completion, where every rank arrives at
once.

``algorithm_time`` comes from the standard algorithm models in
:mod:`repro.smpi.collectives.algorithms`, made topology-aware by
splitting rounds into inter-node rounds (paying fabric latency, with the
node link shared by all co-resident ranks) and intra-node rounds (paying
shared-memory costs).
"""

from repro.smpi.collectives.algorithms import (
    CollectiveContext,
    allgather_time,
    allreduce_time,
    alltoall_time,
    barrier_time,
    gather_time,
    scatter_time,
)

#: Canonical registry of the :class:`~repro.smpi.comm.Comm` methods that
#: synchronise every rank of a communicator.  The determinism linter
#: (rule DET006) and the sanitizer docs treat exactly these names as
#: collectives: calling one under rank-dependent control flow deadlocks
#: the ranks that skip it.  ``chain`` runs several such phases back to
#: back (see :meth:`~repro.smpi.comm.Comm.chain`).
COLLECTIVE_METHODS: frozenset[str] = frozenset({
    "barrier", "allreduce", "scatter", "alltoall", "alltoallv", "split",
    "composite", "collective", "chain",
})

__all__ = [
    "COLLECTIVE_METHODS",
    "CollectiveContext",
    "allgather_time",
    "allreduce_time",
    "alltoall_time",
    "barrier_time",
    "gather_time",
    "scatter_time",
]
