"""Online job profiling (ARRIVE-F's measurement stage).

ARRIVE-F "carries out a lightweight 'online' profiling of the CPU,
communication and memory subsystems of all the active jobs".
:class:`OnlineProfile` is the compact subsystem profile the predictor
consumes; the farm experiment builds one per synthetic job.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ConfigError


@dataclasses.dataclass(frozen=True, slots=True)
class OnlineProfile:
    """Compact subsystem profile of one job."""

    #: Fraction of runtime in MPI communication.
    comm_fraction: float
    #: Fraction of MPI time in small (latency-bound) messages.
    small_msg_fraction: float
    #: Memory-bandwidth-bound fraction of the compute time.
    mem_boundedness: float
    #: Mean bytes per MPI call.
    mean_msg_bytes: float
    #: Fraction of runtime in I/O.
    io_fraction: float = 0.0

    def __post_init__(self) -> None:
        for name in ("comm_fraction", "small_msg_fraction", "mem_boundedness", "io_fraction"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ConfigError(f"{name} out of range: {v}")
