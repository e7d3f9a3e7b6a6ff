"""OSU MPI micro-benchmarks (paper section V-A, Figs 1-2).

Faithful re-implementations of the OSU micro-benchmark measurement loops
between two ranks on two nodes, evaluated as recurrences over message
times that equal, float for float, the same loops run as simulated MPI
programs (``_latency_program``, ``_bw_program``, kept as the oracle):

* :func:`~repro.osu.latency.osu_latency` — ping-pong latency
  (``osu_latency``): half the averaged round-trip time per message size;
* :func:`~repro.osu.bandwidth.osu_bandwidth` — windowed streaming
  bandwidth (``osu_bw``): a window of non-blocking sends per iteration,
  one short ack per window.

Both take a platform spec and return a ``{message size: value}`` mapping,
measured between two ranks on *distinct* nodes (as the paper does:
"sustained message passing bandwidth and latency between two compute
nodes").
"""

from repro.osu.latency import osu_latency
from repro.osu.bandwidth import osu_bandwidth

#: The OSU default message-size sweep (powers of two, 1 B .. 4 MB).
DEFAULT_SIZES = tuple(2**k for k in range(0, 23))

__all__ = [
    "DEFAULT_SIZES",
    "osu_bandwidth",
    "osu_latency",
]
