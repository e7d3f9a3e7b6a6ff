"""Performance infrastructure: the collective-cost memo.

The hot loops of the simulator live in :mod:`repro.sim`; this package
holds the one layer *above* the engine that makes repeated work cheap
without changing any result:
:class:`~repro.perf.memo.CollectiveMemo`, an exact, deterministic cache
for collective-operation costs keyed by the full analytic input
(algorithm, topology context, message size), shared across the
simulations of a sweep.
"""

from repro.perf.memo import (
    CollectiveMemo,
    clear_default_memo,
    default_memo,
    memo_stats,
)

__all__ = [
    "CollectiveMemo",
    "clear_default_memo",
    "default_memo",
    "memo_stats",
]
