"""Performance infrastructure: deterministic sub-simulation shortcuts.

The hot loops of the simulator live in :mod:`repro.sim`; this package
holds the layers *above* the engine that make repeated work cheap
without changing any result:

* :class:`~repro.perf.memo.CollectiveMemo` — an exact, deterministic
  cache for collective-operation costs keyed by the full analytic input
  (algorithm, topology context, message size), shared across the
  simulations of a sweep.
* :mod:`repro.perf.replay` — steady-state iteration capture & replay:
  once consecutive steady-loop iterations are provably identical on a
  draw-free platform, the remaining ones are fast-forwarded analytically
  instead of re-simulated.
* :mod:`repro.perf.fastcollect` — analytic collective fast-forward:
  whole collective phases complete through one pre-triggered event
  priced from per-communicator caches (with vectorized size-sweep
  priming), byte-identical to the per-operation path.
* :mod:`repro.perf.enginebench` — the engine dispatch-throughput
  microbenchmark behind ``repro bench engine``, ``BENCH_engine.json``
  and the ``BENCH_history.jsonl`` trajectory.
"""

from repro.perf.fastcollect import (
    FastCollect,
    FastCollectReport,
    fastcollect_enabled,
)
from repro.perf.memo import (
    CollectiveMemo,
    clear_default_memo,
    default_memo,
    memo_stats,
)
from repro.perf.replay import (
    LoopStats,
    ReplayRecorder,
    ReplayReport,
    deterministic_variant,
    perf_banner,
    perturbation_reason,
    replay_enabled,
)

__all__ = [
    "CollectiveMemo",
    "FastCollect",
    "FastCollectReport",
    "LoopStats",
    "ReplayRecorder",
    "ReplayReport",
    "clear_default_memo",
    "default_memo",
    "deterministic_variant",
    "fastcollect_enabled",
    "memo_stats",
    "perf_banner",
    "perturbation_reason",
    "replay_enabled",
]
