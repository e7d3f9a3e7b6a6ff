"""Deterministic memoization of repeated sub-simulation costs.

OSU/NPB sweeps re-evaluate the same collective configurations thousands
of times: every steady-state iteration of a benchmark issues the same
operations with the same message sizes on the same communicator layout,
and a grid sweep repeats that across process counts and platforms.  The
analytic cost of one collective is a *pure* function of

``(algorithm key, CollectiveContext, nbytes)``

where the :class:`~repro.smpi.collectives.algorithms.CollectiveContext`
already pins down everything cost-relevant — platform fabric and
shared-memory specs, communicator size, node/rank mapping (``nnodes``,
``rpn``), the hypervisor's *sampled* extra latency and bandwidth
factors.  Keying on the full context makes the cache exact by
construction:

* a hit returns bit-for-bit the value a fresh evaluation would produce
  (so cache-warm and cache-cold runs render identically);
* configurations from different platforms or rank mappings can never
  collide, because their contexts differ;
* stochastic per-message perturbations (e.g. ESX's vSwitch scheduling
  tail) are part of the key, so virtualised multi-node runs simply miss
  rather than reuse a stale sample — determinism is never traded for
  hit rate.

There is consequently no time-based invalidation: entries can only
become garbage (never wrong), and :meth:`CollectiveMemo.clear` exists
for benchmarking and for bounding memory between unrelated sweeps.
"""

from __future__ import annotations

import dataclasses
import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.smpi.collectives.algorithms import CollectiveContext

#: A cost function ``f(ctx, nbytes) -> seconds``.
TimeFn = _t.Callable[["CollectiveContext", float], float]


@dataclasses.dataclass(frozen=True, slots=True)
class MemoStats:
    """Hit/miss counters of one cache."""

    hits: int
    misses: int
    entries: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the table (0 when unused)."""
        total = self.lookups
        return self.hits / total if total else 0.0


class CollectiveMemo:
    """Exact cache of collective costs shared across simulations.

    Parameters
    ----------
    max_entries:
        Soft cap on table size; once reached, new values are computed
        but not stored (existing entries keep serving hits).  This
        bounds memory on open-ended sweeps without any eviction
        nondeterminism.
    enabled:
        When false every lookup just evaluates the cost function —
        useful for A/B-ing the cache in benchmarks.
    """

    __slots__ = ("_table", "hits", "misses", "max_entries", "enabled")

    def __init__(self, max_entries: int = 262_144, enabled: bool = True) -> None:
        self._table: dict[tuple, float] = {}
        self.hits = 0
        self.misses = 0
        self.max_entries = max_entries
        self.enabled = enabled

    def time(
        self,
        algo_key: _t.Hashable,
        ctx: "CollectiveContext",
        nbytes: float,
        time_fn: TimeFn,
    ) -> float:
        """The cost ``time_fn(ctx, nbytes)``, served from the table when
        the same ``(algo_key, ctx, nbytes)`` has been priced before.

        ``algo_key`` must uniquely identify the cost *function* (plus any
        extra parameters it closes over, e.g. ``alltoallv``'s
        ``max_pair``); the caller owns that contract.
        """
        if not self.enabled:
            return time_fn(ctx, nbytes)
        key = (algo_key, ctx, nbytes)
        table = self._table
        cached = table.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        value = time_fn(ctx, nbytes)
        if len(table) < self.max_entries:
            table[key] = value
        return value

    def clear(self) -> None:
        """Drop all entries and counters."""
        self._table.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> MemoStats:
        """A snapshot of the cache's counters."""
        return MemoStats(hits=self.hits, misses=self.misses, entries=len(self._table))

    def __len__(self) -> int:
        return len(self._table)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (
            f"<CollectiveMemo entries={s.entries} hits={s.hits} "
            f"misses={s.misses} hit_rate={s.hit_rate:.1%}>"
        )


#: Process-wide cache shared by every MpiWorld (and therefore across all
#: runs of a sweep).  Parallel sweep workers each get their own copy in
#: their own process; warm or cold, the rendered results are identical.
_DEFAULT = CollectiveMemo()


def default_memo() -> CollectiveMemo:
    """The process-wide shared collective-cost cache."""
    return _DEFAULT


def clear_default_memo() -> None:
    """Reset the shared cache (benchmark hygiene; results never change)."""
    _DEFAULT.clear()


def memo_stats() -> MemoStats:
    """Counters of the shared cache."""
    return _DEFAULT.stats()
