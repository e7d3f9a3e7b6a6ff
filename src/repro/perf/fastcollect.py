"""Analytic collective fast-forward (closed-form whole-phase dispatch).

The collective cost models in :mod:`repro.smpi.collectives.algorithms`
are analytic, so the per-event engine already prices one collective with
a handful of heap entries — the remaining cost of a collective-heavy
workload is *per-operation Python overhead*: rebuilding the
:class:`~repro.smpi.collectives.algorithms.CollectiveContext`, walking
the memo, re-pricing per-rank compute bursts, and the generator + IPM
bookkeeping around every operation.  ``BENCH_engine.json`` put the
collectives workload ~23x below plain timeouts; this module closes most
of that gap by fast-forwarding whole collective *phases*:

* **Closed-form completion** — the completing rank computes the phase's
  absolute completion time arithmetically and pre-triggers the shared
  event for that instant (:meth:`~repro.sim.events.Event.schedule_at`,
  the same machinery behind ``Engine.wake_at`` / iteration replay, and
  the per-operation path): one heap entry per collective.
* **Cached phase pricing** — the context, the per-``(memo_key, nbytes)``
  duration and the per-rank compute cost of a steady phase are all
  cached per communicator (IPM buckets are cached by the profile
  itself), so the steady loop reduces to dictionary hits and two heap
  entries per iteration.
* **Batched same-phase dispatch** — when every rank of a communicator
  wakes and re-sleeps in lockstep (the compute/collective cadence of the
  NPB kernels), the engine coalesces the identical same-instant sleeps
  onto one pooled token (:attr:`~repro.sim.engine.Engine.batch_sleeps`),
  and :meth:`Comm.prime_collectives` prices whole message-size sweeps as
  one numpy vector pass (:mod:`repro.smpi.collectives.vectorized`).

Byte identity
-------------
Fast-forwarding is a pure optimization: per-rank wake times, IPM
counters and rendered reports are bit-identical to the per-operation
path.  That only holds when nothing observes or perturbs the skipped
per-event execution, so the fast path shares replay's disqualifier
(:func:`repro.perf.replay.perturbation_reason`): a sanitizer, timeline
tracing, the engine tracer, or a platform that samples randomness per
message/burst all force the per-operation path, with the reason
recorded in the :class:`FastCollectReport`.  Ad-hoc
collectives with no ``memo_key`` (cost not determined by
``(ctx, nbytes)``) also take the per-operation path.

Enabling
--------
Off by default.  Turn it on per world (``MpiWorld(..., fastcollect=True)``),
per scope (``repro.config.world_scope(fastcollect=True)``), per run (the
``--fastcollect`` CLI flag, see :mod:`repro.config`) or by default via
``REPRO_FASTCOLLECT=1``.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.config import collect_report, world_options
from repro.errors import ConfigError, MpiError
from repro.perf.replay import perturbation_reason

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.ipm.monitor import RankProfile
    from repro.sim.events import Event
    from repro.smpi.collectives.algorithms import CollectiveContext
    from repro.smpi.comm import Comm
    from repro.smpi.world import MpiWorld

def fastcollect_enabled() -> bool:
    """Default for worlds that don't pass ``fastcollect=`` explicitly."""
    return world_options().fastcollect


def _note_report(report: "FastCollectReport") -> None:
    collect_report("fastcollect", report)


@dataclasses.dataclass(frozen=True, slots=True)
class FastCollectReport:
    """What the collective fast-forward did for one world."""

    #: False when the fast path refused to engage (see :attr:`reason`).
    active: bool
    #: Why the fast path was inactive (None when active).
    reason: str | None
    #: Collective operations completed through the closed-form path.
    fast_ops: int
    #: Collective operations that took the per-operation path (no memo
    #: key) while the fast path was active.
    slow_ops: int

    @property
    def total_ops(self) -> int:
        return self.fast_ops + self.slow_ops

    def summary(self) -> str:
        """One-line human-readable outcome."""
        if not self.active:
            return f"fastcollect off ({self.reason})"
        if not self.total_ops:
            return "fastcollect on (no collectives)"
        return (
            f"fastcollect {self.fast_ops}/{self.total_ops} collectives "
            f"fast-forwarded"
        )


class _Phase:
    """In-flight state of one fast-path collective instance."""

    __slots__ = ("key", "left", "event", "contribs", "any_contrib", "nbytes_seen")

    def __init__(self, key: tuple[str, int], expected: int, event: "Event") -> None:
        self.key = key
        self.left = expected
        self.event = event
        self.contribs: dict[int, _t.Any] = {}
        self.any_contrib = False
        self.nbytes_seen: float = 0.0


class _CommCache:
    """Steady-phase caches of one communicator.

    Everything here is a pure function of the communicator and the
    (engaged, draw-free) platform, so caching moves work earlier without
    changing any value: the context is constant after placement and a
    ``(memo_key, nbytes)`` duration is exactly what the memo would
    return.  IPM buckets need no cache here: ``RankProfile.record_mpi``
    already resolves them once per region stack.
    """

    __slots__ = ("size", "group", "profiles", "ctx", "durations", "state", "primed")

    def __init__(self, size: int, group: list[int], profiles: list["RankProfile"],
                 ctx: "CollectiveContext") -> None:
        self.size = size
        self.group = group
        self.profiles = profiles
        self.ctx = ctx
        #: ``(memo_key, nbytes) -> duration`` — the phase-pricing cache.
        self.durations: dict[tuple[_t.Hashable, float], float] = {}
        #: The collective currently in flight (at most one per comm: a
        #: phase completes, synchronously, before any rank can enter the
        #: next one).
        self.state: _Phase | None = None
        #: ``(op, sizes)`` tuples already primed (idempotence guard).
        self.primed: set[tuple[str, tuple[float, ...]]] = set()


class FastCollect:
    """Per-world closed-form collective dispatcher.

    Constructed last in ``MpiWorld.__init__`` (alongside the replay
    recorder) so every disqualifier is already known; when one applies
    the instance is *inactive* — every collective takes the
    per-operation path and the report merely records why.
    """

    def __init__(self, world: "MpiWorld") -> None:
        self.world = world
        self.reason = perturbation_reason(world)
        self.active = self.reason is None
        self.fast_ops = 0
        self.slow_ops = 0
        self._comms: dict[int, _CommCache] = {}
        #: ``(rank, burst args) -> seconds`` — per-rank compute pricing
        #: cache.  Safe only because an engaged platform is draw-free:
        #: the noise streams ``compute_seconds`` would consume are
        #: dedicated to it, and every value drawn from them multiplies
        #: to exactly 0.0 on a deterministic variant.
        self._compute_cache: dict[tuple, float] = {}
        if self.active:
            world.engine.batch_sleeps = True

    # -- per-comm cache ----------------------------------------------------
    def _comm_cache(self, comm: "Comm") -> _CommCache:
        cache = self._comms.get(comm.comm_id)
        if cache is None:
            world = self.world
            group = comm.group
            monitor = world.monitor
            cache = _CommCache(
                size=len(group),
                group=group,
                profiles=[monitor[g] for g in group],
                ctx=world._collective_context(comm),
            )
            self._comms[comm.comm_id] = cache
        return cache

    # -- the fast collective ------------------------------------------------
    def collective(
        self,
        comm: "Comm",
        name: str,
        nbytes: float,
        time_fn: _t.Callable[["CollectiveContext", float], float],
        contribution: _t.Any,
        finisher: _t.Callable[[dict[int, _t.Any]], dict[int, _t.Any]] | None,
        memo_key: _t.Hashable,
        null_ok: bool,
    ) -> _t.Generator:
        """Closed-form twin of ``MpiWorld._collective_slow``.

        Identical per-rank wake times and IPM counters, two orders less
        bookkeeping: the completing rank prices the phase from the
        per-comm duration cache and pre-triggers the shared event for
        the absolute completion instant — no sanitizer hook, no
        per-operation context rebuild, no memo walk on steady state.

        ``null_ok`` marks finishers that map all-``None`` contributions
        to all-``None`` results, letting value-free steady loops skip
        the finisher entirely; finishers with side effects or non-None
        null results (``gather``/``allgather``/``split``) pass False.
        """
        world = self.world
        eng = world.engine
        my_local = comm.rank
        seq = comm._seq
        comm._seq = seq + 1
        cache = self._comm_cache(comm)
        key = (name, seq)
        phase = cache.state
        if phase is None:
            phase = _Phase(key, cache.size, eng.event(f"coll:{name}:{seq}"))
            cache.state = phase
        elif phase.key != key:
            raise MpiError(
                f"rank {my_local} entered collective {name} seq {seq} while "
                f"{phase.key[0]} seq {phase.key[1]} is in flight on comm "
                f"{comm.comm_id}"
            )
        if my_local in phase.contribs:
            raise MpiError(
                f"rank {my_local} entered collective {name} seq {seq} twice"
            )
        arrival = eng.now
        phase.contribs[my_local] = contribution
        if contribution is not None:
            phase.any_contrib = True
        if nbytes > phase.nbytes_seen:
            phase.nbytes_seen = nbytes
        phase.left -= 1

        if phase.left == 0:
            cache.state = None
            dkey = (memo_key, phase.nbytes_seen)
            duration = cache.durations.get(dkey)
            if duration is None:
                duration = world.memo.time(memo_key, cache.ctx, phase.nbytes_seen, time_fn)
                if duration < 0:
                    raise MpiError(f"negative collective time from {name}: {duration}")
                cache.durations[dkey] = duration
            # The engine clock is monotone, so the last arrival is the
            # latest one — this rank's.  The slow path schedules a
            # timeout at now + (completion - now); reproduce that float
            # round trip exactly so wake times match bit for bit.
            completion = arrival + duration
            if finisher is not None and (phase.any_contrib or not null_ok):
                results = finisher(phase.contribs)
            else:
                results = None
            phase.event.schedule_at(arrival + (completion - arrival), results)
            self.fast_ops += 1

        results = yield phase.event
        cache.profiles[my_local].record_mpi(name, int(nbytes), eng.now - arrival)
        return results.get(my_local) if results else None

    # -- compute pricing ----------------------------------------------------
    def compute_seconds(
        self, rank: int, flops: float, mem_bytes: float, working_set: float, access: str
    ) -> float:
        """Cached :meth:`Platform.compute_seconds` for steady bursts."""
        key = (rank, flops, mem_bytes, working_set, access)
        cache = self._compute_cache
        value = cache.get(key)
        if value is None:
            value = self.world.platform.compute_seconds(
                rank, flops, mem_bytes, working_set, access
            )
            cache[key] = value
        return value

    # -- vectorized priming --------------------------------------------------
    def prime(self, comm: "Comm", op: str, sizes: _t.Sequence[float]) -> int:
        """Price ``op`` for every size in ``sizes`` in one numpy pass.

        Seeds both the world's :class:`~repro.perf.memo.CollectiveMemo`
        and this communicator's duration cache, so the per-size first
        occurrence of the collective is already a cache hit.  Returns
        the number of sizes newly priced (0 when inactive or already
        primed).  ``op`` must name a vectorized model
        (:data:`~repro.smpi.collectives.vectorized.VECTORIZED`).
        """
        if not self.active or not sizes:
            return 0
        from repro.smpi.collectives.vectorized import VECTORIZED

        fn = VECTORIZED.get(op)
        if fn is None:
            raise ConfigError(
                f"no vectorized cost model for {op!r}; "
                f"expected one of {sorted(VECTORIZED)}"
            )
        cache = self._comm_cache(comm)
        key_sizes = tuple(float(s) for s in sizes)
        pkey = (op, key_sizes)
        if pkey in cache.primed:
            return 0
        cache.primed.add(pkey)
        import numpy as np

        arr = np.array(key_sizes, dtype=np.float64)
        values = fn(cache.ctx, arr)
        durations = cache.durations
        memo = self.world.memo
        priced = 0
        for n, v in zip(key_sizes, values.tolist()):
            if v < 0:
                raise MpiError(f"negative collective time from {op}: {v}")
            dkey = (op, n)
            if dkey not in durations:
                durations[dkey] = v
                priced += 1
            memo.seed(op, cache.ctx, n, v)
        return priced

    # -- reporting -----------------------------------------------------------
    def finalize_report(self) -> FastCollectReport:
        """Build the report and register it with any open scope."""
        report = FastCollectReport(
            active=self.active,
            reason=self.reason,
            fast_ops=self.fast_ops,
            slow_ops=self.slow_ops,
        )
        _note_report(report)
        return report
