"""Steady-state iteration capture & replay (fast-forwarding the simulator).

The paper's methodology runs "the minimal number of iterations required
to accurately project long-term simulations" precisely because steady
iterations are statistically identical.  The simulator can exploit the
same fact: once consecutive steady-region iterations of every rank are
*provably* identical, the remaining ones need not be re-simulated — the
clock, the IPM counters and the region timers can simply be advanced by
the captured per-iteration deltas (SimGrid's SMPI calls this iteration
sampling).

How it works
------------
Benchmarks mark their steady loops with
:meth:`repro.smpi.comm.Comm.iteration_scope`.  When a
:class:`ReplayRecorder` is attached to the world *and* the platform is
replay-safe, the first ``k`` (default 2) iterations of each marked loop
are simulated normally while the recorder snapshots each rank's
:class:`~repro.ipm.monitor.RankProfile` at the loop boundaries.  Each
pair of consecutive captures is compared — same regions, same MPI call
keys, same counts, and float times within a tight relative tolerance
(consecutive iterations of even a fully deterministic run differ at the
ULP level, because collective completions are computed against absolute
time).  Once every rank's last two iterations match, the first rank to
reach the next loop boundary records a shared *replay* decision for that
iteration index; every rank then applies its own captured deltas for all
remaining iterations in one pass and yields a single
:meth:`~repro.sim.engine.Engine.wake_at` event instead of an iteration's
worth of heap traffic.  Normal simulation resumes after the loop for
finalize.

When it falls back
------------------
Replay is a pure optimization and never a semantics change, so the
recorder refuses to engage — every iteration is simulated — whenever the
run is observed or perturbed:

* the platform samples randomness (OS noise, hypervisor jitter,
  masked-NUMA burst noise) — see
  :meth:`repro.platforms.base.Platform.replay_unsafe_reason`; note that
  *every registered paper platform* is stochastic, so replay only
  engages on explicitly quietened variants (:func:`deterministic_variant`);
* the MPI sanitizer, the fault injector, timeline tracing or the engine
  tracer is attached;
* a loop never goes stationary (the decision simply stays "simulate").

Enabling
--------
Replay is **off by default**.  Turn it on per world
(``MpiWorld(..., replay=True)``), per scope (:func:`replay_scope`), per
run (the ``--replay`` CLI flag, see :mod:`repro.config`) or by default
via ``REPRO_REPLAY=1``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import typing as _t

from repro.config import collect_report, world_options, world_scope

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.ipm.monitor import CallKey, RankProfile
    from repro.platforms.base import PlatformSpec
    from repro.smpi.comm import Comm
    from repro.smpi.world import MpiWorld

    _Delta = dict[str, tuple[float, float, float, dict[CallKey, tuple[int, float]]]]
    _Capture = tuple[float, "_Delta"]

#: Iterations of a marked loop that must be captured (and match) before
#: fast-forwarding is even considered.
DEFAULT_K = 2

#: Relative tolerance for comparing captured float times.  Structural
#: fields (regions, call keys, counts) must match exactly; durations of
#: consecutive iterations drift at the ULP level because collective
#: completions are computed against absolute time.
DEFAULT_REL_TOL = 1e-9


def replay_enabled() -> bool:
    """Default for worlds that don't pass ``replay=`` explicitly."""
    return world_options().replay


@contextlib.contextmanager
def replay_scope(enabled: bool = True) -> _t.Iterator[list["ReplayReport"]]:
    """Force replay on (or off) for every world built in this process
    inside the block; yields the reports of the worlds finalized here."""
    with world_scope(replay=enabled) as reports:
        yield reports.replay


def _note_report(report: "ReplayReport") -> None:
    collect_report("replay", report)


def perturbation_reason(world: "MpiWorld") -> str | None:
    """Why analytic fast-forwarding must not engage on ``world``.

    The shared disqualifier of both iteration replay and the collective
    fast-forward (:mod:`repro.perf.fastcollect`): any observer or
    perturbation of the per-event execution — the MPI sanitizer, an
    armed fault schedule, timeline tracing, the engine tracer, or a
    platform that samples randomness per message/computation — means
    skipping events would change what is observed or sampled.  Returns
    ``None`` when every cost is draw-free and unobserved.
    """
    if world.sanitizer is not None:
        return "MPI sanitizer attached"
    if world.fault_injector is not None:
        return "fault schedule installed"
    if world.timeline is not None:
        return "timeline tracing enabled"
    if world.engine.tracer is not None:
        return "engine tracer attached"
    return world.platform.replay_unsafe_reason()


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, slots=True)
class LoopStats:
    """Outcome of one marked steady loop."""

    label: str
    total: int
    #: Iterations dispatched through the event heap (captures included).
    simulated: int
    #: Iterations fast-forwarded analytically.
    replayed: int


@dataclasses.dataclass(frozen=True, slots=True)
class ReplayReport:
    """What the recorder did for one world."""

    #: False when the recorder refused to engage (see :attr:`reason`).
    active: bool
    #: Why the recorder was inactive (None when active).
    reason: str | None
    loops: tuple[LoopStats, ...]

    @property
    def total_iters(self) -> int:
        return sum(s.total for s in self.loops)

    @property
    def replayed_iters(self) -> int:
        return sum(s.replayed for s in self.loops)

    @property
    def simulated_iters(self) -> int:
        return sum(s.simulated for s in self.loops)

    def summary(self) -> str:
        """One-line human-readable outcome."""
        if not self.active:
            return f"replay off ({self.reason})"
        if not self.loops:
            return "replay on (no marked steady loops)"
        hits = sum(1 for s in self.loops if s.replayed)
        return (
            f"replay {self.replayed_iters}/{self.total_iters} iters "
            f"fast-forwarded ({hits}/{len(self.loops)} loops)"
        )


def perf_banner(
    reports: "_t.Sequence[ReplayReport] | None" = None,
    fastcollect: _t.Sequence[_t.Any] | None = None,
) -> str:
    """The ``[perf: ...]`` batch-banner line: memo cache + replay +
    collective fast-forward stats.

    ``reports`` / ``fastcollect`` are the report lists collected by
    :func:`replay_scope` / :func:`repro.perf.fastcollect.fastcollect_scope`;
    passing ``None`` omits that segment (the corresponding layer was not
    requested for the batch).
    """
    from repro.perf.memo import memo_stats

    stats = memo_stats()
    lookups = stats.hits + stats.misses
    if lookups:
        memo_part = f"memo {stats.hit_rate:.0%} hit ({stats.hits}/{lookups})"
    else:
        memo_part = "memo idle"
    parts = [memo_part]
    if reports is not None:
        total = sum(r.total_iters for r in reports)
        if not reports:
            replay_part = "replay saw no worlds"
        elif total:
            replayed = sum(r.replayed_iters for r in reports)
            replay_part = f"replay {replayed}/{total} iters fast-forwarded"
            fallbacks = sum(1 for r in reports if not r.active)
            if fallbacks:
                replay_part += f" · {fallbacks}/{len(reports)} world(s) fell back"
        else:
            reasons = sorted({r.reason for r in reports if r.reason is not None})
            detail = f": {reasons[0]}" if reasons else ""
            replay_part = f"replay idle across {len(reports)} world(s){detail}"
        parts.append(replay_part)
    if fastcollect is not None:
        fc_reports = fastcollect
        ops = sum(r.fast_ops + r.slow_ops for r in fc_reports)
        if not fc_reports:
            fc_part = "fastcollect saw no worlds"
        elif ops:
            fast = sum(r.fast_ops for r in fc_reports)
            fc_part = f"fastcollect {fast}/{ops} collectives fast-forwarded"
            fallbacks = sum(1 for r in fc_reports if not r.active)
            if fallbacks:
                fc_part += f" · {fallbacks}/{len(fc_reports)} world(s) fell back"
        else:
            reasons = sorted({r.reason for r in fc_reports if r.reason is not None})
            detail = f": {reasons[0]}" if reasons else ""
            fc_part = f"fastcollect idle across {len(fc_reports)} world(s){detail}"
        parts.append(fc_part)
    return "perf: " + " · ".join(parts)


# ---------------------------------------------------------------------------
# Stationarity check
# ---------------------------------------------------------------------------

def _close(a: float, b: float, tol: float) -> bool:
    if a == b:
        return True
    m = abs(a) if abs(a) >= abs(b) else abs(b)
    return abs(a - b) <= tol * m


def _stationary(prev: "_Capture", cur: "_Capture", tol: float) -> bool:
    """Do two consecutive iteration captures describe the same iteration?

    Structure (regions, MPI call keys, call counts) must match exactly;
    times and the wall delta must agree within ``tol`` relative.
    """
    (dt1, d1), (dt2, d2) = prev, cur
    if not _close(dt1, dt2, tol):
        return False
    if d1.keys() != d2.keys():
        return False
    for name, (w1, c1, io1, m1) in d1.items():
        w2, c2, io2, m2 = d2[name]
        if m1.keys() != m2.keys():
            return False
        if not (_close(w1, w2, tol) and _close(c1, c2, tol) and _close(io1, io2, tol)):
            return False
        for key, (n1, t1) in m1.items():
            n2, t2 = m2[key]
            if n1 != n2 or not _close(t1, t2, tol):
                return False
    return True


# ---------------------------------------------------------------------------
# Recorder
# ---------------------------------------------------------------------------

class _LoopSession:
    """Shared state of one marked loop across the ranks of a communicator.

    The replay decision for an iteration index is computed once, by the
    first rank to reach that loop boundary, and then read by every other
    rank: ranks of one communicator can never disagree, so a replaying
    rank never skips a collective some simulating rank is waiting in.
    The deciding rank requires *every* rank's last two captured
    iterations to match — ranks that are still inside an earlier
    iteration simply haven't deposited enough captures yet, which keeps
    the decision "simulate" for that boundary.
    """

    __slots__ = (
        "recorder", "label", "total", "k",
        "_last", "_ncaps", "_start", "_verdict", "_decision", "_ffwd",
        "replay_from",
    )

    def __init__(self, recorder: "ReplayRecorder", size: int, label: str, total: int) -> None:
        self.recorder = recorder
        self.label = label
        self.total = total
        self.k = recorder.k
        self._last: list["_Capture | None"] = [None] * size
        self._ncaps = [0] * size
        self._start: list[tuple[float, _t.Any] | None] = [None] * size
        self._verdict: list[bool | None] = [None] * size
        self._decision: dict[int, str] = {}
        self._ffwd = [False] * size
        #: Iteration index the loop was fast-forwarded from (None: never).
        self.replay_from: int | None = None

    def _profile(self, comm: "Comm") -> "RankProfile":
        return self.recorder.world.monitor[comm.group[comm.rank]]

    def _all_stationary(self) -> bool:
        return all(n >= self.k for n in self._ncaps) and all(self._verdict)

    def begin(self, comm: "Comm", it: int) -> str:
        """Called at the top of iteration ``it``; returns the action:
        ``"sim"`` (run and capture), ``"replay"`` (fast-forward the rest)
        or ``"skip"`` (this rank already fast-forwarded past ``it``)."""
        rank = comm.rank
        if self._ffwd[rank]:
            return "skip"
        action = self._decision.get(it)
        if action is None:
            action = (
                "replay" if it >= self.k and self._all_stationary() else "sim"
            )
            self._decision[it] = action
            if action == "replay":
                self.replay_from = it
        if action == "sim":
            profile = self._profile(comm)
            self._start[rank] = (
                self.recorder.world.engine.now, profile.snapshot()
            )
        return action

    def capture(self, comm: "Comm", it: int) -> None:
        """Called at the bottom of a simulated iteration: diff the
        profile against the boundary snapshot and judge stationarity."""
        rank = comm.rank
        start = self._start[rank]
        self._start[rank] = None
        if start is None:  # defensive: begin() always precedes capture()
            return
        t0, snap = start
        profile = self._profile(comm)
        cap: "_Capture" = (
            self.recorder.world.engine.now - t0, profile.delta_since(snap)
        )
        prev = self._last[rank]
        self._last[rank] = cap
        self._ncaps[rank] += 1
        if prev is not None:
            self._verdict[rank] = _stationary(prev, cap, self.recorder.rel_tol)

    def fast_forward(self, comm: "Comm", it: int) -> _t.Generator:
        """Advance this rank through iterations ``it..total-1`` at once.

        Applies the rank's own last captured deltas ``reps`` times (as
        sequential passes, preserving float accumulation order) and
        yields a single absolute-time wake-up — no per-iteration events
        ever touch the heap.
        """
        rank = comm.rank
        self._ffwd[rank] = True
        last = self._last[rank]
        assert last is not None  # replay decisions require k captures
        dt, delta = last
        reps = self.total - it
        self._profile(comm).apply_delta(delta, reps)
        eng = self.recorder.world.engine
        target = eng.now
        for _ in range(reps):
            target += dt
        yield eng.wake_at(target)

    def stats(self) -> LoopStats:
        replayed = self.total - self.replay_from if self.replay_from is not None else 0
        return LoopStats(
            label=self.label,
            total=self.total,
            simulated=self.total - replayed,
            replayed=replayed,
        )


class ReplayRecorder:
    """Per-world iteration recorder + stationarity verifier.

    Constructed last in ``MpiWorld.__init__`` so every disqualifier
    (sanitizer, fault injector, timeline, engine tracer, stochastic
    platform models) is already known; when one applies the recorder is
    *inactive* — it records nothing, fast-forwards nothing, and merely
    reports why.
    """

    def __init__(
        self,
        world: "MpiWorld",
        k: int = DEFAULT_K,
        rel_tol: float = DEFAULT_REL_TOL,
    ) -> None:
        if k < 2:
            from repro.errors import ConfigError

            raise ConfigError(f"replay needs k >= 2 captured iterations, got {k}")
        self.world = world
        self.k = k
        self.rel_tol = rel_tol
        self.reason = self._disqualify(world)
        self.active = self.reason is None
        self._sessions: dict[tuple[int, str, int], _LoopSession] = {}

    _disqualify = staticmethod(perturbation_reason)

    def session(self, comm: "Comm", label: str, total: int) -> _LoopSession:
        """The loop session for ``(comm, label, total)`` (created on
        first use; every rank of the communicator shares it)."""
        key = (comm.comm_id, label, total)
        session = self._sessions.get(key)
        if session is None:
            session = _LoopSession(self, comm.size, label, total)
            self._sessions[key] = session
        return session

    def finalize_report(self) -> ReplayReport:
        """Build the report and register it with any open scope."""
        report = ReplayReport(
            active=self.active,
            reason=self.reason,
            loops=tuple(s.stats() for s in self._sessions.values()),
        )
        _note_report(report)
        return report


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def deterministic_variant(
    spec: "PlatformSpec", name: str | None = None
) -> "PlatformSpec":
    """A replay-safe clone of ``spec``: zeroed OS noise, bare-metal
    hypervisor, no masked-NUMA burst noise.

    Every registered paper platform is stochastic (even Vayu's quiet HPC
    node draws ~0.2% OS noise per burst), so this is how tests and
    microbenchmarks obtain a platform replay can actually engage on.
    The clone is a *different* platform — its timings drop the noise —
    which is exactly why replay never silently substitutes it.
    """
    from repro.virt.hypervisor import NoHypervisor
    from repro.virt.jitter import OsNoiseModel

    return dataclasses.replace(
        spec,
        name=name if name is not None else f"{spec.name}-det",
        noise=OsNoiseModel(frac=0.0, spike_prob=0.0, spike_seconds=0.0),
        numa_burst_noise=0.0,
        hypervisor_factory=NoHypervisor,
    )
