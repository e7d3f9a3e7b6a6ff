"""Collective chains: the steps of a chain after its first phase.

A chain (:meth:`~repro.smpi.comm.Comm.chain`) runs result-less phases,
and the compute bursts between them, with one resume per rank.  Each
rank arrives at the first phase itself
(:meth:`~repro.smpi.world.MpiWorld.collective`); from then on, each
intermediate completion is one heap entry, and its dispatch
(:class:`Chain`) does what the ranks of the one-by-one program would
have done in it — record every rank's IPM sample for the phase, then,
rank by rank in their order of arrival at it, draw the rank's burst and
push its wake-up where that rank's sleep would land (or, after a zero
burst or none, arrive at the next phase at once).  A burst's dispatch
records the compute sample and arrives at the next phase; its last
arriver prices it.  The ranks resume after the last phase in their
order of arrival at that phase.
"""

from __future__ import annotations

import typing as _t
from functools import partial
from heapq import heappush as _heappush

from repro.errors import MpiError
from repro.sim.events import Call, Event
from repro.smpi.comm import Burst

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.smpi.comm import ChainPlan, Comm, Phase
    from repro.smpi.world import MpiWorld, _CollState


class Chain:
    """The steps after the first phase of one in-flight collective chain.

    Each intermediate completion event calls :meth:`_advance` from the
    heap, which does what the ranks of the one-by-one program would do
    when that event resumed them, in their order of arrival at the
    phase: record each rank's IPM sample for it, then run the rank on
    (:meth:`_run`) — draw its bursts up to the next phase, pushing one
    wake-up where its sleep would land, or arrive there at once.  A
    burst's dispatch (:meth:`_woken`) records the compute sample and
    runs the rank on from there.  Each arrival is checked (the sanitizer
    sees it) and the last arriver prices the phase at its own instant.
    The ranks themselves wait on the last phase's event, whose value
    maps each rank to its arrival there.

    Steps are counted over all repeats: step ``i`` is ``steps[i % m]``
    of a rank's ``m``-step plan.
    """

    __slots__ = (
        "world", "comm", "group", "size", "engine", "platform", "profiles",
        "sanitizer", "steps", "m", "gaps", "i", "last", "seq", "order", "arrivals",
        "name", "event", "seen", "final", "tokens", "sleeping",
    )

    def __init__(self, world: "MpiWorld", comm: "Comm", seq: int, state: "_CollState") -> None:
        chains: dict[int, "ChainPlan"] = state.chains  # type: ignore[assignment]
        plan = chains[comm.rank]
        at, m = plan.at, len(plan.steps)
        self.world = world
        self.comm = comm
        self.group = comm.group
        self.size = size = comm.size
        self.engine = world.engine
        self.platform = world.platform
        self.profiles = world.monitor.profiles
        self.sanitizer = world.sanitizer
        self.steps = {r: c.steps for r, c in chains.items()}
        self.m = m
        # A phase's position -> how many steps on the next phase is.
        self.gaps = {a: b - a for a, b in zip(at, at[1:] + (at[0] + m,))}
        self.i = at[0]  # the phase whose completion comes next
        self.last = (plan.repeat - 1) * m + at[-1]
        self.seq = seq  # its call number
        # The ranks wait on ``final`` in their order of arrival at the
        # first phase.
        self.order = self.arrivals = state.arrivals  # local rank -> arrival
        self.name = ""
        self.event = state.event
        self.seen = 0.0
        self.final: Event = state.final  # type: ignore[assignment]
        if len(at) < m:  # one wake-up token per rank, as a process owns
            self.tokens = [Call(partial(self._woken, r)) for r in range(size)]
            self.sleeping: list[tuple[float, int]] = [(0.0, 0)] * size
        else:
            self.tokens = None
        state.event.callbacks.append(self._advance)  # type: ignore[union-attr]

    def _advance(self, _done: Event) -> None:
        eng = self.engine
        now = eng.now
        group = self.group
        profiles = self.profiles
        steps = self.steps
        m = self.m
        i = self.i
        pos = i % m
        self.i = nxt = i + self.gaps[pos]
        self.seq = seq = self.seq + 1
        self.name = name = steps[self.comm.rank][nxt % m].name
        self.event = self.final if nxt == self.last else eng.event(f"coll:{name}:{seq}")
        arrivals, self.arrivals = self.arrivals, {}
        self.seen = 0.0
        run = self._run
        for r, arrival in arrivals.items():
            phase = steps[r][pos]
            profiles[group[r]].record_mpi(phase.name, int(phase.nbytes), now - arrival)
            run(r, i + 1, now)

    def _run(self, r: int, j: int, now: float) -> None:
        """Run local rank ``r`` from step ``j`` at ``now``: draw its
        bursts until one sleeps, else arrive at the next phase."""
        body = self.steps[r]
        phase = body[j % self.m]
        while type(phase) is Burst:
            rank = self.group[r]
            duration = self.platform.compute_seconds(rank, *phase)
            if duration > 0:  # the sleep of ``Comm.compute``
                self.sleeping[r] = (duration, j)
                eng = self.engine
                eng._seq += 1
                _heappush(eng._heap, (now + duration, eng._seq, self.tokens[r]))  # type: ignore[index]
                return
            self.profiles[rank].record_compute(duration)
            j += 1
            phase = body[j % self.m]
        if self.sanitizer is not None:
            self.sanitizer.on_collective(
                self.comm, phase.name, self.seq, None, phase.nbytes, r, self.event,
                phase.uneven,
            )
        if phase.name != self.name:
            raise self._mismatch(r, phase)
        arrivals = self.arrivals
        arrivals[r] = now
        if phase.nbytes > self.seen:  # max(), keeping its first-wins tie
            self.seen = phase.nbytes
        if len(arrivals) == self.size:
            self._price(phase, now)

    def _woken(self, r: int) -> None:
        """Local rank ``r``'s burst is over: record it and run on."""
        duration, j = self.sleeping[r]
        self.profiles[self.group[r]].record_compute(duration)
        self._run(r, j + 1, self.engine.now)

    def _price(self, phase: "Phase", now: float) -> None:
        """Price the next phase with ``phase``, the last arriver's, at
        its arrival ``now``."""
        event = self.event
        final = event is self.final
        self.world._schedule_completion(
            self.comm, event, self.name, self.seen, phase.time_fn, phase.memo_key, now,
            self.arrivals if final else None,
        )
        if not final:
            event.callbacks.append(self._advance)  # type: ignore[union-attr]
        elif self.tokens is not None:
            # Bursts reorder the arrivals: the ranks resume in their
            # order of arrival at the last phase, as one by one.  Their
            # resumes lead the callbacks; the sanitizer's follow.
            callbacks: list = event.callbacks  # type: ignore[assignment]
            resume = dict(zip(self.order, callbacks[: self.size]))
            callbacks[: self.size] = [resume[r] for r in self.arrivals]
            # No burst is pending now.  The tokens' bound steps refer
            # back to the chain, and through it to the world: drop them,
            # so both are freed by reference counting.
            self.tokens = None

    def _mismatch(self, r: int, phase: "Phase") -> MpiError:
        group = self.group
        return MpiError(
            f"collective chain on comm {self.comm.comm_id} at call #{self.seq}: rank "
            f"{group[r]} called {phase.name} but rank {group[self.comm.rank]} called "
            f"{self.name}"
        )
