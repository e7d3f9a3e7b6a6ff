"""The MPI world: rank processes, transfers, collectives, launching.

:class:`MpiWorld` ties a :class:`~repro.platforms.base.Platform` runtime,
an :class:`~repro.ipm.monitor.IpmMonitor` and the per-rank mailboxes
together, and implements the point-to-point wire protocol (eager /
rendezvous with NIC serialisation) and the synchronising collective
mechanism described in :mod:`repro.smpi.collectives`.

The ranks are the only simulated processes.  A point-to-point transfer
is a chain of heap-scheduled steps: an inter-node send (:class:`_Send`)
and a receive (:class:`_Recv`) are each the request's event and run
their steps straight from the event heap, pushing the same heap entries,
in the same order, that a process per message would; an intra-node send
is one delivery call plus a timeout.

A collective chain (:meth:`~repro.smpi.comm.Comm.chain`) runs
back-to-back result-less phases with one resume per rank: each
intermediate completion is one heap entry, and its dispatch
(:class:`_Chain`) does what the ranks of the one-by-one program would
have done in it — record every rank's IPM sample for the phase and
price the next one.
"""

from __future__ import annotations

import dataclasses
import typing as _t
from functools import partial
from heapq import heappush as _heappush

from repro.errors import ConfigError, MpiError
from repro.ipm.monitor import IpmMonitor
from repro.ipm.report import IpmReport, summarize
from repro.perf.memo import CollectiveMemo, default_memo
from repro.platforms.base import Platform, PlatformSpec
from repro.sim.engine import Engine
from repro.sim.events import Call, Event
from repro.sim.resources import Store
from repro.smpi.collectives.algorithms import CollectiveContext
from repro.smpi.comm import ANY_SOURCE, ANY_TAG
from repro.smpi.mapping import Placement, place_ranks
from repro.smpi.message import Message, Request

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.sanitizer import SanitizerReport
    from repro.hardware.node import Node
    from repro.sim.resources import Resource
    from repro.smpi.comm import Comm, Phase


class _CollState:
    """In-flight state of one collective operation instance.

    ``finisher`` and ``finisher_arg`` are the first that any rank
    passed.  For a chain, ``chains`` holds each arrived rank's phases and
    ``final`` the event of the last phase, which the chained ranks wait
    on; both stay ``None`` for a plain collective.
    """

    __slots__ = (
        "expected", "arrivals", "contributions", "finisher", "finisher_arg",
        "event", "nbytes_seen", "chains", "final",
    )

    def __init__(self, expected: int, event: Event) -> None:
        self.expected = expected
        self.arrivals: dict[int, float] = {}  # local rank -> arrival time
        self.contributions: dict[int, _t.Any] = {}
        self.finisher: _t.Callable[[dict[int, _t.Any], _t.Any], dict[int, _t.Any]] | None = None
        self.finisher_arg: _t.Any = None
        self.event = event
        self.nbytes_seen: float = 0.0
        self.chains: dict[int, tuple["Phase", ...]] | None = None
        self.final: Event | None = None


class _Chain:
    """The phases after the first of one in-flight collective chain.

    Each intermediate completion event calls :meth:`_advance` from the
    heap, which does what the ranks of the one-by-one program would do
    when that event resumed them, in their order: record each rank's
    IPM sample for the completed phase, arrive at the next (the
    sanitizer sees each arrival) and, as the last arriver, price it.
    The ranks themselves wait on the last phase's event, which carries
    the instant the last phase began.
    """

    __slots__ = ("world", "comm", "seq", "arrivals", "chains", "final", "last", "k", "began")

    def __init__(
        self, world: "MpiWorld", comm: "Comm", seq: int, state: _CollState, length: int
    ) -> None:
        self.world = world
        self.comm = comm
        self.seq = seq
        self.arrivals = state.arrivals  # local rank -> arrival, in arrival order
        self.chains: dict[int, tuple["Phase", ...]] = state.chains  # type: ignore[assignment]
        self.final = state.final
        self.last = length - 1
        self.k = 0  # the phase whose completion comes next
        self.began = 0.0  # when phase ``k`` began (k > 0)
        state.event.callbacks.append(self._advance)  # type: ignore[union-attr]

    def _advance(self, _done: Event) -> None:
        world = self.world
        eng = world.engine
        now = eng.now
        comm = self.comm
        group = comm.group
        profiles = world.monitor.profiles
        chains = self.chains
        sanitizer = world.sanitizer
        k = self.k
        first = k == 0
        began = self.began
        self.k = nxt = k + 1
        self.began = now
        seq = self.seq + nxt
        last = nxt == self.last
        name = chains[comm.rank][nxt].name
        event = self.final if last else eng.event(f"coll:{name}:{seq}")
        seen = 0.0
        for r, arrival in self.arrivals.items():
            phases = chains[r]
            phase = phases[k]
            profiles[group[r]].record_mpi(
                phase.name, int(phase.nbytes), now - (arrival if first else began)
            )
            phase = phases[nxt]
            if sanitizer is not None:
                sanitizer.on_collective(
                    comm, phase.name, seq, None, phase.nbytes, r, event, phase.uneven
                )
            if phase.name != name:
                raise MpiError(
                    f"collective chain on comm {comm.comm_id} at call #{seq}: rank "
                    f"{group[r]} called {phase.name} but rank {group[comm.rank]} called {name}"
                )
            if phase.nbytes > seen:  # max(), keeping its first-wins tie
                seen = phase.nbytes
        # ``phase`` is now the last arriver's: its cost function prices.
        world._schedule_completion(
            comm, event, name, seen, phase.time_fn, phase.memo_key, now,
            now if last else None,
        )
        if not last:
            event.callbacks.append(self._advance)  # type: ignore[union-attr]


class _Transfer(Event):
    """Base of the point-to-point transfer steppers, :class:`_Send` and
    :class:`_Recv`.

    A transfer is its request's event, and it needs no simulated
    process: each step is a bound method, run from the heap by the
    transfer's one :class:`~repro.sim.events.Call` token (its start and
    its delays; at most one is pending at a time) or from the callbacks
    of an event it awaits.  Every step pushes the heap entry a process
    would have pushed at that point, in the same order: a delay lands at
    ``now + float(delay)`` as a timeout would, and the start at ``now``
    after the caller's dispatch.  An event wait counts in
    ``engine._blocked`` as a blocked process does, so a deadlock report
    is unchanged.  :meth:`MpiWorld.post_send` validates its inputs up
    front, so no step raises.
    """

    __slots__ = ("world", "msg", "_token")

    def __init__(self, world: "MpiWorld", name: str, start: _t.Callable[[], None]) -> None:
        eng = world.engine
        Event.__init__(self, eng, name)
        self.world = world
        self._token = token = Call(start)
        eng._seq += 1
        _heappush(eng._heap, (eng.now, eng._seq, token))

    def _sleep(self, delay: float, step: _t.Callable[[], None]) -> None:
        """Run ``step`` ``delay`` seconds from now."""
        eng = self.engine
        token = self._token
        token._dispatch = step
        eng._seq += 1
        _heappush(eng._heap, (eng.now + float(delay), eng._seq, token))


class _Send(_Transfer):
    """One inter-node send: eager, or rendezvous (RTS, wait for the
    receiver's CTS, then the data), with the data serialised through the
    source node's NIC.  Succeeds with ``None`` once the data has left
    the NIC."""

    __slots__ = ("nic",)

    def __init__(
        self, world: "MpiWorld", nic: "Resource", src: int, dst: int, nbytes: int,
        tag: int, payload: _t.Any, comm_id: int,
    ) -> None:
        self.nic = nic  # the source node's transmit side
        self.msg = Message(source=src, dest=dst, tag=tag, nbytes=nbytes, payload=payload,
                           comm_id=comm_id)
        _Transfer.__init__(self, world, "send", self._overhead)

    def _overhead(self) -> None:
        self._sleep(self.world.platform.spec.fabric.o_send, self._post)

    def _post(self) -> None:
        """After the send overhead: send the RTS, or go to the NIC."""
        plat = self.world.platform
        fabric = plat.spec.fabric
        msg = self.msg
        if not fabric.uses_rendezvous(msg.nbytes):
            self._request_nic()
            return
        eng = self.engine
        msg.is_rts = True
        msg.cts_event = cts = eng.event("cts")
        msg.data_ready = eng.event("data")
        rts_arrival = eng.now + fabric.latency + plat.net_extra_latency()
        eng.call_at(rts_arrival, self._deliver)
        eng._blocked += 1
        cts.callbacks.append(self._on_cts)

    def _on_cts(self, cts: Event) -> None:
        """The receiver matched the RTS at ``cts.value``; the CTS flies back."""
        eng = self.engine
        eng._blocked -= 1
        plat = self.world.platform
        cts_arrival = cts._value + plat.spec.fabric.latency + plat.net_extra_latency()
        if cts_arrival > eng.now:
            self._sleep(cts_arrival - eng.now, self._request_nic)
        else:
            self._request_nic()

    def _request_nic(self) -> None:
        self.engine._blocked += 1
        self.nic.request().callbacks.append(self._on_nic)

    def _on_nic(self, _grant: Event) -> None:
        self.engine._blocked -= 1
        self._sleep(self.world.platform.net_serialize(self.msg.nbytes), self._serialized)

    def _serialized(self) -> None:
        """The data has left the NIC: it lands one wire latency later."""
        eng = self.engine
        plat = self.world.platform
        msg = self.msg
        self.nic.release()
        arrival = eng.now + plat.spec.fabric.latency + plat.net_extra_latency()
        msg.arrival_time = arrival
        eng.call_at(arrival, self._land if msg.is_rts else self._deliver)
        self._token = None  # its bound step refers back to self
        self.succeed(None)

    def _deliver(self) -> None:
        """Put the message (eager data or RTS) in the receiver's mailbox."""
        self.world.mailboxes[self.msg.dest].put(self.msg)

    def _land(self) -> None:
        """The rendezvous data arrived: release the matched receive."""
        msg = self.msg
        msg.data_ready.succeed(msg.arrival_time)  # type: ignore[union-attr]


class _Recv(_Transfer):
    """One receive: match a message in the mailbox, release a rendezvous
    sender with the CTS and wait for its data, then pay the receive
    overhead.  Succeeds with the delivered
    :class:`~repro.smpi.message.Message`."""

    __slots__ = ("rank", "source", "tag", "comm_id")

    def __init__(
        self, world: "MpiWorld", rank: int, source: int, tag: int, comm_id: int
    ) -> None:
        self.rank = rank
        self.source = source
        self.tag = tag
        self.comm_id = comm_id
        self.msg: Message | None = None
        _Transfer.__init__(self, world, "recv", self._post)

    def _match(self, msg: Message) -> bool:
        return (
            msg.comm_id == self.comm_id
            and (self.source == ANY_SOURCE or msg.source == self.source)
            and (self.tag == ANY_TAG or msg.tag == self.tag)
        )

    def _post(self) -> None:
        self.engine._blocked += 1
        self.world.mailboxes[self.rank].get(self._match).callbacks.append(self._on_match)

    def _on_match(self, got: Event) -> None:
        eng = self.engine
        eng._blocked -= 1
        self.msg = msg = got._value
        if msg.is_rts:
            msg.cts_event.succeed(eng.now)
            eng._blocked += 1
            msg.data_ready.callbacks.append(self._on_data)
        else:
            self._overhead()

    def _on_data(self, _landed: Event) -> None:
        self.engine._blocked -= 1
        self._overhead()

    def _overhead(self) -> None:
        fabric = self.world.platform.topology.fabric_between(self.msg.source, self.rank)
        if fabric.o_recv > 0:
            self._sleep(fabric.o_recv, self._done)
        else:
            self._done()

    def _done(self) -> None:
        self._token = None  # its bound step refers back to self
        self.succeed(self.msg)


class MpiWorld:
    """One simulated MPI execution context.

    Parameters
    ----------
    platform:
        The :class:`PlatformSpec` to build a fresh engine and runtime
        platform from.
    nprocs:
        World size.
    placement:
        Rank placement policy (default: block, minimal nodes).
    seed:
        Engine seed.
    memo:
        Collective-cost cache (default: the process-wide shared cache
        from :mod:`repro.perf`); pass a disabled
        :class:`~repro.perf.memo.CollectiveMemo` to opt out.
    sanitize:
        Attach the runtime MPI sanitizer
        (:class:`~repro.analysis.sanitizer.MpiSanitizer`): wait-for-graph
        deadlock reports, collective-sequence mismatch detection,
        unmatched-send/message-leak checks at finalize and tag/peer
        validation.  ``None`` (the default) takes the innermost open
        run's ``sanitize``, else ``REPRO_SANITIZE``
        (:func:`repro.analysis.sanitizer.attach`).
        The sanitizer observes without scheduling events, so sanitized
        runs keep bit-identical virtual timestamps.
    """

    def __init__(
        self,
        platform: PlatformSpec,
        nprocs: int,
        placement: Placement | None = None,
        seed: int = 0,
        memo: CollectiveMemo | None = None,
        sanitize: bool | None = None,
    ) -> None:
        self.engine = Engine(seed=seed)
        self.platform = Platform(platform, self.engine)
        if nprocs < 1:
            raise ConfigError(f"nprocs must be >= 1, got {nprocs}")
        self.nprocs = nprocs
        place_ranks(self.platform, nprocs, placement)
        self.monitor = IpmMonitor(nprocs)
        self.monitor.system_time_share = self.platform.hypervisor.system_time_share
        self.mailboxes = [Store(self.engine, f"mbox{r}") for r in range(nprocs)]
        self.memo = memo if memo is not None else default_memo()
        self._coll_states: dict[tuple[int, str, int], _CollState] = {}
        #: ``comm_id -> (occupied nodes, max ranks per node)``.
        self._comm_shapes: dict[int, tuple[int, int]] = {}
        self._next_comm_id = 1
        # Imported lazily: repro.analysis pulls in the linter, which in
        # turn reads the collective registry from this package.
        from repro.analysis import sanitizer

        self.sanitizer = sanitizer.attach(self, sanitize)

    # -- communicator factory ----------------------------------------------
    def comm_world(self, rank: int) -> "Comm":
        """The ``MPI_COMM_WORLD`` handle for ``rank``."""
        from repro.smpi.comm import Comm

        return Comm(self, list(range(self.nprocs)), rank, comm_id=0)

    def alloc_comm_id(self) -> int:
        """Allocate a fresh communicator id (deterministic sequence)."""
        cid = self._next_comm_id
        self._next_comm_id += 1
        return cid

    # -- point-to-point wire protocol ----------------------------------------
    def post_send(
        self, src: int, dst: int, nbytes: int, tag: int, payload: _t.Any,
        comm_id: int = 0,
    ) -> Request:
        """Start a send on communicator ``comm_id``; returns a request
        whose event fires at local completion (data handed to the
        network/receiver).

        Every input is checked here, before any transfer step is
        scheduled, so a bad send raises in the calling rank's frame, not
        later from a step on the event heap.
        """
        if not (0 <= dst < self.nprocs):
            raise MpiError(f"send to invalid rank {dst} (world size {self.nprocs})")
        if nbytes < 0:
            raise MpiError(f"negative message size: {nbytes}")
        start = self.engine.now
        topo = self.platform.topology
        node = topo.node_of(src)
        if node is topo.node_of(dst):
            done = self._send_intranode(node, src, dst, nbytes, tag, payload, comm_id)
        else:
            done = _Send(self, node.nic_tx, src, dst, nbytes, tag, payload, comm_id)
        req = Request(kind="send", event=done, start_time=start, nbytes=nbytes, peer=dst, tag=tag)
        if self.sanitizer is not None:
            self.sanitizer.on_send(src, dst, nbytes, tag, req)
        return req

    def _send_intranode(
        self, node: "Node", src: int, dst: int, nbytes: int, tag: int, payload: _t.Any,
        comm_id: int,
    ) -> Event:
        """Shared-memory copy on ``node``: one delivery call and one
        local timeout."""
        eng = self.engine
        topo = self.platform.topology
        shm = self.platform.spec.shm
        bw = shm.bw.at(nbytes) * self.platform.shm_pressure(node.index)
        if topo.cross_socket(src, dst):
            bw *= topo.cross_socket_bw_factor
        copy = nbytes / bw if nbytes > 0 else 0.0
        # Large intra-node messages still need the receiver to drain the
        # copy loop; model the handshake as one extra shm latency.
        handshake = shm.latency if nbytes > shm.eager_threshold else 0.0
        sender_busy = shm.o_send + copy + handshake
        arrival = eng.now + sender_busy + shm.latency
        msg = Message(source=src, dest=dst, tag=tag, nbytes=nbytes, payload=payload,
                      comm_id=comm_id, arrival_time=arrival)
        eng.call_at(arrival, partial(self.mailboxes[dst].put, msg))
        return eng.timeout(sender_busy)

    def post_recv(self, rank: int, source: int, tag: int, comm_id: int = 0) -> Request:
        """Start a receive on communicator ``comm_id``; the request event
        fires with the Message."""
        eng = self.engine
        done = _Recv(self, rank, source, tag, comm_id)
        req = Request(kind="recv", event=done, start_time=eng.now, nbytes=0, peer=source, tag=tag)
        if self.sanitizer is not None:
            self.sanitizer.on_recv(rank, source, tag, req)
        return req

    # -- collectives ------------------------------------------------------------
    def collective(
        self,
        comm: "Comm",
        name: str,
        nbytes: float,
        time_fn: _t.Callable[[CollectiveContext, float], float],
        contribution: _t.Any = None,
        finisher: _t.Callable[[dict[int, _t.Any], _t.Any], dict[int, _t.Any]] | None = None,
        finisher_arg: _t.Any = None,
        memo_key: _t.Hashable = None,
        root: int | None = None,
        uneven: bool = False,
        chain: tuple["Phase", ...] = (),
    ) -> _t.Generator:
        """One synchronising collective for the calling rank.

        ``time_fn(ctx, nbytes)`` supplies the algorithm cost;
        ``finisher(contributions, finisher_arg)`` maps the {local rank:
        contribution} dict of the ranks that passed one to a {local rank:
        result} dict once everyone has arrived (results of ``None`` when
        no rank passed one); the first ``finisher`` passed, and its
        ``finisher_arg``, are used.  The returned
        generator yields until completion and returns this rank's
        result.

        ``memo_key`` opts the cost into the world's
        :class:`~repro.perf.memo.CollectiveMemo`: it must uniquely
        identify ``time_fn`` (including anything it closes over) so the
        cache key ``(memo_key, ctx, nbytes)`` fully determines the cost.
        Leave it ``None`` for ad-hoc composite phases whose cost depends
        on state outside the context.

        ``root`` and ``uneven`` are purely diagnostic: rooted collectives
        pass ``root`` so the sanitizer can detect cross-rank root
        divergence, and phases whose per-rank byte counts legitimately
        differ (:meth:`~repro.smpi.comm.Comm.composite`) pass
        ``uneven=True`` so it skips its byte-count check.

        ``chain`` (from :meth:`~repro.smpi.comm.Comm.chain`) makes this
        the first of two or more result-less phases, ``chain[0]`` being
        this one: the rank resumes once, after the last.  Each phase
        completes, is priced and is accounted at the instants and in
        the order the phases called one by one would be, so the two
        programs are bit-identical, dispatched events included.  Every
        rank of an instance must chain the same number of phases.
        """
        eng = self.engine
        my_local = comm.rank
        seq = comm._seq
        comm._seq = seq + 1
        key = (comm.comm_id, name, seq)
        state = self._coll_states.get(key)
        if state is None:
            state = _CollState(comm.size, eng.event(f"coll:{name}:{seq}"))
            self._coll_states[key] = state
        if my_local in state.arrivals:
            raise MpiError(
                f"rank {my_local} entered collective {name} seq {seq} twice"
            )
        if self.sanitizer is not None:
            self.sanitizer.on_collective(
                comm, name, seq, root, nbytes, my_local, state.event, uneven
            )
        arrival = eng.now
        state.arrivals[my_local] = arrival
        if finisher is not None:  # only a finisher reads contributions
            state.contributions[my_local] = contribution
            if state.finisher is None:
                state.finisher, state.finisher_arg = finisher, finisher_arg
        if nbytes > state.nbytes_seen:  # max(), keeping its first-wins tie
            state.nbytes_seen = nbytes
        wait = state.event
        if chain:
            comm._seq = seq + len(chain)
            if state.chains is None:
                state.chains = {}
                state.final = eng.event(f"coll:{chain[-1].name}:{seq + len(chain) - 1}")
            state.chains[my_local] = chain
            wait = state.final

        if len(state.arrivals) == state.expected:
            del self._coll_states[key]
            if state.chains is not None:
                lengths = {len(c) for c in state.chains.values()}
                if len(state.chains) != state.expected or len(lengths) > 1:
                    raise MpiError(
                        f"collective {name} on comm {comm.comm_id} at call #{seq}: "
                        "a chain met a plain collective or a chain of another length"
                    )
            finisher = state.finisher
            results = (
                finisher(state.contributions, state.finisher_arg)
                if finisher is not None else {}
            )
            self._schedule_completion(
                comm, state.event, name, state.nbytes_seen, time_fn, memo_key,
                max(state.arrivals.values()), results,
            )
            if chain:
                _Chain(self, comm, seq, state, len(chain))

        results = yield wait
        if chain:  # the last phase's event carries the instant it began
            name, nbytes, arrival, results = chain[-1].name, chain[-1].nbytes, results, None
        self.monitor.profiles[comm.group[my_local]].record_mpi(
            name, int(nbytes), eng.now - arrival
        )
        return results.get(my_local) if results else None

    def _schedule_completion(
        self,
        comm: "Comm",
        event: Event,
        name: str,
        nbytes: float,
        time_fn: _t.Callable[[CollectiveContext, float], float],
        memo_key: _t.Hashable,
        latest: float,
        value: _t.Any,
    ) -> None:
        """Price one phase whose last rank arrived at ``latest`` and
        pre-trigger ``event`` with ``value`` for its completion.

        The one pricing sequence of plain collectives and chain phases:
        the context (with its latency draw), then the cost function or
        the memo.
        """
        ctx = self._collective_context(comm)
        if memo_key is not None:
            duration = self.memo.time(memo_key, ctx, nbytes, time_fn)
        else:
            duration = time_fn(ctx, nbytes)
        if duration < 0:
            raise MpiError(f"negative collective time from {name}: {duration}")
        completion = latest + duration
        # One heap entry, landing where a ``timeout(completion - now)``
        # would (the same ``now + (completion - now)`` float round trip).
        now = self.engine.now
        event.schedule_at(now + (completion - now), value)

    def _collective_context(self, comm: "Comm") -> CollectiveContext:
        platform = self.platform
        group = comm.group
        # Placement is fixed for the life of a world, so a communicator's
        # node shape is resolved once; the latency draw stays per instance.
        shape = self._comm_shapes.get(comm.comm_id)
        if shape is None:
            topo = platform.topology
            shape = (topo.occupied_nodes(group), topo.max_ranks_per_node(group))
            self._comm_shapes[comm.comm_id] = shape
        nnodes, rpn = shape
        extra = platform.net_extra_latency() if nnodes > 1 else 0.0
        return CollectiveContext(
            p=len(group),
            nnodes=nnodes,
            rpn=rpn,
            net=platform.spec.fabric,
            shm=platform.spec.shm,
            extra_latency=extra,
            net_bw_factor=platform.hypervisor.net_bw_factor(),
            shm_bw_factor=platform.worst_shm_pressure(),
        )

    # -- launching ----------------------------------------------------------------
    def launch(
        self,
        program: _t.Callable[..., _t.Generator],
        *args: _t.Any,
        **kwargs: _t.Any,
    ) -> "RunResult":
        """Run ``program(comm, *args, **kwargs)`` on every rank to completion."""
        procs = []
        finish_times = [0.0] * self.nprocs
        for rank in range(self.nprocs):
            comm = self.comm_world(rank)
            gen = program(comm, *args, **kwargs)
            proc = self.engine.process(gen, name=f"rank{rank}")
            proc.add_callback(
                lambda _ev, r=rank: finish_times.__setitem__(r, self.engine.now)
            )
            procs.append(proc)

        done = self.engine.all_of(procs)
        self.engine.run(done)
        # Drain any stragglers (e.g. in-flight message arrivals): the
        # sanitizer's finalize checks depend on seeing every delivered
        # message.
        self.engine.run()
        for rank in range(self.nprocs):
            self.monitor[rank].finalize(finish_times[rank])
        report = None
        if self.sanitizer is not None:
            from repro.errors import SanitizerError

            report = self.sanitizer.finalize()
            errors = report.errors()
            if errors:
                raise SanitizerError(
                    "MPI sanitizer found "
                    f"{len(errors)} error(s) at finalize:\n"
                    + "\n".join(f"  {d.render()}" for d in errors),
                    errors,
                )
        return RunResult(
            world=self,
            wall_time=self.engine.now,
            rank_results=[p.value for p in procs],
            sanitizer_report=report,
        )


@dataclasses.dataclass(slots=True)
class RunResult:
    """Outcome of one :meth:`MpiWorld.launch`."""

    world: MpiWorld
    wall_time: float
    rank_results: list[_t.Any]
    #: Structured sanitizer output (None when the run was unsanitized).
    sanitizer_report: "SanitizerReport | None" = None
    #: Always ``None`` (no world fast-forwards); the e2e benchmark's tracer reads both.
    replay = None
    fastcollect = None

    @property
    def monitor(self) -> IpmMonitor:
        return self.world.monitor

    def report(self, region: str | None = None) -> IpmReport:
        """IPM summary for ``region`` (default: whole run)."""
        from repro.ipm.monitor import GLOBAL_REGION

        return summarize(self.world.monitor, region or GLOBAL_REGION)


def run_program(
    platform: PlatformSpec,
    nprocs: int,
    program: _t.Callable[..., _t.Generator],
    *args: _t.Any,
    placement: Placement | None = None,
    seed: int = 0,
    **kwargs: _t.Any,
) -> RunResult:
    """Convenience wrapper: build one world and run ``program`` on it."""
    world = MpiWorld(platform, nprocs, placement=placement, seed=seed)
    return world.launch(program, *args, **kwargs)
