"""The MPI world: rank processes, transfers, collectives, launching.

:class:`MpiWorld` ties a :class:`~repro.platforms.base.Platform` runtime,
an :class:`~repro.ipm.monitor.IpmMonitor` and the per-rank mailboxes
together, and implements the point-to-point wire protocol (eager /
rendezvous with NIC serialisation) and the synchronising collective
mechanism described in :mod:`repro.smpi.collectives`.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.errors import ConfigError, MpiError
from repro.ipm.monitor import IpmMonitor
from repro.ipm.report import IpmReport, summarize
from repro.perf.memo import CollectiveMemo, default_memo
from repro.platforms.base import Platform, PlatformSpec
from repro.sim.engine import Engine
from repro.sim.events import Event
from repro.sim.resources import Store
from repro.smpi.collectives.algorithms import CollectiveContext
from repro.smpi.mapping import Placement, place_ranks
from repro.smpi.message import Message, Request

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.sanitizer import SanitizerReport
    from repro.smpi.comm import Comm


class _CollState:
    """In-flight state of one collective operation instance."""

    __slots__ = ("expected", "arrivals", "contributions", "event", "nbytes_seen")

    def __init__(self, expected: int, event: Event) -> None:
        self.expected = expected
        self.arrivals: dict[int, float] = {}  # local rank -> arrival time
        self.contributions: dict[int, _t.Any] = {}
        self.event = event
        self.nbytes_seen: float = 0.0


class MpiWorld:
    """One simulated MPI execution context.

    Parameters
    ----------
    platform:
        A :class:`PlatformSpec` (a fresh engine and runtime platform are
        built) or an existing :class:`Platform` runtime.
    nprocs:
        World size.
    placement:
        Rank placement policy (default: block, minimal nodes).
    seed:
        Engine seed (ignored when an existing platform is passed).
    memo:
        Collective-cost cache (default: the process-wide shared cache
        from :mod:`repro.perf`); pass a disabled
        :class:`~repro.perf.memo.CollectiveMemo` to opt out.
    sanitize:
        Attach the runtime MPI sanitizer
        (:class:`~repro.analysis.sanitizer.MpiSanitizer`): wait-for-graph
        deadlock reports, collective-sequence mismatch detection,
        unmatched-send/message-leak checks at finalize and tag/peer
        validation.  ``None`` (the default) defers to the run's world
        options (:func:`repro.analysis.sanitizer.sanitize_enabled`).
        The sanitizer observes without scheduling events, so sanitized
        runs keep bit-identical virtual timestamps.
    """

    def __init__(
        self,
        platform: PlatformSpec | Platform,
        nprocs: int,
        placement: Placement | None = None,
        seed: int = 0,
        timeline: bool = False,
        memo: CollectiveMemo | None = None,
        sanitize: bool | None = None,
    ) -> None:
        if isinstance(platform, PlatformSpec):
            self.engine = Engine(seed=seed)
            self.platform = Platform(platform, self.engine)
        else:
            self.platform = platform
            self.engine = platform.engine
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
        from repro.analysis.sanitizer import MpiSanitizer, sanitize_enabled

        if sanitize is None:
            sanitize = sanitize_enabled()
        self.sanitizer = MpiSanitizer(self) if sanitize else None
        #: Optional per-rank interval trace (memory-heavy; off by default).
        from repro.ipm.timeline import Timeline

        self.timeline = Timeline(nprocs) if timeline else None

    def record_interval(
        self, rank: int, start: float, end: float, kind: str, label: str
    ) -> None:
        """Record an activity interval when timeline tracing is enabled."""
        if self.timeline is not None:
            self.timeline.record(rank, start, end, kind, label)

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
        self, src: int, dst: int, nbytes: int, tag: int, payload: _t.Any
    ) -> Request:
        """Start a send; returns a request whose event fires at local
        completion (data handed to the network/receiver)."""
        if not (0 <= dst < self.nprocs):
            raise MpiError(f"send to invalid rank {dst} (world size {self.nprocs})")
        if nbytes < 0:
            raise MpiError(f"negative message size: {nbytes}")
        eng = self.engine
        topo = self.platform.topology
        start = eng.now
        if topo.same_node(src, dst):
            done = self._send_intranode(src, dst, nbytes, tag, payload)
        else:
            done = eng.process(
                self._send_internode(src, dst, nbytes, tag, payload),
                name=f"send:{src}->{dst}",
            )
        req = Request(kind="send", event=done, start_time=start, nbytes=nbytes, peer=dst, tag=tag)
        if self.sanitizer is not None:
            self.sanitizer.on_send(src, dst, nbytes, tag, req)
        return req

    def _send_intranode(
        self, src: int, dst: int, nbytes: int, tag: int, payload: _t.Any
    ) -> Event:
        """Shared-memory copy: cheap enough to implement with callbacks."""
        eng = self.engine
        topo = self.platform.topology
        shm = self.platform.spec.shm
        bw = shm.bw.at(nbytes) * self.platform.shm_pressure(topo.node_of(src).index)
        if topo.cross_socket(src, dst):
            bw *= topo.cross_socket_bw_factor
        copy = nbytes / bw if nbytes > 0 else 0.0
        # Large intra-node messages still need the receiver to drain the
        # copy loop; model the handshake as one extra shm latency.
        handshake = shm.latency if nbytes > shm.eager_threshold else 0.0
        sender_busy = shm.o_send + copy + handshake
        arrival = eng.now + sender_busy + shm.latency
        msg = Message(source=src, dest=dst, tag=tag, nbytes=nbytes, payload=payload,
                      arrival_time=arrival)
        eng.call_at(arrival, lambda: self.mailboxes[dst].put(msg))
        return eng.timeout(sender_busy)

    def _send_internode(
        self, src: int, dst: int, nbytes: int, tag: int, payload: _t.Any
    ) -> _t.Generator:
        """Eager/rendezvous transfer through the NIC and fabric."""
        eng = self.engine
        plat = self.platform
        fabric = plat.spec.fabric
        src_node = plat.topology.node_of(src)
        yield eng.timeout(fabric.o_send)

        rendezvous = fabric.uses_rendezvous(nbytes)
        msg = Message(source=src, dest=dst, tag=tag, nbytes=nbytes, payload=payload)
        if rendezvous:
            msg.is_rts = True
            msg.cts_event = eng.event(f"cts:{src}->{dst}")
            msg.data_ready = eng.event(f"data:{src}->{dst}")
            rts_arrival = eng.now + fabric.latency + plat.net_extra_latency()
            eng.call_at(rts_arrival, lambda: self.mailboxes[dst].put(msg))
            matched_at = yield msg.cts_event  # receiver matched the RTS
            cts_arrival = matched_at + fabric.latency + plat.net_extra_latency()
            if cts_arrival > eng.now:
                yield eng.timeout(cts_arrival - eng.now)

        # Serialise the data through the (possibly shared) NIC.
        yield src_node.nic_tx.request()
        try:
            yield eng.timeout(plat.net_serialize(nbytes))
        finally:
            src_node.nic_tx.release()
        arrival = eng.now + fabric.latency + plat.net_extra_latency()
        msg.arrival_time = arrival
        if rendezvous:
            data_ready = msg.data_ready
            assert data_ready is not None
            eng.call_at(arrival, lambda: data_ready.succeed(arrival))
        else:
            eng.call_at(arrival, lambda: self.mailboxes[dst].put(msg))
        return None

    def post_recv(self, rank: int, source: int, tag: int) -> Request:
        """Start a receive; the request event fires with the Message."""
        eng = self.engine
        proc = eng.process(self._recv_process(rank, source, tag), name=f"recv:{rank}")
        req = Request(kind="recv", event=proc, start_time=eng.now, nbytes=0, peer=source, tag=tag)
        if self.sanitizer is not None:
            self.sanitizer.on_recv(rank, source, tag, req)
        return req

    def _recv_process(self, rank: int, source: int, tag: int) -> _t.Generator:
        from repro.smpi.comm import ANY_SOURCE, ANY_TAG

        def match(m: Message) -> bool:
            return (source == ANY_SOURCE or m.source == source) and (
                tag == ANY_TAG or m.tag == tag
            )

        msg: Message = yield self.mailboxes[rank].get(match)
        fabric = self.platform.topology.fabric_between(msg.source, rank)
        if msg.is_rts:
            assert msg.cts_event is not None and msg.data_ready is not None
            msg.cts_event.succeed(self.engine.now)
            yield msg.data_ready
        if fabric.o_recv > 0:
            yield self.engine.timeout(fabric.o_recv)
        return msg

    # -- collectives ------------------------------------------------------------
    def collective(
        self,
        comm: "Comm",
        name: str,
        nbytes: float,
        time_fn: _t.Callable[[CollectiveContext, float], float],
        contribution: _t.Any = None,
        finisher: _t.Callable[[dict[int, _t.Any]], dict[int, _t.Any]] | None = None,
        memo_key: _t.Hashable = None,
        root: int | None = None,
        uneven: bool = False,
    ) -> _t.Generator:
        """One synchronising collective for the calling rank.

        ``time_fn(ctx, nbytes)`` supplies the algorithm cost;
        ``finisher`` maps the {local rank: contribution} dict to a
        {local rank: result} dict once everyone has arrived (identity
        results of ``None`` when omitted).  The returned generator
        yields until completion and returns this rank's result.

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
        state.contributions[my_local] = contribution
        if nbytes > state.nbytes_seen:  # max(), keeping its first-wins tie
            state.nbytes_seen = nbytes

        if len(state.arrivals) == state.expected:
            del self._coll_states[key]
            ctx = self._collective_context(comm)
            if memo_key is not None:
                duration = self.memo.time(memo_key, ctx, state.nbytes_seen, time_fn)
            else:
                duration = time_fn(ctx, state.nbytes_seen)
            if duration < 0:
                raise MpiError(f"negative collective time from {name}: {duration}")
            completion = max(state.arrivals.values()) + duration
            results = (
                finisher(state.contributions) if finisher is not None else {}
            )
            # Pre-trigger the shared event for its completion instant:
            # one heap entry, landing where a ``timeout(completion - now)``
            # would (the same ``now + (completion - now)`` float round trip).
            now = eng.now
            state.event.schedule_at(now + (completion - now), results)

        results = yield state.event
        now = eng.now
        world_rank = comm.group[my_local]
        self.monitor.profiles[world_rank].record_mpi(name, int(nbytes), now - arrival)
        if self.timeline is not None:
            self.timeline.record(world_rank, arrival, now, "mpi", name)
        return results.get(my_local) if results else None

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
    reps: int = 1,
    **kwargs: _t.Any,
) -> RunResult:
    """Convenience wrapper: build a world, run, optionally repeat.

    With ``reps > 1`` the run is repeated with distinct seeds and the
    result with the *minimum* wall time is returned — the paper's
    protocol ("each run was repeated 5 times, with the minimum time
    being used").
    """
    best: RunResult | None = None
    for rep in range(max(1, reps)):
        world = MpiWorld(platform, nprocs, placement=placement, seed=seed + 1000 * rep)
        result = world.launch(program, *args, **kwargs)
        if best is None or result.wall_time < best.wall_time:
            best = result
    assert best is not None
    return best
