"""The rank-facing communicator API.

A :class:`Comm` is what simulated programs receive as their first
argument.  All blocking operations are generators — call them with
``yield from``::

    def program(comm):
        with comm.region("solve"):
            yield from comm.compute(flops=1e8, mem_bytes=8e6)
            s = yield from comm.allreduce(8, value=comm.rank)
        return s

Naming follows mpi4py's lowercase convenience methods (``send``,
``recv``, ``allreduce``, ``alltoall``, ...), with explicit byte counts
instead of buffers: this simulator prices messages, it does not move
memory — though every collective and point-to-point call *can* carry a
real payload, delivered and reduced exactly.
"""

from __future__ import annotations

import contextlib
import functools
import typing as _t

from repro.errors import MpiError
from repro.smpi.collectives import algorithms as _alg
from repro.smpi.message import Message, Request

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.smpi.world import MpiWorld

ANY_SOURCE = -1
ANY_TAG = -1


def _sum_op(a: _t.Any, b: _t.Any) -> _t.Any:
    return a + b


class Phase(_t.NamedTuple):
    """One result-less synchronising phase of a :meth:`Comm.chain`:
    what :meth:`~repro.smpi.world.MpiWorld.collective` prices it from.
    Built by :meth:`Comm.barrier_phase`, :meth:`Comm.allreduce_phase`
    and :meth:`Comm.composite_phase`; immutable, so a program can build
    its phases once and chain them every iteration."""

    name: str
    nbytes: float
    time_fn: _t.Callable[[_alg.CollectiveContext, float], float]
    memo_key: _t.Hashable
    uneven: bool


class Burst(_t.NamedTuple):
    """One compute burst of a :meth:`Comm.chain`: the arguments of
    :meth:`Comm.compute`.  Built by :meth:`Comm.compute_phase`."""

    flops: float
    mem_bytes: float
    working_set: float
    access: str


class ChainPlan(_t.NamedTuple):
    """One rank's :meth:`Comm.chain`, as
    :meth:`~repro.smpi.world.MpiWorld.collective` receives it: ``steps``
    run ``repeat`` times over, with a :class:`Phase` at each position of
    ``at`` and a :class:`Burst` everywhere else."""

    steps: tuple[Phase | Burst, ...]
    repeat: int
    at: tuple[int, ...]

    @property
    def phases(self) -> int:
        """How many phases the chain runs, over all its repeats."""
        return len(self.at) * self.repeat


class Comm:
    """A communicator handle bound to one rank.

    ``group`` lists the *world* ranks of the members; ``rank`` is this
    member's index within the group (its rank in this communicator).
    """

    def __init__(self, world: "MpiWorld", group: list[int], rank: int, comm_id: int) -> None:
        self.world = world
        self.group = group
        self.rank = rank
        self.comm_id = comm_id
        self._seq = 0
        #: Free-form per-rank scratch space for program state (e.g. the
        #: sub-communicators a benchmark builds during setup).  Each rank
        #: has its own Comm instance, so this is rank-private.
        self.cache: dict[str, _t.Any] = {}

    # -- identity ------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of ranks in this communicator."""
        return len(self.group)

    @property
    def world_rank(self) -> int:
        """This member's rank in ``MPI_COMM_WORLD``."""
        return self.group[self.rank]

    @property
    def engine(self):
        return self.world.engine

    def wtime(self) -> float:
        """Current virtual time (``MPI_Wtime``)."""
        return self.world.engine.now

    def _world_rank_of(self, local: int) -> int:
        if not (0 <= local < self.size):
            raise MpiError(f"rank {local} out of range for size {self.size}")
        return self.group[local]

    # -- local time consumption -------------------------------------------------
    def compute(
        self,
        flops: float = 0.0,
        mem_bytes: float = 0.0,
        working_set: float = 0.0,
        access: str = "stream",
    ) -> _t.Generator:
        """Burn virtual CPU time per the platform's roofline model.

        ``working_set`` (bytes actually touched per sweep) enables the
        cache-residency model: traffic for working sets near the rank's
        cache share is served from cache rather than DRAM.  ``access``
        ("stream" or "random") selects how exposed the burst is to
        NUMA-masking stalls on virtualised platforms.

        The bursts of a :meth:`chain` (:meth:`compute_phase` steps) are
        drawn by :mod:`repro.smpi.chain` and do not pass through this
        method; a tracer that must see every burst hooks
        :meth:`Platform.compute_seconds
        <repro.platforms.base.Platform.compute_seconds>` or
        :meth:`RankProfile.record_compute
        <repro.ipm.monitor.RankProfile.record_compute>` instead.
        """
        world = self.world
        rank = self.group[self.rank]
        duration = world.platform.compute_seconds(
            rank, flops, mem_bytes, working_set, access
        )
        if duration > 0:
            yield duration
        world.monitor.profiles[rank].record_compute(duration)
        return duration

    def delay(self, seconds: float, account: str = "compute") -> _t.Generator:
        """Spend a fixed amount of virtual time (``account``: compute|io)."""
        if seconds < 0:
            raise MpiError(f"negative delay: {seconds}")
        if account not in ("compute", "io"):
            raise MpiError(f"delay account must be 'compute' or 'io', got {account!r}")
        if seconds > 0:
            yield seconds
        profile = self.world.monitor[self.world_rank]
        if account == "io":
            profile.record_io(seconds)
        else:
            profile.record_compute(seconds)
        return seconds

    def io_read(self, nbytes: float, concurrent: int | None = None) -> _t.Generator:
        """Read from the platform's shared filesystem."""
        clients = concurrent if concurrent is not None else self.size
        duration = self.world.platform.fs.read_time(nbytes, clients)
        yield duration
        self.world.monitor[self.world_rank].record_io(duration)
        return duration

    def io_write(self, nbytes: float, concurrent: int | None = None) -> _t.Generator:
        """Write to the platform's shared filesystem."""
        clients = concurrent if concurrent is not None else self.size
        duration = self.world.platform.fs.write_time(nbytes, clients)
        yield duration
        self.world.monitor[self.world_rank].record_io(duration)
        return duration

    # -- IPM regions ---------------------------------------------------------------
    @contextlib.contextmanager
    def region(self, name: str) -> _t.Iterator[None]:
        """Mark an IPM code region (``MPI_Pcontrol`` style)."""
        profile = self.world.monitor[self.world_rank]
        profile.enter(name, self.engine.now)
        try:
            yield
        finally:
            profile.exit(name, self.engine.now)

    # -- point-to-point ---------------------------------------------------------------
    def isend(
        self, dest: int, nbytes: int, tag: int = 0, payload: _t.Any = None
    ) -> Request:
        """Non-blocking send of ``nbytes`` to local rank ``dest``."""
        return self.world.post_send(
            self.world_rank, self._world_rank_of(dest), nbytes, tag, payload,
            self.comm_id,
        )

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Non-blocking receive."""
        src_world = source if source == ANY_SOURCE else self._world_rank_of(source)
        return self.world.post_recv(self.world_rank, src_world, tag, self.comm_id)

    def wait(self, request: Request, _call: str | None = None) -> _t.Generator:
        """Block until ``request`` completes; returns the Message for recvs."""
        world = self.world
        t0 = world.engine.now
        value = yield request.event
        call = _call or "MPI_Wait"
        nbytes = value.nbytes if isinstance(value, Message) else request.nbytes
        rank = self.group[self.rank]
        now = world.engine.now
        world.monitor.profiles[rank].record_mpi(call, nbytes, now - t0)
        return value

    def waitall(self, requests: _t.Sequence[Request]) -> _t.Generator:
        """Block until every request completes; returns their values."""
        world = self.world
        t0 = world.engine.now
        values = yield world.engine.all_of([r.event for r in requests])
        nbytes = sum(
            v.nbytes if isinstance(v, Message) else r.nbytes
            for v, r in zip(values, requests)
        )
        rank = self.group[self.rank]
        now = world.engine.now
        world.monitor.profiles[rank].record_mpi("MPI_Waitall", nbytes, now - t0)
        return values

    def send(
        self, dest: int, nbytes: int, tag: int = 0, payload: _t.Any = None
    ) -> _t.Generator:
        """Blocking send."""
        req = self.isend(dest, nbytes, tag, payload)
        world = self.world
        t0 = world.engine.now
        yield req.event
        rank = self.group[self.rank]
        now = world.engine.now
        world.monitor.profiles[rank].record_mpi("MPI_Send", nbytes, now - t0)
        return None

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> _t.Generator:
        """Blocking receive; returns the delivered :class:`Message`."""
        req = self.irecv(source, tag)
        world = self.world
        t0 = world.engine.now
        msg: Message = yield req.event
        rank = self.group[self.rank]
        now = world.engine.now
        world.monitor.profiles[rank].record_mpi("MPI_Recv", msg.nbytes, now - t0)
        return msg

    def sendrecv(
        self,
        dest: int,
        send_bytes: int,
        source: int,
        recv_tag: int = 0,
        send_tag: int = 0,
        payload: _t.Any = None,
    ) -> _t.Generator:
        """Simultaneous send+receive (the halo-exchange workhorse)."""
        rreq = self.irecv(source, recv_tag)
        sreq = self.isend(dest, send_bytes, send_tag, payload)
        world = self.world
        t0 = world.engine.now
        values = yield world.engine.all_of([rreq.event, sreq.event])
        msg: Message = values[0]
        rank = self.group[self.rank]
        now = world.engine.now
        world.monitor.profiles[rank].record_mpi("MPI_Sendrecv", send_bytes + msg.nbytes, now - t0)
        return msg

    # -- collectives -------------------------------------------------------------------
    # Each method returns the dispatched generator from
    # ``MpiWorld.collective`` directly (callers ``yield from`` it either
    # way), which keeps one generator frame off the per-operation path.
    # Finishers and cost functions are module-level: only the completing
    # rank's would run, so no rank builds one per call.

    def barrier(self) -> _t.Generator:
        """Synchronise all ranks."""
        name, time_fn, memo_key = _BARRIER
        return self.world.collective(self, name, 0, time_fn, memo_key=memo_key)

    def allreduce(
        self,
        nbytes: float,
        value: _t.Any = None,
        op: _t.Callable[[_t.Any, _t.Any], _t.Any] = _sum_op,
    ) -> _t.Generator:
        """All-reduce; every rank receives the ``op``-combined value of
        the ranks that passed one (``None`` if none did)."""
        name, time_fn, memo_key = _ALLREDUCE
        if value is None:  # nothing to combine on this rank
            return self.world.collective(self, name, nbytes, time_fn, memo_key=memo_key)
        return self.world.collective(
            self, name, nbytes, time_fn,
            contribution=value, finisher=_allreduce_finish, finisher_arg=(op, self.size),
            memo_key=memo_key,
        )

    def scatter(
        self, nbytes: float, root: int = 0, values: _t.Sequence[_t.Any] | None = None
    ) -> _t.Generator:
        """Scatter ``values`` (given at root) to all ranks."""
        return self.world.collective(
            self, "MPI_Scatter", nbytes, _alg.scatter_time,
            contribution=values if self.rank == root else None,
            finisher=_scatter_finish, finisher_arg=root, memo_key="scatter",
            root=root,
        )

    def alltoall(
        self, nbytes_total: float, values: _t.Sequence[_t.Any] | None = None
    ) -> _t.Generator:
        """All-to-all; ``nbytes_total`` is the payload each rank sends in
        total (NPB convention).  With ``values`` (length ``size``), rank
        ``i`` receives ``[values_j[i] for j]``."""
        return self.world.collective(
            self, "MPI_Alltoall", nbytes_total, _alg.alltoall_time,
            contribution=values, finisher=_alltoall_finish, memo_key="alltoall",
        )

    def alltoallv(
        self,
        total_send: float,
        max_pair: float | None = None,
        values: _t.Sequence[_t.Any] | None = None,
    ) -> _t.Generator:
        """Irregular all-to-all (bucketed key redistribution in NPB IS)."""

        def time_fn(ctx: _alg.CollectiveContext, n: float) -> float:
            return _alg.alltoallv_time(ctx, n, max_pair)

        return self.world.collective(
            self, "MPI_Alltoallv", total_send, time_fn,
            contribution=values, finisher=_alltoall_finish,
            memo_key=("alltoallv", max_pair),
        )

    def composite(
        self,
        name: str,
        nbytes: float,
        time_fn: _t.Callable[[_alg.CollectiveContext, float], float],
    ) -> _t.Generator:
        """A custom synchronising composite operation.

        Workloads with communication phases too fine-grained to simulate
        message-by-message (e.g. LU's pipelined wavefront sweeps, BT/SP's
        ADI line solves) model the phase analytically: all ranks
        synchronise and ``time_fn(ctx, nbytes)`` prices the whole phase.
        The accounting is identical to a collective's.  Each rank passes
        its own ``nbytes``, which may differ between ranks (a halo
        exchange on an uneven partition); the sanitizer does not flag
        that.  The phase cost is not memoised.
        """
        return self.world.collective(self, name, nbytes, time_fn, uneven=True)

    # -- collective chains -------------------------------------------------------------
    def chain(self, *steps: Phase | Burst, repeat: int = 1) -> _t.Generator:
        """Run result-less phases and the compute bursts between them as
        one collective chain, ``repeat`` times over.

        The same as calling each phase's collective and each burst's
        :meth:`compute` in turn, down to the last bit of every IPM number
        and the engine's dispatched events, but the calling rank resumes
        once, after the last phase: the engine prices each next phase
        from the previous one's completion event, and draws each burst
        between two phases at the earlier one's completion, as one heap
        entry per rank where that rank's sleep would land.  Bursts before
        the first phase and after the last run as plain :meth:`compute`
        calls.  Every rank of the communicator must chain the same
        phases (each with its own byte count, as in :meth:`composite`)
        with bursts at the same positions (each with its own shape) and
        the same ``repeat``; a rank that calls the phases one by one or
        repeats its chain a different number of times instead raises
        :class:`~repro.errors.MpiError`.  A chain of one phase run once
        is that phase's plain collective.
        """
        at = tuple([i for i, step in enumerate(steps) if type(step) is Phase])
        if not at:
            raise MpiError("a collective chain needs at least one phase")
        if repeat < 1:
            raise MpiError(f"a collective chain runs at least once, got repeat={repeat}")
        first, last = at[0], at[-1]
        name, nbytes, time_fn, memo_key, uneven = steps[first]
        run = self.world.collective(
            self, name, nbytes, time_fn, memo_key=memo_key, uneven=uneven,
            chain=ChainPlan(steps, repeat, at) if len(at) > 1 or repeat > 1 else None,
        )
        if first == 0 and last == len(steps) - 1:
            return run
        return self._bracketed(steps[:first], run, steps[last + 1:])

    def _bracketed(
        self, before: tuple[Burst, ...], run: _t.Generator, after: tuple[Burst, ...]
    ) -> _t.Generator:
        """A chain's bursts before its first phase and after its last,
        run by the rank itself around the chain ``run``."""
        for burst in before:
            yield from self.compute(*burst)
        yield from run
        for burst in after:
            yield from self.compute(*burst)

    def compute_phase(
        self,
        flops: float = 0.0,
        mem_bytes: float = 0.0,
        working_set: float = 0.0,
        access: str = "stream",
    ) -> Burst:
        """The :meth:`compute` burst of a :meth:`chain`."""
        return Burst(flops, mem_bytes, working_set, access)

    def barrier_phase(self) -> Phase:
        """The :meth:`barrier` phase of a :meth:`chain`."""
        name, time_fn, memo_key = _BARRIER
        return Phase(name, 0, time_fn, memo_key, False)

    def allreduce_phase(self, nbytes: float) -> Phase:
        """The :meth:`allreduce` phase of a :meth:`chain`, with no value."""
        name, time_fn, memo_key = _ALLREDUCE
        return Phase(name, nbytes, time_fn, memo_key, False)

    def composite_phase(
        self,
        name: str,
        nbytes: float,
        time_fn: _t.Callable[[_alg.CollectiveContext, float], float],
    ) -> Phase:
        """The :meth:`composite` phase of a :meth:`chain` (unmemoised)."""
        return Phase(name, nbytes, time_fn, None, True)

    # -- communicator management ---------------------------------------------------------
    def split(self, color: int, key: int | None = None) -> _t.Generator:
        """Split into sub-communicators by ``color`` (collective).

        Returns a new :class:`Comm` for this rank's ``color`` group, with
        members ordered by ``(key, parent rank)``.
        """
        sort_key = key if key is not None else self.rank
        cid, members, pos = yield from self.world.collective(
            self, "MPI_Comm_split", 16, _split_time,
            contribution=(color, sort_key), finisher=_split_finish,
            finisher_arg=self.world, memo_key="comm_split",
        )
        world_group = [self.group[m] for m in members]
        return Comm(self.world, world_group, pos, cid)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Comm id={self.comm_id} rank={self.rank}/{self.size}>"


# -- cost functions and finishers --------------------------------------------
# ``MpiWorld.collective`` calls a finisher once, on the completing rank,
# as ``finisher(contributions, finisher_arg)``: contributions by local
# rank in, results by local rank out.

def _barrier_time(ctx: _alg.CollectiveContext, nbytes: float) -> float:
    return _alg.barrier_time(ctx)


#: ``(name, cost function, memo key)`` of the barrier and the all-reduce,
#: read by both the plain method and the chain phase, so the two price
#: and cache alike.
_BARRIER = ("MPI_Barrier", _barrier_time, "barrier")
_ALLREDUCE = ("MPI_Allreduce", _alg.allreduce_time, "allreduce")


def _split_time(ctx: _alg.CollectiveContext, nbytes: float) -> float:
    return _alg.allgather_time(ctx, 16)


def _allreduce_finish(
    contribs: dict[int, _t.Any], arg: tuple[_t.Callable[[_t.Any, _t.Any], _t.Any], int]
) -> dict[int, _t.Any]:
    """``allreduce``: the values passed, folded with ``op`` in rank order
    (deterministic), for every rank of the ``size``, whether or not it
    passed one."""
    op, size = arg
    total = functools.reduce(op, (contribs[r] for r in sorted(contribs)))
    return dict.fromkeys(range(size), total)


def _scatter_finish(contribs: dict[int, _t.Any], root: int) -> dict[int, _t.Any]:
    vals = contribs.get(root)
    if vals is None:
        return {r: None for r in contribs}
    if len(vals) != len(contribs):
        raise MpiError(f"scatter needs {len(contribs)} values, got {len(vals)}")
    return {r: vals[r] for r in contribs}


def _alltoall_finish(contribs: dict[int, _t.Any], _arg: None) -> dict[int, _t.Any]:
    """``alltoall`` and ``alltoallv``: rank ``r`` gets every sender's
    ``r``-th value, in sender order."""
    if all(v is None for v in contribs.values()):
        return {r: None for r in contribs}
    return {
        r: [
            (contribs[s][r] if contribs[s] is not None else None)
            for s in sorted(contribs)
        ]
        for r in contribs
    }


def _split_finish(contribs: dict[int, _t.Any], world: "MpiWorld") -> dict[int, _t.Any]:
    """``split``: contributions are ``(color, key)``; each rank gets
    ``(comm id, members, position)`` of its color's group."""
    out: dict[int, _t.Any] = {}
    groups: dict[int, list[tuple[int, int]]] = {}
    for r, (c, k) in contribs.items():
        groups.setdefault(c, []).append((k, r))
    base_id = world.alloc_comm_id()
    for idx, c in enumerate(sorted(groups)):
        members = [r for _k, r in sorted(groups[c])]
        for pos, r in enumerate(members):
            out[r] = (base_id + idx, members, pos)
    # Reserve ids for every group deterministically.
    for _ in range(len(groups) - 1):
        world.alloc_comm_id()
    return out

