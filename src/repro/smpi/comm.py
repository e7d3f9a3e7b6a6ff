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
``recv``, ``bcast``, ``allreduce``, ...), with explicit byte counts
instead of buffers: this simulator prices messages, it does not move
memory — though every collective and point-to-point call *can* carry a
real payload, delivered and reduced exactly.
"""

from __future__ import annotations

import contextlib
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
        """
        world = self.world
        rank = self.group[self.rank]
        duration = world.platform.compute_seconds(
            rank, flops, mem_bytes, working_set, access
        )
        t0 = world.engine.now
        if duration > 0:
            yield duration
        world.monitor.profiles[rank].record_compute(duration)
        if world.timeline is not None:
            world.timeline.record(rank, t0, t0 + duration, "compute", "compute")
        return duration

    def delay(self, seconds: float, account: str = "compute") -> _t.Generator:
        """Spend a fixed amount of virtual time (``account``: compute|io)."""
        if seconds < 0:
            raise MpiError(f"negative delay: {seconds}")
        if account not in ("compute", "io"):
            raise MpiError(f"delay account must be 'compute' or 'io', got {account!r}")
        t0 = self.engine.now
        if seconds > 0:
            yield seconds
        profile = self.world.monitor[self.world_rank]
        if account == "io":
            profile.record_io(seconds)
        else:
            profile.record_compute(seconds)
        self.world.record_interval(self.world_rank, t0, t0 + seconds, account, "delay")
        return seconds

    def io_read(self, nbytes: float, concurrent: int | None = None) -> _t.Generator:
        """Read from the platform's shared filesystem."""
        clients = concurrent if concurrent is not None else self.size
        duration = self.world.platform.fs.read_time(nbytes, clients)
        t0 = self.engine.now
        yield duration
        self.world.monitor[self.world_rank].record_io(duration)
        self.world.record_interval(self.world_rank, t0, t0 + duration, "io", "read")
        return duration

    def io_write(self, nbytes: float, concurrent: int | None = None) -> _t.Generator:
        """Write to the platform's shared filesystem."""
        clients = concurrent if concurrent is not None else self.size
        duration = self.world.platform.fs.write_time(nbytes, clients)
        t0 = self.engine.now
        yield duration
        self.world.monitor[self.world_rank].record_io(duration)
        self.world.record_interval(self.world_rank, t0, t0 + duration, "io", "write")
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
            self.world_rank, self._world_rank_of(dest), nbytes, tag, payload
        )

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Non-blocking receive."""
        src_world = source if source == ANY_SOURCE else self._world_rank_of(source)
        return self.world.post_recv(self.world_rank, src_world, tag)

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
        if world.timeline is not None:
            world.timeline.record(rank, t0, now, "mpi", call)
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
        if world.timeline is not None:
            world.timeline.record(rank, t0, now, "mpi", "MPI_Waitall")
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
        if world.timeline is not None:
            world.timeline.record(rank, t0, now, "mpi", "MPI_Send")
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
        if world.timeline is not None:
            world.timeline.record(rank, t0, now, "mpi", "MPI_Recv")
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
        if world.timeline is not None:
            world.timeline.record(rank, t0, now, "mpi", "MPI_Sendrecv")
        return msg

    # -- collectives -------------------------------------------------------------------
    # Each method returns the dispatched generator from
    # ``MpiWorld.collective`` directly (callers ``yield from`` it either
    # way), which keeps one generator frame off the per-operation path.

    def barrier(self) -> _t.Generator:
        """Synchronise all ranks."""
        return self.world.collective(
            self, "MPI_Barrier", 0, lambda ctx, n: _alg.barrier_time(ctx),
            memo_key="barrier",
        )

    def bcast(self, nbytes: float, root: int = 0, value: _t.Any = None) -> _t.Generator:
        """Broadcast ``nbytes`` from ``root``; returns root's ``value``."""

        def finisher(contribs: dict[int, _t.Any]) -> dict[int, _t.Any]:
            v = contribs.get(root)
            return {r: v for r in contribs}

        return self.world.collective(
            self, "MPI_Bcast", nbytes, _alg.bcast_time,
            contribution=value if self.rank == root else None,
            finisher=finisher, memo_key="bcast", root=root,
        )

    def reduce(
        self,
        nbytes: float,
        root: int = 0,
        value: _t.Any = None,
        op: _t.Callable[[_t.Any, _t.Any], _t.Any] = _sum_op,
    ) -> _t.Generator:
        """Reduce to ``root``; non-roots receive ``None``."""

        def finisher(contribs: dict[int, _t.Any]) -> dict[int, _t.Any]:
            total = _combine(contribs, op)
            return {r: (total if r == root else None) for r in contribs}

        return self.world.collective(
            self, "MPI_Reduce", nbytes, _alg.reduce_time,
            contribution=value, finisher=finisher, memo_key="reduce", root=root,
        )

    def allreduce(
        self,
        nbytes: float,
        value: _t.Any = None,
        op: _t.Callable[[_t.Any, _t.Any], _t.Any] = _sum_op,
    ) -> _t.Generator:
        """All-reduce; every rank receives the combined value."""

        def finisher(contribs: dict[int, _t.Any]) -> dict[int, _t.Any]:
            total = _combine(contribs, op)
            return {r: total for r in contribs}

        return self.world.collective(
            self, "MPI_Allreduce", nbytes, _alg.allreduce_time,
            contribution=value, finisher=finisher, memo_key="allreduce",
        )

    def gather(self, nbytes: float, root: int = 0, value: _t.Any = None) -> _t.Generator:
        """Gather per-rank contributions to ``root`` (list in rank order)."""

        def finisher(contribs: dict[int, _t.Any]) -> dict[int, _t.Any]:
            ordered = [contribs[r] for r in sorted(contribs)]
            return {r: (ordered if r == root else None) for r in contribs}

        return self.world.collective(
            self, "MPI_Gather", nbytes, _alg.gather_time,
            contribution=value, finisher=finisher, memo_key="gather", root=root,
        )

    def allgather(self, nbytes: float, value: _t.Any = None) -> _t.Generator:
        """All-gather; every rank receives the full list."""

        def finisher(contribs: dict[int, _t.Any]) -> dict[int, _t.Any]:
            ordered = [contribs[r] for r in sorted(contribs)]
            return {r: ordered for r in contribs}

        return self.world.collective(
            self, "MPI_Allgather", nbytes, _alg.allgather_time,
            contribution=value, finisher=finisher, memo_key="allgather",
        )

    def scatter(
        self, nbytes: float, root: int = 0, values: _t.Sequence[_t.Any] | None = None
    ) -> _t.Generator:
        """Scatter ``values`` (given at root) to all ranks."""

        def finisher(contribs: dict[int, _t.Any]) -> dict[int, _t.Any]:
            vals = contribs.get(root)
            if vals is None:
                return {r: None for r in contribs}
            if len(vals) != len(contribs):
                raise MpiError(
                    f"scatter needs {len(contribs)} values, got {len(vals)}"
                )
            return {r: vals[r] for r in contribs}

        return self.world.collective(
            self, "MPI_Scatter", nbytes, _alg.scatter_time,
            contribution=values if self.rank == root else None,
            finisher=finisher, memo_key="scatter", root=root,
        )

    def alltoall(
        self, nbytes_total: float, values: _t.Sequence[_t.Any] | None = None
    ) -> _t.Generator:
        """All-to-all; ``nbytes_total`` is the payload each rank sends in
        total (NPB convention).  With ``values`` (length ``size``), rank
        ``i`` receives ``[values_j[i] for j]``."""

        def finisher(contribs: dict[int, _t.Any]) -> dict[int, _t.Any]:
            if all(v is None for v in contribs.values()):
                return {r: None for r in contribs}
            out: dict[int, _t.Any] = {}
            for r in contribs:
                out[r] = [
                    (contribs[s][r] if contribs[s] is not None else None)
                    for s in sorted(contribs)
                ]
            return out

        return self.world.collective(
            self, "MPI_Alltoall", nbytes_total, _alg.alltoall_time,
            contribution=values, finisher=finisher, memo_key="alltoall",
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

        def finisher(contribs: dict[int, _t.Any]) -> dict[int, _t.Any]:
            if all(v is None for v in contribs.values()):
                return {r: None for r in contribs}
            return {
                r: [
                    (contribs[s][r] if contribs[s] is not None else None)
                    for s in sorted(contribs)
                ]
                for r in contribs
            }

        return self.world.collective(
            self, "MPI_Alltoallv", total_send, time_fn,
            contribution=values, finisher=finisher,
            memo_key=("alltoallv", max_pair),
        )

    def reduce_scatter(self, nbytes_total: float, value: _t.Any = None) -> _t.Generator:
        """Reduce-scatter of an ``nbytes_total`` buffer."""

        def finisher(contribs: dict[int, _t.Any]) -> dict[int, _t.Any]:
            total = _combine(contribs, _sum_op)
            return {r: total for r in contribs}

        return self.world.collective(
            self, "MPI_Reduce_scatter", nbytes_total,
            lambda ctx, n: _alg.reduce_scatter_time(ctx, n),
            contribution=value, finisher=finisher, memo_key="reduce_scatter",
        )

    def scan(
        self,
        nbytes: float,
        value: _t.Any = None,
        op: _t.Callable[[_t.Any, _t.Any], _t.Any] = _sum_op,
    ) -> _t.Generator:
        """Inclusive prefix reduction: rank ``i`` receives the fold of
        contributions from ranks ``0..i`` (``MPI_Scan``)."""

        def finisher(contribs: dict[int, _t.Any]) -> dict[int, _t.Any]:
            out: dict[int, _t.Any] = {}
            acc: _t.Any = None
            for r in sorted(contribs):
                v = contribs[r]
                if v is not None:
                    acc = v if acc is None else op(acc, v)
                out[r] = acc
            return out

        return self.world.collective(
            self, "MPI_Scan", nbytes, _alg.allreduce_time,
            contribution=value, finisher=finisher, memo_key="allreduce",
        )

    def exscan(
        self,
        nbytes: float,
        value: _t.Any = None,
        op: _t.Callable[[_t.Any, _t.Any], _t.Any] = _sum_op,
    ) -> _t.Generator:
        """Exclusive prefix reduction: rank ``i`` receives the fold of
        ranks ``0..i-1`` (``None`` on rank 0), as ``MPI_Exscan``."""

        def finisher(contribs: dict[int, _t.Any]) -> dict[int, _t.Any]:
            out: dict[int, _t.Any] = {}
            acc: _t.Any = None
            for r in sorted(contribs):
                out[r] = acc
                v = contribs[r]
                if v is not None:
                    acc = v if acc is None else op(acc, v)
            return out

        return self.world.collective(
            self, "MPI_Exscan", nbytes, _alg.allreduce_time,
            contribution=value, finisher=finisher, memo_key="allreduce",
        )

    # -- Cartesian topology helpers -----------------------------------------
    def cart_coords(self, dims: _t.Sequence[int], rank: int | None = None) -> tuple[int, ...]:
        """Coordinates of ``rank`` (default: this rank) on a row-major
        Cartesian grid of shape ``dims`` (``MPI_Cart_coords``)."""
        import math

        if math.prod(dims) != self.size:
            raise MpiError(f"dims {tuple(dims)} do not tile {self.size} ranks")
        r = self.rank if rank is None else rank
        coords = []
        for extent in reversed(dims):
            coords.append(r % extent)
            r //= extent
        return tuple(reversed(coords))

    def cart_rank(self, dims: _t.Sequence[int], coords: _t.Sequence[int]) -> int:
        """Rank at ``coords`` on the grid (periodic wrap per dimension)."""
        import math

        if math.prod(dims) != self.size:
            raise MpiError(f"dims {tuple(dims)} do not tile {self.size} ranks")
        rank = 0
        for extent, c in zip(dims, coords):
            rank = rank * extent + (c % extent)
        return rank

    def cart_shift(
        self, dims: _t.Sequence[int], axis: int, displacement: int = 1
    ) -> tuple[int, int]:
        """(source, destination) ranks for a periodic shift along ``axis``
        (``MPI_Cart_shift`` with periodic boundaries)."""
        coords = list(self.cart_coords(dims))
        if not (0 <= axis < len(dims)):
            raise MpiError(f"axis {axis} out of range for dims {tuple(dims)}")
        ahead = list(coords)
        behind = list(coords)
        ahead[axis] += displacement
        behind[axis] -= displacement
        return self.cart_rank(dims, behind), self.cart_rank(dims, ahead)

    def composite(
        self,
        name: str,
        nbytes: float,
        time_fn: _t.Callable[[_alg.CollectiveContext, float], float],
        memo_key: _t.Hashable = None,
    ) -> _t.Generator:
        """A custom synchronising composite operation.

        Workloads with communication phases too fine-grained to simulate
        message-by-message (e.g. LU's pipelined wavefront sweeps, BT/SP's
        ADI line solves) model the phase analytically: all ranks
        synchronise and ``time_fn(ctx, nbytes)`` prices the whole phase.
        The accounting is identical to a collective's.  Each rank passes
        its own ``nbytes``, which may differ between ranks (a halo
        exchange on an uneven partition); the sanitizer does not flag
        that.  A ``memo_key``
        that uniquely pins down ``time_fn`` (including every closed-over
        parameter) opts the phase cost into the collective memo cache.
        """
        return self.world.collective(
            self, name, nbytes, time_fn, memo_key=memo_key, uneven=True
        )

    # -- communicator management ---------------------------------------------------------
    def split(self, color: int, key: int | None = None) -> _t.Generator:
        """Split into sub-communicators by ``color`` (collective).

        Returns a new :class:`Comm` for this rank's ``color`` group, with
        members ordered by ``(key, parent rank)``.
        """
        sort_key = key if key is not None else self.rank

        def finisher(contribs: dict[int, _t.Any]) -> dict[int, _t.Any]:
            # contribs: local rank -> (color, key)
            out: dict[int, _t.Any] = {}
            groups: dict[int, list[tuple[int, int]]] = {}
            for r, (c, k) in contribs.items():
                groups.setdefault(c, []).append((k, r))
            base_id = self.world.alloc_comm_id()
            for idx, c in enumerate(sorted(groups)):
                members = [r for _k, r in sorted(groups[c])]
                for pos, r in enumerate(members):
                    out[r] = (base_id + idx, members, pos)
            # Reserve ids for every group deterministically.
            for _ in range(len(groups) - 1):
                self.world.alloc_comm_id()
            return out

        cid, members, pos = yield from self.world.collective(
            self, "MPI_Comm_split", 16, lambda ctx, n: _alg.allgather_time(ctx, 16),
            contribution=(color, sort_key), finisher=finisher,
            memo_key="comm_split",
        )
        world_group = [self.group[m] for m in members]
        return Comm(self.world, world_group, pos, cid)

    def dup(self) -> _t.Generator:
        """Duplicate this communicator (collective)."""
        new = yield from self.split(0, key=self.rank)
        return new

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Comm id={self.comm_id} rank={self.rank}/{self.size}>"


def _combine(
    contribs: dict[int, _t.Any], op: _t.Callable[[_t.Any, _t.Any], _t.Any]
) -> _t.Any:
    """Fold non-``None`` contributions in rank order (deterministic)."""
    total: _t.Any = None
    for r in sorted(contribs):
        v = contribs[r]
        if v is None:
            continue
        total = v if total is None else op(total, v)
    return total
