"""Runtime MPI sanitizer: machine-checked correctness of simulated runs.

The paper's cross-platform conclusions rest on IPM profiles of *correct*
MPI executions, and the repository's substitution argument (DESIGN.md)
rests on the simulator being deterministic — so this module hooks the
:class:`~repro.smpi.world.MpiWorld` wire protocol and checks, while a
run executes:

* **wait-for-graph deadlock detection** — when the event queue drains
  with ranks still blocked, the raised
  :class:`~repro.errors.DeadlockError` describes every pending
  operation and names the ranks along any wait-for cycle
  (``rank 0 -> rank 1 -> rank 0``) instead of just counting waiters;
* **collective-sequence mismatch** — all ranks of a communicator must
  issue the *same* collective in the same position of the call
  sequence; op-name or root divergence raises a
  :class:`~repro.errors.SanitizerError` at the moment the second rank
  arrives, and per-rank byte-count divergence is recorded as a warning;
* **unmatched-send / message-leak detection at finalize** — messages
  still sitting in a mailbox (sent but never received) and rendezvous
  sends that never matched are reported once all rank programs end;
* **tag/peer validity** — sends with reserved negative tags, receives
  from out-of-range sources.

Enable per world (``MpiWorld(..., sanitize=True)``), per run
(``RunConfig(sanitize=True).open()``, ``run_batch(sanitize=True)`` and
the ``--sanitize`` CLI flag, see :mod:`repro.config`) or by default via
the ``REPRO_SANITIZE`` environment variable; every open run collects
the reports of the sanitized worlds finalized in this process and,
for the cells its sweeps ran on a pool, in the pool workers
(``Run.sanitizer_reports``).  The checks
observe the simulation without scheduling events, so enabling them
never changes virtual timestamps: a sanitized run is bit-identical to
an unsanitized one.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.config import collect_sanitizer_report, default_sanitize
from repro.errors import DeadlockError, SanitizerError

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.smpi.comm import Comm
    from repro.smpi.message import Request
    from repro.smpi.world import MpiWorld

#: Wildcard constants, mirrored from :mod:`repro.smpi.comm` (imported
#: lazily there to keep this module free of import cycles).
_ANY = -1


# ---------------------------------------------------------------------------
# Structured output
# ---------------------------------------------------------------------------

@dataclasses.dataclass(slots=True)
class Diagnostic:
    """One sanitizer finding.

    ``check`` is the stable machine name of the rule that fired
    (``deadlock-cycle``, ``collective-mismatch``, ``nbytes-divergence``,
    ``unmatched-send``, ``message-leak``, ``invalid-tag``,
    ``invalid-peer``, ``pending-recv``); ``ranks`` are the world ranks
    involved; ``details`` carries rule-specific structured fields.
    """

    check: str
    severity: str  # "error" | "warning"
    message: str
    ranks: tuple[int, ...] = ()
    details: dict[str, _t.Any] = dataclasses.field(default_factory=dict)

    def render(self) -> str:
        ranks = f" [ranks {','.join(map(str, self.ranks))}]" if self.ranks else ""
        return f"{self.severity.upper()} {self.check}{ranks}: {self.message}"


@dataclasses.dataclass(slots=True)
class SanitizerReport:
    """Everything one sanitized world observed."""

    nprocs: int
    diagnostics: list[Diagnostic] = dataclasses.field(default_factory=list)
    #: Counters of what was checked, for "clean run" evidence.
    sends_checked: int = 0
    recvs_checked: int = 0
    collectives_checked: int = 0

    @property
    def clean(self) -> bool:
        """True when no diagnostic of any severity was recorded."""
        return not self.diagnostics

    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    def render(self) -> str:
        head = (
            f"sanitizer: {self.nprocs} rank(s), {self.sends_checked} send(s), "
            f"{self.recvs_checked} recv(s), {self.collectives_checked} "
            f"collective op(s) checked"
        )
        if self.clean:
            return head + "; clean"
        return "\n".join([head] + [d.render() for d in self.diagnostics])

    def to_dict(self) -> dict[str, _t.Any]:
        """JSON-ready form of the report."""
        return {
            "nprocs": self.nprocs,
            "sends_checked": self.sends_checked,
            "recvs_checked": self.recvs_checked,
            "collectives_checked": self.collectives_checked,
            "diagnostics": [
                {
                    "check": d.check,
                    "severity": d.severity,
                    "message": d.message,
                    "ranks": list(d.ranks),
                    "details": d.details,
                }
                for d in self.diagnostics
            ],
        }


# ---------------------------------------------------------------------------
# Pending-operation bookkeeping
# ---------------------------------------------------------------------------

class _PendingOp:
    """One posted-but-incomplete operation of one world rank."""

    __slots__ = ("kind", "rank", "peer", "tag", "nbytes", "name", "posted_at")

    def __init__(
        self,
        kind: str,
        rank: int,
        peer: int = _ANY,
        tag: int = _ANY,
        nbytes: float = 0,
        name: str = "",
        posted_at: float = 0.0,
    ) -> None:
        self.kind = kind  # "send" | "recv" | "coll"
        self.rank = rank
        self.peer = peer
        self.tag = tag
        self.nbytes = nbytes
        self.name = name
        self.posted_at = posted_at

    def describe(self) -> str:
        if self.kind == "send":
            return (
                f"rank {self.rank}: send to rank {self.peer} "
                f"(tag={self.tag}, {int(self.nbytes)} B) posted at "
                f"t={self.posted_at:.6g}"
            )
        if self.kind == "recv":
            src = "ANY_SOURCE" if self.peer == _ANY else f"rank {self.peer}"
            tag = "ANY_TAG" if self.tag == _ANY else str(self.tag)
            return (
                f"rank {self.rank}: recv from {src} (tag={tag}) posted at "
                f"t={self.posted_at:.6g}"
            )
        return (
            f"rank {self.rank}: in collective {self.name} since "
            f"t={self.posted_at:.6g}"
        )


class _CollRecord:
    """Cross-rank view of one in-flight collective instance."""

    __slots__ = ("name", "root", "group", "arrived", "nbytes_by_rank")

    def __init__(self, name: str, root: int | None, group: tuple[int, ...]) -> None:
        self.name = name
        self.root = root
        self.group = group  # world ranks of the members
        self.arrived: set[int] = set()  # world ranks already in
        self.nbytes_by_rank: dict[int, float] = {}


class MpiSanitizer:
    """Per-world runtime checker (see module docstring).

    All hooks are called by :class:`~repro.smpi.world.MpiWorld` /
    :class:`~repro.smpi.comm.Comm`; user code only reads
    :meth:`report` (or catches :class:`~repro.errors.SanitizerError` /
    the enriched :class:`~repro.errors.DeadlockError`).
    """

    def __init__(self, world: "MpiWorld") -> None:
        self.world = world
        self._report = SanitizerReport(nprocs=world.nprocs)
        #: Live pending ops per world rank.
        self._pending: dict[int, list[_PendingOp]] = {
            r: [] for r in range(world.nprocs)
        }
        #: In-flight collectives by (comm_id, seq).
        self._colls: dict[tuple[int, int], _CollRecord] = {}
        world.engine.deadlock_factory = self.deadlock_error

    # -- shared plumbing ---------------------------------------------------
    def _track(self, op: _PendingOp, request: "Request") -> None:
        ops = self._pending[op.rank]
        ops.append(op)
        request.event.add_callback(lambda _ev, o=op, ops=ops: ops.remove(o))

    def _error(self, diag: Diagnostic) -> SanitizerError:
        self._report.diagnostics.append(diag)
        return SanitizerError(diag.render(), [diag])

    # -- point-to-point hooks ----------------------------------------------
    def on_send(self, src: int, dst: int, nbytes: int, tag: int, request: "Request") -> None:
        """Validate and track one posted send (world ranks)."""
        self._report.sends_checked += 1
        if tag < 0:
            raise self._error(Diagnostic(
                check="invalid-tag", severity="error",
                message=f"send from rank {src} to rank {dst} uses reserved "
                        f"negative tag {tag} (wildcards are receive-only)",
                ranks=(src,), details={"tag": tag, "peer": dst},
            ))
        self._track(
            _PendingOp("send", src, peer=dst, tag=tag, nbytes=nbytes,
                       posted_at=self.world.engine.now),
            request,
        )

    def on_recv(self, rank: int, source: int, tag: int, request: "Request") -> None:
        """Validate and track one posted receive (world ranks)."""
        self._report.recvs_checked += 1
        if source != _ANY and not (0 <= source < self.world.nprocs):
            raise self._error(Diagnostic(
                check="invalid-peer", severity="error",
                message=f"rank {rank} posted a recv from rank {source}, which "
                        f"is outside world size {self.world.nprocs} — it can "
                        "never be matched",
                ranks=(rank,), details={"source": source},
            ))
        if tag < _ANY:
            raise self._error(Diagnostic(
                check="invalid-tag", severity="error",
                message=f"rank {rank} posted a recv with invalid tag {tag}",
                ranks=(rank,), details={"tag": tag},
            ))
        self._track(
            _PendingOp("recv", rank, peer=source, tag=tag,
                       posted_at=self.world.engine.now),
            request,
        )

    # -- collective hooks --------------------------------------------------
    def on_collective(
        self,
        comm: "Comm",
        name: str,
        seq: int,
        root: int | None,
        nbytes: float,
        my_local: int,
        done: _t.Any,
        uneven: bool,
    ) -> None:
        """Check one rank's arrival at collective ``seq`` of ``comm``.

        ``done`` is the completion event shared by all member ranks.  A
        collective chain calls this for each of its phases when the
        phases called one by one would: at arrival for the first, then
        for every rank, in arrival order, when the previous phase
        completes (:class:`~repro.smpi.world._Chain`).
        Raises :class:`~repro.errors.SanitizerError` on op or root
        divergence; byte-count divergence is recorded as a warning when
        the instance completes, unless the phase is ``uneven`` (a
        composite phase, whose per-rank volumes legitimately differ).
        """
        self._report.collectives_checked += 1
        world_rank = comm.group[my_local]
        ckey = (comm.comm_id, seq)
        rec = self._colls.get(ckey)
        if rec is None:
            rec = _CollRecord(name, root, tuple(comm.group))
            self._colls[ckey] = rec
        elif rec.name != name or rec.root != root:
            first = min(rec.arrived)
            mine = _describe_coll(name, root)
            theirs = _describe_coll(rec.name, rec.root)
            raise self._error(Diagnostic(
                check="collective-mismatch", severity="error",
                message=f"collective sequence mismatch on comm "
                        f"{comm.comm_id} at call #{seq}: rank {world_rank} "
                        f"called {mine} but rank {first} called {theirs}",
                ranks=(first, world_rank),
                details={
                    "comm_id": comm.comm_id, "seq": seq,
                    "ops": {first: theirs, world_rank: mine},
                },
            ))
        rec.arrived.add(world_rank)
        if not uneven:
            rec.nbytes_by_rank[world_rank] = nbytes
        op = _PendingOp("coll", world_rank, name=f"{name} (comm {comm.comm_id}, call #{seq})",
                        nbytes=nbytes, posted_at=self.world.engine.now)
        ops = self._pending[world_rank]
        ops.append(op)
        done.add_callback(lambda _ev, o=op, ops=ops: ops.remove(o))
        if len(rec.arrived) == len(rec.group):
            self._finish_collective(ckey, rec)

    def _finish_collective(self, ckey: tuple[int, int], rec: _CollRecord) -> None:
        del self._colls[ckey]
        sizes = set(rec.nbytes_by_rank.values())
        if len(sizes) > 1:
            lo, hi = min(sizes), max(sizes)
            self._report.diagnostics.append(Diagnostic(
                check="nbytes-divergence", severity="warning",
                message=f"{rec.name} on comm {ckey[0]} call #{ckey[1]} saw "
                        f"per-rank byte counts diverging from {lo:g} to "
                        f"{hi:g}; collectives should agree on size",
                ranks=tuple(sorted(rec.nbytes_by_rank)),
                details={"nbytes": dict(sorted(rec.nbytes_by_rank.items()))},
            ))

    # -- deadlock ----------------------------------------------------------
    def describe_pending(self) -> list[str]:
        """Human-readable descriptions of every live pending operation,
        in rank order."""
        pending: list[str] = []
        for rank in sorted(self._pending):
            pending.extend(op.describe() for op in self._pending[rank])
        return pending

    def deadlock_error(self, waiting: int) -> DeadlockError:
        """Build the enriched error for a drained-queue deadlock."""
        pending = self.describe_pending()
        cycle = self._find_cycle()
        diag = Diagnostic(
            check="deadlock-cycle" if cycle else "deadlock", severity="error",
            message=(
                "wait-for cycle: " + " -> ".join(f"rank {r}" for r in cycle)
                if cycle else
                f"{waiting} process(es) blocked with no wait-for cycle "
                "(a peer likely terminated without sending)"
            ),
            ranks=tuple(sorted({r for r, ops in self._pending.items() if ops})),
            details={"pending_ops": list(pending), "cycle": list(cycle or ())},
        )
        self._report.diagnostics.append(diag)
        collect_sanitizer_report(self._report)
        return DeadlockError(waiting, pending_ops=pending, cycle=cycle)

    def _wait_edges(self) -> dict[int, set[int]]:
        """rank -> set of ranks it is waiting on, from the pending ops."""
        edges: dict[int, set[int]] = {}
        for rank, ops in self._pending.items():
            targets: set[int] = set()
            for op in ops:
                if op.kind in ("send", "recv"):
                    if op.peer != _ANY:
                        targets.add(op.peer)
                elif op.kind == "coll":
                    pass  # filled in below from the collective records
            if targets:
                edges.setdefault(rank, set()).update(targets)
        for rec in self._colls.values():
            missing = set(rec.group) - rec.arrived
            for rank in rec.arrived:
                edges.setdefault(rank, set()).update(missing)
        return edges

    def _find_cycle(self) -> tuple[int, ...] | None:
        """First wait-for cycle, as (r0, r1, ..., r0); None when acyclic."""
        edges = self._wait_edges()
        visited: set[int] = set()
        for start in sorted(edges):
            if start in visited:
                continue
            path: list[int] = []
            on_path: dict[int, int] = {}
            node = start
            while node is not None:
                if node in on_path:
                    cycle = path[on_path[node]:] + [node]
                    return tuple(cycle)
                if node in visited:
                    break
                on_path[node] = len(path)
                path.append(node)
                visited.add(node)
                nxt = sorted(edges.get(node, ()))
                node = nxt[0] if nxt else None
        return None

    # -- finalize ----------------------------------------------------------
    def finalize(self) -> SanitizerReport:
        """Run the end-of-run checks and return the report.

        Called by :meth:`MpiWorld.launch` after every rank program has
        returned and the queue has drained.
        """
        diags = self._report.diagnostics
        for rank, box in enumerate(self.world.mailboxes):
            for msg in box.peek_all():
                if msg.is_rts:
                    diags.append(Diagnostic(
                        check="unmatched-send", severity="error",
                        message=f"rendezvous send from rank {msg.source} to "
                                f"rank {rank} (tag={msg.tag}, {msg.nbytes} B) "
                                "was never matched by a receive",
                        ranks=(msg.source, rank),
                        details={"tag": msg.tag, "nbytes": msg.nbytes},
                    ))
                else:
                    diags.append(Diagnostic(
                        check="message-leak", severity="error",
                        message=f"message from rank {msg.source} to rank "
                                f"{rank} (tag={msg.tag}, {msg.nbytes} B) was "
                                "sent but never received",
                        ranks=(msg.source, rank),
                        details={"tag": msg.tag, "nbytes": msg.nbytes},
                    ))
        for rank in sorted(self._pending):
            for op in self._pending[rank]:
                if op.kind == "recv":
                    diags.append(Diagnostic(
                        check="pending-recv", severity="warning",
                        message=f"posted receive never completed: {op.describe()}",
                        ranks=(rank,), details={"peer": op.peer, "tag": op.tag},
                    ))
                elif op.kind == "send":
                    diags.append(Diagnostic(
                        check="unmatched-send", severity="error",
                        message=f"posted send never completed: {op.describe()}",
                        ranks=(rank,), details={"peer": op.peer, "tag": op.tag},
                    ))
        collect_sanitizer_report(self._report)
        return self._report

    def report(self) -> SanitizerReport:
        """The report accumulated so far."""
        return self._report


def attach(world: "MpiWorld", sanitize: bool | None) -> MpiSanitizer | None:
    """The sanitizer ``world`` runs under: one when ``sanitize`` is on
    (``None``: :func:`repro.config.default_sanitize`), else ``None``."""
    if sanitize is None:
        sanitize = default_sanitize()
    return MpiSanitizer(world) if sanitize else None


def _describe_coll(name: str, root: int | None) -> str:
    return f"{name}(root={root})" if root is not None else name
