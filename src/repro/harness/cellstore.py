"""Content-addressed global cell result store: simulate once, serve millions.

The store persists every completed cell result, shared across runs
(and across hosts on a shared filesystem), and is also how an
interrupted run resumes: re-running it against the same store serves
every cell it completed.  Every cell result is keyed by a canonical
content hash of

* the registered **worker name**,
* its **encoded arguments** (the typed encoding of
  :mod:`repro.harness.journal`, so tuples and int-keyed dicts hash
  stably),
* the worker's **code identity**
  (:func:`repro.analysis.static.worker_fingerprint` — a digest of the
  package's exact source bytes, shared by every package worker), and
* the encoding's **format version** (so an encoding change can never
  alias old records).

Because the code identity participates in the key, entries can never
go stale: any byte edit to the package moves every key, so old results
simply stop being found — they are garbage, not hazards — and
``repro store gc`` reclaims them.  A worker without a code identity
(e.g. one registered from a test module) bypasses the store entirely:
no code identity means no safe cache key.

Storage layout
--------------
An append-friendly sharded directory, safe for concurrent writers::

    <root>/cells/<first-two-hex-of-key>.jsonl

Each record is one self-contained JSON line appended with a single
``O_APPEND`` ``write`` and fsynced, so concurrent publishers on the
same shard interleave whole records; readers tolerate torn records
anywhere (a half-written line is skipped, never fatal).  Duplicate keys
are resolved last-record-wins on read and compacted by ``gc``.

Wiring
------
The sweep driver (:func:`repro.harness.supervisor.run_cells`) plans
every sweep against the run's store (:attr:`repro.config.Run.store`,
opened from ``repro run --store PATH`` / ``run_batch(store=...)``)
before dispatching any cell and publishes fresh results as they arrive.
A batch is one sweep, and only the first cell of a sweep with a given
payload reaches the store.  Store hits merge by cell key, so a
store-served sweep renders byte-identically to a fresh one — the CI
round-trip guard holds this.

The ``repro store`` CLI exposes maintenance: ``stats``, ``verify``
(full integrity re-derivation of every key and payload hash) and ``gc``
(drop stale/duplicate/malformed records).  See ``docs/caching.md``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import pathlib
import time
import typing as _t

from repro.errors import ConfigError
from repro.harness.journal import (
    FORMAT_VERSION as JOURNAL_FORMAT_VERSION,
    decode_value,
    encode_value,
    payload_hash,
)

#: Bump when the store record layout changes incompatibly.
STORE_VERSION = 1

#: Hex chars of the key used to pick a shard file (256 shards).
SHARD_WIDTH = 2

#: Default seconds before another host may take over an unpublished lease.
LEASE_TTL = 600.0


class _Miss:
    """Sentinel for "not in the store" (distinct from a stored ``None``)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<store miss>"


#: Returned by :meth:`CellStore.lookup` when no servable entry exists.
MISS = _Miss()

_HEX_DIGITS = frozenset("0123456789abcdef")

#: What :func:`decode_value` raises on a garbled typed encoding (a
#: ``__tuple__`` that is not a list, a ``__dict__`` entry that is not a
#: pair, an unhashable key).
_DECODE_ERRORS = (TypeError, ValueError)

#: What :func:`json.loads` raises on a line that is not a record: torn
#: JSON, or nesting too deep for the decoder.
_JSON_ERRORS = (json.JSONDecodeError, RecursionError)


def _is_hex(value: _t.Any, length: int | None = None) -> bool:
    """Whether ``value`` is a lowercase hex string (of ``length`` chars)."""
    if not isinstance(value, str) or (length is not None and len(value) != length):
        return False
    return bool(value) and all(c in _HEX_DIGITS for c in value)


def store_key(worker: str, args: _t.Sequence[_t.Any], code: str) -> str:
    """Canonical content-address of one cell result.

    The digest covers ``(encoding format version, worker, encoded args,
    code identity)``; any change to the package's code (or to the typed
    encoding itself) moves the key, which is the store's
    entire staleness story — entries are immutable and can only ever
    stop being found.
    """
    fields = [JOURNAL_FORMAT_VERSION, worker, encode_value(tuple(args)), code]
    blob = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def record_problem(rec: _t.Any) -> str | None:
    """Why ``rec`` is not a well-formed store record (None: it is).

    Shared by :meth:`CellStore.verify` and ``gc``: a record
    is well-formed when every field is present and the key re-derives
    from the payload — so a corrupted or hand-edited record can never
    be served as a different cell's result.
    """
    if not isinstance(rec, dict):
        return "record is not an object"
    version = rec.get("v")
    if not isinstance(version, int) or isinstance(version, bool):
        return f"non-integer store version {version!r}"
    if version > STORE_VERSION:
        return f"store version {version} is newer than supported {STORE_VERSION}"
    for field in ("k", "worker", "args", "code", "hash", "result"):
        if field not in rec:
            return f"missing field {field!r}"
    if not _is_hex(rec["k"], 64):
        return "key is not 64 lowercase hex chars"
    if not isinstance(rec["worker"], str) or not rec["worker"]:
        return "worker is not a non-empty string"
    if not _is_hex(rec["code"]):
        return "code identity is not lowercase hex"
    if not _is_hex(rec["hash"], 32):
        return "payload hash is not 32 lowercase hex chars"
    try:
        args = decode_value(rec["args"])
    except _DECODE_ERRORS:
        return "args are not a typed encoding"
    if not isinstance(args, tuple):
        return "args do not decode to a tuple"
    try:
        decode_value(rec["result"])
    except _DECODE_ERRORS:
        return "result is not a typed encoding"
    if store_key(rec["worker"], args, rec["code"]) != rec["k"]:
        return "key does not re-derive from (worker, args, code)"
    if payload_hash(rec["worker"], args) != rec["hash"]:
        return "payload hash does not re-derive from (worker, args)"
    return None


def build_record(
    worker: str, args: _t.Sequence[_t.Any], result: _t.Any, code: str
) -> dict:
    """The store record for one fresh result of code identity ``code``.

    One construction site for every record, so any two publishers of
    the same result emit byte-identical record lines.
    """
    return {
        "v": STORE_VERSION,
        "k": store_key(worker, args, code),
        "worker": worker,
        "args": encode_value(tuple(args)),
        "code": code,
        "hash": payload_hash(worker, args),
        "result": encode_value(result),
    }


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclasses.dataclass(slots=True)
class StoreStats:
    """What ``repro store stats`` reports."""

    root: str
    shards: int = 0
    records: int = 0
    unique_keys: int = 0
    torn_lines: int = 0
    bytes: int = 0
    workers: dict[str, int] = dataclasses.field(default_factory=dict)

    def render(self) -> str:
        lines = [
            f"# cell store at {self.root}",
            f"shards       : {self.shards}",
            f"records      : {self.records}",
            f"unique keys  : {self.unique_keys}",
            f"torn lines   : {self.torn_lines}",
            f"bytes        : {self.bytes}",
        ]
        for worker in sorted(self.workers):
            lines.append(f"  {worker:<16} {self.workers[worker]} record(s)")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, _t.Any]:
        return {
            "root": self.root,
            "shards": self.shards,
            "records": self.records,
            "unique_keys": self.unique_keys,
            "torn_lines": self.torn_lines,
            "bytes": self.bytes,
            "workers": {w: self.workers[w] for w in sorted(self.workers)},
        }


@dataclasses.dataclass(slots=True)
class VerifyReport:
    """What ``repro store verify`` found.

    ``problems`` are structural integrity failures (a parseable record
    whose key or hash does not re-derive, or that sits in the wrong
    shard) — these fail the gate.  ``torn_lines`` are unparseable lines
    (the signature of a writer killed mid-append); tolerated by every
    reader, so they are reported but do not fail verification.
    """

    ok: int = 0
    torn_lines: int = 0
    problems: list[str] = dataclasses.field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.problems

    def render(self) -> str:
        lines = [
            f"store verify: {self.ok} record(s) ok, "
            f"{self.torn_lines} torn line(s), "
            f"{len(self.problems)} problem(s)"
        ]
        lines.extend(f"  {p}" for p in self.problems)
        return "\n".join(lines)


@dataclasses.dataclass(slots=True)
class GcReport:
    """What ``repro store gc`` did (or, with ``dry_run``, would do)."""

    kept: int = 0
    dropped_stale: int = 0
    dropped_duplicate: int = 0
    dropped_malformed: int = 0
    dropped_torn: int = 0
    dry_run: bool = False

    @property
    def dropped(self) -> int:
        return (
            self.dropped_stale + self.dropped_duplicate
            + self.dropped_malformed + self.dropped_torn
        )

    def render(self) -> str:
        verb = "would drop" if self.dry_run else "dropped"
        return (
            f"store gc: kept {self.kept}, {verb} {self.dropped} "
            f"({self.dropped_stale} stale, {self.dropped_duplicate} duplicate, "
            f"{self.dropped_malformed} malformed, {self.dropped_torn} torn)"
        )


@dataclasses.dataclass(slots=True)
class StorePlan:
    """A dispatch plan: every cell of a sweep, partitioned by the store.

    Produced by :meth:`CellStore.plan_cells` before any dispatch:
    ``served`` cells already have a result, ``to_run`` cells are ours to
    execute (a lease was claimed for every cacheable one), and
    ``deferred`` cells are being computed *right now* by another
    run sharing this store — the scheduler awaits their results via
    :meth:`CellStore.await_peer` instead of computing them twice.
    """

    served: dict[tuple, _t.Any] = dataclasses.field(default_factory=dict)
    to_run: list[_t.Any] = dataclasses.field(default_factory=list)
    deferred: list[_t.Any] = dataclasses.field(default_factory=list)


def store_root(spec: "str | os.PathLike[str]") -> pathlib.Path:
    """The directory a ``--store`` spec names.

    A ``<scheme>://`` spec is rejected rather than silently becoming a
    local directory named after the scheme.
    """
    if "://" in os.fspath(spec):
        raise ConfigError(
            f"store spec {os.fspath(spec)!r} is not a directory path; only local "
            "directory stores are supported"
        )
    return pathlib.Path(spec)


def _owner_dead(path: pathlib.Path) -> bool:
    """Whether ``path``'s lease names an owner process on this host that
    has exited (an unreadable lease, a takeover marker, another host or
    a live pid: False)."""
    try:
        owner = json.loads(path.read_text(encoding="utf-8"))["owner"]  # lint-ok: DET008 lease bookkeeping, outside any cell
        host, pid, _id = owner.split(":")
        pid = int(pid)
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return False
    if host != os.uname().nodename or pid <= 0 or pid == os.getpid():
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except PermissionError:
        pass  # alive, under another user
    return False


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------

class CellStore:
    """One content-addressed store rooted at a directory.

    Instances are cheap (no open handles are held between operations)
    and safe to use from many processes at once: publishes are single
    ``O_APPEND`` writes and reads tolerate torn records.  Hit/miss/
    publish counters accumulate on the instance — the source of the
    ``store: ...`` banner a batch prints to stderr.
    """

    def __init__(
        self, root: str | pathlib.Path, *, lease_ttl: float = LEASE_TTL
    ) -> None:
        self.root = store_root(root)
        self.hits = 0
        self.misses = 0
        self.published = 0
        self.peer_waits = 0
        self.takeovers = 0
        if not lease_ttl > 0:
            raise ConfigError(f"lease TTL must be > 0: {lease_ttl}")
        self.lease_ttl = lease_ttl
        self._held: set[str] = set()
        self._owner = f"{os.uname().nodename}:{os.getpid()}:{id(self):x}"

    # -- paths ------------------------------------------------------------
    @property
    def cells_dir(self) -> pathlib.Path:
        return self.root / "cells"

    @property
    def leases_dir(self) -> pathlib.Path:
        return self.root / "leases"

    def shard_path(self, key: str) -> pathlib.Path:
        return self.cells_dir / f"{key[:SHARD_WIDTH]}.jsonl"

    def lease_path(self, key: str) -> pathlib.Path:
        return self.leases_dir / f"{key}.json"

    def shard_files(self) -> list[pathlib.Path]:
        """All shard files, in deterministic (name) order."""
        if not self.cells_dir.is_dir():
            return []
        return sorted(self.cells_dir.glob("*.jsonl"))

    # -- scanning ---------------------------------------------------------
    @staticmethod
    def _scan_shard(
        path: pathlib.Path,
    ) -> _t.Iterator[tuple[int, str, _t.Any | None]]:
        """Yield ``(lineno, line, record-or-None)`` for one shard file.

        ``None`` marks a torn/unparseable line — tolerated everywhere,
        accounted by ``stats``/``verify`` and reclaimed by ``gc``.
        """
        try:
            text = path.read_text(encoding="utf-8")  # lint-ok: DET008 the store's own shard, read outside any cell
        except OSError:
            return
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except _JSON_ERRORS:
                rec = None
            yield lineno, line, rec

    # -- code identities --------------------------------------------------
    def _code(self, worker: str) -> str | None:
        """Code identity of ``worker`` (None: no safe cache key)."""
        from repro.analysis import static

        return static.worker_fingerprint(worker)

    # -- the hot path -----------------------------------------------------
    def _find(self, worker: str, args: _t.Sequence[_t.Any]) -> _t.Any:
        """Uncounted lookup — :data:`MISS` or the stored result.

        The counter-free primitive behind :meth:`lookup` and the peer
        polling loop (:meth:`await_peer` re-reads a shard many times for
        one logical lookup; counting each poll would garble the banner).
        A hit requires the full content address to match: key, worker,
        code identity and payload hash — and a record of this
        :data:`STORE_VERSION`, so a newer (or garbled) layout is
        re-simulated rather than misread; a record whose result does not
        decode is skipped the same way.
        """
        code = self._code(worker)
        if code is None:
            return MISS
        key = store_key(worker, args, code)
        digest = payload_hash(worker, args)
        found: _t.Any = MISS
        for _lineno, _line, rec in self._scan_shard(self.shard_path(key)):
            if (
                isinstance(rec, dict)
                and rec.get("k") == key
                and rec.get("v") == STORE_VERSION
                and rec.get("worker") == worker
                and rec.get("code") == code
                and rec.get("hash") == digest
                and "result" in rec
            ):
                try:
                    found = decode_value(rec["result"])  # last record wins
                except _DECODE_ERRORS:
                    continue
        return found

    def lookup(self, worker: str, args: _t.Sequence[_t.Any]) -> _t.Any:
        """The stored result for ``(worker, args)``, or :data:`MISS`.

        A hit requires the full content address to match: the record's
        key (which bakes in the code identity current *now*), its
        payload hash, and its worker name.  An entry published by
        different code therefore can never be served — the never-stale
        discipline shared with ``CollectiveMemo``.
        """
        found = self._find(worker, args)
        if found is MISS:
            self.misses += 1
        else:
            self.hits += 1
        return found

    def _append_record_line(self, key: str, line: str) -> None:
        """Append one complete record line to ``key``'s shard, fsynced.

        The single ``O_APPEND`` write is the store's whole concurrency
        story: publishers in other processes (or other hosts on a
        shared filesystem) interleave whole records, never bytes.
        """
        path = self.shard_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644)
        try:
            os.write(fd, line.encode("utf-8"))
            os.fsync(fd)
        finally:
            os.close(fd)

    def publish(
        self, worker: str, args: _t.Sequence[_t.Any], result: _t.Any
    ) -> bool:
        """Append one result record; False when the worker is uncacheable."""
        code = self._code(worker)
        if code is None:
            return False
        record = build_record(worker, args, result, code)
        # Unsorted: the line keeps the result's dict key order, so a
        # served result equals a fresh one down to its repr.
        self._append_record_line(record["k"], json.dumps(record) + "\n")
        self.published += 1
        self._release(record["k"])  # the published record supersedes our claim
        return True

    def banner(self) -> str:
        """One-line ``store: ...`` summary (stderr only, never in reports)."""
        text = (
            f"store: {self.hits + self.misses} lookup(s): "
            f"{self.hits} served, {self.misses} executed, "
            f"{self.published} published"
        )
        if self.peer_waits:
            text += f", {self.peer_waits} awaited from peer(s)"
        return text

    # -- leases: store-aware scheduling ------------------------------------
    def _lease_key(self, worker: str, args: _t.Sequence[_t.Any]) -> str | None:
        code = self._code(worker)
        if code is None:
            return None
        return store_key(worker, args, code)

    def _lease_stale(self, path: pathlib.Path) -> bool:
        """Whether a lease (or takeover marker) is orphaned.

        It is when it outlived the TTL, or at once when its owner
        (``host:pid:id``) is a process on this host that no longer
        exists — a killed run's leases must not block the re-run that
        resumes it.  A live (or reused) pid falls back to the TTL.
        """
        try:
            age = time.time() - path.stat().st_mtime  # lint-ok: DET001 lease liveness only, never in results
        except OSError:
            return False  # gone: not stale, just released
        return age > self.lease_ttl or _owner_dead(path)

    def try_lease(self, worker: str, args: _t.Sequence[_t.Any]) -> bool:
        """Claim the right to compute ``(worker, args)``; False: a peer has it.

        Uncacheable workers have no content address and therefore no
        lease: ``True``, just run it.

        The claim is an ``O_CREAT | O_EXCL`` lease file named by the
        cell's content address — the same lockless append-only
        filesystem discipline publishes use, so any number of runs
        (processes, hosts on a shared filesystem) race safely.  An
        orphaned lease — older than the TTL, or owned by a process on
        this host that has exited — is taken over through
        :meth:`_take_over_stale`, whose exclusive-marker protocol
        guarantees at most one racer wins.
        """
        key = self._lease_key(worker, args)
        if key is None:
            return True
        path = self.lease_path(key)
        payload = json.dumps({"owner": self._owner, "k": key}, sort_keys=True)
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            if not self._lease_stale(path):
                return False
            return self._take_over_stale(path, key, payload)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(payload)
        self._held.add(key)
        return True

    def _take_over_stale(
        self, path: pathlib.Path, key: str, payload: str
    ) -> bool:
        """Atomically take over a stale lease; True only for one winner.

        The old protocol (write a tmp file, ``os.replace`` it over the
        lease, read back to confirm) was last-write-wins: two racers
        that both replaced *before* either read back each saw their own
        payload and both claimed the lease.  The fix is an exclusive
        takeover **marker** (``<key>.takeover``, ``O_CREAT | O_EXCL``):

        1. only one racer can create the marker — everyone else loses
           immediately;
        2. the marker holder re-checks that the lease is *still* stale
           (a racer that completed a takeover in the meantime has
           refreshed it — backing off here is what closes the old
           protocol's double-win window);
        3. the stale lease is unlinked and a fresh one created with the
           normal ``O_EXCL`` path, so even a brand-new claimant sneaking
           into the gap demotes us to a loser instead of being
           clobbered;
        4. the marker is removed (markers are TTL-reaped by ``gc``
           should a holder crash between 1 and 4).
        """
        marker = self.leases_dir / f"{key}.takeover"
        try:
            mfd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            # Another racer is mid-takeover; unless its marker is itself
            # orphaned (holder crashed), we lose.  A stale marker is
            # removed so the *next* attempt can proceed.
            if self._lease_stale(marker):
                with contextlib.suppress(OSError):
                    marker.unlink()
            return False
        os.close(mfd)
        try:
            if not self._lease_stale(path):
                return False  # a completed takeover refreshed it first
            with contextlib.suppress(OSError):
                path.unlink()
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            except FileExistsError:
                return False  # a fresh claimant won the re-creation race
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(payload)
            self.takeovers += 1
            self._held.add(key)
            return True
        finally:
            with contextlib.suppress(OSError):
                marker.unlink()

    def _release(self, key: str) -> None:
        if key in self._held:
            self._held.discard(key)
            with contextlib.suppress(OSError):
                self.lease_path(key).unlink()

    def release_leases(self) -> None:
        """Drop every lease this instance still holds (error-path cleanup).

        Called by the harness when a sweep aborts, so peers waiting on
        our unpublished cells fall back to computing them immediately
        instead of waiting out the TTL.
        """
        for key in list(self._held):
            self._release(key)

    def plan_cells(self, cells: _t.Sequence[_t.Any]) -> StorePlan:
        """Partition a sweep into store-hit / ours-to-run / in-flight-elsewhere.

        The scheduling pass every sweep runs before dispatch: cells
        with a stored result are served; each remaining cacheable cell
        is leased — won leases go to ``to_run``, lost ones (a peer run
        sharing this store is computing that cell right now) go to
        ``deferred`` for :meth:`await_peer` to resolve after our own
        dispatch.  Two runs sharing one store therefore never compute
        the same cell twice, whatever their ``jobs``.
        """
        plan = StorePlan()
        for cell in cells:
            value = self._find(cell.worker, cell.args)
            if value is not MISS:
                self.hits += 1
                plan.served[cell.key] = value
                continue
            self.misses += 1
            if self.try_lease(cell.worker, cell.args):
                plan.to_run.append(cell)
            else:
                plan.deferred.append(cell)
        return plan

    def await_peer(
        self,
        worker: str,
        args: _t.Sequence[_t.Any],
        *,
        poll: float = 0.05,
        max_wait: float | None = None,
    ) -> _t.Any:
        """Wait for a peer run's result for a deferred cell.

        Polls the store until the peer publishes; a released or
        orphaned lease (TTL-expired, or its owner process on this host
        has exited) without a published result means the peer gave up
        (or died), in which case we claim the lease ourselves and
        return :data:`MISS` — the caller executes the cell locally.
        After ``max_wait`` seconds (default: the lease TTL) the wait
        also gives up with :data:`MISS`; computing the cell twice is
        merely redundant, never incorrect, because both publishes carry
        the same content address.
        """
        key = self._lease_key(worker, args)
        if max_wait is None:
            max_wait = self.lease_ttl
        deadline = time.monotonic() + max_wait  # lint-ok: DET001 lease liveness only, never in results
        while True:
            value = self._find(worker, args)
            if value is not MISS:
                self.hits += 1
                self.misses -= 1  # the planned miss became a served hit
                self.peer_waits += 1
                return value
            if key is None:
                return MISS
            path = self.lease_path(key)
            if (not path.exists() or self._lease_stale(path)) and self.try_lease(
                worker, args
            ):
                return MISS
            if time.monotonic() >= deadline:  # lint-ok: DET001 lease liveness only, never in results
                return MISS
            time.sleep(poll)

    # -- maintenance ------------------------------------------------------
    def stats(self) -> StoreStats:
        """Record/shard/worker tallies over the whole store."""
        out = StoreStats(root=str(self.root))
        keys: set[str] = set()
        for shard in self.shard_files():
            out.shards += 1
            out.bytes += shard.stat().st_size
            for _lineno, _line, rec in self._scan_shard(shard):
                if rec is None:
                    out.torn_lines += 1
                    continue
                out.records += 1
                if isinstance(rec, dict):
                    if isinstance(rec.get("k"), str):
                        keys.add(rec["k"])
                    worker = rec.get("worker")
                    if isinstance(worker, str):
                        out.workers[worker] = out.workers.get(worker, 0) + 1
        out.unique_keys = len(keys)
        return out

    def verify(self) -> VerifyReport:
        """Re-derive every record's key and payload hash from its payload.

        The integrity gate CI runs after populating a store: any
        parseable record that fails :func:`record_problem`, or that
        lives in the wrong shard file, is a problem; torn lines are
        reported but tolerated (readers skip them).
        """
        report = VerifyReport()
        for shard in self.shard_files():
            for lineno, _line, rec in self._scan_shard(shard):
                where = f"{shard.name}:{lineno}"
                if rec is None:
                    report.torn_lines += 1
                    continue
                problem = record_problem(rec)
                if problem is None and shard.name != f"{rec['k'][:SHARD_WIDTH]}.jsonl":
                    problem = f"record in wrong shard (key {rec['k'][:8]}...)"
                if problem is not None:
                    report.problems.append(f"{where}: {problem}")
                else:
                    report.ok += 1
        return report

    def gc(self, *, dry_run: bool = False) -> GcReport:
        """Compact the store, dropping records that can never be served.

        Dropped: malformed/torn records, duplicate keys (last record
        wins, matching read semantics), and records whose code identity
        is not this package's source digest
        (:func:`~repro.analysis.static.package_code`), whatever their
        worker: stale — the never-stale key discipline means they are
        unreachable garbage.  A package with no code identity judges
        nothing stale.  Shards are rewritten to a temp file and
        atomically renamed, so concurrent readers always see a complete
        shard.
        """
        from repro.analysis import static

        code = static.package_code()
        report = GcReport(dry_run=dry_run)
        for shard in self.shard_files():
            survivors: dict[str, str] = {}  # key -> line, last wins
            for _lineno, line, rec in self._scan_shard(shard):
                if rec is None:
                    report.dropped_torn += 1
                    continue
                if record_problem(rec) is not None:
                    report.dropped_malformed += 1
                    continue
                if code is not None and rec["code"] != code:
                    report.dropped_stale += 1
                    continue
                if rec["k"] in survivors:
                    report.dropped_duplicate += 1
                survivors[rec["k"]] = line
            report.kept += len(survivors)
            if dry_run:
                continue
            if not survivors:
                shard.unlink()
                continue
            tmp = shard.with_suffix(".jsonl.tmp")
            body = "".join(
                survivors[k] + "\n" for k in sorted(survivors)
            )
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(body)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, shard)
        if not dry_run and self.leases_dir.is_dir():
            # Orphaned lease files and takeover markers (TTL-expired, or
            # owned by an exited process on this host) are reclaimed so
            # they stop delaying future takeovers.
            for pattern in ("*.json", "*.takeover"):
                for lease in sorted(self.leases_dir.glob(pattern)):
                    if self._lease_stale(lease):
                        with contextlib.suppress(OSError):
                            lease.unlink()
        return report
