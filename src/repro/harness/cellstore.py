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

Two runs sharing a store coordinate only through these appends: a cell
both of them miss is simulated by each, and both append the same
record line (every record is built by :func:`build_record`), which
``gc`` later compacts.  The only cost is the duplicated simulation.

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

import dataclasses
import hashlib
import json
import os
import pathlib
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


class _Miss:
    """Sentinel for "not in the store" (distinct from a stored ``None``)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<store miss>"


#: Returned by :meth:`CellStore.lookup` when no servable entry exists.
MISS = _Miss()


#: :meth:`CellStore.publish`'s default: derive the cell's address there.
_UNPLANNED: _t.Any = object()

#: A cell's ``(code identity, store key, payload hash)``.
Address = tuple[str, str, str]

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
    worker: str, args: _t.Sequence[_t.Any], result: _t.Any, address: Address
) -> dict:
    """The store record for one fresh result of the cell at ``address``.

    One construction site for every record, so any two publishers of
    the same result emit byte-identical record lines.
    """
    code, key, digest = address
    return {
        "v": STORE_VERSION,
        "k": key,
        "worker": worker,
        "args": encode_value(tuple(args)),
        "code": code,
        "hash": digest,
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
    """A dispatch plan: every cell of a sweep, split by the store.

    Produced by :meth:`CellStore.plan_cells` before any dispatch:
    ``served`` cells already have a result, ``to_run`` cells execute.
    """

    served: dict[tuple, _t.Any] = dataclasses.field(default_factory=dict)
    to_run: list[_t.Any] = dataclasses.field(default_factory=list)
    #: Each ``to_run`` cell's address (:meth:`CellStore.publish` takes
    #: it), by cell key, so a sweep derives each key once.
    addresses: dict[tuple, "Address | None"] = dataclasses.field(default_factory=dict)


def store_root(spec: "str | os.PathLike[str]") -> pathlib.Path:
    """The directory a ``--store`` spec names.

    A ``<scheme>://`` spec is rejected rather than silently becoming a
    local directory named after the scheme, and so is an empty spec,
    rather than becoming the current directory, and a path that exists
    but is not a directory: the first publish would fail on it, after a
    cell had been simulated.  A path that does not exist yet is valid;
    the first publish creates it.
    """
    text = os.fspath(spec)
    if not text:
        raise ConfigError(
            "store spec '' is not a directory path; name the store's "
            "directory ('.' for the current one)"
        )
    if "://" in text:
        raise ConfigError(
            f"store spec {text!r} is not a directory path; only local "
            "directory stores are supported"
        )
    root = pathlib.Path(spec)
    if root.exists() and not root.is_dir():
        raise ConfigError(f"store {text!r} exists and is not a directory")
    return root


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

    def __init__(self, root: str | pathlib.Path) -> None:
        self.root = store_root(root)
        self.hits = 0
        self.misses = 0
        self.published = 0

    # -- paths ------------------------------------------------------------
    @property
    def cells_dir(self) -> pathlib.Path:
        return self.root / "cells"

    def shard_path(self, key: str) -> pathlib.Path:
        return self.cells_dir / f"{key[:SHARD_WIDTH]}.jsonl"

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

    # -- cell addresses ---------------------------------------------------
    def _address(self, worker: str, args: _t.Sequence[_t.Any]) -> "Address | None":
        """``(code identity, store key, payload hash)`` of one cell (None:
        the worker has no code identity, so no safe cache key)."""
        from repro.analysis import static

        code = static.worker_fingerprint(worker)
        if code is None:
            return None
        return code, store_key(worker, args, code), payload_hash(worker, args)

    # -- the hot path -----------------------------------------------------
    def _find(self, worker: str, address: "Address | None") -> _t.Any:
        """Uncounted lookup of the cell at ``address`` — :data:`MISS` or
        the stored result.

        The counter-free primitive behind :meth:`lookup` and
        :meth:`plan_cells`, which count their own hits and misses.  A hit requires the full content address to match: key, worker,
        code identity and payload hash — and a record of this
        :data:`STORE_VERSION`, so a newer (or garbled) layout is
        re-simulated rather than misread; a record whose result does not
        decode is skipped the same way.
        """
        if address is None:
            return MISS
        code, key, digest = address
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
        found = self._find(worker, self._address(worker, args))
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
        self, worker: str, args: _t.Sequence[_t.Any], result: _t.Any,
        address: "Address | None" = _UNPLANNED,
    ) -> bool:
        """Append one result record; False when the worker is uncacheable.

        ``address`` is the cell's address from :meth:`plan_cells`
        (``StorePlan.addresses``); omitted, it is derived here.
        """
        if address is _UNPLANNED:
            address = self._address(worker, args)
        if address is None:
            return False
        record = build_record(worker, args, result, address)
        # Unsorted: the line keeps the result's dict key order, so a
        # served result equals a fresh one down to its repr.
        self._append_record_line(record["k"], json.dumps(record) + "\n")
        self.published += 1
        return True

    def banner(self) -> str:
        """One-line ``store: ...`` summary (stderr only, never in reports)."""
        return (
            f"store: {self.hits + self.misses} lookup(s): "
            f"{self.hits} served, {self.misses} executed, "
            f"{self.published} published"
        )

    def plan_cells(self, cells: _t.Sequence[_t.Any]) -> StorePlan:
        """Split a sweep into served cells and cells to run.

        The pass every sweep makes before dispatch: a cell with a stored
        result is served, every other cell runs.
        """
        plan = StorePlan()
        for cell in cells:
            address = self._address(cell.worker, cell.args)
            value = self._find(cell.worker, address)
            if value is MISS:
                self.misses += 1
                plan.to_run.append(cell)
                plan.addresses[cell.key] = address
            else:
                self.hits += 1
                plan.served[cell.key] = value
        return plan

    # Always a miss and never called; the e2e benchmark's tracer wraps it.
    def await_peer(self, worker: str, args: _t.Sequence[_t.Any]) -> _t.Any:
        return MISS

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
        return report
