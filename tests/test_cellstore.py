"""Tests for the content-addressed global cell store.

Covers the tentpole guarantees: content-addressed keys that bake in the
worker's code identity (never-stale discipline), torn-record-tolerant
concurrent publishing, and the ``repro store`` maintenance CLI
(stats/verify/gc).  That a cold and a warm store render
every registered experiment byte-identically is a row pair of the golden
strategy table (``tests/test_golden.py``).
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.cli import main
from repro.config import Run, RunConfig
from repro.errors import ConfigError
from repro.harness.cellstore import (
    MISS,
    CellStore,
    build_record,
    record_problem,
    store_key,
)
from repro.harness.journal import payload_hash
from repro.harness.parallel import Cell, cell_worker
from repro.harness.supervisor import run_cells

def _record(worker, args, result, code):
    """The record a publisher of code identity ``code`` would write."""
    address = (code, store_key(worker, args, code), payload_hash(worker, args))
    return build_record(worker, args, result, address)


#: Inline executions of the counting test worker (jobs=1 runs in-process).
_CALLS: list[tuple] = []


@cell_worker("cs_count")
def _cs_count(x):
    """Counting worker: records every execution, returns typed payloads."""
    _CALLS.append(("cs_count", x))
    return {"v": float(x * x), "curve": {1: x / 2, 1024: x * 1.5}, "key": (x,)}


@cell_worker("cs_plain")
def _cs_plain(x):
    """Second worker so cross-worker key separation can be asserted."""
    _CALLS.append(("cs_plain", x))
    return {"v": float(x)}


@cell_worker("cs_fail")
def _cs_fail(x):
    """Always-failing worker, for failed-cell handling."""
    _CALLS.append(("cs_fail", x))
    raise RuntimeError(f"cs_fail({x})")


#: Cheap, real cells with a code identity: NPB CG class S on
#: two Vayu ranks, one per seed.
NPB_CELLS = [Cell((seed,), "npb_point", ("cg", "Vayu", 2, seed, "S", None))
             for seed in range(1, 5)]


#: The package code identity under :func:`fake_fingerprints`.
PACKAGE_CODE = "aa" * 16


@pytest.fixture
def fake_fingerprints(monkeypatch):
    """Give the test-local ``cs_*`` workers controllable code identities.

    Workers registered from a test module have no code identity, so
    this patches :func:`repro.analysis.static.worker_fingerprint`
    (the single source the store imports) with a
    mutable mapping the test can edit to simulate a code change.  The
    package's own identity, which ``gc`` judges records by, is
    :data:`PACKAGE_CODE`, the code they start with.
    """
    import repro.analysis.static as static

    fingerprints = dict.fromkeys(("cs_count", "cs_plain", "cs_fail"), PACKAGE_CODE)
    real = static.worker_fingerprint
    monkeypatch.setattr(
        static, "worker_fingerprint",
        lambda worker: fingerprints.get(worker, real(worker)),
    )
    monkeypatch.setattr(static, "package_code", lambda: PACKAGE_CODE)
    return fingerprints


# ---------------------------------------------------------------------------
# Key derivation
# ---------------------------------------------------------------------------

class TestStoreKey:
    def test_stable_and_discriminating(self):
        key = store_key("w", (1, ("a", 2), {1: 0.5}), "ab" * 16)
        assert key == store_key("w", (1, ("a", 2), {1: 0.5}), "ab" * 16)
        assert len(key) == 64 and key == key.lower()
        assert key != store_key("w2", (1, ("a", 2), {1: 0.5}), "ab" * 16)
        assert key != store_key("w", (1, ("a", 3), {1: 0.5}), "ab" * 16)

    def test_fault_free_key_pinned(self):
        # A key is the digest fault-free runs always had (the fault term
        # left with the simulated-fault layer), so existing stores keep
        # serving the records whose code fingerprint still matches.
        args = ("cg", "Vayu", 64, 1, "B", None)
        key = store_key("npb_point", args, "ab" * 16)
        assert key == (
            "05b8d7f51663f3c4046235d17197afec588daf89b6f5b61f102748e004dcc67e"
        )

    def test_old_faulted_record_is_never_served(self, tmp_path,
                                                fake_fingerprints):
        # Stores written before the simulated-fault layer was removed can
        # hold records computed under a fault schedule: a "faults" field
        # whose spec was the fifth field of the keyed blob.  One such
        # line, planted in the very shard a plain lookup scans, is a
        # miss; verify reports it and gc drops it, without a crash.
        import hashlib

        from repro.harness.cellstore import JOURNAL_FORMAT_VERSION
        from repro.harness.journal import encode_value

        store = CellStore(tmp_path / "store")
        args = (1,)
        record = _record("cs_count", args, {"v": -1.0}, "aa" * 16)
        spec = "crash:at=1.0,node=0"
        blob = json.dumps(
            [JOURNAL_FORMAT_VERSION, "cs_count", encode_value(args), "aa" * 16, spec],
            sort_keys=True, separators=(",", ":"),
        )
        faulted = {**record, "faults": spec,
                   "k": hashlib.sha256(blob.encode("utf-8")).hexdigest()}
        assert faulted["k"] != record["k"]
        shard = store.shard_path(record["k"])
        shard.parent.mkdir(parents=True)
        shard.write_text(json.dumps(faulted, sort_keys=True) + "\n")
        assert store.lookup("cs_count", args) is MISS
        report = store.verify()
        assert report.ok == 0 and report.problems == [
            f"{shard.name}:1: key does not re-derive from (worker, args, code)"
        ]
        store.publish("cs_count", args, {"v": 1.0})
        assert store.lookup("cs_count", args) == {"v": 1.0}
        gc = store.gc()
        assert gc.kept == 1 and gc.dropped_malformed == 1
        assert store.verify().clean and store.verify().ok == 1
        assert store.lookup("cs_count", args) == {"v": 1.0}

    def test_code_fingerprint_moves_the_key(self):
        # The whole staleness story: editing the package changes the
        # code identity, which changes the key, so old entries just stop
        # being found.
        args = (1, 2)
        assert store_key("w", args, "aa" * 16) != store_key("w", args, "bb" * 16)

    def test_journal_format_version_participates(self, monkeypatch):
        import repro.harness.cellstore as cellstore

        before = store_key("w", (1,), "aa" * 16)
        monkeypatch.setattr(
            cellstore, "JOURNAL_FORMAT_VERSION",
            cellstore.JOURNAL_FORMAT_VERSION + 1,
        )
        assert store_key("w", (1,), "aa" * 16) != before


# ---------------------------------------------------------------------------
# Publish / lookup
# ---------------------------------------------------------------------------

class TestPublishLookup:
    def test_round_trip_preserves_typed_values(self, tmp_path, fake_fingerprints):
        store = CellStore(tmp_path / "store")
        result = {"v": 2.5, "curve": {1: 0.5, 1024: 1.5}, "key": ("x", 3)}
        assert store.lookup("cs_count", (3,)) is MISS
        assert store.publish("cs_count", (3,), result)
        value = store.lookup("cs_count", (3,))
        assert value == result
        # Exact types survive the round trip: int dict keys stay ints,
        # tuples stay tuples, floats stay floats.  (String-keyed dicts
        # come back in canonical sorted order.)
        assert all(isinstance(k, int) for k in value["curve"])
        assert isinstance(value["key"], tuple)
        assert isinstance(value["v"], float)
        assert store.hits == 1 and store.misses == 1 and store.published == 1

    def test_miss_on_different_args_or_worker(self, tmp_path, fake_fingerprints):
        store = CellStore(tmp_path / "store")
        store.publish("cs_count", (3,), {"v": 9.0})
        assert store.lookup("cs_count", (4,)) is MISS
        assert store.lookup("cs_plain", (3,)) is MISS

    def test_unfingerprintable_worker_bypasses_store(self, tmp_path):
        # No static code identity -> no safe cache key: lookups miss,
        # publishes are refused, nothing lands on disk.
        store = CellStore(tmp_path / "store")
        assert store.lookup("cs_count", (1,)) is MISS
        assert not store.publish("cs_count", (1,), {"v": 1.0})
        assert store.shard_files() == []

    def test_stale_fingerprint_never_served(self, tmp_path, fake_fingerprints):
        # Publish under one code identity, "edit the code", look up:
        # the entry must be invisible, not wrong.
        store = CellStore(tmp_path / "store")
        store.publish("cs_count", (3,), {"v": 9.0})
        fake_fingerprints["cs_count"] = "cc" * 16
        assert store.lookup("cs_count", (3,)) is MISS

    def test_last_record_wins_on_duplicate_keys(self, tmp_path, fake_fingerprints):
        store = CellStore(tmp_path / "store")
        store.publish("cs_count", (3,), {"v": 1.0})
        store.publish("cs_count", (3,), {"v": 2.0})
        assert store.lookup("cs_count", (3,)) == {"v": 2.0}

    def test_torn_record_tolerated_anywhere(self, tmp_path, fake_fingerprints):
        store = CellStore(tmp_path / "store")
        store.publish("cs_count", (3,), {"v": 9.0})
        [shard] = store.shard_files()
        body = shard.read_text()
        # A concurrent writer killed mid-append, then another completed
        # append after it: the torn line sits mid-file.
        shard.write_text('{"v": 1, "k": "deadbeef' + "\n" + body)
        assert store.lookup("cs_count", (3,)) == {"v": 9.0}
        stats = store.stats()
        assert stats.torn_lines == 1 and stats.records == 1

    def test_too_deeply_nested_line_is_torn(self, tmp_path, fake_fingerprints):
        # A line the JSON decoder cannot nest into raises RecursionError,
        # not JSONDecodeError; it is a torn line like any other.
        store = CellStore(tmp_path / "store")
        store.publish("cs_count", (3,), {"v": 9.0})
        [shard] = store.shard_files()
        with open(shard, "a") as fh:
            fh.write("[" * 200_000 + "\n")
        assert store.lookup("cs_count", (3,)) == {"v": 9.0}
        assert store.verify().torn_lines == 1
        assert store.gc().dropped_torn == 1

    def test_tampered_result_not_served(self, tmp_path, fake_fingerprints):
        # Flipping the payload hash (or key) on disk must yield a miss,
        # never a wrong result.
        store = CellStore(tmp_path / "store")
        store.publish("cs_count", (3,), {"v": 9.0})
        [shard] = store.shard_files()
        rec = json.loads(shard.read_text())
        rec["hash"] = "00" * 16
        shard.write_text(json.dumps(rec) + "\n")
        assert store.lookup("cs_count", (3,)) is MISS


# ---------------------------------------------------------------------------
# run_cells / sweep driver integration
# ---------------------------------------------------------------------------

class TestRunCellsIntegration:
    def test_second_run_executes_zero_cells(self, tmp_path, fake_fingerprints):
        cells = [Cell((i,), "cs_count", (i,)) for i in range(4)]
        store = CellStore(tmp_path / "store")
        del _CALLS[:]
        first = run_cells(cells, Run(store=store)).results
        assert len(_CALLS) == 4
        assert store.published == 4
        store = CellStore(tmp_path / "store")
        del _CALLS[:]
        second = run_cells(cells, Run(store=store)).results
        assert _CALLS == []  # simulate once...
        assert store.hits == 4 and store.misses == 0
        assert second == first
        assert list(second) == list(first)  # key order preserved

    def test_a_sweep_derives_each_cell_key_once(self, tmp_path, fake_fingerprints,
                                                monkeypatch):
        """The plan derives each cell's code identity and key; publishing
        the fresh result reuses them.  A lone publish derives its own."""
        import repro.analysis.static as static

        calls = []
        fingerprint = static.worker_fingerprint

        def counting(worker):
            calls.append(worker)
            return fingerprint(worker)

        monkeypatch.setattr(static, "worker_fingerprint", counting)
        cells = [Cell((i,), "cs_count", (i,)) for i in range(4)]
        store = CellStore(tmp_path / "store")
        run_cells(cells, Run(store=store))
        assert store.published == 4 and len(calls) == 4
        assert store.publish("cs_count", (9,), {"v": 81.0})
        assert len(calls) == 5
        assert store.lookup("cs_count", (9,)) == {"v": 81.0}
        assert store.verify().clean

    def test_partial_hits_merge_in_cell_order(self, tmp_path, fake_fingerprints):
        store = CellStore(tmp_path / "store")
        run_cells([Cell((1,), "cs_count", (1,)), Cell((3,), "cs_count", (3,))],
                  Run(store=store))
        cells = [Cell((i,), "cs_count", (i,)) for i in range(5)]
        store = CellStore(tmp_path / "store")
        del _CALLS[:]
        out = run_cells(cells, Run(store=store)).results
        assert store.hits == 2 and store.misses == 3
        assert [x for _, x in _CALLS] == [0, 2, 4]
        assert list(out) == [(i,) for i in range(5)]
        assert out == {
            (i,): {"v": float(i * i), "curve": {1: i / 2, 1024: i * 1.5},
                   "key": (i,)}
            for i in range(5)
        }

    def test_code_edit_forces_re_execution(self, tmp_path, fake_fingerprints):
        cells = [Cell((i,), "cs_count", (i,)) for i in range(3)]
        store = CellStore(tmp_path / "store")
        run_cells(cells, Run(store=store))
        fake_fingerprints["cs_count"] = "dd" * 16  # simulated code edit
        store = CellStore(tmp_path / "store")
        del _CALLS[:]
        run_cells(cells, Run(store=store))
        assert store.hits == 0 and store.misses == 3
        assert len(_CALLS) == 3  # all re-simulated, old entries ignored

    def test_supervised_store_hits_counted(self, tmp_path, fake_fingerprints):
        # The resume path: a second run on the same store is served from
        # it.
        cells = [Cell((i,), "cs_count", (i,)) for i in range(3)]
        store = CellStore(tmp_path / "store")
        fresh = run_cells(cells, Run(store=store))
        assert store.hits == 0 and store.published == 3
        store = CellStore(tmp_path / "store")
        del _CALLS[:]
        served = run_cells(cells, Run(store=store))
        assert _CALLS == []
        assert store.hits == 3 and store.published == 0
        assert served.stats.ok == 3
        assert served.results == fresh.results
        assert store.banner().startswith("store: 3 lookup(s): 3 served")

    def test_fig6_store_serves_tab3_and_fig7(self, tmp_path):
        # Table III and Fig 7 read Fig 6's 32-core UM runs, so a store
        # filled by one command serves them to the next.
        from repro.harness.runner import run_batch

        run_batch(["fig6"], seed=1, store=tmp_path / "store")
        later = run_batch(["tab3", "fig7"], seed=1, store=tmp_path / "store")
        assert later.store_summary == (
            "store: 4 lookup(s): 4 served, 0 executed, 0 published"
        )


# ---------------------------------------------------------------------------
# Concurrent writers
# ---------------------------------------------------------------------------

def _npb_args(seed: int) -> tuple:
    return ("cg", "Vayu", 2, seed, "S", None)


def _npb_result(seed: int) -> dict[str, float]:
    return {"projected_time": seed * 2.0, "per_iter_time": seed / 8,
            "comm_percent": float(seed)}


def _publish_block(root: str, seeds: list[int]) -> int:
    """Publish one deterministic npb_point record per seed (subprocess)."""
    store = CellStore(root)
    n = 0
    for seed in seeds:
        if store.publish("npb_point", _npb_args(seed), _npb_result(seed)):
            n += 1
    return n


class TestConcurrentWriters:
    def test_disjoint_and_overlapping_writers(self, tmp_path):
        # Two real processes publish concurrently: disjoint seed blocks
        # plus a shared overlap (same key, same deterministic payload).
        root = str(tmp_path / "store")
        a = list(range(1, 9))        # 1 .. 8
        b = list(range(5, 13))       # 5 .. 12 (overlap 4)
        with ProcessPoolExecutor(max_workers=2) as pool:
            fa = pool.submit(_publish_block, root, a)
            fb = pool.submit(_publish_block, root, b)
            assert fa.result() == 8 and fb.result() == 8
        store = CellStore(root)
        every = sorted(set(a) | set(b))
        for seed in every:
            assert store.lookup("npb_point", _npb_args(seed)) == _npb_result(seed)
        stats = store.stats()
        assert stats.unique_keys == len(every) == 12
        assert stats.records == 16  # overlap appended twice, served once
        assert stats.torn_lines == 0
        assert store.verify().clean


# ---------------------------------------------------------------------------
# No leases: a sweep's own duplicates, and what older stores left behind
# ---------------------------------------------------------------------------

class TestLeases:
    def test_plan_cells_partitions(self, tmp_path, fake_fingerprints):
        store = CellStore(tmp_path / "store")
        store.publish("cs_count", (0,), {"v": 0.0})
        plan = store.plan_cells([Cell((i,), "cs_count", (i,)) for i in range(3)])
        assert plan.served == {(0,): {"v": 0.0}}
        assert [c.key for c in plan.to_run] == [(1,), (2,)]
        assert store.hits == 1 and store.misses == 2

    # Two cells with different keys but one payload (fig6's ("EC2", 64)
    # / ("EC2-4", 64) pair): the sweep driver runs the first and hands its
    # outcome to the twin, so the store never sees the second cell.
    # Both hold inline and at jobs=2.
    _TWIN_POLICIES = (RunConfig(), RunConfig(jobs=2))

    def test_own_duplicate_is_served_not_awaited(self, tmp_path,
                                                 fake_fingerprints):
        cells = [Cell(("a",), "cs_count", (1,)), Cell(("b",), "cs_count", (1,))]
        for i, config in enumerate(self._TWIN_POLICIES):
            store = CellStore(tmp_path / f"store{i}")
            del _CALLS[:]
            report = run_cells(cells, Run(config, store=store))
            # One pending cell runs inline even at jobs=2.
            assert _CALLS == [("cs_count", 1)]
            assert report.results == {("a",): _cs_count(1), ("b",): _cs_count(1)}
            assert report.stats.ok == 2 and not report.failures
            assert store.hits == 0 and store.misses == 1
            assert store.published == 1
            assert store.stats().records == 1

    def test_failed_own_duplicate_does_not_wait(self, tmp_path,
                                                fake_fingerprints,
                                                monkeypatch):
        def no_waiting(_seconds):
            raise AssertionError("the sweep waited on its own duplicate")

        monkeypatch.setattr(time, "sleep", no_waiting)
        cells = [Cell(("a",), "cs_fail", (1,)), Cell(("b",), "cs_fail", (1,))]
        for i, config in enumerate(self._TWIN_POLICIES):
            store = CellStore(tmp_path / f"store{i}")
            del _CALLS[:]
            report = run_cells(cells, Run(config, store=store))
            assert _CALLS == [("cs_fail", 1)]
            assert sorted(report.failures) == [("a",), ("b",)]
            a, b = report.failures[("a",)], report.failures[("b",)]
            assert (b.key, b.worker, b.detail) == (("b",), a.worker, a.detail)
            assert store.published == 0

    def test_killed_run_leases_do_not_block_the_rerun(self, tmp_path,
                                                      monkeypatch):
        # Older versions claimed each cell with a lease file under
        # <store>/leases/ before running it, and a run killed mid-sweep
        # left its claims behind.  Nothing reads that directory now: a
        # re-run over live-looking claims on every one of its cells
        # neither waits nor touches them, and renders the same report.
        from repro.harness.runner import run_batch

        cold = run_batch(["fig4"], quick=True, seed=1,
                         store=tmp_path / "reference")
        keys = [json.loads(line)["k"]
                for shard in CellStore(tmp_path / "reference").shard_files()
                for line in shard.read_text().splitlines()]
        assert keys
        leases = tmp_path / "store" / "leases"
        leases.mkdir(parents=True)
        owner = f"{os.uname().nodename}:{os.getppid()}:live"
        for key in keys:
            (leases / f"{key}.json").write_text(
                json.dumps({"owner": owner, "k": key}))
        before = {p.name: p.read_text() for p in leases.iterdir()}

        def no_waiting(_seconds):
            raise AssertionError("the re-run waited on a leftover lease")

        monkeypatch.setattr(time, "sleep", no_waiting)
        rerun = run_batch(["fig4"], quick=True, seed=1, store=tmp_path / "store")
        assert rerun.render() == cold.render()
        assert rerun.store_summary == cold.store_summary
        assert {p.name: p.read_text() for p in leases.iterdir()} == before


# ---------------------------------------------------------------------------
# Two runs, one store: lockless appends, duplicates compacted by gc
# ---------------------------------------------------------------------------

#: The code identity of the ``cs_race`` worker, and of the package
#: while a race test judges staleness.
RACE_CODE = "77" * 16


def _race_sweep(root: str, marker_dir: str, jobs: int,
                xs: list[int]) -> dict:
    """One store-backed sweep over ``xs`` at ``jobs`` (subprocess)."""
    import repro.analysis.static as static

    real = static.worker_fingerprint
    static.worker_fingerprint = (
        lambda worker: RACE_CODE if worker == "cs_race" else real(worker)
    )
    cells = [Cell((x,), "cs_race", (x, marker_dir)) for x in xs]
    store = CellStore(root)
    results = run_cells(cells, Run(RunConfig(jobs=jobs), store=store)).results
    return {"results": results, "published": store.published}


@cell_worker("cs_race")
def _cs_race(x, marker_dir):
    """Slow worker leaving one unique marker file per actual execution."""
    import tempfile

    time.sleep(0.05)
    fd, _path = tempfile.mkstemp(prefix=f"cell{x}-", dir=marker_dir)
    os.close(fd)
    return {"v": float(x)}


class TestTwoExecutorsOneStore:
    def test_overlapping_sweeps_execute_each_cell_once(self, tmp_path,
                                                       monkeypatch):
        # Two processes run overlapping sweeps at two different ``jobs``
        # (pool and inline) on one store.  Nothing coordinates them but
        # the store's appends: each sweep runs each of its cells at
        # most once, a contested cell may run in both, and each
        # duplicate is the same record line, which gc compacts.
        import repro.analysis.static as static

        root = str(tmp_path / "store")
        markers = tmp_path / "markers"
        markers.mkdir()
        a_xs = list(range(8))       # 0..7
        b_xs = list(range(4, 12))   # 4..11 — four contested cells
        with ProcessPoolExecutor(max_workers=2) as pool:
            fa = pool.submit(_race_sweep, root, str(markers), 2, a_xs)
            fb = pool.submit(_race_sweep, root, str(markers), 1, b_xs)
            ra, rb = fa.result(timeout=300), fb.result(timeout=300)
        for x in range(12):
            runs = [p for p in markers.iterdir()
                    if p.name.startswith(f"cell{x}-")]
            sweeps = (x in a_xs) + (x in b_xs)
            assert 1 <= len(runs) <= sweeps, f"cell {x} ran {len(runs)} time(s)"
        # Each sweep returns every one of its results, as a solo run does.
        solo_markers = tmp_path / "solo"
        solo_markers.mkdir()
        solo = run_cells([Cell((x,), "cs_race", (x, str(solo_markers)))
                          for x in range(12)]).results
        assert ra["results"] == {(x,): solo[(x,)] for x in a_xs}
        assert rb["results"] == {(x,): solo[(x,)] for x in b_xs}

        store = CellStore(root)
        assert store.verify().clean
        lines: dict[str, set[str]] = {}
        for shard in store.shard_files():
            for line in shard.read_text().splitlines():
                lines.setdefault(json.loads(line)["k"], set()).add(line)
        assert len(lines) == 12
        assert all(len(copies) == 1 for copies in lines.values())
        records = store.stats().records
        assert records == ra["published"] + rb["published"] >= 12

        monkeypatch.setattr(static, "package_code", lambda: RACE_CODE)
        report = store.gc()
        assert report.kept == 12
        assert report.dropped == report.dropped_duplicate == records - 12
        assert store.stats().records == 12

    def test_store_run_creates_no_leases_directory(self, tmp_path,
                                                   fake_fingerprints):
        root = tmp_path / "store"
        cells = [Cell((x,), "cs_count", (x,)) for x in range(3)]
        cells.append(Cell(("f",), "cs_fail", (0,)))
        report = run_cells(cells, Run(RunConfig(), store=CellStore(root)))
        assert len(report.results) == 3 and list(report.failures) == [("f",)]
        assert [p.name for p in root.iterdir()] == ["cells"]


# ---------------------------------------------------------------------------
# Byte-identity across every registered experiment
# ---------------------------------------------------------------------------

class TestExperimentByteIdentity:
    def test_undecodable_result_is_re_executed(self, tmp_path):
        # A record whose key, code and hash are valid but whose result
        # is a garbled typed encoding: verify flags it, and a sweep
        # treats it as a miss — it re-runs that cell instead of dying.
        root = tmp_path / "store"
        cold = run_cells(NPB_CELLS, store=root).results
        store = CellStore(root)
        shard = store.shard_files()[0]
        lines = shard.read_text().splitlines()
        rec = json.loads(lines[0])
        rec["result"] = {"__tuple__": 5}
        shard.write_text("\n".join([json.dumps(rec)] + lines[1:]) + "\n")
        report = store.verify()
        assert report.ok == 3
        assert report.problems == [
            f"{shard.name}:1: result is not a typed encoding"
        ]
        with RunConfig(store=root).open() as run:
            warm = run_cells(NPB_CELLS, run).results
        assert warm == cold
        assert "3 served, 1 executed, 1 published" in run.store.banner()


# ---------------------------------------------------------------------------
# Maintenance: verify / gc
# ---------------------------------------------------------------------------

class TestMaintenance:
    def _populated(self, tmp_path, fingerprints):
        store = CellStore(tmp_path / "store")
        for x in range(4):
            store.publish("cs_count", (x,), {"v": float(x)})
        store.publish("cs_plain", (9,), {"v": 9.0})
        return store

    def test_verify_clean_store(self, tmp_path, fake_fingerprints):
        store = self._populated(tmp_path, fake_fingerprints)
        report = store.verify()
        assert report.clean and report.ok == 5 and report.torn_lines == 0

    def test_verify_flags_tampering(self, tmp_path, fake_fingerprints):
        store = self._populated(tmp_path, fake_fingerprints)
        shard = store.shard_files()[0]
        rec = json.loads(shard.read_text().splitlines()[0])
        rec["worker"] = "other_worker"  # key no longer re-derives
        with open(shard, "a") as fh:
            fh.write(json.dumps(rec) + "\n")
        report = store.verify()
        assert not report.clean
        assert any("does not re-derive" in p for p in report.problems)

    def test_record_problem_catalogue(self):
        assert record_problem([]) == "record is not an object"
        assert "non-integer" in record_problem({"v": "x"})
        assert "newer than supported" in record_problem({"v": 99})
        assert "missing field" in record_problem({"v": 1, "k": "ab" * 32})
        bad = {"v": 1, "k": "zz" * 32, "worker": "w", "args": [],
               "code": "aa", "hash": "bb" * 16, "result": {}}
        assert "64 lowercase hex" in record_problem(bad)
        # Garbled typed encodings are reported, never raised.
        good = _record("w", (1,), {"v": 1.0}, "aa" * 16)
        assert record_problem(good) is None
        for field, garbled, reason in (
            ("args", {"__tuple__": 5}, "args are not a typed encoding"),
            ("args", {"__dict__": [[1]]}, "args are not a typed encoding"),
            ("args", {"__dict__": [[[1], 2]]}, "args are not a typed encoding"),
            ("result", {"__tuple__": 5}, "result is not a typed encoding"),
            ("result", {"__dict__": [[[1], 2]]}, "result is not a typed encoding"),
        ):
            assert record_problem({**good, field: garbled}) == reason

    def test_gc_drops_stale_and_duplicates(self, tmp_path, fake_fingerprints):
        fake_fingerprints["cs_plain"] = "ee" * 16  # cs_plain's entry: other code
        store = self._populated(tmp_path, fake_fingerprints)
        store.publish("cs_count", (0,), {"v": 0.5})  # duplicate key
        dry = store.gc(dry_run=True)
        assert dry.dry_run and dry.dropped_stale == 1 and dry.dropped_duplicate == 1
        report = store.gc()
        assert report.kept == 4
        assert report.dropped_stale == 1 and report.dropped_duplicate == 1
        # Post-gc: duplicate collapsed last-wins, stale gone, all clean.
        assert store.lookup("cs_count", (0,)) == {"v": 0.5}
        assert store.verify().clean
        after = store.stats()
        assert after.records == 4 and after.unique_keys == 4

    def test_gc_unknown_worker_records(self, tmp_path, fake_fingerprints):
        # A worker that is no longer registered is judged like any
        # other: by its record's code.
        fake_fingerprints["cs_plain"] = "ee" * 16
        store = self._populated(tmp_path, fake_fingerprints)
        del fake_fingerprints["cs_plain"]  # now unfingerprintable here
        report = store.gc()
        assert report.dropped_stale == 1 and report.kept == 4
        assert store.stats().workers == {"cs_count": 4}

    def test_gc_drops_foreign_code_whatever_the_worker(self, tmp_path):
        # Judged by the real package digest: a record of a registered
        # worker and one of a worker that no longer exists, both written
        # by other code, are stale; a record with this package's code is
        # kept, registered worker or not.
        from repro.analysis import static

        code = static.package_code()
        assert code is not None
        store = CellStore(tmp_path / "store")
        records = [
            _record("npb_point", ("cg", "Vayu", 2, 1, "S", None), {"v": 1.0},
                    "ee" * 16),
            _record("metum_stats", ("Vayu", 32), {"v": 2.0}, "ee" * 16),
            _record("metum_stats", ("Vayu", 64), {"v": 3.0}, code),
        ]
        for rec in records:
            path = store.shard_path(rec["k"])
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        report = store.gc()
        assert report.dropped_stale == 2 and report.kept == 1
        assert store.stats().workers == {"metum_stats": 1}

    def test_gc_without_package_code_drops_nothing_stale(
        self, tmp_path, fake_fingerprints, monkeypatch
    ):
        import repro.analysis.static as static

        fake_fingerprints["cs_plain"] = "ee" * 16
        store = self._populated(tmp_path, fake_fingerprints)
        monkeypatch.setattr(static, "package_code", lambda: None)
        report = store.gc()
        assert report.dropped_stale == 0 and report.kept == 5


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestStoreCli:
    def _populated_root(self, tmp_path, fingerprints):
        store = CellStore(tmp_path / "store")
        for x in range(3):
            store.publish("cs_count", (x,), {"v": float(x)})
        return str(tmp_path / "store")

    def test_stats_and_verify_exit_codes(self, tmp_path, fake_fingerprints,
                                         capsys):
        root = self._populated_root(tmp_path, fake_fingerprints)
        assert main(["store", "stats", root]) == 0
        out = capsys.readouterr().out
        assert "records      : 3" in out
        assert main(["store", "stats", root, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["records"] == 3 and payload["workers"] == {"cs_count": 3}
        assert main(["store", "verify", root]) == 0
        assert "3 record(s) ok" in capsys.readouterr().out

    def test_verify_gate_fails_on_corruption(self, tmp_path, fake_fingerprints,
                                             capsys):
        root = self._populated_root(tmp_path, fake_fingerprints)
        store = CellStore(root)
        shard = store.shard_files()[0]
        rec = json.loads(shard.read_text().splitlines()[0])
        rec["hash"] = "00" * 16
        with open(shard, "a") as fh:
            fh.write(json.dumps(rec) + "\n")
        assert main(["store", "verify", root]) == 1

    def test_gc_command(self, tmp_path, fake_fingerprints, capsys):
        root = self._populated_root(tmp_path, fake_fingerprints)
        assert main(["store", "gc", root, "--dry-run"]) == 0
        assert "would drop" in capsys.readouterr().out
        assert main(["store", "verify", root]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["store", "gc", root, "--drop-unknown"])
        assert exc.value.code == 2

    def test_run_store_flag_round_trip(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        assert main(["run", "tab2", "--store", root]) == 0
        first = capsys.readouterr()
        assert "store:" in first.err and "published" in first.err
        assert main(["run", "tab2", "--store", root]) == 0
        second = capsys.readouterr()
        assert first.out == second.out  # byte-identical report
        assert "0 executed, 0 published" in second.err

    @pytest.mark.parametrize(
        "spec", ["tcp://127.0.0.1:1", "file:///tmp/s", pytest.param("", id="empty")]
    )
    def test_scheme_store_specs_rejected(self, tmp_path, monkeypatch, capsys,
                                         spec):
        monkeypatch.chdir(tmp_path)
        for build in (CellStore, lambda s: RunConfig(store=s)):
            with pytest.raises(ConfigError, match="not a directory path"):
                build(spec)
        assert main(["run", "tab2", "--store", spec]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: store spec") and "Traceback" not in err
        assert main(["store", "stats", spec]) == 1
        # No "tcp:" directory appeared, and no "cells" for the empty spec.
        assert list(tmp_path.iterdir()) == []

    def test_store_spec_naming_a_file_rejected(self, tmp_path, monkeypatch,
                                               capsys):
        from repro.harness import parallel

        def no_cells(cell):
            raise AssertionError(f"simulated {cell.key} before failing")

        monkeypatch.setattr(parallel, "_execute", no_cells)
        path = tmp_path / "store"
        path.write_text("not a store\n")
        with pytest.raises(ConfigError, match="not a directory"):
            CellStore(path)
        assert main(["run", "fig2", "--store", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: store") and "Traceback" not in err
        assert err.count("\n") == 1
        assert path.read_text() == "not a store\n"

    @pytest.mark.parametrize("command", ["stats", "verify", "gc"])
    def test_maintenance_on_missing_path_fails(self, tmp_path, capsys,
                                               command):
        path = tmp_path / "no" / "such" / "store"
        assert main(["store", command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: store")
        assert "not an existing directory" in captured.err
        assert not (tmp_path / "no").exists()

    def test_negative_jobs_is_a_clean_cli_error(self, capsys):
        assert main(["run", "tab2", "--jobs", "-2"]) == 1
        assert "jobs must be >= 0" in capsys.readouterr().err
