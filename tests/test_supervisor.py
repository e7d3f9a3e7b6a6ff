"""Tests for the one sweep driver (``repro.harness.supervisor.run_cells``).

Covers the driver's contracts:

* clean-run byte-identity — every registered experiment renders
  byte-identically with a store as without;
* resume by store — a sweep that failed after k of n cells and is
  re-run against the same store renders byte-identically to an
  uninterrupted one, re-executing only the n−k missing cells;
* each cell runs at most once: a cell that raises fails at once, and a
  broken pool's cells degrade to inline execution;
* ``KeyboardInterrupt`` is never recorded;
* structured ``CellExecutionError`` surfacing, the harness banner and
  the CLI's 0 / 3 / 1 exit-code contract.
"""

from __future__ import annotations

import collections
import hashlib
import json
import os
import pathlib
import re
import tempfile
import time

import pytest

from repro.errors import CellExecutionError, ConfigError, MpiError, SimulationError
from repro.harness import parallel
from repro.config import Run, RunConfig
from repro.harness.cellstore import STORE_VERSION, CellStore
from repro.harness.journal import (
    FORMAT_VERSION,
    decode_value,
    encode_value,
    payload_hash,
)
from repro.harness.parallel import Cell, cell_worker
from repro.harness.supervisor import run_cells


# ---------------------------------------------------------------------------
# Module-level cell workers (pool workers must be able to resolve them)
# ---------------------------------------------------------------------------

#: Inline executions of the counting workers (jobs=1 runs in-process).
_CALLS: list[tuple] = []


@cell_worker("sup_square")
def _sup_square(x):
    _CALLS.append(("sup_square", x))
    return {"v": float(x * x)}


@cell_worker("sup_slow_square")
def _sup_slow_square(x):
    """``sup_square`` that takes 50 ms: long enough that a pool notices a
    dead worker before the survivors finish the sweep."""
    time.sleep(0.05)
    return {"v": float(x * x)}


@cell_worker("sup_flaky")
def _sup_flaky(x, fail_above, arm_path):
    """Deterministic computation that raises for x >= fail_above while
    the arm file exists — the 'sweep killed midway' stand-in."""
    _CALLS.append(("sup_flaky", x))
    if os.path.exists(arm_path) and x >= fail_above:
        raise RuntimeError(f"flaky cell {x}")
    return {"v": float(x * x)}


@cell_worker("sup_raise")
def _sup_raise(x):
    raise RuntimeError(f"boom {x}")


@cell_worker("sup_rank_raise")
def _sup_rank_raise(nprocs):
    """A world whose rank 3 raises while the other ranks wait in an
    all-reduce."""
    from repro.platforms import DCC
    from repro.smpi import run_program

    def prog(comm):
        if comm.rank == 3:
            yield 1.0
            raise MpiError(f"rank 3 of {comm.size} gave up")
        yield from comm.allreduce(8)

    run_program(DCC, nprocs, prog)
    return {"v": 0.0}


@cell_worker("sup_raise_counted")
def _sup_raise_counted(x):
    _CALLS.append(("sup_raise_counted", x))
    raise RuntimeError(f"boom {x}")


@cell_worker("sup_raise_repro")
def _sup_raise_repro(x):
    raise SimulationError(f"deterministic failure {x}")


@cell_worker("sup_die_once")
def _sup_die_once(x, marker):
    """First pool execution kills its worker process; any later
    execution (fresh pool or inline degrade) succeeds."""
    if parallel._WORKER_RUN is not None:
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            pass
        else:
            os.close(fd)
            os._exit(9)
    return {"v": float(x * 3)}


@cell_worker("sup_die_always")
def _sup_die_always(x):
    """Kills every pool worker it runs in (inline execution survives)."""
    if parallel._WORKER_RUN is not None:
        os._exit(9)
    return {"v": float(x)}


@cell_worker("sup_interrupt")
def _sup_interrupt(x, marker_dir):
    """Leaves one marker file per execution, then raises Ctrl-C."""
    import tempfile

    fd, _path = tempfile.mkstemp(prefix=f"cell{x}-", dir=marker_dir)
    os.close(fd)
    raise KeyboardInterrupt


@cell_worker("sup_tally")
def _sup_tally(x, tally_dir):
    """Leaves one marker file per execution in ``tally_dir`` (so pool
    executions count too); the result tells 1, 1.0 and True apart."""
    fd, _path = tempfile.mkstemp(prefix=f"{x!r}-", dir=tally_dir)
    os.close(fd)
    return {"v": float(x) * 2.0, "type": type(x).__name__}


def _tally(tally_dir):
    """Executions of ``sup_tally`` per ``repr(x)``."""
    return collections.Counter(
        name.rsplit("-", 1)[0] for name in os.listdir(tally_dir)
    )


@pytest.fixture
def fake_fingerprints(monkeypatch):
    """Give the test-local ``sup_*`` workers code identities so the store
    serves and publishes them (a worker registered from a test module
    has no code identity)."""
    import repro.analysis.static as static

    real = static.worker_fingerprint
    monkeypatch.setattr(
        static, "worker_fingerprint",
        lambda worker: "5a" * 16 if worker.startswith("sup_") else real(worker),
    )


@pytest.fixture
def pool_sizes(monkeypatch):
    """``max_workers`` of every process pool the sweep driver starts
    (``dispatch`` imports the pool class when it makes a pool)."""
    from concurrent.futures import process

    sizes: list[int] = []

    class _CountingPool(process.ProcessPoolExecutor):
        def __init__(self, *a, **k):
            sizes.append(k["max_workers"])
            super().__init__(*a, **k)

    monkeypatch.setattr(process, "ProcessPoolExecutor", _CountingPool)
    return sizes


# ---------------------------------------------------------------------------
# Typed encoding
# ---------------------------------------------------------------------------

class TestJournal:
    def test_typed_encoding_round_trip(self):
        values = [
            {"a": 1.5, "b": [1, 2, (3, "x")]},
            {1: 0.25, 1024: 3.5},          # OSU-style int-keyed curve
            ("cg", "Vayu", 16),
            {"__tuple__": "collision-safe"},
            [float("inf"), -0.0, 1e-300],
        ]
        for v in values:
            assert decode_value(json.loads(json.dumps(encode_value(v)))) == v

    def test_payload_hash_stable_and_discriminating(self):
        h = payload_hash("npb_point", ("cg", "Vayu", 16, 0))
        assert h == payload_hash("npb_point", ("cg", "Vayu", 16, 0))
        assert h != payload_hash("npb_point", ("cg", "Vayu", 16, 1))
        assert h != payload_hash("osu_curve", ("cg", "Vayu", 16, 0))


# ---------------------------------------------------------------------------
# Driver semantics
# ---------------------------------------------------------------------------

class TestSupervisedExecution:
    def test_clean_run_matches_plain_run_cells(self, tmp_path):
        cells = [Cell((i,), "sup_square", (i,)) for i in range(5)]
        plain = run_cells(cells, jobs=1).results
        report = run_cells(cells, jobs=2)
        assert report.results == plain
        assert list(report.results) == list(plain)
        assert not report.failures
        assert report.stats.ok == 5 and report.stats.failed == 0

    def test_duplicate_keys_rejected(self):
        cells = [Cell((1,), "sup_square", (1,)), Cell((1,), "sup_square", (2,))]
        with pytest.raises(ConfigError, match="duplicate cell keys"):
            run_cells(cells)

    def test_unknown_worker_stays_fatal(self):
        with pytest.raises(ConfigError, match="unknown cell worker"):
            run_cells([Cell((1,), "no_such_worker")])

    def test_worker_exception_exhausts_retries(self):
        """A cell is deterministic, so one attempt is all it gets: the
        exception becomes its failure at once."""
        cells = [Cell((0,), "sup_square", (0,)),
                 Cell((1,), "sup_raise_counted", (1,))]
        del _CALLS[:]
        report = run_cells(cells)
        assert _CALLS == [("sup_square", 0), ("sup_raise_counted", 1)]
        assert report.results == {(0,): {"v": 0.0}}
        err = report.failures[(1,)]
        assert isinstance(err, CellExecutionError)
        assert (err.key, err.worker) == ((1,), "sup_raise_counted")
        assert "boom 1" in err.detail and "RuntimeError" in err.detail
        assert report.stats.failed == 1 and report.stats.ok == 1

    def test_default_policy_wraps_cell_exceptions(self):
        # The worker's own exception becomes a structured error on the
        # report; the sweep does not raise it.
        report = run_cells([Cell((0,), "sup_square", (0,)),
                            Cell((1,), "sup_raise", (1,))])
        err = report.failures[(1,)]
        assert isinstance(err, CellExecutionError)
        assert err.key == (1,) and err.worker == "sup_raise"
        assert str(err).startswith("cell (1,) [sup_raise] failed\n")

    def test_repro_errors_never_retried(self):
        # A simulation error is a per-cell failure, not a fatal one (only
        # ConfigError is fatal), on a pool as inline.
        cells = [Cell((1,), "sup_raise_repro", (1,)),
                 Cell((2,), "sup_square", (2,))]
        for jobs in (1, 2):
            report = run_cells(cells, jobs=jobs)
            assert list(report.failures) == [(1,)]
            assert "SimulationError" in report.failures[(1,)].detail
            assert report.results == {(2,): {"v": 4.0}}

    def test_broken_pool_degrades_to_serial(self, tmp_path):
        marker = str(tmp_path / "died")
        cells = [Cell((i,), "sup_die_once", (i, marker)) for i in range(4)]
        report = run_cells(cells, jobs=2)
        assert not report.failures
        assert report.results == {(i,): {"v": float(i * 3)} for i in range(4)}
        assert report.stats.degraded >= 1
        assert os.path.exists(marker)

    def test_chaos_kill_env_hook(self, tmp_path, monkeypatch):
        marker = tmp_path / "chaos"
        monkeypatch.setenv("REPRO_CHAOS_KILL", str(marker))
        cells = [Cell((i,), "sup_square", (i,)) for i in range(4)]
        report = run_cells(cells, jobs=2)
        assert report.results == {(i,): {"v": float(i * i)} for i in range(4)}
        assert not report.failures
        assert report.stats.degraded >= 1
        assert marker.exists()

    def test_chaos_kill_demotes_only_cells_the_pool_took(
        self, tmp_path, monkeypatch, pool_sizes
    ):
        # One dead worker must not serialise the sweep: only the first
        # jobs + 1 unfinished cells can have been taken by the dead
        # pool, so only they run inline; the rest go to one fresh pool.
        monkeypatch.setenv("REPRO_CHAOS_KILL", str(tmp_path / "chaos"))
        cells = [Cell((i,), "sup_slow_square", (i,)) for i in range(12)]
        report = run_cells(cells, jobs=2)
        assert report.results == {(i,): {"v": float(i * i)} for i in range(12)}
        assert not report.failures
        assert 1 <= report.stats.degraded <= 3
        assert pool_sizes == [2, 2]

    def test_default_policy_degrades_broken_pool(self):
        # Degradation is not opt-in: a plain run_cells whose every pool
        # worker dies still completes, inline.
        cells = [Cell((i,), "sup_die_always", (i,)) for i in range(2)]
        assert run_cells(cells, jobs=2).results == {(0,): {"v": 0.0}, (1,): {"v": 1.0}}

    def test_keyboard_interrupt_tears_down_the_pool(self, tmp_path,
                                                    monkeypatch):
        from repro.harness import supervisor

        workers = []
        real_kill = supervisor._kill_pool

        def recording_kill(pool):
            workers.extend(pool._processes or {})  # worker pids
            real_kill(pool)

        monkeypatch.setattr(supervisor, "_kill_pool", recording_kill)
        markers = tmp_path / "markers"
        markers.mkdir()
        cells = [Cell((i,), "sup_interrupt", (i, str(markers))) for i in range(4)]
        with pytest.raises(KeyboardInterrupt):
            run_cells(cells, jobs=2)
        assert len(workers) == 2, "the sweep's pool must be torn down hard"
        # No pool worker outlives the interrupted sweep: each one was
        # terminated and reaped.
        for pid in workers:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_keyboard_interrupt_never_retried(self, jobs, tmp_path,
                                              monkeypatch, capsys):
        """Ctrl-C in a cell propagates at once: the cell runs once,
        nothing is recorded, the batch stops."""
        from repro.cli import main

        markers = tmp_path / "markers"
        markers.mkdir()
        _declare(monkeypatch, "intex",
                 [Cell((0,), "sup_interrupt", (0, str(markers)))]
                 + [Cell((i,), "sup_square", (i,)) for i in (1, 2)])
        with pytest.raises(KeyboardInterrupt):
            main(["run", "intex", "tab1", "--jobs", str(jobs)])
        assert len(list(markers.glob("cell0-*"))) == 1
        err = capsys.readouterr().err
        assert "[running] tab1" not in err  # the sweep did not go on

# ---------------------------------------------------------------------------
# Resume: re-running against the same store
# ---------------------------------------------------------------------------

class TestResume:
    def test_interrupted_then_resumed_is_byte_identical(self, tmp_path,
                                                         fake_fingerprints):
        arm = tmp_path / "armed"
        root = tmp_path / "store"
        n, k = 6, 3
        cells = [Cell((i,), "sup_flaky", (i, k, str(arm))) for i in range(n)]

        clean = run_cells(cells)
        assert len(clean.results) == n

        # "Kill" the sweep after k cells: arm the failure, run stored.
        arm.touch()
        store = CellStore(root)
        interrupted = run_cells(cells, Run(store=store))
        assert len(interrupted.results) == k
        assert len(interrupted.failures) == n - k
        assert all(
            "flaky cell" in err.detail for err in interrupted.failures.values()
        )

        # Resume: only the n-k missing cells re-execute.
        arm.unlink()
        del _CALLS[:]
        store = CellStore(root)
        resumed = run_cells(cells, Run(store=store))
        assert store.hits == k and store.published == n - k
        assert [x for _, x in _CALLS] == list(range(k, n))
        assert not resumed.failures
        assert repr(resumed.results) == repr(clean.results)

    def test_payload_hash_mismatch_forces_re_execution(self, tmp_path,
                                                       fake_fingerprints):
        root = tmp_path / "store"
        store = CellStore(root)
        run_cells([Cell((2,), "sup_square", (2,))], Run(store=store))
        [shard] = store.shard_files()
        rec = json.loads(shard.read_text())
        rec["hash"] = "00" * 16
        rec["result"] = {"v": -1.0}
        shard.write_text(json.dumps(rec) + "\n")
        del _CALLS[:]
        store = CellStore(root)
        report = run_cells([Cell((2,), "sup_square", (2,))], Run(store=store))
        # The tampered record must not be trusted: the cell re-runs.
        assert store.hits == 0 and _CALLS == [("sup_square", 2)]
        assert report.results[(2,)] == {"v": 4.0}

    def test_identical_keys_in_different_sweeps_do_not_collide(
        self, tmp_path, fake_fingerprints
    ):
        # fig1 and fig2 both key their cells by platform name: the store
        # is content-addressed, so equal keys with different payloads
        # never serve each other.
        store = CellStore(tmp_path / "store")
        a = run_cells([Cell(("Vayu",), "sup_square", (3,))], Run(store=store))
        b = run_cells([Cell(("Vayu",), "sup_square", (4,))], Run(store=store))
        assert a.results == {("Vayu",): {"v": 9.0}}
        assert b.results == {("Vayu",): {"v": 16.0}}
        assert store.hits == 0 and store.published == 2

    def test_torn_final_record_tolerated(self, tmp_path, fake_fingerprints):
        # A run killed mid-publish leaves a torn last line; the re-run
        # serves every complete record and re-executes nothing else.
        root = tmp_path / "store"
        cells = [Cell((i,), "sup_square", (i,)) for i in range(4)]
        store = CellStore(root)
        clean = run_cells(cells, Run(store=store))
        shard = store.shard_files()[0]
        with open(shard, "a") as fh:
            fh.write('{"v": 1, "k": "')  # killed mid-write
        del _CALLS[:]
        store = CellStore(root)
        resumed = run_cells(cells, Run(store=store))
        assert _CALLS == [] and store.hits == 4
        assert resumed.results == clean.results

    def test_corrupt_middle_record_skipped_not_fatal(self, tmp_path,
                                                     fake_fingerprints,
                                                     monkeypatch):
        # A garbled record loses only that cell: the re-run serves the
        # cells around it and re-simulates just the damaged one.
        import repro.harness.cellstore as cellstore

        monkeypatch.setattr(cellstore, "SHARD_WIDTH", 0)  # one shard
        root = tmp_path / "store"
        cells = [Cell((i,), "sup_square", (i,)) for i in range(3)]
        store = CellStore(root)
        clean = run_cells(cells, Run(store=store))
        [shard] = store.shard_files()
        lines = shard.read_text().splitlines()
        assert len(lines) == 3
        lines[1] = "not json"  # cell 1's record, published second
        shard.write_text("\n".join(lines) + "\n")
        del _CALLS[:]
        store = CellStore(root)
        resumed = run_cells(cells, Run(store=store))
        assert _CALLS == [("sup_square", 1)]
        assert store.hits == 2
        assert resumed.results == clean.results

    def test_malformed_record_skipped_with_reason(self, tmp_path,
                                                  fake_fingerprints):
        # A parseable record missing a field is never served, and verify
        # names the reason.
        root = tmp_path / "store"
        store = CellStore(root)
        run_cells([Cell((1,), "sup_square", (1,))], Run(store=store))
        [shard] = store.shard_files()
        rec = json.loads(shard.read_text())
        del rec["result"]
        shard.write_text(json.dumps(rec) + "\n")
        report = CellStore(root).verify()
        assert not report.clean
        assert "missing field 'result'" in report.render()
        del _CALLS[:]
        store = CellStore(root)
        assert run_cells([Cell((1,), "sup_square", (1,))], Run(store=store)).results == {
            (1,): {"v": 1.0}
        }
        assert _CALLS == [("sup_square", 1)]


# ---------------------------------------------------------------------------
# Twins: each distinct payload simulated once per sweep
# ---------------------------------------------------------------------------

class TestTwins:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_shared_payloads_execute_once_per_sweep(self, tmp_path, jobs):
        tally = str(tmp_path)
        cells = [Cell(("a", i), "sup_tally", (i, tally)) for i in range(4)]
        cells += [Cell(("b", i), "sup_tally", (i, tally)) for i in range(2, 6)]
        cells.append(Cell(("a", "twin"), "sup_tally", (0, tally)))
        run = Run(RunConfig(jobs=jobs))
        out = run_cells(cells, run).results
        assert _tally(tally) == {repr(i): 1 for i in range(6)}
        assert out[("a", "twin")] == out[("a", 0)]
        assert out[("b", 3)] == out[("a", 3)]
        assert list(out) == [c.key for c in cells]
        assert run.stats.ok == 9
        # A second sweep executes its cells again and gets the same results.
        assert run_cells(cells, jobs=jobs).results == out
        assert _tally(tally) == {repr(i): 2 for i in range(6)}

    def test_typed_payloads_are_distinct(self, tmp_path):
        tally = str(tmp_path)
        cells = [Cell((x,), "sup_tally", (v, tally))
                 for x, v in (("int", 1), ("float", 1.0), ("bool", True))]
        out = run_cells(cells, jobs=1).results
        assert _tally(tally) == {"1": 1, "1.0": 1, "True": 1}
        assert [r["type"] for r in out.values()] == ["int", "float", "bool"]


def test_tab3_and_fig7_read_fig6_runs_and_keep_their_golden_digests():
    """Table III and Fig 7 are IPM views of Fig 6's 32-core UM runs: in
    one batch their cells are twins of fig6's, so the batch simulates
    only Fig 6's distinct payloads (11 of its 12 quick cells: EC2 and
    EC2-4 share the 64-core run), and all three blocks still render the
    digests the end-to-end benchmark pins for a seed-1 run."""
    from repro.harness.experiments import CELLS
    from repro.harness.runner import run_batch

    expected = json.loads(
        (pathlib.Path(__file__).resolve().parents[1]
         / "benchmarks" / "e2e" / "expected.json").read_text(encoding="utf-8")
    )
    assert expected["seed"] == 1
    calls: list[tuple] = []
    real_execute = parallel._execute

    def _counting(cell):
        calls.append((cell.worker, cell.args))
        return real_execute(cell)

    parallel._execute = _counting
    try:
        batch = run_batch(["fig6", "tab3", "fig7"], seed=1)
    finally:
        parallel._execute = real_execute
    fig6 = list(dict.fromkeys(
        (c.worker, c.args) for c in CELLS["fig6"](RunConfig(seed=1))
    ))
    assert len(fig6) == 11
    assert calls == fig6
    for eid in ("fig6", "tab3", "fig7"):
        digest = hashlib.sha256(batch.outputs[eid].render().encode("utf-8"))
        assert digest.hexdigest() == expected["digests"]["quick"][eid], eid


# ---------------------------------------------------------------------------
# Batch-level integration: run_batch, FAILED rendering, exit codes
# ---------------------------------------------------------------------------

def _experiment_ids():
    from repro.harness.experiments import EXPERIMENTS

    return sorted(EXPERIMENTS)


@pytest.mark.parametrize("experiment_id", _experiment_ids())
def test_supervised_experiment_byte_identical(experiment_id, tmp_path):
    """Acceptance: every registered experiment rendered with a store is
    byte-identical to a plain run, and neither prints a harness banner."""
    from repro.harness.runner import run_batch

    plain = run_batch([experiment_id], quick=True, seed=2)
    supervised = run_batch(
        [experiment_id], quick=True, seed=2, store=tmp_path / "store",
    )
    assert supervised.render() == plain.render()
    assert not supervised.failures
    assert supervised.harness_summary is None
    assert plain.harness_summary is None


def test_batch_resume_from_store_skips_completed_cells(tmp_path):
    """Re-running a completed batch against its store re-executes no
    sweep cells and renders byte-identically."""
    from repro.harness.runner import run_batch

    root = tmp_path / "store"
    plain = run_batch(["fig1", "tab3"], quick=True, seed=2)
    first = run_batch(["fig1", "tab3"], quick=True, seed=2, store=root)
    assert first.render() == plain.render()

    calls: list[tuple] = []
    real_execute = parallel._execute

    def _poisoned(cell):
        calls.append(cell.key)
        return real_execute(cell)

    parallel._execute = _poisoned
    try:
        resumed = run_batch(["fig1", "tab3"], quick=True, seed=2, store=root)
    finally:
        parallel._execute = real_execute
    assert calls == []  # every cell came from the store
    assert resumed.render() == plain.render()
    assert "0 executed, 0 published" in resumed.store_summary


def test_batch_runs_on_one_pool_with_one_store_plan(monkeypatch, tmp_path,
                                                   pool_sizes):
    """A batch plans every declared cell up front: one store plan and
    one process pool for all of its experiments, not one per sweep."""
    from repro.harness.runner import run_batch

    plans: list[int] = []
    real_plan = CellStore.plan_cells

    def _counting_plan(store, cells):
        plans.append(len(cells))
        return real_plan(store, cells)

    monkeypatch.setattr(CellStore, "plan_cells", _counting_plan)
    ids = ["fig1", "fig2", "fig4", "tab2"]
    batch = run_batch(ids, jobs=2, seed=1, store=tmp_path / "store")
    assert pool_sizes == [2]
    assert len(plans) == 1
    assert batch.render() == run_batch(ids, seed=1).render()


@pytest.mark.parametrize("ids", [["tab1"], ["fig1"], ["tab1", "fig1", "fig2", "fig3"]])
def test_batch_is_one_sweep(monkeypatch, ids):
    """A batch calls the sweep driver once, whatever experiments it is
    given, and through the name the end-to-end tracer wraps
    (``experiments.run_cells``): no renderer sweeps."""
    from repro.harness import experiments
    from repro.harness.runner import run_batch

    sweeps: list[int] = []
    real = experiments.run_cells

    def _counting(cells, *a, **k):
        sweeps.append(len(cells))
        return real(cells, *a, **k)

    monkeypatch.setattr(experiments, "run_cells", _counting)
    batch = run_batch(ids, seed=1)
    declared = sum(len(experiments.CELLS[eid](RunConfig(seed=1)))
                   for eid in ids if eid in experiments.CELLS)
    assert sweeps == [declared]
    assert list(batch.outputs) == ids and not batch.failures


def _declare(monkeypatch, eid, cells):
    """Register a test experiment that declares ``cells`` and renders
    their results."""
    from repro.harness.experiments import CELLS, EXPERIMENTS, ExperimentOutput

    def _experiment(config, points):
        return ExperimentOutput(eid, "declared", {}, str(points))

    monkeypatch.setitem(CELLS, eid, lambda config: list(cells))
    monkeypatch.setitem(EXPERIMENTS, eid, _experiment)


def test_batch_attempts_a_shared_failing_payload_once(monkeypatch):
    """Two declared experiments share a failing payload: the batch
    attempts it once, and both render the same failure under their own
    cell keys."""
    from repro.harness.runner import run_batch

    _declare(monkeypatch, "failA", [Cell((0,), "sup_square", (4,)),
                                    Cell((1,), "sup_raise_counted", (5,))])
    _declare(monkeypatch, "failB", [Cell(("b",), "sup_raise_counted", (5,))])
    _declare(monkeypatch, "okC", [Cell((0,), "sup_square", (4,))])
    _CALLS.clear()
    batch = run_batch(["failA", "failB", "okC"])
    assert _CALLS.count(("sup_raise_counted", 5)) == 1
    assert _CALLS.count(("sup_square", 4)) == 1
    a, b = batch.failures["failA"], batch.failures["failB"]
    assert (a.key, b.key) == ((1,), ("b",))
    assert (a.worker, a.detail) == (b.worker, b.detail)
    assert "boom 5" in a.detail
    for eid in ("failA", "failB"):
        assert batch.outputs[eid].title == "FAILED(worker-exception)"
    assert batch.outputs["okC"].text == "{(0,): {'v': 16.0}}"
    assert batch.harness_summary == (
        "harness: 4 cell(s): 2 ok, 0 degraded, 2 failed"
    )


def test_batch_partial_failure_renders_and_continues(monkeypatch, capsys):
    """A failing experiment becomes FAILED(<cause>); the batch keeps
    running and the CLI exits 3."""
    from repro.cli import main

    _declare(monkeypatch, "failex", [Cell((1,), "sup_raise", (1,))])
    rc = main(["run", "failex", "tab1"])
    out = capsys.readouterr().out
    assert rc == 3
    assert "=== failex: FAILED(worker-exception) ===" in out
    assert "FAILED(worker-exception): cell (1,)" in out
    assert "tab1: Experimental platforms" in out  # batch kept going


@pytest.mark.parametrize("jobs", [1, 2])
def test_rank_exception_fails_its_cell(monkeypatch, jobs):
    """An exception raised inside a rank escapes the world and fails its
    cell, inline and in a pool alike: the experiment renders as
    FAILED(worker-exception), naming the exception."""
    from repro.harness.runner import run_batch

    _declare(monkeypatch, "rankex", [Cell((0,), "sup_square", (3,)),
                                     Cell((1,), "sup_rank_raise", (8,))])
    batch = run_batch(["rankex"], jobs=jobs)
    out = batch.outputs["rankex"]
    assert out.title == "FAILED(worker-exception)"
    assert out.text.startswith("FAILED(worker-exception): cell (1,)")
    assert "MpiError: rank 3 of 8 gave up" in out.data["error"]
    err = batch.failures["rankex"]
    assert (err.key, err.worker) == ((1,), "sup_rank_raise")
    assert "MpiError: rank 3 of 8 gave up" in err.detail


def test_cli_exit_codes_documented_in_help():
    from repro.cli import build_parser

    text = build_parser().format_help()
    assert "exit codes" in text
    assert "3 partial" in text and "1 fatal" in text
    assert "cells failed" in text


def test_harness_banner_follows_the_outcome(monkeypatch, tmp_path):
    """The ``harness:`` banner is printed when a cell degraded or failed,
    and a clean run prints none: a clean pooled batch has no banner, the
    same batch with a pool worker killed mid-sweep shows its degraded
    cells."""
    from repro.harness.runner import run_batch

    _declare(monkeypatch, "bannerex",
             [Cell((i,), "sup_slow_square", (i,)) for i in range(6)])
    clean = run_batch(["bannerex"], jobs=2)
    assert clean.harness_summary is None
    monkeypatch.setenv("REPRO_CHAOS_KILL", str(tmp_path / "chaos"))
    chaos = run_batch(["bannerex"], jobs=2)
    assert (tmp_path / "chaos").exists()
    assert chaos.render() == clean.render() and not chaos.failures
    assert re.fullmatch(
        r"harness: 6 cell\(s\): 6 ok, [1-3] degraded, 0 failed",
        chaos.harness_summary,
    )


# ---------------------------------------------------------------------------
# Format versions: FORMAT_VERSION keys the store, records carry their own
# ---------------------------------------------------------------------------

class TestJournalFormatV2:
    def test_records_carry_version_and_wide_hash(self, tmp_path,
                                                 fake_fingerprints):
        store = CellStore(tmp_path / "store")
        run_cells([Cell((3,), "sup_square", (3,))], Run(store=store))
        [shard] = store.shard_files()
        (rec,) = [json.loads(l) for l in shard.read_text().splitlines()]
        assert rec["v"] == STORE_VERSION
        assert len(rec["hash"]) == 32 and len(rec["k"]) == 64
        # The encoding version is hashed into every key; existing
        # stores keep their keys only while it stays 2.
        assert FORMAT_VERSION == 2

    def test_payload_hash_is_32_hex(self):
        digest = payload_hash("sup_square", (3,))
        assert len(digest) == 32
        int(digest, 16)  # hex

    def test_newer_version_skipped_with_reason(self, tmp_path,
                                               fake_fingerprints):
        self._check_version_skipped(
            tmp_path, STORE_VERSION + 1, "newer than supported"
        )

    def test_non_integer_version_skipped_with_reason(self, tmp_path,
                                                     fake_fingerprints):
        self._check_version_skipped(tmp_path, "two", "non-integer store version")

    @staticmethod
    def _check_version_skipped(tmp_path, version, reason):
        """A record of an unknown layout is re-simulated, never misread,
        and verify names why it is unusable."""
        root = tmp_path / "store"
        store = CellStore(root)
        run_cells([Cell((4,), "sup_square", (4,))], Run(store=store))
        [shard] = store.shard_files()
        rec = json.loads(shard.read_text())
        rec.update(v=version, result={"v": -1.0})
        shard.write_text(json.dumps(rec) + "\n")
        assert reason in CellStore(root).verify().render()
        del _CALLS[:]
        store = CellStore(root)
        report = run_cells([Cell((4,), "sup_square", (4,))], Run(store=store))
        assert store.hits == 0 and _CALLS == [("sup_square", 4)]
        assert report.results[(4,)] == {"v": 16.0}


class TestCodeFingerprintResume:
    """Resume is keyed by the package's source digest for its workers."""

    CELL = Cell((1,), "npb_point", ("cg", "Vayu", 2, 1, "S", None))

    def test_store_records_code_for_registered_worker(self, tmp_path):
        import pathlib

        import repro
        from repro.analysis.static import package_sources, sources_digest

        store = CellStore(tmp_path / "store")
        run_cells([self.CELL], Run(store=store))
        [shard] = store.shard_files()
        (rec,) = [json.loads(l) for l in shard.read_text().splitlines()]
        root = pathlib.Path(repro.__file__).parent
        assert rec["code"] == sources_digest(
            "repro", package_sources(root)
        )[:32]

    def test_matching_fingerprint_resumes_byte_identically(self, tmp_path):
        root = tmp_path / "store"
        store = CellStore(root)
        clean = run_cells([self.CELL], Run(store=store))
        store = CellStore(root)
        resumed = run_cells([self.CELL], Run(store=store))
        assert store.hits == 1 and store.published == 0
        assert repr(resumed.results) == repr(clean.results)

    def test_code_mismatch_forces_re_simulation(self, tmp_path, monkeypatch):
        import repro.analysis.static as static

        root = tmp_path / "store"
        store = CellStore(root)
        run_cells([self.CELL], Run(store=store))
        [shard] = CellStore(root).shard_files()
        rec = json.loads(shard.read_text())
        rec["result"] = {"projected_time": -1.0}
        shard.write_text(json.dumps(rec) + "\n")
        # The package's code has "changed": its source digest moves.
        static.worker_fingerprint("npb_point")
        monkeypatch.setattr(static, "_package_code", "0" * 32)
        store = CellStore(root)
        report = run_cells([self.CELL], Run(store=store))
        # The stale-code entry must not be trusted: the cell re-runs
        # and produces the genuine result.
        assert store.hits == 0
        assert report.results[self.CELL.key]["projected_time"] > 0
