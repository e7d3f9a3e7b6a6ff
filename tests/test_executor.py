"""Tests for the local cell executors (repro.harness.executor).

The contract under test is the tentpole invariant: every backend —
serial, per-cell pool futures, chunked dispatch — produces the same
``{key: result}`` mapping for the same cells, so reports are
byte-identical regardless of how cells were scheduled.  Plus the
lifecycle guarantees: spec-string parsing, scope activation and hard
teardown on interrupt.
"""

from __future__ import annotations

import json

import pytest

import repro.harness.executor as executor_mod
from repro.errors import ConfigError
from repro.harness.executor import (
    LocalPoolExecutor,
    SerialExecutor,
    active_executor,
    executor_scope,
    make_executor,
)
from repro.harness.parallel import Cell, cell_worker, run_cells


@cell_worker("ex_square")
def _ex_square(x):
    return {"v": float(x * x)}


@cell_worker("ex_boom")
def _ex_boom(x):
    if x == 3:
        raise ValueError(f"boom at {x}")
    return {"v": float(x)}


@cell_worker("ex_interrupt")
def _ex_interrupt(x):
    raise KeyboardInterrupt


def _cells(n, worker="ex_square"):
    return [Cell((i,), worker, (i,)) for i in range(n)]


# ---------------------------------------------------------------------------
# SerialExecutor
# ---------------------------------------------------------------------------

class TestSerial:
    def test_executes_at_submit(self):
        ex = SerialExecutor()
        fut = ex.submit(Cell((2,), "ex_square", (2,)))
        assert fut.done() and fut.result() == {"v": 4.0}
        assert ex.dispatched == 1 and not ex.parallel
        assert "1 cell(s) dispatched" in ex.banner()

    def test_captures_cell_exceptions(self):
        ex = SerialExecutor()
        fut = ex.submit(Cell((3,), "ex_boom", (3,)))
        assert isinstance(fut.exception(), ValueError)

    def test_lets_interrupts_fly(self):
        # A KeyboardInterrupt must reach the driving loop, not be
        # swallowed into a future nobody is checking yet.
        with pytest.raises(KeyboardInterrupt):
            SerialExecutor().submit(Cell((0,), "ex_interrupt", (0,)))


# ---------------------------------------------------------------------------
# LocalPoolExecutor (per-cell and chunked dispatch)
# ---------------------------------------------------------------------------

class TestLocalPool:
    def test_chunked_matches_per_cell(self):
        serial = run_cells(_cells(7), jobs=1)
        for chunk in (1, 3, "auto"):
            with executor_mod.LocalPoolExecutor(2, chunk=chunk) as ex:
                assert run_cells(_cells(7), executor=ex) == serial

    def test_error_in_chunk_hits_only_its_cell(self):
        # One raising cell must surface its own exception without
        # poisoning its chunk-mates.
        with LocalPoolExecutor(2, chunk=3) as ex:
            futures = ex.submit_many(_cells(7, worker="ex_boom"))
            for i, fut in enumerate(futures):
                if i == 3:
                    assert isinstance(fut.exception(), ValueError)
                else:
                    assert fut.result() == {"v": float(i)}

    def test_chunk_size_auto(self):
        ex = LocalPoolExecutor(2, chunk="auto")
        try:
            # ceil(n / (jobs * 4)), floored at 1, capped at AUTO_CHUNK_MAX.
            assert ex.chunk_size(4) == 1
            assert ex.chunk_size(40) == 5
            assert ex.chunk_size(600) == LocalPoolExecutor.AUTO_CHUNK_MAX
        finally:
            ex.shutdown()

    def test_rejects_bad_chunk(self):
        with pytest.raises(ConfigError, match="chunk must be"):
            LocalPoolExecutor(2, chunk=0)

    def test_pool_rebuilds_after_shutdown(self):
        ex = LocalPoolExecutor(1)
        try:
            assert ex.submit(Cell((2,), "ex_square", (2,))).result() == {"v": 4.0}
            ex.shutdown()
            assert ex.submit(Cell((3,), "ex_square", (3,))).result() == {"v": 9.0}
        finally:
            ex.shutdown(kill=True)


# ---------------------------------------------------------------------------
# run_cells teardown on interrupt (the dangling-pool satellite fix)
# ---------------------------------------------------------------------------

class TestInterruptTeardown:
    def test_keyboard_interrupt_tears_down_owned_pool(self, monkeypatch):
        monkeypatch.delenv("REPRO_SUPERVISE", raising=False)
        created = []

        class Recording(LocalPoolExecutor):
            def __init__(self, *a, **k):
                super().__init__(*a, **k)
                self.kills = []
                created.append(self)

            def shutdown(self, kill=False):
                self.kills.append(kill)
                super().shutdown(kill=kill)

        monkeypatch.setattr(executor_mod, "LocalPoolExecutor", Recording)
        with pytest.raises(KeyboardInterrupt):
            run_cells(_cells(4, worker="ex_interrupt"), jobs=2)
        [ex] = created
        assert True in ex.kills, "owned pool must be shut down hard"
        assert ex._pool is None, "no dangling ProcessPoolExecutor"

    def test_explicit_executor_survives_interrupt(self, monkeypatch):
        # A caller-owned backend is the caller's to shut down; run_cells
        # must cancel its futures but leave the transport usable.
        monkeypatch.delenv("REPRO_SUPERVISE", raising=False)
        with LocalPoolExecutor(2) as ex:
            with pytest.raises(KeyboardInterrupt):
                run_cells(_cells(4, worker="ex_interrupt"), executor=ex)
            assert run_cells(_cells(3), executor=ex) == run_cells(_cells(3))


# ---------------------------------------------------------------------------
# Scope activation
# ---------------------------------------------------------------------------

class TestScope:
    def test_scope_routes_run_cells(self, monkeypatch):
        monkeypatch.delenv("REPRO_SUPERVISE", raising=False)
        serial = run_cells(_cells(5), jobs=1)
        assert active_executor() is None
        with executor_scope("serial") as ex:
            assert active_executor() is ex
            assert run_cells(_cells(5), jobs=4) == serial
        assert active_executor() is None
        assert ex.dispatched == 5

    def test_scope_hard_teardown_on_error(self):
        created = []

        class Recording(SerialExecutor):
            def shutdown(self, kill=False):
                created.append(kill)
                super().shutdown(kill=kill)

        with pytest.raises(RuntimeError):
            with executor_scope(Recording()):
                raise RuntimeError("body blew up")
        assert created == [True]


# ---------------------------------------------------------------------------
# Spec grammar
# ---------------------------------------------------------------------------

class TestMakeExecutor:
    def test_kinds(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        assert isinstance(make_executor(""), SerialExecutor)
        pool = make_executor("pool", jobs=3)
        assert isinstance(pool, LocalPoolExecutor)
        assert pool.jobs == 3 and pool.chunk == 1
        assert make_executor("pool:chunk=8").chunk == 8
        assert make_executor("pool:chunk=auto").chunk == "auto"
        assert make_executor("chunked", jobs=2).chunk == "auto"

    @pytest.mark.parametrize("spec", [
        "bogus",
        "pool:chunk=x",
        "pool:frobnicate=1",
        "tcp:nonsense",
        "tcp:127.0.0.1:0,spawn=maybe",
        "tcp:127.0.0.1:0,mystery=1",
        "transient:",
        "tcp:127.0.0.1:0",
        "transient:pool",
    ])
    def test_bad_specs(self, spec):
        with pytest.raises(ConfigError) as info:
            make_executor(spec)
        if spec.partition(":")[0] in ("bogus", "tcp", "transient"):
            assert str(info.value).endswith(
                "expected serial | pool[:chunk=K] | chunked"
            )


# ---------------------------------------------------------------------------
# The dispatch-overhead microbenchmark (repro bench harness)
# ---------------------------------------------------------------------------

class TestHarnessBench:
    def test_rows_reuse_engine_bench_shape(self):
        from repro.perf.harnessbench import run_harness_bench

        rows = run_harness_bench(cells=40, jobs=2, modes=["serial", "chunked"])
        assert sorted(rows) == ["harness-chunked", "harness-serial"]
        for row in rows.values():
            assert row["events"] == 40 and row["events_per_sec"] > 0

    def test_speedup_recorded_and_checked(self):
        from repro.perf.harnessbench import check_speedup, run_harness_bench

        rows = {"harness-pool": {"events_per_sec": 100.0},
                "harness-chunked": {"events_per_sec": 500.0}}
        assert check_speedup(rows) == []
        rows["harness-chunked"]["events_per_sec"] = 110.0
        [message] = check_speedup(rows)
        assert "below the 1.3x floor" in message
        # And the live path records the measured ratio on the row.
        live = run_harness_bench(cells=60, jobs=2, modes=["pool", "chunked"])
        assert live["harness-chunked"]["speedup_vs_pool"] == pytest.approx(
            live["harness-chunked"]["events_per_sec"]
            / live["harness-pool"]["events_per_sec"]
        )

    def test_rejects_unknown_mode(self):
        from repro.perf.harnessbench import run_harness_bench, run_mode

        with pytest.raises(ConfigError, match="unknown harness bench mode"):
            run_harness_bench(cells=4, modes=["warp"])
        with pytest.raises(ConfigError, match="unknown harness bench mode"):
            run_mode("warp", 4, 1)

    def test_cli_writes_and_gates(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "BENCH_harness.json"
        assert main(["bench", "harness", "--cells", "40",
                     "--modes", "serial", "--out", str(out)]) == 0
        baseline = json.loads(out.read_text())
        assert "harness-serial" in baseline
        capsys.readouterr()
        # Same machine, generous tolerance: the gate passes against the
        # row we just wrote.
        assert main(["bench", "harness", "--cells", "40",
                     "--modes", "serial", "--out", "",
                     "--check", str(out), "--tolerance", "0.95"]) == 0
        assert "[ok]" in capsys.readouterr().err
