"""Tests for the analytic collective fast-forward (repro.perf.fastcollect).

Fast-forwarding is a pure optimization: every test either shows the
closed-form path producing *bit-identical* per-rank wake times, payloads
and IPM counters (against the per-operation path), or shows it falling
back cleanly with the reason recorded.
"""

import json

import numpy as np
import pytest

from repro.config import world_scope
from repro.errors import ConfigError, MpiError, SimulationError
from repro.harness.runner import run_batch
from repro.perf.fastcollect import (
    FastCollectReport,
    fastcollect_enabled,
)
from repro.perf.replay import deterministic_variant, perf_banner
from repro.platforms import VAYU, all_platforms, get_platform
from repro.platforms.base import Platform
from repro.sim.engine import Engine
from repro.smpi.collectives import algorithms as alg
from repro.smpi.collectives.vectorized import VECTORIZED
from repro.smpi.world import MpiWorld

QUIET = deterministic_variant(VAYU)

#: Message sizes straddling every model boundary on Vayu: the 2048-byte
#: allreduce doubling/ring switch and the 12288-byte eager/rendezvous
#: threshold, plus a large rendezvous size.
SIZES = (8.0, 2048.0, 2049.0, 12288.0, 12289.0, 262144.0)

#: Rank counts covering intra-node, boundary and multi-node (Vayu nodes
#: have 8 cores), including a non-power-of-two.
NPROCS = (2, 4, 7, 16)

#: name -> generator factory for one collective call carrying a payload.
COLLECTIVE_CALLS = {
    "barrier": lambda comm, n: comm.barrier(),
    "bcast": lambda comm, n: comm.bcast(n, value=("x", comm.size)),
    "reduce": lambda comm, n: comm.reduce(n, value=comm.rank + 1),
    "allreduce": lambda comm, n: comm.allreduce(n, value=comm.rank + 1),
    "gather": lambda comm, n: comm.gather(n, value=comm.rank),
    "allgather": lambda comm, n: comm.allgather(n, value=comm.rank * 2),
    "scatter": lambda comm, n: comm.scatter(
        n, values=list(range(comm.size)) if comm.rank == 0 else None
    ),
    "alltoall": lambda comm, n: comm.alltoall(
        n, values=[comm.rank * 100 + d for d in range(comm.size)]
    ),
    "alltoallv": lambda comm, n: comm.alltoallv(n),
    "reduce_scatter": lambda comm, n: comm.reduce_scatter(n, value=1.5),
    "scan": lambda comm, n: comm.scan(n, value=comm.rank + 1),
    "exscan": lambda comm, n: comm.exscan(n, value=comm.rank + 1),
}


def _sweep_program(comm, call):
    """Staggered arrivals, two calls per size (second hits every cache),
    with a region toggle to exercise the IPM bucket invalidation."""
    trace = []
    for nbytes in SIZES:
        yield from comm.compute(flops=1e5 * (comm.rank + 1))
        r1 = yield from call(comm, nbytes)
        trace.append((comm.wtime(), r1))
        with comm.region("again"):
            r2 = yield from call(comm, nbytes)
        trace.append((comm.wtime(), r2))
    return trace


def _run_sweep(name: str, nprocs: int, fastcollect: bool):
    world = MpiWorld(QUIET, nprocs, seed=11, replay=False, fastcollect=fastcollect)
    result = world.launch(_sweep_program, COLLECTIVE_CALLS[name])
    return world, result


@pytest.mark.usefixtures("fast_path_preconditions")
class TestEquivalence:
    """Closed-form completion == per-operation dispatch, bit for bit."""

    @pytest.mark.parametrize("name", sorted(COLLECTIVE_CALLS))
    def test_times_payloads_and_ipm_identical(self, name):
        for nprocs in NPROCS:
            slow_world, slow = _run_sweep(name, nprocs, False)
            fast_world, fast = _run_sweep(name, nprocs, True)
            assert fast.fastcollect is not None and fast.fastcollect.active
            assert fast.fastcollect.fast_ops == 2 * len(SIZES)
            # Exact float equality: same wake times and same payloads on
            # every rank, at every size, both calls.
            assert fast.rank_results == slow.rank_results, (name, nprocs)
            assert fast.wall_time == slow.wall_time
            for p_fast, p_slow in zip(
                fast_world.monitor.profiles, slow_world.monitor.profiles
            ):
                assert p_fast.snapshot() == p_slow.snapshot(), (name, nprocs)

    def test_value_free_calls_identical(self):
        """null_ok finisher skipping: value-free loops return None the
        same way the slow path's all-None finisher results do."""

        def program(comm):
            out = []
            for nbytes in (8.0, 4096.0):
                out.append((yield from comm.allreduce(nbytes)))
                out.append((yield from comm.bcast(nbytes)))
                out.append((yield from comm.reduce(nbytes)))
                out.append((yield from comm.alltoall(nbytes)))
                out.append((yield from comm.scan(nbytes)))
                out.append((yield from comm.exscan(nbytes)))
                out.append((yield from comm.scatter(nbytes)))
                out.append((yield from comm.reduce_scatter(nbytes)))
                out.append(comm.wtime())
            return out

        runs = {}
        for fc in (False, True):
            world = MpiWorld(QUIET, 4, seed=2, replay=False, fastcollect=fc)
            runs[fc] = world.launch(program)
        assert runs[True].rank_results == runs[False].rank_results
        assert all(
            v is None
            for rank in runs[True].rank_results
            for v in rank
            if not isinstance(v, float)
        )

    def test_split_and_subcomm_collectives(self):
        """comm_split takes the fast path and the sub-communicators it
        returns fast-forward with their own cached context."""

        def program(comm):
            sub = yield from comm.split(comm.rank % 2, key=comm.rank)
            total = yield from sub.allreduce(64, value=comm.rank)
            yield from sub.barrier()
            return (sub.size, sub.rank, total, comm.wtime())

        runs = {}
        for fc in (False, True):
            world = MpiWorld(QUIET, 8, seed=3, replay=False, fastcollect=fc)
            runs[fc] = world.launch(program)
        assert runs[True].rank_results == runs[False].rank_results
        report = runs[True].fastcollect
        # split + allreduce-per-half + barrier-per-half, all closed-form.
        assert report.fast_ops == 5 and report.slow_ops == 0

    def test_composite_without_memo_key_takes_slow_path(self):
        def program(comm):
            yield from comm.composite("wavefront", 512, lambda ctx, n: 1e-4 * n)
            return comm.wtime()

        runs = {}
        for fc in (False, True):
            world = MpiWorld(QUIET, 4, seed=5, replay=False, fastcollect=fc)
            runs[fc] = world.launch(program)
        assert runs[True].rank_results == runs[False].rank_results
        report = runs[True].fastcollect
        assert report.fast_ops == 0 and report.slow_ops == 1

    def test_collective_mismatch_detected(self):
        def program(comm):
            if comm.rank == 0:
                yield from comm.barrier()
            else:
                yield from comm.allreduce(8, value=1.0)

        world = MpiWorld(QUIET, 2, seed=1, replay=False, fastcollect=True)
        with pytest.raises(MpiError, match="in flight"):
            world.launch(program)


@pytest.mark.usefixtures("fast_path_preconditions")
class TestVectorized:
    """The numpy models are bit-exact mirrors of the scalar ones."""

    SCALARS = {
        "barrier": lambda ctx, n: alg.barrier_time(ctx),
        "bcast": alg.bcast_time,
        "reduce": alg.reduce_time,
        "allreduce": alg.allreduce_time,
        "allgather": alg.allgather_time,
        "reduce_scatter": alg.reduce_scatter_time,
        "alltoall": alg.alltoall_time,
        "gather": alg.gather_time,
        "scatter": alg.scatter_time,
    }

    def _contexts(self):
        ctxs = []
        for spec_name in ("vayu", "dcc", "ec2"):
            spec = deterministic_variant(get_platform(spec_name))
            for nprocs in (1, 4, 16):
                world = MpiWorld(spec, nprocs, seed=1, fastcollect=False)
                ctxs.append(world._collective_context(world.comm_world(0)))
        return ctxs

    def test_registry_matches_scalar_models(self):
        assert set(self.SCALARS) == set(VECTORIZED)
        sizes = np.array(
            [0.0, 1.0, 8.0, 2048.0, 2049.0, 4096.0, 12288.0, 12289.0,
             65536.0, 65537.0, 262144.0, 4194304.0],
            dtype=np.float64,
        )
        for ctx in self._contexts():
            for key, vec_fn in VECTORIZED.items():
                got = vec_fn(ctx, sizes)
                expected = [self.SCALARS[key](ctx, float(n)) for n in sizes]
                assert got.tolist() == expected, (key, ctx)

    def test_priming_is_byte_identical_and_idempotent(self):
        def program(comm, prime):
            if prime:
                first = comm.prime_collectives("allreduce", SIZES)
                again = comm.prime_collectives("allreduce", SIZES)
                assert again == 0, "re-priming the same sweep must be a no-op"
            else:
                first = comm.prime_collectives("allreduce", [])
            out = []
            for nbytes in SIZES:
                yield from comm.allreduce(nbytes, value=1.0)
                out.append(comm.wtime())
            return (first, out)

        world = MpiWorld(QUIET, 8, seed=4, replay=False, fastcollect=True)
        primed = world.launch(program, True)
        unprimed = MpiWorld(
            QUIET, 8, seed=4, replay=False, fastcollect=True
        ).launch(program, False)
        slow = MpiWorld(
            QUIET, 8, seed=4, replay=False, fastcollect=False
        ).launch(program, False)
        assert [r[1] for r in primed.rank_results] == [r[1] for r in slow.rank_results]
        assert [r[1] for r in primed.rank_results] == [
            r[1] for r in unprimed.rank_results
        ]
        assert primed.rank_results[0][0] == len(SIZES)

    def test_prime_rejects_unknown_op(self):
        def program(comm):
            comm.prime_collectives("warp", [8])
            yield from comm.barrier()

        world = MpiWorld(QUIET, 2, seed=1, replay=False, fastcollect=True)
        with pytest.raises(ConfigError, match="no vectorized cost model"):
            world.launch(program)

    def test_prime_is_noop_without_fastcollect(self):
        def program(comm):
            assert comm.prime_collectives("allreduce", SIZES) == 0
            yield from comm.barrier()

        MpiWorld(QUIET, 2, seed=1, replay=False, fastcollect=False).launch(program)
        # Inactive (stochastic platform): also a no-op, not an error.
        MpiWorld(
            get_platform("vayu"), 2, seed=1, replay=False, fastcollect=True
        ).launch(program)


@pytest.mark.usefixtures("fast_path_preconditions")
class TestFallback:
    @pytest.mark.parametrize("spec", all_platforms(), ids=lambda s: s.name)
    def test_registered_platforms_are_refused(self, spec):
        world = MpiWorld(spec, 4, seed=1, fastcollect=True)
        assert world.fastcollect is not None and not world.fastcollect.active
        assert world.fastcollect.reason
        assert "stochastic" in world.fastcollect.reason

    def test_sanitizer_forces_fallback(self):
        world = MpiWorld(QUIET, 4, seed=1, sanitize=True, fastcollect=True)
        assert not world.fastcollect.active
        assert "sanitizer" in world.fastcollect.reason

    def test_timeline_forces_fallback(self):
        world = MpiWorld(QUIET, 4, seed=1, timeline=True, fastcollect=True)
        assert not world.fastcollect.active
        assert "timeline" in world.fastcollect.reason

    def test_engine_tracer_forces_fallback(self):
        engine = Engine(seed=1, trace=True)
        world = MpiWorld(Platform(QUIET, engine), 4, fastcollect=True)
        assert not world.fastcollect.active
        assert "tracer" in world.fastcollect.reason

    def test_fallback_is_bitwise_inert(self):
        def program(comm):
            yield from comm.compute(flops=1e6)
            s = yield from comm.allreduce(8, value=comm.rank)
            return (s, comm.wtime())

        base = MpiWorld(get_platform("vayu"), 4, seed=3).launch(program)
        refused = MpiWorld(
            get_platform("vayu"), 4, seed=3, fastcollect=True
        ).launch(program)
        assert not refused.fastcollect.active
        assert refused.rank_results == base.rank_results
        assert refused.wall_time == base.wall_time

    def test_inactive_world_leaves_engine_unbatched(self):
        world = MpiWorld(get_platform("vayu"), 4, seed=1, fastcollect=True)
        assert not world.engine.batch_sleeps
        active = MpiWorld(QUIET, 4, seed=1, fastcollect=True)
        assert active.engine.batch_sleeps


@pytest.mark.usefixtures("fast_path_preconditions")
class TestBatchedDispatch:
    def test_sleep_coalescing_cuts_events_not_clocks(self):
        from repro.perf.enginebench import _collective_phases

        full_engine, full = _collective_phases(False)
        fast_engine, fast = _collective_phases(True)
        assert full_engine.dispatched / fast_engine.dispatched >= 3.0
        assert fast.wall_time == full.wall_time
        assert fast.rank_results == full.rank_results
        for p_fast, p_full in zip(
            fast.monitor.profiles, full.monitor.profiles
        ):
            assert p_fast.snapshot() == p_full.snapshot()

    def test_collective_event_counts(self):
        from repro.perf.enginebench import COLLECT_REPS, collective_event_counts

        counts = collective_event_counts()
        assert counts["events_ratio"] >= 3.0
        assert counts["fast_ops"] == COLLECT_REPS
        assert counts["slow_ops"] == 0
        assert counts["fast_events"] < counts["full_events"]


class TestScheduleAt:
    def test_value_delivered_at_absolute_time(self):
        eng = Engine(seed=0)
        ev = eng.event("x")
        ev.schedule_at(5.0, "payload")
        woke = []

        def waiter():
            value = yield ev
            woke.append((eng.now, value))

        eng.process(waiter(), name="w")
        eng.run()
        assert woke == [(5.0, "payload")]

    def test_past_is_rejected(self):
        eng = Engine(seed=0)

        def advance():
            yield 3.0

        eng.process(advance(), name="advance")
        eng.run()
        assert eng.now == 3.0
        with pytest.raises(SimulationError, match="in the past"):
            eng.event("x").schedule_at(1.0)

    def test_double_trigger_rejected(self):
        eng = Engine(seed=0)
        ev = eng.event("x")
        ev.schedule_at(1.0, "a")
        with pytest.raises(SimulationError, match="already triggered"):
            ev.schedule_at(2.0, "b")
        with pytest.raises(SimulationError, match="already triggered"):
            ev.succeed("c")


class TestScopeAndReporting:
    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FASTCOLLECT", raising=False)
        assert not fastcollect_enabled()
        monkeypatch.setenv("REPRO_FASTCOLLECT", "1")
        assert fastcollect_enabled()
        monkeypatch.setenv("REPRO_FASTCOLLECT", "0")
        assert not fastcollect_enabled()

    def test_scope_collects_reports(self, monkeypatch):
        monkeypatch.delenv("REPRO_FASTCOLLECT", raising=False)

        def program(comm):
            yield from comm.allreduce(8, value=1.0)

        # The fast path's precondition (no sanitizer) is installed here,
        # after the env change, so the scope below is the only thing
        # turning fastcollect on.
        with world_scope(sanitize=False, fastcollect=True) as reports:
            assert fastcollect_enabled()
            MpiWorld(QUIET, 2, seed=1, replay=False).launch(program)
        (report,) = reports.fastcollect
        assert report.active and report.fast_ops == 1
        assert not fastcollect_enabled()

    def test_report_summaries(self):
        assert "off (noise)" in FastCollectReport(False, "noise", 0, 0).summary()
        assert "no collectives" in FastCollectReport(True, None, 0, 0).summary()
        assert "3/4" in FastCollectReport(True, None, 3, 1).summary()

    def test_perf_banner_segments(self):
        active = FastCollectReport(True, None, 10, 2)
        idle = FastCollectReport(False, "stochastic noise model", 0, 0)
        banner = perf_banner(None, fastcollect=[active])
        assert banner.startswith("perf: ")
        assert "fastcollect 10/12 collectives fast-forwarded" in banner
        mixed = perf_banner(None, fastcollect=[active, idle])
        assert "1/2 world(s) fell back" in mixed
        assert "stochastic noise model" in perf_banner(None, fastcollect=[idle])
        assert "saw no worlds" in perf_banner(None, fastcollect=[])
        # The legacy replay-only call renders exactly as before.
        assert "fastcollect" not in perf_banner([])

    def test_cli_flags_parse(self):
        from repro.cli import build_parser

        parser = build_parser()
        assert parser.parse_args(["run", "fig3"]).fastcollect is None
        assert parser.parse_args(["run", "fig3", "--fastcollect"]).fastcollect is True
        assert (
            parser.parse_args(["run", "fig3", "--no-fastcollect"]).fastcollect is False
        )
        args = parser.parse_args(["bench", "engine", "--append-history"])
        assert args.append_history == "BENCH_history.jsonl"
        assert parser.parse_args(["bench", "engine"]).append_history is None
        assert parser.parse_args(
            ["bench", "engine", "--workloads", "collectives"]
        ).workloads == ["collectives"]


class TestBatchIntegration:
    def test_all_experiments_byte_identical(self, quick_report_digest):
        # Every registered experiment with the fast-forward on alone
        # renders the pinned seed-1 report; its banner goes to stderr
        # only.  The golden table runs it together with replay.
        digest, pinned = quick_report_digest
        on = run_batch(None, quick=True, seed=1,
                       fastcollect=True, replay=False, sanitize=False)
        assert on.perf_summary is not None and "fastcollect" in on.perf_summary
        assert "replay" not in on.perf_summary
        assert digest(on) == pinned


class TestBenchHistory:
    def test_append_history_round_trip(self, tmp_path):
        from repro.perf.enginebench import append_history

        rows = {
            "p2p": {"events_per_sec": 123.0, "events": 10.0},
            "collectives": {"events_per_sec": 456.0, "events": 20.0},
        }
        path = tmp_path / "hist.jsonl"
        first = append_history(rows, path, commit="abc1234")
        append_history(rows, path, commit="def5678")
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 4
        assert lines[0] == {
            "commit": "abc1234",
            "workload": "collectives",
            "events_per_sec": 456.0,
            "events": 20.0,
        }
        assert [r["workload"] for r in first] == ["collectives", "p2p"]
        assert {r["commit"] for r in lines[2:]} == {"def5678"}

    def test_committed_history_is_well_formed(self):
        import pathlib

        path = pathlib.Path(__file__).resolve().parents[1] / "BENCH_history.jsonl"
        records = [
            json.loads(line) for line in path.read_text().splitlines() if line
        ]
        assert records, "BENCH_history.jsonl must carry at least one entry"
        for record in records:
            assert {"commit", "workload", "events_per_sec", "events"} <= set(record)
            assert record["events_per_sec"] > 0
