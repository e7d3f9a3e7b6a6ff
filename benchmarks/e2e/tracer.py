"""Out-of-process span tracer for the end-to-end benchmark.

:meth:`Tracer.install` wraps public entry points of each ``repro`` layer
from the outside -- nothing under ``src/`` knows it is being traced.
Wrappers only observe: they read counters and the host clock and never
hand anything back to the simulation, which is why a traced run must
render the very same report digests as an untraced one (``run.py``
checks it).

Two kinds of wrapper:

* **spans** (run, experiment, sweep, cell, world launch, engine run,
  render) record ``(name, start, end, parent)`` plus a few counters in
  their ``args``.  There are at most a few thousand per run.
* **aggregates** (IPM ``record_mpi``, ``Platform.compute_seconds``,
  store calls, code fingerprinting) are called up to ~10^6 times, so
  they only add a call count and their time; that time is charged to
  the enclosing span as child time, which gives every span a self time.

Pool workers are forked after the wrappers are installed, so they
inherit them.  A worker appends one JSON line (its spans and counter
deltas) to the spool file after every cell it runs; :meth:`Tracer.finish`
merges those lines by pid with the parent's in-memory spans, derives the
per-layer metrics and writes a Chrome trace-event file.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import os
import time
import typing as _t


def now() -> float:
    """The benchmark's only clock: host monotonic seconds.

    ``CLOCK_MONOTONIC`` on Linux is system-wide, so readings taken in the
    benchmark runner, a child and its pool workers are directly comparable.
    """
    return time.monotonic()  # lint-ok: DET001 host-side benchmark timing


#: Top-level ``repro`` packages whose launched programs get their own
#: ``<app>.world_s`` metric.
APPS = ("apps.metum", "apps.chaste", "npb", "osu")


def _app_of(program: _t.Any) -> str:
    module = getattr(program, "__module__", "") or ""
    parts = module.split(".")[1:]
    for app in APPS:
        if parts[: app.count(".") + 1] == app.split("."):
            return app
    return "other"


class Tracer:
    """Spans and counters of one benchmark repetition (one process tree)."""

    def __init__(self, spool: str) -> None:
        self.spool = spool
        self.pid = os.getpid()
        self.worker = False
        #: Finished spans: ``[id, name, start, end, parent, self_s, args]``.
        self.spans: list[list[_t.Any]] = []
        #: Open spans: ``[id, start, child_s]``.
        self._stack: list[list[_t.Any]] = []
        self._parent_of_root: str | None = None
        self._seq = 0
        self.counts: collections.Counter[str] = collections.Counter()
        self.times: collections.defaultdict[str, float] = collections.defaultdict(float)
        self._memo0: _t.Any = None

    # -- recording ----------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str) -> _t.Iterator[dict[str, _t.Any]]:
        """Record one span; the yielded dict becomes its ``args``."""
        self._seq += 1
        sid = f"{os.getpid()}:{self._seq}"
        parent = self._stack[-1][0] if self._stack else self._parent_of_root
        frame = [sid, now(), 0.0]
        self._stack.append(frame)
        args: dict[str, _t.Any] = {}
        try:
            yield args
        finally:
            end = now()
            self._stack.pop()
            dur = end - frame[1]
            if self._stack:
                self._stack[-1][2] += dur
            self.spans.append([sid, name, frame[1], end, parent, dur - frame[2], args])

    def _aggregate(self, name: str, fn: _t.Callable[..., _t.Any]) -> _t.Callable[..., _t.Any]:
        counts, times, stack = self.counts, self.times, self._stack

        @functools.wraps(fn)
        def wrapper(*a: _t.Any, **k: _t.Any) -> _t.Any:
            t0 = now()
            try:
                return fn(*a, **k)
            finally:
                dt = now() - t0
                counts[name] += 1
                times[name] += dt
                if stack:
                    stack[-1][2] += dt

        return wrapper

    def _spanned(self, name: str, fn: _t.Callable[..., _t.Any]) -> _t.Callable[..., _t.Any]:
        @functools.wraps(fn)
        def wrapper(*a: _t.Any, **k: _t.Any) -> _t.Any:
            with self.span(name):
                return fn(*a, **k)

        return wrapper

    # -- pool workers -------------------------------------------------------
    def _after_fork(self) -> None:
        """In a freshly forked pool worker: drop the parent's state."""
        self.worker = True
        self._parent_of_root = self._stack[-1][0] if self._stack else None
        self._stack.clear()
        self.spans.clear()
        self.counts.clear()
        self.times.clear()

    def _cell(self, worker: str, fn: _t.Callable[..., _t.Any]) -> _t.Callable[..., _t.Any]:
        from repro.perf.memo import memo_stats

        @functools.wraps(fn)
        def wrapper(*a: _t.Any) -> _t.Any:
            m0 = memo_stats()
            try:
                with self.span(f"harness.cell.{worker}"):
                    return fn(*a)
            finally:
                if self.worker:
                    # The main process counts its own memo traffic once, in finish().
                    m1 = memo_stats()
                    self.counts["perf.memo_hits"] += m1.hits - m0.hits
                    self.counts["perf.memo_misses"] += m1.misses - m0.misses
                    self._flush()

        return wrapper

    def _flush(self) -> None:
        """Append this worker's spans and counters to the spool, then reset."""
        line = json.dumps({
            "pid": os.getpid(), "spans": self.spans,
            "counts": self.counts, "times": self.times,
        }) + "\n"
        fd = os.open(self.spool, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)
        self.spans.clear()
        self.counts.clear()
        self.times.clear()

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        """Wrap every traced entry point (before any pool is forked)."""
        from repro.analysis import static
        from repro.harness import experiments, parallel
        from repro.harness.cellstore import MISS, CellStore
        from repro.harness.runner import BatchResult
        from repro.ipm.monitor import RankProfile
        from repro.perf.memo import memo_stats
        from repro.platforms.base import Platform
        from repro.sim.engine import Engine
        from repro.smpi.world import MpiWorld

        os.register_at_fork(after_in_child=self._after_fork)
        self._memo0 = memo_stats()
        counts = self.counts

        for eid, fn in list(experiments.EXPERIMENTS.items()):
            experiments.EXPERIMENTS[eid] = self._spanned(f"harness.exp.{eid}", fn)
        for name, fn in list(parallel._WORKERS.items()):
            parallel._WORKERS[name] = self._cell(name, fn)

        run_cells = experiments.run_cells

        @functools.wraps(run_cells)
        def sweep(cells: _t.Sequence[_t.Any], *a: _t.Any, **k: _t.Any) -> _t.Any:
            with self.span("harness.sweep") as args:
                args["cells"] = len(cells)
                return run_cells(cells, *a, **k)

        experiments.run_cells = sweep
        BatchResult.render = self._spanned("harness.render", BatchResult.render)

        launch = MpiWorld.launch

        @functools.wraps(launch)
        def traced_launch(world: _t.Any, program: _t.Any, *a: _t.Any, **k: _t.Any) -> _t.Any:
            with self.span("smpi.launch") as args:
                args["app"] = _app_of(program)
                result = launch(world, program, *a, **k)
                totals = [p.total for p in world.monitor.profiles]
                args["mpi_calls"] = sum(t.mpi_calls for t in totals)
                args["mpi_bytes"] = sum(t.mpi_bytes() for t in totals)
                args["fastpath"] = bool(
                    (result.replay is not None and result.replay.replayed_iters)
                    or (result.fastcollect is not None and result.fastcollect.fast_ops)
                )
                return result

        MpiWorld.launch = traced_launch

        engine_run = Engine.run

        @functools.wraps(engine_run)
        def traced_run(engine: _t.Any, *a: _t.Any, **k: _t.Any) -> _t.Any:
            before = engine.dispatched
            with self.span("sim.run") as args:
                try:
                    return engine_run(engine, *a, **k)
                finally:
                    args["events"] = engine.dispatched - before

        Engine.run = traced_run
        RankProfile.record_mpi = self._aggregate("ipm.record_mpi", RankProfile.record_mpi)
        Platform.compute_seconds = self._aggregate(
            "platforms.compute", Platform.compute_seconds
        )
        static.worker_fingerprint = self._aggregate(
            "analysis.fingerprint", static.worker_fingerprint
        )

        plan_cells = self._aggregate("store.plan", CellStore.plan_cells)

        @functools.wraps(plan_cells)
        def traced_plan(store: _t.Any, cells: _t.Sequence[_t.Any]) -> _t.Any:
            plan = plan_cells(store, cells)
            counts["store.lookups"] += len(cells)
            counts["store.served"] += len(plan.served)
            return plan

        lookup = CellStore.lookup

        @functools.wraps(lookup)
        def traced_lookup(store: _t.Any, *a: _t.Any, **k: _t.Any) -> _t.Any:
            value = lookup(store, *a, **k)
            counts["store.lookups"] += 1
            counts["store.served"] += value is not MISS
            return value

        publish = self._aggregate("store.publish", CellStore.publish)

        @functools.wraps(publish)
        def traced_publish(store: _t.Any, *a: _t.Any, **k: _t.Any) -> _t.Any:
            ok = publish(store, *a, **k)
            counts["store.published"] += bool(ok)
            return ok

        await_peer = CellStore.await_peer

        @functools.wraps(await_peer)
        def traced_await(store: _t.Any, *a: _t.Any, **k: _t.Any) -> _t.Any:
            value = await_peer(store, *a, **k)
            counts["store.awaited"] += value is not MISS
            return value

        CellStore.plan_cells = traced_plan
        CellStore.lookup = traced_lookup
        CellStore.publish = traced_publish
        CellStore.await_peer = traced_await

    # -- results ------------------------------------------------------------
    def finish(self, jobs: int, experiment_ids: _t.Sequence[str],
               trace_out: str | None) -> dict[str, float]:
        """Merge worker spools, write the Chrome trace, return per-layer metrics."""
        from repro.perf.memo import memo_stats

        m1 = memo_stats()
        counts = collections.Counter(self.counts)
        times: collections.Counter[str] = collections.Counter(self.times)
        counts["perf.memo_hits"] += m1.hits - self._memo0.hits
        counts["perf.memo_misses"] += m1.misses - self._memo0.misses
        spans = [[*s, self.pid] for s in self.spans]
        if os.path.exists(self.spool):
            with open(self.spool, encoding="utf-8") as fh:
                for line in fh:
                    rec = json.loads(line)
                    spans.extend([*s, rec["pid"]] for s in rec["spans"])
                    counts.update(rec["counts"])
                    times.update(rec["times"])
            os.remove(self.spool)
        if trace_out:
            write_chrome_trace(spans, self.pid, trace_out)
        return layer_metrics(spans, counts, times, self.pid, jobs, experiment_ids)


def layer_metrics(
    spans: list[list[_t.Any]],
    counts: _t.Mapping[str, int],
    times: _t.Mapping[str, float],
    main_pid: int,
    jobs: int,
    experiment_ids: _t.Sequence[str],
) -> dict[str, float]:
    """Per-layer metrics from merged spans ``[id, name, start, end, parent,
    self_s, args, pid]`` and aggregate counters."""
    by_id = {s[0]: s for s in spans}

    def dur(s: list[_t.Any]) -> float:
        return s[3] - s[2]

    def named(name: str) -> list[list[_t.Any]]:
        return [s for s in spans if s[1] == name]

    def under_sweep(s: list[_t.Any]) -> bool:
        parent = by_id.get(s[4])
        while parent is not None:
            if parent[1] == "harness.sweep":
                return True
            parent = by_id.get(parent[4])
        return False

    sweeps = named("harness.sweep")
    launches = named("smpi.launch")
    runs = named("sim.run")
    sweep_s = sum(map(dur, sweeps))
    worker_cells = [s for s in spans if s[1].startswith("harness.cell.") and s[7] != main_pid]
    events = sum(s[6]["events"] for s in runs)
    engine_s = sum(map(dur, runs))
    hits, misses = counts["perf.memo_hits"], counts["perf.memo_misses"]

    m: dict[str, float] = {}
    for eid in experiment_ids:
        m[f"harness.exp.{eid}_s"] = sum(map(dur, named(f"harness.exp.{eid}")))
    m["harness.cells"] = sum(s[6]["cells"] for s in sweeps)
    m["harness.sweep_s"] = sweep_s
    m["harness.sweep_self_s"] = sweep_s - sum(
        dur(s) for s in launches if s[7] == main_pid and under_sweep(s)
    )
    m["harness.pool_busy_frac"] = (
        sum(map(dur, worker_cells)) / (jobs * sweep_s) if worker_cells else 0.0
    )
    m["harness.render_s"] = sum(map(dur, named("harness.render")))
    for key in ("lookups", "served", "published", "awaited"):
        m[f"harness.store_{key}"] = counts[f"store.{key}"]
    m["harness.store_plan_s"] = times["store.plan"]
    m["harness.store_publish_s"] = times["store.publish"]
    m["analysis.fingerprint_calls"] = counts["analysis.fingerprint"]
    m["analysis.fingerprint_s"] = times["analysis.fingerprint"]
    m["smpi.worlds"] = len(launches)
    m["smpi.launch_s"] = sum(map(dur, launches))
    m["smpi.mpi_calls"] = sum(s[6]["mpi_calls"] for s in launches)
    m["smpi.mpi_bytes"] = sum(s[6]["mpi_bytes"] for s in launches)
    m["sim.events"] = events
    m["sim.run_s"] = sum(s[5] for s in runs)
    m["sim.events_per_s"] = events / engine_s if engine_s else 0.0
    m["perf.memo_hits"] = hits
    m["perf.memo_misses"] = misses
    m["perf.memo_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    m["perf.fastpath_worlds"] = sum(bool(s[6]["fastpath"]) for s in launches)
    m["ipm.record_mpi_calls"] = counts["ipm.record_mpi"]
    m["ipm.record_mpi_s"] = times["ipm.record_mpi"]
    m["platforms.compute_calls"] = counts["platforms.compute"]
    m["platforms.compute_s"] = times["platforms.compute"]
    for app in APPS:
        m[f"{app}.world_s"] = sum(dur(s) for s in launches if s[6]["app"] == app)
    # ARRIVE-F simulates a job farm, not an MPI world: its cells are its worlds.
    m["arrivef.world_s"] = sum(map(dur, named("harness.cell.arrivef_point")))
    return m


def write_chrome_trace(spans: list[list[_t.Any]], main_pid: int, path: str) -> None:
    """Write spans as Chrome trace-event JSON (opens in Perfetto / about:tracing)."""
    t0 = min((s[2] for s in spans), default=0.0)
    events: list[dict[str, _t.Any]] = [
        {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
         "args": {"name": "main" if pid == main_pid else f"pool worker {pid}"}}
        for pid in sorted({s[7] for s in spans})
    ]
    events.extend(
        {
            "ph": "X", "name": name, "cat": name.split(".")[0],
            "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
            "pid": pid, "tid": 0,
            "args": {**args, "id": sid, "parent": parent, "self_s": self_s},
        }
        for sid, name, start, end, parent, self_s, args, pid in spans
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
