"""End-to-end benchmark of the paper workload (``repro run all``).

Usage, from the root of a repository checkout::

    python benchmarks/e2e/run.py [--workload NAME ...] [--seed N] [--reps K]
        [--seconds S] [--trace 0|1] [--trace-out PATH]

Each repetition runs ``run_batch`` over every registered experiment in a
fresh interpreter (``child.py``), one child at a time, because that is
what every CLI user pays: the ``repro`` imports and a cold collective
memo on each run.  A workload runs at least ``--reps`` repetitions and
keeps adding them while another fits in ``--seconds``.  Every metric is
printed by name with its unit (median, quartiles, sample count); the
last stdout line is one JSON object ``{correct, attempted, failed,
metrics}``.  ``--trace 1`` adds one traced repetition and reports the
per-layer metrics instead of the end-to-end ones, and writes its spans
as a Chrome trace-event file (``--trace-out``, opens in Perfetto).

Times are reported at the reference host speed.  The host this runs on
is shared, and a neighbour on the same core slows it by up to 40%, on
and off within a second, which no number of repetitions averages out.
So each child times a fixed pure-Python loop (``child.probe``) every
50 ms, or for a pooled run on every CPU between experiments, and scales
the time around each probe by ``child.REF_PROBE_S`` over it (see
``child.Speedometer``).  Set-up samples are scaled by the probes taken
during their own set-up.  ``wall_s`` and ``cpu_s`` are the sum,
over the segments of a run (one per experiment, plus run_batch's set-up
and rendering), of each segment's median across the repetitions, so a
burst that slows one experiment in one repetition does not move them.
The raw medians are printed beside them.

Every report is checked: an experiment fails when its child crashes,
it renders ``FAILED(...)``, a comparison row is not finite, or its
rendered block's sha256 differs from the reference -- the digests pinned
in ``expected.json`` for seed 1, and for other seeds the workload's
first repetition (for ``store-warm``, the store's own cold fill).  The
exit code is 1 when any experiment failed.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import tempfile
import typing as _t

from tracer import now

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = ROOT / ".bench_build" / "e2e"
#: A workload's children are killed (with their pool workers) once it has
#: run this long, so one invocation ends well within three minutes.
WORKLOAD_TIMEOUT_S = 170.0
#: Extra children per workload that stop before ``run_batch``: set-up
#: time is sub-second and noisy, so its median gets more samples.
SETUP_CHILDREN = 7


@dataclasses.dataclass(frozen=True)
class Workload:
    full: bool
    jobs: int
    #: ``None`` (no store), ``"cold"`` (a fresh store every repetition) or
    #: ``"warm"`` (one store filled during set-up and read by every rep).
    store: str | None = None

    @property
    def workers(self) -> int:
        """Pool size: never more workers than CPUs."""
        return min(self.jobs, os.cpu_count() or 1)


WORKLOADS: dict[str, Workload] = {
    "quick-serial": Workload(full=False, jobs=1),
    "full-jobs2": Workload(full=True, jobs=2),
    "store-cold": Workload(full=False, jobs=1, store="cold"),
    "store-warm": Workload(full=False, jobs=1, store="warm"),
}

E2E_METRICS = ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")


def unit_of(name: str) -> str:
    """Unit of a metric, from its name's suffix."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_frac", "_rate")):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def segment_sum(reps: _t.Sequence[dict[str, _t.Any]], metric: str) -> float:
    """Sum over the segments of each one's median scaled time across ``reps``."""
    col = {"wall_s": 1, "cpu_s": 2}[metric]
    by_segment: dict[str, list[float]] = collections.defaultdict(list)
    for rep in reps:
        for row in rep["segments"]:
            by_segment[row[0]].append(row[col])
    return sum(statistics.median(times) for times in by_segment.values())


@dataclasses.dataclass
class WorkloadResult:
    name: str
    seed: int
    jobs: int
    grid: str
    #: Untraced repetitions (child results; ``{"error": ...}`` on a crash).
    reps: list[dict[str, _t.Any]]
    #: The traced repetition, when one was asked for.
    traced: dict[str, _t.Any] | None
    attempted: int
    #: ``"<rep>:<experiment>"`` for every experiment that failed its check.
    failures: list[str]
    elapsed_s: float
    #: The extra children that stop before ``run_batch`` (set-up samples).
    setup_children: list[dict[str, _t.Any]]

    def good(self) -> list[dict[str, _t.Any]]:
        return [r for r in self.reps if "error" not in r]

    def values(self, metric: str, *, raw: bool = False) -> list[float]:
        """One value per repetition (and set-up child, for ``setup_s``);
        ``raw``: times as measured, not scaled to the reference host."""
        key = f"raw_{metric}" if raw and unit_of(metric) == "s" else metric
        children = self.good() + (self.setup_children if metric == "setup_s" else [])
        return [c[key] for c in children]

    def e2e(self) -> dict[str, float]:
        return {
            "wall_s": segment_sum(self.good(), "wall_s"),
            "setup_s": statistics.median(self.values("setup_s")),
            "cpu_s": segment_sum(self.good(), "cpu_s"),
            "peak_rss_mb": statistics.median(self.values("peak_rss_mb")),
            "failed_frac": len(self.failures) / self.attempted,
        }

    def layers(self) -> dict[str, float]:
        """Per-layer metrics of the traced repetition (needs ``trace=True``)."""
        out = dict(self.traced["layers"])
        out["trace.overhead_frac"] = (
            segment_sum([self.traced], "wall_s") / self.e2e()["wall_s"] - 1.0
        )
        return out


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run_child(
    w: Workload,
    seed: int,
    experiments: _t.Sequence[str] | None,
    deadline: float,
    *,
    store: pathlib.Path | None = None,
    spool: pathlib.Path | None = None,
    trace_out: pathlib.Path | None = None,
    setup_only: bool = False,
) -> dict[str, _t.Any]:
    """One repetition in a fresh interpreter, killed at ``deadline`` (a
    :func:`now` instant); adds ``setup_s`` to its result."""
    cmd = [sys.executable, str(HERE / "child.py"), "--seed", str(seed),
           "--jobs", str(w.workers)]
    if setup_only:
        cmd.append("--setup-only")
    if w.full:
        cmd.append("--full")
    if experiments:
        cmd += ["--experiments", ",".join(experiments)]
    if store is not None:
        cmd += ["--store", str(store)]
    if spool is not None:
        cmd += ["--spool", str(spool)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    # The run must not pick up a store, fault schedule or fast path from
    # the caller's environment.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["TMPDIR"] = str(WORK)  # keep any temporary file inside the checkout
    # Imports load cached bytecode, as an installed CLI's do, whatever the
    # caller's environment says; the cache stays inside the checkout.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    # One BLAS thread per process: the simulation is pure Python and the
    # pool is its parallelism.  Otherwise OpenBLAS threads started by the
    # numpy import spin on the CPU the run needs, and set-up time jumps
    # between two levels with whether the other CPU happens to be free.
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    spawned = now()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"killed after the workload ran {WORKLOAD_TIMEOUT_S:.0f} s"}
    finally:
        # Pool workers left behind by a crashed child share its group.
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"error": tail[0]}
    result = json.loads(out.strip().splitlines()[-1])
    result["raw_setup_s"] = result["entered"] - spawned - result["setup_probe_s"]
    result["setup_s"] = result["raw_setup_s"] * result["setup_speed"]
    return result


def check(rep: dict[str, _t.Any], reference: dict[str, str],
          rows: dict[str, int], ids: _t.Sequence[str]) -> list[str]:
    """Experiments of one repetition whose report is not correct."""
    if "error" in rep:
        return list(ids)
    bad = set(rep["failed"]) | set(rep["nonfinite"])
    bad.update(
        eid for eid in ids
        if rep["digests"].get(eid) != reference.get(eid)
        or rep["rows"].get(eid) != rows[eid]
    )
    return sorted(bad)


def run_workload(
    name: str,
    *,
    seed: int = 1,
    reps: int = 2,
    seconds: float = 0.0,
    trace: bool = False,
    trace_out: pathlib.Path | None = None,
    experiments: _t.Sequence[str] | None = None,
) -> WorkloadResult:
    """Run one workload; ``experiments`` restricts it to a subset (tests)."""
    w = WORKLOADS[name]
    grid = "full" if w.full else "quick"
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    ids = list(experiments or expected["digests"][grid])
    rows = expected["rows"][grid]
    reference = expected["digests"][grid] if seed == expected["seed"] else None
    attempted = 0
    failures: list[str] = []

    def record(rep: dict[str, _t.Any], label: str) -> dict[str, _t.Any]:
        nonlocal reference, attempted
        if reference is None and "error" not in rep:
            reference = rep["digests"]
        attempted += len(ids)
        failures.extend(f"{label}:{eid}" for eid in check(rep, reference or {}, rows, ids))
        return rep

    deadline = now() + WORKLOAD_TIMEOUT_S
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=WORK) as tmp:
        scratch = pathlib.Path(tmp)
        warm = scratch / "warm-store" if w.store == "warm" else None

        def child(**kw: _t.Any) -> dict[str, _t.Any]:
            if w.store == "cold":
                kw["store"] = pathlib.Path(tempfile.mkdtemp(prefix="store-", dir=scratch))
            elif warm is not None:
                kw["store"] = warm
            return run_child(w, seed, experiments, deadline, **kw)

        # Set-up: fill the bytecode cache (only the first run in a checkout
        # compiles anything) and the warm store.
        child(setup_only=True)
        if warm is not None:
            record(child(), "fill")
        results: list[dict[str, _t.Any]] = []
        durations: list[float] = []
        start = now()
        while len(results) < reps or (
            now() - start + statistics.median(durations) <= seconds
        ):
            t0 = now()
            results.append(record(child(), f"rep{len(results) + 1}"))
            durations.append(now() - t0)
        elapsed = now() - start
        setups = [child(setup_only=True) for _ in range(SETUP_CHILDREN)]
        traced = None
        if trace:
            traced = record(child(spool=scratch / "spool.jsonl", trace_out=trace_out),
                            "traced")
    return WorkloadResult(
        name=name, seed=seed, jobs=w.workers, grid=grid,
        reps=results, traced=traced, attempted=attempted,
        failures=failures, elapsed_s=elapsed,
        setup_children=[s for s in setups if "error" not in s],
    )


def metric_lines(res: WorkloadResult) -> list[str]:
    """Human-readable report: every metric by name with its unit."""
    lines = [
        f"# {res.name}: seed {res.seed}, jobs {res.jobs}, {res.grid} grids, "
        f"{len(res.reps)} rep(s) in {res.elapsed_s:.1f} s"
    ]
    if res.reps and res.reps[-1].get("store"):
        lines.append(f"#   {res.reps[-1]['store']}")
    for metric, value in res.e2e().items():
        line = f"{res.name:<13} {metric:<28} {value:>14.6g} {unit_of(metric):<6}"
        if metric in E2E_METRICS:
            values = res.values(metric)
            q1, q3 = _quartiles(values)
            raw = statistics.median(res.values(metric, raw=True))
            line += f" q1 {q1:.6g} q3 {q3:.6g} n={len(values)} raw {raw:.6g}"
        lines.append(line)
    speeds = [r["wall_s"] / r["raw_wall_s"] for r in res.good()]
    lines.append(f"#   host speed: {statistics.median(speeds):.3f} of the reference "
                 f"(repetitions from {min(speeds):.3f} to {max(speeds):.3f})")
    if res.traced is not None and "layers" in res.traced:
        for metric, value in res.layers().items():
            lines.append(f"{res.name:<13} {metric:<28} {value:>14.6g} {unit_of(metric):<6} traced")
    lines.extend(f"#   FAILED {f}" for f in res.failures)
    return lines


def result_json(results: _t.Sequence[WorkloadResult], trace: bool) -> dict[str, _t.Any]:
    """The machine-readable last line: end-to-end or (traced) per-layer metrics."""
    metrics: dict[str, dict[str, _t.Any]] = {}
    for res in results:
        prefix = f"{res.name}." if len(results) > 1 else ""
        values = res.layers() if trace else {
            m: v for m, v in res.e2e().items() if m in E2E_METRICS
        }
        for metric, value in values.items():
            metrics[prefix + metric] = {"value": value, "unit": unit_of(metric)}
    failed = sum(len(r.failures) for r in results)
    return {
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in results),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: _t.Sequence[str] | None = None,
         experiments: _t.Sequence[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                    help="workload to run (repeatable; default: all four)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--reps", type=int, default=2,
                    help="minimum repetitions per workload (default 2)")
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="keep adding repetitions while one more fits in this budget")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: add a traced repetition and report per-layer metrics")
    ap.add_argument("--trace-out", type=pathlib.Path, default=None,
                    help="Chrome trace file of the traced repetition "
                         "(default: .bench_build/e2e/<workload>-seed<N>.trace.json)")
    args = ap.parse_args(argv)
    if args.reps < 1 or args.seconds < 0:
        ap.error("--reps must be >= 1 and --seconds >= 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2e: no repro sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOADS)
    if args.trace_out is not None and len(names) > 1:
        ap.error("--trace-out needs a single --workload")
    results = []
    for name in names:
        trace_out = args.trace_out or WORK / f"{name}-seed{args.seed}.trace.json"
        res = run_workload(name, seed=args.seed, reps=args.reps, seconds=args.seconds,
                           trace=bool(args.trace), trace_out=trace_out,
                           experiments=experiments)
        if not res.values("wall_s") or (res.traced is not None and "error" in res.traced):
            errors = [r["error"] for r in (*res.reps, res.traced or {}) if "error" in r]
            print(f"e2e: {name}: no metrics, repetitions crashed: {errors}",
                  file=sys.stderr)
            return 1
        results.append(res)
        print("\n".join(metric_lines(res)), flush=True)
        if args.trace:
            print(f"#   trace: {trace_out}", flush=True)
    summary = result_json(results, bool(args.trace))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
