"""One repetition of the end-to-end benchmark, in a fresh interpreter.

``run.py`` starts one of these per repetition, with ``src`` on
``PYTHONPATH``, because every CLI user pays the ``repro`` imports and a
cold collective memo on every run::

    python benchmarks/e2e/child.py --seed 1 [--full] [--jobs 2]
        [--store DIR] [--experiments fig3,tab1] [--spool F --trace-out T]
        [--setup-only]

It prints one JSON object on its last stdout line: the monotonic instant
it entered ``run_batch`` (``run.py`` subtracts its own spawn instant to
get ``setup_s``) with the host speed during set-up, the wall and CPU time
of ``run_batch`` plus rendering, split into segments (one per
experiment, plus run_batch's own set-up and rendering), peak RSS, the
sha256 of every experiment's rendered block and of the whole report,
the comparison-row counts, and -- with ``--spool`` -- the per-layer
metrics of a traced run.  The same command run by hand prints the
digests to pin in ``expected.json``.

Segment boundaries come from ``run_batch``'s public ``progress`` hook,
which it calls before each experiment.  Times are given both as
measured and at the reference host speed (see :class:`Speedometer`).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import signal
import statistics
import struct
import sys
import tempfile
import typing as _t

from tracer import now

#: Time of one warm :func:`_probe_loop` on the reference host (2-vCPU VM,
#: CPython 3.11.7) while nothing else ran on its core: times are scaled
#: to this host speed.
REF_PROBE_S = 0.00035
#: Seconds between two probes of a serial child's interval timer.
PROBE_PERIOD_S = 0.05


def _cpu(usage: resource.struct_rusage) -> float:
    return usage.ru_utime + usage.ru_stime


def _cpu_now() -> float:
    """CPU seconds of this process and its reaped pool workers."""
    return (_cpu(resource.getrusage(resource.RUSAGE_SELF))
            + _cpu(resource.getrusage(resource.RUSAGE_CHILDREN)))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_PROBE_TABLE = {k: k * 0.5 for k in range(256)}
_PROBE_KEYS = list(range(256))


def _probe_loop(n: int = 4000) -> float:
    table, keys = _PROBE_TABLE, _PROBE_KEYS
    acc = 0.0
    for i in range(n):
        acc += table[keys[i & 255]] * 1.0001 + (i % 7)
    return acc


def probe(loops: int = 9) -> float:
    """Host speed now: median seconds of a fixed interpreter-bound loop.

    The loop does what the simulator does most (bytecode dispatch, dict
    and list lookups, float arithmetic) and allocates nothing that lives,
    so only the host's speed moves it, not the code under test.  A short
    untimed run first brings the loop back into the caches the run under
    test has just used.
    """
    _probe_loop(1000)
    times = []
    for _ in range(loops):
        t0 = now()
        _probe_loop()
        times.append(now() - t0)
    times.sort()
    return times[len(times) // 2]


def probe_cpus(procs: int) -> float:
    """:func:`probe` of ``procs`` processes probing at once, as the time
    of their mean speed (the harmonic mean of their times).

    A pooled run keeps ``procs`` CPUs busy and balances cells between
    them, and a busy neighbour may slow only one, so one process probing
    would misread the host.  The helpers are forked, released together
    through a pipe, and reaped before this returns, so their CPU time
    falls between two segments.
    """
    if procs == 1:
        return probe()
    go_r, go_w = os.pipe()
    out_r, out_w = os.pipe()
    helpers = []
    try:
        for _ in range(procs - 1):
            pid = os.fork()
            if pid == 0:
                try:
                    os.close(go_w)  # so that the parent closing it releases us
                    os.read(go_r, 1)
                    os.write(out_w, struct.pack("d", probe()))
                finally:
                    os._exit(0)
            helpers.append(pid)
        os.write(go_w, b"x" * len(helpers))
        times = [probe()]
    finally:
        os.close(go_w)
        for pid in helpers:
            os.waitpid(pid, 0)
        os.close(go_r)
        os.close(out_w)
        with os.fdopen(out_r, "rb") as out:
            data = out.read()
    times += [t for (t,) in struct.iter_unpack("d", data)]
    return len(times) / sum(1.0 / t for t in times)


class Speedometer:
    """Host speed along a run, to convert its times to the reference host's.

    The host is shared: a neighbour on the same core slows it down to
    about 0.6 of its speed, and that comes and goes within a second.  So
    a serial run is probed on an interval timer (``SIGALRM`` every
    :data:`PROBE_PERIOD_S`), and each stretch between two probes is scaled
    by their mean speed.  A pooled run's main process does not probe on a
    timer, because its probes would compete with the workers for the
    CPUs.  Its workers do (:meth:`watch_workers`), and a segment is scaled
    by the mean speed they saw during it.  A segment without worker
    probes is scaled by the median of probes taken between segments, on
    every CPU at once (:func:`probe_cpus`).  Probe time is left out of
    every interval measured.
    """

    def __init__(self, *, timer: bool, procs: int = 1) -> None:
        self.timer = timer
        self.procs = procs
        #: ``(start, end, speed)`` of each probe; speed is reference
        #: seconds per host second.
        self.probes: list[tuple[float, float, float]] = []
        #: The probes of the pool workers, read back by :meth:`stop`.
        self.worker_probes: list[tuple[float, float, float]] = []
        self._spool: str | None = None
        self._sink: int | None = None  # a worker's spool descriptor
        self._helping = False  # forking probe_cpus helpers

    def take(self) -> None:
        t0 = now()
        if self.timer:
            dt = probe(1)
        else:
            self._helping = True
            try:
                dt = probe_cpus(self.procs)
            finally:
                self._helping = False
        record = (t0, now(), REF_PROBE_S / dt)
        self.probes.append(record)
        if self._sink is not None:
            os.write(self._sink, struct.pack("3d", *record))

    def start(self) -> None:
        """Probe now and then on the interval timer, until :meth:`stop`."""
        signal.signal(signal.SIGALRM, lambda _sig, _frame: self.take())
        # Restart system calls the alarm interrupts, in C code too.
        signal.siginterrupt(signal.SIGALRM, False)
        self.take()
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._spool is not None:
            with open(self._spool, "rb") as spool:
                self.worker_probes = list(struct.iter_unpack("3d", spool.read()))

    def watch_workers(self, spool: str) -> None:
        """Have every process forked from now on (the pool workers) probe
        on its own timer and append its probes to ``spool``."""
        self._spool = spool
        os.register_at_fork(after_in_child=self._in_worker)

    def _in_worker(self) -> None:
        if self._helping:
            return
        self.timer, self.probes = True, []
        self._sink = os.open(self._spool, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        self.start()

    def scaled(self, a: float, b: float) -> tuple[float, float, float]:
        """Host seconds of ``[a, b]`` outside probes, the same at the
        reference host speed, and the CPU seconds probes took in it."""
        if not self.timer:
            seen = [p for p in self.worker_probes if a <= p[0] < b]
            if len(seen) >= 2 * self.procs:
                probe_cpu = sum(end - start for start, end, _ in seen)
                host = (b - a) - probe_cpu / self.procs
                return host, host * statistics.fmean(s for _, _, s in seen), probe_cpu
            median = statistics.median(s for _, _, s in self.probes)
            return b - a, (b - a) * median, 0.0
        p = self.probes
        gaps = [(-math.inf, p[0][0], p[0][2])]
        gaps += [(p[i][1], p[i + 1][0], (p[i][2] + p[i + 1][2]) / 2)
                 for i in range(len(p) - 1)]
        gaps.append((p[-1][1], math.inf, p[-1][2]))
        host = ref = 0.0
        for start, end, speed in gaps:
            overlap = min(b, end) - max(a, start)
            if overlap > 0:
                host += overlap
                ref += overlap * speed
        return host, ref, (b - a) - host


class Segments:
    """Wall and CPU time of each segment of a run, as measured and at the
    reference host speed."""

    def __init__(self, speed: Speedometer) -> None:
        self.speed = speed
        self._open: list[_t.Any] = []  # [name, wall0, cpu0]
        self._closed: list[list[_t.Any]] = []  # [name, wall0, wall1, cpu_s]

    def mark(self, name: str | None) -> None:
        """End the open segment (if any), probe a pooled run, and open
        ``name`` (if any)."""
        wall, cpu = now(), _cpu_now()
        if self._open:
            self._closed.append([self._open[0], self._open[1], wall, cpu - self._open[2]])
        if not self.speed.timer:
            self.speed.take()
        self._open = [name, now(), _cpu_now()] if name else []

    def rows(self) -> list[list[_t.Any]]:
        """``[name, wall_s, cpu_s, raw_wall_s, raw_cpu_s]`` per segment.

        Probe time is taken out of the CPU time too, and CPU time is
        scaled like the wall time around it.
        """
        out = []
        for name, a, b, cpu in self._closed:
            host, ref, probe_cpu = self.speed.scaled(a, b)
            cpu -= probe_cpu
            out.append([name, ref, cpu * ref / host if host > 0 else cpu, host, cpu])
        return out


def main(argv: list[str] | None = None) -> int:
    speed = Speedometer(timer=True)
    started = now()
    speed.start()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--full", action="store_true")
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--store", default=None)
    ap.add_argument("--experiments", default=None)
    ap.add_argument("--spool", default=None)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop where run_batch would be entered (a set-up sample)")
    args = ap.parse_args(argv)

    from repro.harness.experiments import EXPERIMENTS
    from repro.harness.runner import run_batch

    ids = args.experiments.split(",") if args.experiments else list(EXPERIMENTS)
    tracer = None
    if args.spool and not args.setup_only:
        from tracer import Tracer

        tracer = Tracer(args.spool)
        tracer.install()

    entered = now()
    host, ref, _probe_cpu = speed.scaled(started, entered)
    setup = {
        "entered": entered,
        # run.py scales the whole set-up, from its spawn on, by this speed.
        "setup_speed": ref / host,
        "setup_probe_s": entered - started - host,
    }
    if args.setup_only:
        speed.stop()
        print(json.dumps(setup))
        return 0
    if args.jobs > 1:
        speed.stop()
        speed = Speedometer(timer=False, procs=args.jobs)
        spool_fd, spool = tempfile.mkstemp(prefix="probes-")
        os.close(spool_fd)
        speed.watch_workers(spool)
    segments = Segments(speed)
    segments.mark("batch")
    with tracer.span("run") if tracer else contextlib.nullcontext():
        batch = run_batch(ids, quick=not args.full, seed=args.seed,
                          jobs=args.jobs, store=args.store,
                          progress=lambda eid: segments.mark(f"exp.{eid}"))
        segments.mark("render")
        report = batch.render()
        segments.mark(None)
    speed.stop()
    if args.jobs > 1:
        os.unlink(spool)
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    rows = segments.rows()

    result = {
        **setup,
        "wall_s": sum(row[1] for row in rows),
        "cpu_s": sum(row[2] for row in rows),
        "raw_wall_s": sum(row[3] for row in rows),
        "raw_cpu_s": sum(row[4] for row in rows),
        "segments": rows,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024.0,
        "report": _sha(report),
        "digests": {eid: _sha(out.render()) for eid, out in batch.outputs.items()},
        "rows": {eid: len(out.comparisons) for eid, out in batch.outputs.items()},
        "nonfinite": sorted(
            eid for eid, out in batch.outputs.items()
            if not all(math.isfinite(m) and math.isfinite(r) for _n, m, r in out.comparisons)
        ),
        "failed": sorted(
            eid for eid, out in batch.outputs.items() if out.title.startswith("FAILED(")
        ),
        "store": batch.store_summary,
    }
    if tracer is not None:
        result["layers"] = tracer.finish(args.jobs, list(EXPERIMENTS), args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
