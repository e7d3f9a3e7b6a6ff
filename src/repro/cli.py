"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``platforms``
    Print the Table-I platform inventory.
``experiments``
    List the registered paper experiments.
``run <ids...>``
    Regenerate experiments (``all`` for everything); ``--full`` runs the
    complete sweeps, ``--jobs N`` fans sweep cells over N processes,
    ``--sanitize`` runs every world under the MPI sanitizer,
    ``--sim-iters N`` overrides the NPB steady-loop length,
    ``--store PATH`` serves/publishes cells through the
    content-addressed cell store rooted at a local directory (see
    ``docs/caching.md``) — re-running an interrupted run with the same
    store resumes it,
    ``--json``/``--csv``/``--out`` export results.  The flags build one
    :class:`~repro.config.RunConfig` (flag over environment over default;
    see ``docs/architecture.md``), and the sanitizer, harness and store
    banners go to stderr.

Exit codes
----------
``0``
    Success — every requested cell/experiment completed.
``3``
    Partial — some sweep cells failed, but the report
    rendered with explicit ``FAILED(worker-exception)`` entries.
``1``
    Fatal — bad configuration or an unhandled failure; no report.
``store <op> <path>``
    Maintain a content-addressed cell store (``docs/caching.md``):
    ``stats`` tallies records/shards/workers, ``verify`` re-derives
    every record's key and payload hash (exit 1 on integrity problems),
    ``gc`` compacts stale/duplicate/malformed records, ``export`` and
    ``import`` stream records between stores as a single JSONL file in
    bounded memory.
``lint [paths...]``
    Static determinism linter over ``src``/``benchmarks`` (or the given
    paths); exits 1 when findings remain (see ``docs/analysis.md``).
    ``--deep`` adds the whole-program analysis (call-graph closures,
    DET007-DET011, per-worker code fingerprints); ``--json`` prints the
    findings as JSON.
``fingerprint [workers...]``
    Print (or ``--check`` the stability of) the semantic code
    fingerprint of each registered cell worker — the cell store's
    code-identity key.
``osu <platform>``
    Run the OSU latency + bandwidth pair on one platform.
``npb <bench> <platform> <nprocs>``
    Run one NPB benchmark point and print its result.
"""

from __future__ import annotations

import argparse
import sys
import typing as _t

from repro.errors import ReproError

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.config import RunConfig


def _cmd_platforms(_args: argparse.Namespace) -> int:
    from repro.platforms import platform_table

    print(platform_table())
    return 0


def _cmd_experiments(_args: argparse.Namespace) -> int:
    from repro.harness.experiments import EXPERIMENTS

    for eid, fn in EXPERIMENTS.items():
        doc = (fn.__doc__ or "").strip().splitlines()[0]
        print(f"{eid:<10} {doc}")
    return 0


#: ``RunConfig`` fields that are also flags of ``run``.
_CONFIG_FLAGS = ("seed", "jobs", "sim_iters", "store")


def _run_config(args: argparse.Namespace, **fields: _t.Any) -> "RunConfig":
    """The run's one :class:`~repro.config.RunConfig`: the flags given
    (absent ones are ``None``) over the environment over defaults."""
    from repro.config import RunConfig

    flags = {name: getattr(args, name, None) for name in _CONFIG_FLAGS}
    if getattr(args, "sanitize", False):
        flags["sanitize"] = True
    return RunConfig(**{k: v for k, v in flags.items() if v is not None}, **fields)


def _print_banners(result: _t.Any) -> None:
    """The stderr-only banners of a run, in a fixed order."""
    for name in ("sanitize_summary", "harness_summary", "store_summary"):
        banner = getattr(result, name, None)
        if banner:
            print(f"[{banner}]", file=sys.stderr)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.harness.experiments import EXPERIMENTS
    from repro.harness.runner import run_batch

    ids = list(EXPERIMENTS) if "all" in args.ids else args.ids
    batch = run_batch(
        ids, _run_config(args, quick=not args.full),
        progress=lambda eid: print(f"[running] {eid}", file=sys.stderr),
    )
    print(batch.render())
    _print_banners(batch)
    if args.json:
        batch.write_json(args.json)
        print(f"[written] {args.json}", file=sys.stderr)
    if args.csv:
        batch.write_csv(args.csv)
        print(f"[written] {args.csv}", file=sys.stderr)
    if args.out:
        batch.write_text(args.out)
        print(f"[written] {args.out}", file=sys.stderr)
    return 3 if batch.failures else 0


def _cmd_osu(args: argparse.Namespace) -> int:
    from repro.osu import osu_bandwidth, osu_latency
    from repro.platforms import get_platform

    spec = get_platform(args.platform)
    sizes = [2**k for k in range(0, 23, 2)]
    lat = osu_latency(spec, sizes, iterations=50, seed=args.seed)
    bw = osu_bandwidth(spec, sizes, iterations=10, seed=args.seed)
    print(f"# OSU on {spec.name}")
    print(f"{'bytes':>9} {'latency(us)':>12} {'bw(MB/s)':>10}")
    for n in sizes:
        print(f"{n:>9} {lat[n] * 1e6:>12.2f} {bw[n] / 1e6:>10.1f}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.lint import lint_paths, render_findings

    paths = args.paths or ["src", "benchmarks"]
    # Per-file scan stays intra-file (DET001-DET006); the deep rules
    # (DET007-DET011) are interprocedural by definition and run over
    # the worker call-graph closures in analyze_workers() below.
    findings: list[_t.Any] = list(lint_paths(paths))
    report = None
    if args.deep:
        from repro.analysis.static import analyze_workers

        report = analyze_workers()
        findings.extend(report.findings)
    if args.json:
        payload: _t.Any = [
            {"path": f.path, "line": f.line, "col": f.col,
             "rule": f.rule, "message": f.message,
             **({"workers": list(f.workers)} if hasattr(f, "workers") else {})}
            for f in findings
        ]
        if report is not None:
            payload = {"findings": payload,
                       "workers": report.to_dict()["workers"]}
        print(json.dumps(payload, indent=2))
    else:
        if report is not None:
            for c in report.closures:
                print(f"  {c.describe()}")
        plain = [f for f in findings if not hasattr(f, "workers")]
        deep = [f for f in findings if hasattr(f, "workers")]
        if plain or not deep:
            print(render_findings(plain))
        for f in deep:
            print(f.render())
    return 1 if findings else 0


def _cmd_fingerprint(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.static import ModuleIndex, worker_closure

    index = ModuleIndex()
    names = sorted(index.workers()) if (args.all or not args.workers) \
        else list(args.workers)
    closures = [worker_closure(w, index) for w in names]
    if args.check:
        # Recompute from a second fresh index, which parses and hashes
        # every module again: any nondeterminism in parsing, traversal or
        # hashing shows up as a mismatch in a closure or its fingerprint.
        fresh = ModuleIndex()
        for c in closures:
            again = worker_closure(c.worker, fresh)
            if again != c:
                field = next(
                    f for f in ("fingerprint", "root", "definitions", "modules")
                    if getattr(again, f) != getattr(c, f)
                )
                was, now = getattr(c, field), getattr(again, field)
                if field in ("definitions", "modules"):
                    detail = f"{field} differ: {sorted(set(was) ^ set(now))}"
                else:
                    detail = f"{field} {was} != {now}"
                print(f"[unstable] {c.worker}: {detail}", file=sys.stderr)
                return 1
        print(f"[ok] {len(closures)} fingerprint(s) stable", file=sys.stderr)
    if args.json:
        print(json.dumps(
            {c.worker: {
                "fingerprint": c.fingerprint,
                "root": list(c.root),
                "definitions": len(c.definitions),
                "modules": list(c.modules),
            } for c in closures},
            indent=2, sort_keys=True,
        ))
    else:
        for c in closures:
            print(c.describe())
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    import json

    from repro.harness.cellstore import CellStore

    store = CellStore(args.path)
    if args.store_command == "stats":
        stats = store.stats()
        if args.json:
            print(json.dumps(stats.to_dict(), indent=2))
        else:
            print(stats.render())
        return 0
    if args.store_command == "verify":
        report = store.verify()
        print(report.render())
        return 0 if report.clean else 1
    if args.store_command == "gc":
        report = store.gc(
            drop_unknown=args.drop_unknown, dry_run=args.dry_run
        )
        print(report.render())
        return 0
    if args.store_command == "export":
        if args.out:
            count = store.export(args.out)
            print(f"[exported] {count} record(s) to {args.out}", file=sys.stderr)
        else:
            count = 0
            for line in store.export_lines():
                print(line)
                count += 1
            print(f"[exported] {count} record(s)", file=sys.stderr)
        return 0
    if args.store_command == "import":
        added, dup, invalid = store.import_file(args.file)
        print(
            f"[imported] {added} record(s) added, {dup} already present, "
            f"{invalid} invalid skipped",
            file=sys.stderr,
        )
        return 0 if invalid == 0 else 1
    raise AssertionError(f"unhandled store subcommand {args.store_command!r}")


def _cmd_npb(args: argparse.Namespace) -> int:
    from repro.npb import get_benchmark
    from repro.platforms import get_platform

    bench = get_benchmark(args.bench, klass=args.klass)
    result = bench.run(get_platform(args.platform), args.nprocs, seed=args.seed)
    print(f"{result.label()} on {result.platform}:")
    print(f"  projected time : {result.projected_time:10.2f} s")
    print(f"  per-iteration  : {result.per_iter_time:10.4f} s")
    print(f"  %comm (steady) : {result.comm_percent:10.1f} %")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.config import RunConfig

    # Every --seed defaults to the run configuration's seed.
    seed = RunConfig.__dataclass_fields__["seed"].default
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HPC/private/public-cloud performance study framework",
        epilog="exit codes: 0 success (all cells ok); 3 partial — some "
               "sweep cells failed but the report rendered with "
               "FAILED(worker-exception) entries; 1 fatal error (bad "
               "configuration or unhandled failure). `repro store "
               "verify` and `repro lint` keep exit 1 for their own "
               "failed-check verdicts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("platforms", help="print the Table-I platform inventory")
    sub.add_parser("experiments", help="list registered paper experiments")

    run = sub.add_parser("run", help="regenerate paper experiments")
    run.add_argument("ids", nargs="+", help="experiment ids, or 'all'")
    run.add_argument("--full", action="store_true", help="full sweeps (slower)")
    run.add_argument("--seed", type=int, default=seed)
    run.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for sweep cells (0 = all CPUs); output is "
             "identical to --jobs 1",
    )
    run.add_argument(
        "--sanitize", action="store_true",
        help="run every simulated world under the MPI sanitizer "
             "(deadlock/collective-mismatch/message-leak checks)",
    )
    run.add_argument(
        "--sim-iters", type=int, default=None, metavar="N",
        help="override the NPB steady-loop iteration count (N >= 1)",
    )
    run.add_argument(
        "--store", default=None, metavar="PATH",
        help="serve sweep cells from (and publish fresh results to) the "
             "content-addressed cell store rooted at directory PATH; "
             "entries are keyed by worker + args + code fingerprint so "
             "they can never go stale; re-run with the same PATH to "
             "resume an interrupted run (see docs/caching.md)",
    )
    run.add_argument("--json", help="export comparisons as JSON")
    run.add_argument("--csv", help="export comparisons as CSV")
    run.add_argument("--out", help="write the text report to a file")

    lint = sub.add_parser(
        "lint", help="static determinism linter (DET001-DET012)"
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files/directories to lint (default: src benchmarks)",
    )
    lint.add_argument("--json", action="store_true", help="JSON findings")
    lint.add_argument(
        "--deep", action="store_true",
        help="whole-program analysis: resolve every registered cell "
             "worker's call-graph closure, enable the interprocedural "
             "rules (DET007-DET011) over it, and print per-worker code "
             "fingerprints",
    )

    fingerprint = sub.add_parser(
        "fingerprint",
        help="semantic code fingerprints of registered cell workers",
    )
    fingerprint.add_argument(
        "workers", nargs="*",
        help="worker names (default: all statically registered workers)",
    )
    fingerprint.add_argument(
        "--all", action="store_true",
        help="fingerprint every statically registered worker",
    )
    fingerprint.add_argument(
        "--check", action="store_true",
        help="recompute each fingerprint from a fresh module index and "
             "exit 1 on any instability",
    )
    fingerprint.add_argument(
        "--json", action="store_true", help="JSON output"
    )

    store = sub.add_parser(
        "store",
        help="content-addressed global cell result store maintenance",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    st_stats = store_sub.add_parser(
        "stats", help="record/shard/worker tallies for a store"
    )
    st_stats.add_argument("path", help="store root directory")
    st_stats.add_argument("--json", action="store_true", help="JSON output")
    st_verify = store_sub.add_parser(
        "verify",
        help="re-derive every record's key and payload hash; exit 1 on "
             "integrity problems (torn lines are tolerated and reported)",
    )
    st_verify.add_argument("path", help="store root directory")
    st_gc = store_sub.add_parser(
        "gc",
        help="compact the store: drop stale (code-fingerprint-mismatched), "
             "duplicate, malformed and torn records",
    )
    st_gc.add_argument("path", help="store root directory")
    st_gc.add_argument(
        "--dry-run", action="store_true",
        help="report what would be dropped without rewriting shards",
    )
    st_gc.add_argument(
        "--drop-unknown", action="store_true",
        help="also drop records for workers this host cannot fingerprint "
             "(default: keep them — they may still serve another host)",
    )
    st_export = store_sub.add_parser(
        "export",
        help="dump all records as one deterministic JSONL stream for "
             "cross-host sharing",
    )
    st_export.add_argument("path", help="store root directory")
    st_export.add_argument(
        "--out", default=None, metavar="FILE",
        help="write to FILE instead of stdout",
    )
    st_import = store_sub.add_parser(
        "import",
        help="merge an exported JSONL file into a store (each record is "
             "re-validated; existing keys are kept)",
    )
    st_import.add_argument("path", help="store root directory")
    st_import.add_argument("file", help="exported JSONL file to merge")

    osu = sub.add_parser("osu", help="run OSU latency/bandwidth on a platform")
    osu.add_argument("platform", choices=["vayu", "dcc", "ec2"])
    osu.add_argument("--seed", type=int, default=seed)

    npb = sub.add_parser("npb", help="run one NPB benchmark point")
    npb.add_argument("bench")
    npb.add_argument("platform", choices=["vayu", "dcc", "ec2"])
    npb.add_argument("nprocs", type=int)
    npb.add_argument("--class", dest="klass", default="B")
    npb.add_argument("--seed", type=int, default=seed)

    return parser


_COMMANDS: dict[str, _t.Callable[[argparse.Namespace], int]] = {
    "platforms": _cmd_platforms,
    "experiments": _cmd_experiments,
    "run": _cmd_run,
    "osu": _cmd_osu,
    "npb": _cmd_npb,
    "lint": _cmd_lint,
    "fingerprint": _cmd_fingerprint,
    "store": _cmd_store,
}


def main(argv: _t.Sequence[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ReproError, ValueError) as exc:
        # Fatal: bad configuration or an unhandled failure (exit 1);
        # sweeps with failed cells return 3 from the command itself.
        # ValueError covers argument-validation errors raised below argparse.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # e.g. piping into `head`
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
