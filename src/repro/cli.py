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
``store <op> <path>``
    Maintain a content-addressed cell store (``docs/caching.md``):
    ``stats`` tallies records/shards/workers, ``verify`` re-derives
    every record's key and payload hash (exit 1 on integrity problems),
    ``gc`` compacts stale/duplicate/malformed records.
``lint [paths...]``
    Static determinism linter over ``src``/``benchmarks`` (or the given
    paths); exits 1 when findings remain (see ``docs/analysis.md``).
    ``--deep`` adds the deep rules (DET007-DET011) over every file of
    the installed package, the files whose bytes key the cell store;
    ``--json`` prints the findings as one JSON list.
``osu <platform>``
    Run the OSU latency + bandwidth pair on one platform.
``npb <bench> <platform> <nprocs>``
    Run one NPB benchmark point and print its result.

Exit codes
----------
``0``
    Success — every requested cell/experiment completed.
``3``
    Partial — some sweep cells failed, but the report
    rendered with explicit ``FAILED(worker-exception)`` entries.
``1``
    Fatal — bad configuration or an unhandled failure; no report.
"""

from __future__ import annotations

import argparse
import sys
import typing as _t

from repro.errors import ConfigError, ReproError

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.config import RunConfig


def _cmd_platforms(_args: argparse.Namespace) -> int:
    from repro.platforms import platform_table

    print(platform_table())
    return 0


def _cmd_experiments(_args: argparse.Namespace) -> int:
    from repro.harness.experiments import EXPERIMENTS

    for eid, fn in EXPERIMENTS.items():
        doc = (fn.__doc__ or "").strip().partition("\n")[0]
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
    import dataclasses
    import json

    from repro.analysis.lint import lint_run, render_findings

    # The given paths get the plain rules (DET000-DET006, DET012); the
    # deep rules (DET007-DET011) judge the installed package's files.
    findings = lint_run(args.paths or ["src", "benchmarks"], deep=args.deep)
    if args.json:
        print(json.dumps([dataclasses.asdict(f) for f in findings], indent=2))
    else:
        print(render_findings(findings))
    return 1 if findings else 0


def _cmd_store(args: argparse.Namespace) -> int:
    import json

    from repro.harness.cellstore import CellStore

    store = CellStore(args.path)
    if not store.root.is_dir():
        # A mistyped path would otherwise read as an empty, healthy store.
        raise ConfigError(f"store {args.path!r} is not an existing directory")
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
        report = store.gc(dry_run=args.dry_run)
        print(report.render())
        return 0
    raise AssertionError(f"unhandled store subcommand {args.store_command!r}")


def _cmd_npb(args: argparse.Namespace) -> int:
    from repro.npb import get_benchmark
    from repro.platforms import get_platform

    bench = get_benchmark(args.bench, klass=args.klass)
    result = bench.run(get_platform(args.platform), args.nprocs, seed=args.seed)
    print(f"{result.label()} on {result.platform}:")
    print(f"  projected time : {result.projected_time:10.2f} s")
    print(f"  per-iteration  : {result.steady.per_step:10.4f} s")
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
             "entries are keyed by worker + args + the package's source "
             "digest so they can never go stale; re-run with the same PATH to "
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
        help="also run the deep rules (DET007-DET011) over every file "
             "of the installed package, the files whose bytes key the "
             "cell store",
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
        help="compact the store: drop stale (written by other code), "
             "duplicate, malformed and torn records",
    )
    st_gc.add_argument("path", help="store root directory")
    st_gc.add_argument(
        "--dry-run", action="store_true",
        help="report what would be dropped without rewriting shards",
    )

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
