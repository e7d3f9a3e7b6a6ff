"""Tests for the one run configuration (:mod:`repro.config`).

Covers validation and precedence of :class:`RunConfig` (flag over
environment over default, one table), that a run configures its worlds
without writing ``os.environ`` — inline through one in-process install,
in pool workers through the pool initializer — and that reports are
byte-identical across ``--jobs`` whatever world options are on.
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.cli import _run_config, build_parser, main
from repro.config import RunConfig, WorldOptions, world_options, world_scope
from repro.errors import ConfigError
from repro.harness.parallel import Cell, cell_worker
from repro.harness.runner import run_batch

WORLD_ENV = ("REPRO_SANITIZE",)


@pytest.fixture
def clean_env(monkeypatch):
    """No world option set in the environment."""
    for name in WORLD_ENV:
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


@cell_worker("cfg_probe")
def _cfg_probe(i):
    """Reports the world options the executing process observes."""
    from repro.analysis.sanitizer import sanitize_enabled

    return {
        "pid": os.getpid(),
        "sanitize": sanitize_enabled(),
        "env": {name: os.environ.get(name) for name in WORLD_ENV},
    }


# ---------------------------------------------------------------------------
# Precedence: flag > env > default, for every field with an env spelling
# ---------------------------------------------------------------------------

#: (field, env var, env value, flag argv, flag value, env-resolved value, default)
PRECEDENCE = [
    ("sanitize", "REPRO_SANITIZE", "1", ["--sanitize"], True, True, False),
]


@pytest.mark.parametrize(
    "field, var, env_value, argv, flag_value, env_resolved, default", PRECEDENCE,
    ids=[f"{row[0]}-{row[2]}" for row in PRECEDENCE],
)
def test_precedence_flag_over_env_over_default(
    clean_env, field, var, env_value, argv, flag_value, env_resolved, default
):
    parse = build_parser().parse_args
    assert getattr(_run_config(parse(["run", "fig3"])), field) == default
    assert getattr(RunConfig(), field) == default
    clean_env.setenv(var, env_value)
    assert getattr(_run_config(parse(["run", "fig3"])), field) == env_resolved
    assert getattr(RunConfig(), field) == env_resolved
    assert getattr(_run_config(parse(["run", "fig3", *argv])), field) == flag_value
    assert getattr(RunConfig(**{field: flag_value}), field) == flag_value


def test_install_sits_between_explicit_values_and_env(clean_env):
    clean_env.setenv("REPRO_SANITIZE", "1")
    with world_scope(WorldOptions(sanitize=False)):
        assert RunConfig().world == WorldOptions(sanitize=False)
        assert RunConfig(sanitize=True).sanitize
    assert world_options().sanitize


def test_no_fast_path_options(clean_env, capsys):
    """No option fast-forwards a world: the fast-path flags and ``bench
    engine`` are usage errors, their environment spellings are not read,
    and neither the run configuration nor a world takes them."""
    from repro.platforms import VAYU
    from repro.smpi import MpiWorld

    for argv in (["run", "fig3", "--replay"], ["run", "fig3", "--fastcollect"],
                 ["bench", "engine"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def program(comm):
        yield from comm.allreduce(8, value=1.0)

    plain = MpiWorld(VAYU, 2, seed=1).launch(program)
    clean_env.setenv("REPRO_REPLAY", "1")
    clean_env.setenv("REPRO_FASTCOLLECT", "1")
    assert world_options() == WorldOptions()
    assert _run_config(build_parser().parse_args(["run", "fig3"])) == RunConfig()
    again = MpiWorld(VAYU, 2, seed=1).launch(program)
    assert (again.wall_time, again.rank_results) == (plain.wall_time, plain.rank_results)
    assert again.replay is None and again.fastcollect is None
    with pytest.raises(TypeError):
        RunConfig(replay=True)
    with pytest.raises(TypeError):
        MpiWorld(VAYU, 2, fastcollect=True)
    assert [f.name for f in dataclasses.fields(WorldOptions)] == ["sanitize"]


# ---------------------------------------------------------------------------
# Validation: one ConfigError, one clean CLI exit
# ---------------------------------------------------------------------------

INVALID = [
    (dict(seed=-1), ["--seed", "-1"]),
    (dict(jobs=-2), ["--jobs", "-2"]),
    (dict(sim_iters=0), ["--sim-iters", "0"]),
    (dict(store="tcp://127.0.0.1:1"), ["--store", "tcp://127.0.0.1:1"]),
]


@pytest.mark.parametrize("fields, argv", INVALID,
                         ids=["".join(argv) for _f, argv in INVALID])
def test_invalid_values_are_config_errors(fields, argv, capsys, tmp_path,
                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigError):
        RunConfig(**fields)
    assert main(["run", "fig3", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []  # nothing ran, nothing was created


@pytest.mark.parametrize("name", ["seed", "jobs", "sim_iters"])
def test_bool_is_not_an_int(name):
    """``True`` is an ``int`` to Python but never a seed, a job count or
    an iteration count."""
    with pytest.raises(ConfigError, match=f"{name} must be an int"):
        RunConfig(**{name: True})


def test_no_failure_policy_option(capsys):
    """A cell is deterministic and runs once: no option retries it or
    watches it.  ``run --retries``/``--timeout`` are usage errors."""
    parse = build_parser().parse_args
    for argv in (["run", "fig3", "--retries", "1"],
                 ["run", "fig3", "--timeout", "5"]):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert [f.name for f in dataclasses.fields(RunConfig)] == [
        "quick", "seed", "jobs", "sim_iters", "sanitize", "store",
    ]


def test_no_fault_schedule_option(clean_env, capsys):
    """No option configures simulated faults: ``run --faults`` and
    ``faults sweep`` are usage errors and ``REPRO_FAULTS`` is not read."""
    parse = build_parser().parse_args
    for argv in (["run", "fig3", "--faults", "link:start=0,dur=1,bw=0.5"],
                 ["faults", "sweep", "--rates", "0.1", "--intervals", "10"]):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
    clean_env.setenv("REPRO_FAULTS", "link:start=0,dur=1e9,bw=0.5")
    assert RunConfig().world == WorldOptions()
    with pytest.raises(TypeError):
        RunConfig(faults="link:start=0,dur=1e9,bw=0.5")


def test_config_is_frozen_and_canonical(clean_env):
    config = RunConfig(jobs=0, store=os.curdir)
    assert config.jobs == (os.cpu_count() or 1)
    assert config.store == os.curdir
    with pytest.raises(AttributeError):
        config.seed = 3  # type: ignore[misc]


def test_one_seed_default():
    """``RunConfig`` holds the one seed default, the pinned digests' seed,
    and every ``--seed`` flag takes it."""
    parse = build_parser().parse_args
    assert RunConfig().seed == 1
    assert parse(["run", "all"]).seed == RunConfig().seed
    for argv in (["osu", "vayu"], ["npb", "cg", "vayu", "4"]):
        assert parse(argv).seed == RunConfig().seed, argv


# ---------------------------------------------------------------------------
# World options travel without os.environ
# ---------------------------------------------------------------------------

def test_run_batch_never_writes_environ_and_reaches_pool_workers(
    clean_env, monkeypatch
):
    from repro.harness.experiments import CELLS, EXPERIMENTS, ExperimentOutput

    seen: dict = {}

    def _probe(config, points):
        seen.update(points)
        seen["inline"] = _cfg_probe(-1)
        return ExperimentOutput("probe", "world-option probe", {}, "")

    monkeypatch.setitem(
        CELLS, "probe", lambda config: [Cell((i,), "cfg_probe", (i,)) for i in range(4)]
    )
    monkeypatch.setitem(EXPERIMENTS, "probe", _probe)
    before = dict(os.environ)
    batch = run_batch(["probe", "tab1"], sanitize=True, jobs=2)
    assert dict(os.environ) == before
    pooled = [v for k, v in seen.items() if k != "inline"]
    assert any(v["pid"] != os.getpid() for v in pooled)  # really in workers
    for observed in [*pooled, seen["inline"]]:
        assert observed["sanitize"]
        assert observed["env"] == {name: None for name in WORLD_ENV}
    assert batch.sanitize_summary.startswith("sanitize: clean — 0 in-process world(s)")
    assert "in-process worlds only: 4 cell(s) ran in pool workers" in batch.sanitize_summary
    # Outside the run the process default is back in charge.
    assert world_options() == WorldOptions()


@pytest.mark.parametrize("flags", [["--sanitize"]])
def test_report_independent_of_jobs(clean_env, flags, capsys):
    outs = []
    for jobs in ("1", "2"):
        assert main(["run", "fig4", *flags, "--jobs", jobs]) == 0
        captured = capsys.readouterr()
        outs.append(captured.out)
        assert "[sanitize: clean" in captured.err
        assert "[sanitize: clean" not in captured.out
    assert outs[0] == outs[1]


def test_nested_scopes_collect_into_every_open_collector(clean_env):
    from repro.platforms import VAYU
    from repro.smpi import MpiWorld

    def program(comm):
        yield from comm.barrier()

    with world_scope(sanitize=True) as outer:
        with world_scope(sanitize=True) as inner:
            MpiWorld(VAYU, 2, seed=1).launch(program)
        MpiWorld(VAYU, 2, seed=1).launch(program)
    assert (len(outer.sanitizer), len(inner.sanitizer)) == (2, 1)


# ---------------------------------------------------------------------------
# sim_iters reaches the NPB steady loop
# ---------------------------------------------------------------------------

def test_sim_iters_validation():
    with pytest.raises(ConfigError):
        run_batch(["tab1"], sim_iters=0)


def test_sim_iters_reaches_benchmark():
    from repro.harness.parallel import npb_point
    from repro.npb import get_benchmark
    from repro.platforms import get_platform

    point = npb_point("cg", "vayu", 2, 0, "B", 6)
    direct = get_benchmark("cg", sim_iters=6).run(get_platform("vayu"), 2, seed=0)
    assert point["projected_time"] == direct.projected_time
    assert point["per_iter_time"] == direct.per_iter_time
