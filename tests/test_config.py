"""Tests for the one run configuration (:mod:`repro.config`).

Covers validation and precedence of :class:`RunConfig` (flag over
environment over default, one table), that a run configures its worlds
without writing ``os.environ`` — inline through one in-process install,
in pool workers through the pool initializer — that reports are
byte-identical across ``--jobs`` whatever world options are on, and that
a fault schedule can never poison the cell store.
"""

from __future__ import annotations

import os

import pytest

from repro.cli import _run_config, build_parser, main
from repro.config import RunConfig, WorldOptions, world_options, world_scope
from repro.errors import ConfigError
from repro.faults import FaultSchedule
from repro.harness.parallel import Cell, cell_worker, run_cells
from repro.harness.runner import run_batch

WORLD_ENV = ("REPRO_SANITIZE", "REPRO_FAULTS", "REPRO_REPLAY", "REPRO_FASTCOLLECT")

#: A schedule that degrades every link for the whole run.
LINK_FAULT = "link:start=0,dur=1e9,bw=0.5"


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
    from repro.perf.replay import replay_enabled

    return {
        "pid": os.getpid(),
        "replay": replay_enabled(),
        "sanitize": sanitize_enabled(),
        "env": {name: os.environ.get(name) for name in WORLD_ENV},
    }


# ---------------------------------------------------------------------------
# Precedence: flag > env > default, for every field with an env spelling
# ---------------------------------------------------------------------------

_CANON = FaultSchedule.parse(LINK_FAULT).spec()
_OTHER = "nfs:start=0,dur=30,factor=4"

#: (field, env var, env value, flag argv, flag value, env-resolved value, default)
PRECEDENCE = [
    ("sanitize", "REPRO_SANITIZE", "1", ["--sanitize"], True, True, False),
    ("replay", "REPRO_REPLAY", "1", ["--no-replay"], False, True, False),
    ("replay", "REPRO_REPLAY", "0", ["--replay"], True, False, False),
    ("fastcollect", "REPRO_FASTCOLLECT", "1", ["--no-fastcollect"], False, True, False),
    ("fastcollect", "REPRO_FASTCOLLECT", "0", ["--fastcollect"], True, False, False),
    ("faults", "REPRO_FAULTS", LINK_FAULT, ["--faults", _OTHER],
     FaultSchedule.parse(_OTHER).spec(), _CANON, None),
    ("faults", "REPRO_FAULTS", "0", ["--faults", LINK_FAULT], _CANON, None, None),
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
    clean_env.setenv("REPRO_REPLAY", "1")
    with world_scope(WorldOptions(sanitize=True)):
        assert RunConfig().world == WorldOptions(sanitize=True)
        assert RunConfig(replay=True).replay
    assert world_options().replay and not world_options().sanitize


# ---------------------------------------------------------------------------
# Validation: one ConfigError, one clean CLI exit
# ---------------------------------------------------------------------------

INVALID = [
    (dict(jobs=-2), ["--jobs", "-2"]),
    (dict(retries=-1), ["--retries", "-1"]),
    (dict(timeout=0), ["--timeout", "0"]),
    (dict(sim_iters=0), ["--sim-iters", "0"]),
    (dict(store="tcp://127.0.0.1:1"), ["--store", "tcp://127.0.0.1:1"]),
    (dict(faults="link:start;dur=1"), ["--faults", "link:start;dur=1"]),
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


def test_config_is_frozen_and_canonical(clean_env):
    config = RunConfig(jobs=0, faults=f" {LINK_FAULT} ", store=os.curdir)
    assert config.jobs == (os.cpu_count() or 1)
    assert config.faults == _CANON and config.store == os.curdir
    assert RunConfig(faults="").faults is None
    with pytest.raises(AttributeError):
        config.seed = 3  # type: ignore[misc]


def test_one_seed_default():
    """``RunConfig`` holds the one seed default, the pinned digests' seed,
    and every ``--seed`` flag takes it."""
    parse = build_parser().parse_args
    assert RunConfig().seed == 1
    assert parse(["run", "all"]).seed == RunConfig().seed
    for argv in (["faults", "sweep", "--rates", "0.1", "--intervals", "10"],
                 ["osu", "vayu"], ["npb", "cg", "vayu", "4"]):
        assert parse(argv).seed == RunConfig().seed, argv


# ---------------------------------------------------------------------------
# World options travel without os.environ
# ---------------------------------------------------------------------------

def test_run_batch_never_writes_environ_and_reaches_pool_workers(
    clean_env, monkeypatch
):
    from repro.harness.experiments import EXPERIMENTS, ExperimentOutput

    seen: dict = {}

    def _probe(run):
        seen.update(run_cells([Cell((i,), "cfg_probe", (i,)) for i in range(4)], run))
        seen["inline"] = _cfg_probe(-1)
        return ExperimentOutput("probe", "world-option probe", {}, "")

    monkeypatch.setitem(EXPERIMENTS, "probe", _probe)
    before = dict(os.environ)
    batch = run_batch(["probe", "tab1"], replay=True, sanitize=True, jobs=2)
    assert dict(os.environ) == before
    pooled = [v for k, v in seen.items() if k != "inline"]
    assert any(v["pid"] != os.getpid() for v in pooled)  # really in workers
    for observed in [*pooled, seen["inline"]]:
        assert observed["replay"] and observed["sanitize"]
        assert observed["env"] == {name: None for name in WORLD_ENV}
    assert batch.sanitize_summary.startswith("sanitize: clean — 0 in-process world(s)")
    assert "in-process worlds only: 4 cell(s) ran in pool workers" in batch.sanitize_summary
    # Outside the run the process default is back in charge.
    assert world_options() == WorldOptions()


@pytest.mark.parametrize("flags", [["--sanitize"], ["--replay", "--fastcollect"]])
def test_report_independent_of_jobs(clean_env, flags, capsys):
    outs = []
    for jobs in ("1", "2"):
        assert main(["run", "fig4", *flags, "--jobs", jobs]) == 0
        captured = capsys.readouterr()
        outs.append(captured.out)
        banner = "[sanitize: clean" if "--sanitize" in flags else "[perf: "
        assert banner in captured.err and banner not in captured.out
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# A fault schedule never poisons the store
# ---------------------------------------------------------------------------

def test_faulted_run_does_not_poison_a_plain_run(clean_env, tmp_path, capsys):
    store = str(tmp_path / "store")
    assert main(["run", "tab2"]) == 0
    plain = capsys.readouterr().out
    assert main(["run", "tab2", "--faults", LINK_FAULT, "--store", store]) == 0
    faulted = capsys.readouterr().out
    assert faulted != plain and faulted.endswith(f"[faults: {_CANON}]\n")
    assert main(["run", "tab2", "--store", store]) == 0
    captured = capsys.readouterr()
    assert captured.out == plain
    assert "0 served, 27 executed" in captured.err


def test_plain_store_never_serves_a_faulted_run(clean_env, tmp_path):
    store = tmp_path / "store"
    faulted = run_batch(["tab2"], seed=1, faults=LINK_FAULT)
    plain = run_batch(["tab2"], seed=1, store=store)
    served = run_batch(["tab2"], seed=1, faults=LINK_FAULT, store=store)
    assert served.render() == faulted.render() != plain.render()
    assert "0 served, 27 executed, 27 published" in served.store_summary
    again = run_batch(["tab2"], seed=1, faults=LINK_FAULT, store=store)
    assert again.render() == faulted.render()
    assert "27 served, 0 executed" in again.store_summary


def test_nested_scopes_collect_into_every_open_collector(clean_env):
    from repro.perf.replay import deterministic_variant, replay_scope
    from repro.platforms import VAYU
    from repro.smpi import MpiWorld

    def program(comm):
        yield from comm.barrier()

    with replay_scope(True) as outer:
        with replay_scope(True) as inner:
            MpiWorld(deterministic_variant(VAYU), 2, seed=1).launch(program)
        MpiWorld(deterministic_variant(VAYU), 2, seed=1).launch(program)
    assert (len(outer), len(inner)) == (2, 1)
