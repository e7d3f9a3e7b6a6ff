"""The OSU recurrences against their engine programs.

:func:`~repro.osu.osu_latency` and :func:`~repro.osu.osu_bandwidth`
compute their curves from recurrences over message times; the MPI
programs they mirror (``_latency_program``, ``_bw_program``), run on the
event engine between two ranks on two nodes, are the oracle.  The
curves must be equal float for float, with the same key order.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import RunConfig
from repro.errors import ConfigError
from repro.harness import experiments
from repro.osu import osu_bandwidth, osu_latency
from repro.osu.bandwidth import WINDOW_SIZE, _bw_program
from repro.osu.latency import _latency_program
from repro.platforms import DCC, EC2, VAYU, get_platform
from repro.smpi import MpiWorld, Placement, run_program

TWO_NODES = Placement(num_nodes=2, ranks_per_node=1)

#: Vayu's eager threshold (12 KiB) and DCC's and EC2's (64 KiB), each
#: with one byte more.
THRESHOLDS = [12288, 12289, 65536, 65537]


def _engine(kind, spec, sizes, iterations, warmup, seed, window=WINDOW_SIZE):
    if kind == "latency":
        args = (_latency_program, list(sizes), iterations, warmup)
    else:
        args = (_bw_program, list(sizes), iterations, warmup, window)
    return run_program(spec, 2, *args, placement=TWO_NODES, seed=seed).rank_results[0]


def _recurrence(kind, spec, sizes, iterations, warmup, seed, window=WINDOW_SIZE):
    if kind == "latency":
        return osu_latency(spec, sizes, iterations=iterations, warmup=warmup, seed=seed)
    return osu_bandwidth(
        spec, sizes, iterations=iterations, warmup=warmup, window=window, seed=seed
    )


def _agree(*args, **kwargs):
    engine = _engine(*args, **kwargs)
    assert list(_recurrence(*args, **kwargs).items()) == list(engine.items())


def _declared_cells():
    """Every OSU cell ``run all`` declares, quick and full."""
    for quick in (True, False):
        config = RunConfig(quick=quick, seed=1)
        for eid in ("fig1", "fig2"):
            for cell in experiments.CELLS[eid](config):
                assert cell.worker == "osu_curve"
                kind, platform, sizes, iterations, warmup, _seed = cell.args
                yield pytest.param(
                    kind, platform, sizes, iterations, warmup,
                    id=f"{'quick' if quick else 'full'}-{kind}-{platform}",
                )


@pytest.mark.parametrize("kind,platform,sizes,iterations,warmup", _declared_cells())
def test_declared_cells_match_engine(kind, platform, sizes, iterations, warmup):
    spec = get_platform(platform)
    for seed in range(1, 6):
        _agree(kind, spec, list(sizes), iterations, warmup, seed)


@pytest.mark.parametrize("spec", [VAYU, DCC, EC2], ids=lambda s: s.name)
@pytest.mark.parametrize("kind", ["latency", "bandwidth"])
def test_eager_thresholds(kind, spec):
    for seed in (1, 2):
        _agree(kind, spec, THRESHOLDS, 2, 1, seed)


@pytest.mark.parametrize("spec", [VAYU, DCC, EC2], ids=lambda s: s.name)
@pytest.mark.parametrize("window", [1, 3])
def test_small_windows(spec, window):
    _agree("bandwidth", spec, [1, 4096, *THRESHOLDS], 2, 1, 3, window=window)


@pytest.mark.parametrize("kind", ["latency", "bandwidth"])
def test_one_iteration_no_warmup(kind):
    for spec in (VAYU, DCC, EC2):
        _agree(kind, spec, [1, 12289, 65537], 1, 0, 4)


@pytest.mark.parametrize("kind", ["latency", "bandwidth"])
def test_no_receive_overhead(kind):
    """A fabric with ``o_recv == 0`` pays no receive-overhead step."""
    spec = dataclasses.replace(DCC, fabric=dataclasses.replace(DCC.fabric, o_recv=0.0))
    _agree(kind, spec, [1, 1024, 65537, 1 << 20], 2, 1, 5)


def test_no_world_is_built(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("the OSU curves must not build an MpiWorld")

    monkeypatch.setattr(MpiWorld, "__init__", refuse)
    assert osu_latency(DCC, [1, 1 << 20], iterations=2, warmup=1)
    assert osu_bandwidth(DCC, [1, 1 << 20], iterations=2, warmup=1)


def test_window_must_be_positive():
    with pytest.raises(ConfigError):
        osu_bandwidth(VAYU, [1], window=0)
