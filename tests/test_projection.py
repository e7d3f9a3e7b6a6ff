"""The steady-step projection NPB, MetUM and Chaste share."""

import pytest

from repro.apps.chaste import ChasteBenchmark
from repro.apps.metum import MetumBenchmark
from repro.errors import ConfigError
from repro.npb import get_benchmark


@pytest.mark.parametrize("build, name, total", [
    pytest.param(lambda n: get_benchmark("is", sim_iters=n), "sim_iters",
                 lambda b: b.cfg.iterations, id="npb"),
    pytest.param(lambda n: MetumBenchmark(sim_steps=n), "sim_steps",
                 lambda b: b.cfg.timesteps, id="metum"),
    pytest.param(lambda n: ChasteBenchmark(sim_steps=n), "sim_steps",
                 lambda b: b.cfg.timesteps, id="chaste"),
])
def test_step_count_is_checked_and_clamped_to_the_run(build, name, total):
    with pytest.raises(ConfigError, match=f"{name} must be >= 1: 0"):
        build(0)
    bench = build(10**6)
    assert getattr(bench, name) == total(bench) < 10**6
