"""Tests for the deterministic collective-cost cache (repro.perf.memo).

The cache contract is *exactness*: a hit must return bit-for-bit the
value a fresh evaluation would produce, and configurations that differ
in any cost-relevant way (platform fabric, rank/node mapping, algorithm,
message size) must occupy distinct keys.
"""

from __future__ import annotations

import pytest

from repro.npb import get_benchmark
from repro.perf import CollectiveMemo, clear_default_memo, default_memo, memo_stats
from repro.platforms import get_platform
from repro.smpi.collectives import algorithms as alg


def _ctx(platform: str = "vayu", p: int = 16, nnodes: int = 2, rpn: int = 8):
    spec = get_platform(platform)
    return alg.CollectiveContext(p=p, nnodes=nnodes, rpn=rpn, net=spec.fabric, shm=spec.shm)


class _Counting:
    """Wraps a cost function, counting evaluations."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, ctx, nbytes):
        self.calls += 1
        return self.fn(ctx, nbytes)


def test_hit_returns_exact_fresh_value():
    memo = CollectiveMemo()
    ctx = _ctx()
    fn = _Counting(alg.allreduce_time)
    first = memo.time("allreduce", ctx, 4096, fn)
    second = memo.time("allreduce", ctx, 4096, fn)
    assert fn.calls == 1, "second lookup must be served from the table"
    assert first == second == alg.allreduce_time(ctx, 4096)
    stats = memo.stats()
    assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)
    assert stats.hit_rate == 0.5


def test_platforms_never_collide():
    memo = CollectiveMemo()
    vayu, ec2 = _ctx("vayu"), _ctx("ec2")
    t_vayu = memo.time("allreduce", vayu, 4096, alg.allreduce_time)
    t_ec2 = memo.time("allreduce", ec2, 4096, alg.allreduce_time)
    assert len(memo) == 2
    assert t_vayu == alg.allreduce_time(vayu, 4096)
    assert t_ec2 == alg.allreduce_time(ec2, 4096)
    assert t_vayu != t_ec2, "vayu IB and EC2 ethernet must price differently"


def test_mappings_never_collide():
    memo = CollectiveMemo()
    packed = _ctx(nnodes=2, rpn=8)
    spread = _ctx(nnodes=4, rpn=4)
    memo.time("alltoall", packed, 65536, alg.alltoall_time)
    memo.time("alltoall", spread, 65536, alg.alltoall_time)
    assert len(memo) == 2, "distinct node mappings must occupy distinct keys"
    # Each hit serves its own mapping's fresh value, never the other's.
    t_packed = memo.time("alltoall", packed, 65536, alg.alltoall_time)
    t_spread = memo.time("alltoall", spread, 65536, alg.alltoall_time)
    assert memo.stats().hits == 2
    assert t_packed == alg.alltoall_time(packed, 65536)
    assert t_spread == alg.alltoall_time(spread, 65536)
    assert t_packed != t_spread, "node mapping changes inter-node traffic"


def test_algorithms_and_sizes_never_collide():
    memo = CollectiveMemo()
    ctx = _ctx()
    memo.time("allreduce", ctx, 4096, alg.allreduce_time)
    memo.time("alltoall", ctx, 4096, alg.alltoall_time)
    memo.time("allreduce", ctx, 8192, alg.allreduce_time)
    assert len(memo) == 3
    assert memo.stats().misses == 3


def test_disabled_memo_always_evaluates():
    memo = CollectiveMemo(enabled=False)
    ctx = _ctx()
    fn = _Counting(alg.allreduce_time)
    a = memo.time("allreduce", ctx, 4096, fn)
    b = memo.time("allreduce", ctx, 4096, fn)
    assert fn.calls == 2
    assert a == b
    assert len(memo) == 0


def test_max_entries_caps_storage_not_correctness():
    memo = CollectiveMemo(max_entries=1)
    ctx = _ctx()
    memo.time("allreduce", ctx, 1024, alg.allreduce_time)
    t = memo.time("allreduce", ctx, 2048, alg.allreduce_time)
    assert len(memo) == 1, "past the cap, values are computed but not stored"
    assert t == alg.allreduce_time(ctx, 2048)


def test_clear_resets_table_and_counters():
    memo = CollectiveMemo()
    ctx = _ctx()
    memo.time("allreduce", ctx, 4096, alg.allreduce_time)
    memo.time("allreduce", ctx, 4096, alg.allreduce_time)
    memo.clear()
    stats = memo.stats()
    assert (stats.hits, stats.misses, stats.entries) == (0, 0, 0)


@pytest.mark.parametrize("platform", ["vayu", "dcc"])
def test_cold_vs_warm_npb_run_identical(platform):
    """A cache-warm rerun reproduces the cold run bit-for-bit."""
    clear_default_memo()
    spec = get_platform(platform)
    cold = get_benchmark("cg").run(spec, 8, seed=3)
    assert memo_stats().misses > 0, "CG collectives should populate the cache"
    warm = get_benchmark("cg").run(spec, 8, seed=3)
    assert memo_stats().hits > 0, "rerun should be served from the cache"
    assert warm.projected_time == cold.projected_time
    assert warm.comm_percent == cold.comm_percent
    clear_default_memo()


def test_default_memo_is_process_shared():
    assert default_memo() is default_memo()
