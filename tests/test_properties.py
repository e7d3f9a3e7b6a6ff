"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.hardware.cpu import CoreSpec, CpuSpec, SocketSpec
from repro.hardware.interconnect import BandwidthCurve, FabricSpec
from repro.hardware.storage import FilesystemSpec
from repro.npb.base import NpbBenchmark, intra_fraction
from repro.sim import Engine, Resource, Store
from repro.smpi.collectives.algorithms import (
    CollectiveContext,
    allgather_time,
    allreduce_time,
    alltoall_time,
    barrier_time,
    gather_time,
)

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

sizes = st.integers(min_value=0, max_value=1 << 26)
pos_sizes = st.integers(min_value=1, max_value=1 << 26)
procs = st.integers(min_value=1, max_value=256)


@st.composite
def fabrics(draw):
    peak = draw(st.floats(min_value=1e7, max_value=1e10))
    n_half = draw(st.floats(min_value=64.0, max_value=65536.0))
    latency = draw(st.floats(min_value=1e-7, max_value=1e-3))
    return FabricSpec(
        name="f",
        latency=latency,
        bw=BandwidthCurve(peak=peak, n_half=n_half),
        o_send=draw(st.floats(min_value=0.0, max_value=1e-5)),
        o_recv=draw(st.floats(min_value=0.0, max_value=1e-5)),
        eager_threshold=draw(st.integers(min_value=0, max_value=1 << 20)),
    )


@st.composite
def contexts(draw):
    p = draw(st.integers(min_value=1, max_value=128))
    nnodes = draw(st.integers(min_value=1, max_value=p))
    rpn = max(1, -(-p // nnodes))
    rpn = min(rpn, p)
    return CollectiveContext(
        p=p, nnodes=nnodes, rpn=rpn,
        net=draw(fabrics()),
        shm=draw(fabrics()),
        extra_latency=draw(st.floats(min_value=0.0, max_value=1e-3)),
    )


# ---------------------------------------------------------------------------
# Fabric / bandwidth-curve invariants
# ---------------------------------------------------------------------------


class TestFabricProperties:
    @given(fabrics(), sizes)
    def test_oneway_time_nonnegative_and_finite(self, fabric, n):
        t = fabric.oneway_time(n)
        assert t >= 0.0 and math.isfinite(t)

    @given(fabrics(), pos_sizes, pos_sizes)
    def test_oneway_monotone_in_size(self, fabric, a, b):
        lo, hi = sorted((a, b))
        assert fabric.oneway_time(lo) <= fabric.oneway_time(hi) + 1e-15

    @given(st.floats(min_value=1e6, max_value=1e11), pos_sizes)
    def test_effective_bw_bounded_by_peak(self, peak, n):
        curve = BandwidthCurve(peak=peak, n_half=1024)
        assert 0 < curve.at(n) <= peak

    @given(pos_sizes)
    def test_decline_curve_bounded_below(self, n):
        curve = BandwidthCurve(peak=1e9, n_half=1024, decline=0.4)
        assert curve.at(n) >= 1e9 * 0.59 * n / (n + 1024)


# ---------------------------------------------------------------------------
# Collective cost-model invariants
# ---------------------------------------------------------------------------


class TestCollectiveProperties:
    @given(contexts(), sizes)
    @settings(max_examples=60)
    def test_all_costs_nonnegative_finite(self, ctx, n):
        for fn in (allreduce_time, allgather_time, alltoall_time, gather_time):
            t = fn(ctx, float(n))
            assert t >= 0.0 and math.isfinite(t)
        assert barrier_time(ctx) >= 0.0

    @given(contexts(), pos_sizes, pos_sizes)
    @settings(max_examples=60)
    def test_alltoall_monotone_in_volume(self, ctx, a, b):
        lo, hi = sorted((a, b))
        assert alltoall_time(ctx, lo) <= alltoall_time(ctx, hi) + 1e-12

    @given(contexts())
    @settings(max_examples=60)
    def test_single_rank_free(self, ctx):
        solo = CollectiveContext(p=1, nnodes=1, rpn=1, net=ctx.net, shm=ctx.shm)
        assert allreduce_time(solo, 4096.0) == 0.0
        assert alltoall_time(solo, 4096.0) == 0.0

    @given(contexts(), st.floats(min_value=0, max_value=1e-3))
    @settings(max_examples=60)
    def test_extra_latency_never_speeds_up(self, ctx, extra):
        slower = CollectiveContext(
            p=ctx.p, nnodes=ctx.nnodes, rpn=ctx.rpn, net=ctx.net, shm=ctx.shm,
            extra_latency=ctx.extra_latency + extra,
        )
        assert allreduce_time(slower, 8.0) >= allreduce_time(ctx, 8.0) - 1e-15


# ---------------------------------------------------------------------------
# CPU model invariants
# ---------------------------------------------------------------------------


@st.composite
def cpus(draw):
    cores = draw(st.integers(min_value=1, max_value=16))
    smt = draw(st.integers(min_value=1, max_value=4))
    smt_yield = draw(st.floats(min_value=1.0, max_value=float(smt)))
    return CpuSpec(
        model="m",
        sockets=draw(st.integers(min_value=1, max_value=4)),
        socket=SocketSpec(
            cores=cores,
            core=CoreSpec(clock_hz=2e9),
            l2_cache_bytes=8 << 20,
            mem_bw=1e10,
        ),
        smt=smt,
        smt_enabled=draw(st.booleans()),
        smt_yield=smt_yield,
    )


class TestCpuProperties:
    @given(cpus(), st.integers(min_value=1, max_value=512))
    def test_throughput_factor_in_unit_interval(self, cpu, ranks):
        f = cpu.core_throughput_factor(ranks)
        assert 0.0 < f <= 1.0

    @given(cpus(), st.integers(min_value=1, max_value=255))
    def test_throughput_factor_monotone_nonincreasing(self, cpu, ranks):
        assert cpu.core_throughput_factor(ranks + 1) <= cpu.core_throughput_factor(
            ranks
        ) + 1e-12

    @given(cpus(), st.integers(min_value=1, max_value=512))
    def test_node_throughput_never_exceeds_smt_ceiling(self, cpu, ranks):
        total = ranks * cpu.core_throughput_factor(ranks)
        ceiling = cpu.physical_cores * (cpu.smt_yield if cpu.smt_enabled else 1.0)
        assert total <= ceiling + 1e-9


# ---------------------------------------------------------------------------
# Filesystem invariants
# ---------------------------------------------------------------------------


class TestFilesystemProperties:
    @given(
        st.floats(min_value=1e6, max_value=1e9),
        st.floats(min_value=1e6, max_value=1e10),
        st.floats(min_value=0, max_value=1e9),
        st.integers(min_value=1, max_value=512),
    )
    def test_read_time_positive_and_monotone_in_clients(self, cbw, abw, n, clients):
        fs = FilesystemSpec(name="f", client_bw=cbw, aggregate_bw=abw)
        t1 = fs.read_time(n, 1)
        tc = fs.read_time(n, clients)
        assert tc >= t1 - 1e-12
        assert fs.write_time(n, clients) >= tc - 1e-12


# ---------------------------------------------------------------------------
# NPB helpers
# ---------------------------------------------------------------------------


class TestNpbHelperProperties:
    @given(st.integers(min_value=0, max_value=9))
    def test_grid2d_product(self, k):
        p = 1 << k
        px, py = NpbBenchmark.grid2d(p)
        assert px * py == p and px <= py <= 2 * px * 2

    @given(st.integers(min_value=0, max_value=9))
    def test_grid3d_product_and_balance(self, k):
        p = 1 << k
        a, b, c = NpbBenchmark.grid3d(p)
        assert a * b * c == p
        assert c <= 2 * a * 2  # near-cubic: max/min factor bounded

    @given(st.integers(min_value=1, max_value=100000),
           st.integers(min_value=1, max_value=64))
    def test_split_extent_partition(self, n, parts):
        chunks = [NpbBenchmark.split_extent(n, parts, i) for i in range(parts)]
        assert sum(chunks) == n
        assert max(chunks) - min(chunks) <= 1

    @given(st.integers(min_value=0, max_value=64), st.integers(min_value=1, max_value=64))
    def test_intra_fraction_unit_interval(self, stride, rpn):
        f = intra_fraction(stride, rpn)
        assert 0.0 <= f <= 1.0


# ---------------------------------------------------------------------------
# Engine invariants
# ---------------------------------------------------------------------------


class TestEngineProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1,
                    max_size=30))
    @settings(max_examples=50)
    def test_dispatch_order_is_time_sorted(self, delays):
        eng = Engine()
        seen = []
        for d in delays:
            eng.timeout(d).add_callback(lambda _e, d=d: seen.append(eng.now))
        eng.run()
        assert seen == sorted(seen)
        assert eng.now == pytest.approx(max(delays))

    @given(st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=20))
    @settings(max_examples=30)
    def test_resource_never_overcommits(self, capacity, workers):
        eng = Engine()
        res = Resource(eng, capacity=capacity)
        peak = 0

        def worker():
            nonlocal peak
            yield res.request()
            peak = max(peak, res.in_use)
            yield eng.timeout(1.0)
            res.release()

        for _ in range(workers):
            eng.process(worker())
        eng.run()
        assert peak <= capacity
        assert res.in_use == 0

    @given(st.lists(st.integers(), min_size=0, max_size=40))
    @settings(max_examples=50)
    def test_store_is_fifo(self, items):
        eng = Engine()
        store = Store(eng)
        for item in items:
            store.put(item)
        got = []

        def getter():
            for _ in items:
                got.append((yield store.get()))

        eng.process(getter())
        eng.run()
        assert got == items
