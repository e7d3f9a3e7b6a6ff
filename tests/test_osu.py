"""Tests for the OSU micro-benchmark implementations (Figs 1-2)."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.harness.paper import FIG1_LANDMARKS
from repro.osu import DEFAULT_SIZES, osu_bandwidth, osu_latency
from repro.platforms import DCC, EC2, VAYU

SIZES = [1, 1024, 65536, 262144, 1 << 22]


class TestLatency:
    def test_latency_increases_with_size(self):
        lat = osu_latency(VAYU, SIZES, iterations=20)
        vals = [lat[n] for n in SIZES]
        assert vals == sorted(vals)

    def test_vayu_microsecond_class(self):
        lat = osu_latency(VAYU, [1], iterations=50)
        assert lat[1] < 5e-6

    def test_platform_ordering_small_messages(self):
        lats = {s.name: osu_latency(s, [1], iterations=30)[1] for s in (DCC, EC2, VAYU)}
        assert lats["Vayu"] < lats["EC2"] < lats["DCC"]

    def test_dcc_latency_fluctuates_others_do_not(self):
        """Fig 2: DCC 'fluctuated from 1 byte to 512KB messages'.

        A clean fabric's latency-vs-size curve is monotone; DCC's
        vSwitch jitter makes it wiggle.  The fluctuation metric is the
        total magnitude of *decreases* along the curve, relative to the
        mean — exactly zero for a monotone curve.
        """
        sizes = [2**k for k in range(0, 14)]

        def wiggle(spec):
            lat = osu_latency(spec, sizes, iterations=25, seed=3)
            vals = np.array([lat[n] for n in sizes])
            drops = np.clip(np.diff(vals), None, 0.0)
            return float(-drops.sum() / vals.mean())

        assert wiggle(VAYU) < 0.01
        assert wiggle(EC2) < 0.15
        assert wiggle(DCC) > 0.3

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            osu_latency(VAYU, [])
        with pytest.raises(ConfigError):
            osu_latency(VAYU, [0])


class TestBandwidth:
    def test_bandwidth_increases_to_peak(self):
        bw = osu_bandwidth(VAYU, SIZES, iterations=4)
        assert bw[1] < bw[1024] < bw[65536]

    def test_fig1_landmarks(self):
        ec2 = max(osu_bandwidth(EC2, SIZES, iterations=4).values())
        dcc = max(osu_bandwidth(DCC, SIZES, iterations=4).values())
        vayu = max(osu_bandwidth(VAYU, SIZES, iterations=4).values())
        assert ec2 == pytest.approx(FIG1_LANDMARKS["ec2_peak_bw"], rel=0.15)
        assert dcc == pytest.approx(FIG1_LANDMARKS["dcc_peak_bw"], rel=0.15)
        assert vayu / ec2 > 5.0

    def test_ec2_large_message_droop(self):
        """Fig 1 shows EC2 bandwidth declining past ~1MB."""
        bw = osu_bandwidth(EC2, [262144, 1 << 22], iterations=4)
        assert bw[1 << 22] < bw[262144]

    def test_default_sizes_span_osu_range(self):
        assert DEFAULT_SIZES[0] == 1 and DEFAULT_SIZES[-1] == 1 << 22

