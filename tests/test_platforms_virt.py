"""Tests for the platform models and virtualisation layer."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.platforms import DCC, EC2, VAYU, all_platforms, get_platform, platform_table
from repro.platforms.base import Platform, RankComputeModel
from repro.sim import Engine
from repro.smpi.mapping import Placement, place_ranks
from repro.virt import NoHypervisor, OsNoiseModel, VmwareEsx, XenHvm


class TestRegistry:
    def test_lookup_case_insensitive(self):
        assert get_platform("VAYU") is VAYU
        assert get_platform("dcc") is DCC

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            get_platform("azure")

    def test_all_platforms_in_paper_order(self):
        assert [p.name for p in all_platforms()] == ["DCC", "EC2", "Vayu"]

    def test_table1_matches_paper_values(self):
        table = platform_table()
        for fragment in (
            "Intel Xeon E5520", "Intel Xeon X5570", "2.27GHz", "2.93GHz",
            "8MB (shared)", "40GB", "20GB", "24GB", "Lustre", "NFS",
            "QDR IB", "1GigE", "10 GigE",
        ):
            assert fragment in table, fragment


class TestComputeModel:
    def _platform(self, spec, nprocs, placement=None):
        plat = Platform(spec, Engine(seed=1))
        place_ranks(plat, nprocs, placement)
        return plat

    def test_serial_ratio_tracks_clock(self):
        pv = self._platform(VAYU, 1)
        pd = self._platform(DCC, 1)
        tv = pv.compute_model(0).seconds(1e9, 0.0)[0]
        td = pd.compute_model(0).seconds(1e9, 0.0)[0]
        assert td / tv == pytest.approx((2.93 * 1.10) / 2.27, rel=1e-6)

    def test_memory_bandwidth_shared_per_socket(self):
        solo = self._platform(VAYU, 1).compute_model(0)
        full = self._platform(VAYU, 8).compute_model(0)
        t_solo = solo.seconds(0.0, 1e9)[0]
        t_full = full.seconds(0.0, 1e9)[0]
        assert t_full == pytest.approx(4 * t_solo, rel=1e-6)

    def test_cache_residency_cuts_traffic(self):
        model = RankComputeModel(1e9, 1e9, cache_share=8e6)
        big, _ = model.seconds(0.0, 1e8, working_set=1e9)
        small, _ = model.seconds(0.0, 1e8, working_set=9e6)
        assert small < 0.3 * big

    def test_miss_floor(self):
        model = RankComputeModel(1e9, 1e9, cache_share=8e6)
        assert model.miss_factor(1e3) == RankComputeModel.MISS_FLOOR

    def test_numa_penalty_only_when_masked_and_spanning(self):
        masked = self._platform(DCC, 8).compute_model(0)
        affinity = self._platform(VAYU, 8).compute_model(0)
        # Same share arithmetic, but DCC's bandwidth carries the penalty
        # (plus the clock difference handled separately).
        dcc_bw = masked.mem_bw
        vayu_bw = affinity.mem_bw
        assert dcc_bw < (11.5e9 / 4) * 0.999
        assert vayu_bw == pytest.approx(16e9 / 4)

    def test_single_rank_platform_no_penalty(self):
        solo = self._platform(DCC, 1).compute_model(0)
        assert solo.mem_bw == pytest.approx(11.5e9)

    def test_random_access_noise_exceeds_stream(self):
        plat = self._platform(DCC, 8)
        rnd = [plat.compute_seconds(0, 1e7, 2e8, 1e9, "random") for _ in range(60)]
        stream = [plat.compute_seconds(0, 1e7, 2e8, 1e9, "stream") for _ in range(60)]
        assert np.mean(rnd) > np.mean(stream)

    def test_unknown_access_pattern_rejected(self):
        plat = self._platform(DCC, 8)
        with pytest.raises(ConfigError):
            plat.compute_seconds(0, 1e7, 1e8, access="strided")

    def test_unplaced_rank_rejected(self):
        plat = Platform(VAYU, Engine())
        with pytest.raises(ConfigError):
            plat.compute_model(0)

    def test_shm_pressure_worst_of_nodes(self):
        plat = self._platform(DCC, 8)
        assert plat.worst_shm_pressure() < 1.0
        empty = Platform(VAYU, Engine())
        assert empty.worst_shm_pressure() == 1.0


class TestHypervisors:
    def test_base_hypervisor_is_transparent(self):
        hv = NoHypervisor()
        rng = np.random.default_rng(0)
        assert hv.net_extra_latency(rng) == 0.0
        assert hv.compute_jitter(rng, 1.0) == 0.0
        assert not hv.masks_numa

    def test_esx_latency_has_heavy_tail(self):
        hv = VmwareEsx()
        rng = np.random.default_rng(1)
        draws = np.array([hv.net_extra_latency(rng) for _ in range(4000)])
        assert draws.min() >= hv.switch_latency
        assert draws.max() > 5 * np.median(draws)  # the spike tail

    def test_xen_latency_stable(self):
        hv = XenHvm()
        rng = np.random.default_rng(1)
        draws = np.array([hv.net_extra_latency(rng) for _ in range(4000)])
        assert draws.std() / draws.mean() < 0.5

    def test_system_time_attribution_ordering(self):
        assert VmwareEsx().system_time_share > XenHvm().system_time_share
        assert XenHvm().system_time_share > NoHypervisor().system_time_share

    def test_noise_model_validation(self):
        with pytest.raises(ConfigError):
            OsNoiseModel(frac=-0.1)
        with pytest.raises(ConfigError):
            OsNoiseModel(spike_prob=2.0)

    def test_noise_zero_duration(self):
        main = np.random.default_rng(0)
        spikes = np.random.default_rng(1)
        state = (main.bit_generator.state, spikes.bit_generator.state)
        model = OsNoiseModel(spike_prob=1.0, spike_seconds=1.0)
        assert model.sample(main, 0.0, spike_rng=spikes) == 0.0
        assert (main.bit_generator.state, spikes.bit_generator.state) == state

    def test_noise_needs_a_spike_stream(self):
        """No shared-stream fallback: the spike draws always come from
        their own stream."""
        with pytest.raises(TypeError):
            OsNoiseModel().sample(np.random.default_rng(0), 1.0)

    def test_noise_spike_stream_isolates_main_stream(self):
        """With a dedicated ``spike_rng``, the main stream's consumption
        is identical across spike settings, draw for draw."""
        for prob in (0.0, 1.0):
            main = np.random.default_rng(7)
            spikes = np.random.default_rng(11)
            model = OsNoiseModel(frac=1.0, spike_prob=prob)
            for _ in range(3):
                model.sample(main, 1.0, spike_rng=spikes)
            # After three samples the main stream has advanced exactly
            # three exponential draws regardless of spike probability.
            check = np.random.default_rng(7)
            for _ in range(3):
                check.exponential(1.0)
            assert main.exponential(1.0) == check.exponential(1.0)


    def test_zero_spike_prob_skips_dedicated_spike_stream(self):
        """With ``spike_prob`` 0 no spike can be added, so a dedicated
        spike stream is left untouched, while the main stream still
        advances by one exponential per burst."""
        main = np.random.default_rng(7)
        spikes = np.random.default_rng(11)
        state = spikes.bit_generator.state
        model = OsNoiseModel(frac=0.5, spike_prob=0.0, spike_seconds=1.0)
        got = [model.sample(main, 2.0, spike_rng=spikes) for _ in range(4)]
        assert spikes.bit_generator.state == state
        check = np.random.default_rng(7)
        assert got == [2.0 * 0.5 * check.exponential(1.0) for _ in range(4)]
        assert main.bit_generator.state == check.bit_generator.state

class TestPlacementInteractions:
    def test_finalize_required_after_placement(self):
        plat = Platform(VAYU, Engine())
        place_ranks(plat, 4)
        assert plat.compute_model(3) is not None

    def test_cyclic_ec2_gives_full_cores(self):
        plat = Platform(EC2, Engine())
        place_ranks(plat, 8, Placement(strategy="cyclic", num_nodes=4))
        # 2 ranks per node: no SMT sharing.
        assert plat.compute_model(0).flop_rate == pytest.approx(2.93e9 * 1.1)

    def test_block_ec2_ht_throttles(self):
        plat = Platform(EC2, Engine())
        place_ranks(plat, 16, Placement(strategy="block"))
        assert plat.compute_model(0).flop_rate == pytest.approx(
            2.93e9 * 1.1 * 0.625
        )
