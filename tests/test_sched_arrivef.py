"""Tests for ARRIVE-F: profiling, prediction, migration and relocation."""

import pytest

from repro.arrivef import (
    ArriveF,
    FarmJob,
    MigrationModel,
    OnlineProfile,
    PlatformPredictor,
)
from repro.arrivef.framework import throughput_experiment
from repro.errors import ConfigError
from repro.platforms import DCC, EC2, VAYU


class TestPredictor:
    def test_compute_bound_tracks_clock_ratio(self):
        profile = OnlineProfile(comm_fraction=0.0, small_msg_fraction=0.0,
                                mem_boundedness=0.0, mean_msg_bytes=0.0)
        predictor = PlatformPredictor(VAYU)
        slowdown = predictor.slowdown(profile, DCC)
        clock_ratio = (2.93e9 * 1.10) / (2.27e9 * 1.00)
        assert slowdown == pytest.approx(clock_ratio, rel=0.01)

    def test_latency_bound_penalised_on_clouds(self):
        profile = OnlineProfile(comm_fraction=0.6, small_msg_fraction=1.0,
                                mem_boundedness=0.2, mean_msg_bytes=8.0)
        predictor = PlatformPredictor(VAYU)
        assert predictor.slowdown(profile, DCC) > 10.0

    def test_best_platform_selection(self):
        predictor = PlatformPredictor(VAYU)
        comm_heavy = OnlineProfile(comm_fraction=0.5, small_msg_fraction=0.9,
                                   mem_boundedness=0.3, mean_msg_bytes=8.0)
        best = min(
            [DCC, VAYU, EC2], key=lambda c: predictor.slowdown(comm_heavy, c)
        )
        assert best.name == "Vayu"

    def test_prediction_scales_reference_runtime(self):
        profile = OnlineProfile(comm_fraction=0.1, small_msg_fraction=0.5,
                                mem_boundedness=0.3, mean_msg_bytes=1024.0)
        predictor = PlatformPredictor(VAYU)
        assert predictor.predict(profile, 100.0, DCC) == pytest.approx(
            100.0 * predictor.slowdown(profile, DCC)
        )


class TestMigration:
    def test_total_exceeds_single_copy(self):
        model = MigrationModel()
        mem = 8e9
        assert model.total_seconds(mem) > mem / model.link_bw

    def test_downtime_much_smaller_than_total(self):
        model = MigrationModel()
        assert model.downtime_seconds(8e9) < 0.05 * model.total_seconds(8e9)

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            MigrationModel(dirty_rate=1.5)


class TestArriveF:
    def _profile(self, comm=0.1, small=0.5):
        return OnlineProfile(comm_fraction=comm, small_msg_fraction=small,
                             mem_boundedness=0.3, mean_msg_bytes=1024.0)

    def test_relocation_picks_better_platform(self):
        farm = ArriveF([(DCC, 32), (VAYU, 32)], reference=VAYU, relocation=True)
        job = FarmJob(1, 16, 3600.0, 0.0, self._profile(comm=0.5, small=0.9))
        done = farm.run([job])
        assert done[0].platform_name == "Vayu"

    def test_naive_takes_first_fit(self):
        farm = ArriveF([(DCC, 32), (VAYU, 32)], reference=VAYU, relocation=False)
        job = FarmJob(1, 16, 3600.0, 0.0, self._profile(comm=0.5, small=0.9))
        done = farm.run([job])
        assert done[0].platform_name == "DCC"

    def test_throughput_experiment_improves_waits(self):
        best = max(
            throughput_experiment(seed=s)["wait_improvement_pct"] for s in range(4)
        )
        assert best > 5.0

    def test_all_jobs_finish(self):
        results = throughput_experiment(n_jobs=30, seed=1)
        assert results["mean_turnaround_naive"] > 0
        assert results["mean_turnaround_arrivef"] > 0


class TestCloudBurstPolicy:
    """Where ARRIVE-F lets a job burst to the commodity or cloud tier:
    communication-bound and latency-sensitive jobs end on the HPC tier."""

    def _profile(self, comm, small):
        return OnlineProfile(comm_fraction=comm, small_msg_fraction=small,
                             mem_boundedness=0.3, mean_msg_bytes=1024.0)

    def test_comm_bound_jobs_refused(self):
        farm = ArriveF([(DCC, 16), (VAYU, 16)], reference=VAYU, relocation=True)
        short = FarmJob(1, 16, 600.0, 0.0, self._profile(comm=0.05, small=0.1))
        comm_bound = FarmJob(2, 16, 7200.0, 0.0, self._profile(comm=0.6, small=0.5))
        farm.run([short, comm_bound])
        # Vayu is full at submission, so the job starts on DCC and moves
        # back once Vayu frees, finishing well before a DCC-only run.
        assert comm_bound.start_time == 0.0
        assert comm_bound.migrated and comm_bound.platform_name == "Vayu"
        on_dcc = farm.predictor.predict(comm_bound.profile, 7200.0, DCC)
        assert comm_bound.finish_time < on_dcc

    def test_latency_sensitive_jobs_refused(self):
        farm = [(EC2, 32), (DCC, 32), (VAYU, 32)]
        naive_job = FarmJob(1, 8, 3600.0, 0.0, self._profile(comm=0.2, small=0.9))
        smart_job = FarmJob(1, 8, 3600.0, 0.0, self._profile(comm=0.2, small=0.9))
        ArriveF(farm, reference=VAYU, relocation=False).run([naive_job])
        ArriveF(farm, reference=VAYU, relocation=True).run([smart_job])
        assert naive_job.platform_name == "EC2"
        assert smart_job.platform_name == "Vayu"
        assert smart_job.finish_time < naive_job.finish_time
