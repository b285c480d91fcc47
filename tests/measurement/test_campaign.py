"""Unit tests for the measurement campaign (the 881-run protocol)."""

import pytest

from repro.errors import ConfigurationError, WorkloadError
from repro.measurement.campaign import MeasurementCampaign


@pytest.fixture(scope="module")
def campaign():
    return MeasurementCampaign("Proc100", n_cycles=12_000, seed=3)


SUBSET = ("mcf", "namd", "sphinx")


class TestMeasure:
    def test_single_run_kind_inference(self, campaign):
        run = campaign.measure("mcf")
        assert run.spec.kind == "single"
        assert run.spec.workloads == ("mcf",)
        assert run.n_cycles == 12_000

    def test_parsec_runs_multithreaded(self, campaign):
        run = campaign.measure("canneal")
        assert run.spec.kind == "multithread"

    def test_pair_run(self, campaign):
        run = campaign.measure("mcf", "namd")
        assert run.spec.kind == "multiprogram"
        assert len(run.counters) == 2

    def test_caching_returns_same_object(self, campaign):
        a = campaign.measure("mcf", "namd")
        b = campaign.measure("mcf", "namd")
        assert a is b

    def test_unknown_workload_rejected(self, campaign):
        with pytest.raises(WorkloadError):
            campaign.measure("crysis")

    def test_too_many_workloads_rejected(self, campaign):
        with pytest.raises(ConfigurationError):
            campaign.measure("mcf", "namd", "lbm")

    def test_derived_metrics(self, campaign):
        run = campaign.measure("mcf", "namd")
        assert 0 < run.throughput_ipc < 5
        assert 0 <= run.mean_stall_ratio <= 1
        assert run.max_droop >= 0
        assert run.histogram.total == 12_000

    def test_empty_batch_simulates_nothing(self, campaign):
        assert campaign.simulate_batch([]) == []


class TestSuites:
    def test_single_threaded_subset(self, campaign):
        runs = campaign.single_threaded_runs(SUBSET)
        assert [r.spec.workloads[0] for r in runs] == list(SUBSET)

    def test_multiprogram_is_cartesian(self, campaign):
        runs = campaign.multiprogram_runs(SUBSET)
        assert len(runs) == 9

    def test_specrate_is_diagonal(self, campaign):
        runs = campaign.specrate_runs(SUBSET)
        assert all(r.spec.workloads[0] == r.spec.workloads[1] for r in runs)

    def test_all_runs_protocol_size(self, campaign):
        runs = campaign.all_runs(SUBSET, ("canneal",))
        assert len(runs) == 3 + 1 + 9

    def test_full_protocol_would_be_881(self):
        """29 ST + 11 MT + 29*29 MP = 881 runs, the paper's number."""
        from repro.workloads.parsec import PARSEC
        from repro.workloads.spec import SPEC_CPU2006

        assert len(SPEC_CPU2006) + len(PARSEC) + len(SPEC_CPU2006) ** 2 == 881


class TestDeterminism:
    def test_same_seed_same_measurements(self):
        a = MeasurementCampaign("Proc100", n_cycles=10_000, seed=9)
        b = MeasurementCampaign("Proc100", n_cycles=10_000, seed=9)
        ra = a.measure("lbm")
        rb = b.measure("lbm")
        assert ra.droop_samples_per_1k == rb.droop_samples_per_1k
        assert ra.max_droop == rb.max_droop

    def test_different_seed_differs(self):
        a = MeasurementCampaign("Proc100", n_cycles=10_000, seed=9)
        b = MeasurementCampaign("Proc100", n_cycles=10_000, seed=10)
        assert a.measure("lbm").max_droop != b.measure("lbm").max_droop

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MeasurementCampaign("Proc100", n_cycles=10)
