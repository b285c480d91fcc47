"""Integration tests: the full signal path and the paper's storyline.

These tests cross module boundaries on purpose: workload → core → chip →
PDN → measurement → resilience/scheduling, checking the *relationships*
the library exists to reproduce.
"""

import numpy as np
import pytest

from repro import (
    Chip,
    IdleLoop,
    MeasurementCampaign,
    PowerVirus,
    ResilientDesignModel,
    WORST_CASE_MARGIN,
    spec_benchmark,
)
from repro.core import BatchScheduler, DroopPolicy, GroupOracle, IPCPolicy
from repro.measurement.droops import detect_droops

N = 40_000


class TestSignalPath:
    def test_busy_chip_is_noisier_than_idle(self):
        chip = Chip("Proc100")
        idle = IdleLoop()
        quiet = chip.run(
            [idle.sample_window(N, rng=0), idle.sample_window(N, rng=1)],
            seed=0,
        )
        busy = chip.run(
            [
                spec_benchmark("mcf").sample_window(N, rng=0),
                spec_benchmark("lbm").sample_window(N, rng=1),
            ],
            seed=0,
        )
        assert (
            busy.voltage.peak_to_peak_fraction()
            > quiet.voltage.peak_to_peak_fraction()
        )
        assert (
            detect_droops(busy.voltage).count
            > detect_droops(quiet.voltage).count
        )

    def test_virus_is_worst_but_within_margin_on_stock(self):
        """No workload breaks the 14 % guardband on the stock machine."""
        chip = Chip("Proc100", with_ripple=True)
        virus = PowerVirus()
        run = chip.run(
            [virus.sample_window(N), virus.sample_window(N)], seed=0
        )
        mcf = chip.run(
            [
                spec_benchmark("mcf").sample_window(N, rng=2),
                spec_benchmark("mcf").sample_window(N, rng=3),
            ],
            seed=0,
        )
        assert run.voltage.max_droop_fraction() > mcf.voltage.max_droop_fraction()
        assert run.voltage.max_droop_fraction() < WORST_CASE_MARGIN

    def test_decap_removal_amplifies_the_same_workload(self):
        windows = [
            spec_benchmark("libquantum").sample_window(N, rng=0),
            spec_benchmark("milc").sample_window(N, rng=1),
        ]
        pkpk = {}
        for config in ("Proc100", "Proc25", "Proc3"):
            run = Chip(config, with_ripple=True).run(windows, seed=5)
            pkpk[config] = run.voltage.peak_to_peak_fraction()
        assert pkpk["Proc100"] < pkpk["Proc25"] < pkpk["Proc3"]


class TestPaperStoryline:
    """The three-act structure of the paper, end to end."""

    @pytest.fixture(scope="class")
    def campaign(self):
        return MeasurementCampaign("Proc3", n_cycles=20_000, seed=11)

    SUBSET = ("gamess", "lbm", "mcf", "namd", "sphinx", "tonto")

    def test_act1_typical_case_gap_exists(self, campaign):
        """Most samples sit far inside the worst-case margin."""
        runs = campaign.single_threaded_runs(self.SUBSET)
        merged = runs[0].histogram
        for run in runs[1:]:
            merged = merged.merge(run.histogram)
        # Even on the noisy Proc3 node, the bulk is within half the margin.
        assert merged.fraction_below(-WORST_CASE_MARGIN / 2) < 0.02

    def test_act2_resilience_gains_decay_with_recovery_cost(self, campaign):
        runs = campaign.all_runs(self.SUBSET, ("canneal",))
        model = ResilientDesignModel([r.tail_model() for r in runs])
        fine = model.optimal_margin(10)
        coarse = model.optimal_margin(100_000)
        assert fine.improvement > coarse.improvement
        assert fine.margin <= coarse.margin

    def test_act3_noise_aware_scheduling_reduces_droops(self, campaign):
        oracle = GroupOracle(campaign)
        scheduler = BatchScheduler(oracle, programs=self.SUBSET)
        baseline = scheduler.evaluate(
            scheduler.specrate_schedule(), "SPECrate"
        )
        droop_eval = scheduler.run_policy(DroopPolicy(), n_pairs=12, seed=7)
        ipc_eval = scheduler.run_policy(IPCPolicy(), n_pairs=12, seed=7)
        droops_rel, perf_rel = droop_eval.normalized_to(baseline)
        # The Droop policy cuts droops without hurting throughput...
        assert droops_rel < 1.0
        assert perf_rel > 0.95
        # ...and is strictly more noise-effective than IPC scheduling.
        assert droop_eval.mean_droops <= ipc_eval.mean_droops


class TestDeterminism:
    def test_whole_pipeline_reproducible(self):
        def run_once():
            campaign = MeasurementCampaign("Proc25", n_cycles=15_000, seed=3)
            run = campaign.measure("astar", "povray")
            return (
                run.max_droop,
                run.droop_samples_per_1k,
                run.throughput_ipc,
                run.droops.count,
            )

        assert run_once() == run_once()
