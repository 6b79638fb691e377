"""Integration tests asserting the paper's headline result *shapes*.

These exercise the full pipeline (topology -> background -> campaigns ->
analysis) at reduced sample counts and assert the qualitative findings:

* AD3 improves MILC's mean runtime and reduces its variability (Fig. 2),
* HACC is the exception and prefers AD0 (Table II / Fig. 8),
* AD3 is the best of the four modes for the mixed workload (Fig. 9),
* controlled MILC ensembles move less traffic under AD3 (Fig. 10),
* HACC ensembles show backpressure flit inflation on their hot rank-3
  cables under AD3 (Fig. 12),
* the facility default change lowers flits and median latency (Figs. 13/14).
"""

import numpy as np
import pytest

from repro.apps import HACC, MILC
from repro.core.biases import AD0, AD1, AD2, AD3
from repro.core.ensembles import EnsembleConfig, run_ensemble
from repro.core.experiment import CampaignConfig, run_campaign, stats_by_mode


@pytest.fixture(scope="module")
def milc_recs(theta_top):
    cfg = CampaignConfig(app=MILC(), samples=12, seed=77)
    return run_campaign(theta_top, cfg)


@pytest.fixture(scope="module")
def hacc_recs(theta_top):
    cfg = CampaignConfig(app=HACC(), samples=10, seed=77)
    return run_campaign(theta_top, cfg)


class TestMilcProduction:
    def test_ad3_improves_mean(self, milc_recs):
        st = stats_by_mode(milc_recs)
        assert st["AD3"].mean < st["AD0"].mean

    def test_ad3_reduces_variability(self, milc_recs):
        # Fig. 2: lower run-to-run variability under AD3
        st = stats_by_mode(milc_recs)
        assert st["AD3"].std < st["AD0"].std * 1.05

    def test_ad3_reduces_tail(self, milc_recs):
        st = stats_by_mode(milc_recs)
        assert st["AD3"].p95 < st["AD0"].p95

    def test_runtime_magnitude(self, milc_recs):
        # the paper's 256-node MILC runs take roughly 400-700 s
        st = stats_by_mode(milc_recs)
        assert 300 < st["AD0"].mean < 900

    def test_mpi_fraction_near_table1(self, milc_recs):
        fracs = [r.mpi_fraction for r in milc_recs if r.mode == "AD0"]
        assert 0.3 < np.mean(fracs) < 0.7  # Table I: 52%

    def test_allreduce_improves_under_ad3(self, milc_recs):
        # Fig. 5: the latency-bound MPI time shrinks with minimal bias
        def ar_mean(mode):
            return np.mean(
                [r.report.ops["MPI_Allreduce"].time for r in milc_recs if r.mode == mode]
            )

        assert ar_mean("AD3") < ar_mean("AD0")


class TestHaccProduction:
    def test_hacc_prefers_ad0(self, hacc_recs):
        # Table II: the one application that degrades under AD3
        st = stats_by_mode(hacc_recs)
        assert st["AD3"].mean > st["AD0"].mean

    def test_hacc_degradation_is_mild(self, hacc_recs):
        # -2.7% in the paper; the model should stay within ~[-15%, 0)
        st = stats_by_mode(hacc_recs)
        loss = (st["AD3"].mean - st["AD0"].mean) / st["AD0"].mean
        assert 0.0 < loss < 0.15

    def test_hacc_wait_dominates(self, hacc_recs):
        # Table I: MPI_Wait is HACC's top interface
        assert hacc_recs[0].report.top_ops(1) == ["MPI_Wait"]


class TestControlledModes:
    def test_ad3_best_of_four_for_milc(self, theta_top):
        # Fig. 9's ordering, probed with MILC (the latency-sensitive app)
        cfg = CampaignConfig(
            app=MILC(), samples=6, modes=(AD0, AD1, AD2, AD3), seed=31
        )
        recs = run_campaign(theta_top, cfg)
        st = stats_by_mode(recs)
        assert st["AD3"].mean <= min(st["AD0"].mean, st["AD1"].mean) * 1.02
        # biased modes beat the unbiased default on average
        assert min(st["AD2"].mean, st["AD3"].mean) < st["AD0"].mean


class TestControlledEnsembles:
    def test_milc_ensemble_fig10_shapes(self, theta_top):
        snaps = {}
        for mode in (AD0, AD3):
            r = run_ensemble(
                theta_top,
                EnsembleConfig(
                    app=MILC(), n_jobs=4, n_nodes=256, mode=mode, placement="dispersed"
                ),
            )
            snaps[mode.name] = r.bank.snapshot()
        net = ("rank1", "rank2", "rank3")
        # fewer packet transmissions under minimal bias
        assert snaps["AD3"].total_flits(net) < snaps["AD0"].total_flits(net)
        # clear stall reduction on the copper tiles
        assert snaps["AD3"].stalls["rank1"].sum() < snaps["AD0"].stalls["rank1"].sum()
        assert snaps["AD3"].stalls["rank2"].sum() < snaps["AD0"].stalls["rank2"].sum()

    def test_hacc_ensemble_fig12_shapes(self, theta_top):
        results = {}
        for mode in (AD0, AD3):
            results[mode.name] = run_ensemble(
                theta_top,
                EnsembleConfig(
                    app=HACC(), n_jobs=8, n_nodes=256, mode=mode, placement="compact"
                ),
            )
        # AD3 runtimes suffer (bisection-bound workload)
        assert results["AD3"].job_runtimes.mean() > results["AD0"].job_runtimes.mean() * 0.98
        # localized rank-3 stall peaks under minimal concentration
        peak0 = results["AD0"].bank.snapshot().stalls["rank3"].max()
        peak3 = results["AD3"].bank.snapshot().stalls["rank3"].max()
        assert peak3 > peak0 * 0.9


class TestFacilityChange:
    def test_default_change_directions(self, theta_top):
        from repro.core.facility import run_default_change_study

        study = run_default_change_study(theta_top, n_intervals=8, seed=5)
        change = study.counter_change()
        # fewer transmissions with minimal routing...
        assert change["flits"] < 0.0
        # ...and no stall explosion (the paper: a marked improvement)
        assert change["stalls"] < 0.25
        # median packet latency improves
        lat = study.latency_change()
        assert lat[50] < 2.0
        assert lat[25] < 1.0
