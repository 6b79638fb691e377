"""Unit/integration tests for the run harness and campaigns."""

import numpy as np
import pytest

from repro.apps import MILC, LatencyBound
from repro.core.biases import AD0, AD3
from repro.core.experiment import (
    CampaignBackground,
    CampaignConfig,
    drawn_slots,
    mask_endpoint_background,
    resolve_phase,
    run_app_once,
    run_campaign,
    runtimes_by_mode,
    sample_draws,
    sample_slot,
    stats_by_mode,
)
from repro.mpi.env import RoutingEnv
from repro.scheduler.background import BackgroundModel
from repro.util import derive_rng


class TestMaskEndpointBackground:
    def test_zeroes_only_own_nics(self, theta_top):
        bg = np.full(theta_top.n_links, 0.5)
        nodes = np.arange(10)
        out = mask_endpoint_background(theta_top, bg, nodes)
        assert (out[theta_top.injection_link(nodes)] == 0).all()
        assert (out[theta_top.ejection_link(nodes)] == 0).all()
        other = theta_top.injection_link(np.arange(20, 30))
        assert (out[other] == 0.5).all()

    def test_original_untouched(self, theta_top):
        bg = np.full(theta_top.n_links, 0.5)
        mask_endpoint_background(theta_top, bg, np.arange(5))
        assert (bg == 0.5).all()


class TestResolvePhase:
    def test_op_times_cover_comm_time(self, theta_top, rng):
        app = MILC()
        phases = app.phases(np.arange(256), rng)
        pt = resolve_phase(
            theta_top, phases[0], RoutingEnv(), background_util=None, rng=rng
        )
        assert pt.comm_time == pytest.approx(sum(pt.op_times.values()))

    def test_collective_phase_attribution(self, theta_top, rng):
        app = MILC()
        phases = app.phases(np.arange(256), rng)
        pt = resolve_phase(
            theta_top, phases[1], RoutingEnv(), background_util=None, rng=rng
        )
        assert set(pt.op_times) == {"MPI_Allreduce"}
        assert pt.op_calls["MPI_Allreduce"] == app.allreduces_per_cg * app.cg_per_iter

    def test_stencil_wait_and_post(self, theta_top, rng):
        app = MILC()
        phases = app.phases(np.arange(256), rng)
        pt = resolve_phase(
            theta_top, phases[0], RoutingEnv(), background_util=None, rng=rng
        )
        assert "MPI_Wait" in pt.op_times
        assert "MPI_Isend" in pt.op_times
        assert pt.op_times["MPI_Wait"] > pt.op_times["MPI_Isend"]


class TestRunAppOnce:
    def test_runtime_composition(self, theta_top):
        app = MILC()
        rt, report, timings = run_app_once(
            theta_top,
            app,
            np.arange(256),
            RoutingEnv(),
            rng=derive_rng(0, "t1"),
        )
        assert rt > 0
        assert report.total_time == pytest.approx(rt)
        # runtime ~ iterations x (compute + comm), within noise
        per_iter = sum(p.compute_time for p in app.phases(np.arange(256), derive_rng(0, "t1"))) + sum(
            t.comm_time for t in timings
        )
        assert rt == pytest.approx(per_iter * app.n_iterations(256), rel=0.05)

    def test_counters_collected_by_default(self, theta_top):
        _, report, _ = run_app_once(
            theta_top, MILC(), np.arange(256), RoutingEnv(), rng=derive_rng(0, "t2")
        )
        assert report.counters is not None
        assert report.counters.total_flits() > 0

    def test_counters_optional(self, theta_top):
        _, report, _ = run_app_once(
            theta_top,
            MILC(),
            np.arange(256),
            RoutingEnv(),
            rng=derive_rng(0, "t3"),
            collect_counters=False,
        )
        assert report.counters is None

    def test_milc_top_ops_match_table1(self, theta_top):
        _, report, _ = run_app_once(
            theta_top, MILC(), np.arange(256), RoutingEnv(), rng=derive_rng(0, "t4")
        )
        assert set(report.top_ops(3)) == {"MPI_Allreduce", "MPI_Wait", "MPI_Isend"}

    def test_deterministic(self, theta_top):
        runs = [
            run_app_once(
                theta_top, MILC(), np.arange(256), RoutingEnv(), rng=derive_rng(7, "d")
            )[0]
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestCampaign:
    def test_record_structure(self, milc_campaign):
        assert len(milc_campaign) == 5 * 2  # samples x modes
        modes = {r.mode for r in milc_campaign}
        assert modes == {"AD0", "AD3"}
        for r in milc_campaign:
            assert r.runtime > 0
            assert r.n_nodes == 256
            assert 1 <= r.groups <= 12
            assert r.report.mpi_fraction > 0

    def test_pairing_same_placement(self, milc_campaign):
        by_sample = {}
        for r in milc_campaign:
            by_sample.setdefault(r.sample_index, []).append(r)
        for recs in by_sample.values():
            assert len({r.groups for r in recs}) == 1
            assert len({r.background_intensity for r in recs}) == 1

    def test_runtimes_by_mode_filters(self, milc_campaign):
        raw = runtimes_by_mode(milc_campaign, filter_outliers=False)
        filt = runtimes_by_mode(milc_campaign)
        for m in raw:
            assert filt[m].size <= raw[m].size

    def test_stats_by_mode(self, milc_campaign):
        st = stats_by_mode(milc_campaign)
        assert st["AD0"].mean > 0
        assert st["AD0"].n >= 4

    def test_isolated_background(self, theta_top):
        cfg = CampaignConfig(
            app=LatencyBound(), samples=2, background="isolated", n_nodes=128
        )
        recs = run_campaign(theta_top, cfg)
        assert all(r.background_intensity == 0.0 for r in recs)

    def test_unknown_background_rejected(self, theta_top):
        cfg = CampaignConfig(app=MILC(), background="martian")
        with pytest.raises(ValueError):
            run_campaign(theta_top, cfg)

    def test_non_uniform_env(self, theta_top):
        # uniform_env=False keeps Alltoall on AD1 (Cray default)
        cfg = CampaignConfig(
            app=LatencyBound(),
            samples=1,
            background="isolated",
            n_nodes=64,
            modes=(AD3,),
            uniform_env=False,
        )
        recs = run_campaign(theta_top, cfg)
        assert len(recs) == 1


class TestDrawnPool:
    """A campaign's own pool solves only the slots its samples read."""

    @staticmethod
    def _cfg(**kw):
        return CampaignConfig(
            app=MILC(), n_nodes=32, modes=(AD0, AD3), seed=11, scenario_pool=3, **kw
        )

    def test_only_drawn_slots_are_solved(self, mini_top):
        cfg = self._cfg(samples=2)
        assert [sample_slot(mini_top, cfg, i)[2] for i in range(3)] == [1, 2, 0]
        assert drawn_slots(mini_top, cfg) == {1, 2}
        bg = CampaignBackground(mini_top, cfg)
        bg.build()
        assert [sc is not None for sc in bg.scenarios] == [False, True, True]

    def test_reading_an_unsolved_slot_fails_loudly(self, mini_top):
        cfg = self._cfg(samples=2)
        bg = CampaignBackground(mini_top, cfg)
        bg.build()
        # sample 2 is outside the campaign and reads slot 0, never solved
        with pytest.raises(ValueError, match="sample 2 reads background scenario 0"):
            sample_draws(mini_top, cfg, 2, bg.model, bg.scenarios)

    def test_explicit_pool_is_used_as_given(self, mini_top):
        cfg = self._cfg(samples=2)
        bm = BackgroundModel(mini_top)
        pool = bm.build_pool(2, derive_rng(5, "pool"), reserve_nodes=32)
        assert all(sc is not None for sc in pool)
        bg = CampaignBackground(mini_top, cfg, bm, pool)
        bg.build()
        assert bg.scenarios is pool
        # the slot is drawn over the explicit pool's own length
        for i in range(4):
            nodes, bgu, intensity = bg.draws(i)
            _, _, slot = sample_slot(mini_top, cfg, i, len(pool))
            want = mask_endpoint_background(
                mini_top, pool[slot].at_intensity(intensity), nodes
            )
            assert bgu.tobytes() == want.tobytes()
