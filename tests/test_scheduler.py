"""Unit tests for placement, workload mix, jobs, and background noise."""

import numpy as np
import pytest

from repro.scheduler.background import ARCHETYPE_RATES, BackgroundModel, _job_flows
from repro.scheduler.jobs import Job, JobLog
from repro.scheduler.placement import (
    FreeNodePool,
    compact_placement,
    dispersed_placement,
    groups_spanned,
    make_placement,
    production_placement,
    random_placement,
)
from repro.scheduler.workload import ARCHETYPE_WEIGHTS, JobSizeMix, WorkloadModel
from repro.topology.systems import mini


class TestFreeNodePool:
    def test_take_and_release(self, theta_top):
        pool = FreeNodePool(theta_top)
        n0 = pool.n_free
        pool.take(np.arange(100))
        assert pool.n_free == n0 - 100
        pool.release(np.arange(100))
        assert pool.n_free == n0

    def test_double_take_rejected(self, theta_top):
        pool = FreeNodePool(theta_top)
        pool.take(np.arange(10))
        with pytest.raises(ValueError, match="overlaps"):
            pool.take(np.arange(5, 15))

    def test_restricted_initial_set(self, theta_top):
        pool = FreeNodePool(theta_top, free=np.arange(50))
        assert pool.n_free == 50


class TestPlacements:
    @pytest.mark.parametrize("kind", ["compact", "dispersed", "random", "production"])
    def test_right_count_unique_sorted(self, theta_top, rng, kind):
        nodes = make_placement(kind, theta_top, 256, rng)
        assert nodes.size == 256
        assert np.unique(nodes).size == 256
        assert (np.diff(nodes) > 0).all()

    def test_compact_minimizes_groups(self, theta_top, rng):
        nodes = compact_placement(theta_top, 256, rng)
        # 256 nodes fit within one group (384 slots)
        assert groups_spanned(theta_top, nodes) == 1

    def test_compact_large_job_spans_minimum(self, theta_top, rng):
        nodes = compact_placement(theta_top, 800, rng)
        assert groups_spanned(theta_top, nodes) <= 3

    def test_dispersed_spans_all_groups(self, theta_top, rng):
        nodes = dispersed_placement(theta_top, 256, rng)
        assert groups_spanned(theta_top, nodes) >= theta_top.n_groups - 1

    def test_dispersed_with_span_limit(self, theta_top, rng):
        nodes = dispersed_placement(theta_top, 128, rng, n_groups_span=4)
        assert groups_spanned(theta_top, nodes) <= 5

    def test_production_spans_vary(self, theta_top):
        spans = {
            groups_spanned(
                theta_top, production_placement(theta_top, 256, np.random.default_rng(i))
            )
            for i in range(30)
        }
        assert len(spans) >= 4  # Fig. 3's x-axis diversity

    def test_pool_respected(self, theta_top, rng):
        pool = FreeNodePool(theta_top)
        a = compact_placement(theta_top, 256, rng, pool=pool)
        b = compact_placement(theta_top, 256, rng, pool=pool)
        assert np.intersect1d(a, b).size == 0

    def test_insufficient_nodes(self, toy_top, rng):
        with pytest.raises(ValueError, match="only"):
            random_placement(toy_top, 100, rng)

    def test_unknown_kind(self, theta_top, rng):
        with pytest.raises(KeyError):
            make_placement("magic", theta_top, 16, rng)


class TestJobLog:
    def test_core_hours(self):
        j = Job(n_nodes=256, duration_hours=2.0)
        assert j.core_hours == 256 * 64 * 2.0

    def test_fraction_between(self):
        log = JobLog(
            jobs=[
                Job(n_nodes=128, duration_hours=1.0),
                Job(n_nodes=1024, duration_hours=1.0),
            ]
        )
        frac = log.core_hour_fraction_between(128, 512)
        assert frac == pytest.approx(128 / (128 + 1024))

    def test_ccdf_starts_at_one(self):
        log = JobLog(
            jobs=[Job(n_nodes=s, duration_hours=1.0) for s in (128, 256, 512)]
        )
        sizes, ccdf = log.corehours_ccdf()
        assert ccdf[0] == pytest.approx(1.0)
        assert (np.diff(ccdf) <= 0).all()

    def test_empty_log_fraction(self):
        assert JobLog().core_hour_fraction_between(0, 10**6) == 0.0


class TestWorkloadModel:
    def test_fig1_corehour_share(self, theta_top):
        # ~40% of core-hours from 128-512 node jobs (paper Fig. 1)
        wm = WorkloadModel(theta_top)
        log = wm.generate_log(4000, np.random.default_rng(0))
        share = log.core_hour_fraction_between(128, 512)
        assert 0.30 <= share <= 0.55

    def test_sizes_within_machine(self, theta_top, rng):
        wm = WorkloadModel(theta_top)
        log = wm.generate_log(500, rng)
        assert log.sizes().max() <= theta_top.n_nodes

    def test_archetype_weights_normalized(self):
        assert sum(ARCHETYPE_WEIGHTS.values()) == pytest.approx(1.0)

    def test_active_jobs_respect_fill(self, theta_top, rng):
        wm = WorkloadModel(theta_top)
        jobs = wm.sample_active_jobs(rng, target_fill=0.5, reserve_nodes=256)
        used = sum(j.n_nodes for j in jobs)
        assert used <= int((theta_top.n_nodes - 256) * 0.5)

    def test_active_jobs_fill_validation(self, theta_top, rng):
        wm = WorkloadModel(theta_top)
        with pytest.raises(ValueError):
            wm.sample_active_jobs(rng, target_fill=1.5)

    def test_size_mix_probabilities(self):
        mix = JobSizeMix()
        sizes, p = mix.probabilities(1024)
        assert sizes.max() <= 1024
        assert p.sum() == pytest.approx(1.0)
        # power law: smaller sizes more likely
        assert p[0] > p[-1]


class TestBackground:
    @pytest.mark.parametrize("archetype", sorted(ARCHETYPE_RATES))
    def test_job_flows_valid(self, rng, archetype):
        job = Job(n_nodes=64, duration_hours=1.0, archetype=archetype)
        nodes = np.arange(64)
        p2p, a2a = _job_flows(job, nodes, rng)
        for fl in (p2p, a2a):
            if fl.n:
                assert (fl.src != fl.dst).all()
                assert (fl.nbytes > 0).all()

    def test_alltoall_goes_to_a2a_class(self, rng):
        job = Job(n_nodes=64, duration_hours=1.0, archetype="alltoall")
        p2p, a2a = _job_flows(job, np.arange(64), rng)
        assert p2p.n == 0 and a2a.n > 0

    def test_unknown_archetype(self, rng):
        job = Job(n_nodes=4, duration_hours=1.0, archetype="quantum")
        with pytest.raises(KeyError):
            _job_flows(job, np.arange(4), rng)

    def test_tiny_job_no_flows(self, rng):
        job = Job(n_nodes=1, duration_hours=1.0, archetype="stencil")
        p2p, a2a = _job_flows(job, np.arange(1), rng)
        assert p2p.n == 0 and a2a.n == 0

    def test_scenario_field_properties(self, theta_top):
        bm = BackgroundModel(theta_top)
        sc = bm.build_scenario(np.random.default_rng(4), reserve_nodes=256)
        assert sc.util.shape == (theta_top.n_links,)
        assert sc.util.min() >= 0
        assert sc.util.max() <= 0.95
        assert 0 < sc.fill <= 1.0
        assert sc.n_jobs > 0

    def test_intensity_scaling_clipped(self, theta_top):
        bm = BackgroundModel(theta_top)
        sc = bm.build_scenario(np.random.default_rng(4), reserve_nodes=256)
        assert sc.at_intensity(100.0).max() <= 0.9
        assert np.allclose(sc.at_intensity(0.0), 0.0)

    def test_intensity_sampler_bounds(self, theta_top, rng):
        bm = BackgroundModel(theta_top)
        vals = [bm.sample_intensity(rng) for _ in range(200)]
        assert all(0.05 <= v <= 1.3 for v in vals)

    def test_scenarios_deterministic(self, theta_top):
        bm = BackgroundModel(theta_top)
        a = bm.build_scenario(np.random.default_rng(11))
        b = bm.build_scenario(np.random.default_rng(11))
        np.testing.assert_array_equal(a.util, b.util)

    @pytest.mark.parametrize("system", ["mini_top", "theta_top"])
    def test_pool_solving_some_slots_keeps_the_stream(self, request, system):
        """Skipped slots still draw their jobs, flows and paths, so every
        solved slot holds exactly the full pool's scenario."""
        top = request.getfixturevalue(system)
        bm = BackgroundModel(top)
        reserve = top.n_nodes // 8
        full, part = {}, {}
        bm.solve_pool(np.random.default_rng(21), [0, 1, 2, 3], full.__setitem__,
                      reserve_nodes=reserve)
        bm.solve_pool(np.random.default_rng(21), [1, 3], part.__setitem__, reserve_nodes=reserve)
        assert sorted(full) == [0, 1, 2, 3]
        assert sorted(part) == [1, 3]
        for slot in (1, 3):
            assert part[slot].util.tobytes() == full[slot].util.tobytes()
            assert (part[slot].n_jobs, part[slot].fill) == (full[slot].n_jobs, full[slot].fill)

    @pytest.mark.parametrize("order", [[3, 0, 2], [1, 3], [0, 1, 2, 3], [2]])
    def test_pool_solved_in_any_order_holds_the_full_pools_slots(self, order):
        """``solve_pool`` hands over the slots in the order asked, each one
        the slot-order pool's scenario, whether solved when the draws reach
        it or later from a copy of the stream.  On 8 groups, where every
        slot places a job (the 4-group pool is empty)."""
        bm = BackgroundModel(mini(n_groups=8))
        full = {}
        bm.solve_pool(np.random.default_rng(21), [0, 1, 2, 3], full.__setitem__, reserve_nodes=32)
        assert all(sc.n_jobs > 0 and sc.util.any() for sc in full.values())
        got = []
        bm.solve_pool(
            np.random.default_rng(21), order, lambda slot, sc: got.append((slot, sc)),
            reserve_nodes=32,
        )
        assert [slot for slot, _ in got] == order
        for slot, sc in got:
            assert sc.util.tobytes() == full[slot].util.tobytes()
            assert (sc.n_jobs, sc.fill) == (full[slot].n_jobs, full[slot].fill)
