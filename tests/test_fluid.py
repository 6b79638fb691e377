"""Unit and behavioral tests for the fluid congestion engine."""

import numpy as np
import pytest

from repro.core.biases import AD0, AD1, AD2, AD3
from repro.network.counters import CounterBank
from repro.network.fluid import FlowSet, FluidParams, solve_fluid


def _perm_flows(top, rng, n=128, nbytes=1.2e6):
    nodes = rng.choice(top.n_nodes, n, replace=False)
    perm = rng.permutation(n)
    fix = perm == np.arange(n)
    perm[fix] = (perm[fix] + 1) % n
    return FlowSet(nodes, nodes[perm], np.full(n, nbytes), np.zeros(n, dtype=np.int64))


class TestFlowSet:
    def test_validation_self_flow(self):
        with pytest.raises(ValueError, match="self-flows"):
            FlowSet(np.array([1]), np.array([1]), np.array([8.0]), np.array([0]))

    def test_validation_length_mismatch(self):
        with pytest.raises(ValueError):
            FlowSet(np.array([1, 2]), np.array([3]), np.array([8.0]), np.array([0]))

    def test_validation_negative_bytes(self):
        with pytest.raises(ValueError, match="negative"):
            FlowSet(np.array([1]), np.array([2]), np.array([-8.0]), np.array([0]))

    def test_validation_negative_class(self):
        # a class of -1 matches no routing mode, so the solver would leave
        # that flow's split uninitialised
        with pytest.raises(ValueError, match="negative traffic classes"):
            FlowSet([0, 1, 2], [5, 9, 20], [1e5] * 3, [0, -1, 0])

    def test_empty(self):
        fl = FlowSet.empty()
        assert fl.n == 0

    def test_concat(self):
        a = FlowSet(np.array([0]), np.array([1]), np.array([8.0]), np.array([0]))
        b = FlowSet(np.array([2]), np.array([3]), np.array([16.0]), np.array([1]))
        c = FlowSet.concat([a, b])
        assert c.n == 2
        assert c.nbytes.sum() == 24

    def test_concat_empty_parts(self):
        assert FlowSet.concat([]).n == 0
        assert FlowSet.concat([FlowSet.empty()]).n == 0

    def test_with_class_and_scaled(self):
        a = FlowSet(np.array([0, 1]), np.array([2, 3]), np.array([8.0, 8.0]), np.array([0, 0]))
        b = a.with_class(3).scaled(2.0)
        assert (b.cls == 3).all()
        assert b.nbytes.sum() == 32


class TestSolveFluid:
    def test_empty_flows(self, theta_top, rng):
        res = solve_fluid(theta_top, FlowSet.empty(), [AD0], rng=rng)
        assert res.phase_time == 0.0
        assert res.link_load.sum() == 0

    def test_class_out_of_range(self, theta_top, rng):
        fl = FlowSet(np.array([0]), np.array([5]), np.array([8.0]), np.array([1]))
        with pytest.raises(ValueError, match="class index"):
            solve_fluid(theta_top, fl, [AD0], rng=rng)

    def test_background_shape_checked(self, theta_top, rng):
        fl = _perm_flows(theta_top, rng, 16)
        with pytest.raises(ValueError, match="background_util"):
            solve_fluid(theta_top, fl, [AD0], background_util=np.zeros(3), rng=rng)

    def test_load_conservation_minimal_only(self, theta_top, rng):
        """Under a fully-minimal split, injection-link loads must equal the
        per-source byte demands exactly."""
        fl = _perm_flows(theta_top, rng, 64)
        res = solve_fluid(theta_top, fl, [AD3], rng=rng)
        inj = theta_top.injection_link(fl.src)
        expected = np.zeros(theta_top.n_links)
        np.add.at(expected, inj, fl.nbytes)
        sel = expected > 0
        np.testing.assert_allclose(res.link_load[sel], expected[sel], rtol=1e-9)

    def test_ejection_load_conservation(self, theta_top, rng):
        fl = _perm_flows(theta_top, rng, 64)
        res = solve_fluid(theta_top, fl, [AD0], rng=rng)
        eje = theta_top.ejection_link(fl.dst)
        expected = np.zeros(theta_top.n_links)
        np.add.at(expected, eje, fl.nbytes)
        sel = expected > 0
        np.testing.assert_allclose(res.link_load[sel], expected[sel], rtol=1e-9)

    def test_ad3_more_minimal_than_ad0(self, theta_top, rng):
        fl = _perm_flows(theta_top, rng)
        r0 = solve_fluid(theta_top, fl, [AD0], rng=np.random.default_rng(0))
        r3 = solve_fluid(theta_top, fl, [AD3], rng=np.random.default_rng(0))
        assert r3.min_fraction.mean() > r0.min_fraction.mean()
        assert r3.min_fraction.mean() > 0.9

    def test_mode_ordering_in_min_fraction(self, theta_top, rng):
        fl = _perm_flows(theta_top, rng)
        fracs = {}
        for mode in (AD0, AD1, AD2, AD3):
            res = solve_fluid(theta_top, fl, [mode], rng=np.random.default_rng(0))
            fracs[mode.name] = res.min_fraction.mean()
        assert fracs["AD0"] <= fracs["AD1"] <= fracs["AD3"] + 0.05
        assert fracs["AD0"] < fracs["AD3"]

    def test_ad3_fewer_flits(self, theta_top, rng):
        # minimal bias -> fewer hops -> fewer total flit transmissions
        fl = _perm_flows(theta_top, rng)
        r0 = solve_fluid(theta_top, fl, [AD0], rng=np.random.default_rng(0))
        r3 = solve_fluid(theta_top, fl, [AD3], rng=np.random.default_rng(0))
        assert r3.link_flits.sum() < r0.link_flits.sum()

    def test_bisection_bound_prefers_ad0_when_idle(self, theta_top, rng):
        # large random-pair messages on an idle network: non-minimal
        # spreading gives more bandwidth (the HACC effect)
        fl = _perm_flows(theta_top, rng, n=256, nbytes=4e6)
        r0 = solve_fluid(theta_top, fl, [AD0], rng=np.random.default_rng(0))
        r3 = solve_fluid(theta_top, fl, [AD3], rng=np.random.default_rng(0))
        assert r0.phase_time <= r3.phase_time * 1.05

    def test_latency_grows_with_background(self, theta_top, rng):
        fl = _perm_flows(theta_top, rng, 64, nbytes=8.0)
        quiet = solve_fluid(theta_top, fl, [AD0], rng=np.random.default_rng(0))
        bg = np.full(theta_top.n_links, 0.5)
        noisy = solve_fluid(
            theta_top, fl, [AD0], background_util=bg, rng=np.random.default_rng(0)
        )
        assert noisy.flow_latency.mean() > quiet.flow_latency.mean()

    def test_ambient_latency_below_full_latency(self, theta_top, rng):
        fl = _perm_flows(theta_top, rng, 128, nbytes=2e6)
        res = solve_fluid(theta_top, fl, [AD0], rng=rng)
        assert res.flow_latency_ambient.mean() <= res.flow_latency.mean() + 1e-12

    def test_worst_latency_at_least_mean(self, theta_top, rng):
        fl = _perm_flows(theta_top, rng, 64, nbytes=8.0)
        bg = np.clip(np.abs(np.random.default_rng(1).normal(0.2, 0.2, theta_top.n_links)), 0, 0.9)
        res = solve_fluid(theta_top, fl, [AD0], background_util=bg, rng=rng)
        assert res.flow_latency_worst.mean() >= res.flow_latency_ambient.mean() * 0.99

    def test_min_duration_reduces_utilization(self, theta_top, rng):
        fl = _perm_flows(theta_top, rng, 128)
        burst = solve_fluid(theta_top, fl, [AD0], rng=np.random.default_rng(0))
        spread = solve_fluid(
            theta_top, fl, [AD0], rng=np.random.default_rng(0), min_duration=1.0
        )
        assert spread.link_util.max() < burst.link_util.max()
        assert spread.link_stalls.sum() < burst.link_stalls.sum()

    def test_fixed_duration_rate_mode(self, theta_top, rng):
        fl = _perm_flows(theta_top, rng, 64, nbytes=1e9)
        res = solve_fluid(theta_top, fl, [AD0], rng=rng, fixed_duration=1.0)
        assert res.timescale == 1.0
        # 1 GB/s over a ~5 GB/s NIC: injection util ~0.2
        inj = theta_top.injection_link(fl.src)
        assert 0.1 < res.link_util[inj].mean() < 0.4

    def test_flow_times_positive(self, theta_top, rng):
        fl = _perm_flows(theta_top, rng, 64)
        res = solve_fluid(theta_top, fl, [AD0], rng=rng)
        assert (res.flow_time > 0).all()
        assert res.phase_time >= res.flow_time.max() * 0.999

    def test_deterministic_given_rng(self, theta_top, rng):
        fl = _perm_flows(theta_top, rng, 64)
        a = solve_fluid(theta_top, fl, [AD0], rng=np.random.default_rng(3))
        b = solve_fluid(theta_top, fl, [AD0], rng=np.random.default_rng(3))
        np.testing.assert_array_equal(a.link_load, b.link_load)
        np.testing.assert_array_equal(a.min_fraction, b.min_fraction)

    def test_per_class_modes(self, theta_top, rng):
        # two classes with opposite biases should split differently
        base = _perm_flows(theta_top, rng, 64)
        both = FlowSet.concat([base.with_class(0), base.with_class(1)])
        res = solve_fluid(theta_top, both, [AD0, AD3], rng=rng)
        x0 = res.min_fraction[:64].mean()
        x3 = res.min_fraction[64:].mean()
        assert x3 > x0

    def test_counter_accumulation(self, theta_top, rng):
        fl = _perm_flows(theta_top, rng, 64)
        res = solve_fluid(theta_top, fl, [AD0], rng=rng)
        bank = CounterBank(theta_top)
        res.accumulate_counters(bank, theta_top)
        snap = bank.snapshot()
        assert snap.total_flits() > 0
        # request flits include both injection and ejection sides
        assert snap.flits["proc_req"].sum() == pytest.approx(
            (res.link_flits[theta_top.injection_link(np.arange(theta_top.n_nodes))].sum()
             + res.link_flits[theta_top.ejection_link(np.arange(theta_top.n_nodes))].sum())
        )

    def test_params_validation(self):
        with pytest.raises(ValueError):
            FluidParams(damping=1.0)
        with pytest.raises(ValueError):
            FluidParams(n_iter=0)
