"""Unit and behavioral tests for the fluid congestion engine."""

import copy
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from repro.apps import HACC, MILC
from repro.core.biases import AD0, AD1, AD2, AD3
from repro.core.experiment import CampaignBackground, CampaignConfig, phase_slices, resolve_scenarios
from repro.faults.model import FaultSchedule
from repro.mpi.env import RoutingEnv
from repro.network.counters import CounterBank
from repro.guard import GuardPolicy, RunGuard, use_guard
from repro.network.fluid import (
    FlowSet, FluidParams, _add, _BundleAux, _masked_rowmax, _masked_rowsum, _scatter_add,
    sample_paths, solve_fluid,
)
from repro.scheduler import background
from repro.telemetry import MemoryTraceWriter, MetricsRegistry, Telemetry
from repro.topology.paths import PathBundle, advance_paths
from repro.util import derive_rng


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


def _mini_flows(top, kind, n=200, seed=3):
    """``n`` mini flows: ``random`` pairs, ``intra``-group only, or ``empty``."""
    if kind == "empty":
        return FlowSet.empty()
    rng = np.random.default_rng(seed)
    src = rng.integers(0, top.n_nodes, n)
    if kind == "intra":
        per_group = top.routers_per_group * top.nodes_per_router
        # a different node of the source's group
        step = 1 + rng.integers(0, per_group - 1, n)
        dst = (src // per_group) * per_group + (src % per_group + step) % per_group
        assert (top.node_group(src) == top.node_group(dst)).all()
    else:
        dst = (src + 1 + rng.integers(0, top.n_nodes - 1, n)) % top.n_nodes
    return FlowSet(src, dst, np.full(n, 1e6), np.zeros(n, dtype=np.int64))


@pytest.mark.filterwarnings("ignore::repro.network.fluid.NonConvergenceWarning")
class TestSamplePaths:
    """:func:`sample_paths` is the solver's only use of its generator: a
    caller that skips a solve but exhausts it leaves the stream where the
    solve would have, so every later draw is unchanged."""

    @pytest.mark.parametrize("faulted", [False, True], ids=["pristine", "faulted"])
    @pytest.mark.parametrize("kind", ["random", "intra", "empty"])
    @pytest.mark.parametrize("params", [FluidParams(), FluidParams(k_min=2, k_nonmin=2, n_iter=4)])
    def test_same_post_state_as_solve(self, mini_top, kind, faulted, params):
        top = mini_top
        if faulted:
            # broken rows go through _repair_faulted, which draws too
            top = top.with_faults(FaultSchedule.parse("rank3:0.25", seed=7))
        flows = _mini_flows(mini_top, kind)
        solved = np.random.default_rng(5)
        solve_fluid(top, flows, [AD0], rng=solved, params=params)
        sampled = np.random.default_rng(5)
        bundles = list(sample_paths(top, flows, params, sampled))
        assert sampled.bit_generator.state == solved.bit_generator.state
        assert [b.kind for b in bundles] == ([] if kind == "empty" else ["minimal", "nonminimal"])

    def test_fault_repair_draws(self, mini_top):
        # the faulted case above is only a check if the repair draws
        flows = _mini_flows(mini_top, "random")
        faulted = mini_top.with_faults(FaultSchedule.parse("rank3:0.25", seed=7))
        states = []
        for top in (mini_top, faulted):
            rng = np.random.default_rng(5)
            list(sample_paths(top, flows, FluidParams(), rng))
            states.append(rng.bit_generator.state)
        assert states[0] != states[1]


#: the two link-field callers' solves: a background-pool scenario and an
#: interference aggressor field
LINK_FIELD_PARAMS = {
    "pool": FluidParams(k_min=2, k_nonmin=2, n_iter=4),
    "aggressor": FluidParams(k_min=3, k_nonmin=2, n_iter=5),
}


@pytest.mark.filterwarnings("ignore::repro.network.fluid.NonConvergenceWarning")
class TestLinkFieldSolve:
    """``link_field_only`` stops after the link field and changes nothing
    it computes: the same bytes, the same event, the same metrics."""

    def _solve(self, top, flows, name, bg, **kw):
        rng = np.random.default_rng(21)
        return solve_fluid(
            top, flows, [AD0, AD3], rng=rng, params=LINK_FIELD_PARAMS[name],
            fixed_duration=1.0, background_util=bg, **kw,
        )

    def _inputs(self, top, with_bg):
        flows = _mini_flows(top, "random", n=400, seed=8)
        flows = FlowSet(flows.src, flows.dst, flows.nbytes * 2e3, np.arange(400) % 2)
        bg = None
        if with_bg:
            bg = np.random.default_rng(2).uniform(0.0, 0.6, top.n_links)
        return flows, bg

    @pytest.mark.parametrize("with_bg", [False, True], ids=["bare", "background"])
    @pytest.mark.parametrize("name", sorted(LINK_FIELD_PARAMS))
    def test_same_link_field_event_and_metrics(self, mini_top, name, with_bg):
        flows, bg = self._inputs(mini_top, with_bg)
        runs = []
        for field_only in (False, True):
            tel = Telemetry(trace=MemoryTraceWriter(), metrics=MetricsRegistry())
            res = self._solve(mini_top, flows, name, bg, telemetry=tel, link_field_only=field_only)
            runs.append((res, tel))
        (full, full_tel), (field, field_tel) = runs
        assert field.link_raw_util.tobytes() == full.link_raw_util.tobytes()
        for attr in ("link_load", "link_util", "min_fraction"):
            assert getattr(field, attr).tobytes() == getattr(full, attr).tobytes()
        for attr in ("phase_time", "timescale", "iterations", "converged", "residual", "residual_mean"):
            assert getattr(field, attr) == getattr(full, attr)
        assert field.flow_time is None and field.link_stalls is None
        assert full.flow_time is not None and full.link_stalls is not None

        def solve_event(tel):
            (ev,) = [e for e in tel.trace.events if e["ev"] == "fluid.solve"]
            return {k: v for k, v in ev.items() if k not in ("ts", "wall_ms", "iter_ms")}

        assert solve_event(field_tel) == solve_event(full_tel)

        def metrics(tel):
            # the wall-time histograms hold timings: compare their counts
            return {
                k: v["count"] if k in ("fluid_solve_seconds", "solver_iter_seconds") else v
                for k, v in tel.metrics.to_dict().items()
            }

        assert metrics(field_tel) == metrics(full_tel)

    def test_non_finite_load_still_checked(self, mini_top):
        flows, _ = self._inputs(mini_top, False)
        nbytes = flows.nbytes.copy()
        nbytes[3] = np.inf
        flows = FlowSet(flows.src, flows.dst, nbytes, flows.cls)
        guard = RunGuard(GuardPolicy(invariants="record"))
        with use_guard(guard):
            self._solve(mini_top, flows, "pool", None, link_field_only=True)
        post = [v for v in guard.violations if v["invariant"] == "fluid.finite_result"]
        assert post == [
            {"invariant": "fluid.finite_result", "detail": "load contains non-finite values",
             "field": "load"}
        ]


def _bincount_scatter(start, idx_cat, w_lvl, repcnt_cat):
    """The one-``bincount`` form of the solver's scatters: an identity
    prefix carries ``start`` into every bin ahead of the path entries."""
    n = start.size
    return np.bincount(
        np.concatenate([np.arange(n), idx_cat]),
        weights=np.concatenate([start, np.repeat(w_lvl, repcnt_cat)]),
        minlength=n,
    )


def _table_rowsum(vals_ext, aux):
    """The 2-D form of :func:`_masked_rowsum`: gather every live column
    into one table, then reduce its rows in the same pairwise tree."""
    rows = iter(vals_ext.take(aux.safe))
    c = [None if col is None else next(rows) for col in aux.slots]
    s = _add(
        _add(_add(c[0], c[1]), _add(c[2], c[3])),
        _add(_add(c[4], c[5]), _add(c[6], c[7])),
    )
    return _add(_add(s, c[8]), c[9])


def _theta_bundles(top, n=3000, seed=4):
    flows = _mini_flows(top, "random", n=n, seed=seed)
    return list(sample_paths(top, flows, FluidParams(), np.random.default_rng(seed))), n


class TestBoundedWorkingSet:
    """The solver's column-at-a-time gathers and chunked ordered scatters
    give the bytes of the one-table gathers and one-``bincount`` scatters
    they replace."""

    @pytest.mark.parametrize("chunk", [1, 7, 16384])
    @pytest.mark.parametrize("start", ["zeros", "stalls"])
    def test_chunked_scatter_matches_prefixed_bincount(self, chunk, start):
        rng = np.random.default_rng(11)
        n_bins, n_sub = 6, 500
        # few bins, so every bin repeats within and across chunks
        repcnt = rng.integers(2, 11, n_sub)
        idx = rng.integers(0, n_bins, int(repcnt.sum()))
        # weights spread over many decades: the sum depends on the order
        w = rng.lognormal(0.0, 6.0, n_sub)
        init = np.zeros(n_bins) if start == "zeros" else rng.lognormal(0.0, 6.0, n_bins)
        out = init.copy()
        _scatter_add(out, idx, w, repcnt, chunk=chunk)
        expect = _bincount_scatter(init, idx, w, repcnt)
        assert out.tobytes() == expect.tobytes()
        # the check has teeth: another order gives other bytes
        rev = _bincount_scatter(init, idx[::-1], w[::-1], repcnt[::-1])
        assert rev.tobytes() != expect.tobytes()

    def test_chunked_scatter_on_solver_layout(self, theta_top):
        (bmin, bnon), n = _theta_bundles(theta_top)
        auxes = [_BundleAux(b, n, theta_top.n_links) for b in (bmin, bnon)]
        repcnt = np.concatenate([a.repcnt for a in auxes])
        idx = np.empty(int(repcnt.sum()), dtype=np.int64)
        n_min = int(auxes[0].repcnt.sum())
        auxes[0].link_ids(idx[:n_min])
        auxes[1].link_ids(idx[n_min:])
        w = np.random.default_rng(5).lognormal(10.0, 3.0, repcnt.size)
        init = np.random.default_rng(6).lognormal(0.0, 3.0, theta_top.n_links)
        for chunk in (7, 1000, repcnt.size + 1):
            for start in (np.zeros(theta_top.n_links), init):
                out = start.copy()
                _scatter_add(out, idx, w, repcnt, chunk=chunk)
                assert out.tobytes() == _bincount_scatter(start, idx, w, repcnt).tobytes()

    def _assert_gathers_match(self, top, bundle, n):
        aux = _BundleAux(bundle, n, top.n_links)
        vals_ext = np.random.default_rng(9).lognormal(-2.0, 2.0, top.n_links + 1)
        vals_ext[-1] = 0.0
        s = _masked_rowsum(vals_ext, aux)
        assert s.base is None  # its own array, not a row of a table
        assert s.tobytes() == _table_rowsum(vals_ext, aux).tobytes()
        assert _masked_rowmax(vals_ext, aux).tobytes() == vals_ext.take(aux.safe).max(axis=0).tobytes()
        # and both are the masked forms they stand for
        # (row-major, so each row reduces in numpy's pairwise order)
        links = np.ascontiguousarray(bundle.links)
        masked = np.where(links >= 0, vals_ext[links], 0.0)
        assert s.tobytes() == masked.sum(axis=1).tobytes()
        assert _masked_rowmax(vals_ext, aux).tobytes() == masked.max(axis=1).tobytes()
        return aux

    def test_gathers_on_pristine_bundles(self, theta_top):
        (bmin, bnon), n = _theta_bundles(theta_top)
        aux = self._assert_gathers_match(theta_top, bmin, n)
        assert aux.slots[6:9] == [None] * 3  # minimal paths never reach 6-8
        self._assert_gathers_match(theta_top, bnon, n)

    def test_gathers_on_cut_view(self, theta_top):
        # the 0-1 bundle is cut whole: minimal flows between those groups
        # are repaired onto detours that use columns 6-8
        cut = ";".join(f"cable:0-1:{c}" for c in range(12))
        view = theta_top.with_faults(FaultSchedule.parse(cut, seed=5))
        (bmin, bnon), n = _theta_bundles(view)
        aux = self._assert_gathers_match(view, bmin, n)
        assert all(col is not None for col in aux.slots[6:9])
        self._assert_gathers_match(view, bnon, n)

    def test_gathers_on_non_uniform_bundle(self, theta_top):
        (bmin, _), n = _theta_bundles(theta_top)
        # drop a random third of the sub-paths: flows own 1-6 candidates
        keep = np.random.default_rng(3).random(bmin.n_subpaths) > 1 / 3
        bundle = PathBundle(np.ascontiguousarray(bmin.cols[:, keep]), bmin.flow[keep], bmin.kind)
        aux = self._assert_gathers_match(theta_top, bundle, n)
        assert not aux.uniform


def _traced_peak_mb(solve):
    """``tracemalloc`` peak of ``solve()`` above its start, in MB."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        solve()
        return (tracemalloc.get_traced_memory()[1] - start) / 1e6
    finally:
        tracemalloc.stop()


@pytest.mark.filterwarnings("ignore::repro.network.fluid.NonConvergenceWarning")
class TestSolveWorkingSet:
    """A solve keeps only its index tables and per-sub-path vectors:
    no value table or expanded-weight array outlives its statement.  The
    two solves that set a campaign process's peak, measured on Theta."""

    BOUND_MB = 44.0

    def test_pool_slot_working_set(self, theta_top, monkeypatch):
        # the largest drawn slot of `compare --system theta --app milc
        # --nodes 512 --seed 2009`: record every drawn slot's solve inputs
        # (the stand-in draws what the solve draws), then solve the largest
        cfg = CampaignConfig(app=MILC(), n_nodes=512, samples=8, seed=2009)
        calls = []

        def record(top, flows, modes, *, rng, params, **kw):
            calls.append((flows, modes, copy.deepcopy(rng), params, kw))
            advance_paths(top, flows.src, flows.dst, k_min=params.k_min, k_nonmin=params.k_nonmin, rng=rng)
            return SimpleNamespace(link_raw_util=np.zeros(top.n_links))

        monkeypatch.setattr(background, "solve_fluid", record)
        resolve_scenarios(theta_top, cfg, None, None)
        flows, modes, rng, params, kw = max(calls, key=lambda c: c[0].n)
        assert flows.n == 39168
        assert kw == {"fixed_duration": 1.0, "link_field_only": True}
        assert (params.k_min, params.k_nonmin, params.n_iter) == (2, 2, 4)
        peak = _traced_peak_mb(lambda: solve_fluid(theta_top, flows, modes, rng=rng, params=params, **kw))
        assert peak <= self.BOUND_MB

    def test_hacc_phase_working_set(self, theta_top):
        # the first phase of HACC-1024 sample 0 under AD0, seed 2009, at
        # default FluidParams: the run's own stream, background and nodes
        app = HACC()
        cfg = CampaignConfig(app=app, n_nodes=1024, samples=1, seed=2009)
        nodes, bg, _ = CampaignBackground(theta_top, cfg).draws(0)
        rng = derive_rng(cfg.seed, app.name, cfg.n_nodes, 0, AD0.name)
        phase = app.phases(nodes, rng)[0]
        flows, _ = phase_slices(phase)
        assert flows.n == 12288
        peak = _traced_peak_mb(lambda: solve_fluid(
            theta_top, flows, RoutingEnv.uniform(AD0).modes_list(), background_util=bg,
            rng=rng, min_duration=phase.spread_time,
        ))
        assert peak <= self.BOUND_MB
