"""Golden byte-equivalence: optimized engines vs the frozen seed copies.

The hot-path overhaul (SoA packet arenas, bincount fluid kernels) must be
invisible at the output level: every counter, array, record, and
checkpoint byte has to match the pre-overhaul implementation exactly —
not approximately.  The seed engines are frozen verbatim in
``tests/_reference_fluid.py`` and ``tests/_reference_packet_sim.py``;
these tests drive both implementations through identical scenarios and
assert equality with ``==``, never with tolerances.
"""

import numpy as np
import pytest

from repro.apps import MILC
from repro.core.biases import AD0, AD1, AD2, AD3
from repro.core.checkpoint import record_to_dict
from repro.core.experiment import CampaignConfig, run_campaign
from repro.faults.model import FaultSchedule
from repro.mpi.env import RoutingEnv
from repro.network.fluid import FlowSet, FluidParams, solve_fluid
from repro.network.packet_sim import InjectionSpec, PacketSimConfig, PacketSimulator
from repro.topology.systems import mini, toy

from tests import _reference_fluid as ref_fluid
from tests import _reference_packet_sim as ref_pkt

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.network.fluid.NonConvergenceWarning"
)


# ----------------------------------------------------------------------
# fluid solver
# ----------------------------------------------------------------------
def _random_flows(top, n, seed, n_cls=4, flowset_cls=FlowSet):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, top.n_nodes, n)
    dst = (src + 1 + rng.integers(0, top.n_nodes - 1, n)) % top.n_nodes
    nbytes = rng.integers(64, 2_000_000, n).astype(np.float64)
    cls = rng.integers(0, n_cls, n)
    return flowset_cls(src, dst, nbytes, cls)


_FLUID_ARRAY_FIELDS = (
    "flow_time",
    "flow_latency",
    "flow_latency_ambient",
    "flow_latency_worst",
    "flow_hops",
    "min_fraction",
    "link_load",
    "link_util",
    "link_raw_util",
    "link_flits",
    "link_stalls",
)
_FLUID_SCALAR_FIELDS = (
    "phase_time",
    "timescale",
    "converged",
    "iterations",
    "residual",
    "residual_mean",
)


def assert_fluid_identical(new, old):
    for name in _FLUID_SCALAR_FIELDS:
        assert getattr(new, name) == getattr(old, name), name
    for name in _FLUID_ARRAY_FIELDS:
        a, b = getattr(new, name), getattr(old, name)
        assert a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def _fluid_pair(top, n_flows, *, seed, modes, background=None, params=None, **kw):
    """Run the same scenario through both solvers with fresh RNG streams."""
    out = []
    for solver, fsc in ((solve_fluid, FlowSet), (ref_fluid.solve_fluid, ref_fluid.FlowSet)):
        fl = _random_flows(top, n_flows, seed, n_cls=len(modes), flowset_cls=fsc)
        out.append(
            solver(
                top,
                fl,
                list(modes),
                background_util=background,
                rng=np.random.default_rng(seed + 1),
                params=params,
                **kw,
            )
        )
    return out


class TestFluidGolden:
    @pytest.mark.parametrize("mode", [AD0, AD1, AD2, AD3], ids=lambda m: m.name)
    def test_single_mode(self, mode):
        new, old = _fluid_pair(mini(), 96, seed=3, modes=[mode])
        assert_fluid_identical(new, old)

    def test_mixed_classes(self):
        new, old = _fluid_pair(mini(), 128, seed=5, modes=[AD0, AD1, AD2, AD3])
        assert_fluid_identical(new, old)

    def test_background_utilization(self):
        top = mini()
        rng = np.random.default_rng(9)
        bg = rng.uniform(0.0, 0.6, top.n_links)
        new, old = _fluid_pair(top, 64, seed=7, modes=[AD3], background=bg)
        assert_fluid_identical(new, old)

    def test_faulted_topology(self):
        view = mini().with_faults(FaultSchedule.parse("rank3:0.25", seed=7))
        new, old = _fluid_pair(view, 64, seed=11, modes=[AD0, AD3])
        assert_fluid_identical(new, old)

    def test_fast_params_and_durations(self):
        params = FluidParams(k_min=2, k_nonmin=2, n_iter=4)
        new, old = _fluid_pair(
            mini(), 48, seed=13, modes=[AD2], params=params, min_duration=1e-4
        )
        assert_fluid_identical(new, old)
        new, old = _fluid_pair(mini(), 48, seed=17, modes=[AD1], fixed_duration=2e-3)
        assert_fluid_identical(new, old)

    # Theta scale: thousands of flows over 12 x 96 routers, where the
    # column-major geometry and the dead-column skip of the per-path sums
    # run at full width (pristine minimal bundles never use columns 6-8;
    # a faulted view's repairs can)
    def test_theta_mixed_classes_with_background(self, theta_top):
        bg = np.random.default_rng(29).uniform(0.0, 0.6, theta_top.n_links)
        new, old = _fluid_pair(
            theta_top, 4096, seed=19, modes=[AD0, AD1, AD2, AD3], background=bg
        )
        assert_fluid_identical(new, old)

    def test_theta_faulted(self, theta_top):
        # the 0-1 bundle is cut whole, so minimal flows between those
        # groups are repaired onto two-global-hop detours (columns 6-8)
        cut = ";".join(f"cable:0-1:{c}" for c in range(12))
        view = theta_top.with_faults(FaultSchedule.parse(f"rank3:0.1;{cut}", seed=5))
        new, old = _fluid_pair(view, 4096, seed=23, modes=[AD0, AD3])
        assert_fluid_identical(new, old)

    def test_empty_phase(self):
        top = mini()
        empty = FlowSet(
            np.empty(0, np.int64), np.empty(0, np.int64),
            np.empty(0, np.float64), np.empty(0, np.int64),
        )
        ref_empty = ref_fluid.FlowSet(
            np.empty(0, np.int64), np.empty(0, np.int64),
            np.empty(0, np.float64), np.empty(0, np.int64),
        )
        new = solve_fluid(top, empty, [AD0], rng=np.random.default_rng(1))
        old = ref_fluid.solve_fluid(top, ref_empty, [AD0], rng=np.random.default_rng(1))
        assert_fluid_identical(new, old)


# ----------------------------------------------------------------------
# packet simulator
# ----------------------------------------------------------------------
def assert_packet_identical(new, old):
    assert new.step == old.step
    assert new.flits.tobytes() == old.flits.tobytes()
    assert new.stalls.tobytes() == old.stalls.tobytes()
    assert new.credit.tobytes() == old.credit.tobytes()
    assert new.reroutes == old.reroutes
    assert new.retries == old.retries
    assert new.dropped == old.dropped
    ln, lo = new.packet_latencies(), old.packet_latencies()
    assert ln.shape == lo.shape and ln.tobytes() == lo.tobytes()
    assert new.stall_to_flit_ratio() == old.stall_to_flit_ratio()
    assert len(new.messages) == len(old.messages)
    for mn, mo in zip(new.messages, old.messages):
        assert mn.finish_step == mo.finish_step
        assert mn.min_packets == mo.min_packets
        assert mn.nonmin_packets == mo.nonmin_packets
        assert mn.dropped_packets == mo.dropped_packets
        assert mn.n_packets == mo.n_packets
        assert mn.done == mo.done
    assert new.messages_done == sum(1 for s in new.messages if s.done)


def _bench(cls, cfg_cls):
    sim = cls(toy(), rng=np.random.default_rng(3))
    for s in range(16):
        sim.add_message(InjectionSpec(src=s, dst=16 + s, nbytes=8192, mode=AD0))
    sim.run()
    return sim


def _mixed(cls, cfg_cls):
    sim = cls(toy(), cfg_cls(reroute_patience=3), rng=np.random.default_rng(7))
    modes = [AD0, AD1, AD2, AD3]
    sizes = [64, 100, 8192, 4096, 777, 64 * 200]
    starts = [0, 0, 5, 17, 100, 400, 1000]
    for i in range(24):
        sim.add_message(
            InjectionSpec(
                src=i % 16,
                dst=(i % 16 + 1 + (i * 3) % 30) % 32,
                nbytes=sizes[i % len(sizes)],
                mode=modes[i % 4],
                start_step=starts[i % len(starts)],
            )
        )
    sim.run()
    return sim


def _faulted(spec_txt, seed, patience=4, max_retry=2):
    def build(cls, cfg_cls):
        top = toy()
        cfg = cfg_cls(reroute_patience=patience, max_reroute_attempts=max_retry)
        faults = FaultSchedule.parse(spec_txt, seed=seed)
        sim = cls(top, cfg, rng=np.random.default_rng(11), faults=faults)
        for s in range(8):
            sim.add_message(
                InjectionSpec(src=s, dst=(s + 16) % 32, nbytes=64 * 400, mode=AD0)
            )
        sim.run()
        return sim

    return build


def _faulted_modes(spec_txt, seed):
    """AD0-AD3 messages under a fault, one of them added mid-run: every
    mode group's decision runs under the dead-link mask."""

    def build(cls, cfg_cls):
        cfg = cfg_cls(reroute_patience=3, max_reroute_attempts=2)
        faults = FaultSchedule.parse(spec_txt, seed=seed)
        sim = cls(toy(), cfg, rng=np.random.default_rng(13), faults=faults)
        modes = [AD0, AD1, AD2, AD3]
        for s in range(8):
            sim.add_message(
                InjectionSpec(src=s, dst=(s + 17) % 32, nbytes=64 * 300, mode=modes[s % 4])
            )
        for _ in range(30):
            sim.advance()
        sim.add_message(
            InjectionSpec(src=9, dst=26, nbytes=64 * 200, mode=AD1, start_step=sim.step + 2)
        )
        sim.run()
        return sim

    return build


def _mini_mixed(cls, cfg_cls):
    """Mixed modes, sizes and start steps on 4 groups, where each message
    owns a full candidate window."""
    sim = cls(mini(), cfg_cls(reroute_patience=3), rng=np.random.default_rng(17))
    modes = [AD0, AD1, AD2, AD3]
    sizes = [64, 100, 8192, 4096, 777, 64 * 200]
    starts = [0, 0, 5, 17, 100, 400, 1000]
    for i in range(24):
        src = (i * 37) % 128
        sim.add_message(
            InjectionSpec(
                src=src,
                dst=(src + 32 + (i * 11) % 64) % 128,
                nbytes=sizes[i % len(sizes)],
                mode=modes[i % 4],
                start_step=starts[i % len(starts)],
            )
        )
    sim.run()
    return sim


def _mini_faulted(cls, cfg_cls):
    faults = FaultSchedule.parse("cable:0-1:0@5e-7;router:5@1e-6,4e-6", seed=6)
    cfg = cfg_cls(reroute_patience=2, max_reroute_attempts=2)
    sim = cls(mini(), cfg, rng=np.random.default_rng(19), faults=faults)
    modes = [AD0, AD1, AD2, AD3]
    for i in range(16):
        src = (i * 5) % 64
        sim.add_message(
            InjectionSpec(src=src, dst=(src + 32 + i) % 128, nbytes=64 * 400, mode=modes[i % 4])
        )
    sim.run()
    return sim


def _patience_zero(cls, cfg_cls):
    faults = FaultSchedule.parse("cable:0-1:0@5e-7", seed=2)
    sim = cls(toy(), cfg_cls(reroute_patience=0), rng=np.random.default_rng(5), faults=faults)
    for s in range(8):
        sim.add_message(InjectionSpec(src=s, dst=16 + s, nbytes=6400, mode=AD3))
    sim.run()
    return sim


def _incremental(cls, cfg_cls):
    sim = cls(toy(), rng=np.random.default_rng(9))
    sim.add_message(InjectionSpec(src=0, dst=17, nbytes=4096, mode=AD2))
    for _ in range(10):
        sim.advance()
    sim.add_message(
        InjectionSpec(src=3, dst=21, nbytes=2048, mode=AD0, start_step=sim.step + 2)
    )
    sim.add_message(InjectionSpec(src=5, dst=29, nbytes=3333, mode=AD1, start_step=sim.step))
    sim.run()
    return sim


_PACKET_SCENARIOS = {
    "bench": _bench,
    "mixed": _mixed,
    "fault-dead-cable": _faulted("cable:0-1:0", 2),
    "fault-timed": _faulted("cable:0-1:0@2.5e-6,9e-6", 3),
    "fault-degraded": _faulted("rank3:0.25", 5, patience=2),
    "fault-router": _faulted("router:1@1e-6", 4, max_retry=1),
    "patience0": _patience_zero,
    "incremental": _incremental,
    "fault-modes-timed": _faulted_modes("cable:0-1:0@1.5e-6,6e-6", 8),
    "fault-modes-router": _faulted_modes("router:1@1e-6", 9),
    "mini-mixed": _mini_mixed,
    "mini-faulted": _mini_faulted,
}


class TestPacketGolden:
    @pytest.mark.parametrize("scenario", list(_PACKET_SCENARIOS), ids=str)
    def test_scenario_identical(self, scenario):
        build = _PACKET_SCENARIOS[scenario]
        new = build(PacketSimulator, PacketSimConfig)
        old = build(ref_pkt.PacketSimulator, ref_pkt.PacketSimConfig)
        assert_packet_identical(new, old)


# ----------------------------------------------------------------------
# end to end: campaign records and checkpoints
# ----------------------------------------------------------------------
class TestEndToEndGolden:
    def test_campaign_records_and_checkpoint(self, tmp_path, monkeypatch):
        """A full campaign through the optimized solver writes the same
        records and checkpoint bytes as one through the frozen seed."""
        top = mini()
        cfg = CampaignConfig(
            app=MILC(), n_nodes=32, modes=(AD0, AD3), samples=2, seed=11,
            scenario_pool=4,
        )
        p_new = tmp_path / "new.jsonl"
        p_old = tmp_path / "old.jsonl"

        new = run_campaign(top, cfg, checkpoint_path=str(p_new))
        monkeypatch.setattr(
            "repro.core.experiment.solve_fluid", ref_fluid.solve_fluid
        )
        old = run_campaign(top, cfg, checkpoint_path=str(p_old))

        assert [record_to_dict(r) for r in new] == [record_to_dict(r) for r in old]
        assert p_new.read_bytes() == p_old.read_bytes()

    def test_simcomm_identical(self, monkeypatch):
        """The MPI layer sees identical timings from either engine."""
        from repro.mpi import api as mpi_api

        def workload():
            comm = mpi_api.SimComm(
                toy(),
                np.arange(8),
                env=RoutingEnv(),
                rng=np.random.default_rng(21),
            )
            reqs = [
                comm.isend(r, (r + 4) % 8, 32 * 1024) for r in range(8)
            ]
            comm.waitall(reqs)
            return comm

        new = workload()
        monkeypatch.setattr(mpi_api, "PacketSimulator", ref_pkt.PacketSimulator)
        old = workload()
        assert new.now == old.now
        assert new.op_times == old.op_times
        assert new.op_calls == old.op_calls
