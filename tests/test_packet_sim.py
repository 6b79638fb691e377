"""Unit tests for the packet-level simulator."""

import numpy as np
import pytest

from repro.core.biases import AD0, AD3
from repro.network.congestion import PACKET_BYTES
from repro.network.packet_sim import (
    MSG,
    ROW,
    InjectionSpec,
    PacketSimConfig,
    PacketSimulator,
)


def make_sim(top, seed=0, **kw):
    return PacketSimulator(top, PacketSimConfig(**kw), rng=np.random.default_rng(seed))


class TestBasics:
    def test_single_message_delivery(self, toy_top):
        sim = make_sim(toy_top)
        mid = sim.add_message(InjectionSpec(src=0, dst=17, nbytes=1024, mode=AD0))
        steps = sim.run()
        assert steps > 0
        assert sim.messages[mid].done
        assert sim.messages[mid].latency(sim.config.step_time) > 0

    def test_packet_count(self, toy_top):
        sim = make_sim(toy_top)
        mid = sim.add_message(InjectionSpec(src=0, dst=17, nbytes=1000, mode=AD0))
        assert sim.messages[mid].n_packets == int(np.ceil(1000 / PACKET_BYTES))

    def test_all_packets_accounted(self, toy_top):
        sim = make_sim(toy_top)
        sim.add_message(InjectionSpec(src=0, dst=20, nbytes=4096, mode=AD0))
        sim.add_message(InjectionSpec(src=5, dst=25, nbytes=4096, mode=AD0))
        sim.run()
        n_pkts = sum(m.n_packets for m in sim.messages)
        assert sim.packet_latencies().size == n_pkts
        assert sim.idle

    def test_flits_counted_on_service(self, toy_top):
        sim = make_sim(toy_top)
        sim.add_message(InjectionSpec(src=0, dst=17, nbytes=640, mode=AD0))
        sim.run()
        assert sim.flits.sum() > 0

    def test_validation(self, toy_top):
        sim = make_sim(toy_top)
        with pytest.raises(ValueError):
            sim.add_message(InjectionSpec(src=3, dst=3, nbytes=64, mode=AD0))
        with pytest.raises(ValueError):
            sim.add_message(InjectionSpec(src=0, dst=10**6, nbytes=64, mode=AD0))
        with pytest.raises(ValueError):
            sim.add_message(InjectionSpec(src=0, dst=1, nbytes=0, mode=AD0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PacketSimConfig(step_time=0)
        with pytest.raises(ValueError):
            PacketSimConfig(occupancy_credit_unit=0)

    def test_delayed_start(self, toy_top):
        sim = make_sim(toy_top)
        sim.add_message(InjectionSpec(src=0, dst=17, nbytes=64, mode=AD0, start_step=50))
        sim.run()
        assert sim.messages[0].finish_step > 50

    def test_past_start_rejected(self, toy_top):
        sim = make_sim(toy_top)
        for _ in range(10):
            sim.advance()
        with pytest.raises(ValueError, match="in the past"):
            sim.add_message(InjectionSpec(src=0, dst=17, nbytes=64, mode=AD0, start_step=5))

    def test_run_limit(self, toy_top):
        sim = make_sim(toy_top, max_steps=1)
        sim.add_message(InjectionSpec(src=0, dst=17, nbytes=10_000_000, mode=AD0))
        with pytest.raises(RuntimeError, match="did not drain"):
            sim.run()


class TestRoutingBehavior:
    def test_ad3_overwhelmingly_minimal(self, toy_top):
        # AD3 may legitimately divert when minimal load exceeds 4x the
        # alternative, but that should be rare
        sim = make_sim(toy_top)
        for s in range(8):
            sim.add_message(InjectionSpec(src=s, dst=16 + s, nbytes=8192, mode=AD3))
        sim.run()
        non = sum(m.nonmin_packets for m in sim.messages)
        total = sum(m.n_packets for m in sim.messages)
        assert non / total < 0.05

    def test_ad3_more_minimal_than_ad0(self, toy_top):
        fracs = {}
        for mode in (AD0, AD3):
            sim = make_sim(toy_top, seed=3)
            for s in range(16):
                sim.add_message(
                    InjectionSpec(src=s, dst=16 + (s % 16), nbytes=16384, mode=mode)
                )
            sim.run()
            non = sum(m.nonmin_packets for m in sim.messages)
            total = sum(m.n_packets for m in sim.messages)
            fracs[mode.name] = non / total
        assert fracs["AD3"] < fracs["AD0"]

    def test_ad0_splits_under_contention(self, toy_top):
        sim = make_sim(toy_top)
        for s in range(16):
            sim.add_message(InjectionSpec(src=s, dst=16 + (s % 16), nbytes=16384, mode=AD0))
        sim.run()
        total_non = sum(m.nonmin_packets for m in sim.messages)
        assert total_non > 0

    def test_stalls_emerge_under_incast(self, toy_top):
        # many senders, one destination: ejection queue must stall
        sim = make_sim(toy_top)
        for s in range(8):
            sim.add_message(InjectionSpec(src=s, dst=31, nbytes=16384, mode=AD0))
        sim.run()
        assert sim.stalls.sum() > 0

    def test_uncontended_faster_than_incast(self, toy_top):
        free = make_sim(toy_top)
        free.add_message(InjectionSpec(src=0, dst=31, nbytes=16384, mode=AD0))
        free.run()
        t_free = free.messages[0].latency(free.config.step_time)

        incast = make_sim(toy_top)
        mids = [
            incast.add_message(InjectionSpec(src=s, dst=31, nbytes=16384, mode=AD0))
            for s in range(8)
        ]
        incast.run()
        t_incast = max(incast.messages[m].latency(incast.config.step_time) for m in mids)
        assert t_incast > t_free

    def test_occupancy_snapshot(self, toy_top):
        sim = make_sim(toy_top)
        sim.add_message(InjectionSpec(src=0, dst=17, nbytes=64 * 100, mode=AD0))
        sim.advance()
        occ = sim.occupancy()
        assert occ.sum() > 0

    def test_stall_to_flit_ratio_finite(self, toy_top):
        sim = make_sim(toy_top)
        for s in range(8):
            sim.add_message(InjectionSpec(src=s, dst=24 + (s % 8), nbytes=8192, mode=AD0))
        sim.run()
        assert np.isfinite(sim.stall_to_flit_ratio())

    def test_deterministic(self, toy_top):
        lats = []
        for _ in range(2):
            sim = make_sim(toy_top, seed=7)
            for s in range(4):
                sim.add_message(InjectionSpec(src=s, dst=16 + s, nbytes=4096, mode=AD0))
            sim.run()
            lats.append(sim.packet_latencies())
        np.testing.assert_array_equal(lats[0], lats[1])


class TestBandwidth:
    def test_throughput_bounded_by_nic(self, toy_top):
        # one large message cannot beat the injection-link rate
        sim = make_sim(toy_top)
        nbytes = 512 * 1024
        sim.add_message(InjectionSpec(src=0, dst=17, nbytes=nbytes, mode=AD3))
        sim.run()
        elapsed = sim.messages[0].latency(sim.config.step_time)
        nic_rate = toy_top.params.nic_bw_bidir / 2
        assert nbytes / elapsed <= nic_rate * 1.05

    def test_throughput_reasonable_fraction_of_nic(self, toy_top):
        sim = make_sim(toy_top)
        nbytes = 512 * 1024
        sim.add_message(InjectionSpec(src=0, dst=17, nbytes=nbytes, mode=AD3))
        sim.run()
        elapsed = sim.messages[0].latency(sim.config.step_time)
        nic_rate = toy_top.params.nic_bw_bidir / 2
        # an uncontended stream should achieve most of the line rate
        assert nbytes / elapsed >= 0.5 * nic_rate


class TestPacketTelemetry:
    def test_run_event_and_step_stats(self, toy_top):
        from repro.telemetry import MemoryTraceWriter, Telemetry

        mem = MemoryTraceWriter()
        tel = Telemetry(trace=mem)
        sim = PacketSimulator(
            toy_top,
            PacketSimConfig(trace_every=2),
            rng=np.random.default_rng(0),
            telemetry=tel,
        )
        sim.add_message(InjectionSpec(src=0, dst=17, nbytes=4096, mode=AD0))
        sim.run()
        (run_ev,) = mem.of_type("packet.run")
        assert run_ev["messages_done"] == 1
        assert run_ev["steps"] > 0
        assert run_ev["flits"] > 0
        assert mem.of_type("packet.step")  # periodic queue stats
        assert tel.metrics.counter("packet_steps_total").value == run_ev["steps"]

    def test_no_telemetry_no_events(self, toy_top):
        sim = PacketSimulator(toy_top, rng=np.random.default_rng(0))
        sim.add_message(InjectionSpec(src=0, dst=17, nbytes=1024, mode=AD0))
        sim.run()  # ambient telemetry is the null sink: nothing to assert, must not raise


class TestBookkeeping:
    def test_messages_done_matches_recount(self, toy_top):
        sim = make_sim(toy_top, reroute_patience=2)
        for s in range(6):
            sim.add_message(
                InjectionSpec(src=s, dst=16 + s, nbytes=2048, mode=AD0, start_step=3 * s)
            )
        # the counter must track completion incrementally, not just at the end
        while not sim.idle:
            sim.advance()
            assert sim.messages_done == sum(1 for m in sim.messages if m.done)
        assert sim.messages_done == len(sim.messages)

    def test_messages_done_counts_drops(self, toy_top):
        # partition the two groups mid-run so cross packets drop after
        # bounded retries; dropped messages still count as done
        from repro.faults.model import FaultSchedule, FaultSpec

        cfg = PacketSimConfig(reroute_patience=4)
        t_fault = 20 * cfg.step_time
        K = toy_top.params.cables_per_group_pair
        faults = FaultSchedule(
            specs=tuple(FaultSpec.dead_cable(0, 1, c, start=t_fault) for c in range(K)),
            seed=5,
        )
        sim = PacketSimulator(toy_top, cfg, rng=np.random.default_rng(4), faults=faults)
        for s in range(8):
            sim.add_message(InjectionSpec(src=s, dst=16 + s, nbytes=6400, mode=AD0))
        sim.run()
        assert sim.dropped > 0
        assert sim.messages_done == sum(1 for m in sim.messages if m.done)
        assert sim.messages_done == len(sim.messages)


class TestCandidateWindow:
    """A routing decision should only pick rows of the packet's own
    message.

    The window reads ``k_min + k_nonmin`` rows from the message's first
    row (the frozen reference's window, kept byte for byte).  On a
    2-group system Valiant yields one row per flow, so a message owns 3
    rows and its window's 4th row is the next message's first minimal
    row; on 4 groups each message owns a full window.
    """

    @staticmethod
    def _foreign(sim):
        """Live routed packets sitting on another message's row."""
        n = sim.n_active
        mids = sim._ai[MSG, :n]
        rows = sim._ai[ROW, :n]
        starts = sim._cand_start_arr[: len(sim.messages)]
        ends = np.append(starts[1:], sim._cand_rows)
        off = (rows < starts[mids]) | (rows >= ends[mids])
        return int((off & (rows >= 0)).sum())

    def _foreign_over_run(self, top):
        sim = make_sim(top, seed=3)
        half = top.n_nodes // 2
        for s in range(16):
            sim.add_message(InjectionSpec(src=s, dst=half + s, nbytes=8192, mode=AD0))
        foreign = 0
        while not sim.idle:
            sim.advance()
            foreign += self._foreign(sim)
        return foreign, sim

    def test_packets_stay_on_their_messages_rows(self, mini_top):
        foreign, sim = self._foreign_over_run(mini_top)
        # the non-minimal side was taken, so the window's tail was read
        assert sum(m.nonmin_packets for m in sim.messages) > 0
        assert foreign == 0

    @pytest.mark.xfail(
        strict=True,
        reason="on 2 groups the window reads the next message's first "
        "minimal row and routes packets onto it",
    )
    def test_packets_stay_on_their_messages_rows_toy(self, toy_top):
        foreign, _ = self._foreign_over_run(toy_top)
        assert foreign == 0
