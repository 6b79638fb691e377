"""Unit tests for phases, the routing env, and the imperative SimComm."""

import numpy as np
import pytest

from repro.core.biases import AD0, AD1, AD2, AD3
from repro.core.experiment import phase_slices
from repro.mpi.api import SimComm
from repro.mpi.env import (
    A2A_ROUTING_MODE_VAR,
    ROUTING_MODE_VAR,
    RoutingEnv,
)
from repro.mpi.patterns import CollectiveSpec, P2PSpec, Phase, TrafficOp
from repro.network.fluid import FlowSet


def _small_flows():
    return FlowSet(np.array([0, 1]), np.array([2, 3]), np.array([64.0, 64.0]), np.array([0, 0]))


class TestRoutingEnv:
    def test_cray_defaults(self):
        env = RoutingEnv.from_mapping({})
        assert env.p2p_mode is AD0
        assert env.a2a_mode is AD1

    def test_env_var_parsing(self):
        env = RoutingEnv.from_mapping(
            {ROUTING_MODE_VAR: "ADAPTIVE_3", A2A_ROUTING_MODE_VAR: "ADAPTIVE_2"}
        )
        assert env.p2p_mode is AD3
        assert env.a2a_mode is AD2

    def test_uniform(self):
        env = RoutingEnv.uniform(AD3)
        assert env.p2p_mode is AD3 and env.a2a_mode is AD3

    def test_mode_for_traffic_op(self):
        env = RoutingEnv()
        assert env.mode_for(TrafficOp.P2P) is AD0
        assert env.mode_for(TrafficOp.A2A) is AD1

    def test_modes_list_indexable_by_traffic_op(self):
        env = RoutingEnv(p2p_mode=AD2, a2a_mode=AD1)
        modes = env.modes_list()
        assert modes[int(TrafficOp.P2P)] is AD2
        assert modes[int(TrafficOp.A2A)] is AD1

    def test_roundtrip_mapping(self):
        env = RoutingEnv.uniform(AD3)
        again = RoutingEnv.from_mapping(env.as_mapping())
        assert again == env

    def test_from_os_environ(self, monkeypatch):
        monkeypatch.setenv(ROUTING_MODE_VAR, "ADAPTIVE_2")
        monkeypatch.delenv(A2A_ROUTING_MODE_VAR, raising=False)
        env = RoutingEnv.from_os_environ()
        assert env.p2p_mode is AD2
        assert env.a2a_mode is AD1


class TestPhase:
    def test_all_flows_classes(self):
        p2p = P2PSpec(flows=_small_flows())
        coll = CollectiveSpec(
            op="MPI_Alltoallv",
            flows=_small_flows(),
            rounds=3,
            traffic_op=TrafficOp.A2A,
        )
        phase = Phase(name="x", compute_time=0.1, p2p=p2p, collectives=[coll])
        fl, slices = phase_slices(phase)
        assert fl.n == 4
        assert slices == [("p2p", 0, 2), ("coll0", 2, 4)]
        assert set(np.unique(fl.cls)) == {int(TrafficOp.P2P), int(TrafficOp.A2A)}

    def test_total_bytes(self):
        phase = Phase(name="x", compute_time=0.0, p2p=P2PSpec(flows=_small_flows()))
        assert phase.total_bytes() == 128.0

    def test_negative_compute_rejected(self):
        with pytest.raises(ValueError):
            Phase(name="x", compute_time=-1.0)

    def test_overlap_fraction_validated(self):
        with pytest.raises(ValueError):
            P2PSpec(flows=_small_flows(), overlap_fraction=1.0)

    def test_collective_rounds_validated(self):
        with pytest.raises(ValueError):
            CollectiveSpec(op="x", flows=_small_flows(), rounds=-1)


class TestSimComm:
    def test_allreduce_runs(self, toy_top):
        comm = SimComm(toy_top, np.arange(16), rng=np.random.default_rng(0))
        t = comm.allreduce(8)
        assert t > 0
        assert comm.op_calls["MPI_Allreduce"] == 1

    def test_allreduce_non_power_of_two(self, toy_top):
        comm = SimComm(toy_top, np.arange(12), rng=np.random.default_rng(0))
        assert comm.allreduce(8) > 0

    def test_barrier_faster_than_big_allreduce(self, toy_top):
        comm = SimComm(toy_top, np.arange(16), rng=np.random.default_rng(0))
        tb = comm.barrier()
        ta = comm.allreduce(64 * 1024)
        assert tb < ta

    def test_isend_wait(self, toy_top):
        comm = SimComm(toy_top, np.arange(8), rng=np.random.default_rng(0))
        req = comm.isend(0, 7, 4096)
        assert not req.done
        t = req.wait()
        assert req.done and t > 0

    def test_waitall_multiple(self, toy_top):
        comm = SimComm(toy_top, np.arange(8), rng=np.random.default_rng(0))
        reqs = [comm.isend(i, (i + 4) % 8, 1024) for i in range(4)]
        t = comm.waitall(reqs)
        assert t > 0 and all(r.done for r in reqs)

    def test_alltoall_uses_a2a_mode(self, toy_top):
        env = RoutingEnv(p2p_mode=AD0, a2a_mode=AD3)
        comm = SimComm(toy_top, np.arange(8), env=env, rng=np.random.default_rng(0))
        comm.alltoall(512)
        # with AD3 on A2A traffic, almost everything goes minimal
        non = sum(m.nonmin_packets for m in comm._sim.messages)
        total = sum(m.n_packets for m in comm._sim.messages)
        assert non / total < 0.1

    def test_profile_accumulates(self, toy_top):
        comm = SimComm(toy_top, np.arange(8), rng=np.random.default_rng(0))
        comm.allreduce(8)
        comm.allreduce(8)
        calls, secs = comm.profile()["MPI_Allreduce"]
        assert calls == 2 and secs > 0

    def test_sendrecv(self, toy_top):
        comm = SimComm(toy_top, np.arange(8), rng=np.random.default_rng(0))
        t = comm.sendrecv([(0, 1), (2, 3)], 2048)
        assert t > 0

    def test_duplicate_rank_nodes_rejected(self, toy_top):
        with pytest.raises(ValueError, match="distinct node"):
            SimComm(toy_top, np.array([0, 0, 1]))

    def test_now_advances(self, toy_top):
        comm = SimComm(toy_top, np.arange(4), rng=np.random.default_rng(0))
        t0 = comm.now
        comm.barrier()
        assert comm.now > t0


class TestSimCommCollectives:
    def test_bcast(self, toy_top):
        import numpy as np

        comm = SimComm(toy_top, np.arange(16), rng=np.random.default_rng(0))
        t = comm.bcast(1024)
        assert t > 0
        assert comm.op_calls["MPI_Bcast"] == 1

    def test_bcast_rotated_root(self, toy_top):
        import numpy as np

        comm = SimComm(toy_top, np.arange(16), rng=np.random.default_rng(0))
        assert comm.bcast(1024, root=5) > 0

    def test_reduce(self, toy_top):
        import numpy as np

        comm = SimComm(toy_top, np.arange(16), rng=np.random.default_rng(0))
        t = comm.reduce(1024)
        assert t > 0
        assert comm.op_calls["MPI_Reduce"] == 1

    def test_allgather(self, toy_top):
        import numpy as np

        comm = SimComm(toy_top, np.arange(8), rng=np.random.default_rng(0))
        t = comm.allgather(512)
        assert t > 0

    def test_reduce_and_bcast_comparable_cost(self, toy_top):
        import numpy as np

        c1 = SimComm(toy_top, np.arange(16), rng=np.random.default_rng(1))
        c2 = SimComm(toy_top, np.arange(16), rng=np.random.default_rng(1))
        tb = c1.bcast(4096)
        tr = c2.reduce(4096)
        assert tb == pytest.approx(tr, rel=0.5)
