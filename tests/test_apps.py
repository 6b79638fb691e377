"""Unit tests for the application workload models (Table I invariants)."""

import numpy as np
import pytest

from repro.apps import (
    HACC,
    MILC,
    PRODUCTION_APPS,
    BisectionBound,
    ComputeBound,
    InjectionBound,
    LatencyBound,
    MILCReorder,
    Nek5000,
    Qbox,
    Rayleigh,
    app_by_name,
)
from repro.apps.base import grid_dims, rank_grid_coords, random_pair_flows, stencil_flows
from repro.core.experiment import phase_slices
from repro.mpi.patterns import TrafficOp
from repro.util import KiB, MiB


@pytest.fixture
def nodes256():
    return np.arange(256)


class TestGridHelpers:
    def test_grid_dims_balanced(self):
        assert grid_dims(256, 4) == (4, 4, 4, 4)
        assert grid_dims(128, 4) == (4, 4, 4, 2)
        assert grid_dims(512, 4) == (8, 4, 4, 4)
        assert grid_dims(64, 3) == (4, 4, 4)

    def test_grid_dims_prime(self):
        assert grid_dims(7, 2) == (7, 1)

    def test_grid_dims_product(self):
        for n in (12, 100, 256, 360):
            assert int(np.prod(grid_dims(n, 4))) == n

    def test_grid_dims_validation(self):
        with pytest.raises(ValueError):
            grid_dims(0, 3)

    def test_rank_grid_coords_roundtrip(self):
        dims = (4, 4, 2)
        coords = rank_grid_coords(32, dims)
        # row-major recomposition
        recomposed = coords[:, 0] * 8 + coords[:, 1] * 2 + coords[:, 2]
        np.testing.assert_array_equal(recomposed, np.arange(32))

    def test_rank_grid_coords_validation(self):
        with pytest.raises(ValueError):
            rank_grid_coords(10, (3, 3))

    def test_stencil_flows_degree(self, nodes256):
        fl = stencil_flows(nodes256, (4, 4, 4, 4), 1000.0)
        # periodic 4D grid: 8 neighbors each
        counts = np.bincount(fl.src, minlength=256)
        assert (counts == 8).all()

    def test_stencil_flows_nonperiodic_boundary(self):
        fl = stencil_flows(np.arange(16), (4, 4), 10.0, periodic=False)
        counts = np.bincount(fl.src, minlength=16)
        assert counts.min() == 2  # corners
        assert counts.max() == 4  # interior

    def test_stencil_dim2_no_self_duplicates(self):
        # dims of size 2: +1 and -1 reach the same partner
        fl = stencil_flows(np.arange(8), (2, 2, 2), 10.0)
        assert (fl.src != fl.dst).all()

    def test_random_pair_flows(self, nodes256, rng):
        fl = random_pair_flows(nodes256, 12, 100.0, rng)
        assert fl.n == 256 * 12
        assert (fl.src != fl.dst).all()


class TestAppRegistry:
    def test_production_set(self):
        names = [cls.name for cls in PRODUCTION_APPS]
        assert names == ["MILC", "MILCREORDER", "Nek5000", "HACC", "Qbox", "Rayleigh"]

    @pytest.mark.parametrize("name", ["milc", "MILCREORDER", "hacc", "qbox", "latencybound"])
    def test_app_by_name(self, name):
        assert app_by_name(name).name.lower() == name.lower().replace(" ", "")

    def test_unknown_app(self):
        with pytest.raises(KeyError):
            app_by_name("gromacs")


class TestTableICharacteristics:
    """Each model must emit the communication profile of Table I."""

    def test_milc_message_sizes_kb_range(self, nodes256, rng):
        phases = MILC().phases(nodes256, rng)
        stencil = phases[0].p2p
        per_msg = stencil.flows.nbytes[0] / MILC.cg_per_iter
        assert 1 * KiB <= per_msg <= 128 * KiB

    def test_milc_allreduce_is_8_bytes(self, nodes256, rng):
        phases = MILC().phases(nodes256, rng)
        ar = phases[1].collectives[0]
        assert ar.op == "MPI_Allreduce"
        assert ar.msg_bytes == 8.0

    def test_milc_4d_stencil(self, nodes256, rng):
        phases = MILC().phases(nodes256, rng)
        counts = np.bincount(phases[0].p2p.flows.src, minlength=256)
        assert (counts == 8).all()  # 2 * 4 dims

    def test_milcreorder_less_volume_than_milc(self, nodes256, rng):
        v_milc = sum(p.total_bytes() for p in MILC().phases(nodes256, rng))
        v_reord = sum(p.total_bytes() for p in MILCReorder().phases(nodes256, rng))
        assert v_reord < v_milc

    def test_hacc_large_messages(self, nodes256, rng):
        phases = HACC().phases(nodes256, rng)
        fft = phases[0].p2p
        per_msg = fft.flows.nbytes[0] / HACC.transposes_per_iter
        assert per_msg >= 1 * MiB  # the paper's 1.2 MB sends

    def test_hacc_fft_not_latency_exposed(self, nodes256, rng):
        phases = HACC().phases(nodes256, rng)
        assert phases[0].p2p.exposed_messages == 0.0

    def test_hacc_allreduce_1kb(self, nodes256, rng):
        phases = HACC().phases(nodes256, rng)
        sums = phases[2].collectives[0]
        assert sums.msg_bytes == 1 * KiB

    def test_qbox_alltoallv_is_a2a_class(self, nodes256, rng):
        phases = Qbox().phases(nodes256, rng)
        a2a = phases[0].collectives[0]
        assert a2a.op == "MPI_Alltoallv"
        assert a2a.traffic_op == TrafficOp.A2A
        assert a2a.sync == "pairwise"

    def test_qbox_pair_bytes_128k(self, nodes256, rng):
        phases = Qbox().phases(nodes256, rng)
        assert phases[0].collectives[0].msg_bytes == pytest.approx(128 * KiB)

    def test_rayleigh_no_heavy_p2p(self, nodes256, rng):
        phases = Rayleigh().phases(nodes256, rng)
        a2a_bytes = phases[0].collectives[0].flows.nbytes.sum()
        p2p_bytes = phases[0].p2p.flows.nbytes.sum()
        assert p2p_bytes < 0.1 * a2a_bytes

    def test_rayleigh_23mb_alltoallv(self, nodes256, rng):
        phases = Rayleigh().phases(nodes256, rng)
        assert phases[0].collectives[0].msg_bytes == pytest.approx(23 * MiB)

    def test_nek_medium_messages_light_collectives(self, nodes256, rng):
        phases = Nek5000().phases(nodes256, rng)
        gs = phases[0].p2p
        per_msg = gs.flows.nbytes[0] / Nek5000.solves_per_iter
        assert 1 * KiB <= per_msg <= 64 * KiB
        ar = phases[1].collectives[0]
        assert ar.msg_bytes == 16.0  # Table I: light (16B)


class TestScaling:
    @pytest.mark.parametrize("cls", [MILC, HACC, Qbox])
    def test_strong_scaling_halves_volume(self, cls, rng):
        app = cls()
        v256 = sum(p.total_bytes() for p in app.phases(np.arange(256), rng))
        v512 = sum(p.total_bytes() for p in app.phases(np.arange(512), rng))
        # per-rank volume halves, rank count doubles: total roughly constant
        assert v512 == pytest.approx(v256, rel=0.25)

    def test_scale_factor(self):
        app = MILC()
        assert app.scale_factor(256) == 1.0
        assert app.scale_factor(512) == 0.5
        assert app.scale_factor(128) == 2.0

    def test_weak_scaling_mode(self):
        app = MILC()
        app.scaling = "weak"
        assert app.scale_factor(512) == 1.0
        app.scaling = "strong"

    def test_unknown_scaling_rejected(self):
        app = MILC()
        app.scaling = "magic"
        with pytest.raises(ValueError):
            app.scale_factor(512)
        app.scaling = "strong"

    @pytest.mark.parametrize("cls", list(PRODUCTION_APPS))
    def test_phases_well_formed(self, cls, rng):
        phases = cls().phases(np.arange(128), rng)
        assert len(phases) >= 1
        for p in phases:
            fl = phase_slices(p)[0]
            if fl.n:
                assert (fl.src != fl.dst).all()
                assert (fl.nbytes >= 0).all()


class TestSyntheticApps:
    def test_latency_bound_small_messages(self, nodes256, rng):
        phases = LatencyBound().phases(nodes256, rng)
        coll = phases[0].collectives[0]
        assert coll.flows.nbytes.max() <= 8.0 * LatencyBound.allreduces_per_iter

    def test_bisection_bound_large_messages(self, nodes256, rng):
        phases = BisectionBound().phases(nodes256, rng)
        assert phases[0].p2p.flows.nbytes.min() >= 1 * MiB

    def test_injection_bound_one_partner(self, nodes256, rng):
        phases = InjectionBound().phases(nodes256, rng)
        counts = np.bincount(phases[0].p2p.flows.src, minlength=256)
        assert counts.max() == 1

    def test_compute_bound_tiny_comm(self, nodes256, rng):
        phases = ComputeBound().phases(nodes256, rng)
        assert sum(p.total_bytes() for p in phases) < 1 * MiB
