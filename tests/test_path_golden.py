"""Golden byte-equivalence: path builders vs the frozen pre-rewrite copy.

``tests/_reference_paths.py`` is a verbatim copy of the row-by-row path
builders that predate the column-major rewrite.  The live builders must
reproduce them exactly: the same ``links`` bytes, the same owning flows,
and the same generator state afterwards (so every later draw of a
campaign is unchanged).  The fluid golden suite compares solvers given
the same paths; this suite pins the paths themselves.
"""

import numpy as np
import pytest

from repro.faults.errors import NetworkPartitionedError
from repro.faults.model import FaultSchedule
from repro.topology.pathcache import cached_minimal_paths, cached_valiant_paths, path_memo
from repro.topology.paths import MAX_HOPS, minimal_paths, valiant_paths
from repro.topology.systems import cori, mini, theta, toy

from tests import _reference_paths as ref_paths

_TOPOLOGIES = {
    "toy": toy,  # G == 2: the Valiant builder's minimal-shaped fallback
    "mini": mini,
    "theta": theta,
    "cori": cori,
    # broken rows go through the scalar repair search
    "mini-rank3-faulted": lambda: mini().with_faults(FaultSchedule.parse("rank3:0.25", seed=7)),
}
_BUILDERS = {
    "minimal": (minimal_paths, ref_paths.minimal_paths),
    "valiant": (valiant_paths, ref_paths.valiant_paths),
}


@pytest.fixture(scope="module", params=sorted(_TOPOLOGIES))
def top(request):
    return _TOPOLOGIES[request.param]()


def _flows(top, kind, n=240, seed=0):
    """``n`` flows of one kind: all intra-group, all inter-group, or mixed."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, top.n_nodes, 4 * n)
    if kind == "intra":
        per_group = top.routers_per_group * top.nodes_per_router
        dst = (src // per_group) * per_group + rng.integers(0, per_group, src.size)
    else:
        dst = (src + 1 + rng.integers(0, top.n_nodes - 1, src.size)) % top.n_nodes
    g_src, g_dst = top.node_group(src), top.node_group(dst)
    keep = (src != dst) & (dst < top.n_nodes)
    if kind == "intra":
        keep &= g_src == g_dst
    elif kind == "inter":
        keep &= g_src != g_dst
    src, dst = src[keep][:n], dst[keep][:n]
    assert src.size == n
    return src, dst


def _build(builder, top, src, dst, k, seed):
    rng = np.random.default_rng(seed)
    try:
        out = builder(top, src, dst, k=k, rng=rng)
    except (ValueError, NetworkPartitionedError) as exc:
        out = exc
    return out, rng.bit_generator.state


@pytest.mark.parametrize("builder", sorted(_BUILDERS))
@pytest.mark.parametrize("kind", ["intra", "inter", "mixed"])
@pytest.mark.parametrize("k", [1, 2, 6, "K+1"])
def test_matches_frozen_builder(top, builder, kind, k):
    if k == "K+1":
        k = top.params.cables_per_group_pair + 1
    src, dst = _flows(top, kind)
    live, frozen = _BUILDERS[builder]
    new, new_state = _build(live, top, src, dst, k, seed=11)
    old, old_state = _build(frozen, top, src, dst, k, seed=11)
    assert new_state == old_state
    if isinstance(old, Exception):
        assert type(new) is type(old) and str(new) == str(old)
        return
    assert new.kind == old.kind
    assert new.links.shape == old.links.shape == (old.links.shape[0], MAX_HOPS)
    assert new.links.dtype == np.int64
    assert new.links.tobytes() == old.links.tobytes()
    assert new.flow.dtype == old.flow.dtype
    assert new.flow.tobytes() == old.flow.tobytes()
    # -1 is the only padding value, and injection/ejection are always set
    assert (new.links >= -1).all()
    assert (new.links[:, [0, MAX_HOPS - 1]] >= 0).all()
    np.testing.assert_array_equal(new.router_hops, old.router_hops)
    np.testing.assert_array_equal(new.hops, old.hops)


def test_faulted_view_repairs_rows():
    # the faulted fixture must actually reach the repair search, or the
    # golden above would not cover it
    top = _TOPOLOGIES["mini-rank3-faulted"]()
    src, dst = _flows(top, "inter")
    bundle = minimal_paths(top, src, dst, k=2, rng=np.random.default_rng(11))
    pristine = minimal_paths(mini(), src, dst, k=2, rng=np.random.default_rng(11))
    assert not np.array_equal(bundle.links, pristine.links)


def test_links_is_a_view_of_the_column_table():
    top = mini()
    src, dst = _flows(top, "mixed")
    bundle = valiant_paths(top, src, dst, k=2, rng=np.random.default_rng(3))
    assert bundle.cols.flags.c_contiguous
    assert bundle.cols.shape == (MAX_HOPS, bundle.n_subpaths)
    assert bundle.links.base is bundle.cols


@pytest.mark.parametrize("cached", [cached_minimal_paths, cached_valiant_paths])
def test_memo_frozen_bundle_has_no_writable_buffer(cached):
    top = mini()
    src, dst = _flows(top, "mixed")
    with path_memo():
        bundle = cached(top, src, dst, k=2, rng=np.random.default_rng(0))
        for arr in (bundle.links, bundle.cols, bundle.flow):
            while isinstance(arr, np.ndarray):
                with pytest.raises(ValueError):
                    arr[(0,) * arr.ndim] = -2
                arr = arr.base
