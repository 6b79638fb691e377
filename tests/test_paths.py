"""The draw-only path advance (:func:`repro.topology.paths.advance_paths`).

An unread background-pool slot advances the pool's generator past the
solve's path draws without building a table.  It must leave the
generator exactly where a full :func:`minimal_paths` +
:func:`valiant_paths` build leaves it, on every flow shape and every
``k`` the solver's callers use.
"""

import tracemalloc

import numpy as np
import pytest

from repro.faults.model import FaultSchedule
from repro.topology.paths import MAX_HOPS, advance_paths, minimal_paths, valiant_paths

#: (k_min, k_nonmin) of the background pool and of the interference
#: aggressor fields, the two link-field solves
POOL_KS = [(2, 2), (3, 2)]


def _flows(top, kind, n=300, seed=4):
    """``n`` flows: ``intra``- or ``inter``-group only, ``mixed``, or ``empty``."""
    if kind == "empty":
        z = np.zeros(0, dtype=np.int64)
        return z, z
    rng = np.random.default_rng(seed)
    per_group = top.routers_per_group * top.nodes_per_router
    src = rng.integers(0, top.n_nodes, n)
    # a different node of the source's group
    step = 1 + rng.integers(0, per_group - 1, n)
    intra = (src // per_group) * per_group + (src % per_group + step) % per_group
    # a node of a different group
    hop = 1 + rng.integers(0, top.n_groups - 1, n)
    inter = ((src // per_group + hop) % top.n_groups) * per_group + rng.integers(0, per_group, n)
    if kind == "intra":
        dst = intra
    elif kind == "inter":
        dst = inter
    else:
        dst = np.where(rng.random(n) < 0.3, intra, inter)
    same = top.node_group(src) == top.node_group(dst)
    assert same.all() if kind == "intra" else not same.all()
    if kind == "mixed":
        assert same.any()
    return src, dst


@pytest.fixture(params=["toy", "mini", "theta"])
def top(request):
    return request.getfixturevalue(f"{request.param}_top")


@pytest.mark.parametrize("kind", ["intra", "inter", "mixed", "empty"])
@pytest.mark.parametrize("ks", POOL_KS, ids=["pool", "aggressor"])
def test_advance_leaves_the_build_state(top, kind, ks):
    k_min, k_nonmin = ks
    src, dst = _flows(top, kind)
    built = np.random.default_rng(9)
    minimal_paths(top, src, dst, k=k_min, rng=built)
    valiant_paths(top, src, dst, k=k_nonmin, rng=built)
    advanced = np.random.default_rng(9)
    advance_paths(top, src, dst, k_min=k_min, k_nonmin=k_nonmin, rng=advanced)
    assert advanced.bit_generator.state == built.bit_generator.state
    # a non-empty flow set draws: the equality above is not vacuous
    fresh = np.random.default_rng(9).bit_generator.state
    assert (advanced.bit_generator.state == fresh) == (kind == "empty")


def test_advance_builds_no_table(theta_top):
    # its draws and per-flow endpoints stay below one k=2 int64 table
    src, dst = _flows(theta_top, "mixed", n=20000)
    table_bytes = MAX_HOPS * src.size * 2 * 8
    tracemalloc.start()
    try:
        advance_paths(theta_top, src, dst, k_min=2, k_nonmin=2, rng=np.random.default_rng(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < table_bytes


def test_advance_refuses_a_faulted_view(mini_top):
    # the fault repair's draws depend on the built table
    faulted = mini_top.with_faults(FaultSchedule.parse("rank3:0.25", seed=7))
    src, dst = _flows(mini_top, "mixed")
    rng = np.random.default_rng(9)
    with pytest.raises(ValueError, match="pristine"):
        advance_paths(faulted, src, dst, k_min=2, k_nonmin=2, rng=rng)
