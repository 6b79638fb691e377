"""Property-based tests (hypothesis) for the parallel subsystem's
determinism primitives: SeedSequence-based stream derivation and the
scoped path-table memo.
"""

import gc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import MILC
from repro.core.biases import AD0, AD3
from repro.core.experiment import CampaignConfig, run_campaign
from repro.faults import FaultSchedule
from repro.topology.pathcache import (
    cached_minimal_paths,
    cached_valiant_paths,
    path_cache_stats,
    path_memo,
    topology_fingerprint,
)
from repro.topology.paths import PathBundle, minimal_paths, valiant_paths
from repro.topology.systems import mini, toy
from repro.util import derive_rng, seed_sequence_for, spawn_rng_streams

SLOW = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

KEY_PARTS = st.one_of(
    st.integers(0, 2**31 - 1),
    st.text(alphabet="abcdefgh", min_size=1, max_size=6),
)
KEYS = st.lists(KEY_PARTS, min_size=1, max_size=4).map(tuple)

FAULT_SPECS = st.sampled_from(
    ["rank3:0.25", "rank1:0.1", "link:5*0.5", "cable:0-1:0", "router:3"]
)


class TestSeedDerivation:
    @given(seed=st.integers(0, 2**31 - 1), key=KEYS)
    @settings(max_examples=50, deadline=None)
    def test_spawned_streams_deterministic_and_distinct(self, seed, key):
        a = spawn_rng_streams(seed, *key, n=4)
        b = spawn_rng_streams(seed, *key, n=4)
        draws_a = [tuple(g.integers(0, 2**31, size=4)) for g in a]
        draws_b = [tuple(g.integers(0, 2**31, size=4)) for g in b]
        # pure function of (seed, key, index): identical across calls
        assert draws_a == draws_b
        # children are pairwise distinct streams
        assert len(set(draws_a)) == len(draws_a)

    @given(seed=st.integers(0, 2**31 - 1), key=KEYS, n=st.integers(1, 6))
    @settings(max_examples=50, deadline=None)
    def test_spawn_count_independent_prefix(self, seed, key, n):
        # child i is the same stream no matter how many siblings exist
        small = spawn_rng_streams(seed, *key, n=n)
        large = spawn_rng_streams(seed, *key, n=n + 3)
        for g1, g2 in zip(small, large):
            assert np.array_equal(
                g1.integers(0, 2**31, size=4), g2.integers(0, 2**31, size=4)
            )

    @given(seed=st.integers(0, 2**31 - 1), key=KEYS)
    @settings(max_examples=50, deadline=None)
    def test_spawn_key_matches_derive_key(self, seed, key):
        # both stream families hang off the same SeedSequence identity
        root = seed_sequence_for(seed, *key)
        child = root.spawn(1)[0]
        direct = np.random.default_rng(child)
        again = np.random.default_rng(seed_sequence_for(seed, *key).spawn(1)[0])
        assert np.array_equal(
            direct.integers(0, 2**31, size=4), again.integers(0, 2**31, size=4)
        )


class TestPathCache:
    def _flows(self, top, rng):
        src = rng.integers(0, top.n_nodes, size=24)
        dst = (src + 1 + rng.integers(0, top.n_nodes - 1, size=24)) % top.n_nodes
        return src, dst

    def _counts(self, before):
        now = path_cache_stats()
        return {k: now[k] - before[k] for k in ("hits", "misses")}

    @given(seed=st.integers(0, 200))
    @SLOW
    def test_hit_equals_fresh_build_and_rng_state(self, seed):
        top = toy()
        src, dst = self._flows(top, derive_rng(seed, "flows"))
        for cached_fn, fresh_fn in (
            (cached_minimal_paths, minimal_paths),
            (cached_valiant_paths, valiant_paths),
        ):
            rng_f = derive_rng(seed, "paths")
            fresh = fresh_fn(top, src, dst, k=2, rng=rng_f)
            before = path_cache_stats()
            with path_memo():
                rng_m = derive_rng(seed, "paths")
                miss = cached_fn(top, src, dst, k=2, rng=rng_m)
                rng_h = derive_rng(seed, "paths")
                hit = cached_fn(top, src, dst, k=2, rng=rng_h)
            assert self._counts(before) == {"hits": 1, "misses": 1}
            assert hit is miss
            for bundle in (miss, hit):
                assert np.array_equal(bundle.links, fresh.links)
                assert np.array_equal(bundle.flow, fresh.flow)
                assert bundle.kind == fresh.kind
            # the hit fast-forwards the generator to the post-build state:
            # downstream draws are identical to a fresh build's
            assert rng_m.bit_generator.state == rng_f.bit_generator.state
            assert rng_h.bit_generator.state == rng_f.bit_generator.state

    @given(seed=st.integers(0, 200))
    @SLOW
    def test_different_rng_state_is_a_different_key(self, seed):
        top = toy()
        src, dst = self._flows(top, derive_rng(seed, "flows"))
        before = path_cache_stats()
        with path_memo():
            rng_a = derive_rng(seed, "paths")
            cached_minimal_paths(top, src, dst, k=2, rng=rng_a)
            rng_b = derive_rng(seed, "paths")
            rng_b.integers(0, 10)  # advanced state: must not hit
            cached_minimal_paths(top, src, dst, k=2, rng=rng_b)
        assert self._counts(before) == {"hits": 0, "misses": 2}

    @given(
        spec_a=FAULT_SPECS, seed_a=st.integers(0, 5),
        spec_b=FAULT_SPECS, seed_b=st.integers(0, 5),
    )
    @SLOW
    def test_fault_masks_never_share_a_fingerprint(
        self, spec_a, seed_a, spec_b, seed_b
    ):
        # equal fingerprints would let the memo serve one view's tables
        # for the other; only identical masks may match
        va = toy().with_faults(FaultSchedule.parse(spec_a, seed=seed_a))
        vb = toy().with_faults(FaultSchedule.parse(spec_b, seed=seed_b))
        if not np.array_equal(va.capacity, vb.capacity):
            assert topology_fingerprint(va) != topology_fingerprint(vb)

    def test_cached_bundles_are_read_only(self):
        top = toy()
        src, dst = self._flows(top, derive_rng(0, "flows"))
        with path_memo():
            bundle = cached_minimal_paths(top, src, dst, k=2, rng=derive_rng(0, "p"))
            with pytest.raises(ValueError):
                bundle.links[0, 0] = -2
            with pytest.raises(ValueError):
                bundle.flow[0] = 0

    def test_leaving_a_scope_drops_its_entries(self):
        top = toy()
        src, dst = self._flows(top, derive_rng(0, "flows"))

        def build():
            return cached_minimal_paths(top, src, dst, k=2, rng=derive_rng(0, "p"))

        before = path_cache_stats()
        with path_memo():
            outer = build()
            with path_memo():
                assert build() is not outer  # a nested scope starts empty
            assert build() is outer  # and hands the outer entries back
        with path_memo():
            assert build() is not outer
        assert self._counts(before) == {"hits": 1, "misses": 3}

    def test_outside_a_scope_every_call_builds(self):
        top = toy()
        src, dst = self._flows(top, derive_rng(0, "flows"))
        before = path_cache_stats()
        a = cached_minimal_paths(top, src, dst, k=2, rng=derive_rng(0, "p"))
        b = cached_minimal_paths(top, src, dst, k=2, rng=derive_rng(0, "p"))
        assert self._counts(before) == {"hits": 0, "misses": 2}
        assert a is not b and np.array_equal(a.links, b.links)

    def test_campaign_keeps_no_bundle_alive(self):
        gc.collect()
        # hold the bundles other tests left alive, so no id can be reused
        alive = [o for o in gc.get_objects() if isinstance(o, PathBundle)]
        known = {id(o) for o in alive}
        cfg = CampaignConfig(
            app=MILC(), n_nodes=32, modes=(AD0, AD3), samples=2, seed=11,
            scenario_pool=4,
        )
        before = path_cache_stats()
        # in this process: under $REPRO_JOBS a pool child would build every path
        run_campaign(mini(), cfg, jobs=1)
        assert self._counts(before)["misses"] > 0
        gc.collect()
        leaked = [
            o for o in gc.get_objects()
            if isinstance(o, PathBundle) and id(o) not in known
        ]
        assert leaked == []
