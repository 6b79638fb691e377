"""Minimal/Valiant path-table construction with an opt-in, scoped memo.

Outside a :func:`path_memo` scope, :func:`cached_minimal_paths` /
:func:`cached_valiant_paths` call the real builders and keep nothing:
campaign runs each draw their own RNG key, so a memo would never hit
there and would only pin every bundle (and its solver scratch) in
memory.  Callers that rebuild identical tables on purpose — benchmark
rounds replaying one seeded input — open a scope instead::

    with path_memo():
        for _ in range(reps):
            solve_fluid(top, flows, modes, rng=np.random.default_rng(2))

Inside the scope the memo is *provably* transparent:

* The key includes a fingerprint of the topology **structure and fault
  mask**, the builder kind and ``k``, digests of the ``src``/``dst``
  arrays, and a digest of the generator's **pre-call bit state**.
* On a miss, the real builder runs and the generator's **post-call bit
  state** is recorded alongside the bundle.
* On a hit, the caller's generator is fast-forwarded to the recorded
  post-call state and the memoized bundle is returned.

Because the bit-generator state fully determines every draw the builder
would make, a hit returns byte-identical arrays *and* leaves the
generator byte-identical to a fresh build — downstream draws cannot
diverge.  Memoized arrays are frozen read-only and shared (never
copied), so a would-be mutation raises instead of poisoning later hits.
Leaving the scope drops every entry.
"""

from __future__ import annotations

import hashlib
import threading
from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable

import numpy as np

from repro.topology.dragonfly import DragonflyTopology
from repro.topology.paths import PathBundle, minimal_paths, valiant_paths

# the open scope's entries, per thread/context; None outside any scope
_memo: ContextVar[dict[tuple, tuple[PathBundle, dict]] | None] = ContextVar(
    "path_memo", default=None
)
_lock = threading.Lock()
_stats = {"hits": 0, "misses": 0}


@contextmanager
def path_memo() -> Iterator[None]:
    """Memoize path tables until the scope exits.

    The scope belongs to the current thread (context), so other threads
    keep building fresh.  A nested scope starts empty and, on exit, hands
    back the enclosing scope's entries.
    """
    token = _memo.set({})
    try:
        yield
    finally:
        _memo.reset(token)


def topology_fingerprint(top: DragonflyTopology) -> tuple:
    """Hashable identity of a topology's structure plus fault mask.

    ``(params, seed)`` fully determine the pristine structure (cable
    assignment included); a faulted view additionally contributes a
    digest of its per-link capacity multipliers.  Two topologies with
    equal fingerprints produce identical path tables for identical
    ``(src, dst, k, rng)`` inputs.
    """
    if top.fault_scale is None:
        fault_digest = ""
    else:
        scale = np.ascontiguousarray(top.fault_scale, dtype=np.float64)
        fault_digest = hashlib.sha1(scale.tobytes()).hexdigest()
    return (top.params, top.seed, fault_digest)


def _array_digest(a: np.ndarray) -> tuple:
    a = np.ascontiguousarray(a)
    return (str(a.dtype), a.shape, hashlib.sha1(a.tobytes()).hexdigest())


def _rng_state_digest(rng: np.random.Generator) -> str:
    # the state dict is a plain nested structure of ints/strings whose
    # repr is stable for a given bit-generator type
    return hashlib.sha1(repr(rng.bit_generator.state).encode("utf-8")).hexdigest()


def _freeze(bundle: PathBundle) -> PathBundle:
    bundle.links.flags.writeable = False
    bundle.flow.flags.writeable = False
    return bundle


def _count(event: str) -> None:
    with _lock:
        _stats[event] += 1


def _memoized(
    kind: str,
    builder: Callable[..., PathBundle],
    top: DragonflyTopology,
    src: np.ndarray,
    dst: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> PathBundle:
    memo = _memo.get()
    if memo is None:
        _count("misses")
        return builder(top, src, dst, k=k, rng=rng)
    key = (
        topology_fingerprint(top),
        kind,
        int(k),
        _array_digest(np.asarray(src)),
        _array_digest(np.asarray(dst)),
        type(rng.bit_generator).__name__,
        _rng_state_digest(rng),
    )
    hit = memo.get(key)
    if hit is not None:
        _count("hits")
        bundle, post_state = hit
        rng.bit_generator.state = post_state
        return bundle
    _count("misses")
    bundle = _freeze(builder(top, src, dst, k=k, rng=rng))
    memo[key] = (bundle, rng.bit_generator.state)
    return bundle


def cached_minimal_paths(
    top: DragonflyTopology,
    src: np.ndarray,
    dst: np.ndarray,
    *,
    k: int = 2,
    rng: np.random.Generator,
) -> PathBundle:
    """:func:`repro.topology.paths.minimal_paths`, memoized in a scope."""
    return _memoized("minimal", minimal_paths, top, src, dst, k, rng)


def cached_valiant_paths(
    top: DragonflyTopology,
    src: np.ndarray,
    dst: np.ndarray,
    *,
    k: int = 2,
    rng: np.random.Generator,
) -> PathBundle:
    """:func:`repro.topology.paths.valiant_paths`, memoized in a scope."""
    return _memoized("nonminimal", valiant_paths, top, src, dst, k, rng)


def path_cache_stats() -> dict[str, int]:
    """Process-lifetime counters: memo ``hits`` and ``misses`` (every build)."""
    with _lock:
        return dict(_stats)
