"""Property-based equivalence of the arena packet engine vs the seed.

The SoA arena rewrite replaces per-activation ``np.concatenate`` growth
and the per-tick global lexsort with preallocated capacity-doubling
buffers, swap-compaction on completion, and incremental per-link FIFO
ranks.  Arena growth and compaction are exactly the kind of bookkeeping
a fixed test matrix under-covers, so here hypothesis drives both the
optimized engine and the frozen seed copy
(``tests/_reference_packet_sim.py``) through randomized interleavings of
``add_message`` / ``advance`` / mid-run link death (timed fault specs)
/ retry-exhaustion drops, and requires every observable — per-message
stats, flit/stall/credit counters, reroute/retry/drop totals, and packet
latencies — to be identical.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.biases import AD0, AD1, AD2, AD3
from repro.faults.errors import NetworkPartitionedError
from repro.faults.model import FaultSchedule
from repro.network.packet_sim import InjectionSpec, PacketSimConfig, PacketSimulator
from repro.topology.systems import toy

from tests import _reference_packet_sim as ref_pkt
from tests.test_golden_equivalence import assert_packet_identical

MODES = [AD0, AD1, AD2, AD3]

# one program = an interleaved op sequence; each op either injects a
# message (params drawn here, start offset relative to the current step)
# or advances the clock a few ticks with messages in flight
_ADD = st.tuples(
    st.just("add"),
    st.integers(0, 31),        # src
    st.integers(1, 31),        # dst offset (never a self-flow)
    st.integers(64, 20_000),   # nbytes
    st.integers(0, 3),         # mode index
    st.integers(0, 25),        # start_step offset from "now"
)
_ADVANCE = st.tuples(st.just("advance"), st.integers(1, 40))
_OPS = st.lists(st.one_of(_ADD, _ADVANCE), min_size=1, max_size=10).filter(
    lambda ops: any(op[0] == "add" for op in ops)
)

# optional mid-run fault edge: a cable or router death crossing at a
# drawn step boundary exercises reroute, retry, and drop paths
_FAULT = st.one_of(
    st.none(),
    st.tuples(st.sampled_from(["cable:0-1:0", "router:1"]), st.integers(0, 120)),
)


def _build(cls, cfg_cls, ops, patience, max_retry, fault):
    faults = None
    if fault is not None:
        spec, at_step = fault
        faults = FaultSchedule.parse(f"{spec}@{at_step * 2.5e-9:g}", seed=3)
    sim = cls(
        toy(),
        cfg_cls(reroute_patience=patience, max_reroute_attempts=max_retry),
        rng=np.random.default_rng(17),
        faults=faults,
    )
    for op in ops:
        if op[0] == "advance":
            for _ in range(op[1]):
                sim.advance()
        else:
            _, src, off, nbytes, mi, start_off = op
            sim.add_message(
                InjectionSpec(
                    src=src,
                    dst=(src + off) % 32,
                    nbytes=nbytes,
                    mode=MODES[mi],
                    start_step=sim.step + start_off,
                )
            )
    sim.run(max_steps=4000)
    return sim


@given(
    ops=_OPS,
    patience=st.integers(0, 4),
    max_retry=st.integers(1, 3),
    fault=_FAULT,
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_interleaved_program_identical(ops, patience, max_retry, fault):
    # a drawn fault can legitimately partition a drawn flow's endpoints;
    # that must surface as the same error from both engines
    try:
        new = _build(PacketSimulator, PacketSimConfig, ops, patience, max_retry, fault)
        new_err = None
    except NetworkPartitionedError as e:
        new, new_err = None, str(e)
    try:
        old = _build(
            ref_pkt.PacketSimulator, ref_pkt.PacketSimConfig,
            ops, patience, max_retry, fault,
        )
        old_err = None
    except NetworkPartitionedError as e:
        old, old_err = None, str(e)
    assert new_err == old_err
    if new is not None:
        assert_packet_identical(new, old)
