"""Network congestion engines and Aries counter models.

Two engines share the topology and bias arithmetic:

* :mod:`~repro.network.fluid` — a vectorized fluid (rate-equilibrium)
  model used for campaign-scale experiments: flows split between minimal
  and non-minimal path sets under the biased comparison, link loads are
  iterated to a fixed point, and per-flow completion times, latency
  inflation, and tile counters fall out.
* :mod:`~repro.network.packet_sim` — a time-stepped packet-level
  simulator with per-output-port FIFO queues and per-hop adaptive
  decisions, used for small-scale validation and latency microbenchmarks.

:mod:`~repro.network.congestion` holds the shared utilization -> stalls /
queueing-delay / backpressure functions; :mod:`~repro.network.counters`
the per-router per-tile-class counter bank mirroring Aries hardware
counters.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".congestion": "CongestionModel FLIT_BYTES PACKET_BYTES",
    ".counters": "CounterBank CounterSnapshot TILE_CLASSES",
    ".fluid": "FlowSet FluidParams FluidResult solve_fluid",
    ".packet_sim": "PacketSimulator PacketSimConfig InjectionSpec",
})
