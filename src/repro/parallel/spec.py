"""Pickle-safe specifications for parallel dispatch.

Workers receive a :class:`TopologySpec` (or, under the ``fork`` start
method, the topology object itself) plus tiny per-run
:class:`repro.core.pipeline.RunTask` tuples; everything heavyweight is
rebuilt or inherited, never streamed per task.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.topology.dragonfly import DragonflyParams, DragonflyTopology


@dataclass(frozen=True)
class TopologySpec:
    """Hashable, pickle-friendly identity of a pristine topology.

    ``(params, seed)`` fully determine a :class:`DragonflyTopology`'s
    structure — including the seeded global-cable assignment — so
    :meth:`build` reconstructs a byte-identical system in any process.
    """

    params: DragonflyParams
    seed: int = 0

    @classmethod
    def of(cls, top: DragonflyTopology) -> "TopologySpec":
        return cls(params=top.params, seed=top.seed)

    def build(self) -> DragonflyTopology:
        return DragonflyTopology(self.params, seed=self.seed)
