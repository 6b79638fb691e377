"""Cray XC-40 Aries dragonfly topology model.

The paper's two systems (ALCF Theta and NERSC Cori) are Cray XC-40 machines
with a three-level dragonfly: all-to-all rank-1 (copper) links inside each
16-router chassis row, rank-2 (copper, 3-link bundles) columns between the
six chassis of a two-cabinet group, and rank-3 (optical) cables between
groups.  Four nodes attach to each Aries router through 8 processor tiles;
the other 40 router tiles carry rank-1/2/3 traffic.

This subpackage provides:

* :class:`~repro.topology.dragonfly.DragonflyParams` /
  :class:`~repro.topology.dragonfly.DragonflyTopology` — the parametric
  structure with flat directed-link tables used by both network engines,
* :mod:`~repro.topology.systems` — ``theta()`` and ``cori()`` presets plus
  scaled-down variants for tests,
* :mod:`~repro.topology.paths` — vectorized minimal and Valiant
  (non-minimal) path construction,
* :mod:`~repro.topology.tiles` — the router tile inventory used when
  normalizing counters per tile.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".dragonfly": "DragonflyParams DragonflyTopology LinkClass",
    ".systems": "theta cori mini toy slingshot",
    ".paths": "PathBundle minimal_paths valiant_paths",
    ".tiles": "TileInventory",
    ".queries": "minimal_router_hops minimal_path_diversity placement_geometry "
    "bisection_cut",
})
