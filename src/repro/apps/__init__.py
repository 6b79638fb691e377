"""Application workload models.

The five production applications of the paper (plus the reordered MILC
variant and synthetic microbenchmark apps), reduced — as the paper itself
does in Table I — to their communication characteristics: per-iteration
point-to-point flows, collective operations, compute time, and scaling
mode.  Each model emits :class:`~repro.mpi.patterns.Phase` objects that
the experiment harness resolves with the fluid engine.

================  =====================  ==========================  ======
application       point-to-point         collectives                 % MPI
================  =====================  ==========================  ======
MILC              heavy (KB, 4D stencil) frequent 8 B allreduce       52
MILC REORDER      heavy (KB, reordered)  frequent 8 B allreduce       50
Nek5000           medium (KB)            light (16 B)                 48
HACC              light (>1 MB FFT)      light allreduce (1 KB)       22
Qbox              medium (50 KB)         medium alltoallv (128 KB)    66
Rayleigh          none                   heavy alltoallv (23 MB)      28
================  =====================  ==========================  ======
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".base": "Application grid_dims stencil_flows rank_grid_coords",
    ".milc": "MILC MILCReorder",
    ".nek5000": "Nek5000",
    ".hacc": "HACC",
    ".qbox": "Qbox",
    ".rayleigh": "Rayleigh",
    ".synthetic": "LatencyBound BisectionBound InjectionBound ComputeBound",
    ".catalog": "PRODUCTION_APPS app_by_name",
})
