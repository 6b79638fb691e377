"""Application base class and pattern-building helpers.

An :class:`Application` describes *one outer iteration* of the code as a
list of :class:`~repro.mpi.patterns.Phase` objects, given the concrete
rank-to-node map the scheduler assigned.  The experiment harness resolves
each phase once (the background is static within a run), multiplies by
:meth:`Application.n_iterations`, and adds per-iteration noise.

Scaling: ``strong`` scaling divides per-rank compute and communication
volumes by ``P / base_nodes``; ``weak`` scaling keeps them constant.

Calibration: each concrete app carries constants (message sizes, inner
iteration counts, compute seconds per iteration) chosen so that at the
reference size (256 nodes) under production AD0 conditions the simulated
runtime and MPI fraction land near the paper's Table I/II values.  The
constants are documented on each class.
"""

from __future__ import annotations

import abc

import numpy as np

from repro import mpi, network


def grid_dims(n: int, ndims: int) -> tuple[int, ...]:
    """Factor ``n`` ranks into an ``ndims``-dimensional near-cubic grid.

    Mirrors ``MPI_Dims_create``: dims are as balanced as the
    factorization allows, in non-increasing order.

    >>> grid_dims(256, 4)
    (4, 4, 4, 4)
    >>> grid_dims(128, 4)
    (4, 4, 4, 2)
    """
    if n < 1 or ndims < 1:
        raise ValueError("n and ndims must be >= 1")
    dims = [1] * ndims
    remaining = n
    # peel prime factors largest-first onto the smallest dim
    factors: list[int] = []
    d = 2
    while d * d <= remaining:
        while remaining % d == 0:
            factors.append(d)
            remaining //= d
        d += 1
    if remaining > 1:
        factors.append(remaining)
    for f in sorted(factors, reverse=True):
        dims[int(np.argmin(dims))] *= f
    return tuple(sorted(dims, reverse=True))


def rank_grid_coords(P: int, dims: tuple[int, ...]) -> np.ndarray:
    """Coordinates of each rank in a row-major cartesian grid.

    Returns ``(P, ndims)``; requires ``prod(dims) == P``.
    """
    if int(np.prod(dims)) != P:
        raise ValueError(f"grid {dims} does not hold {P} ranks")
    coords = np.empty((P, len(dims)), dtype=np.int64)
    r = np.arange(P)
    for i in range(len(dims) - 1, -1, -1):
        coords[:, i] = r % dims[i]
        r //= dims[i]
    return coords


def stencil_flows(
    nodes: np.ndarray,
    dims: tuple[int, ...],
    bytes_per_neighbor: float,
    *,
    periodic: bool = True,
) -> network.FlowSet:
    """Nearest-neighbor (±1 per dimension) exchange flows on a grid.

    Each rank sends ``bytes_per_neighbor`` to each of its ``2 * ndims``
    neighbors (fewer at non-periodic boundaries).
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    P = nodes.size
    coords = rank_grid_coords(P, dims)
    strides = np.ones(len(dims), dtype=np.int64)
    for i in range(len(dims) - 2, -1, -1):
        strides[i] = strides[i + 1] * dims[i + 1]

    src_parts, dst_parts = [], []
    for axis in range(len(dims)):
        if dims[axis] == 1:
            continue
        for step in (+1, -1):
            nb = coords[:, axis] + step
            if periodic:
                nb_mod = nb % dims[axis]
                valid = np.ones(P, dtype=bool)
            else:
                valid = (nb >= 0) & (nb < dims[axis])
                nb_mod = np.clip(nb, 0, dims[axis] - 1)
            partner = np.arange(P) + (nb_mod - coords[:, axis]) * strides[axis]
            src_parts.append(nodes[np.arange(P)[valid]])
            dst_parts.append(nodes[partner[valid]])
    if not src_parts:
        return network.FlowSet.empty()
    src = np.concatenate(src_parts)
    dst = np.concatenate(dst_parts)
    keep = src != dst  # dims of size 2 make +1/-1 the same partner
    return network.FlowSet(
        src[keep],
        dst[keep],
        np.full(keep.sum(), float(bytes_per_neighbor)),
        np.zeros(keep.sum(), dtype=np.int64),
    )


def random_pair_flows(
    nodes: np.ndarray,
    partners_per_rank: int,
    bytes_per_partner: float,
    rng: np.random.Generator,
) -> network.FlowSet:
    """Random rank-pair flows (FFT-transpose-style bisection traffic)."""
    nodes = np.asarray(nodes, dtype=np.int64)
    P = nodes.size
    k = min(partners_per_rank, P - 1)
    ranks = np.repeat(np.arange(P), k)
    offsets = rng.integers(1, P, size=ranks.size)
    partners = (ranks + offsets) % P
    return network.FlowSet(
        nodes[ranks],
        nodes[partners],
        np.full(ranks.size, float(bytes_per_partner)),
        np.zeros(ranks.size, dtype=np.int64),
    )


class Application(abc.ABC):
    """Base class for workload models.

    Subclasses set the class attributes and implement :meth:`phases`.

    Attributes
    ----------
    name:
        Display name as used in the paper's tables.
    scaling:
        ``"strong"`` or ``"weak"``.
    base_nodes:
        Reference job size (256 in the paper's Table I/II).
    reference_runtime:
        The paper's AD0 mean runtime at ``base_nodes`` on Theta
        (seconds) — the calibration target, recorded for tests.
    reference_mpi_fraction:
        The paper's Table-I "% of MPI in total time" at 256 nodes.
    """

    name: str = "app"
    scaling: str = "strong"
    base_nodes: int = 256
    reference_runtime: float = 0.0
    reference_mpi_fraction: float = 0.0

    def scale_factor(self, P: int) -> float:
        """Per-rank work multiplier at job size ``P``."""
        if self.scaling == "strong":
            return self.base_nodes / P
        if self.scaling == "weak":
            return 1.0
        raise ValueError(f"unknown scaling mode {self.scaling!r}")

    @abc.abstractmethod
    def phases(self, nodes: np.ndarray, rng: np.random.Generator) -> list[mpi.Phase]:
        """Phases of one outer iteration on the given rank-to-node map."""

    @abc.abstractmethod
    def n_iterations(self, P: int) -> int:
        """Outer iterations for a run at job size ``P``."""

    def describe(self) -> str:
        """One-line summary for reports."""
        return f"{self.name} ({self.scaling} scaling, ref {self.base_nodes} nodes)"

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}()"
