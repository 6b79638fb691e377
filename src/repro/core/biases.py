"""Aries adaptive routing modes as shift/add bias parameters.

Section II-D of the paper: an adaptive routing mode is configured by a
**bias value which is a combination of shift and add** parameters (each
0..15).  When a packet must choose between its best minimal candidate and
its best non-minimal candidate, the router compares their (credit-based)
load estimates with the bias applied in favor of the minimal side::

    take minimal  iff  load_min <= (load_nonmin << shift) + add

The four vendor presets:

``AD0``
    shift=0, add=0 — equal bias; pure load comparison.  The Cray MPI
    default for all operations except ``MPI_Alltoall[v]``.
``AD1``
    *increasingly minimal* bias (Roweth et al.; US patent 9,577,918): the
    bias toward minimal grows as the packet takes more hops, so traffic
    may start non-minimal but is progressively herded onto minimal paths.
    We model the published behaviour as a shift schedule that ramps from
    0 to 2 over the first four hops.  Cray MPI uses AD1 for
    ``MPI_Alltoall[v]``.
``AD2``
    shift=0, add=4 — *weak* minimal bias (a constant 4-credit handicap to
    the non-minimal side).
``AD3``
    shift=2, add=0 — *strong* minimal bias: minimal-path load must exceed
    4x the non-minimal load before a non-minimal path is taken.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import UnknownNameError, check_in_range


@dataclass(frozen=True)
class RoutingMode:
    """An adaptive routing bias configuration.

    Attributes
    ----------
    name:
        Display name (``"AD0"`` .. ``"AD3"`` for vendor presets).
    shift:
        Left-shift applied to the non-minimal load in the comparison
        (i.e. minimal tolerated up to ``2**shift`` times the non-minimal
        load).  0..15.
    add:
        Constant credit handicap added to the non-minimal side.  0..15.
    hop_shift_schedule:
        Optional per-hop shift schedule for increasingly-minimal modes:
        element ``h`` is the shift applied to packets that have already
        taken ``h`` hops (the last element applies to all further hops).
        When set, ``shift`` is the schedule's final value.
    """

    name: str
    shift: int
    add: int
    hop_shift_schedule: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        check_in_range("shift", self.shift, 0, 15)
        check_in_range("add", self.add, 0, 15)
        if self.hop_shift_schedule is not None:
            if len(self.hop_shift_schedule) == 0:
                raise ValueError("hop_shift_schedule must be non-empty")
            for s in self.hop_shift_schedule:
                check_in_range("hop_shift_schedule entry", s, 0, 15)
            if self.hop_shift_schedule[-1] != self.shift:
                raise ValueError(
                    "shift must equal the final hop_shift_schedule entry "
                    f"({self.hop_shift_schedule[-1]}), got {self.shift}"
                )

    @property
    def multiplier(self) -> int:
        """Tolerated minimal/non-minimal load ratio, ``2**shift``."""
        return 1 << self.shift

    @property
    def increasing(self) -> bool:
        """Whether the bias grows with hops taken (AD1-style)."""
        return self.hop_shift_schedule is not None

    def shift_at_hop(self, hops_taken: int) -> int:
        """Shift in effect for a packet that has taken ``hops_taken`` hops."""
        if self.hop_shift_schedule is None:
            return self.shift
        sched = self.hop_shift_schedule
        return sched[min(int(hops_taken), len(sched) - 1)]

    @property
    def mean_shift(self) -> float:
        """Hop-averaged shift — the fluid solver's source-decision proxy.

        The fluid solver makes one routing decision per flow (at the
        source), so increasingly-minimal modes are represented by the mean
        of their schedule, which lands AD1 between AD0 and AD3 exactly as
        the paper observes (Fig. 9).
        """
        if self.hop_shift_schedule is None:
            return float(self.shift)
        return float(sum(self.hop_shift_schedule)) / len(self.hop_shift_schedule)

    def describe(self) -> str:
        """One-line description for reports."""
        kind = "increasingly-minimal" if self.increasing else (
            "no bias" if (self.shift == 0 and self.add == 0) else
            f"minimal bias x{self.multiplier}+{self.add}"
        )
        return f"{self.name} (shift={self.shift}, add={self.add}, {kind})"

    def __str__(self) -> str:
        return self.name


#: ADAPTIVE_0 — the historical system default: equal bias.
AD0 = RoutingMode("AD0", shift=0, add=0)

#: ADAPTIVE_1 — increasingly-minimal bias (Cray MPI's Alltoall default).
AD1 = RoutingMode("AD1", shift=2, add=0, hop_shift_schedule=(0, 0, 1, 1, 2))

#: ADAPTIVE_2 — weak minimal bias (add=4).
AD2 = RoutingMode("AD2", shift=0, add=4)

#: ADAPTIVE_3 — strong minimal bias (minimal until 4x non-minimal load).
AD3 = RoutingMode("AD3", shift=2, add=0)

#: The four vendor presets in mode-number order.
VENDOR_MODES: tuple[RoutingMode, ...] = (AD0, AD1, AD2, AD3)

_BY_NAME = {m.name: m for m in VENDOR_MODES}


def mode_by_name(name: str) -> RoutingMode:
    """Look up a vendor mode by name (``"AD0"``..``"AD3"``) or number.

    Accepts the bare mode number as used by the
    ``MPICH_GNI_ROUTING_MODE`` environment variable (``"0"``..``"3"``)
    and the full ``ADAPTIVE_n`` spelling.
    """
    key = name.strip().upper()
    if key in _BY_NAME:
        return _BY_NAME[key]
    if key.startswith("ADAPTIVE_"):
        key = "AD" + key[len("ADAPTIVE_"):]
        if key in _BY_NAME:
            return _BY_NAME[key]
    if key.isdigit() and f"AD{key}" in _BY_NAME:
        return _BY_NAME[f"AD{key}"]
    raise UnknownNameError(f"unknown routing mode {name!r}; expected AD0..AD3")


def custom_bias(shift: int, add: int) -> RoutingMode:
    """Build a non-preset bias, for ablation sweeps over (shift, add)."""
    return RoutingMode(f"S{shift}A{add}", shift=shift, add=add)
