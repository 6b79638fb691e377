"""The application registry: the paper's production set and lookup by name."""

from __future__ import annotations

from repro.apps.base import Application
from repro.apps.hacc import HACC
from repro.apps.milc import MILC, MILCReorder
from repro.apps.nek5000 import Nek5000
from repro.apps.qbox import Qbox
from repro.apps.rayleigh import Rayleigh
from repro.apps.synthetic import BisectionBound, ComputeBound, InjectionBound, LatencyBound
from repro.util.validation import UnknownNameError

#: the paper's production application set, in Table-II order
PRODUCTION_APPS = (MILC, MILCReorder, Nek5000, HACC, Qbox, Rayleigh)

_SYNTHETIC_APPS = (LatencyBound, BisectionBound, InjectionBound, ComputeBound)


def app_by_name(name: str) -> type[Application]:
    """Look up an application class by (case-insensitive) name."""
    table = {cls.name.lower(): cls for cls in PRODUCTION_APPS + _SYNTHETIC_APPS}
    key = name.lower().replace(" ", "")
    if key not in table:
        raise UnknownNameError(f"unknown application {name!r}; have {sorted(table)}")
    return table[key]
