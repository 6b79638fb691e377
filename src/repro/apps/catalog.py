"""The application registry: the paper's production set and lookup by name.

A lookup loads only the named application's module: ``repro.apps``
resolves each class on first read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro import apps
from repro.util.validation import UnknownNameError

if TYPE_CHECKING:
    from repro.apps.base import Application

#: the paper's production application set, in Table-II order
_PRODUCTION = ("MILC", "MILCReorder", "Nek5000", "HACC", "Qbox", "Rayleigh")

_SYNTHETIC = ("LatencyBound", "BisectionBound", "InjectionBound", "ComputeBound")


def __getattr__(name: str):
    # PRODUCTION_APPS loads every production app, so it is built on read
    if name == "PRODUCTION_APPS":
        return tuple(getattr(apps, cls) for cls in _PRODUCTION)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def app_by_name(name: str) -> type[Application]:
    """Look up an application class by (case-insensitive) name."""
    # each class's registry ``name`` is its class name, lower-cased
    table = {cls.lower(): cls for cls in _PRODUCTION + _SYNTHETIC}
    key = name.lower().replace(" ", "")
    if key not in table:
        raise UnknownNameError(f"unknown application {name!r}; have {sorted(table)}")
    return getattr(apps, table[key])
