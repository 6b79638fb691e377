"""Lazy package re-exports (PEP 562).

A package ``__init__`` declares which submodule defines each public name;
the submodule is imported the first time one of its names is read, so
``import repro.core`` costs nothing until ``repro.core.run_campaign`` is
used.  A command therefore loads only the modules it runs.
"""

from __future__ import annotations

import sys


def lazy_exports(package: str, table: dict[str, str]):
    """``(__getattr__, __dir__, __all__)`` for a package ``__init__``.

    ``table`` maps a module (relative to ``package`` when it starts with
    a dot) to the space-separated names it exports.  A resolved name is
    cached in the package namespace, so later reads are plain lookups.
    """
    where = {
        name: package + mod if mod.startswith(".") else mod
        for mod, names in table.items()
        for name in names.split()
    }

    def __getattr__(name: str):
        if name not in where:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        # __import__, not importlib: only the former shows in -X importtime
        __import__(where[name])
        value = getattr(sys.modules[where[name]], name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__, list(where)
