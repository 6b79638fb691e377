"""Small argument-validation helpers with consistent error messages."""

from __future__ import annotations


class UnknownNameError(KeyError, ValueError):
    """A lookup by name (app, routing mode, placement, ...) failed.

    A ``KeyError`` to library callers and a ``ValueError`` to the CLI,
    which reports config errors as one ``error:`` line and exit 2.
    """

    def __str__(self) -> str:  # KeyError would quote the message
        return str(self.args[0])


def check_positive(name: str, value: float) -> float:
    """Require ``value > 0``; return it for chaining."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_nonnegative(name: str, value: float) -> float:
    """Require ``value >= 0``; return it for chaining."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_in_range(name: str, value: float, lo: float, hi: float) -> float:
    """Require ``lo <= value <= hi``; return it for chaining."""
    if not (lo <= value <= hi):
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value!r}")
    return value


def check_power_of_two(name: str, value: int) -> int:
    """Require a positive power of two; return it for chaining."""
    if value <= 0 or (value & (value - 1)) != 0:
        raise ValueError(f"{name} must be a positive power of two, got {value!r}")
    return value
