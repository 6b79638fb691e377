"""Shared utilities: unit helpers, seeded RNG derivation, validation.

These helpers are deliberately tiny and dependency-free so that every other
subpackage can import them without cycles.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".backoff": "Backoff BackoffPolicy NO_BACKOFF",
    ".units": "KiB MiB GiB GB MB KB US MS fmt_bytes fmt_time",
    ".rng": "derive_rng derive_seeds seed_sequence_for spawn_rng_streams spawn_rngs",
    ".validation": "check_positive check_nonnegative check_unique check_in_range "
    "check_power_of_two UnknownNameError",
})
