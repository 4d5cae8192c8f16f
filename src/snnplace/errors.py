"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration and ingest problems
exit with 2, everything else with 1.
"""

import sys


class SnnPlaceError(Exception):
    """Base class for all package errors."""


class ConfigError(SnnPlaceError):
    """A parameter or option violates its documented invariant."""


class IngestError(SnnPlaceError):
    """An input file or directory is missing, unreadable, or malformed."""


class StateError(SnnPlaceError):
    """An operation was called on a model in the wrong lifecycle state."""


class ArchiveError(SnnPlaceError):
    """A model archive is corrupt, truncated, or version-incompatible."""


def require_finite(values: dict) -> None:
    """Raise ``ConfigError`` naming the first of ``values`` that is not a finite number."""
    for name, value in values.items():
        if not abs(value) <= sys.float_info.max:  # exact for ints of any size; False for NaN
            raise ConfigError(f"{name} must be finite, got {value!r}")
