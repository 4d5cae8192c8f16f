"""Exception types shared across the package, and the one range rule of config values.

The CLI maps these onto exit codes: configuration and ingest problems
exit with 2, everything else with 1.
"""

import dataclasses


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


def ranged(lo, hi, **kwargs):
    """A dataclass field whose value lies in the closed range [lo, hi] (``check_ranges``)."""
    return dataclasses.field(metadata={"range": (lo, hi)}, **kwargs)


def check_ranges(config) -> None:
    """Raise ``ConfigError`` naming the first ``ranged`` field of ``config`` out of its range.

    A tuple's range holds for each item.  NaN lies in no range, and an int
    of any size compares exactly.
    """
    for field in dataclasses.fields(config):
        if "range" not in field.metadata:
            continue
        lo, hi = field.metadata["range"]
        value = getattr(config, field.name)
        items = enumerate(value) if isinstance(value, tuple) else [(None, value)]
        for i, item in items:
            if not lo <= item <= hi:
                name = field.name if i is None else f"{field.name}[{i}]"
                raise ConfigError(f"{name} must lie in [{lo:g}, {hi:g}], got {item!r}")
