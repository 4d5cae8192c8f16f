"""The run configuration and the JSON form of every config dataclass.

``RunConfig`` is the schema of the config file: each nested dataclass is
one JSON object and each field one key of the same name.  Tuples are JSON
lists.  ``to_json`` writes that form and ``from_json`` reads it back
strictly: every field must be present with its declared type (an int is
accepted for a float; a bool or NaN never passes as a number) and unknown
keys are rejected, each with a ``ConfigError`` naming the key.  Every
number's closed range is declared once, on its field (``errors.ranged``),
and every config dataclass checks them (``errors.check_ranges``) and then
its cross-field invariants when it is built, so a decoded file with its
CLI flags, an archive's config block and each ``dataclasses.replace`` of
a config are checked on construction, and no invalid config exists.  An
error raised while building a decoded object names where it sits.
"""

from __future__ import annotations

import dataclasses
import math
import os
import typing

from .calibration import CalibrationGrids
from .errors import ConfigError, check_ranges, ranged
from .expert import GROUP_SIZE, ExpertConfig
from .imaging import EncodingConfig, PatchNormConfig
from .network import SimulationParams, check_presentation_steps

_SCALARS = {float: ((int, float), "a number"), int: ((int,), "an integer"),
            bool: ((bool,), "true or false")}


def to_json(obj):
    """The JSON form of a config dataclass (or of one of its values)."""
    if dataclasses.is_dataclass(obj):
        return {f.name: to_json(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, tuple):
        return [to_json(item) for item in obj]
    return obj


def from_json(cls, data, where: str):
    """Decode ``data`` into the dataclass ``cls``; ``where`` names it in errors."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where!r} must be an object, got {data!r}")
    hints = typing.get_type_hints(cls)
    names = [f.name for f in dataclasses.fields(cls)]
    unknown = sorted(set(data) - set(names))
    if unknown:
        raise ConfigError(f"unknown keys in {where!r}: {', '.join(unknown)}")
    missing = sorted(set(names) - set(data))
    if missing:
        raise ConfigError(f"missing keys in {where!r}: {', '.join(missing)}")
    values = {name: _decode(hints[name], data[name], f"{where}.{name}") for name in names}
    try:
        return cls(**values)
    except ConfigError as exc:
        raise ConfigError(f"in {where!r}: {exc}") from exc


def _decode(hint, value, where: str):
    if dataclasses.is_dataclass(hint):
        return from_json(hint, value, where)
    if typing.get_origin(hint) is tuple:       # tuple[X, ...]
        if not isinstance(value, list):
            raise ConfigError(f"{where!r} must be a list, got {value!r}")
        item = typing.get_args(hint)[0]
        return tuple(_decode(item, v, f"{where}[{i}]") for i, v in enumerate(value))
    accepted, wanted = _SCALARS[hint]
    if (not isinstance(value, accepted) or (hint is not bool and isinstance(value, bool))
            or value != value):                 # NaN
        raise ConfigError(f"{where!r} must be {wanted}, got {value!r}")
    return value


# Bytes one learning group's float64 weights may take, GROUP_SIZE x (inputs + 1)
# x n_excitatory x 8: 4 GiB, where the defaults take 80 MB.
MAX_GROUP_WEIGHT_BYTES = 4 * 2**30


@dataclasses.dataclass(frozen=True)
class ImageConfig:
    """Size every input image is resized to before encoding."""

    # RunConfig bounds the pixel count by MAX_GROUP_WEIGHT_BYTES.
    width: int = ranged(1, math.inf, default=28)
    height: int = ranged(1, math.inf, default=28)

    def __post_init__(self) -> None:
        check_ranges(self)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Every tunable of the pipeline; its JSON form is the config file."""

    seed: int = ranged(0, math.inf, default=0)     # any size seeds a SeedSequence
    workers: int = ranged(0, math.inf, default=0)  # 0: every usable core; more are capped to them
    image: ImageConfig = ImageConfig()
    patch: PatchNormConfig = PatchNormConfig()
    encoding: EncodingConfig = EncodingConfig()
    simulation: SimulationParams = SimulationParams.defaults()
    expert: ExpertConfig = ExpertConfig()
    calibration: CalibrationGrids = CalibrationGrids()

    @property
    def image_size(self) -> tuple[int, int]:
        return (self.image.width, self.image.height)

    def effective_workers(self) -> int:
        """``workers`` (0: all), capped at the cores this process may run on."""
        if hasattr(os, "sched_getaffinity"):
            usable = len(os.sched_getaffinity(0))
        else:
            usable = os.cpu_count() or 1
        return min(self.workers or usable, usable)

    def __post_init__(self) -> None:
        check_ranges(self)
        width, height = self.image_size
        if width % self.patch.patch_width or height % self.patch.patch_height:
            raise ConfigError("image dimensions must be multiples of the patch size")
        group_bytes = GROUP_SIZE * (width * height + 1) * self.expert.n_excitatory * 8
        if group_bytes > MAX_GROUP_WEIGHT_BYTES:
            raise ConfigError(
                f"expert.n_excitatory ({self.expert.n_excitatory}) on {width}x{height} images "
                f"needs {group_bytes} bytes of weights for a learning group of {GROUP_SIZE}, "
                f"more than {MAX_GROUP_WEIGHT_BYTES}"
            )
        check_presentation_steps(self.encoding, self.simulation)
