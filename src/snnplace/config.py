"""The run configuration and the JSON form of every config dataclass.

``RunConfig`` is the schema of the config file: each nested dataclass is
one JSON object and each field one key of the same name.  Tuples are JSON
lists.  ``to_json`` writes that form and ``from_json`` reads it back
strictly: every field must be present with its declared type (an int is
accepted for a float; a bool or NaN never passes as a number) and unknown
keys are rejected, each with a ``ConfigError`` naming the key.  Every
config dataclass checks its own invariants when it is built, so a decoded
file, an archive's config block and each ``dataclasses.replace`` of a
config are checked on construction, and no invalid config exists.
"""

from __future__ import annotations

import dataclasses
import os
import typing

from .calibration import CalibrationGrids
from .errors import ConfigError
from .expert import GROUP_SIZE, ExpertConfig
from .imaging import EncodingConfig, PatchNormConfig
from .network import SimulationParams

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
    return cls(**{name: _decode(hints[name], data[name], f"{where}.{name}") for name in names})


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


# Steps one presentation or rest window may last: its step offsets take 8 MB.
MAX_WINDOW_STEPS = 1_000_000

# Bytes one learning group's float64 weights may take, GROUP_SIZE x (inputs + 1)
# x n_excitatory x 8: 4 GiB, where the defaults take 80 MB.
MAX_GROUP_WEIGHT_BYTES = 4 * 2**30


def check_presentation_steps(encoding: EncodingConfig, simulation: SimulationParams) -> None:
    """A presentation lasts at least one step, and no window more than MAX_WINDOW_STEPS.

    That is, round(presentation_ms / dt_ms) >= 1, and presentation_ms /
    dt_ms and rest_ms / dt_ms are each <= MAX_WINDOW_STEPS.
    """
    # Compared, not rounded: the ratio of two finite numbers can overflow to inf.
    dt_ms = simulation.dt_ms
    if not encoding.presentation_ms / dt_ms > 0.5:
        raise ConfigError(
            f"encoding.presentation_ms ({encoding.presentation_ms}) must last at least one "
            f"step of simulation.dt_ms ({dt_ms})"
        )
    for name in ("presentation_ms", "rest_ms"):
        if not getattr(encoding, name) / dt_ms <= MAX_WINDOW_STEPS:
            raise ConfigError(
                f"encoding.{name} ({getattr(encoding, name)}) must last at most "
                f"{MAX_WINDOW_STEPS} steps of simulation.dt_ms ({dt_ms})"
            )


@dataclasses.dataclass(frozen=True)
class ImageConfig:
    """Size every input image is resized to before encoding."""

    width: int = 28
    height: int = 28

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ConfigError("image dimensions must be >= 1")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Every tunable of the pipeline; its JSON form is the config file."""

    seed: int = 0
    workers: int = 0                      # 0: every usable core; more are capped to them
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
        width, height = self.image_size
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.workers < 0:
            raise ConfigError("workers must be >= 0")
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
