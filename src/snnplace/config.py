"""The run configuration and the JSON form of every config dataclass.

``RunConfig`` is the schema of the config file: each nested dataclass is
one JSON object and each field one key of the same name, with one
exception, the simulation's ``lif_exc``/``lif_inh``, which the file and the
archive manifest call ``lif_excitatory``/``lif_inhibitory``.  Tuples are
JSON lists.  ``to_json`` writes that form and ``from_json`` reads it back
strictly: every field must be present with its declared type (an int is
accepted for a float; a bool or NaN never passes as a number) and unknown
keys are rejected, each with a ``ConfigError`` naming the key.
"""

from __future__ import annotations

import dataclasses
import os
import typing

from . import calibration as cal
from .errors import ConfigError
from .expert import ExpertConfig
from .imaging import EncodingConfig, PatchNormConfig
from .network import SimulationParams

_JSON_NAMES = {"lif_exc": "lif_excitatory", "lif_inh": "lif_inhibitory"}
_SCALARS = {float: ((int, float), "a number"), int: ((int,), "an integer"),
            bool: ((bool,), "true or false")}


def to_json(obj):
    """The JSON form of a config dataclass (or of one of its values)."""
    if dataclasses.is_dataclass(obj):
        return {
            _JSON_NAMES.get(f.name, f.name): to_json(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, tuple):
        return [to_json(item) for item in obj]
    return obj


def from_json(cls, data, where: str):
    """Decode ``data`` into the dataclass ``cls``; ``where`` names it in errors."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where!r} must be an object, got {data!r}")
    hints = typing.get_type_hints(cls)
    names = {_JSON_NAMES.get(f.name, f.name): f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(names))
    if unknown:
        raise ConfigError(f"unknown keys in {where!r}: {', '.join(unknown)}")
    missing = sorted(set(names) - set(data))
    if missing:
        raise ConfigError(f"missing keys in {where!r}: {', '.join(missing)}")
    return cls(**{
        name: _decode(hints[name], data[key], f"{where}.{key}")
        for key, name in names.items()
    })


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


@dataclasses.dataclass(frozen=True)
class ImageConfig:
    """Size every input image is resized to before encoding."""

    width: int = 28
    height: int = 28


@dataclasses.dataclass(frozen=True)
class CalibrationGrids:
    """Default grids of ``calibrate``; its flags override them."""

    tau_gi_grid: tuple[float, ...] = cal.DEFAULT_TAU_GI_GRID
    theta_grid: tuple[float, ...] = cal.DEFAULT_THETA_GRID


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Every tunable of the pipeline; its JSON form is the config file."""

    seed: int = 0
    workers: int = 0                      # 0: use all available cores
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
        return self.workers if self.workers > 0 else (os.cpu_count() or 1)

    def validate(self) -> None:
        width, height = self.image_size
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.workers < 0:
            raise ConfigError("workers must be >= 0")
        if width < 1 or height < 1:
            raise ConfigError("image dimensions must be >= 1")
        self.patch.validate()
        if width % self.patch.patch_width or height % self.patch.patch_height:
            raise ConfigError("image dimensions must be multiples of the patch size")
        if self.expert.n_inputs != width * height:
            raise ConfigError("expert.n_inputs must equal image.width * image.height")
        self.encoding.validate()
        self.simulation.validate()
        self.expert.validate()
        cal.CalibrationPlan(self.calibration.tau_gi_grid, self.calibration.theta_grid,
                            0, 1).validate()
