"""Versioned on-disk persistence for ensembles and dataset manifests.

An archive is a directory holding ``manifest.json`` plus one raw weight
payload per expert (little-endian float32, row-major [n_inputs x
n_excitatory]).  Everything else — assignments, adaptive thresholds,
reference totals, hyperactive flags, full config — lives in the manifest.
Each per-neuron list is spelled once, in ``_PER_NEURON``: the save, the
load and the shape check all read its manifest key, type and element test.
Python's JSON writer emits shortest round-trip float representations, so
save/load is bit-exact; saves go through a temporary name and a final
atomic rename.  A save writes one expert's payload at a time from its
column of the ensemble's weight stack; a load checks every payload's size
and the experts' shared shape before it allocates the stack, then reads
each payload into its column.  An overwrite first moves the old archive aside to
``<path>.snnplace-old``; if the process dies before the new one is in
place, loading ``path`` falls back to that copy.  A save replaces only
directories that hold nothing but archive files.  The config block is written and
read by ``config``'s JSON codec.  A save writes format 2; a format-1 archive
loads with the four config keys format 2 dropped (``_FORMAT_1_KEYS``)
removed first.  Loading rejects, with ``ArchiveError``,
manifests with a missing or wrongly typed key (an unknown config key, a
config value that breaks its invariant and a per-neuron list element of the
wrong type included), a payload name other than expert i's own
``expert_NNNN.bin``, a presentation shorter than one step or a window
longer than ``config.MAX_WINDOW_STEPS``, and archives whose experts do not tile
the place set, hold no experts, disagree on their shapes or with
``image_size``, hold non-finite thresholds or weights, assign a neuron
outside their own places, or store hyperactive flags other than those the
stored theta gives (``ensemble.flags_for_theta``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import tempfile

import numpy as np

from .config import check_presentation_steps, from_json, to_json
from .ensemble import EnsembleModel, flags_for_theta
from .errors import ArchiveError, ConfigError, IngestError
from .expert import UNASSIGNED, ExpertConfig, ExpertModel
from .imaging import EncodingConfig, PatchNormConfig
from .network import SimulationParams

FORMAT_VERSION = 2
# Config keys of format 1 that format 2 dropped, by config block section.
_FORMAT_1_KEYS = {"expert": ("n_inputs", "seed"), "lif_inhibitory": ("tau_gi_ms", "e_inh_mv")}
_IMAGE_SUFFIXES = (".pgm", ".png", ".jpg", ".jpeg", ".bmp", ".tif", ".tiff")
_PAYLOAD_FILE = re.compile(r"expert_\d{4,}\.bin")
_ARCHIVE_FILE = re.compile(rf"manifest\.json|{_PAYLOAD_FILE.pattern}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# Per-neuron fields by ExpertModel attribute: the manifest key, the array type,
# and the test each listed element must pass first, since numpy's cast would
# truncate 1.9 to 1 and read "no" as True.
_PER_NEURON = {
    "theta": ("theta_adapt_mv", np.float64, "numbers",
              lambda v: _is_int(v) or isinstance(v, float)),
    "assignments": ("assignments", np.int64, "integers", _is_int),
    "reference_totals": ("reference_totals", np.int64, "non-negative integers",
                         lambda v: _is_int(v) and v >= 0),
    "hyperactive": ("hyperactive", bool, "true or false", lambda v: isinstance(v, bool)),
}


@dataclasses.dataclass(frozen=True)
class DatasetManifest:
    """One traverse: files in place-id order and the content hash archives keep by ``name``."""

    name: str
    directory: str
    filenames: tuple[str, ...]      # lexicographic; index == place id
    fingerprint: str                # sha256 over the per-file content hashes

    @property
    def place_count(self) -> int:
        return len(self.filenames)

    def paths(self) -> list[str]:
        return [os.path.join(self.directory, f) for f in self.filenames]


def scan_traverse(directory: str | os.PathLike) -> DatasetManifest:
    """Index an image directory: lexicographic filename order defines place ids.

    A directory that cannot be listed, or an image entry that cannot be read
    (a subdirectory named like an image, say), raises ``IngestError``.
    """
    directory = os.fspath(directory)
    if not os.path.isdir(directory):
        raise IngestError(f"image directory not found: {directory!r}")
    try:
        entries = os.listdir(directory)
    except OSError as exc:
        raise IngestError(f"cannot list image directory {directory!r}: {exc}") from exc
    names = sorted(f for f in entries if f.lower().endswith(_IMAGE_SUFFIXES))
    if not names:
        raise IngestError(f"no image files in {directory!r}")
    digest = hashlib.sha256()
    for name in names:
        path = os.path.join(directory, name)
        try:
            with open(path, "rb") as fh:
                digest.update(hashlib.sha256(fh.read()).digest())
        except OSError as exc:
            raise IngestError(f"cannot read image {path!r}: {exc}") from exc
    return DatasetManifest(
        name=os.path.basename(os.path.normpath(directory)),
        directory=directory,
        filenames=tuple(names),
        fingerprint=digest.hexdigest(),
    )


def save_ensemble(model: EnsembleModel, path: str | os.PathLike, overwrite: bool = False) -> None:
    """Write the model as a directory archive (atomic rename on completion).

    Payloads are written one expert at a time, each from a little-endian,
    row-major copy of that expert's column of the weight stack alone.
    """
    path = os.fspath(path)
    check_archive_target(path, overwrite)
    parent = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        tmp = tempfile.mkdtemp(prefix=".snnplace_save_", dir=parent)
        for i, ex in enumerate(model.experts):
            with open(os.path.join(tmp, _payload_name(i)), "wb") as fh:
                fh.write(np.ascontiguousarray(ex.weights, dtype="<f4"))
                fh.flush()
                os.fsync(fh.fileno())
        with open(os.path.join(tmp, "manifest.json"), "w") as fh:
            json.dump(_manifest(model), fh, indent=1, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        stale = _moved_aside(path)
        if os.path.isdir(path):
            _remove_flat_dir(stale)  # left by an interrupted overwrite; path is complete
            os.rename(path, stale)
            try:
                os.rename(tmp, path)
            except OSError:
                os.rename(stale, path)
                raise
        else:
            os.rename(tmp, path)
        _remove_flat_dir(stale)
    except OSError as exc:
        raise ArchiveError(f"cannot write archive {path!r}: {exc}") from exc
    finally:
        if tmp is not None:
            _remove_flat_dir(tmp)


def check_archive_target(path: str | os.PathLike, overwrite: bool = False) -> None:
    """Refuse a save to ``path`` that cannot complete; commands check it before any work.

    The parent must be a directory.  ``path`` and ``<path>.snnplace-old``
    are refused if they exist, unless ``overwrite`` is set and each is an
    archive (a directory of archive files only).
    """
    path = os.fspath(path)
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise ArchiveError(f"cannot write archive {path!r}: {parent!r} is not a directory")
    for existing in (path, _moved_aside(path)):
        if os.path.lexists(existing):
            if not overwrite:
                raise ArchiveError(f"refusing to overwrite {existing!r}")
            _check_archive_files(existing)


def _payload_name(index: int) -> str:
    return f"expert_{index:04d}.bin"


def _manifest(model: EnsembleModel) -> dict:
    experts_meta = [
        {
            "file": _payload_name(i),
            "n_inputs": ex.n_inputs,
            "n_excitatory": ex.n_excitatory,
            "global_start": ex.global_start,
            "n_places": ex.n_places,
            **{key: np.asarray(getattr(ex, attr), dtype).tolist()
               for attr, (key, dtype, *_) in _PER_NEURON.items()},
        }
        for i, ex in enumerate(model.experts)
    ]
    # The simulation's keys, plus one key per other config section.
    config = {**to_json(model.sim), "encoding": to_json(model.encoding),
              "patch": to_json(model.patch)}
    if model.expert_config is not None:
        config["expert"] = to_json(model.expert_config)
    return {
        "format_version": FORMAT_VERSION,
        "place_count": model.place_count,
        "global_seed": model.global_seed,
        "theta": model.theta,
        "regularized": model.regularized,
        "image_size": list(model.image_size),
        "dataset_fingerprints": model.dataset_fingerprints,
        "config": config,
        "experts": experts_meta,
    }


def _moved_aside(path: str) -> str:
    """Where an overwrite keeps the old archive until the new one is in place.

    The suffix is this program's own, so a user's ``<path>.old`` backup is
    never read, refused on or removed.
    """
    return os.path.normpath(path) + ".snnplace-old"


def _check_archive_files(directory: str) -> None:
    """Refuse, before anything is moved or deleted, to replace a non-archive."""
    try:
        names = os.listdir(directory)
    except OSError as exc:  # a file, or a directory this process cannot read
        raise ArchiveError(f"refusing to replace {directory!r}: {exc}") from exc
    for name in names:
        if not (
            _ARCHIVE_FILE.fullmatch(name) and os.path.isfile(os.path.join(directory, name))
        ):
            raise ArchiveError(
                f"refusing to replace {directory!r}: it holds {name!r}, "
                "which no archive holds"
            )


def _remove_flat_dir(directory: str) -> None:
    if os.path.isdir(directory):
        for leftover in os.listdir(directory):
            os.unlink(os.path.join(directory, leftover))
        os.rmdir(directory)


def load_ensemble(path: str | os.PathLike) -> EnsembleModel:
    """Read an archive back into a query-ready model.

    When ``path`` is missing but ``<path>.snnplace-old`` exists, an
    overwrite died between its two renames, and the old archive is read
    from there.
    """
    path = os.fspath(path)
    if not os.path.isdir(path) and os.path.isdir(_moved_aside(path)):
        path = _moved_aside(path)
    manifest_path = os.path.join(path, "manifest.json")
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise ArchiveError(f"cannot read {manifest_path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ArchiveError(f"corrupt manifest {manifest_path!r}: {exc}") from exc

    if not isinstance(manifest, dict):
        raise ArchiveError(f"manifest {manifest_path!r} is not a JSON object")
    version = manifest.get("format_version")
    if not (_is_int(version) and version in (1, FORMAT_VERSION)):
        raise ArchiveError(
            f"unsupported archive version {version!r} in {path!r} "
            f"(supported: 1, {FORMAT_VERSION})"
        )
    try:
        model = _model_from_manifest(manifest, path)
        _check_consistent(model, path)
    except ConfigError as exc:
        raise ArchiveError(f"archive {path!r}: {exc}") from exc
    except (LookupError, TypeError, ValueError, OverflowError) as exc:
        raise ArchiveError(
            f"archive {path!r}: malformed manifest ({type(exc).__name__}: {exc})"
        ) from exc
    return model


def _model_from_manifest(manifest: dict, path: str) -> EnsembleModel:
    cfg = manifest["config"]
    if not isinstance(cfg, dict):
        raise ConfigError(f"'config' must be an object, got {cfg!r}")
    if manifest["format_version"] == 1:
        for section, keys in _FORMAT_1_KEYS.items():
            if isinstance(cfg.get(section), dict):
                cfg[section] = {k: v for k, v in cfg[section].items() if k not in keys}
    sim = {key: value for key, value in cfg.items() if key not in ("encoding", "patch", "expert")}
    metas = manifest["experts"]
    n_inputs, n_excitatory = _weight_shape(manifest, path)
    payloads = [
        _payload_path(meta, i, path, n_inputs * n_excitatory * 4) for i, meta in enumerate(metas)
    ]
    weights = np.empty((n_inputs, len(metas), n_excitatory), dtype=np.float32)
    payload = np.empty((n_inputs, n_excitatory), dtype="<f4")
    experts = []
    for i, (meta, payload_path) in enumerate(zip(metas, payloads)):
        _read_payload(payload_path, payload)
        weights[:, i] = payload
        where = f"archive {path!r}: expert {i}"
        experts.append(ExpertModel(
            weights=weights[:, i],
            **{attr: _per_neuron(meta, attr, where) for attr in _PER_NEURON},
            global_start=meta["global_start"],
            n_places=meta["n_places"],
        ))
    return EnsembleModel(
        experts=experts,
        weights=weights,
        place_count=manifest["place_count"],
        sim=from_json(SimulationParams, sim, "config"),
        encoding=from_json(EncodingConfig, cfg["encoding"], "config.encoding"),
        patch=from_json(PatchNormConfig, cfg["patch"], "config.patch"),
        image_size=tuple(manifest["image_size"]),
        global_seed=manifest["global_seed"],
        theta=manifest["theta"],
        regularized=manifest["regularized"],
        expert_config=(
            from_json(ExpertConfig, cfg["expert"], "config.expert") if "expert" in cfg else None
        ),
        dataset_fingerprints=dict(manifest["dataset_fingerprints"]),
    )


def _weight_shape(manifest: dict, path: str) -> tuple[int, int]:
    """(n_inputs, n_excitatory) every expert must share, checked before any payload is read."""
    size = manifest["image_size"]
    if not (isinstance(size, list) and len(size) == 2
            and all(_is_int(n) and n >= 1 for n in size)):
        raise ArchiveError(f"archive {path!r}: image_size must be two positive integers")
    width, height = size
    metas = manifest["experts"]
    if not (isinstance(metas, list) and metas):
        raise ArchiveError(f"archive {path!r}: 'experts' must be a non-empty list")
    sizes = sorted({meta["n_excitatory"] for meta in metas})
    if len(sizes) > 1:
        raise ArchiveError(f"archive {path!r}: experts differ in n_excitatory {sizes}")
    if not (_is_int(sizes[0]) and sizes[0] >= 1):
        raise ArchiveError(f"archive {path!r}: n_excitatory must be a positive integer")
    for i, meta in enumerate(metas):
        if meta["n_inputs"] != width * height:
            raise ArchiveError(
                f"archive {path!r}: expert {i} has n_inputs={meta['n_inputs']}, "
                f"image size {width}x{height} needs {width * height}"
            )
    return width * height, sizes[0]


def _payload_path(meta: dict, index: int, path: str, expected: int) -> str:
    """Expert ``index``'s payload file, which must hold ``expected`` bytes.

    Every save names it ``_payload_name(index)``; no other name is read, so
    no two experts share a file and the stack is no larger than the
    payloads on disk.
    """
    if meta["file"] != _payload_name(index):
        raise ArchiveError(
            f"archive {path!r}: expert {index}'s payload name {meta['file']!r} "
            f"is not {_payload_name(index)!r}"
        )
    payload_path = os.path.join(path, meta["file"])
    try:
        size = os.stat(payload_path).st_size
    except OSError as exc:
        raise ArchiveError(f"cannot read payload {payload_path!r}: {exc}") from exc
    _check_payload_size(payload_path, size, expected)
    return payload_path


def _read_payload(payload_path: str, out: np.ndarray) -> None:
    try:
        with open(payload_path, "rb") as fh:
            size = fh.readinto(out)
    except OSError as exc:
        raise ArchiveError(f"cannot read payload {payload_path!r}: {exc}") from exc
    _check_payload_size(payload_path, size, out.nbytes)


def _check_payload_size(payload_path: str, size: int, expected: int) -> None:
    if size != expected:
        raise ArchiveError(f"payload {payload_path!r} holds {size} bytes, expected {expected}")


def _per_neuron(meta: dict, attr: str, where: str) -> np.ndarray:
    key, dtype, wanted, valid = _PER_NEURON[attr]
    values = meta[key]
    if not (isinstance(values, list) and all(map(valid, values))):
        raise ArchiveError(f"{where} {key} must be a list of {wanted}")
    return np.array(values, dtype=dtype)


def _check_consistent(model: EnsembleModel, path: str) -> None:
    """Reject archives whose experts cannot serve one query together.

    The stored configs were checked as they were decoded; a presentation
    must last at least one step and no window more than
    ``MAX_WINDOW_STEPS``, and the stored theta must pass the same
    check as a fresh one.  Each expert's per-neuron lists
    must match its neuron count, its thresholds and weights must be finite,
    each assignment must be a local place of that expert or unassigned, and
    its hyperactive flags must be those the stored theta gives its reference
    totals (``flags_for_theta``).
    """
    model.validate_tiling()
    check_presentation_steps(model.encoding, model.sim)
    flags_for_theta((), model.theta)
    for i, ex in enumerate(model.experts):
        for name in _PER_NEURON:
            if getattr(ex, name).shape != (ex.n_excitatory,):
                raise ArchiveError(
                    f"archive {path!r}: expert {i} lists {name} of shape "
                    f"{getattr(ex, name).shape}, expected ({ex.n_excitatory},)"
                )
        if not (np.isfinite(ex.theta).all() and np.isfinite(ex.weights).all()):
            raise ArchiveError(
                f"archive {path!r}: expert {i} holds non-finite thresholds or weights"
            )
        if ((ex.assignments < UNASSIGNED) | (ex.assignments >= ex.n_places)).any():
            raise ArchiveError(
                f"archive {path!r}: expert {i} assigns a neuron outside its places "
                f"[{UNASSIGNED}, {ex.n_places})"
            )
        if not np.array_equal(ex.hyperactive, flags_for_theta(ex.reference_totals, model.theta)):
            raise ArchiveError(
                f"archive {path!r}: expert {i}'s hyperactive flags are not those "
                f"theta={model.theta} gives its reference totals"
            )
