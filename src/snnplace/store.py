"""Versioned on-disk persistence for ensembles and dataset manifests.

An archive is a directory holding ``manifest.json`` plus one raw weight
payload per expert (little-endian float32, row-major [n_inputs x
n_excitatory]).  Everything else — assignments, adaptive thresholds,
reference totals, hyperactive flags, full config — lives in the manifest.
Python's JSON writer emits shortest round-trip float representations, so
save/load is bit-exact; saves go through a temporary name and a final
atomic rename.  Loading rejects archives whose experts do not tile the
place set or disagree on their shapes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile

import numpy as np

from .ensemble import EnsembleModel
from .errors import ArchiveError, ConfigError, IngestError
from .expert import ExpertConfig, ExpertModel
from .imaging import EncodingConfig, PatchNormConfig
from .network import (
    FixedWiring,
    HomeostasisParams,
    LifParams,
    SimulationParams,
    StdpParams,
)

FORMAT_VERSION = 1
_IMAGE_SUFFIXES = (".pgm", ".png", ".jpg", ".jpeg", ".bmp", ".tif", ".tiff")


@dataclasses.dataclass(frozen=True)
class DatasetManifest:
    """Identity of one traverse: ordered files, place ids, content hash."""

    name: str
    role: str                       # reference | query | calibration
    directory: str
    filenames: tuple[str, ...]      # lexicographic; index == place id
    fingerprint: str                # sha256 over the per-file content hashes
    note: str = ""

    @property
    def place_count(self) -> int:
        return len(self.filenames)

    def paths(self) -> list[str]:
        return [os.path.join(self.directory, f) for f in self.filenames]


def scan_traverse(directory: str | os.PathLike, role: str, note: str = "") -> DatasetManifest:
    """Index an image directory: lexicographic filename order defines place ids."""
    directory = os.fspath(directory)
    if not os.path.isdir(directory):
        raise IngestError(f"image directory not found: {directory!r}")
    names = sorted(
        f for f in os.listdir(directory)
        if f.lower().endswith(_IMAGE_SUFFIXES)
    )
    if not names:
        raise IngestError(f"no image files in {directory!r}")
    digest = hashlib.sha256()
    for name in names:
        with open(os.path.join(directory, name), "rb") as fh:
            digest.update(hashlib.sha256(fh.read()).digest())
    return DatasetManifest(
        name=os.path.basename(os.path.normpath(directory)),
        role=role,
        directory=directory,
        filenames=tuple(names),
        fingerprint=digest.hexdigest(),
        note=note,
    )


def _config_block(model: EnsembleModel) -> dict:
    sim = model.sim
    block = {
        "dt_ms": sim.dt_ms,
        "weight_norm_enabled": sim.weight_norm_enabled,
        "weight_norm_target": sim.weight_norm_target,
        "weight_init_max": sim.weight_init_max,
        "lif_excitatory": dataclasses.asdict(sim.lif_exc),
        "lif_inhibitory": dataclasses.asdict(sim.lif_inh),
        "homeostasis": dataclasses.asdict(sim.homeostasis),
        "stdp": dataclasses.asdict(sim.stdp),
        "wiring": dataclasses.asdict(sim.wiring),
        "encoding": dataclasses.asdict(model.encoding),
        "patch": dataclasses.asdict(model.patch),
    }
    if model.expert_config is not None:
        block["expert"] = dataclasses.asdict(model.expert_config)
    return block


def _sim_from_block(block: dict) -> SimulationParams:
    return SimulationParams(
        lif_exc=LifParams(**block["lif_excitatory"]),
        lif_inh=LifParams(**block["lif_inhibitory"]),
        homeostasis=HomeostasisParams(**block["homeostasis"]),
        stdp=StdpParams(**block["stdp"]),
        wiring=FixedWiring(**block["wiring"]),
        dt_ms=block["dt_ms"],
        weight_norm_enabled=block["weight_norm_enabled"],
        weight_norm_target=block["weight_norm_target"],
        weight_init_max=block["weight_init_max"],
    )


def save_ensemble(model: EnsembleModel, path: str | os.PathLike, overwrite: bool = False) -> None:
    """Write the model as a directory archive (atomic rename on completion)."""
    path = os.fspath(path)
    parent = os.path.dirname(os.path.abspath(path)) or "."
    experts_meta = []
    payloads = []
    for i, ex in enumerate(model.experts):
        fname = f"expert_{i:04d}.bin"
        payloads.append((fname, ex.weights.astype("<f4").tobytes(order="C")))
        experts_meta.append({
            "file": fname,
            "n_inputs": ex.n_inputs,
            "n_excitatory": ex.n_excitatory,
            "global_start": ex.global_start,
            "n_places": ex.n_places,
            "theta_adapt_mv": [float(t) for t in ex.theta],
            "assignments": [int(a) for a in ex.assignments],
            "reference_totals": [int(t) for t in ex.reference_totals],
            "hyperactive": [bool(h) for h in ex.hyperactive],
        })
    manifest = {
        "format_version": FORMAT_VERSION,
        "place_count": model.place_count,
        "global_seed": model.global_seed,
        "theta": model.theta,
        "regularized": model.regularized,
        "image_size": list(model.image_size),
        "dataset_fingerprints": model.dataset_fingerprints,
        "config": _config_block(model),
        "experts": experts_meta,
    }

    tmp = tempfile.mkdtemp(prefix=".snnplace_save_", dir=parent)
    try:
        for fname, blob in payloads:
            with open(os.path.join(tmp, fname), "wb") as fh:
                fh.write(blob)
                fh.flush()
                os.fsync(fh.fileno())
        with open(os.path.join(tmp, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        if os.path.isdir(path):
            if not overwrite:
                raise ArchiveError(f"refusing to overwrite existing archive {path!r}")
            stale = tmp + ".old"
            os.rename(path, stale)
            os.rename(tmp, path)
            for leftover in os.listdir(stale):
                os.unlink(os.path.join(stale, leftover))
            os.rmdir(stale)
        else:
            os.rename(tmp, path)
    except OSError as exc:
        raise ArchiveError(f"cannot write archive {path!r}: {exc}") from exc
    finally:
        if os.path.isdir(tmp):
            for leftover in os.listdir(tmp):
                os.unlink(os.path.join(tmp, leftover))
            os.rmdir(tmp)


def load_ensemble(path: str | os.PathLike) -> EnsembleModel:
    """Read an archive back into a query-ready model."""
    path = os.fspath(path)
    manifest_path = os.path.join(path, "manifest.json")
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise ArchiveError(f"cannot read {manifest_path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ArchiveError(f"corrupt manifest {manifest_path!r}: {exc}") from exc

    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise ArchiveError(
            f"unsupported archive version {version!r} in {path!r} "
            f"(supported: {FORMAT_VERSION})"
        )

    cfg = manifest["config"]
    experts = []
    for meta in manifest["experts"]:
        payload_path = os.path.join(path, meta["file"])
        expected = meta["n_inputs"] * meta["n_excitatory"] * 4
        try:
            with open(payload_path, "rb") as fh:
                blob = fh.read()
        except OSError as exc:
            raise ArchiveError(f"cannot read payload {payload_path!r}: {exc}") from exc
        if len(blob) != expected:
            raise ArchiveError(
                f"payload {payload_path!r} holds {len(blob)} bytes, "
                f"expected {expected}"
            )
        weights = np.frombuffer(blob, dtype="<f4").reshape(
            meta["n_inputs"], meta["n_excitatory"]
        ).astype(np.float32)
        experts.append(ExpertModel(
            weights=weights,
            theta=np.array(meta["theta_adapt_mv"], dtype=np.float64),
            assignments=np.array(meta["assignments"], dtype=np.int64),
            global_start=meta["global_start"],
            n_places=meta["n_places"],
            reference_totals=np.array(meta["reference_totals"], dtype=np.int64),
            hyperactive=np.array(meta["hyperactive"], dtype=bool),
        ))

    model = EnsembleModel(
        experts=experts,
        place_count=manifest["place_count"],
        sim=_sim_from_block(cfg),
        encoding=EncodingConfig(**cfg["encoding"]),
        patch=PatchNormConfig(**cfg["patch"]),
        image_size=tuple(manifest["image_size"]),
        global_seed=manifest["global_seed"],
        theta=manifest["theta"],
        regularized=manifest["regularized"],
        expert_config=ExpertConfig(**cfg["expert"]) if "expert" in cfg else None,
        dataset_fingerprints=manifest["dataset_fingerprints"],
    )
    _check_consistent(model, path)
    return model


def _check_consistent(model: EnsembleModel, path: str) -> None:
    """Reject archives whose experts cannot serve one query together."""
    try:
        model.validate_tiling()
    except ConfigError as exc:
        raise ArchiveError(f"archive {path!r}: {exc}") from exc
    sizes = sorted({ex.n_excitatory for ex in model.experts})
    if len(sizes) > 1:
        raise ArchiveError(f"archive {path!r}: experts differ in n_excitatory {sizes}")
    width, height = model.image_size
    for i, ex in enumerate(model.experts):
        if ex.n_inputs != width * height:
            raise ArchiveError(
                f"archive {path!r}: expert {i} has n_inputs={ex.n_inputs}, "
                f"image size {width}x{height} needs {width * height}"
            )
        for name in ("theta", "assignments", "reference_totals", "hyperactive"):
            if len(getattr(ex, name)) != ex.n_excitatory:
                raise ArchiveError(
                    f"archive {path!r}: expert {i} lists {len(getattr(ex, name))} "
                    f"{name}, expected {ex.n_excitatory}"
                )
