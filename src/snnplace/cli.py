"""Operator entry points: train, regularize, calibrate, evaluate, match, bench.

All tunables live in one JSON config file; command-line flags override
individual values.  Exit codes: 0 success, 1 runtime failure, 2
configuration or ingest error.  Every command is deterministic given the
same inputs, seed, and config, independent of the worker count.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import calibration as cal
from . import ensemble as ens
from . import metrics, store
from .errors import ArchiveError, ConfigError, IngestError, SnnPlaceError
from .expert import ExpertConfig
from .imaging import EncodingConfig, PatchNormConfig, load_and_resize, patch_normalize, rescale_unit
from .network import (
    FixedWiring,
    HomeostasisParams,
    LifParams,
    SimulationParams,
    StdpParams,
)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Every tunable of the pipeline, as read from the JSON config file."""

    seed: int = 0
    workers: int = 0                      # 0: use all available cores
    image_width: int = 28
    image_height: int = 28
    theta: float = 100.0
    patch: PatchNormConfig = PatchNormConfig()
    encoding: EncodingConfig = EncodingConfig()
    simulation: SimulationParams = SimulationParams.defaults()
    expert: ExpertConfig = ExpertConfig()
    tau_gi_grid: tuple[float, ...] = cal.DEFAULT_TAU_GI_GRID
    theta_grid: tuple[float, ...] = cal.DEFAULT_THETA_GRID

    @property
    def image_size(self) -> tuple[int, int]:
        return (self.image_width, self.image_height)

    def effective_workers(self) -> int:
        return self.workers if self.workers > 0 else (os.cpu_count() or 1)

    def validate(self) -> None:
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.workers < 0:
            raise ConfigError("workers must be >= 0")
        if self.image_width < 1 or self.image_height < 1:
            raise ConfigError("image dimensions must be >= 1")
        if self.theta < 0:
            raise ConfigError("theta must be >= 0 (0 disables the filter)")
        if self.image_width % self.patch.patch_width or self.image_height % self.patch.patch_height:
            raise ConfigError("image dimensions must be multiples of the patch size")
        if self.expert.n_inputs != self.image_width * self.image_height:
            raise ConfigError("expert.n_inputs must equal image_width * image_height")
        self.patch.validate()
        self.encoding.validate()
        self.simulation.validate()
        self.expert.validate()
        cal.CalibrationPlan(self.tau_gi_grid, self.theta_grid, 0, 1).validate()


def _from_dict(cls, data, where: str):
    if not isinstance(data, dict):
        raise ConfigError(f"config section {where!r} must be an object")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - names)
    if unknown:
        raise ConfigError(f"unknown keys in {where!r}: {', '.join(unknown)}")
    return cls(**data)


_SECTIONS = {
    "patch": PatchNormConfig,
    "encoding": EncodingConfig,
    "expert": ExpertConfig,
}
_SIM_SECTIONS = {
    "lif_excitatory": LifParams,
    "lif_inhibitory": LifParams,
    "homeostasis": HomeostasisParams,
    "stdp": StdpParams,
    "wiring": FixedWiring,
}


def load_config(path: str | None) -> RunConfig:
    """Read the JSON config file; unknown keys anywhere are rejected."""
    if path is None:
        return RunConfig()
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise IngestError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc

    known = {
        "seed", "workers", "image", "theta", "patch", "encoding",
        "simulation", "expert", "calibration",
    }
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {', '.join(unknown)}")

    kwargs: dict = {}
    for key in ("seed", "workers", "theta"):
        if key in data:
            kwargs[key] = data[key]
    if "image" in data:
        img = data["image"]
        extra = sorted(set(img) - {"width", "height"})
        if extra:
            raise ConfigError(f"unknown keys in 'image': {', '.join(extra)}")
        kwargs["image_width"] = img.get("width", 28)
        kwargs["image_height"] = img.get("height", 28)
    for key, cls in _SECTIONS.items():
        if key in data:
            kwargs[key] = _from_dict(cls, data[key], key)
    if "simulation" in data:
        sim_data = dict(data["simulation"])
        sim_kwargs = {}
        for key, cls in _SIM_SECTIONS.items():
            if key in sim_data:
                field = {"lif_excitatory": "lif_exc", "lif_inhibitory": "lif_inh"}.get(key, key)
                sim_kwargs[field] = _from_dict(cls, sim_data.pop(key), f"simulation.{key}")
        scalar_names = {"dt_ms", "weight_norm_enabled", "weight_norm_target", "weight_init_max"}
        extra = sorted(set(sim_data) - scalar_names)
        if extra:
            raise ConfigError(f"unknown keys in 'simulation': {', '.join(extra)}")
        sim_kwargs.update(sim_data)
        kwargs["simulation"] = dataclasses.replace(SimulationParams.defaults(), **sim_kwargs)
    if "calibration" in data:
        cal_data = data["calibration"]
        extra = sorted(set(cal_data) - {"tau_gi_grid", "theta_grid"})
        if extra:
            raise ConfigError(f"unknown keys in 'calibration': {', '.join(extra)}")
        if "tau_gi_grid" in cal_data:
            kwargs["tau_gi_grid"] = tuple(cal_data["tau_gi_grid"])
        if "theta_grid" in cal_data:
            kwargs["theta_grid"] = tuple(cal_data["theta_grid"])
    try:
        cfg = RunConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"malformed config {path!r}: {exc}") from exc
    return cfg


def _override(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    updates: dict = {}
    for flag, field in (("seed", "seed"), ("workers", "workers"), ("theta", "theta")):
        value = getattr(args, flag, None)
        if value is not None:
            updates[field] = value
    expert_updates = {}
    if getattr(args, "kappa", None) is not None:
        expert_updates["places_per_expert"] = args.kappa
    if getattr(args, "neurons", None) is not None:
        expert_updates["n_excitatory"] = args.neurons
    if getattr(args, "epochs", None) is not None:
        expert_updates["epochs"] = args.epochs
    if expert_updates:
        updates["expert"] = dataclasses.replace(cfg.expert, **expert_updates)
    return dataclasses.replace(cfg, **updates) if updates else cfg


def _encoder_input(path, size: tuple[int, int], patch: PatchNormConfig) -> np.ndarray:
    """Load one image file and run the encoder-input chain on it."""
    # Module globals, not imaging.preprocess_for_encoding: bench/tracing.py wraps these names.
    return rescale_unit(patch_normalize(load_and_resize(path, size), patch))


def _load_traverses(dirs, role, cfg: RunConfig, place_range=None):
    """Scan and load traverse directories into an encoder-ready array.

    Returns (images (n_trav, places, H, W), manifests, files_read).
    """
    manifests = [store.scan_traverse(d, role) for d in dirs]
    counts = {m.place_count for m in manifests}
    if place_range is None:
        n_places = min(counts)
        place_range = (0, n_places)
    start, stop = place_range
    if any(c < stop for c in counts):
        raise IngestError(
            f"traverses hold fewer than {stop} places: {sorted(counts)}"
        )
    images = np.empty((len(manifests), stop - start, cfg.image_height, cfg.image_width))
    files_read = []
    for t, manifest in enumerate(manifests):
        for k, path in enumerate(manifest.paths()[start:stop]):
            images[t, k] = _encoder_input(path, cfg.image_size, cfg.patch)
            files_read.append(path)
    return images, manifests, files_read


def _check_fingerprints(model: ens.EnsembleModel, manifests) -> None:
    for manifest in manifests:
        stored = model.dataset_fingerprints.get(manifest.name)
        if stored is not None and stored != manifest.fingerprint:
            raise IngestError(
                f"traverse {manifest.name!r} does not match the data this model "
                "was trained on (content fingerprint differs)"
            )


def cmd_train(args) -> int:
    cfg = _override(load_config(args.config), args)
    cfg.validate()
    place_range = (0, args.places) if args.places else None
    reference, manifests, _ = _load_traverses(args.ref_dirs, "reference", cfg, place_range)
    partition = ens.partition_reference(reference.shape[1], cfg.expert.places_per_expert)
    expert_cfg = dataclasses.replace(
        cfg.expert, n_inputs=cfg.image_width * cfg.image_height
    )
    print(f"training {partition.n_regions} experts on {reference.shape[1]} places "
          f"({reference.shape[0]} traverse(s), workers={cfg.effective_workers()})")
    tick = time.perf_counter()
    model = ens.train_ensemble(
        reference, partition, expert_cfg, cfg.simulation, cfg.encoding, cfg.patch,
        cfg.seed, cfg.effective_workers(),
        dataset_fingerprints={m.name: m.fingerprint for m in manifests},
    )
    elapsed = time.perf_counter() - tick
    store.save_ensemble(model, args.out, overwrite=args.force)
    for index, seconds in enumerate(model.train_seconds):
        start, stop = partition.ranges[index]
        print(f"  expert {index:4d} (places {start}..{stop - 1}): {seconds:.1f}s")
    print(f"trained {partition.n_regions} experts in {elapsed:.1f}s; archive: {args.out}")
    return 0


def cmd_regularize(args) -> int:
    cfg = _override(load_config(args.config), args)
    model = store.load_ensemble(args.model)
    reference, manifests, _ = _load_traverses(
        args.ref_dirs, "reference", cfg, (0, model.place_count)
    )
    _check_fingerprints(model, manifests)
    theta = args.theta if args.theta and args.theta > 0 else None
    ens.detect_hyperactive(model, reference, theta, cfg.effective_workers())
    store.save_ensemble(model, args.out or args.model, overwrite=True)
    flagged = sum(int(ex.hyperactive.sum()) for ex in model.experts)
    label = theta if theta is not None else "disabled"
    print(f"reference totals stored; theta={label}; {flagged} neurons flagged")
    return 0


def cmd_calibrate(args) -> int:
    cfg = _override(load_config(args.config), args)
    cfg.validate()
    start, stop = _parse_range(args.cal_range)
    plan = cal.CalibrationPlan(
        tau_gi_grid=tuple(args.tau_gi_grid) if args.tau_gi_grid else cfg.tau_gi_grid,
        theta_grid=tuple(args.theta_grid) if args.theta_grid else cfg.theta_grid,
        cal_start=start,
        cal_stop=stop,
    )
    plan.validate()
    cal_ref, _, ref_files = _load_traverses(args.ref_dirs, "calibration", cfg, (start, stop))
    cal_query, _, query_files = _load_traverses([args.query_dir], "calibration", cfg, (start, stop))
    report = cal.run_grid_search(
        plan, cal_ref, cal_query[0], np.arange(stop - start),
        cfg.expert, cfg.simulation, cfg.encoding, cfg.patch,
        cfg.seed, cfg.effective_workers(),
        files_read=tuple(ref_files + query_files),
    )
    os.makedirs(args.out_dir, exist_ok=True)
    report.write_csv(os.path.join(args.out_dir, "calibration.csv"))
    report.write_chosen_json(os.path.join(args.out_dir, "chosen.json"))
    print(f"best cell: tau_gi={report.chosen_tau_gi} theta={report.chosen_theta} "
          f"(P@100R={report.scores.max():.3f}); reports in {args.out_dir}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _override(load_config(args.config), args)
    model = store.load_ensemble(args.model)
    if not model.regularized:
        raise ConfigError("model has no reference totals: run `regularize` first")
    if args.params:
        with open(args.params) as fh:
            chosen = json.load(fh)
        theta = chosen.get("theta", model.theta)
        ens.apply_threshold(model, theta if theta and theta > 0 else None)
    elif args.theta is not None:
        ens.apply_threshold(model, args.theta if args.theta > 0 else None)
    queries, manifests, _ = _load_traverses(
        [args.query_dir], "query", cfg, (0, model.place_count)
    )
    truths = np.arange(model.place_count)
    tick = time.perf_counter()
    responses = ens.collect_query_responses(model, queries[0], cfg.effective_workers())
    mean_query_s = (time.perf_counter() - tick) / queries.shape[1]
    records = metrics.records_from_responses(model, responses, truths)
    precision_records, neuron_summary = metrics.neuron_precision_analysis(
        model, responses, truths
    )

    os.makedirs(args.report_dir, exist_ok=True)
    out = lambda name: os.path.join(args.report_dir, name)
    metrics.write_pr_curve_csv(out("pr_curve.csv"), metrics.pr_curve(records))
    ns = [n for n in (1, 5, 10, 15, 20, 25) if n <= model.place_count]
    metrics.write_recall_at_n_csv(out("recall_at_n.csv"), records, ns)
    metrics.write_neuron_precision_csv(out("neuron_precision.csv"), precision_records)
    metrics.write_scaling_csv(out("scaling.csv"), [(len(model.experts), mean_query_s)])
    p100 = metrics.precision_at_100_recall(records)
    summary = {
        "p_at_100r": p100,
        "recall_at_n": {str(n): metrics.recall_at_n(records, n) for n in ns},
        "n_queries": len(records),
        "theta": model.theta,
        "no_evidence_queries": sum(1 for r in records if not r.scores.any()),
        "neuron_precision": neuron_summary,
        "mean_query_seconds": mean_query_s,
    }
    metrics.write_summary_json(out("summary.json"), summary)
    print(f"P@100R = {p100:.4f} over {len(records)} queries; reports in {args.report_dir}")
    return 0


def cmd_match(args) -> int:
    cfg = _override(load_config(args.config), args)
    model = store.load_ensemble(args.model)
    query = _encoder_input(args.image, model.image_size, model.patch)
    result = ens.match_query(model, query, query_id=args.query_id)
    top = min(args.top, model.place_count)
    for rank in range(top):
        print(json.dumps({
            "rank": rank + 1,
            "place": int(result.place_ids[rank]),
            "score": int(result.scores[rank]),
            "no_evidence": result.no_evidence,
        }))
    return 0


def cmd_bench(args) -> int:
    cfg = _override(load_config(args.config), args)
    sizes = [int(s) for s in args.sizes.split(",") if s]
    if not sizes or any(s < 1 for s in sizes):
        raise ConfigError(f"invalid --sizes {args.sizes!r}")
    rows = ens.query_time_benchmark(
        sizes, n_excitatory=args.neurons or 100,
        image_size=cfg.image_size, n_queries=args.queries, seed=cfg.seed,
    )
    metrics.write_scaling_csv(args.out, rows)
    for n_experts, seconds in rows:
        print(f"N={n_experts:4d}  {seconds * 1e3:8.2f} ms/query")
    print(f"scaling table: {args.out}")
    return 0


def _parse_range(text: str) -> tuple[int, int]:
    try:
        start, stop = (int(p) for p in text.split(":"))
    except ValueError as exc:
        raise ConfigError(f"--cal-range must be START:STOP, got {text!r}") from exc
    if not 0 <= start < stop:
        raise ConfigError(f"empty calibration range {text!r}")
    return start, stop


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snnplace",
        description="Ensembles of compact spiking networks for place recognition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="global random seed")
        p.add_argument("--workers", type=int, help="worker processes (0 = all cores)")

    p = sub.add_parser("train", help="train an ensemble from reference traverses")
    common(p)
    p.add_argument("--ref-dirs", nargs="+", required=True, help="reference image directories")
    p.add_argument("--places", type=int, help="number of places (default: full traverse)")
    p.add_argument("--kappa", type=int, help="places per expert")
    p.add_argument("--neurons", type=int, help="excitatory neurons per expert")
    p.add_argument("--epochs", type=int, help="training epochs")
    p.add_argument("--out", required=True, help="output archive directory")
    p.add_argument("--force", action="store_true", help="overwrite an existing archive")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("regularize", help="compute reference totals and flag hyperactive neurons")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--ref-dirs", nargs="+", required=True)
    p.add_argument("--theta", type=float, required=True, help="threshold (0 disables filtering)")
    p.add_argument("--out", help="write to a new archive instead of updating in place")
    p.set_defaults(func=cmd_regularize)

    p = sub.add_parser("calibrate", help="grid-search tau_gi and theta on a calibration range")
    common(p)
    p.add_argument("--ref-dirs", nargs="+", required=True)
    p.add_argument("--query-dir", required=True)
    p.add_argument("--cal-range", required=True, help="calibration places as START:STOP")
    p.add_argument("--tau-gi-grid", type=float, nargs="+")
    p.add_argument("--theta-grid", type=float, nargs="+")
    p.add_argument("--kappa", type=int)
    p.add_argument("--neurons", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("evaluate", help="score a query traverse and write reports")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--query-dir", required=True)
    p.add_argument("--report-dir", required=True)
    p.add_argument("--theta", type=float, help="re-flag at this threshold before scoring")
    p.add_argument("--params", help="chosen.json from `calibrate`")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("match", help="match a single image and print ranked places")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--top", type=int, default=5)
    p.add_argument("--query-id", type=int, default=0)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("bench", help="measure query latency against synthetic ensembles")
    common(p)
    p.add_argument("--sizes", required=True, help="comma-separated expert counts")
    p.add_argument("--neurons", type=int, help="excitatory neurons per expert")
    p.add_argument("--queries", type=int, default=20)
    p.add_argument("--out", default="scaling.csv")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, IngestError, ArchiveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SnnPlaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
