"""Operator entry points: train, regularize, calibrate, evaluate, match.

All tunables live in one JSON config file, the JSON form of
``config.RunConfig``; a file names only the values it changes.  Each
config flag sets the key it names (``--kappa`` sets
``expert.places_per_expert``), and the defaults, the file and the flags
are decoded once, together, so a flag's bad value gets the file's error.
Commands that read an archive preprocess images with the archive's image
size and patch grid.  The hyperactivity threshold theta is given per
command (``--theta``, or ``--params chosen.json``) and follows the one
rule of ``ensemble.flags_for_theta``.  Exit codes: 0 success, 1 runtime
failure, 2 configuration, ingest or archive error.  Every command is
deterministic given the same inputs, seed, and config, independent of the
worker count.
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
from .config import RunConfig, from_json, to_json
from .errors import ArchiveError, ConfigError, IngestError, SnnPlaceError
from .imaging import PatchNormConfig, load_and_resize, patch_normalize, rescale_unit


def _read_json_object(path: str, what: str) -> dict:
    """Parse a JSON file holding one object.

    An unreadable file raises ``IngestError``; bad JSON or a value that is
    not an object raises ``ConfigError``.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise IngestError(f"cannot read {what} {path!r}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{what} {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{what} {path!r} must hold a JSON object")
    return data


def load_config(path: str | None) -> RunConfig:
    """Read the JSON config file: the values it names, laid over the defaults."""
    return _run_config(argparse.Namespace(config=path))


def _overlay(base: dict, data: dict) -> dict:
    """``base`` with ``data`` laid over it; objects in both are merged key by key."""
    merged = dict(base)
    for key, value in data.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            value = _overlay(base[key], value)
        merged[key] = value
    return merged


def _run_config(args: argparse.Namespace) -> RunConfig:
    """The command's config: the defaults, then the ``--config`` file, then its flags.

    A config flag's dest is ``config.<key path>``, the key it sets, and all
    three layers are decoded once, so a flag's value is checked, and named
    in an error, as the same value in the file is.
    """
    data = to_json(RunConfig())
    if args.config is not None:
        data = _overlay(data, _read_json_object(args.config, "config"))
    for dest, value in vars(args).items():
        if value is None or not dest.startswith("config."):
            continue
        *sections, key = dest.split(".")[1:]
        owner = data
        for name in sections:
            owner = owner.get(name) if isinstance(owner, dict) else None
        if isinstance(owner, dict):  # else the file's section is no object, as decoding says
            owner[key] = value
    return from_json(RunConfig, data, "config")


def _encoder_input(path, size: tuple[int, int], patch: PatchNormConfig) -> np.ndarray:
    """Load one image file and run the encoder-input chain on it."""
    # Module globals, not imaging.preprocess_for_encoding: bench/tracing.py wraps these names.
    return rescale_unit(patch_normalize(load_and_resize(path, size), patch))


def _load_traverses(dirs, source, place_range=None):
    """Scan and load traverse directories into an encoder-ready array.

    ``source`` gives the image size and patch grid: the run config for a new
    model, the loaded model (``EnsembleModel``) for one read from an archive.
    Returns (images (n_trav, places, H, W), manifests).
    """
    manifests = [store.scan_traverse(d) for d in dirs]
    counts = {m.place_count for m in manifests}
    if place_range is None:
        n_places = min(counts)
        place_range = (0, n_places)
    start, stop = place_range
    if any(c < stop for c in counts):
        raise IngestError(
            f"traverses hold fewer than {stop} places: {sorted(counts)}"
        )
    width, height = source.image_size
    images = np.empty((len(manifests), stop - start, height, width))
    for t, manifest in enumerate(manifests):
        for k, path in enumerate(manifest.paths()[start:stop]):
            images[t, k] = _encoder_input(path, source.image_size, source.patch)
    return images, manifests


def _check_fingerprints(model: ens.EnsembleModel, manifests) -> None:
    for manifest in manifests:
        stored = model.dataset_fingerprints.get(manifest.name)
        if stored is not None and stored != manifest.fingerprint:
            raise IngestError(
                f"traverse {manifest.name!r} does not match the data this model "
                "was trained on (content fingerprint differs)"
            )


def _check_output_dir(path: str) -> None:
    """Refuse, before any work, a directory that ``os.makedirs`` could not make.

    It is made only when there is something to write, so a failed command leaves none.
    """
    existing = os.path.abspath(path)
    while not os.path.lexists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigError(f"cannot make directory {path!r}: {existing!r} is not a directory")


def _load_regularized(path: str) -> ens.EnsembleModel:
    """The archive at ``path``, which must hold reference totals to be queried."""
    model = store.load_ensemble(path)
    if not model.regularized:
        raise ConfigError("model has no reference totals: run `regularize` first")
    return model


def cmd_train(args) -> int:
    cfg = _run_config(args)
    if args.places is not None and args.places < 1:
        raise ConfigError(f"--places must be >= 1, got {args.places}")
    store.check_archive_target(args.out, overwrite=args.force)
    place_range = None if args.places is None else (0, args.places)
    reference, manifests = _load_traverses(args.ref_dirs, cfg, place_range)
    partition = ens.plan_regions(reference.shape, cfg.expert)
    print(f"training {partition.n_regions} experts on {reference.shape[1]} places "
          f"({reference.shape[0]} traverse(s), workers={cfg.effective_workers()})")
    tick = time.perf_counter()
    model = ens.train_ensemble(
        reference, cfg.expert, cfg.simulation, cfg.encoding, cfg.patch,
        cfg.seed, cfg.effective_workers(),
        dataset_fingerprints={m.name: m.fingerprint for m in manifests},
    )
    elapsed = time.perf_counter() - tick
    store.save_ensemble(model, args.out, overwrite=args.force)
    print(f"trained {partition.n_regions} experts in {elapsed:.1f}s; archive: {args.out}")
    return 0


def cmd_regularize(args) -> int:
    cfg = _run_config(args)
    out = args.out or args.model
    in_place = os.path.realpath(out) == os.path.realpath(args.model)
    store.check_archive_target(out, overwrite=in_place)  # an existing other --out is refused
    model = store.load_ensemble(args.model)
    reference, manifests = _load_traverses(args.ref_dirs, model, (0, model.place_count))
    _check_fingerprints(model, manifests)
    ens.detect_hyperactive(model, reference, args.theta, cfg.effective_workers())
    store.save_ensemble(model, out, overwrite=True)
    flagged = int(model.hyperactive.sum())
    print(f"reference totals stored; theta={model.theta or 'disabled'}; {flagged} neurons flagged")
    return 0


def cmd_calibrate(args) -> int:
    cfg = _run_config(args)
    start, stop = _parse_range(args.cal_range)
    _check_output_dir(args.out_dir)
    cal_ref, _ = _load_traverses(args.ref_dirs, cfg, (start, stop))
    cal_query, _ = _load_traverses([args.query_dir], cfg, (start, stop))
    report = cal.run_grid_search(
        cfg.calibration, cal_ref, cal_query[0],
        cfg.expert, cfg.simulation, cfg.encoding, cfg.patch,
        cfg.seed, cfg.effective_workers(),
    )
    os.makedirs(args.out_dir, exist_ok=True)
    report.write_csv(os.path.join(args.out_dir, "calibration.csv"))
    report.write_chosen_json(os.path.join(args.out_dir, "chosen.json"))
    chosen = dataclasses.replace(cfg, simulation=cfg.simulation.with_tau_gi(report.chosen_tau_gi))
    with open(os.path.join(args.out_dir, "config.json"), "w") as fh:
        json.dump(to_json(chosen), fh, indent=1)
        fh.write("\n")
    print(f"best cell: tau_gi={report.chosen_tau_gi} theta={report.chosen_theta} "
          f"(P@100R={report.scores.max():.3f}); reports in {args.out_dir}")
    return 0


def cmd_evaluate(args) -> int:
    if args.params and args.theta is not None:
        raise ConfigError("give --theta or --params, not both")
    cfg = _run_config(args)
    _check_output_dir(args.report_dir)
    model = _load_regularized(args.model)
    if args.params:
        chosen = _read_json_object(args.params, "params file")
        ens.apply_threshold(model, chosen.get("theta", model.theta))
    elif args.theta is not None:
        ens.apply_threshold(model, args.theta)
    queries, _ = _load_traverses([args.query_dir], model, (0, model.place_count))
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
    p100 = metrics.precision_at_100_recall(records)
    summary = {
        "p_at_100r": p100,
        "recall_at_n": {str(n): metrics.recall_at_n(records, n) for n in ns},
        "n_queries": len(records),
        "theta": model.theta,
        "no_evidence_queries": sum(r.no_evidence for r in records),
        "neuron_precision": neuron_summary,
        "mean_query_seconds": mean_query_s,
    }
    metrics.write_json(out("summary.json"), summary)
    print(f"P@100R = {p100:.4f} over {len(records)} queries; reports in {args.report_dir}")
    return 0


def cmd_match(args) -> int:
    if args.top < 1:
        raise ConfigError(f"--top must be >= 1, got {args.top}")
    if args.query_id < 0:
        raise ConfigError(f"--query-id must be >= 0, got {args.query_id}")
    model = _load_regularized(args.model)
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

    def config_flag(p, flag, key, **kwargs):
        """``flag`` sets the config key ``key`` (``_run_config``)."""
        metavar = flag[2:].upper().replace("-", "_")
        p.add_argument(flag, dest=f"config.{key}", metavar=metavar, **kwargs)

    def common(p, seed=True):
        p.add_argument("--config", help="JSON config file")
        if seed:
            config_flag(p, "--seed", "seed", type=int, help="global random seed")
        config_flag(p, "--workers", "workers", type=int,
                    help="worker processes (0 = every usable core; capped at them)")

    def expert_flags(p):
        config_flag(p, "--kappa", "expert.places_per_expert", type=int, help="places per expert")
        config_flag(p, "--neurons", "expert.n_excitatory", type=int,
                    help="excitatory neurons per expert")
        config_flag(p, "--epochs", "expert.epochs", type=int, help="training epochs")

    p = sub.add_parser("train", help="train an ensemble from reference traverses")
    common(p)
    p.add_argument("--ref-dirs", nargs="+", required=True, help="reference image directories")
    p.add_argument("--places", type=int, help="number of places (default: full traverse)")
    expert_flags(p)
    p.add_argument("--out", required=True, help="output archive directory")
    p.add_argument("--force", action="store_true", help="overwrite an existing archive")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("regularize", help="compute reference totals and flag hyperactive neurons")
    common(p, seed=False)
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
    config_flag(p, "--tau-gi-grid", "calibration.tau_gi_grid", type=float, nargs="+")
    config_flag(p, "--theta-grid", "calibration.theta_grid", type=float, nargs="+")
    expert_flags(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("evaluate", help="score a query traverse and write reports")
    common(p, seed=False)
    p.add_argument("--model", required=True)
    p.add_argument("--query-dir", required=True)
    p.add_argument("--report-dir", required=True)
    p.add_argument("--theta", type=float, help="re-flag at this threshold before scoring")
    p.add_argument("--params", help="chosen.json from `calibrate` (not with --theta)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("match", help="match a single image and print ranked places")
    p.add_argument("--model", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--top", type=int, default=5)
    p.add_argument("--query-id", type=int, default=0)
    p.set_defaults(func=cmd_match)
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
