"""Ensemble orchestration: disjoint regions, parallel experts, fused matching.

The reference place set is cut into contiguous, non-overlapping regions of
``places_per_expert`` places (the last region may be short).  One expert is
trained per region; experts share no state, so training jobs are
embarrassingly parallel and results are identical for any worker count.

After training, every expert is shown the *entire* reference set in
inference mode.  A neuron whose cumulative spike count reaches the
threshold responds to places far outside its own region and is flagged
hyperactive; flagged neurons are ignored when queries are matched.

Replaying the reference set and answering queries are one computation:
each image is encoded once and the train is fanned out to every expert,
which starts from rest in a freshly built network
(``collect_expert_responses``).  Batches run in parallel over contiguous
image chunks, so results never depend on the worker count.  Each place's
score is the summed response of the non-hyperactive neurons assigned to
it, and the ranking is the descending score order (ties toward the lowest
place id).
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, StateError
from .expert import (
    UNASSIGNED,
    ExpertConfig,
    ExpertModel,
    RegionData,
    expert_respond,
    query_seed,
    train_expert,
)
from .imaging import (
    STREAM_QUERY,
    STREAM_REFERENCE,
    EncodingConfig,
    PatchNormConfig,
    SpikeTrain,
    derive_seed,
    poisson_encode,
)
from .network import SimulationParams


@dataclass(frozen=True)
class Partition:
    """Contiguous, disjoint place ranges covering the full reference set."""

    ranges: tuple[tuple[int, int], ...]  # [start, stop) per region
    places_per_expert: int

    @property
    def n_regions(self) -> int:
        return len(self.ranges)


def partition_reference(place_count: int, places_per_expert: int) -> Partition:
    """Cut ``place_count`` places into regions of ``places_per_expert``."""
    if place_count < 1:
        raise ConfigError("place_count must be >= 1")
    if places_per_expert < 1:
        raise ConfigError("places_per_expert must be >= 1")
    starts = range(0, place_count, places_per_expert)
    ranges = tuple((s, min(s + places_per_expert, place_count)) for s in starts)
    return Partition(ranges=ranges, places_per_expert=places_per_expert)


@dataclass
class EnsembleModel:
    """Ordered experts plus the global place index and config snapshot."""

    experts: list[ExpertModel]
    place_count: int
    sim: SimulationParams
    encoding: EncodingConfig
    patch: PatchNormConfig
    image_size: tuple[int, int]          # (width, height)
    global_seed: int
    theta: float | None = None           # None: hyperactivity filter disabled
    regularized: bool = False            # reference totals computed
    expert_config: ExpertConfig | None = None
    dataset_fingerprints: dict = field(default_factory=dict)
    train_seconds: list = field(default_factory=list)  # per expert; not persisted

    def validate_tiling(self) -> None:
        expected = 0
        for ex in self.experts:
            if ex.global_start != expected:
                raise ConfigError("expert place ranges do not tile the reference set")
            expected += ex.n_places
        if expected != self.place_count:
            raise ConfigError(
                f"experts cover {expected} places, expected {self.place_count}"
            )


@dataclass(frozen=True)
class MatchResult:
    """Full descending ranking of global places for one query."""

    place_ids: np.ndarray   # all places, best first
    scores: np.ndarray      # summed non-hyperactive spike counts
    no_evidence: bool       # every neuron stayed silent

    @property
    def top(self) -> int:
        return int(self.place_ids[0])


def _train_one(args) -> tuple[int, ExpertModel, float]:
    index, region, cfg, sim, encoding = args
    tick = time.perf_counter()
    model, _ = train_expert(region, cfg, sim, encoding)
    return index, model, time.perf_counter() - tick


def train_ensemble(
    reference: np.ndarray,
    partition: Partition,
    expert_cfg: ExpertConfig,
    sim: SimulationParams,
    encoding: EncodingConfig,
    patch: PatchNormConfig,
    global_seed: int,
    workers: int = 1,
    dataset_fingerprints: dict | None = None,
) -> EnsembleModel:
    """Train all region experts; returns a pre-regularization ensemble.

    ``reference`` holds the encoder-ready reference images with shape
    (n_traverses, place_count, H, W).  Each expert derives its own seed
    from (global_seed, region index), so serial and parallel runs are
    bit-identical.
    """
    n_trav, place_count = reference.shape[0], reference.shape[1]
    if partition.ranges[-1][1] != place_count:
        raise ConfigError("partition does not match the reference place count")

    jobs = []
    for index, (start, stop) in enumerate(partition.ranges):
        region = RegionData(
            images=reference[:, start:stop],
            image_ids=np.arange(n_trav)[:, None] * place_count + np.arange(start, stop),
            global_start=start,
        )
        cfg = replace(
            expert_cfg,
            places_per_expert=partition.places_per_expert,
            seed=derive_seed(global_seed, index),
        )
        jobs.append((index, region, cfg, sim, encoding))

    results: dict[int, ExpertModel] = {}
    timings: dict[int, float] = {}
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for index, model, seconds in pool.map(_train_one, jobs):
                results[index] = model
                timings[index] = seconds
    else:
        for job in jobs:
            index, model, seconds = _train_one(job)
            results[index] = model
            timings[index] = seconds

    model = EnsembleModel(
        experts=[results[i] for i in range(len(jobs))],
        place_count=place_count,
        sim=sim,
        encoding=encoding,
        patch=patch,
        image_size=(reference.shape[3], reference.shape[2]),
        global_seed=global_seed,
        expert_config=expert_cfg,
        dataset_fingerprints=dataset_fingerprints or {},
        train_seconds=[timings[i] for i in range(len(jobs))],
    )
    model.validate_tiling()
    return model


def hyperactive_flags(totals: np.ndarray, theta: float) -> np.ndarray:
    """Literal threshold test: a neuron is hyperactive when total >= theta."""
    return np.asarray(totals) >= theta


def flags_for_theta(totals: np.ndarray, theta: float | None) -> np.ndarray:
    """Deployment semantics: theta None (or 0 at the CLI) disables the filter."""
    if theta is None or theta == 0:
        return np.zeros(len(totals), dtype=bool)
    return hyperactive_flags(totals, theta)


def detect_hyperactive(
    model: EnsembleModel,
    reference: np.ndarray,
    theta: float | None,
    workers: int = 1,
) -> EnsembleModel:
    """Present the whole reference set to every expert and flag hot neurons.

    ``reference`` has shape (n_traverses, place_count, H, W).  Each image is
    encoded once, with the seed of its id (traverse * place_count + place),
    and every expert answers it from rest; all traverses weigh equally.
    Workers sum the responses of contiguous image chunks.  Fills each
    expert's cumulative reference totals and sets the hyperactive flags for
    ``theta``.  Mutates and returns ``model``.
    """
    images = reference.reshape((-1,) + reference.shape[2:])
    totals = np.zeros((len(model.experts), model.experts[0].n_excitatory), dtype=np.int64)
    for part in _map_image_chunks(_chunk_totals, model, images, STREAM_REFERENCE, 0, workers):
        totals += part
    for expert, row in zip(model.experts, totals):
        expert.reference_totals = row
    model.regularized = True
    return apply_threshold(model, theta)


def apply_threshold(model: EnsembleModel, theta: float | None) -> EnsembleModel:
    """Re-flag hyperactive neurons from cached totals (no new simulation)."""
    if not model.regularized:
        raise StateError("reference totals missing: run detect_hyperactive first")
    for expert in model.experts:
        expert.hyperactive = flags_for_theta(expert.reference_totals, theta)
    model.theta = theta
    return model


def fuse_scores(
    model: EnsembleModel,
    per_expert_counts: list[np.ndarray] | np.ndarray,
    flags: list[np.ndarray] | None = None,
) -> MatchResult:
    """Reduce per-expert neuron responses into the global place ranking.

    Each assigned, non-hyperactive neuron contributes its spike count to
    its place's score.  ``flags`` overrides the experts' stored hyperactive
    flags (used by threshold sweeps over cached responses).
    """
    scores = np.zeros(model.place_count, dtype=np.int64)
    for i, expert in enumerate(model.experts):
        counts = np.asarray(per_expert_counts[i])
        flag = expert.hyperactive if flags is None else flags[i]
        keep = (expert.assignments != UNASSIGNED) & ~flag & (counts > 0)
        if keep.any():
            np.add.at(
                scores,
                expert.global_start + expert.assignments[keep],
                counts[keep],
            )
    order = np.lexsort((np.arange(model.place_count), -scores))
    return MatchResult(
        place_ids=order.astype(np.int64),
        scores=scores[order],
        no_evidence=not scores.any(),
    )


def collect_expert_responses(model: EnsembleModel, train: SpikeTrain) -> np.ndarray:
    """Present one train to every expert; rows are per-expert counts.

    The only place where frozen experts run: matching, query batches and
    the reference replay all come through here.
    """
    return np.stack(
        [expert_respond(ex, train, model.sim, model.encoding) for ex in model.experts]
    )


def match_spike_train(model: EnsembleModel, train: SpikeTrain) -> MatchResult:
    if not model.regularized:
        raise StateError("model is not regularized: run detect_hyperactive first")
    return fuse_scores(model, collect_expert_responses(model, train))


def match_query(model: EnsembleModel, query_unit: np.ndarray, query_id: int = 0) -> MatchResult:
    """Match one encoder-ready query image against the reference map.

    The query is encoded once with a seed derived from (global_seed,
    query_id) and fanned out to all experts.
    """
    train = poisson_encode(
        query_unit, model.encoding, query_seed(model.global_seed, query_id)
    )
    return match_spike_train(model, train)


def _image_responses(model: EnsembleModel, images: np.ndarray, stream: int, first_id: int):
    """Yield each image's (n_experts, K) responses, encoding it once.

    Image k is encoded with derive_seed(global_seed, stream, first_id + k),
    so a chunk reproduces exactly the trains of the whole batch.
    """
    for k, image in enumerate(images):
        seed = derive_seed(model.global_seed, stream, first_id + k)
        yield collect_expert_responses(model, poisson_encode(image, model.encoding, seed))


def _chunk_rows(args) -> np.ndarray:
    return np.stack(list(_image_responses(*args)))


def _chunk_totals(args) -> np.ndarray:
    return sum(_image_responses(*args))


def _map_image_chunks(reduce_chunk, model, images, stream, first_id, workers) -> list:
    """Apply ``reduce_chunk`` to ceil(n / workers) contiguous image chunks, in order."""
    chunk = max(1, -(-images.shape[0] // max(workers, 1)))
    jobs = [
        (model, images[s:s + chunk], stream, first_id + s)
        for s in range(0, images.shape[0], chunk)
    ]
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(reduce_chunk, jobs))
    return [reduce_chunk(job) for job in jobs]


def collect_query_responses(
    model: EnsembleModel,
    queries: np.ndarray,
    workers: int = 1,
    query_id_base: int = 0,
) -> np.ndarray:
    """Raw per-neuron responses for a query batch: (n_queries, n_experts, K_E).

    Query k is encoded once, with ``query_seed(global_seed, query_id_base +
    k)``, and every expert answers it from rest, exactly as ``match_query``
    does; workers take contiguous chunks of queries.  This is the expensive
    half of evaluation; rankings for any threshold can then be recomputed
    from the cache without re-simulating.
    """
    if queries.shape[0] == 0:
        return np.zeros((0, len(model.experts), 0), dtype=np.int64)
    parts = _map_image_chunks(_chunk_rows, model, queries, STREAM_QUERY, query_id_base, workers)
    return np.concatenate(parts)


def query_time_benchmark(
    sizes: list[int],
    n_excitatory: int = 100,
    image_size: tuple[int, int] = (28, 28),
    n_queries: int = 20,
    seed: int = 0,
) -> list[tuple[int, float]]:
    """Mean wall time per query against synthetic ensembles of each size.

    Experts are frozen random networks; queries are random textures.  Runs
    in single-worker mode so the totals scale with the serial work.
    """
    from .synthetic import make_textures, synthetic_ensemble

    rows = []
    for n_experts in sizes:
        model = synthetic_ensemble(
            n_experts, n_excitatory=n_excitatory, image_size=image_size, seed=seed
        )
        queries = make_textures(n_queries, image_size, derive_seed(seed, 1))
        start = time.perf_counter()
        for k in range(n_queries):
            match_query(model, queries[k], query_id=k)
        elapsed = time.perf_counter() - start
        rows.append((n_experts, elapsed / n_queries))
    return rows
