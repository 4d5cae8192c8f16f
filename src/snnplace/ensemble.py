"""Ensemble orchestration: disjoint regions, parallel experts, fused matching.

The reference place set is cut into contiguous, non-overlapping regions of
``places_per_expert`` places (the last region may be short).  One expert is
trained per region, with the region's seed; experts share no state, so each
worker trains a contiguous chunk of them, in groups that step through every
presentation together (``train_experts``), and results are identical for
any worker count or group size.

After training, every expert is shown the *entire* reference set in
inference mode.  A neuron whose cumulative spike count reaches the
threshold responds to places far outside its own region and is flagged
hyperactive; flagged neurons are ignored when queries are matched.

The ensemble owns every per-expert array as one table (``EnsembleModel``),
which inference, detection and matching read as it is; an expert is a
frozen view of its column and rows, so an edit of its arrays is what
inference sees.  Training and loading fill the tables, the constructor
alone checks them, and what they determine (the place count, region
starts and hyperactive flags) is computed on each read, never stored.

Replaying the reference set and answering queries are one computation:
each image is encoded once and binned to simulation steps, and blocks of
images are fanned out to every expert; all (image, expert) pairs start from
rest and step in lockstep through one network (``expert_respond``), and a
single query is a batch of one image.  A block holds ``max(1, BLOCK_STATE
// (N * K))`` images, so its state stays small; at paper scale it is one
image.  How a block reads its input spikes is ``ExpertNetwork.present``'s
rule, and every read gives the same bits.  Batches run in parallel over
contiguous image chunks, so results never depend on the worker count or
the block size.  Each place's score is the summed response of the
non-hyperactive neurons that vote for it in ``neuron_places``, and the
ranking is the descending score order (ties toward the lowest place id);
``fuse_scores`` ranks a batch of queries on one read of the vote table,
and a single query is a batch of one.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, StateError
from .expert import (
    UNASSIGNED,
    ExpertConfig,
    ExpertModel,
    RegionData,
    expert_respond,
    train_expert,  # noqa: F401  (bench/tracing.py looks up and wraps this name)
    train_experts,
)
from .imaging import (
    STREAM_QUERY,
    STREAM_REFERENCE,
    EncodingConfig,
    PatchNormConfig,
    derive_seed,
    poisson_encode,
)
from .network import SimulationParams, bin_train, check_presentation_steps

# State elements (images x experts x neurons) one inference block may hold.
BLOCK_STATE = 20_000

# Bytes an ensemble's float32 weight stack may take, width x height x
# ceil(places / kappa) x n_excitatory x 4: 4 GiB, where paper scale takes 166 MB.
MAX_STACK_BYTES = 4 * 2**30


def partition_reference(place_count: int, places_per_expert: int) -> tuple[tuple[int, int], ...]:
    """Cut ``place_count`` places into [start, stop) regions of ``places_per_expert``."""
    if place_count < 1:
        raise ConfigError("place_count must be >= 1")
    if places_per_expert < 1:
        raise ConfigError("places_per_expert must be >= 1")
    starts = range(0, place_count, places_per_expert)
    return tuple((s, min(s + places_per_expert, place_count)) for s in starts)


@dataclass(eq=False)
class EnsembleModel:
    """One table per per-expert field, plus the config snapshot.

    Expert i owns column i of the (inputs, N, K) float32 ``weights`` and
    row i of every other table; ``experts`` views them.  Construction alone
    states what valid tables are, and refuses any others.  ``==`` is
    identity: two models of equal arrays are still two models.
    """

    weights: np.ndarray = field(repr=False)
    thresholds: np.ndarray               # adaptive-threshold snapshots, mV
    assignments: np.ndarray              # local place per neuron, UNASSIGNED if silent
    region_places: np.ndarray            # places in each region, in place order
    sim: SimulationParams
    encoding: EncodingConfig
    patch: PatchNormConfig
    image_size: tuple[int, int]          # (width, height)
    global_seed: int
    theta: float | None = None           # None: hyperactivity filter disabled
    regularized: bool = False            # reference totals computed
    expert_config: ExpertConfig | None = None
    dataset_fingerprints: dict = field(default_factory=dict)
    reference_totals: np.ndarray | None = None  # zeros until regularization

    def __post_init__(self) -> None:
        neurons = self.weights.shape[1:]
        if self.reference_totals is None:
            self.reference_totals = np.zeros(neurons, dtype=np.int64)
        tables = (self.thresholds, self.assignments, self.reference_totals)
        if not (self.weights.dtype == np.float32 and len(neurons) == 2
                and all(np.shape(t) == neurons for t in tables)
                and np.shape(self.region_places) == neurons[:1]):
            raise ValueError("tables disagree in shape with the (inputs, N, K) float32 weights")
        width, height = self.image_size
        if width * height != self.weights.shape[0]:
            raise ConfigError(f"image size {width}x{height} needs {width * height} inputs, "
                              f"the weights have {self.weights.shape[0]}")
        check_presentation_steps(self.encoding, self.sim)
        flags_for_theta((), self.theta)  # ConfigError for a bad theta
        if not neurons[0]:
            raise ConfigError("an ensemble holds at least one expert")
        for i, places in enumerate(self.region_places.tolist()):
            if places < 1:
                raise ConfigError(f"expert {i} holds {places} places; a region holds at least one")
            # One expert's column at a time: no temporary the size of the stack.
            finite = np.isfinite(self.thresholds[i]).all() and np.isfinite(self.weights[:, i]).all()
            if not finite:
                raise ConfigError(f"expert {i} holds non-finite thresholds or weights")
            if ((self.assignments[i] < UNASSIGNED) | (self.assignments[i] >= places)).any():
                raise ConfigError(
                    f"expert {i} assigns a neuron outside its places [{UNASSIGNED}, {places})"
                )

    @property
    def place_count(self) -> int:
        """Places the regions cover: the size of the reference set."""
        return int(self.region_places.sum())

    @property
    def global_starts(self) -> np.ndarray:
        """First global place of each region: the sum of the region sizes before it."""
        return np.cumsum(self.region_places) - self.region_places

    @property
    def hyperactive(self) -> np.ndarray:
        """The (N, K) flags ``theta`` gives the reference totals (``flags_for_theta``)."""
        return flags_for_theta(self.reference_totals, self.theta)

    @property
    def experts(self) -> tuple[ExpertModel, ...]:
        """One frozen view per expert: column i of ``weights`` and row i of every table."""
        regions = zip(self.global_starts.tolist(), self.region_places.tolist(), self.hyperactive)
        return tuple(
            ExpertModel(self.weights[:, i], self.thresholds[i], self.assignments[i], start,
                        places, self.reference_totals[i], flags)
            for i, (start, places, flags) in enumerate(regions)
        )


@dataclass(frozen=True)
class MatchResult:
    """Full descending ranking of global places for one query."""

    place_ids: np.ndarray   # all places, best first
    scores: np.ndarray      # summed non-hyperactive spike counts
    truth: int | None = None  # the query's true place, when it is known

    @property
    def top(self) -> int:
        return int(self.place_ids[0])

    @property
    def no_evidence(self) -> bool:
        """Every neuron that counts stayed silent."""
        return not self.scores.any()

    @property
    def correct(self) -> bool:
        return self.top == self.truth

    @property
    def confidence(self) -> float:
        """Winning place's summed spike count (the only available magnitude)."""
        return float(self.scores[0])


def _train_chunk(job) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return train_experts(*job)[:3]


def plan_regions(
    reference_shape: tuple[int, ...], expert_cfg: ExpertConfig
) -> tuple[tuple[int, int], ...]:
    """The regions ``train_ensemble`` cuts a (traverses, places, H, W) reference into.

    Their float32 weight stack takes width x height x regions x
    n_excitatory x 4 bytes; above ``MAX_STACK_BYTES`` it raises ``ConfigError``.
    """
    _, place_count, height, width = reference_shape
    ranges = partition_reference(place_count, expert_cfg.places_per_expert)
    stack_bytes = width * height * len(ranges) * expert_cfg.n_excitatory * 4
    if stack_bytes > MAX_STACK_BYTES:
        raise ConfigError(
            f"{len(ranges)} experts of {expert_cfg.n_excitatory} neurons on "
            f"{width}x{height} images need a {stack_bytes}-byte weight stack, "
            f"more than {MAX_STACK_BYTES}"
        )
    return ranges


def train_ensemble(
    reference: np.ndarray,
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
    (n_traverses, place_count, H, W); its places are cut into regions of
    ``expert_cfg.places_per_expert``.  Each region's seed derives from
    (global_seed, region index), and workers train contiguous chunks of
    experts in groups, so serial, parallel and grouped runs are
    bit-identical; a lone chunk's tables are the ensemble's.  A stack above
    ``MAX_STACK_BYTES`` is refused before any expert trains
    (``plan_regions``).
    """
    n_trav, place_count, height, width = reference.shape
    ranges = plan_regions(reference.shape, expert_cfg)
    regions = [
        RegionData(
            images=reference[:, start:stop],
            image_ids=np.arange(n_trav)[:, None] * place_count + np.arange(start, stop),
            global_start=start,
            seed=derive_seed(global_seed, index),
        )
        for index, (start, stop) in enumerate(ranges)
    ]
    jobs = [(regions[part], expert_cfg, sim, encoding) for part in _chunks(len(regions), workers)]
    weights, thresholds, assignments = zip(*_ordered_map(_train_chunk, jobs, workers))
    return EnsembleModel(
        weights=weights[0] if len(weights) == 1 else np.concatenate(weights, axis=1),
        thresholds=np.concatenate(thresholds),
        assignments=np.concatenate(assignments),
        region_places=np.array([stop - start for start, stop in ranges], dtype=np.int64),
        sim=sim,
        encoding=encoding,
        patch=patch,
        image_size=(width, height),
        global_seed=global_seed,
        expert_config=expert_cfg,
        dataset_fingerprints=dataset_fingerprints or {},
    )


def flags_for_theta(totals, theta) -> np.ndarray:
    """The hyperactivity rule: flag every neuron whose reference total is >= theta.

    The flags have the shape of ``totals``.  None or 0 disables the filter;
    any other theta must be a finite number > 0.
    """
    real = isinstance(theta, numbers.Real) and not isinstance(theta, bool)
    if theta is None or (real and theta == 0):
        return np.zeros(np.shape(totals), dtype=bool)
    if not (real and 0 < theta <= sys.float_info.max):  # exact for ints of any size
        raise ConfigError(f"theta must be 0 (filter off) or a finite number > 0, not {theta!r}")
    return np.asarray(totals) >= theta


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
    expert's cumulative reference totals and sets ``theta``, whose flags
    the model then reports.  Mutates and returns ``model``.
    """
    flags_for_theta((), theta)  # reject a bad theta before the replay
    images = reference.reshape((-1,) + reference.shape[2:])
    totals = np.zeros(model.weights.shape[1:], dtype=np.int64)
    for part in _map_image_chunks(_chunk_totals, model, images, STREAM_REFERENCE, 0, workers):
        totals += part
    model.reference_totals = totals
    model.regularized = True
    return apply_threshold(model, theta)


def apply_threshold(model: EnsembleModel, theta: float | None) -> EnsembleModel:
    """Set the theta that flags neurons from cached totals; the only writer of ``model.theta``."""
    if not model.regularized:
        raise StateError("reference totals missing: run detect_hyperactive first")
    flags_for_theta((), theta)  # reject a bad theta before it is stored
    model.theta = theta or None  # theta passed flags_for_theta: None when the filter is off
    return model


def neuron_places(model: EnsembleModel) -> np.ndarray:
    """The (N, K) int64 global place each neuron votes for, UNASSIGNED where it has none.

    Neuron e of expert i votes for place ``global_start + assignments[e]``,
    the place it answered most in training.  Built on each call from the
    ``assignments`` and ``region_places`` tables as they are now.
    """
    local = model.assignments
    return np.where(local == UNASSIGNED, UNASSIGNED, local + model.global_starts[:, None])


def fuse_scores(
    model: EnsembleModel,
    responses: np.ndarray | list,
    flags: list[np.ndarray] | np.ndarray | None = None,
) -> list[MatchResult]:
    """Reduce each query's (N, K) neuron responses into its global place ranking.

    ``responses`` is a batch, (queries, N, K) or a list of per-query
    responses; a single query is a batch of one.  Each assigned,
    non-hyperactive neuron adds its spike count to its place in the vote
    table (``neuron_places``), which is read once per batch, with the
    flags.  ``flags``, a per-expert list or an (N, K) array, overrides the
    flags of the model's theta (used by threshold sweeps over cached
    responses).
    """
    flags = model.hyperactive if flags is None else flags
    votes = np.where(np.asarray(flags), UNASSIGNED, neuron_places(model))
    voting = votes != UNASSIGNED
    ids = np.arange(model.place_count)
    results = []
    for counts in responses:
        counts = np.asarray(counts)
        keep = voting & (counts > 0)
        scores = np.zeros(model.place_count, dtype=np.int64)
        np.add.at(scores, votes[keep], counts[keep])
        order = np.lexsort((ids, -scores))
        results.append(MatchResult(place_ids=order.astype(np.int64), scores=scores[order]))
    return results


def match_query(model: EnsembleModel, query_unit: np.ndarray, query_id: int = 0) -> MatchResult:
    """Match one encoder-ready query image against the reference map.

    The query is a batch of one image: it is encoded once, with
    derive_seed(global_seed, STREAM_QUERY, query_id), every expert
    answers it from rest, exactly as in ``collect_query_responses``, and
    its responses are ranked as a batch of one.
    """
    if not model.regularized:
        raise StateError("model is not regularized: run detect_hyperactive first")
    (rows,) = _image_responses(model, np.asarray(query_unit)[None], STREAM_QUERY, query_id)
    return fuse_scores(model, rows)[0]


def _image_responses(model: EnsembleModel, images: np.ndarray, stream: int, first_id: int):
    """Yield the (B, n_experts, K) responses of each block of images.

    Image k is encoded once, with derive_seed(global_seed, stream, first_id
    + k), so a chunk reproduces exactly the trains of the whole batch.  Each
    train is binned as soon as it is drawn, and only the binned form waits
    for its block.
    """
    block = max(1, BLOCK_STATE // model.thresholds.size)
    for start in range(0, len(images), block):
        trains = [
            bin_train(poisson_encode(
                image, model.encoding, derive_seed(model.global_seed, stream, first_id + k)
            ), model.sim.dt_ms)
            for k, image in enumerate(images[start:start + block], start)
        ]
        yield expert_respond(model.weights, model.thresholds, trains, model.sim, model.encoding)


def _chunk_rows(args) -> np.ndarray:
    return np.concatenate(list(_image_responses(*args)))


def _chunk_totals(args) -> np.ndarray:
    return sum(rows.sum(axis=0) for rows in _image_responses(*args))


def _ordered_map(fn, jobs: list, workers: int) -> list:
    """``[fn(job) for job in jobs]``, over a process pool when workers > 1.

    The pool's modules are imported only then: a one-worker run never loads them.
    """
    if workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            return list(pool.map(fn, jobs))
    return [fn(job) for job in jobs]


def _chunks(n: int, workers: int) -> list[slice]:
    """ceil(n / workers)-sized contiguous slices that cover range(n) in order."""
    size = max(1, -(-n // max(workers, 1)))
    return [slice(s, s + size) for s in range(0, n, size)]


def _map_image_chunks(reduce_chunk, model, images, stream, first_id, workers) -> list:
    """Apply ``reduce_chunk`` to ceil(n / workers) contiguous image chunks, in order."""
    jobs = [
        (model, images[part], stream, first_id + part.start)
        for part in _chunks(images.shape[0], workers)
    ]
    return _ordered_map(reduce_chunk, jobs, workers)


def collect_query_responses(
    model: EnsembleModel,
    queries: np.ndarray,
    workers: int = 1,
    query_id_base: int = 0,
) -> np.ndarray:
    """Raw per-neuron responses for a query batch: (n_queries, n_experts, K_E).

    Query k is encoded once, with derive_seed(global_seed, STREAM_QUERY,
    query_id_base + k), and every expert answers it from rest, as in
    ``match_query``; workers take contiguous chunks of queries.  This is the expensive
    half of evaluation; rankings for any threshold can then be recomputed
    from the cache without re-simulating.
    """
    if queries.shape[0] == 0:
        return np.zeros((0,) + model.weights.shape[1:], dtype=np.int64)
    parts = _map_image_chunks(_chunk_rows, model, queries, STREAM_QUERY, query_id_base, workers)
    return np.concatenate(parts)
