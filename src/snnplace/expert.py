"""Training and querying of one compact region expert.

An expert sees only the places of its own contiguous region.  Training
presents every reference image of the region for a fixed number of epochs
with plasticity on, records per-neuron spike counts over the trailing
epochs, and then freezes the weights and adaptive thresholds.  Each neuron
is afterwards assigned to the place it responded to most; neurons that
never fired stay unassigned and are excluded from matching.

Experts share one architecture and schedule; regions of the same shape learn
in groups that share one step loop (``train_experts``), which returns the
ensemble's tables; each expert ends bit for bit as it would alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_ranges, ranged
from .imaging import (
    STREAM_TRAINING,
    STREAM_WEIGHT_INIT,
    EncodingConfig,
    SpikeTrain,
    derive_seed,
)
from .network import (
    BinnedTrain,
    ExpertNetwork,
    SimulationParams,
    SynapseMatrix,
    normalize_columns,
)

UNASSIGNED = -1

# Experts one learning group may hold: 32 x 785 x 400 float64 weights are 80 MB.
GROUP_SIZE = 32


@dataclass(frozen=True)
class ExpertConfig:
    """Architecture and schedule of every expert; its input count is the image's pixels."""

    # config.MAX_GROUP_WEIGHT_BYTES bounds n_excitatory above, and n_excitatory bounds
    # places_per_expert; the epochs only count presentations.
    n_excitatory: int = ranged(1, math.inf, default=400)
    places_per_expert: int = ranged(1, math.inf, default=25)
    epochs: int = ranged(1, math.inf, default=60)
    record_last_epochs: int = ranged(1, math.inf, default=10)  # at most epochs

    def __post_init__(self) -> None:
        check_ranges(self)
        if self.n_excitatory < self.places_per_expert:
            raise ConfigError(
                "n_excitatory must be >= places_per_expert "
                f"({self.n_excitatory} < {self.places_per_expert})"
            )
        if self.record_last_epochs > self.epochs:
            raise ConfigError("need epochs >= record_last_epochs")


@dataclass
class RegionData:
    """Reference images of one region, ready for the encoder, and its seed.

    ``images`` has shape (n_traverses, n_places, H, W) with intensities in
    [0, 1] (already resized, patch-normalized, and unit-rescaled);
    ``image_ids`` are globally unique per (traverse, place) and seed the
    encoder so that results do not depend on scheduling.  ``seed`` seeds
    the expert's initial weights and its training trains.
    """

    images: np.ndarray
    image_ids: np.ndarray
    global_start: int = 0
    seed: int = 0

    @property
    def n_places(self) -> int:
        return self.images.shape[1]


@dataclass(frozen=True)
class ExpertModel:
    """One trained, frozen region expert.

    In an ensemble it is a view of its column of ``EnsembleModel.weights``
    and its row of every other table: an in-place edit of its arrays (not of
    its computed flags) edits the ensemble, and its fields cannot be rebound.
    """

    weights: np.ndarray            # (n_inputs, n_excitatory) float32, frozen
    theta: np.ndarray              # adaptive-threshold snapshot, mV
    assignments: np.ndarray        # local place id per neuron, UNASSIGNED if silent
    global_start: int              # first global place id of the region
    n_places: int                  # places in the region (L)
    reference_totals: np.ndarray | None = None  # in an ensemble: filled by regularization
    hyperactive: np.ndarray | None = None       # in an ensemble: flags at its threshold

    def build_network(self, sim: SimulationParams, encoding: EncodingConfig) -> ExpertNetwork:
        """Instantiate this expert alone as a canonical inference network.

        The one-expert reference for ``expert_respond``, which runs frozen
        experts in lockstep instead of building one network each.
        """
        syn = SynapseMatrix(self.weights.astype(np.float64))
        return ExpertNetwork(syn, sim, encoding, theta=self.theta)


def train_expert(
    region: RegionData,
    cfg: ExpertConfig,
    sim: SimulationParams,
    encoding: EncodingConfig,
) -> tuple[ExpertModel, np.ndarray]:
    """Train one expert on its region; return the model and the spike table.

    Every epoch presents the region's places in order, alternating the
    traverses of each place, with plasticity on throughout.  The returned
    table S[e, l] sums neuron e's spike counts on place l over the trailing
    ``record_last_epochs`` epochs (recording piggybacks on training).
    """
    weights, thresholds, assignments, (table,) = train_experts([region], cfg, sim, encoding)
    row = weights[:, 0], thresholds[0], assignments[0], region.global_start, region.n_places
    return ExpertModel(*row), table


def train_experts(
    regions: list[RegionData],
    cfg: ExpertConfig,
    sim: SimulationParams,
    encoding: EncodingConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]:
    """The (inputs, N, K) float32 weights, (N, K) thresholds and assignments, and spike tables.

    Expert i's rows equal what ``train_expert`` gives region i alone.
    Consecutive regions of the same shape learn in groups of up to
    ``GROUP_SIZE`` that step through each presentation together, whatever
    the expert size: ``ExpertNetwork.present`` reads a group of one-neuron
    experts column by column, so each sums its lone column as it does alone.
    """
    weights = thresholds = None
    tables = []
    for _, run in itertools.groupby(regions, key=lambda region: region.images.shape):
        run = list(run)
        for start in range(0, len(run), GROUP_SIZE):
            w, theta, counts = _train_group(run[start:start + GROUP_SIZE], cfg, sim, encoding)
            if weights is None:  # after the first group has trained: a lower peak
                weights = np.empty((w.shape[1], len(regions), w.shape[2]), dtype=np.float32)
                thresholds = np.empty(weights.shape[1:])
            rows = slice(len(tables), len(tables) + len(w))
            weights[:, rows] = w.transpose(1, 0, 2)
            thresholds[rows] = theta
            tables += list(counts)
            del w  # the group's float64 weights go before the next group's are drawn
    return weights, thresholds, np.stack([assign_neurons(t) for t in tables]), tables


def normalize_group(w: np.ndarray, n_inputs: int, sim: SimulationParams) -> None:
    """Normalize each expert of a (G, inputs + 1, K) stack on its own matrix.

    Each expert's contiguous (inputs, K) view sums its columns exactly as
    the expert alone does; a call on the 3-D stack or on strided views
    sums them in another order.
    """
    for member in w:
        normalize_columns(member[:n_inputs], sim.weight_norm_target, sim.stdp.w_max)


def _train_group(
    regions: list[RegionData], cfg: ExpertConfig, sim: SimulationParams, encoding: EncodingConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Train regions of one shape through one step loop.

    Returns their (G, inputs, K) float64 weights, (G, K) thresholds and (G, K, places) tables.
    """
    traverses, places, height, width = regions[0].images.shape  # every region's
    if traverses == 0 or places == 0:
        raise ConfigError("expert region has no reference images")
    n_inputs = height * width
    seeds = [derive_seed(region.seed, STREAM_WEIGHT_INIT) for region in regions]
    net = ExpertNetwork.learning_group(n_inputs, cfg.n_excitatory, seeds, sim, encoding)
    tables = np.zeros((len(regions), cfg.n_excitatory, places), dtype=np.int64)
    record_from = cfg.epochs - cfg.record_last_epochs

    for epoch in range(cfg.epochs):
        for place in range(places):
            for traverse in range(traverses):
                counts = net.present_with_retry(
                    [region.images[traverse, place] for region in regions],
                    [(region.seed, STREAM_TRAINING, epoch, int(region.image_ids[traverse, place]))
                     for region in regions],
                )
                if sim.weight_norm_enabled:
                    normalize_group(net.syn.w, n_inputs, sim)
                if epoch >= record_from:
                    tables[:, :, place] += counts

    return net.syn.w[:, :n_inputs], net.exc.theta, tables


def assign_neurons(spike_counts: np.ndarray) -> np.ndarray:
    """Label each neuron with the place it fired for most.

    Ties break toward the lowest place index; neurons whose row is all
    zero carry no evidence and become UNASSIGNED.
    """
    spike_counts = np.asarray(spike_counts)
    assignments = np.argmax(spike_counts, axis=1).astype(np.int64)
    assignments[spike_counts.sum(axis=1) == 0] = UNASSIGNED
    return assignments


def expert_respond(
    weights: np.ndarray,
    theta: np.ndarray,
    trains: list[SpikeTrain | BinnedTrain],
    sim: SimulationParams,
    encoding: EncodingConfig,
) -> np.ndarray:
    """Per-neuron spike counts of N frozen experts for a block of B trains: (B, N, K).

    ``weights`` is the experts' (inputs, N, K) float32 stack, used as it is
    (an ensemble keeps one, ``EnsembleModel.weights``), and ``theta`` their
    (N, K) thresholds.  All experts run in lockstep on all trains in one
    network whose state is (B, N, K).  Each (train, expert) pair starts from
    the canonical rest state with plasticity and threshold adaptation
    frozen, so row [b, i] equals what expert i's ``build_network`` answers
    to ``trains[b]`` alone and depends on nothing else.
    """
    net = ExpertNetwork(SynapseMatrix(weights), sim, encoding, theta=theta, images=len(trains))
    return net.present(list(trains), learn=False, run_rest=False)
