"""Synthetic worlds for tests, demos, and benchmarks.

Provides seeded random place textures, corrupted query variants, frozen
random ensembles and the query-latency table measured on them, and the
cross-region responder injection used to study hyperactivity filtering
without real data.
"""

from __future__ import annotations

import copy
import time

import numpy as np

from .ensemble import EnsembleModel, match_query, neuron_places
from .errors import StateError
from .expert import UNASSIGNED
from .imaging import (
    EncodingConfig,
    PatchNormConfig,
    derive_seed,
    preprocess_for_encoding,
)
from .network import SimulationParams, init_weights, normalize_columns


def make_textures(
    n_places: int,
    image_size: tuple[int, int] = (28, 28),
    seed: int = 0,
) -> np.ndarray:
    """Seeded random textures in [0, 1], one per place; shape (n_places, H, W).

    Usable directly as encoder input, or put through preprocess_stack for
    a world that exercises the full imaging pipeline.
    """
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=(n_places, image_size[1], image_size[0]))


def corrupt_queries(
    images: np.ndarray,
    seed: int,
    noise_sigma: float = 0.1,
    brightness_gain: float = 1.1,
) -> np.ndarray:
    """Query variants: additive Gaussian noise plus a brightness change."""
    rng = np.random.default_rng(seed)
    noisy = images * brightness_gain + rng.normal(0.0, noise_sigma, size=images.shape)
    return np.clip(noisy, 0.0, 1.0)


def preprocess_stack(
    images: np.ndarray,
    target: tuple[int, int] = (28, 28),
    patch: PatchNormConfig = PatchNormConfig(),
) -> np.ndarray:
    """Resize + patch-normalize + unit-rescale a stack of raw images."""
    out = np.empty((images.shape[0], target[1], target[0]))
    for i, img in enumerate(images):
        out[i] = preprocess_for_encoding(img, target, patch)
    return out


def synthetic_ensemble(
    n_experts: int,
    n_excitatory: int = 100,
    image_size: tuple[int, int] = (28, 28),
    places_per_expert: int = 25,
    seed: int = 0,
    sim: SimulationParams | None = None,
    encoding: EncodingConfig | None = None,
) -> EnsembleModel:
    """Frozen random ensemble for latency benchmarks (no training).

    Each expert's weights are drawn and normalized by the training rules
    (``init_weights``, ``normalize_columns``), one expert at a time into
    the ensemble's float32 stack; assignments cycle through each region's
    places so fused matching has real work to do.  The model is marked
    regularized with the filter disabled.
    """
    sim = sim or SimulationParams.defaults()
    encoding = encoding or EncodingConfig(min_output_spikes=0)
    n_inputs = image_size[0] * image_size[1]
    weights = np.empty((n_inputs, n_experts, n_excitatory), dtype=np.float32)
    for i in range(n_experts):
        w = init_weights(n_inputs, n_excitatory, derive_seed(seed, i), sim.weight_init_max)
        normalize_columns(w, sim.weight_norm_target, sim.stdp.w_max)
        weights[:, i] = w
    model = EnsembleModel(
        weights=weights,
        thresholds=np.zeros((n_experts, n_excitatory)),
        assignments=np.tile(np.arange(n_excitatory, dtype=np.int64) % places_per_expert,
                            (n_experts, 1)),
        region_places=np.full(n_experts, places_per_expert, dtype=np.int64),
        sim=sim,
        encoding=encoding,
        patch=PatchNormConfig(),
        image_size=image_size,
        global_seed=seed,
        regularized=True,
    )
    return model


def query_time_benchmark(
    sizes: list[int],
    n_excitatory: int = 100,
    image_size: tuple[int, int] = (28, 28),
    n_queries: int = 20,
    seed: int = 0,
) -> list[tuple[int, float]]:
    """Mean wall time per query against synthetic ensembles of each size.

    Experts are frozen random networks; queries are random textures.  Runs
    in single-worker mode so the totals scale with the serial work.  Each
    query visits every size in turn, so a drift in machine speed during the
    run lands on all sizes alike instead of on whichever size it overlaps.
    """
    models = [
        synthetic_ensemble(n, n_excitatory=n_excitatory, image_size=image_size, seed=seed)
        for n in sizes
    ]
    queries = make_textures(n_queries, image_size, derive_seed(seed, 1))
    elapsed = [0.0] * len(sizes)
    for k in range(n_queries):
        for i, model in enumerate(models):
            start = time.perf_counter()
            match_query(model, queries[k], query_id=k)
            elapsed[i] += time.perf_counter() - start
    return [(n, seconds / n_queries) for n, seconds in zip(sizes, elapsed)]


def inject_cross_region_responders(
    model: EnsembleModel,
    fraction: float = 0.05,
    seed: int = 0,
    threshold_scale: float = 0.7,
) -> tuple[EnsembleModel, list[tuple[int, int]]]:
    """Copy foreign winner weights into a fraction of the ensemble's neurons.

    For every victim neuron, the weight column of the strongest responder
    (highest reference total) of a *different* region is copied in, with
    only ``threshold_scale`` of the source's adaptive threshold: the
    transplant is under-regularized in its new context, so it responds
    vigorously to places far outside its region while keeping its stale
    local place assignment — the failure mode that hyperactivity filtering
    removes.  (At scale 1.0 the copy inherits the source's full homeostatic
    protection and stays benign; at 0.0 copies fire so hard that their
    winner-take-all partners silence the whole expert.)  Returns a modified
    deep copy plus the injected (expert, neuron) pairs; the caller must
    re-run detect_hyperactive to refresh totals and flags.
    """
    if not model.regularized:
        raise StateError("injection picks winners by reference totals: regularize first")
    n_experts = len(model.region_places)
    if n_experts < 2:
        raise StateError("need at least two experts to inject cross-region responders")
    injected_model = copy.deepcopy(model)
    rng = np.random.default_rng(seed)
    winners = np.argmax(model.reference_totals, axis=1)

    places = neuron_places(model)
    n_inject = int(round(fraction * places.size))
    candidates = np.argwhere(places != UNASSIGNED).tolist()  # (expert, neuron), row-major
    picks = rng.choice(len(candidates), size=min(n_inject, len(candidates)), replace=False)
    injected = []
    for pick in sorted(picks):
        i, e = candidates[pick]
        source = int(rng.integers(0, n_experts - 1))
        if source >= i:
            source += 1
        winner = winners[source]
        injected_model.weights[:, i, e] = model.weights[:, source, winner]
        injected_model.thresholds[i, e] = threshold_scale * model.thresholds[source, winner]
        injected.append((i, e))
    return injected_model, injected
