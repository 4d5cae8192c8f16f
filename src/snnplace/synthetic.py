"""Synthetic worlds for tests, demos, and benchmarks.

Provides seeded random place textures, corrupted query variants, frozen
random ensembles for latency measurements, and the cross-region responder
injection used to study hyperactivity filtering without real data.
"""

from __future__ import annotations

import copy

import numpy as np

from .ensemble import EnsembleModel
from .errors import StateError
from .expert import UNASSIGNED, ExpertModel
from .imaging import (
    EncodingConfig,
    PatchNormConfig,
    derive_seed,
    preprocess_for_encoding,
)
from .network import SimulationParams


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

    Weights are random with realistic per-neuron column sums; assignments
    cycle through each region's places so fused matching has real work to
    do.  The model is marked regularized with the filter disabled.
    """
    sim = sim or SimulationParams.defaults()
    encoding = encoding or EncodingConfig(min_output_spikes=0)
    n_inputs = image_size[0] * image_size[1]
    experts = []
    for i in range(n_experts):
        rng = np.random.default_rng(derive_seed(seed, i))
        w = rng.uniform(0.0, sim.weight_init_max, size=(n_inputs, n_excitatory))
        w *= sim.weight_norm_target / w.sum(axis=0)
        np.clip(w, 0.0, sim.stdp.w_max, out=w)
        experts.append(ExpertModel(
            weights=w.astype(np.float32),
            theta=np.zeros(n_excitatory),
            assignments=np.arange(n_excitatory, dtype=np.int64) % places_per_expert,
            global_start=i * places_per_expert,
            n_places=places_per_expert,
        ))
    model = EnsembleModel(
        experts=experts,
        place_count=n_experts * places_per_expert,
        sim=sim,
        encoding=encoding,
        patch=PatchNormConfig(),
        image_size=image_size,
        global_seed=seed,
        regularized=True,
        theta=None,
    )
    return model


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
    if len(model.experts) < 2:
        raise StateError("need at least two experts to inject cross-region responders")
    injected_model = copy.deepcopy(model)
    rng = np.random.default_rng(seed)
    winners = [int(np.argmax(ex.reference_totals)) for ex in model.experts]

    n_total = sum(ex.n_excitatory for ex in model.experts)
    n_inject = int(round(fraction * n_total))
    candidates = [
        (i, e)
        for i, ex in enumerate(model.experts)
        for e in range(ex.n_excitatory)
        if ex.assignments[e] != UNASSIGNED
    ]
    picks = rng.choice(len(candidates), size=min(n_inject, len(candidates)), replace=False)
    injected = []
    for pick in sorted(picks):
        i, e = candidates[pick]
        source = int(rng.integers(0, len(model.experts) - 1))
        if source >= i:
            source += 1
        src_expert = model.experts[source]
        victim = injected_model.experts[i]
        victim.weights[:, e] = src_expert.weights[:, winners[source]]
        victim.theta[e] = threshold_scale * src_expert.theta[winners[source]]
        injected.append((i, e))
    return injected_model, injected
