"""Shared fixtures: tiny deterministic worlds that train in seconds."""

import dataclasses

import numpy as np
import pytest
from hypothesis import settings

from snnplace.ensemble import EnsembleModel
from snnplace.expert import ExpertConfig, expert_respond
from snnplace.imaging import EncodingConfig, PatchNormConfig
from snnplace.network import ExpertNetwork, SimulationParams, SynapseMatrix

# CI runs TestManifestFuzz alone under this profile with a fixed --hypothesis-seed:
# a config-block value that overflowed the step showed itself at 3,000 examples,
# not at the 200 the test runs by default.
settings.register_profile("manifest-fuzz", max_examples=3000)


def tiny_sim(**overrides) -> SimulationParams:
    """Simulation constants scaled for 8x8 inputs (weight sums scale with K_P)."""
    params = dataclasses.replace(SimulationParams.defaults(), weight_norm_target=20.0)
    return dataclasses.replace(params, **overrides) if overrides else params


def tiny_encoding(**overrides) -> EncodingConfig:
    """Encoder config with re-presentation disabled, as unit tests require."""
    return EncodingConfig(min_output_spikes=0, **overrides)


def tiny_expert_cfg(**overrides) -> ExpertConfig:
    base = dict(n_excitatory=8, places_per_expert=2, epochs=4, record_last_epochs=2)
    base.update(overrides)
    return ExpertConfig(**base)


def tiny_textures(n_places: int, seed: int = 0, size: int = 8) -> np.ndarray:
    """Unit-intensity random textures usable directly as encoder input."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=(n_places, size, size))


def learning_group_of_one(w, sim, encoding) -> ExpertNetwork:
    """A learning group of one expert whose weights are the hand-set (inputs, K) ``w``.

    ``net.syn.w[0, :-1]`` is that expert's (inputs, K) view; row ``inputs``
    is its all-zero pad row.
    """
    padded = np.zeros((1, len(w) + 1, w.shape[1]))
    padded[0, :-1] = w
    return ExpertNetwork(SynapseMatrix(padded, np.zeros(padded.shape[:2])), sim, encoding,
                         group=True)


def respond_stacked(experts, trains, sim, encoding) -> np.ndarray:
    """``expert_respond`` on experts built apart, stacked as an ensemble keeps them."""
    weights = np.stack([ex.weights for ex in experts], axis=1)
    return expert_respond(weights, np.stack([ex.theta for ex in experts]), trains, sim, encoding)


def handmade_ensemble(
    assignments_per_expert,
    totals_per_expert=None,
    places_per_expert: int = 25,
    theta: float | None = None,
) -> EnsembleModel:
    """A fully synthetic ensemble whose experts never simulate anything.

    Only the matching-side tables matter: assignments, reference totals,
    and hyperactive flags.  Weights are a zero stack of a minimal shape.
    """
    n_experts, n = len(assignments_per_expert), len(assignments_per_expert[0])
    model = EnsembleModel(
        weights=np.zeros((4, n_experts, n), dtype=np.float32),
        thresholds=np.zeros((n_experts, n)),
        assignments=np.array(assignments_per_expert, dtype=np.int64),
        region_places=np.full(n_experts, places_per_expert, dtype=np.int64),
        sim=SimulationParams.defaults(),
        encoding=tiny_encoding(),
        patch=PatchNormConfig(),
        image_size=(2, 2),
        global_seed=0,
        regularized=True,
        reference_totals=(
            None if totals_per_expert is None
            else np.array(totals_per_expert, dtype=np.int64)
        ),
    )
    if theta is not None:
        from snnplace.ensemble import apply_threshold

        apply_threshold(model, theta)
    return model


def assert_same_ensemble(a: EnsembleModel, b: EnsembleModel) -> None:
    """Every field of two ensembles and every value they compute agree, arrays bit for bit.

    The names come from ``dataclasses.fields``, so a field the store forgets fails.
    """
    computed = ("place_count", "global_starts", "hyperactive")
    for name in [f.name for f in dataclasses.fields(EnsembleModel)] + list(computed):
        u, v = getattr(a, name), getattr(b, name)
        if isinstance(u, np.ndarray):
            assert (u.dtype, u.shape, u.tobytes()) == (v.dtype, v.shape, v.tobytes()), name
        else:
            assert u == v, name


@pytest.fixture(scope="session")
def two_pattern_expert():
    """One expert trained on two orthogonal binary patterns (shared, slow-ish)."""
    from snnplace.expert import RegionData, train_expert

    rng = np.random.default_rng(7)
    a = np.zeros((8, 8))
    b = np.zeros((8, 8))
    a[:4] = rng.uniform(size=(4, 8)) < 0.5
    b[4:] = rng.uniform(size=(4, 8)) < 0.5
    images = np.stack([a, b])[None]
    region = RegionData(images=images, image_ids=np.array([[0, 1]]), global_start=0, seed=3)
    cfg = tiny_expert_cfg(n_excitatory=10, epochs=30, record_last_epochs=10)
    model, table = train_expert(region, cfg, tiny_sim(), tiny_encoding())
    return model, table, images
