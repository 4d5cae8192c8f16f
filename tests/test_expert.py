"""Region-expert training, spike recording, and neuron assignment."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from snnplace.errors import ConfigError
from snnplace.expert import (
    UNASSIGNED,
    ExpertConfig,
    RegionData,
    assign_neurons,
    normalize_group,
    train_expert,
    train_experts,
)
from snnplace.imaging import STREAM_QUERY, EncodingConfig, derive_seed, poisson_encode
from snnplace.network import ExpertNetwork, StdpParams, normalize_columns
from tests.conftest import (
    respond_stacked,
    tiny_encoding,
    tiny_expert_cfg,
    tiny_sim,
    tiny_textures,
)


class TestAssignNeurons:
    def test_argmax_by_hand(self):
        assignments = assign_neurons(np.array([[5, 2], [0, 9]]))
        np.testing.assert_array_equal(assignments, [0, 1])

    def test_all_zero_row_is_unassigned(self):
        assignments = assign_neurons(np.array([[0, 0], [1, 0]]))
        assert assignments[0] == UNASSIGNED
        assert assignments[1] == 0

    def test_tie_breaks_toward_lowest_place(self):
        assert assign_neurons(np.array([[3, 3]]))[0] == 0

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            # distinct values within each row keep the argmax unambiguous
            table = np.stack([rng.permutation(20)[:6] for _ in range(5)])
            perm = rng.permutation(6)
            base = assign_neurons(table)
            permuted = assign_neurons(table[:, perm])
            np.testing.assert_array_equal(perm[permuted], base)


class TestDefaults:
    def test_reference_architecture_constants(self):
        cfg = ExpertConfig()
        assert cfg.n_excitatory == 400
        assert cfg.places_per_expert == 25
        assert cfg.epochs == 60
        assert cfg.record_last_epochs == 10

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            ExpertConfig(n_excitatory=10, places_per_expert=25)
        with pytest.raises(ConfigError):
            ExpertConfig(epochs=5, record_last_epochs=6)


class TestTraining:
    def test_spike_table_shape_matches_architecture(self):
        images = tiny_textures(3, seed=1)[None]
        region = RegionData(images=images, image_ids=np.arange(3)[None], global_start=0)
        cfg = tiny_expert_cfg(n_excitatory=7, places_per_expert=3)
        model, table = train_expert(region, cfg, tiny_sim(), tiny_encoding())
        assert table.shape == (7, 3)
        assert model.weights.shape == (64, 7)
        assert np.all(table >= 0)

    def test_zero_input_leaves_neurons_unassigned(self):
        images = np.zeros((1, 2, 8, 8))
        region = RegionData(images=images, image_ids=np.arange(2)[None], global_start=0)
        model, table = train_expert(region, tiny_expert_cfg(), tiny_sim(), tiny_encoding())
        assert not table.any()
        assert np.all(model.assignments == UNASSIGNED)

    def test_empty_region_rejected(self):
        region = RegionData(
            images=np.zeros((1, 0, 8, 8)), image_ids=np.zeros((1, 0)), global_start=0
        )
        with pytest.raises(ConfigError):
            train_expert(region, tiny_expert_cfg(), tiny_sim(), tiny_encoding())

    def test_two_orthogonal_patterns_get_disjoint_winners(self, two_pattern_expert):
        model, table, _ = two_pattern_expert
        assigned = model.assignments[model.assignments != UNASSIGNED]
        assert (assigned == 0).any() and (assigned == 1).any()
        winners_0 = set(np.flatnonzero(model.assignments == 0))
        winners_1 = set(np.flatnonzero(model.assignments == 1))
        assert winners_0.isdisjoint(winners_1)

    def test_argmax_property_of_assignments(self, two_pattern_expert):
        model, table, _ = two_pattern_expert
        for e, place in enumerate(model.assignments):
            if place != UNASSIGNED:
                assert table[e, place] == table[e].max()

    def test_recording_window_accumulates_monotonically(self):
        images = tiny_textures(2, seed=2)[None]
        region = RegionData(images=images, image_ids=np.arange(2)[None], global_start=0)
        short = tiny_expert_cfg(epochs=4, record_last_epochs=1)
        longer = tiny_expert_cfg(epochs=4, record_last_epochs=3)
        _, table_short = train_expert(region, short, tiny_sim(), tiny_encoding())
        _, table_long = train_expert(region, longer, tiny_sim(), tiny_encoding())
        assert np.all(table_long >= table_short)

    def test_different_seeds_differ_but_both_satisfy_argmax(self):
        images = tiny_textures(2, seed=3)[None]
        models = []
        for seed in (1, 2):
            region = RegionData(images=images, image_ids=np.arange(2)[None], seed=seed)
            model, table = train_expert(region, tiny_expert_cfg(), tiny_sim(), tiny_encoding())
            for e, place in enumerate(model.assignments):
                if place != UNASSIGNED:
                    assert table[e, place] == table[e].max()
            models.append(model)
        assert not np.array_equal(models[0].weights, models[1].weights)

    def test_traverse_interleaving_sees_all_traverses(self):
        # two traverses of the same two places; both must shape the table
        images = np.stack([tiny_textures(2, seed=4), tiny_textures(2, seed=5)])
        region = RegionData(
            images=images, image_ids=np.arange(4).reshape(2, 2), global_start=0
        )
        cfg = tiny_expert_cfg(epochs=3, record_last_epochs=3)
        _, table = train_expert(region, cfg, tiny_sim(), tiny_encoding())
        assert table.sum() > 0


class TestGroups:
    """Experts that learn in one group end exactly as each ends alone."""

    @settings(max_examples=10, deadline=None)
    @given(
        n_experts=st.integers(1, 5),
        n_excitatory=st.one_of(st.just(1), st.integers(1, 20)),
        traverses=st.integers(1, 2),
        short_last=st.booleans(),
        retries=st.booleans(),
        weight_norm=st.booleans(),
        tau_gi=st.sampled_from([0.5, 2.0]),
        max_rate_hz=st.sampled_from([63.75, 400.0]),
        seed=st.integers(0, 2**16),
    )
    # Several one-neuron experts, which learn as one group, read column by column.
    @example(n_experts=3, n_excitatory=1, traverses=1, short_last=False, retries=False,
             weight_norm=True, tau_gi=0.5, max_rate_hz=400.0, seed=1)
    def test_group_equals_each_expert_alone(
        self, n_experts, n_excitatory, traverses, short_last, retries, weight_norm,
        tau_gi, max_rate_hz, seed,
    ):
        rng = np.random.default_rng(seed)
        sim = tiny_sim(weight_norm_enabled=weight_norm).with_tau_gi(tau_gi)
        # A floor no presentation reaches forces every retry.
        encoding = EncodingConfig(
            max_rate_hz=max_rate_hz, presentation_ms=60.0, rest_ms=20.0,
            min_output_spikes=10**6 if retries else 0, max_retries=2,
        )
        cfg = tiny_expert_cfg(
            n_excitatory=n_excitatory, places_per_expert=1, epochs=2, record_last_epochs=1,
        )
        regions = []
        for g in range(n_experts):
            places = 1 if short_last and g == n_experts - 1 else 2
            regions.append(RegionData(
                images=rng.uniform(size=(traverses, places, 8, 8)),
                image_ids=np.arange(traverses * places).reshape(traverses, places) + 10 * g,
                global_start=2 * g,
                seed=seed + g,
            ))
        weights, thresholds, assignments, tables = train_experts(regions, cfg, sim, encoding)
        assert weights.shape == (64, n_experts, n_excitatory) and weights.dtype == np.float32
        assert thresholds.shape == assignments.shape == (n_experts, n_excitatory)
        assert len(tables) == n_experts
        for i, region in enumerate(regions):
            alone, alone_table = train_expert(region, cfg, sim, encoding)
            for a, b in ((weights[:, i], alone.weights), (thresholds[i], alone.theta),
                         (assignments[i], alone.assignments), (tables[i], alone_table)):
                assert a.shape == b.shape and a.dtype == b.dtype
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("n_experts, n_excitatory", [(1, 1), (3, 2), (2, 9)])
    def test_normalization_matches_each_experts_own_matrix(self, n_experts, n_excitatory):
        # Weights spanning 60 binades make column sums depend on their order.
        rng = np.random.default_rng(n_excitatory)
        sim = tiny_sim(stdp=StdpParams(w_max=2.0))
        net = ExpertNetwork.learning_group(64, n_excitatory, list(range(n_experts)), sim, tiny_encoding())
        net.syn.w[:, :64] = 2.0 ** rng.uniform(-60, 1, size=(n_experts, 64, n_excitatory))
        trains = [poisson_encode(rng.uniform(size=(8, 8)), tiny_encoding(), seed=g)
                  for g in range(n_experts)]
        net.present(trains, learn=True)
        alone = [net.syn.w[g, :64].copy() for g in range(n_experts)]
        normalize_group(net.syn.w, 64, sim)
        for g, w in enumerate(alone):
            normalize_columns(w, sim.weight_norm_target, sim.stdp.w_max)
            assert net.syn.w[g, :64].tobytes() == w.tobytes()
        assert not net.syn.w[:, 64].any()   # the pad rows never learn

    def test_one_neuron_regions_train_in_one_group(self, monkeypatch):
        groups = []
        build = ExpertNetwork.learning_group.__func__

        def spy(cls, n_inputs, n_excitatory, seeds, *args):
            groups.append((n_excitatory, len(seeds)))
            return build(cls, n_inputs, n_excitatory, seeds, *args)

        monkeypatch.setattr(ExpertNetwork, "learning_group", classmethod(spy))
        regions = [RegionData(images=tiny_textures(1, seed=g)[None], image_ids=np.array([[g]]),
                              global_start=g, seed=g) for g in range(3)]
        cfg = tiny_expert_cfg(n_excitatory=1, places_per_expert=1, epochs=1, record_last_epochs=1)
        weights, _, _, tables = train_experts(regions, cfg, tiny_sim(), tiny_encoding())
        assert weights.shape == (64, 3, 1) and len(tables) == 3
        assert groups == [(1, 3)]


class TestRespond:
    def test_empty_query_yields_zeros(self, two_pattern_expert):
        model, _, _ = two_pattern_expert
        train = poisson_encode(np.zeros((8, 8)), tiny_encoding(), seed=0)
        counts = respond_stacked([model], [train], tiny_sim(), tiny_encoding())[0, 0]
        assert not counts.any()

    def test_training_image_matches_its_own_place(self, two_pattern_expert):
        model, _, images = two_pattern_expert
        for place in (0, 1):
            train = poisson_encode(
                images[0, place], tiny_encoding(), derive_seed(99, STREAM_QUERY, place)
            )
            counts = respond_stacked([model], [train], tiny_sim(), tiny_encoding())[0, 0]
            scores = [
                counts[model.assignments == candidate].sum() for candidate in (0, 1)
            ]
            assert int(np.argmax(scores)) == place

    def test_identical_query_identical_counts(self, two_pattern_expert):
        model, _, images = two_pattern_expert
        train = poisson_encode(images[0, 0], tiny_encoding(), seed=123)
        first = respond_stacked([model], [train], tiny_sim(), tiny_encoding())[0, 0]
        second = respond_stacked([model], [train], tiny_sim(), tiny_encoding())[0, 0]
        np.testing.assert_array_equal(first, second)
