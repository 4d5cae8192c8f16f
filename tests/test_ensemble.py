"""Partitioning, fused matching, hyperactivity flags, and the oracle check."""

import dataclasses

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from snnplace.ensemble import (
    EnsembleModel,
    apply_threshold,
    collect_expert_responses,
    collect_query_responses,
    detect_hyperactive,
    flags_for_theta,
    fuse_scores,
    hyperactive_flags,
    match_query,
    match_spike_train,
    partition_reference,
    train_ensemble,
)
from snnplace.errors import ConfigError, StateError
from snnplace.expert import UNASSIGNED, expert_respond, query_seed
from snnplace.imaging import STREAM_REFERENCE, PatchNormConfig, derive_seed, poisson_encode
from snnplace.synthetic import synthetic_ensemble
from tests.conftest import (
    handmade_ensemble,
    tiny_encoding,
    tiny_expert_cfg,
    tiny_sim,
    tiny_textures,
)


def brute_force_ranking(model: EnsembleModel, counts_per_expert, flags_per_expert):
    """Exhaustive enumeration over every (expert, neuron) contribution."""
    scores = {place: 0 for place in range(model.place_count)}
    for i, expert in enumerate(model.experts):
        for e in range(expert.n_excitatory):
            if expert.assignments[e] == UNASSIGNED or flags_per_expert[i][e]:
                continue
            place = expert.global_start + int(expert.assignments[e])
            scores[place] += int(counts_per_expert[i][e])
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return [place for place, _ in ranked], [score for _, score in ranked]


def random_instance(rng):
    """Random small ensemble + responses + threshold for the oracle check."""
    n_experts = int(rng.integers(1, 5))
    places_per = int(rng.integers(1, 4))
    k_e = int(rng.integers(1, 9))
    place_count = min(n_experts * places_per, 12)
    assignments = [
        rng.integers(-1, places_per, size=k_e) for _ in range(n_experts)
    ]
    totals = [rng.integers(0, 40, size=k_e) for _ in range(n_experts)]
    counts = [rng.integers(0, 30, size=k_e) for _ in range(n_experts)]
    theta = float(rng.integers(0, 45))
    model = handmade_ensemble(
        counts, assignments, totals_per_expert=totals, places_per_expert=places_per
    )
    apply_threshold(model, theta if theta > 0 else None)
    flags = [ex.hyperactive for ex in model.experts]
    return model, counts, flags


class TestPartition:
    def test_reference_scale_partition(self):
        part = partition_reference(3300, 25)
        assert part.n_regions == 132
        assert all(stop - start == 25 for start, stop in part.ranges)

    def test_single_region_when_counts_match(self):
        part = partition_reference(25, 25)
        assert part.ranges == ((0, 25),)

    def test_remainder_region(self):
        part = partition_reference(26, 25)
        assert part.ranges == ((0, 25), (25, 26))

    def test_zero_place_count_rejected(self):
        with pytest.raises(ConfigError):
            partition_reference(0, 25)

    def test_tiling_property_randomized(self):
        rng = np.random.default_rng(10)
        for _ in range(500):
            place_count = int(rng.integers(1, 5000))
            kappa = int(rng.integers(1, 100))
            part = partition_reference(place_count, kappa)
            covered = np.concatenate([np.arange(s, t) for s, t in part.ranges])
            assert covered.size == place_count
            assert np.array_equal(covered, np.arange(place_count))
            assert all(t - s == kappa for s, t in part.ranges[:-1])


class TestFlags:
    def test_threshold_comparison_is_inclusive(self):
        flags = hyperactive_flags(np.array([120, 80, 100]), 100)
        np.testing.assert_array_equal(flags, [True, False, True])

    def test_raw_zero_threshold_flags_every_firing_neuron(self):
        flags = hyperactive_flags(np.array([0, 1, 50]), 0)
        np.testing.assert_array_equal(flags, [True, True, True])

    def test_deployment_zero_means_disabled(self):
        assert not flags_for_theta(np.array([0, 1, 50]), 0).any()
        assert not flags_for_theta(np.array([0, 1, 50]), None).any()

    def test_flag_set_monotone_in_theta(self):
        rng = np.random.default_rng(11)
        totals = rng.integers(0, 200, size=50)
        previous = hyperactive_flags(totals, 1)
        for theta in range(2, 220, 7):
            current = hyperactive_flags(totals, theta)
            assert not np.any(current & ~previous)  # no neuron joins as theta rises
            previous = current


class TestFuse:
    def test_two_expert_hand_table(self):
        # expert 0: every neuron hyperactive; expert 1: one neuron assigned to
        # global place 30 firing 7 spikes.
        model = handmade_ensemble(
            counts_per_expert=[np.array([9, 9]), np.array([7, 0])],
            assignments_per_expert=[[0, 1], [5, UNASSIGNED]],
            places_per_expert=25,
        )
        model.experts[0].hyperactive[:] = True
        result = fuse_scores(model, [np.array([9, 9]), np.array([7, 0])])
        assert result.top == 30
        assert result.scores[0] == 7
        assert not result.no_evidence

    def test_all_silent_falls_back_to_place_zero(self):
        model = handmade_ensemble(
            counts_per_expert=[np.zeros(3, dtype=int)],
            assignments_per_expert=[[0, 1, 2]],
            places_per_expert=4,
        )
        result = fuse_scores(model, [np.zeros(3, dtype=int)])
        assert result.no_evidence
        assert result.top == 0
        assert result.scores[0] == 0

    def test_ranking_matches_brute_force_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            model, counts, flags = random_instance(rng)
            fused = fuse_scores(model, counts)
            places, scores = brute_force_ranking(model, counts, flags)
            np.testing.assert_array_equal(fused.place_ids, places)
            np.testing.assert_array_equal(fused.scores, scores)

    def test_fusion_is_order_independent(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            model, counts, _ = random_instance(rng)
            if len(model.experts) < 2:
                continue
            perm = rng.permutation(len(model.experts))
            shuffled = dataclasses.replace(
                model, experts=[model.experts[i] for i in perm]
            )
            base = fuse_scores(model, counts)
            other = fuse_scores(shuffled, [counts[i] for i in perm])
            np.testing.assert_array_equal(base.place_ids, other.place_ids)
            np.testing.assert_array_equal(base.scores, other.scores)

    def test_score_decomposition(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            model, counts, _ = random_instance(rng)
            fused = fuse_scores(model, counts)
            total = np.zeros(model.place_count, dtype=np.int64)
            for i, expert in enumerate(model.experts):
                solo = fuse_scores(
                    model,
                    [c if j == i else np.zeros_like(c) for j, c in enumerate(counts)],
                )
                partial = np.zeros(model.place_count, dtype=np.int64)
                partial[solo.place_ids] = solo.scores
                total += partial
            full = np.zeros(model.place_count, dtype=np.int64)
            full[fused.place_ids] = fused.scores
            np.testing.assert_array_equal(full, total)

    def test_theta_above_max_total_reduces_to_unfiltered_matching(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            model, counts, _ = random_instance(rng)
            max_total = max(int(ex.reference_totals.max(initial=0)) for ex in model.experts)
            apply_threshold(model, max_total + 1)
            filtered = fuse_scores(model, counts)
            apply_threshold(model, None)
            unfiltered = fuse_scores(model, counts)
            np.testing.assert_array_equal(filtered.place_ids, unfiltered.place_ids)
            np.testing.assert_array_equal(filtered.scores, unfiltered.scores)

    def test_single_expert_degenerates_to_plain_argmax(self):
        rng = np.random.default_rng(16)
        counts = rng.integers(0, 30, size=6)
        assignments = np.array([0, 0, 1, 2, 3, UNASSIGNED])
        model = handmade_ensemble([counts], [assignments], places_per_expert=4)
        result = fuse_scores(model, [counts])
        expected = np.zeros(4, dtype=np.int64)
        for e, place in enumerate(assignments):
            if place != UNASSIGNED:
                expected[place] += counts[e]
        assert result.top == int(np.argmax(expected))

    def test_match_requires_regularized_model(self):
        model = handmade_ensemble(
            counts_per_expert=[np.zeros(2, dtype=int)],
            assignments_per_expert=[[0, 1]],
        )
        model.regularized = False
        train = poisson_encode(np.zeros((2, 2)), tiny_encoding(), seed=0)
        with pytest.raises(StateError):
            match_spike_train(model, train)


class TestTrainEnsemble:
    def _train(self, workers):
        textures = tiny_textures(4, seed=20)[None]
        part = partition_reference(4, 2)
        cfg = tiny_expert_cfg(n_excitatory=6, epochs=2, record_last_epochs=1)
        return train_ensemble(
            textures, part, cfg, tiny_sim(), tiny_encoding(), PatchNormConfig(),
            global_seed=7, workers=workers,
        )

    def test_serial_and_parallel_training_identical(self):
        serial = self._train(workers=1)
        parallel = self._train(workers=2)
        for a, b in zip(serial.experts, parallel.experts):
            np.testing.assert_array_equal(a.weights, b.weights)
            np.testing.assert_array_equal(a.theta, b.theta)
            np.testing.assert_array_equal(a.assignments, b.assignments)

    def test_expert_count_follows_partition(self):
        model = self._train(workers=1)
        assert len(model.experts) == 2
        assert model.experts[0].place_range() == (0, 2)
        assert model.experts[1].place_range() == (2, 4)

    def test_detect_hyperactive_fills_totals_and_flags(self):
        textures = tiny_textures(4, seed=20)[None]
        model = self._train(workers=1)
        detect_hyperactive(model, textures, theta=1, workers=1)
        assert model.regularized
        for expert in model.experts:
            np.testing.assert_array_equal(
                expert.hyperactive, expert.reference_totals >= 1
            )

    def test_detect_serial_matches_parallel(self):
        textures = tiny_textures(4, seed=20)[None]
        serial = detect_hyperactive(self._train(1), textures, None, workers=1)
        parallel = detect_hyperactive(self._train(1), textures, None, workers=2)
        for a, b in zip(serial.experts, parallel.experts):
            np.testing.assert_array_equal(a.reference_totals, b.reference_totals)

    def test_fan_out_matches_per_expert_responses(self):
        textures = tiny_textures(4, seed=20)[None]
        model = detect_hyperactive(self._train(1), textures, None, workers=1)
        train = poisson_encode(textures[0, 1], tiny_encoding(), seed=33)
        responses = collect_expert_responses(model, train)
        result = match_spike_train(model, train)
        np.testing.assert_array_equal(
            result.scores, fuse_scores(model, responses).scores
        )


class TestSharedFanOut:
    """Replay, query batches and matching against a per-expert oracle loop.

    The oracle encodes every image afresh for every expert with the
    documented seeds: reference image (t, p) with derive_seed(global_seed,
    STREAM_REFERENCE, t * place_count + p), query k with
    query_seed(global_seed, query_id_base + k).
    """

    @settings(max_examples=5, deadline=None)
    @given(
        n_experts=st.integers(1, 4),
        n_traverses=st.integers(1, 2),
        n_excitatory=st.integers(2, 8),
        places_per_expert=st.integers(1, 2),
        seed=st.integers(0, 2**16),
        query_id_base=st.integers(0, 1000),
        theta=st.one_of(st.none(), st.integers(1, 20)),
    )
    def test_fan_out_matches_per_expert_oracle(
        self, n_experts, n_traverses, n_excitatory, places_per_expert, seed,
        query_id_base, theta,
    ):
        encoding = tiny_encoding(presentation_ms=100.0)
        model = synthetic_ensemble(
            n_experts, n_excitatory=n_excitatory, image_size=(8, 8),
            places_per_expert=places_per_expert, seed=seed,
            sim=tiny_sim(), encoding=encoding,
        )
        places = model.place_count
        reference = tiny_textures(n_traverses * places, seed=seed).reshape(
            n_traverses, places, 8, 8
        )
        queries = tiny_textures(2, seed=seed + 1)

        def respond(expert, image, encoder_seed):
            train = poisson_encode(image, encoding, encoder_seed)
            return expert_respond(expert, train, model.sim, encoding)

        expected_totals = [
            sum(
                respond(ex, reference[t, p], derive_seed(seed, STREAM_REFERENCE, t * places + p))
                for t in range(n_traverses)
                for p in range(places)
            )
            for ex in model.experts
        ]
        expected_rows = np.array([
            [respond(ex, query, query_seed(seed, query_id_base + k)) for ex in model.experts]
            for k, query in enumerate(queries)
        ])
        for workers in (1, 2):
            detect_hyperactive(model, reference, theta, workers=workers)
            for expert, want in zip(model.experts, expected_totals):
                np.testing.assert_array_equal(expert.reference_totals, want)
            rows = collect_query_responses(
                model, queries, workers=workers, query_id_base=query_id_base
            )
            np.testing.assert_array_equal(rows, expected_rows)

        flags = [ex.hyperactive for ex in model.experts]
        for k, query in enumerate(queries):
            result = match_query(model, query, query_id=query_id_base + k)
            want_ids, want_scores = brute_force_ranking(model, expected_rows[k], flags)
            assert result.place_ids.tolist() == want_ids
            assert result.scores.tolist() == want_scores


class TestBenchmark:
    def test_empty_size_list_gives_empty_table(self):
        from snnplace.ensemble import query_time_benchmark

        assert query_time_benchmark([]) == []
