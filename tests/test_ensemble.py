"""Partitioning, fused matching, hyperactivity flags, and the oracle check."""

import copy
import dataclasses
import json
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from snnplace import ensemble, expert
from snnplace.ensemble import (
    EnsembleModel,
    apply_threshold,
    collect_query_responses,
    detect_hyperactive,
    flags_for_theta,
    fuse_scores,
    match_query,
    partition_reference,
    train_ensemble,
)
from snnplace.errors import ArchiveError, ConfigError, StateError
from snnplace.expert import UNASSIGNED, ExpertConfig, ExpertModel
from snnplace.imaging import (
    STREAM_QUERY,
    STREAM_REFERENCE,
    EncodingConfig,
    PatchNormConfig,
    derive_seed,
    poisson_encode,
)
from snnplace.metrics import neuron_precision_analysis
from snnplace.network import ExpertNetwork, SimulationParams, SynapseMatrix
from snnplace.store import load_ensemble, save_ensemble
from snnplace.synthetic import inject_cross_region_responders, make_textures, synthetic_ensemble
from tests.conftest import (
    assert_same_ensemble,
    handmade_ensemble,
    respond_stacked,
    tiny_encoding,
    tiny_expert_cfg,
    tiny_sim,
    tiny_textures,
)


def brute_force_ranking(model: EnsembleModel, counts_per_expert, flags_per_expert):
    """Exhaustive enumeration over every (expert, neuron) contribution."""
    scores = {place: 0 for place in range(model.place_count)}
    for i, expert in enumerate(model.experts):
        for e in range(model.assignments.shape[1]):
            if expert.assignments[e] == UNASSIGNED or flags_per_expert[i][e]:
                continue
            place = expert.global_start + int(expert.assignments[e])
            scores[place] += int(counts_per_expert[i][e])
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return [place for place, _ in ranked], [score for _, score in ranked]


def place_scores(result) -> np.ndarray:
    """A ranking's scores indexed by place id."""
    scores = np.empty_like(result.scores)
    scores[result.place_ids] = result.scores
    return scores


def random_instance(rng):
    """Random small ensemble + responses + threshold for the oracle check."""
    n_experts = int(rng.integers(1, 5))
    places_per = int(rng.integers(1, 4))
    k_e = int(rng.integers(1, 9))
    assignments = [
        rng.integers(-1, places_per, size=k_e) for _ in range(n_experts)
    ]
    totals = [rng.integers(0, 40, size=k_e) for _ in range(n_experts)]
    counts = [rng.integers(0, 30, size=k_e) for _ in range(n_experts)]
    theta = float(rng.integers(0, 45))
    model = handmade_ensemble(assignments, totals_per_expert=totals, places_per_expert=places_per)
    apply_threshold(model, theta)
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
        flags = flags_for_theta(np.array([120, 80, 100]), 100)
        np.testing.assert_array_equal(flags, [True, False, True])

    def test_deployment_zero_means_disabled(self):
        assert not flags_for_theta(np.array([0, 1, 50]), 0).any()
        assert not flags_for_theta(np.array([0, 1, 50]), 0.0).any()
        assert not flags_for_theta(np.array([0, 1, 50]), None).any()

    def test_filter_off_keeps_the_shape_of_the_totals(self):
        for theta in (None, 0):
            flags = flags_for_theta(np.zeros((3, 4)), theta)
            assert flags.shape == (3, 4) and flags.dtype == bool and not flags.any()

    @pytest.mark.parametrize("theta", [
        -5, -0.5, float("nan"), float("inf"), "abc", "100", True, False, np.bool_(True),
    ])
    def test_invalid_theta_rejected(self, theta):
        with pytest.raises(ConfigError, match="theta"):
            flags_for_theta(np.array([0, 1, 50]), theta)

    def test_numpy_scalars_are_numbers(self):
        totals = np.array([0, 1, 50])
        np.testing.assert_array_equal(flags_for_theta(totals, np.int64(1)), [False, True, True])
        np.testing.assert_array_equal(flags_for_theta(totals, np.float64(50)), [False, False, True])

    def test_apply_threshold_stores_none_when_filter_off(self):
        model = handmade_ensemble([[0, 1]], totals_per_expert=[[3, 9]], places_per_expert=2)
        for theta in (0, 0.0, None):
            apply_threshold(model, theta)
            assert model.theta is None
            assert not model.experts[0].hyperactive.any()
        apply_threshold(model, 5.0)
        assert model.theta == 5.0
        np.testing.assert_array_equal(model.experts[0].hyperactive, [False, True])

    def test_bad_theta_leaves_model_unchanged(self):
        model = handmade_ensemble([[0, 1]], totals_per_expert=[[3, 9]], places_per_expert=2,
                                  theta=5.0)
        with pytest.raises(ConfigError):
            apply_threshold(model, -5)
        assert model.theta == 5.0
        np.testing.assert_array_equal(model.experts[0].hyperactive, [False, True])

    def test_detect_rejects_bad_theta_before_replay(self, monkeypatch):
        import snnplace.ensemble as ens

        model = synthetic_ensemble(1, n_excitatory=2, image_size=(4, 4), places_per_expert=1)
        monkeypatch.setattr(ens, "_map_image_chunks", lambda *a: pytest.fail("replay ran"))
        with pytest.raises(ConfigError):
            detect_hyperactive(model, np.zeros((1, 1, 4, 4)), -5)

    def test_flag_set_monotone_in_theta(self):
        rng = np.random.default_rng(11)
        totals = rng.integers(0, 200, size=50)
        previous = flags_for_theta(totals, 1)
        for theta in range(2, 220, 7):
            current = flags_for_theta(totals, theta)
            assert not np.any(current & ~previous)  # no neuron joins as theta rises
            previous = current


class TestFuse:
    def test_two_expert_hand_table(self):
        # expert 0: every neuron hyperactive at theta 5; expert 1: one neuron
        # assigned to global place 30 firing 7 spikes.
        model = handmade_ensemble(
            assignments_per_expert=[[0, 1], [5, UNASSIGNED]],
            totals_per_expert=[[9, 5], [4, 0]],
            places_per_expert=25,
            theta=5,
        )
        assert model.hyperactive.tolist() == [[True, True], [False, False]]
        (result,) = fuse_scores(model, [[np.array([9, 9]), np.array([7, 0])]])
        assert result.top == 30
        assert result.scores[0] == 7
        assert not result.no_evidence

    def test_all_silent_falls_back_to_place_zero(self):
        model = handmade_ensemble(
            assignments_per_expert=[[0, 1, 2]],
            places_per_expert=4,
        )
        (result,) = fuse_scores(model, [[np.zeros(3, dtype=int)]])
        assert result.no_evidence
        assert result.top == 0
        assert result.scores[0] == 0

    def test_ranking_matches_brute_force_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            model, counts, flags = random_instance(rng)
            places, scores = brute_force_ranking(model, counts, flags)
            # stored flags, the per-expert list and the (N, K) array give one ranking
            for given_flags in (None, flags, np.stack(flags)):
                (fused,) = fuse_scores(model, [counts], given_flags)
                np.testing.assert_array_equal(fused.place_ids, places)
                np.testing.assert_array_equal(fused.scores, scores)

    def test_a_batch_reads_the_vote_table_once_and_ranks_as_batches_of_one(self, monkeypatch):
        reads, votes = [], ensemble.neuron_places
        monkeypatch.setattr(ensemble, "neuron_places", lambda m: reads.append(1) or votes(m))
        rng = np.random.default_rng(17)
        for _ in range(50):
            model, _, flags = random_instance(rng)
            batch = rng.integers(0, 30, size=(int(rng.integers(0, 6)),) + model.weights.shape[1:])
            for given_flags in (None, flags):
                alone = [fuse_scores(model, [counts], given_flags)[0] for counts in batch]
                reads.clear()
                together = fuse_scores(model, batch, given_flags)
                assert len(reads) == 1 and len(together) == len(batch)
                for a, b in zip(together, alone):
                    assert a.place_ids.tobytes() == b.place_ids.tobytes()
                    assert a.scores.tobytes() == b.scores.tobytes()

    def test_fusion_is_order_independent(self):
        rng = np.random.default_rng(13)
        per_neuron = ("thresholds", "assignments", "reference_totals")
        for _ in range(50):
            model, counts, _ = random_instance(rng)
            perm = rng.permutation(model.assignments.shape[1])
            shuffled = dataclasses.replace(model, weights=model.weights[:, :, perm], **{
                table: getattr(model, table)[:, perm] for table in per_neuron
            })
            (base,) = fuse_scores(model, [counts])
            (other,) = fuse_scores(shuffled, [np.asarray(counts)[:, perm]])
            np.testing.assert_array_equal(base.place_ids, other.place_ids)
            np.testing.assert_array_equal(base.scores, other.scores)
            # Experts in another order take the places of their new positions:
            # each place's score moves with its expert's region.
            order = rng.permutation(len(model.region_places))
            moved = dataclasses.replace(model, weights=model.weights[:, order], **{
                table: getattr(model, table)[order] for table in (*per_neuron, "region_places")
            })
            (other,) = fuse_scores(moved, [np.asarray(counts)[order]])
            regions = np.split(place_scores(base), np.cumsum(model.region_places)[:-1])
            np.testing.assert_array_equal(place_scores(other),
                                          np.concatenate([regions[i] for i in order]))

    def test_score_decomposition(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            model, counts, _ = random_instance(rng)
            (fused,) = fuse_scores(model, [counts])
            total = np.zeros(model.place_count, dtype=np.int64)
            for i, expert in enumerate(model.experts):
                (solo,) = fuse_scores(
                    model,
                    [[c if j == i else np.zeros_like(c) for j, c in enumerate(counts)]],
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
            (filtered,) = fuse_scores(model, [counts])
            apply_threshold(model, None)
            (unfiltered,) = fuse_scores(model, [counts])
            np.testing.assert_array_equal(filtered.place_ids, unfiltered.place_ids)
            np.testing.assert_array_equal(filtered.scores, unfiltered.scores)

    def test_single_expert_degenerates_to_plain_argmax(self):
        rng = np.random.default_rng(16)
        counts = rng.integers(0, 30, size=6)
        assignments = np.array([0, 0, 1, 2, 3, UNASSIGNED])
        model = handmade_ensemble([assignments], places_per_expert=4)
        (result,) = fuse_scores(model, [[counts]])
        expected = np.zeros(4, dtype=np.int64)
        for e, place in enumerate(assignments):
            if place != UNASSIGNED:
                expected[place] += counts[e]
        assert result.top == int(np.argmax(expected))

    def test_match_requires_regularized_model(self):
        model = handmade_ensemble(assignments_per_expert=[[0, 1]])
        model.regularized = False
        with pytest.raises(StateError):
            match_query(model, np.zeros((2, 2)))


class TestTrainEnsemble:
    def _train(self, workers):
        textures = tiny_textures(4, seed=20)[None]
        cfg = tiny_expert_cfg(n_excitatory=6, epochs=2, record_last_epochs=1)
        return train_ensemble(
            textures, cfg, tiny_sim(), tiny_encoding(), PatchNormConfig(),
            global_seed=7, workers=workers,
        )

    def test_serial_and_parallel_training_identical(self):
        serial = self._train(workers=1)
        parallel = self._train(workers=2)
        for a, b in zip(serial.experts, parallel.experts):
            np.testing.assert_array_equal(a.weights, b.weights)
            np.testing.assert_array_equal(a.theta, b.theta)
            np.testing.assert_array_equal(a.assignments, b.assignments)

    def test_group_size_does_not_change_archives(self, monkeypatch, tmp_path):
        textures = tiny_textures(7, seed=21)[None]       # regions of 3, 3 and a short 1
        cfg = tiny_expert_cfg(n_excitatory=6, places_per_expert=3, epochs=2, record_last_epochs=1)
        train_group = expert._train_group
        archives, groups = [], []
        for size in (1, 10**9):
            sizes = []
            monkeypatch.setattr(expert, "GROUP_SIZE", size)
            monkeypatch.setattr(expert, "_train_group",
                                lambda regions, *a: sizes.append(len(regions)) or train_group(regions, *a))
            model = train_ensemble(
                textures, cfg, tiny_sim(), tiny_encoding(),
                PatchNormConfig(), global_seed=5,
            )
            path = tmp_path / f"size{size}"
            save_ensemble(model, path)
            archives.append({f.name: f.read_bytes() for f in sorted(path.iterdir())})
            groups.append(sizes)
        assert groups == [[1, 1, 1], [2, 1]]
        assert archives[0] == archives[1]

    def test_expert_count_follows_partition(self):
        model = self._train(workers=1)
        assert len(model.experts) == 2
        first, second = model.experts
        assert (first.global_start, first.global_start + first.n_places) == (0, 2)
        assert (second.global_start, second.global_start + second.n_places) == (2, 4)

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
        responses = collect_query_responses(model, textures[0, 1:2], query_id_base=33)
        result = match_query(model, textures[0, 1], query_id=33)
        np.testing.assert_array_equal(
            result.scores, fuse_scores(model, responses)[0].scores
        )


class TestSharedFanOut:
    """Replay, query batches and matching against a per-expert oracle loop.

    The oracle encodes every image afresh for every expert with the
    documented seeds: reference image (t, p) with derive_seed(global_seed,
    STREAM_REFERENCE, t * place_count + p), query k with
    derive_seed(global_seed, STREAM_QUERY, query_id_base + k).
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
            net = expert.build_network(model.sim, encoding)
            return net.present(train, learn=False, run_rest=False)

        expected_totals = [
            sum(
                respond(ex, reference[t, p], derive_seed(seed, STREAM_REFERENCE, t * places + p))
                for t in range(n_traverses)
                for p in range(places)
            )
            for ex in model.experts
        ]
        expected_rows = np.array([
            [respond(ex, query, derive_seed(seed, STREAM_QUERY, query_id_base + k))
             for ex in model.experts]
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


class TestLockstep:
    """``expert_respond`` steps N frozen experts together; each row is that expert alone."""

    @settings(max_examples=30, deadline=None)
    @given(
        n_experts=st.integers(1, 6),
        n_excitatory=st.integers(1, 40),
        weight_max=st.floats(0.05, 2.0),
        max_rate_hz=st.floats(20.0, 300.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lockstep_equals_per_expert(
        self, n_experts, n_excitatory, weight_max, max_rate_hz, seed
    ):
        rng = np.random.default_rng(seed)
        sim = tiny_sim()
        encoding = tiny_encoding(presentation_ms=100.0, max_rate_hz=max_rate_hz)
        experts = [
            ExpertModel(
                weights=rng.uniform(0.0, weight_max, size=(16, n_excitatory)).astype(np.float32),
                theta=rng.uniform(0.01, 5.0, size=n_excitatory),
                assignments=np.zeros(n_excitatory, dtype=np.int64),
                global_start=i,
                n_places=1,
            )
            for i in range(n_experts)
        ]
        train = poisson_encode(rng.uniform(size=(4, 4)), encoding, seed)
        rows = respond_stacked(experts, [train], sim, encoding)[0]
        assert rows.shape == (n_experts, n_excitatory)
        for row, expert in zip(rows, experts):
            alone = expert.build_network(sim, encoding)
            np.testing.assert_array_equal(row, alone.present(train, learn=False, run_rest=False))

    @pytest.mark.parametrize("n_experts, n_excitatory", [(8, 100), (4, 400)])
    def test_one_image_at_784_inputs_equals_each_expert_alone(self, n_experts, n_excitatory):
        # One image reads the whole (784, N, K) stack in one gather per step, as a
        # query does; its tens of spikes per step must sum as each expert's own.
        model = synthetic_ensemble(n_experts, n_excitatory=n_excitatory, seed=5)
        sim, encoding = model.sim, model.encoding
        train = poisson_encode(make_textures(1, (28, 28), 8)[0], encoding, 21)
        rows = expert.expert_respond(model.weights, model.thresholds, [train], sim, encoding)[0]
        block = ExpertNetwork(SynapseMatrix(model.weights), sim, encoding,
                              theta=model.thresholds, images=1)
        np.testing.assert_array_equal(block.present([train], learn=False, run_rest=False)[0], rows)
        assert rows.any()
        for i, ex in enumerate(model.experts):
            alone = ex.build_network(sim, encoding)
            np.testing.assert_array_equal(rows[i], alone.present(train, learn=False,
                                                                 run_rest=False))
            for name in ("v", "g_e", "g_i"):
                assert getattr(block.exc, name)[0, i].tobytes() == getattr(alone.exc, name).tobytes()

    def test_replay_holds_no_float64_copy_of_the_weights(self):
        model = synthetic_ensemble(4, n_excitatory=400, seed=0)
        images = make_textures(12, (28, 28), 5)
        one_float64_copy = sum(ex.weights.size for ex in model.experts) * 8
        assert ensemble.BLOCK_STATE // (4 * 400) == len(images)   # one block of 12
        for respond in (lambda: collect_query_responses(model, images[:1]),
                        lambda: collect_query_responses(model, images)):
            tracemalloc.start()
            try:
                respond()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < one_float64_copy


class TestWeightStack:
    """Every ensemble keeps one table per field; its experts view their rows."""

    @staticmethod
    def assert_views_of_one_stack(model):
        n_inputs, n_excitatory = model.experts[0].weights.shape
        assert model.weights.dtype == np.float32
        assert model.weights.shape == (n_inputs, len(model.experts), n_excitatory)
        for i, ex in enumerate(model.experts):
            assert np.shares_memory(ex.weights, model.weights)
            assert ex.weights.__array_interface__ == model.weights[:, i].__array_interface__
            for field, table in (("theta", "thresholds"), ("assignments", "assignments"),
                                 ("reference_totals", "reference_totals")):
                view = getattr(ex, field).__array_interface__
                assert view == getattr(model, table)[i].__array_interface__
            assert ex.hyperactive.tolist() == model.hyperactive[i].tolist()
            assert (ex.global_start, ex.n_places) == (model.global_starts[i],
                                                      model.region_places[i])

    def test_an_edit_of_an_experts_arrays_edits_the_model(self):
        model = synthetic_ensemble(2, n_excitatory=3, places_per_expert=2, seed=1)
        expert = model.experts[1]
        expert.weights[7, 1] = 0.25
        expert.theta[2] = 4.5
        expert.reference_totals[0] = 9
        apply_threshold(model, 5)
        assert model.weights[7, 1, 1] == 0.25
        assert model.thresholds[1, 2] == 4.5
        assert model.hyperactive.tolist() == [[False] * 3, [True, False, False]]
        assert model.experts[1].hyperactive.tolist() == [True, False, False]
        with pytest.raises(dataclasses.FrozenInstanceError):
            expert.hyperactive = np.ones(3, dtype=bool)

    def test_every_builder_gives_views_of_one_stack(self, tmp_path):
        synthetic = synthetic_ensemble(3, n_excitatory=5, places_per_expert=2, seed=1)
        textures = tiny_textures(4, seed=20)[None]
        cfg = tiny_expert_cfg(n_excitatory=6, epochs=2, record_last_epochs=1)
        trained = [
            train_ensemble(textures, cfg, tiny_sim(), tiny_encoding(), PatchNormConfig(),
                           global_seed=7, workers=workers)
            for workers in (1, 2)
        ]
        save_ensemble(trained[1], tmp_path / "arch")
        handmade = handmade_ensemble([[0, 1], [1, 0]], places_per_expert=2)
        for model in (synthetic, *trained, load_ensemble(tmp_path / "arch"), handmade):
            self.assert_views_of_one_stack(model)
        assert trained[0].weights.tobytes() == trained[1].weights.tobytes()

    def test_tables_that_disagree_in_shape_are_refused(self):
        model = synthetic_ensemble(3, n_excitatory=5, places_per_expert=2, seed=1)
        for changes in (dict(weights=model.weights.astype(np.float64)),
                        dict(weights=model.weights[:, :2]),
                        dict(weights=model.weights[0]),
                        dict(thresholds=model.thresholds[:, :4]),
                        dict(assignments=model.assignments[:2]),
                        dict(reference_totals=model.reference_totals.ravel()),
                        dict(region_places=model.region_places[:2]),
                        dict(region_places=model.region_places[:, None])):
            with pytest.raises(ValueError, match="tables disagree in shape"):
                dataclasses.replace(model, **changes)
        same = dataclasses.replace(model, theta=None)
        assert same.weights is model.weights
        self.assert_views_of_one_stack(same)

    def test_equality_is_identity(self):
        model = synthetic_ensemble(2, n_excitatory=3, places_per_expert=2)
        twin = synthetic_ensemble(2, n_excitatory=3, places_per_expert=2)
        assert model == model
        assert model != twin

    def test_an_ensemble_of_no_expert_is_refused(self):
        model = synthetic_ensemble(2, n_excitatory=3, places_per_expert=2)
        no_rows = {table: getattr(model, table)[:0] for table in
                   ("thresholds", "assignments", "region_places", "reference_totals")}
        with pytest.raises(ConfigError, match="at least one expert"):
            dataclasses.replace(model, weights=model.weights[:, :0], **no_rows)

    def test_an_image_size_other_than_the_weight_rows_is_refused(self):
        model = synthetic_ensemble(2, n_excitatory=3, places_per_expert=2)
        with pytest.raises(ConfigError, match="image size 14x14 needs 196 inputs, "
                                              "the weights have 784"):
            dataclasses.replace(model, image_size=(14, 14))

    @pytest.mark.parametrize("window, message", [
        (dict(presentation_ms=0.1), r"presentation_ms \(0.1\) must last at least one step"),
        (dict(rest_ms=1e300), r"rest_ms \(1e\+300\) must last at most 1000000 steps"),
    ])
    def test_a_window_the_step_cannot_run_is_refused(self, window, message):
        # At dt_ms 0.5, a 0.1 ms presentation rounds to no step at all: every query
        # would be silent.
        model = synthetic_ensemble(2, n_excitatory=3, places_per_expert=2)
        with pytest.raises(ConfigError, match=message):
            dataclasses.replace(model, encoding=dataclasses.replace(model.encoding, **window))

    def test_no_in_place_edit_makes_an_archive_its_loader_refuses(self, tmp_path):
        model = synthetic_ensemble(3, n_excitatory=4, places_per_expert=2, seed=1)
        model.reference_totals[1] = [0, 3, 7, 1]
        apply_threshold(model, 3)
        # The flags and the region starts are computed: an edit of either edits a copy.
        model.experts[0].hyperactive[:] = True
        model.global_starts[1] = 5
        model.reference_totals[2, 0] = 50   # the flags follow the totals
        assert model.hyperactive.tolist() == [[False] * 4, [False, True, True, False],
                                              [True, False, False, False]]
        assert model.global_starts.tolist() == [0, 2, 4]
        result = match_query(model, make_textures(1, (28, 28), 9)[0])
        assert sorted(result.place_ids.tolist()) == list(range(6))
        save_ensemble(model, tmp_path / "arch")
        assert_same_ensemble(load_ensemble(tmp_path / "arch"), model)

    def test_pickle_ships_the_stack_once(self):
        model = synthetic_ensemble(4, n_excitatory=400, seed=0)
        blob = pickle.dumps(model)
        assert len(blob) < 1.1 * model.weights.nbytes
        again = pickle.loads(blob)
        self.assert_views_of_one_stack(again)
        assert dataclasses.replace(again, theta=None).weights is again.weights
        assert again.weights.tobytes() == model.weights.tobytes()
        copied = copy.deepcopy(model)
        self.assert_views_of_one_stack(copied)
        assert not np.shares_memory(copied.weights, model.weights)

    def test_inference_sees_an_in_place_injection(self):
        model = synthetic_ensemble(3, n_excitatory=20, places_per_expert=4, seed=2)
        detect_hyperactive(model, make_textures(12, (28, 28), 8)[None], None)
        before = model.weights.copy()
        injected, pairs = inject_cross_region_responders(model, fraction=0.2, seed=3)
        assert pairs
        self.assert_views_of_one_stack(injected)
        np.testing.assert_array_equal(model.weights, before)
        for i, e in pairs:
            np.testing.assert_array_equal(injected.weights[:, i, e], injected.experts[i].weights[:, e])
        assert not np.array_equal(injected.weights, before)
        image = make_textures(1, (28, 28), 9)
        seed = derive_seed(injected.global_seed, STREAM_QUERY, 4)
        train = poisson_encode(image[0], injected.encoding, seed)
        rows = collect_query_responses(injected, image, query_id_base=4)[0]
        for row, ex in zip(rows, injected.experts):
            alone = ex.build_network(injected.sim, injected.encoding)
            np.testing.assert_array_equal(row, alone.present(train, learn=False, run_rest=False))

    def test_inference_holds_no_float32_copy_of_the_weights(self):
        model = synthetic_ensemble(4, n_excitatory=400, seed=0)
        images = make_textures(12, (28, 28), 5)
        one_float32_copy = sum(ex.weights.nbytes for ex in model.experts)   # 4.79 MiB
        for respond in (lambda: collect_query_responses(model, images[:1]),
                        lambda: collect_query_responses(model, images)):
            tracemalloc.start()
            try:
                respond()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < one_float32_copy

    def test_an_oversized_stack_is_refused_before_any_expert_trains(self, monkeypatch):
        # 3,300 places of 28 x 28, kappa 1 and K = 1000: 10.3 GB of float32 weights.
        monkeypatch.setattr(ensemble, "train_experts", lambda *a: pytest.fail("an expert trained"))
        reference = np.broadcast_to(np.float64(0.0), (1, 3300, 28, 28))   # no pixels allocated
        cfg = tiny_expert_cfg(n_excitatory=1000, places_per_expert=1)
        with pytest.raises(ConfigError, match="10348800000-byte weight stack"):
            train_ensemble(reference, cfg, tiny_sim(), tiny_encoding(), PatchNormConfig(), 0)

    def test_a_stack_at_the_bound_trains(self, monkeypatch):
        textures = tiny_textures(4, seed=20)[None]   # two experts of 6 neurons on 8 x 8
        cfg = tiny_expert_cfg(n_excitatory=6, epochs=1, record_last_epochs=1)
        args = (textures, cfg, tiny_sim(), tiny_encoding(), PatchNormConfig(), 0)
        monkeypatch.setattr(ensemble, "MAX_STACK_BYTES", 8 * 8 * 2 * 6 * 4)
        assert train_ensemble(*args).weights.nbytes == ensemble.MAX_STACK_BYTES
        monkeypatch.setattr(ensemble, "MAX_STACK_BYTES", 8 * 8 * 2 * 6 * 4 - 1)
        with pytest.raises(ConfigError, match="weight stack"):
            train_ensemble(*args)

    # Each table rule: one cell of the tables, the same cell of a saved manifest,
    # and the message that both the constructor and the loader refuse it with.
    # The place count and the flags are computed, so only a manifest can hold a
    # copy that disagrees: the constructor has no field to refuse (table None).
    @pytest.mark.parametrize("table, index, value, key, message", [
        (None, (), 7, ("place_count",), "experts cover 6 places, expected 7"),
        ("region_places", (2,), 0, ("experts", 2, "n_places"),
         "expert 2 holds 0 places; a region holds at least one"),
        ("thresholds", (1, 2), math.nan, ("experts", 1, "theta_adapt_mv", 2),
         "expert 1 holds non-finite thresholds or weights"),
        ("assignments", (2, 0), 2, ("experts", 2, "assignments", 0),
         r"expert 2 assigns a neuron outside its places \[-1, 2\)"),
        (None, (), True, ("experts", 0, "hyperactive", 1),
         "expert 0's hyperactive flags are not those theta=None gives its reference totals"),
    ], ids=["tiling", "region", "finite", "assignment", "flags"])
    def test_tables_the_loader_refuses_are_refused_with_its_message(
        self, tmp_path, table, index, value, key, message,
    ):
        model = synthetic_ensemble(3, n_excitatory=4, places_per_expert=2, seed=1)
        if table is not None:
            changed = getattr(model, table).copy()
            changed[index] = value
            with pytest.raises(ConfigError, match=message):
                dataclasses.replace(model, **{table: changed})
        save_ensemble(model, tmp_path / "arch")
        manifest_path = tmp_path / "arch" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        owner = manifest
        for name in key[:-1]:
            owner = owner[name]
        owner[key[-1]] = value
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ArchiveError, match=message):
            load_ensemble(tmp_path / "arch")

    # 16 one-place regions of 28 x 28 at K = 100 make a 4.79 MiB stack.  The bounds
    # are the peaks of per-expert training records, rounded up: 3.06 stacks at
    # GROUP_SIZE 32 (a group's float64 weights and their float32 copies) and 2.02
    # at 4 (the per-expert copies and their stack).
    @pytest.mark.parametrize("group_size, stacks", [(32, 3.07), (4, 2.02)])
    def test_training_peaks_at_no_more_stacks_than_before(self, monkeypatch, group_size, stacks):
        monkeypatch.setattr(expert, "GROUP_SIZE", group_size)
        reference = make_textures(16, (28, 28), seed=2)[None]
        cfg = ExpertConfig(n_excitatory=100, places_per_expert=1, epochs=1, record_last_epochs=1)
        encoding = EncodingConfig(presentation_ms=5.0, min_output_spikes=0)
        tracemalloc.start()
        try:
            model = train_ensemble(reference, cfg, SimulationParams.defaults(), encoding,
                                   PatchNormConfig(), 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.weights.nbytes == 784 * 16 * 100 * 4
        assert peak <= stacks * model.weights.nbytes


class TestBlocks:
    """A block of trains answers each train as if it were alone."""

    @settings(max_examples=30, deadline=None)
    @given(
        n_images=st.integers(1, 5),
        n_experts=st.integers(1, 4),
        n_excitatory=st.integers(1, 20),
        wide_weights=st.booleans(),
        max_rate_hz=st.floats(20.0, 600.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_rows_equal_each_train_alone(
        self, n_images, n_experts, n_excitatory, wide_weights, max_rate_hz, seed
    ):
        rng = np.random.default_rng(seed)
        sim = tiny_sim()
        encoding = tiny_encoding(presentation_ms=100.0, max_rate_hz=max_rate_hz)
        shape = (64, n_excitatory)
        experts = [
            ExpertModel(
                # wide weights span 60 binades, so float64 sums depend on their order
                weights=(2.0 ** rng.uniform(-60, 1, size=shape) if wide_weights
                         else rng.uniform(0.0, 1.0, size=shape)).astype(np.float32),
                theta=rng.uniform(0.01, 5.0, size=n_excitatory),
                assignments=np.zeros(n_excitatory, dtype=np.int64),
                global_start=i,
                n_places=1,
            )
            for i in range(n_experts)
        ]
        trains = [
            poisson_encode(rng.uniform(size=(8, 8)), encoding, seed + b) for b in range(n_images)
        ]
        rows = respond_stacked(experts, trains, sim, encoding)
        assert rows.shape == (n_images, n_experts, n_excitatory)
        for row, train in zip(rows, trains):
            np.testing.assert_array_equal(row, respond_stacked(experts, [train], sim, encoding)[0])
            for counts, expert in zip(row, experts):
                alone = expert.build_network(sim, encoding)
                np.testing.assert_array_equal(
                    counts, alone.present(train, learn=False, run_rest=False)
                )

    def test_block_size_does_not_change_results(self, monkeypatch):
        model = synthetic_ensemble(2, n_excitatory=30, places_per_expert=5, seed=3)
        reference = make_textures(10, (28, 28), 6)[None]
        queries = make_textures(7, (28, 28), 7)
        respond = ensemble.expert_respond
        results = {}
        for block_state in (1, 10**9):
            blocks = []

            def counting_respond(weights, theta, trains, *args):
                blocks.append(len(trains))
                return respond(weights, theta, trains, *args)

            monkeypatch.setattr(ensemble, "BLOCK_STATE", block_state)
            monkeypatch.setattr(ensemble, "expert_respond", counting_respond)
            detect_hyperactive(model, reference, None)
            rows = collect_query_responses(model, queries, query_id_base=4)
            results[block_state] = ([ex.reference_totals for ex in model.experts], rows, blocks)
        (totals_1, rows_1, blocks_1), (totals_all, rows_all, blocks_all) = results.values()
        assert blocks_1 == [1] * 17 and blocks_all == [10, 7]
        np.testing.assert_array_equal(totals_1, totals_all)
        np.testing.assert_array_equal(rows_1, rows_all)

    def test_zero_queries_keep_the_neuron_axis(self):
        model = synthetic_ensemble(2, n_excitatory=30, places_per_expert=5)
        rows = collect_query_responses(model, np.zeros((0, 28, 28)))
        assert rows.shape == (0, 2, 30)
        records, _ = neuron_precision_analysis(model, rows, np.zeros(0, dtype=np.int64))
        assert records == []


class TestBenchmark:
    def test_empty_size_list_gives_empty_table(self):
        from snnplace.synthetic import query_time_benchmark

        assert query_time_benchmark([]) == []
