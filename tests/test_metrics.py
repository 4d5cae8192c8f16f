"""Metrics, PR sweeps, per-neuron precision, and the pixel-difference baseline."""

import numpy as np
import pytest

from snnplace.ensemble import MatchResult, apply_threshold
from snnplace.errors import ConfigError
from snnplace.expert import UNASSIGNED
from snnplace.metrics import (
    NeuronPrecisionRecord,
    neuron_precision_analysis,
    pr_curve,
    precision_at_100_recall,
    recall_at_n,
    sad_distance,
    sad_match,
)
from tests.conftest import handmade_ensemble


def record(truth, ranking, scores=None):
    ranking = np.asarray(ranking)
    if scores is None:
        scores = np.arange(len(ranking), 0, -1)
    return MatchResult(place_ids=ranking, scores=np.asarray(scores), truth=truth)


class TestPrecisionRecall:
    def test_all_correct(self):
        records = [record(t, [t, (t + 1) % 4]) for t in range(4)]
        assert precision_at_100_recall(records) == 1.0

    def test_half_correct(self):
        records = [
            record(0, [0, 1]), record(1, [1, 0]),
            record(2, [0, 2]), record(3, [0, 3]),
        ]
        assert precision_at_100_recall(records) == 0.5

    def test_empty_records_rejected(self):
        with pytest.raises(ConfigError):
            precision_at_100_recall([])

    def test_recall_at_n_hand_case(self):
        records = [record(0, [2, 1, 0]), record(0, [0, 1, 2])]
        assert recall_at_n(records, 1) == 0.5
        assert recall_at_n(records, 3) == 1.0

    def test_recall_at_full_depth_is_one(self):
        rng = np.random.default_rng(0)
        records = [record(int(rng.integers(0, 6)), rng.permutation(6)) for _ in range(20)]
        assert recall_at_n(records, 6) == 1.0

    def test_recall_monotone_in_n(self):
        rng = np.random.default_rng(1)
        records = [record(int(rng.integers(0, 8)), rng.permutation(8)) for _ in range(30)]
        values = [recall_at_n(records, n) for n in range(1, 9)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_invalid_n_rejected(self):
        with pytest.raises(ConfigError):
            recall_at_n([record(0, [0])], 0)

    def test_p100r_equals_recall_at_1(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n_places = int(rng.integers(2, 10))
            records = [
                record(int(rng.integers(0, n_places)), rng.permutation(n_places))
                for _ in range(int(rng.integers(1, 20)))
            ]
            assert precision_at_100_recall(records) == recall_at_n(records, 1)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        records = [record(int(rng.integers(0, 5)), rng.permutation(5)) for _ in range(25)]
        shuffled = [records[i] for i in rng.permutation(len(records))]
        assert precision_at_100_recall(records) == precision_at_100_recall(shuffled)


class TestPrCurve:
    def test_all_correct_constant_precision(self):
        records = [record(0, [0, 1], scores=[s, 0]) for s in (5, 9, 2)]
        points = pr_curve(records)
        assert all(precision == 1.0 for _, precision, _ in points)

    def test_two_point_hand_sweep(self):
        # scores: correct query at 10, wrong query at 5
        records = [record(0, [0, 1], scores=[10, 0]), record(0, [1, 0], scores=[5, 0])]
        points = pr_curve(records)
        assert points[0] == (10.0, 1.0, 0.5)
        assert points[1] == (5.0, 0.5, 0.5)

    def test_order_invariance(self):
        rng = np.random.default_rng(4)
        records = [
            record(int(rng.integers(0, 3)), rng.permutation(3),
                   scores=sorted(rng.integers(0, 20, size=3), reverse=True))
            for _ in range(30)
        ]
        shuffled = [records[i] for i in rng.permutation(len(records))]
        assert pr_curve(records) == pr_curve(shuffled)

    def test_endpoint_precision_equals_p100r(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            records = [
                record(int(rng.integers(0, 4)), rng.permutation(4),
                       scores=sorted(rng.integers(0, 15, size=4), reverse=True))
                for _ in range(int(rng.integers(1, 25)))
            ]
            points = pr_curve(records)
            assert points[-1][1] == precision_at_100_recall(records)

    def test_thresholds_descend(self):
        rng = np.random.default_rng(6)
        records = [
            record(0, [0, 1], scores=[int(rng.integers(0, 30)), 0]) for _ in range(40)
        ]
        points = pr_curve(records)
        thresholds = [t for t, _, _ in points]
        assert thresholds == sorted(thresholds, reverse=True)


class TestNeuronPrecision:
    def _model(self):
        return handmade_ensemble(
            assignments_per_expert=[[0, 1, UNASSIGNED]],
            places_per_expert=2,
        )

    def test_pure_responder_has_precision_one(self):
        model = self._model()
        # neuron 0 fires exactly on queries of its place 0
        responses = np.array([[[3, 0, 0]], [[0, 2, 0]]])  # (2 queries, 1 expert, 3)
        records, summary = neuron_precision_analysis(model, responses, [0, 1])
        by_neuron = {r.neuron: r for r in records}
        assert by_neuron[0].precision == 1.0
        assert by_neuron[1].precision == 1.0
        assert summary["n_unassigned"] == 1

    def test_ratio_oracle(self):
        model = self._model()
        # neuron 0: fires on 10 queries, 3 of which are its own place
        fires = np.zeros((10, 1, 3), dtype=int)
        fires[:, 0, 0] = 1
        truths = [0, 0, 0] + [1] * 7
        records, _ = neuron_precision_analysis(model, fires, truths)
        by_neuron = {r.neuron: r for r in records}
        assert by_neuron[0].fired_correct == 3
        assert by_neuron[0].fired_total == 10
        assert abs(by_neuron[0].precision - 0.3) < 1e-12

    def test_silent_neuron_excluded_and_counted(self):
        model = self._model()
        responses = np.zeros((4, 1, 3), dtype=int)
        records, summary = neuron_precision_analysis(model, responses, [0, 1, 0, 1])
        assert records == []
        assert summary["n_never_fired"] == 2  # two assigned neurons never fired
        assert summary["n_unassigned"] == 1

    def test_group_split_follows_flags(self):
        model = self._model()
        model.reference_totals[:] = [[9, 2, 9]]
        apply_threshold(model, 5)
        assert model.hyperactive.tolist() == [[True, False, True]]
        fires = np.ones((4, 1, 3), dtype=int)
        records, summary = neuron_precision_analysis(model, fires, [0, 1, 0, 1])
        assert summary["hyperactive"]["n"] == 1
        assert summary["non_hyperactive"]["n"] == 1


def neuron_precision_oracle(model, responses, truths):
    """Per-neuron precision, one neuron at a time, with the summary spelled out."""
    truths = np.asarray(truths)
    records = []
    n_never_fired = 0
    n_unassigned = 0
    for i, expert in enumerate(model.experts):
        fired = responses[:, i, :] > 0
        for e in range(model.assignments.shape[1]):
            if expert.assignments[e] == UNASSIGNED:
                n_unassigned += 1
                continue
            total = int(fired[:, e].sum())
            if total == 0:
                n_never_fired += 1
                continue
            place = expert.global_start + int(expert.assignments[e])
            correct = int((fired[:, e] & (truths == place)).sum())
            records.append(NeuronPrecisionRecord(
                expert=i, neuron=e, assigned_place=place,
                hyperactive=bool(expert.hyperactive[e]),
                fired_correct=correct, fired_total=total,
            ))
    summary = {"n_never_fired": n_never_fired, "n_unassigned": n_unassigned}
    for label, hot in (("hyperactive", True), ("non_hyperactive", False)):
        group = [r.precision for r in records if r.hyperactive == hot]
        summary[label] = {"n": len(group)}
        if group:
            q1, q2, q3 = np.percentile(group, [25, 50, 75])
            summary[label].update(mean=float(np.mean(group)), q1=float(q1),
                                  median=float(q2), q3=float(q3))
    return records, summary


class TestNeuronPrecisionOracle:
    def test_matches_the_per_neuron_loop(self):
        rng = np.random.default_rng(23)
        field_types = {"expert": int, "neuron": int, "assigned_place": int,
                       "hyperactive": bool, "fired_correct": int, "fired_total": int}
        for _ in range(300):
            n_experts = int(rng.integers(1, 6))
            k = int(rng.integers(1, 10))
            places_per = int(rng.integers(1, 5))
            assignments = [rng.integers(UNASSIGNED, places_per, size=k)
                           for _ in range(n_experts)]
            totals = [rng.integers(0, 40, size=k) for _ in range(n_experts)]
            model = handmade_ensemble(assignments, totals_per_expert=totals,
                                      places_per_expert=places_per)
            apply_threshold(model, int(rng.integers(0, 45)))   # 0: the filter is off
            n_queries = int(rng.integers(0, 21))
            silent = rng.random((n_queries, n_experts, k)) < rng.random()
            responses = np.where(silent, 0, rng.integers(1, 5, size=silent.shape))
            truths = rng.integers(0, model.place_count, size=n_queries)
            records, summary = neuron_precision_analysis(model, responses, truths)
            expected_records, expected_summary = neuron_precision_oracle(model, responses, truths)
            assert records == expected_records
            assert summary == expected_summary
            for r in records:
                assert {name: type(getattr(r, name)) for name in field_types} == field_types


class TestSad:
    def test_identical_image_wins_with_zero_distance(self):
        rng = np.random.default_rng(7)
        refs = rng.uniform(size=(5, 6, 6))
        places, dists = sad_match(refs[3], refs)
        assert places[0] == 3
        assert dists[0] == 0.0

    def test_two_pixel_hand_case(self):
        query = np.array([[0.0, 1.0]])
        refs = np.array([[[0.0, 1.0]], [[1.0, 0.0]]])
        places, dists = sad_match(query, refs)
        np.testing.assert_array_equal(places, [0, 1])
        np.testing.assert_allclose(dists, [0.0, 2.0])

    def test_multi_traverse_takes_per_place_minimum(self):
        query = np.array([[0.5, 0.5]])
        refs = np.array([
            [[[0.5, 0.5]], [[0.0, 0.0]]],   # traverse 0
            [[[0.9, 0.9]], [[0.5, 0.6]]],   # traverse 1
        ])
        places, dists = sad_match(query, refs)
        np.testing.assert_array_equal(places, [0, 1])
        np.testing.assert_allclose(dists, [0.0, 0.1])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            sad_match(np.zeros((2, 2)), np.zeros((3, 4, 4)))
        with pytest.raises(ConfigError):
            sad_distance(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_metric_axioms(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            a, b, c = rng.uniform(-2, 2, size=(3, 4, 4))
            assert sad_distance(a, b) >= 0
            assert sad_distance(a, a) == 0
            assert sad_distance(a, b) == sad_distance(b, a)
            assert sad_distance(a, c) <= sad_distance(a, b) + sad_distance(b, c) + 1e-12
            if sad_distance(a, b) == 0:
                np.testing.assert_array_equal(a, b)
