"""Grid search, threshold sweeps, and calibration-split hygiene."""

import numpy as np
import pytest

from snnplace.calibration import (
    CalibrationGrids,
    run_grid_search,
    select_theta,
    theta_sweep,
)
from snnplace.ensemble import (
    collect_query_responses,
    detect_hyperactive,
    train_ensemble,
)
from snnplace.errors import ConfigError
from snnplace.imaging import PatchNormConfig
from snnplace.metrics import precision_at_100_recall, records_from_responses
from tests.conftest import (
    handmade_ensemble,
    tiny_encoding,
    tiny_expert_cfg,
    tiny_sim,
    tiny_textures,
)


class TestPlan:
    def test_empty_grids_rejected(self):
        with pytest.raises(ConfigError):
            CalibrationGrids(tau_gi_grid=(), theta_grid=(100.0,))
        with pytest.raises(ConfigError):
            CalibrationGrids(tau_gi_grid=(0.5,), theta_grid=())

    @pytest.mark.parametrize("bad", [-5.0, float("nan"), "abc", True, None])
    def test_invalid_theta_in_grid_rejected(self, bad):
        with pytest.raises(ConfigError, match="theta"):
            CalibrationGrids(tau_gi_grid=(0.5,), theta_grid=(20.0, bad))

    def test_zero_theta_is_a_valid_cell(self):
        CalibrationGrids(tau_gi_grid=(0.5,), theta_grid=(0.0, 20.0))


class TestSelectTheta:
    def test_unique_maximum_wins(self):
        curve = [(0.0, 0.4), (20.0, 0.5), (40.0, 0.9), (60.0, 0.7)]
        assert select_theta(curve) == 40.0

    def test_tie_prefers_smaller_threshold(self):
        curve = [(0.0, 0.9), (20.0, 0.8), (40.0, 0.95), (60.0, 0.95)]
        assert select_theta(curve) == 40.0

    def test_baseline_is_not_a_candidate(self):
        curve = [(0.0, 1.0), (20.0, 0.5)]
        assert select_theta(curve) == 20.0


class TestThetaSweep:
    def _poisoned_model(self):
        # neuron 1 (total 45) fires for every query toward the wrong place;
        # neuron 0 (total 35) is the honest responder for place 1.
        model = handmade_ensemble(
            assignments_per_expert=[[1, 0]],
            totals_per_expert=[[35, 45]],
            places_per_expert=2,
        )
        # queries: truth place 1; honest neuron fires 5, poison fires 9
        responses = np.array([[[5, 9]]] * 4)
        truths = [1, 1, 1, 1]
        return model, responses, truths

    def test_theta_forty_provably_optimal(self):
        model, responses, truths = self._poisoned_model()
        curve = theta_sweep(
            model, queries=None, truths=truths,
            thetas=(20.0, 40.0, 60.0), responses=responses,
        )
        by_theta = dict(curve)
        # theta=20 silences both neurons, theta=60 keeps the poison
        assert by_theta[20.0] == 0.0
        assert by_theta[40.0] == 1.0
        assert by_theta[60.0] == 0.0
        assert select_theta(curve) == 40.0

    def test_flat_curve_for_constant_tables(self):
        model = handmade_ensemble(
            assignments_per_expert=[[0, 1]],
            totals_per_expert=[[10, 10]],
            places_per_expert=2,
        )
        responses = np.array([[[3, 0]]] * 3)
        curve = theta_sweep(model, None, [0, 0, 0], thetas=(20.0, 40.0), responses=responses)
        assert len({p for _, p in curve}) == 1

    def test_invalid_theta_rejected(self):
        model, responses, truths = self._poisoned_model()
        with pytest.raises(ConfigError, match="theta"):
            theta_sweep(model, None, truths, thetas=(20.0, -5.0), responses=responses)

    def test_curve_cardinality_includes_baseline(self):
        model, responses, truths = self._poisoned_model()
        thetas = tuple(float(t) for t in range(10, 101, 10))
        curve = theta_sweep(model, None, truths, thetas=thetas, responses=responses)
        assert len(curve) == 11
        assert curve[0][0] == 0.0


@pytest.fixture(scope="module")
def tiny_world():
    reference = tiny_textures(4, seed=30)[None]
    rng = np.random.default_rng(31)
    queries = np.clip(reference[0] + rng.normal(0, 0.05, reference[0].shape), 0, 1)
    return reference, queries


class TestGridSearchEndToEnd:

    def test_single_cell_grid(self, tiny_world):
        reference, queries = tiny_world
        grids = CalibrationGrids(tau_gi_grid=(0.5,), theta_grid=(100.0,))
        report = run_grid_search(
            grids, reference, queries,
            tiny_expert_cfg(epochs=2, record_last_epochs=1),
            tiny_sim(), tiny_encoding(), PatchNormConfig(),
            global_seed=3,
        )
        assert report.scores.shape == (1, 1)
        assert (report.chosen_tau_gi, report.chosen_theta) == (0.5, 100.0)

    def test_argmax_cell_dominates_and_ties_break_small(self, tiny_world):
        reference, queries = tiny_world
        grids = CalibrationGrids(tau_gi_grid=(0.5, 2.0), theta_grid=(50.0, 100.0))
        report = run_grid_search(
            grids, reference, queries,
            tiny_expert_cfg(epochs=2, record_last_epochs=1),
            tiny_sim(), tiny_encoding(), PatchNormConfig(),
            global_seed=3,
        )
        i = grids.tau_gi_grid.index(report.chosen_tau_gi)
        j = grids.theta_grid.index(report.chosen_theta)
        assert report.scores[i, j] == report.scores.max()
        ties = np.argwhere(report.scores == report.scores.max())
        best = min((grids.theta_grid[jj], grids.tau_gi_grid[ii]) for ii, jj in ties)
        assert (report.chosen_theta, report.chosen_tau_gi) == best

    def test_sweep_equals_fresh_detection_run(self, tiny_world):
        reference, queries = tiny_world
        cfg = tiny_expert_cfg(epochs=2, record_last_epochs=1)
        model = train_ensemble(
            reference, cfg, tiny_sim(), tiny_encoding(), PatchNormConfig(),
            global_seed=9,
        )
        detect_hyperactive(model, reference, None)
        responses = collect_query_responses(model, queries)
        thetas = (1.0, 2.0, 5.0, 50.0)
        curve = dict(theta_sweep(model, queries, np.arange(4), thetas=thetas, responses=responses))
        for theta in thetas:
            fresh = train_ensemble(
                reference, cfg, tiny_sim(), tiny_encoding(), PatchNormConfig(),
                global_seed=9,
            )
            detect_hyperactive(fresh, reference, theta)
            fresh_responses = collect_query_responses(fresh, queries)
            records = records_from_responses(fresh, fresh_responses, np.arange(4))
            assert precision_at_100_recall(records) == curve[theta]

    def test_csv_and_chosen_json_outputs(self, tiny_world, tmp_path):
        reference, queries = tiny_world
        grids = CalibrationGrids(tau_gi_grid=(0.5,), theta_grid=(10.0, 20.0))
        report = run_grid_search(
            grids, reference, queries,
            tiny_expert_cfg(epochs=2, record_last_epochs=1),
            tiny_sim(), tiny_encoding(), PatchNormConfig(),
            global_seed=3,
        )
        report.write_csv(tmp_path / "calibration.csv")
        report.write_chosen_json(tmp_path / "chosen.json")
        lines = (tmp_path / "calibration.csv").read_text().strip().splitlines()
        assert lines[0] == "tau_gi_ms,theta,p_at_100r,cell_seconds"
        assert len(lines) == 3
        import json

        chosen = json.loads((tmp_path / "chosen.json").read_text())
        assert chosen == {"tau_gi_ms": report.chosen_tau_gi, "theta": report.chosen_theta}
