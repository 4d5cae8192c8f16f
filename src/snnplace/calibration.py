"""Hyperparameter calibration: grid search over (tau_gi, theta).

The search trains one small ensemble per inhibitory-conductance time
constant on a calibration place range that is geographically disjoint
from the test range, then scores every threshold value against the
calibration queries.  Thresholding is post-hoc — it only re-flags neurons
from cached reference totals — so each trained ensemble is reused across
the whole theta axis, and sweeping a threshold over cached query
responses is exactly equal to a fresh detect-and-evaluate run.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from .ensemble import (
    EnsembleModel,
    collect_query_responses,
    detect_hyperactive,
    flags_for_theta,
    train_ensemble,
)
from .errors import ConfigError, check_ranges, ranged
from .expert import ExpertConfig
from .imaging import EncodingConfig, PatchNormConfig, derive_seed
from .metrics import precision_at_100_recall, records_from_responses, write_csv, write_json
from .network import TIME_MS, SimulationParams

DEFAULT_TAU_GI_GRID = (0.5, 1.0, 2.0, 4.0)
DEFAULT_THETA_GRID = tuple(float(t) for t in range(20, 201, 20))


@dataclass(frozen=True)
class CalibrationGrids:
    """The (tau_gi, theta) grids of a search; the config file's defaults for ``calibrate``."""

    # Each value becomes lif_excitatory.tau_gi_ms, so it takes that field's range.
    tau_gi_grid: tuple[float, ...] = ranged(*TIME_MS, default=DEFAULT_TAU_GI_GRID)
    theta_grid: tuple[float, ...] = DEFAULT_THETA_GRID

    def __post_init__(self) -> None:
        if not self.tau_gi_grid or not self.theta_grid:
            raise ConfigError("calibration grids must be non-empty")
        check_ranges(self)
        if None in self.theta_grid:
            raise ConfigError("theta grid values must be numbers (0 disables the filter)")
        for theta in self.theta_grid:
            flags_for_theta((), theta)  # ConfigError for an invalid theta


@dataclass
class CalibrationReport:
    """Score matrix over the grid and the selected cell."""

    tau_gi_grid: tuple[float, ...]
    theta_grid: tuple[float, ...]
    scores: np.ndarray          # (n_tau, n_theta) precision at 100% recall
    cell_seconds: np.ndarray    # scoring time per cell
    chosen_tau_gi: float
    chosen_theta: float

    def write_csv(self, path: str | os.PathLike) -> None:
        write_csv(path, ["tau_gi_ms", "theta", "p_at_100r", "cell_seconds"], (
            [tau, theta, self.scores[i, j], self.cell_seconds[i, j]]
            for i, tau in enumerate(self.tau_gi_grid)
            for j, theta in enumerate(self.theta_grid)
        ))

    def write_chosen_json(self, path: str | os.PathLike) -> None:
        write_json(path, {"tau_gi_ms": self.chosen_tau_gi, "theta": self.chosen_theta})


def _select(scores: np.ndarray, taus, thetas) -> tuple[float, float]:
    """Argmax cell; ties prefer the smaller theta, then the smaller tau_gi."""
    _, theta, tau = min((-scores[i, j], theta, tau)
                        for i, tau in enumerate(taus) for j, theta in enumerate(thetas))
    return tau, theta


def run_grid_search(
    grids: CalibrationGrids,
    cal_reference: np.ndarray,
    cal_queries: np.ndarray,
    expert_cfg: ExpertConfig,
    sim: SimulationParams,
    encoding: EncodingConfig,
    patch: PatchNormConfig,
    global_seed: int,
    workers: int = 1,
) -> CalibrationReport:
    """Evaluate every (tau_gi, theta) pair on the calibration split.

    ``cal_reference`` is (n_traverses, n_cal_places, H, W) holding only the
    calibration range, and ``cal_queries`` (n_cal_places, H, W) the same
    range: query k is of place k, local to the range.  One ensemble is
    trained per tau_gi and shared by all theta cells.
    """
    truths = np.arange(len(cal_queries))
    n_tau, n_theta = len(grids.tau_gi_grid), len(grids.theta_grid)
    scores = np.zeros((n_tau, n_theta))
    cell_seconds = np.zeros((n_tau, n_theta))
    for i, tau_gi in enumerate(grids.tau_gi_grid):
        model = train_ensemble(
            cal_reference, expert_cfg, sim.with_tau_gi(tau_gi),
            encoding, patch, derive_cal_seed(global_seed, tau_gi), workers,
        )
        detect_hyperactive(model, cal_reference, None, workers)
        responses = collect_query_responses(model, cal_queries, workers)
        for j, theta in enumerate(grids.theta_grid):
            tick = time.perf_counter()
            scores[i, j] = _score_theta(model, responses, truths, theta)
            cell_seconds[i, j] = time.perf_counter() - tick

    chosen_tau, chosen_theta = _select(scores, grids.tau_gi_grid, grids.theta_grid)
    return CalibrationReport(
        tau_gi_grid=grids.tau_gi_grid,
        theta_grid=grids.theta_grid,
        scores=scores,
        cell_seconds=cell_seconds,
        chosen_tau_gi=chosen_tau,
        chosen_theta=chosen_theta,
    )


def _score_theta(model: EnsembleModel, responses: np.ndarray, truths, theta) -> float:
    """P@100R of cached query responses, ignoring the neurons ``theta`` flags."""
    flags = flags_for_theta(model.reference_totals, theta)
    return precision_at_100_recall(records_from_responses(model, responses, truths, flags))


def derive_cal_seed(global_seed: int, tau_gi: float) -> int:
    """Distinct training seed per tau_gi row (tau encoded in fixed point)."""
    return derive_seed(global_seed, 1000 + int(round(tau_gi * 1000)))


def theta_sweep(
    model: EnsembleModel,
    queries: np.ndarray,
    truths,
    thetas=DEFAULT_THETA_GRID,
    workers: int = 1,
    responses: np.ndarray | None = None,
) -> list[tuple[float, float]]:
    """Precision at 100% recall as a function of the hyperactivity threshold.

    Always evaluates the unfiltered baseline (theta = 0) first, then every
    grid value; responses are simulated once and every threshold is scored
    from that cache.
    """
    if responses is None:
        responses = collect_query_responses(model, queries, workers)
    curve = []
    for theta in [0.0] + [t for t in thetas if t != 0]:
        curve.append((float(theta), _score_theta(model, responses, truths, theta)))
    return curve


def select_theta(curve) -> float:
    """Pick the calibrated threshold from a sweep curve.

    Maximizes precision over the candidate thresholds (the theta = 0
    baseline is not a candidate); ties prefer the smaller threshold.
    """
    candidates = [(-p, theta) for theta, p in curve if theta > 0]
    if not candidates:
        raise ConfigError("sweep curve holds no positive thresholds")
    return min(candidates)[1]


def write_theta_sweep_csv(path: str | os.PathLike, curve) -> None:
    write_csv(path, ["theta", "p_at_100r"], curve)
