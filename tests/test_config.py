"""Every config dataclass checks its own invariants when it is built."""

import dataclasses

import pytest

from snnplace.calibration import CalibrationGrids, CalibrationPlan
from snnplace.config import ImageConfig, RunConfig
from snnplace.errors import ConfigError
from snnplace.expert import ExpertConfig
from snnplace.imaging import EncodingConfig, PatchNormConfig
from snnplace.network import (
    FixedWiring,
    HomeostasisParams,
    LifParams,
    SimulationParams,
    StdpParams,
)

# One valid config and one field that breaks it; the RunConfig rows break
# its own fields and its three cross-field rules.
ONE_BAD_FIELD = [
    (LifParams.excitatory_defaults(), "tau_ms", 0.0),
    (LifParams.inhibitory_defaults(), "v_reset_mv", -30.0),
    (HomeostasisParams(), "theta_plus_mv", -0.05),
    (StdpParams(), "w_max", 0.0),
    (FixedWiring(), "w_inh_to_exc", -1.0),
    (SimulationParams.defaults(), "dt_ms", 0.0),
    (PatchNormConfig(), "epsilon", 0.0),
    (EncodingConfig(), "presentation_ms", float("nan")),
    (ExpertConfig(), "n_excitatory", 10),
    (ImageConfig(), "width", 0),
    (CalibrationGrids(), "tau_gi_grid", ()),
    (CalibrationPlan(), "theta_grid", (-5.0,)),
    (CalibrationPlan(), "cal_stop", 0),
    (RunConfig(), "seed", -1),
    (RunConfig(), "image", ImageConfig(width=14, height=14)),   # n_inputs != 14 * 14
    (RunConfig(), "patch", PatchNormConfig(patch_width=5)),     # 28 is not a multiple of 5
    (RunConfig(), "encoding", EncodingConfig(presentation_ms=0.2)),  # 0 steps of 0.5 ms
]


@pytest.mark.parametrize(
    "config, name, value", ONE_BAD_FIELD,
    ids=[f"{type(c).__name__}.{name}" for c, name, _ in ONE_BAD_FIELD],
)
def test_building_with_one_bad_field_raises(config, name, value):
    assert dataclasses.replace(config) == config
    with pytest.raises(ConfigError):
        dataclasses.replace(config, **{name: value})


def test_with_tau_gi_is_checked():
    with pytest.raises(ConfigError, match="time constants"):
        SimulationParams.defaults().with_tau_gi(0.0)


def test_presentation_lasts_at_least_one_step():
    def run_config(presentation_ms, dt_ms):
        return RunConfig(
            encoding=EncodingConfig(presentation_ms=presentation_ms),
            simulation=dataclasses.replace(SimulationParams.defaults(), dt_ms=dt_ms),
        )

    for presentation_ms, dt_ms in ((0.25, 0.5), (1e-300, 1e300)):  # round(0.5) == 0
        with pytest.raises(ConfigError, match="at least one step"):
            run_config(presentation_ms, dt_ms)
    run_config(0.26, 0.5)  # round(0.52) == 1 step
