"""Every config dataclass checks its own invariants when it is built."""

import dataclasses
import math
import os

import numpy as np
import pytest

from snnplace.calibration import CalibrationGrids
from snnplace.config import ImageConfig, RunConfig, from_json, to_json
from snnplace.errors import ConfigError, SnnPlaceError
from snnplace.expert import ExpertConfig
from snnplace.imaging import MAX_PEAK_SPIKES, EncodingConfig, PatchNormConfig, poisson_encode
from snnplace.network import (
    ExpertNetwork,
    FixedWiring,
    HomeostasisParams,
    LifParams,
    SimulationParams,
    StdpParams,
    SynapseMatrix,
    UninhibitedLifParams,
)
from snnplace.synthetic import make_textures, synthetic_ensemble

# One valid config and one field that breaks it; the RunConfig rows break
# its own fields and its two cross-field rules.
ONE_BAD_FIELD = [
    (LifParams.excitatory_defaults(), "tau_ms", 0.0),
    (UninhibitedLifParams.inhibitory_defaults(), "v_reset_mv", -30.0),
    (HomeostasisParams(), "theta_plus_mv", -0.05),
    (StdpParams(), "w_max", 0.0),
    (FixedWiring(), "w_inh_to_exc", -1.0),
    (SimulationParams.defaults(), "dt_ms", 0.0),
    (PatchNormConfig(), "epsilon", 0.0),
    (EncodingConfig(), "presentation_ms", float("nan")),
    (EncodingConfig(), "retry_boost_hz", -100.0),   # a retry would draw at a negative rate
    (EncodingConfig(), "max_retries", 10**400),     # past any float: no peak rate to check
    (ExpertConfig(), "n_excitatory", 10),
    (ExpertConfig(), "places_per_expert", 0),
    (ImageConfig(), "width", 0),
    (CalibrationGrids(), "tau_gi_grid", ()),
    (CalibrationGrids(), "theta_grid", (-5.0,)),
    (RunConfig(), "seed", -1),
    (RunConfig(), "image", ImageConfig(width=30, height=28)),   # 30 is not a multiple of 7
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


def test_the_peak_spike_bound_is_inclusive():
    from snnplace.imaging import MAX_PEAK_SPIKES

    # 2.5 MHz for 400 ms draws exactly MAX_PEAK_SPIKES spikes per input.
    rates = {"max_rate_hz": 2500.0 * 1000, "retry_boost_hz": 0.0, "presentation_ms": 400.0}
    EncodingConfig(**rates)
    with pytest.raises(ConfigError, match=f"more than {MAX_PEAK_SPIKES} spikes per input"):
        EncodingConfig(**{**rates, "max_rate_hz": 2500.0 * 1000 + 1})
    for encoding in ({"max_rate_hz": 1e308}, {"retry_boost_hz": 1e300, "max_retries": 10**6},
                     {"presentation_ms": 1e308}):
        with pytest.raises(ConfigError, match="spikes per input"):
            EncodingConfig(**encoding)

def test_with_tau_gi_is_checked():
    with pytest.raises(ConfigError, match="tau_gi_ms"):
        SimulationParams.defaults().with_tau_gi(0.0)


def test_presentation_lasts_at_least_one_step():
    def run_config(presentation_ms, dt_ms):
        return RunConfig(
            encoding=EncodingConfig(presentation_ms=presentation_ms),
            simulation=dataclasses.replace(SimulationParams.defaults(), dt_ms=dt_ms),
        )

    for presentation_ms, dt_ms in ((0.25, 0.5), (1e-4, 10.0)):  # round(0.5) == 0
        with pytest.raises(ConfigError, match="at least one step"):
            run_config(presentation_ms, dt_ms)
    run_config(0.26, 0.5)  # round(0.52) == 1 step


def test_a_window_lasts_at_most_max_window_steps():
    # Each would loop or allocate per step: 2e300 rest steps, 3.5e6 presentation steps.
    defaults = SimulationParams.defaults()
    with pytest.raises(ConfigError, match="rest_ms"):
        RunConfig(encoding=EncodingConfig(rest_ms=1e300))
    with pytest.raises(ConfigError, match="presentation_ms"):
        RunConfig(simulation=dataclasses.replace(defaults, dt_ms=1e-4))


def test_the_step_cap_is_inclusive():
    from snnplace.network import MAX_WINDOW_STEPS

    window = MAX_WINDOW_STEPS * 0.5  # dt_ms 0.5 divides it exactly
    RunConfig(encoding=EncodingConfig(presentation_ms=window, rest_ms=window))
    for name in ("presentation_ms", "rest_ms"):
        with pytest.raises(ConfigError, match=name):
            RunConfig(encoding=EncodingConfig(**{name: window + 0.5}))


def test_an_oversized_expert_is_rejected():
    # By the code, train would ask numpy for terabytes; only the config is built here.
    with pytest.raises(ConfigError, match="n_excitatory"):
        RunConfig(expert=ExpertConfig(n_excitatory=10**9))
    with pytest.raises(ConfigError, match="n_excitatory"):
        RunConfig(image=ImageConfig(width=28 * 40, height=28 * 40))


def test_the_group_weight_bound_is_inclusive():
    from snnplace.config import MAX_GROUP_WEIGHT_BYTES
    from snnplace.expert import GROUP_SIZE

    # 15 x 1 images give 16 rows per expert; the bound is a whole number of neurons of them.
    per_neuron = GROUP_SIZE * 16 * 8
    neurons = MAX_GROUP_WEIGHT_BYTES // per_neuron
    assert neurons * per_neuron == MAX_GROUP_WEIGHT_BYTES
    small = dict(image=ImageConfig(width=15, height=1),
                 patch=PatchNormConfig(patch_width=1, patch_height=1))
    RunConfig(expert=ExpertConfig(n_excitatory=neurons), **small)
    with pytest.raises(ConfigError, match=str(MAX_GROUP_WEIGHT_BYTES)):
        RunConfig(expert=ExpertConfig(n_excitatory=neurons + 1), **small)
    assert RunConfig().expert.n_excitatory * GROUP_SIZE * 785 * 8 < 81 * 10**6


def test_input_count_follows_the_image():
    assert RunConfig(image=ImageConfig(width=14, height=14)).image_size == (14, 14)


def test_workers_are_capped_at_the_usable_cores(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert RunConfig(workers=0).effective_workers() == 2
    assert RunConfig(workers=10**6).effective_workers() == 2
    assert RunConfig(workers=1).effective_workers() == 1


def test_workers_fall_back_to_the_cpu_count_without_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert RunConfig(workers=0).effective_workers() == 3
    assert RunConfig(workers=5).effective_workers() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert RunConfig(workers=0).effective_workers() == 1


def test_inhibitory_layer_takes_no_g_i_constants():
    with pytest.raises(ConfigError, match="lif_inhibitory"):
        dataclasses.replace(
            SimulationParams.defaults(), lif_inhibitory=LifParams.excitatory_defaults()
        )
    sim = SimulationParams.defaults().with_tau_gi(2.0)
    assert sim.lif_excitatory.tau_gi_ms == 2.0
    assert sim.lif_inhibitory == UninhibitedLifParams.inhibitory_defaults()


def test_initial_weights_may_not_exceed_w_max():
    # Above w_max, the first STDP update takes a fractional power of a negative base.
    defaults = SimulationParams.defaults()
    with pytest.raises(ConfigError, match=r"weight_init_max \(2.0\) .*stdp.w_max \(1.0\)"):
        dataclasses.replace(defaults, weight_init_max=2.0)
    with pytest.raises(ConfigError, match="weight_init_max"):
        dataclasses.replace(defaults, stdp=StdpParams(w_max=0.29))
    assert dataclasses.replace(defaults, weight_init_max=1.0).weight_init_max == defaults.stdp.w_max


# Every key of the config file, as a dotted path.  Adding or removing one is a
# change to the file format: update the README's config paragraph with it.
CONFIG_KEYS = [
    "calibration.tau_gi_grid", "calibration.theta_grid",
    "encoding.max_rate_hz", "encoding.max_retries", "encoding.min_output_spikes",
    "encoding.presentation_ms", "encoding.rest_ms", "encoding.retry_boost_hz",
    "expert.epochs", "expert.n_excitatory", "expert.places_per_expert",
    "expert.record_last_epochs",
    "image.height", "image.width",
    "patch.epsilon", "patch.patch_height", "patch.patch_width",
    "seed",
    "simulation.dt_ms",
    "simulation.homeostasis.theta_decay_ms", "simulation.homeostasis.theta_plus_mv",
    "simulation.lif_excitatory.e_exc_mv", "simulation.lif_excitatory.e_inh_mv",
    "simulation.lif_excitatory.e_rest_mv", "simulation.lif_excitatory.refractory_ms",
    "simulation.lif_excitatory.tau_ge_ms", "simulation.lif_excitatory.tau_gi_ms",
    "simulation.lif_excitatory.tau_ms", "simulation.lif_excitatory.v_reset_mv",
    "simulation.lif_excitatory.v_thresh_mv",
    "simulation.lif_inhibitory.e_exc_mv", "simulation.lif_inhibitory.e_rest_mv",
    "simulation.lif_inhibitory.refractory_ms", "simulation.lif_inhibitory.tau_ge_ms",
    "simulation.lif_inhibitory.tau_ms", "simulation.lif_inhibitory.v_reset_mv",
    "simulation.lif_inhibitory.v_thresh_mv",
    "simulation.stdp.learning_rate", "simulation.stdp.trace_target",
    "simulation.stdp.trace_tau_ms", "simulation.stdp.w_max", "simulation.stdp.weight_exponent",
    "simulation.weight_init_max", "simulation.weight_norm_enabled",
    "simulation.weight_norm_target",
    "simulation.wiring.w_exc_to_inh", "simulation.wiring.w_inh_to_exc",
    "workers",
]


def key_paths(node, prefix=""):
    """Dotted paths to every non-object value of a JSON object."""
    for key, value in node.items():
        if isinstance(value, dict):
            yield from key_paths(value, f"{prefix}{key}.")
        else:
            yield prefix + key


def test_config_file_schema_is_pinned():
    assert len(CONFIG_KEYS) == 48
    assert sorted(key_paths(to_json(RunConfig()))) == CONFIG_KEYS


# Values that a hand-edited config file or archive manifest may hold where a
# number, flag or list belongs: each must decode or raise a SnnPlaceError.
ADVERSARIAL = [
    None, "", "abc", [], [1.0], {}, {"a": 1}, True, False, 0, -1, 0.5,
    1e308, -1e308, float("nan"), float("inf"), float("-inf"), 10**30, -(10**30),
    2**63, 2.35e154, 1e-300,
]


def present_briefly(cfg: RunConfig) -> np.ndarray:
    """Frozen presentation and rest of a one-expert ensemble under ``cfg``, 20 steps each.

    20 steps of 0.5 ms hold excitatory spikes and the inhibition they trigger.
    """
    window = 20 * cfg.simulation.dt_ms
    encoding = dataclasses.replace(cfg.encoding,
                                   presentation_ms=min(cfg.encoding.presentation_ms, window),
                                   rest_ms=min(cfg.encoding.rest_ms, window))
    model = synthetic_ensemble(1, n_excitatory=4, sim=cfg.simulation, encoding=encoding)
    net = ExpertNetwork(SynapseMatrix(model.weights[:, 0]), model.sim, encoding,
                        theta=model.thresholds[0])
    return net.present(poisson_encode(make_textures(1)[0], encoding, seed=0), learn=False)


@pytest.mark.parametrize("key", CONFIG_KEYS)
def test_every_key_decodes_or_raises_snnplace_error_for_any_value(key):
    """A value either fails to decode or runs the step; RuntimeWarnings are errors."""
    *sections, name = key.split(".")
    for value in ADVERSARIAL:
        data = to_json(RunConfig())
        owner = data
        for section in sections:
            owner = owner[section]
        owner[name] = value
        try:
            cfg = from_json(RunConfig, data, "config")  # a decoded size builds no array
        except SnnPlaceError:
            continue
        present_briefly(cfg)


def test_a_value_past_its_range_is_named_with_its_range():
    data = to_json(RunConfig())
    data["simulation"]["lif_excitatory"]["tau_ms"] = 1e-300
    with pytest.raises(ConfigError, match=r"in 'config.simulation.lif_excitatory': tau_ms "
                                          r"must lie in \[0.001, 1e\+06\], got 1e-300"):
        from_json(RunConfig, data, "config")
    with pytest.raises(ConfigError, match=r"tau_gi_grid\[1\] must lie in"):
        CalibrationGrids(tau_gi_grid=(0.5, 0.0))


def corner_sim(tau_g_ms: float) -> SimulationParams:
    """The constants at the corner of their ranges that drives the state hardest.

    The largest weights, potentials, dt_ms and threshold step, and the shortest
    membrane and refractory time constants; the conductances and traces decay
    with ``tau_g_ms``: the shortest (no pile-up) or the longest (the most).
    """
    lif = dict(tau_ms=1e-3, e_rest_mv=0.0, e_exc_mv=1e3, v_thresh_mv=1e3, v_reset_mv=-1e3,
               refractory_ms=1e-3, tau_ge_ms=tau_g_ms)
    return SimulationParams(
        lif_excitatory=LifParams(**lif, e_inh_mv=-1e3, tau_gi_ms=tau_g_ms),
        lif_inhibitory=UninhibitedLifParams(**lif),
        homeostasis=HomeostasisParams(theta_plus_mv=1e3, theta_decay_ms=math.inf),
        stdp=StdpParams(learning_rate=1e3, trace_target=0.0, w_max=1e3, weight_exponent=10.0,
                        trace_tau_ms=tau_g_ms),
        wiring=FixedWiring(w_exc_to_inh=1e3, w_inh_to_exc=1e3),
        dt_ms=10.0, weight_norm_target=1e6, weight_init_max=1e3,
    )


@pytest.mark.parametrize("learn", [False, True], ids=["frozen", "learning"])
@pytest.mark.parametrize("tau_g_ms", [1e-3, 1e6])
def test_the_corner_of_the_ranges_runs_a_full_presentation(tau_g_ms, learn):
    """Every input draws its peak of MAX_PEAK_SPIKES; RuntimeWarnings are errors."""
    sim = corner_sim(tau_g_ms)
    encoding = EncodingConfig(max_rate_hz=MAX_PEAK_SPIKES * 1000 / 350.0, presentation_ms=350.0,
                              rest_ms=150.0, retry_boost_hz=0.0, min_output_spikes=0)
    RunConfig(simulation=sim, encoding=encoding)  # within every rule
    train = poisson_encode(np.ones((1, 2)), encoding, seed=0)
    if learn:
        net = ExpertNetwork.learning_group(2, 4, [1], sim, encoding)
        counts = net.present([train], learn=True)
    else:
        net = ExpertNetwork(SynapseMatrix(np.full((2, 4), 1e3)), sim, encoding)
        counts = net.present(train, learn=False)
    assert counts.sum() > 0
    for state in (net.exc, net.inh):
        for array in (state.v, state.g_e, state.g_i, state.theta, state.refractory):
            assert array is None or np.isfinite(array).all()
    assert np.isfinite(net.syn.w).all() and np.isfinite(net.syn.pre_trace).all()
