"""Clock-driven simulation of one three-layer spiking network.

Input spikes drive a fully connected excitatory layer through plastic
synapses; each excitatory neuron drives its own inhibitory partner, which
in turn inhibits every other excitatory neuron (winner-take-all).  The
membrane follows conductance-based leaky integrate-and-fire dynamics,

    tau * dV/dt = (E_rest - V) + g_e * (E_exc - V) + g_i * (E_inh - V),

integrated with forward Euler at a fixed step, while both conductances
decay exponentially between spikes.  Plasticity is trace-based: every
postsynaptic spike moves each afferent weight by

    dw = learning_rate * (pre_trace - trace_target) * (w_max - w) ** weight_exponent,

clamped to [0, w_max].  Excitatory thresholds are homeostatic: each spike
raises an adaptive offset that otherwise decays very slowly.

There is no randomness anywhere in this module; all stochasticity lives in
the spike encoder.  One network instance is single-threaded mutable state,
but distinct instances share nothing and may run fully in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .imaging import EncodingConfig, SpikeTrain, derive_seed, poisson_encode


@dataclass(frozen=True)
class LifParams:
    """Leaky integrate-and-fire constants for one layer (mV / ms)."""

    tau_ms: float
    e_rest_mv: float
    e_exc_mv: float
    e_inh_mv: float
    v_thresh_mv: float
    v_reset_mv: float
    refractory_ms: float
    tau_ge_ms: float
    tau_gi_ms: float

    def validate(self) -> None:
        if min(self.tau_ms, self.tau_ge_ms, self.tau_gi_ms, self.refractory_ms) <= 0:
            raise ConfigError("all LIF time constants must be > 0")
        if not self.e_inh_mv < self.e_rest_mv < self.e_exc_mv:
            raise ConfigError("reversal potentials must satisfy E_inh < E_rest < E_exc")
        if self.v_reset_mv > self.v_thresh_mv:
            raise ConfigError("v_reset must not exceed the base threshold")

    @staticmethod
    def excitatory_defaults(tau_gi_ms: float = 0.5) -> "LifParams":
        return LifParams(
            tau_ms=100.0, e_rest_mv=-65.0, e_exc_mv=0.0, e_inh_mv=-100.0,
            v_thresh_mv=-52.0, v_reset_mv=-65.0, refractory_ms=5.0,
            tau_ge_ms=1.0, tau_gi_ms=tau_gi_ms,
        )

    @staticmethod
    def inhibitory_defaults(tau_gi_ms: float = 0.5) -> "LifParams":
        return LifParams(
            tau_ms=10.0, e_rest_mv=-60.0, e_exc_mv=0.0, e_inh_mv=-85.0,
            v_thresh_mv=-40.0, v_reset_mv=-45.0, refractory_ms=2.0,
            tau_ge_ms=1.0, tau_gi_ms=tau_gi_ms,
        )


@dataclass(frozen=True)
class HomeostasisParams:
    """Adaptive-threshold rule: +theta_plus per spike, slow exponential decay."""

    theta_plus_mv: float = 0.05
    theta_decay_ms: float = 1e7

    def validate(self) -> None:
        if self.theta_plus_mv < 0:
            raise ConfigError("theta_plus_mv must be >= 0")
        if self.theta_decay_ms <= 0:
            raise ConfigError("theta_decay_ms must be > 0")


@dataclass(frozen=True)
class StdpParams:
    """Constants of the post-spike weight update."""

    learning_rate: float = 0.01
    trace_target: float = 0.4
    w_max: float = 1.0
    weight_exponent: float = 0.2
    trace_tau_ms: float = 20.0

    def validate(self) -> None:
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        if self.trace_target < 0:
            raise ConfigError("trace_target must be >= 0")
        if self.w_max <= 0:
            raise ConfigError("w_max must be > 0")
        if self.weight_exponent < 0:
            raise ConfigError("weight_exponent must be >= 0")
        if self.trace_tau_ms <= 0:
            raise ConfigError("trace_tau_ms must be > 0")


@dataclass(frozen=True)
class FixedWiring:
    """Constant weights of the winner-take-all circuit."""

    w_exc_to_inh: float = 10.4  # one-to-one drive onto the partner neuron
    w_inh_to_exc: float = 17.0  # applied to every excitatory neuron but the partner

    def validate(self) -> None:
        if self.w_exc_to_inh < 0 or self.w_inh_to_exc < 0:
            raise ConfigError("wiring weights must be >= 0")


@dataclass(frozen=True)
class SimulationParams:
    """Everything needed to integrate one network, bundled for convenience."""

    lif_exc: LifParams
    lif_inh: LifParams
    homeostasis: HomeostasisParams
    stdp: StdpParams
    wiring: FixedWiring
    dt_ms: float = 0.5
    weight_norm_enabled: bool = True
    weight_norm_target: float = 78.0  # per-neuron afferent weight-column sum
    weight_init_max: float = 0.3

    @staticmethod
    def defaults(tau_gi_ms: float = 0.5) -> "SimulationParams":
        return SimulationParams(
            lif_exc=LifParams.excitatory_defaults(tau_gi_ms),
            lif_inh=LifParams.inhibitory_defaults(tau_gi_ms),
            homeostasis=HomeostasisParams(),
            stdp=StdpParams(),
            wiring=FixedWiring(),
        )

    def with_tau_gi(self, tau_gi_ms: float) -> "SimulationParams":
        return replace(
            self,
            lif_exc=replace(self.lif_exc, tau_gi_ms=tau_gi_ms),
            lif_inh=replace(self.lif_inh, tau_gi_ms=tau_gi_ms),
        )

    def validate(self) -> None:
        if self.dt_ms <= 0:
            raise ConfigError("dt_ms must be > 0")
        if self.weight_norm_target <= 0:
            raise ConfigError("weight_norm_target must be > 0")
        if self.weight_init_max < 0:
            raise ConfigError("weight_init_max must be >= 0")
        self.lif_exc.validate()
        self.lif_inh.validate()
        self.homeostasis.validate()
        self.stdp.validate()
        self.wiring.validate()


class LayerState:
    """Per-neuron dynamic variables of one layer."""

    __slots__ = ("v", "g_e", "g_i", "theta", "refractory")

    def __init__(self, v, g_e, g_i, theta, refractory):
        self.v = v
        self.g_e = g_e
        self.g_i = g_i
        self.theta = theta
        self.refractory = refractory

    @staticmethod
    def resting(n: int, params: LifParams, theta: np.ndarray | None = None) -> "LayerState":
        return LayerState(
            v=np.full(n, params.e_rest_mv, dtype=np.float64),
            g_e=np.zeros(n, dtype=np.float64),
            g_i=np.zeros(n, dtype=np.float64),
            theta=np.zeros(n) if theta is None else np.array(theta, dtype=np.float64),
            refractory=np.zeros(n, dtype=np.float64),
        )


class SynapseMatrix:
    """Plastic input->excitatory weights plus per-input presynaptic traces."""

    __slots__ = ("w", "pre_trace")

    def __init__(self, w: np.ndarray, pre_trace: np.ndarray | None = None):
        self.w = np.asarray(w, dtype=np.float64)
        self.pre_trace = (
            np.zeros(self.w.shape[0]) if pre_trace is None
            else np.asarray(pre_trace, dtype=np.float64)
        )


def init_weights(n_inputs: int, n_excitatory: int, seed: int, w_init_max: float = 0.3) -> np.ndarray:
    """Uniform random initial weights in [0, w_init_max]."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, w_init_max, size=(n_inputs, n_excitatory))


def lif_step(
    state: LayerState,
    params: LifParams,
    dt_ms: float,
    homeo: HomeostasisParams | None = None,
) -> np.ndarray:
    """Advance one layer by one Euler step; returns the spike mask.

    Refractory neurons are held at the reset potential and cannot fire.
    Conductances decay by their exact per-step factor.  When ``homeo`` is
    given, the adaptive threshold decays every step and jumps by
    theta_plus on each spike; when None the threshold array is frozen
    (inference mode).
    """
    if dt_ms <= 0:
        raise ConfigError("dt_ms must be > 0")
    active = state.refractory <= 0.0
    dv = (dt_ms / params.tau_ms) * (
        (params.e_rest_mv - state.v)
        + state.g_e * (params.e_exc_mv - state.v)
        + state.g_i * (params.e_inh_mv - state.v)
    )
    state.v += np.where(active, dv, 0.0)
    state.v[~active] = params.v_reset_mv
    state.g_e *= math.exp(-dt_ms / params.tau_ge_ms)
    state.g_i *= math.exp(-dt_ms / params.tau_gi_ms)
    if homeo is not None:
        state.theta *= math.exp(-dt_ms / homeo.theta_decay_ms)
    spiked = active & (state.v >= params.v_thresh_mv + state.theta)
    state.v[spiked] = params.v_reset_mv
    state.refractory[~active] -= dt_ms
    state.refractory[spiked] = params.refractory_ms
    if homeo is not None:
        state.theta[spiked] += homeo.theta_plus_mv
    return spiked


def apply_input_spikes(state: LayerState, syn: SynapseMatrix, indices: np.ndarray) -> None:
    """Deliver input spikes: bump excitatory conductance and presynaptic traces."""
    if len(indices) == 0:
        return
    indices = np.asarray(indices)
    if indices.min() < 0 or indices.max() >= syn.w.shape[0]:
        raise AssertionError("input spike index out of range: wiring bug")
    state.g_e += syn.w[indices].sum(axis=0)
    np.add.at(syn.pre_trace, indices, 1.0)


def apply_lateral_inhibition(
    exc_spiked: np.ndarray,
    inh_spiked: np.ndarray,
    wiring: FixedWiring,
    exc_state: LayerState,
    inh_state: LayerState,
) -> None:
    """Route winner-take-all spikes through the fixed one-to-one wiring.

    Each spiking excitatory neuron e drives inhibitory neuron e; each
    spiking inhibitory neuron inhibits every excitatory neuron except its
    own partner.
    """
    n_inh = int(np.count_nonzero(inh_spiked))
    if n_inh:
        exc_state.g_i += wiring.w_inh_to_exc * n_inh
        exc_state.g_i[inh_spiked] -= wiring.w_inh_to_exc
    if exc_spiked.any():
        inh_state.g_e[exc_spiked] += wiring.w_exc_to_inh


def stdp_on_post_spike(syn: SynapseMatrix, params: StdpParams, post_indices) -> None:
    """Apply the post-spike plasticity rule to the given excitatory columns."""
    post_indices = np.atleast_1d(post_indices)
    cols = syn.w[:, post_indices]
    dw = (
        params.learning_rate
        * (syn.pre_trace[:, None] - params.trace_target)
        * (params.w_max - cols) ** params.weight_exponent
    )
    syn.w[:, post_indices] = np.clip(cols + dw, 0.0, params.w_max)


def normalize_columns(w: np.ndarray, target_sum: float, w_max: float) -> None:
    """Rescale each excitatory neuron's afferent column to a fixed sum.

    Applied in place after each training presentation; the weight bound
    [0, w_max] is re-imposed afterwards, so heavily concentrated columns
    may end up summing below the target.
    """
    sums = w.sum(axis=0)
    nonzero = sums > 0
    w[:, nonzero] *= target_sum / sums[nonzero]
    np.clip(w, 0.0, w_max, out=w)


class ExpertNetwork:
    """One simulated network: state, synapses, and the presentation loop."""

    def __init__(
        self,
        syn: SynapseMatrix,
        params: SimulationParams,
        encoding: EncodingConfig,
        theta: np.ndarray | None = None,
    ):
        params.validate()
        encoding.validate()
        self.syn = syn
        self.params = params
        self.encoding = encoding
        self.n_excitatory = syn.w.shape[1]
        self.exc = LayerState.resting(self.n_excitatory, params.lif_exc, theta)
        self.inh = LayerState.resting(self.n_excitatory, params.lif_inh)

    def present(self, train: SpikeTrain, learn: bool, run_rest: bool = True) -> np.ndarray:
        """Simulate one presentation; return per-neuron excitatory spike counts.

        Counts cover the presentation window only; the optional rest window
        just lets the dynamic variables relax.  In learn mode the plasticity
        rule fires on every postsynaptic spike and the adaptive threshold
        evolves; otherwise both are frozen.
        """
        p = self.params
        dt = p.dt_ms
        n_pres = int(round(train.duration_ms / dt))
        n_rest = int(round(self.encoding.rest_ms / dt)) if run_rest else 0
        # Bin spike times once: offsets[t]..offsets[t+1] index step t's spikes.
        steps = np.minimum((train.times / dt).astype(np.int64), max(n_pres - 1, 0))
        order = np.argsort(steps, kind="stable")
        spike_idx = train.indices[order]
        offsets = np.zeros(n_pres + 1, dtype=np.int64)
        np.cumsum(np.bincount(steps, minlength=n_pres), out=offsets[1:])

        homeo = p.homeostasis if learn else None
        trace_decay = math.exp(-dt / p.stdp.trace_tau_ms)
        counts = np.zeros(self.n_excitatory, dtype=np.int64)
        for t in range(n_pres + n_rest):
            if t < n_pres:
                lo, hi = offsets[t], offsets[t + 1]
                if hi > lo:
                    apply_input_spikes(self.exc, self.syn, spike_idx[lo:hi])
            exc_spiked = lif_step(self.exc, p.lif_exc, dt, homeo)
            fired = exc_spiked.any()
            if fired and learn:
                stdp_on_post_spike(self.syn, p.stdp, np.nonzero(exc_spiked)[0])
            inh_spiked = lif_step(self.inh, p.lif_inh, dt, None)
            if fired or inh_spiked.any():
                apply_lateral_inhibition(exc_spiked, inh_spiked, p.wiring, self.exc, self.inh)
            if learn:
                self.syn.pre_trace *= trace_decay
            if t < n_pres and fired:
                counts += exc_spiked
        return counts

    def present_with_retry(self, image_unit: np.ndarray, seed_words: tuple[int, ...], learn: bool) -> np.ndarray:
        """Encode and present, boosting rates until the output-spike floor is met.

        ``seed_words`` identify the presentation; the retry attempt index is
        appended so every attempt draws an independent, reproducible train.
        Returns the counts of the final attempt.
        """
        enc = self.encoding
        attempts = enc.max_retries if enc.min_output_spikes > 0 else 0
        for attempt in range(attempts + 1):
            train = poisson_encode(
                image_unit, enc,
                derive_seed(*seed_words, attempt),
                rate_boost_hz=enc.retry_boost_hz * attempt,
            )
            counts = self.present(train, learn=learn)
            if counts.sum() >= enc.min_output_spikes or not image_unit.any():
                break
        return counts
