"""Clock-driven simulation of one three-layer spiking network.

Input spikes drive a fully connected excitatory layer through plastic
synapses; each excitatory neuron drives its own inhibitory partner, which
in turn inhibits every other excitatory neuron (winner-take-all).  The
membrane follows conductance-based leaky integrate-and-fire dynamics,

    tau * dV/dt = (E_rest - V) + g_e * (E_exc - V) + g_i * (E_inh - V),

integrated with forward Euler at a fixed step, while both conductances
decay exponentially between spikes.  The inhibitory layer is never
inhibited and its threshold never adapts, so its constants have no
``tau_gi_ms`` or ``e_inh_mv`` and its state holds only ``v``, ``g_e`` and
the refractory countdown; the step skips the terms it lacks.  The countdown
runs on every neuron and only its sign is read.  Plasticity is
trace-based: every postsynaptic spike moves each afferent weight by

    dw = learning_rate * (pre_trace - trace_target) * (w_max - w) ** weight_exponent,

clamped to [0, w_max].  Excitatory thresholds are homeostatic: each spike
raises an adaptive offset that otherwise decays very slowly.

Experts that share nothing can share one step loop.  A learning group of
G experts stacks its weights as (G, inputs + 1, K), each with an all-zero
pad row, and its state as (G, K): every step delivers one padded block of
spike indices, one per expert, and STDP acts on the spiking (expert,
column) pairs; each expert ends bit for bit where it would alone, and
only a group learns: one expert is a group of one.  Frozen experts run in
lockstep on a block of images: with weights stacked as (inputs, N, K) and
B images, every state array takes the shape (B, N, K) and one step loop
advances all N experts on all B images, each (image, expert) pair with its
own winner-take-all circuit; one frozen expert alone is their reference.
The encoder only draws spikes; ``bin_train`` alone orders them by step, and
``_pad_block`` alone knows the pad rows: every presentation lays its spikes
out one way, as an (m, C) block per step whose column c holds train c's
rows and then padding.  A learning group delivers that block and bumps its
traces over the same block, pad entries included.  A small frozen block
(K > 1 and N * K <= ``PAD_BLOCK_CELLS``) gets its spikes as a learning
group does, one padded gather per step into a copy of the stack with an
all-zero row; a larger block, or one of one-neuron experts, reads each
image's real rows from the stack itself, image by image.

There is no randomness anywhere in this module; all stochasticity lives in
the spike encoder.  One network instance is single-threaded mutable state,
but distinct instances share nothing and may run fully in parallel.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, require_finite
from .imaging import EncodingConfig, SpikeTrain, derive_seed, poisson_encode

# Largest N * K (experts x neurons) of a frozen block whose B images get their
# input spikes in one padded gather per step.  A block's presentation time,
# padded over per-image, at 784 inputs (2-core x86, numpy 2.4): 0.76 at
# N * K = 200 (B = 16), 0.97 at 400 (B = 50), 1.06 at 800 (B = 25) and 1.25
# at 1600 (B = 12); above the crossover the pad rows cost more arithmetic
# than the per-image calls they save.
PAD_BLOCK_CELLS = 512


@dataclass(frozen=True)
class UninhibitedLifParams:
    """Leaky integrate-and-fire constants of a layer nothing inhibits (mV / ms)."""

    tau_ms: float
    e_rest_mv: float
    e_exc_mv: float
    v_thresh_mv: float
    v_reset_mv: float
    refractory_ms: float
    tau_ge_ms: float

    def __post_init__(self) -> None:
        require_finite(vars(self))
        if min(self.tau_ms, self.tau_ge_ms, self.refractory_ms) <= 0:
            raise ConfigError("all LIF time constants must be > 0")
        if not self.e_rest_mv < self.e_exc_mv:
            raise ConfigError("reversal potentials must satisfy E_rest < E_exc")
        if self.v_reset_mv > self.v_thresh_mv:
            raise ConfigError("v_reset must not exceed the base threshold")

    @staticmethod
    def inhibitory_defaults() -> "UninhibitedLifParams":
        return UninhibitedLifParams(
            tau_ms=10.0, e_rest_mv=-60.0, e_exc_mv=0.0, v_thresh_mv=-40.0,
            v_reset_mv=-45.0, refractory_ms=2.0, tau_ge_ms=1.0,
        )


@dataclass(frozen=True)
class LifParams(UninhibitedLifParams):
    """Leaky integrate-and-fire constants of the excitatory layer, which is inhibited."""

    e_inh_mv: float
    tau_gi_ms: float

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.tau_gi_ms <= 0 or not self.e_inh_mv < self.e_rest_mv:
            raise ConfigError("LIF time constants must be > 0, and E_inh < E_rest")

    @staticmethod
    def excitatory_defaults() -> "LifParams":
        return LifParams(
            tau_ms=100.0, e_rest_mv=-65.0, e_exc_mv=0.0, e_inh_mv=-100.0,
            v_thresh_mv=-52.0, v_reset_mv=-65.0, refractory_ms=5.0,
            tau_ge_ms=1.0, tau_gi_ms=0.5,
        )


@dataclass(frozen=True)
class HomeostasisParams:
    """Adaptive-threshold rule: +theta_plus per spike, slow exponential decay."""

    theta_plus_mv: float = 0.05
    theta_decay_ms: float = 1e7

    def __post_init__(self) -> None:
        # An infinite theta_decay_ms is valid: the adaptive threshold never decays.
        require_finite({"theta_plus_mv": self.theta_plus_mv})
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

    def __post_init__(self) -> None:
        require_finite(vars(self))
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

    def __post_init__(self) -> None:
        require_finite(vars(self))
        if self.w_exc_to_inh < 0 or self.w_inh_to_exc < 0:
            raise ConfigError("wiring weights must be >= 0")


@dataclass(frozen=True)
class SimulationParams:
    """Everything needed to integrate one network, bundled for convenience."""

    lif_excitatory: LifParams
    lif_inhibitory: UninhibitedLifParams
    homeostasis: HomeostasisParams
    stdp: StdpParams
    wiring: FixedWiring
    dt_ms: float = 0.5
    weight_norm_enabled: bool = True
    weight_norm_target: float = 78.0  # per-neuron afferent weight-column sum
    weight_init_max: float = 0.3

    @staticmethod
    def defaults() -> "SimulationParams":
        return SimulationParams(
            lif_excitatory=LifParams.excitatory_defaults(),
            lif_inhibitory=UninhibitedLifParams.inhibitory_defaults(),
            homeostasis=HomeostasisParams(),
            stdp=StdpParams(),
            wiring=FixedWiring(),
        )

    def with_tau_gi(self, tau_gi_ms: float) -> "SimulationParams":
        return replace(self, lif_excitatory=replace(self.lif_excitatory, tau_gi_ms=tau_gi_ms))

    def __post_init__(self) -> None:
        require_finite({"dt_ms": self.dt_ms, "weight_norm_target": self.weight_norm_target,
                        "weight_init_max": self.weight_init_max})
        if self.dt_ms <= 0:
            raise ConfigError("dt_ms must be > 0")
        if self.weight_norm_target <= 0:
            raise ConfigError("weight_norm_target must be > 0")
        if self.weight_init_max < 0:
            raise ConfigError("weight_init_max must be >= 0")
        if isinstance(self.lif_inhibitory, LifParams):
            raise ConfigError("lif_inhibitory takes no tau_gi_ms or e_inh_mv: nothing inhibits it")


class LayerState:
    """Per-neuron dynamic variables of one layer.

    Shaped (G, K) for a learning group, (K,) for one frozen expert, or (B images,
    N experts, K) for frozen experts answering a block; a frozen ``theta``
    may be (N, K) and broadcast over the images.  The inhibitory layer's
    state (``inhibitory``) has ``g_i = theta = None``.  ``refractory`` is
    the time a neuron stays held; only its sign is read, and an active
    neuron's value may sink anywhere below 0.  Indexing gives a state of
    views into this one.
    """

    __slots__ = ("v", "g_e", "g_i", "theta", "refractory")

    def __init__(self, v, g_e, g_i, theta, refractory):
        self.v = v
        self.g_e = g_e
        self.g_i = g_i
        self.theta = theta
        self.refractory = refractory

    @staticmethod
    def resting(
        shape: int | tuple[int, ...], params: LifParams, theta: np.ndarray | None = None
    ) -> "LayerState":
        return LayerState(
            v=np.full(shape, params.e_rest_mv, dtype=np.float64),
            g_e=np.zeros(shape, dtype=np.float64),
            g_i=np.zeros(shape, dtype=np.float64),
            theta=np.zeros(shape) if theta is None else np.array(theta, dtype=np.float64),
            refractory=np.zeros(shape, dtype=np.float64),
        )

    @staticmethod
    def inhibitory(shape: int | tuple[int, ...], params: UninhibitedLifParams) -> "LayerState":
        """A resting inhibitory layer, without ``g_i`` or ``theta``.

        Nothing inhibits it and its threshold never adapts.
        """
        return LayerState(
            v=np.full(shape, params.e_rest_mv, dtype=np.float64),
            g_e=np.zeros(shape, dtype=np.float64),
            g_i=None,
            theta=None,
            refractory=np.zeros(shape, dtype=np.float64),
        )

    def __getitem__(self, key) -> "LayerState":
        return LayerState(*(
            None if (a := getattr(self, name)) is None else a[key] for name in self.__slots__
        ))


class SynapseMatrix:
    """Plastic input->excitatory weights plus per-input presynaptic traces.

    ``w`` is (G, inputs + 1, K) with (G, inputs + 1) traces for a learning
    group, whose row ``inputs`` is each expert's all-zero pad row (its trace
    counts pad entries and is never read); (inputs, N, K) for frozen experts
    in lockstep; or (inputs, K) for one frozen expert.  Float32 weights stay
    float32 (frozen experts); anything else becomes float64.  Float64 arrays
    are kept as given, views included: learning writes through views of a
    group's stack.  Only learning reads or writes ``pre_trace``.
    """

    __slots__ = ("w", "pre_trace")

    def __init__(self, w: np.ndarray, pre_trace: np.ndarray | None = None):
        w = np.asarray(w)
        self.w = w if w.dtype == np.float32 else w.astype(np.float64, copy=False)
        self.pre_trace = (
            np.zeros(self.w.shape[0]) if pre_trace is None
            else np.asarray(pre_trace, dtype=np.float64)
        )


def init_weights(n_inputs: int, n_excitatory: int, seed: int, w_init_max: float) -> np.ndarray:
    """Uniform random initial weights in [0, w_init_max]."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, w_init_max, size=(n_inputs, n_excitatory))


def lif_step(
    state: LayerState,
    params: UninhibitedLifParams,
    dt_ms: float,
    homeo: HomeostasisParams | None = None,
) -> np.ndarray:
    """Advance one layer by one Euler step; returns the spike mask.

    Refractory neurons are held at the reset potential and cannot fire.
    Conductances decay by their exact per-step factor.  When ``homeo`` is
    given, the adaptive threshold decays every step and jumps by
    theta_plus on each spike; when None the threshold array is frozen
    (inference mode).  A state without ``g_i`` or ``theta`` (the
    inhibitory layer's) skips their terms, which would add exact zeros.
    The refractory countdown runs on every neuron and only its sign is
    read: a neuron is held while it is > 0, and an active neuron's value
    just sinks further below 0.
    """
    if dt_ms <= 0:
        raise ConfigError("dt_ms must be > 0")
    v, g_i, theta = state.v, state.g_i, state.theta
    held = state.refractory > 0.0
    # dv = dt/tau * ((E_rest - v) + g_e * (E_exc - v) + g_i * (E_inh - v)), built in
    # place in the formula's operation order, so each neuron gets the formula's bits.
    dv = params.e_rest_mv - v
    drive = params.e_exc_mv - v
    drive *= state.g_e
    dv += drive
    if g_i is not None:
        np.subtract(params.e_inh_mv, v, out=drive)
        drive *= g_i
        dv += drive
    dv *= dt_ms / params.tau_ms
    v += dv
    np.copyto(v, params.v_reset_mv, where=held)
    state.g_e *= math.exp(-dt_ms / params.tau_ge_ms)
    if g_i is not None:
        g_i *= math.exp(-dt_ms / params.tau_gi_ms)
    if theta is None:
        spiked = v >= params.v_thresh_mv
    else:
        if homeo is not None:
            theta *= math.exp(-dt_ms / homeo.theta_decay_ms)
        spiked = v >= params.v_thresh_mv + theta
    spiked &= ~held
    np.copyto(v, params.v_reset_mv, where=spiked)
    state.refractory -= dt_ms
    np.copyto(state.refractory, params.refractory_ms, where=spiked)
    if homeo is not None and theta is not None:
        np.add(theta, homeo.theta_plus_mv, out=theta, where=spiked)
    return spiked


class BinnedTrain(NamedTuple):
    """One spike train binned to simulation steps (``bin_train``)."""

    indices: np.ndarray  # input ids in step order, int32 to halve a waiting block
    offsets: np.ndarray  # step t's spikes are indices[offsets[t]:offsets[t + 1]]


def bin_train(train: SpikeTrain | BinnedTrain, dt_ms: float) -> BinnedTrain:
    """Bin a train's spike times to steps of ``dt_ms``; a binned train passes through.

    This is the one place that orders spikes in time.  They are ordered by
    step with a stable argsort, so within a step they keep the train's
    order, which ``SpikeTrain`` gives by ascending input: each step's
    inputs ascend, whatever order each input's times came in.  The steps
    are sorted in the smallest unsigned type that holds the last one, which
    numpy radix-sorts up to 16 bits; a stable sort of equal keys is one
    permutation, whatever the key type.
    """
    if isinstance(train, BinnedTrain):
        return train
    n_pres = int(round(train.duration_ms / dt_ms))
    last = max(n_pres - 1, 0)
    steps = np.minimum((train.times / dt_ms).astype(np.int64), last)
    offsets = np.zeros(n_pres + 1, dtype=np.int64)
    np.cumsum(np.bincount(steps, minlength=n_pres), out=offsets[1:])
    order = np.argsort(steps.astype(np.min_scalar_type(last)), kind="stable")
    indices = train.indices[order].astype(np.int32)
    return BinnedTrain(indices, offsets)


def _summed_rows(rows: np.ndarray) -> np.ndarray:
    """Gathered weight rows summed over the spike axis, as one expert alone sums them."""
    if rows.ndim == 3 and rows.shape[-1] == 1:
        # numpy sums one expert's lone (m, 1) column pairwise but a stack's rows
        # one by one; laying the stack's columns out contiguously sums each
        # pairwise too, so every expert gets the conductance it gets alone.
        rows = np.asfortranarray(rows)
    # Summing float32 rows in float64 equals summing their float64 copies, bit for bit.
    return np.add.reduce(rows, 0, np.float64)


def apply_input_spikes(
    state: LayerState, syn: SynapseMatrix, indices: np.ndarray, counts=None
) -> None:
    """Deliver one step's input spikes to the excitatory conductance.

    ``indices`` is one step of a ``_pad_block`` layout: an (m, C) block
    whose column c holds column c's rows of ``syn.w`` and then pad rows.
    Without ``counts`` one gather and one sum give the (C, ...) conductance
    of every column, so the pad rows must be all zero.  A learning group's
    columns are its G experts, on its stack flattened to (G * rows, K); a
    small frozen block's are its B images, on its (inputs + 1, N, K) padded
    stack.  Padding appends +0.0 after each column's real rows, and numpy
    sums the rows one by one, so every cell gets what its expert alone
    gets.  With ``counts``, column b reads only its first ``counts[b]``
    rows, from a stack without a pad row, and drives ``state.g_e[b]`` (a
    state without an image axis is a block of one).  Delivery never
    touches the traces: ``ExpertNetwork.present`` bumps a learning group's.
    """
    if counts is None:
        state.g_e += _summed_rows(syn.w[indices])
        return
    g_e = state.g_e if state.g_e.ndim == syn.w.ndim else state.g_e[None]
    for b, m in enumerate(counts):
        if m:
            g_e[b] += _summed_rows(syn.w[indices[:m, b]])


def apply_lateral_inhibition(
    exc_spiked: np.ndarray,
    inh_spiked: np.ndarray,
    wiring: FixedWiring,
    exc_state: LayerState,
    inh_state: LayerState,
) -> None:
    """Route winner-take-all spikes through the fixed one-to-one wiring.

    Each spiking excitatory neuron e drives inhibitory neuron e; each
    spiking inhibitory neuron inhibits every excitatory neuron of its own
    expert (the last axis) except its own partner.
    """
    if np.count_nonzero(inh_spiked):
        n_inh = inh_spiked.sum(axis=-1, keepdims=True)  # per expert
        g_i = exc_state.g_i
        g_i += wiring.w_inh_to_exc * n_inh
        np.subtract(g_i, wiring.w_inh_to_exc, out=g_i, where=inh_spiked)
    if np.count_nonzero(exc_spiked):
        np.add(inh_state.g_e, wiring.w_exc_to_inh, out=inh_state.g_e, where=exc_spiked)


def stdp_on_post_spike(syn: SynapseMatrix, params: StdpParams, post_indices) -> None:
    """Apply the post-spike plasticity rule to the given excitatory columns.

    ``post_indices`` are columns of one expert's (inputs, K) weights, or
    the (experts, columns) index pair of a group's (G, inputs, K) stack.
    """
    if syn.w.ndim == 2:  # one expert is a group of one
        syn = SynapseMatrix(syn.w[None], syn.pre_trace[None])
        post_indices = (0, np.atleast_1d(post_indices))
    experts, columns = post_indices
    cols = syn.w[experts, :, columns]
    # dw = learning_rate * (pre_trace - trace_target) * (w_max - w) ** weight_exponent,
    # built in place: a group's spiking columns can be many.
    dw = params.w_max - cols
    dw **= params.weight_exponent
    drive = syn.pre_trace[experts] - params.trace_target
    drive *= params.learning_rate
    dw *= drive
    cols += dw
    syn.w[experts, :, columns] = np.clip(cols, 0.0, params.w_max, out=cols)


def normalize_columns(w: np.ndarray, target_sum: float, w_max: float) -> None:
    """Rescale each excitatory neuron's afferent column to a fixed sum.

    Applied in place after each training presentation; the weight bound
    [0, w_max] is re-imposed afterwards, so heavily concentrated columns
    may end up summing below the target.  All-zero columns stay zero.
    """
    sums = w.sum(axis=0)
    nonzero = sums > 0
    scale = np.divide(target_sum, sums, out=np.zeros_like(sums), where=nonzero)
    np.multiply(w, scale, out=w, where=nonzero)
    np.clip(w, 0.0, w_max, out=w)


def _pad_block(trains: list[BinnedTrain], n_inputs: int, rows: int):
    """Lay out binned trains as one padded (m, C) block of weight rows per step.

    Train c's input i is row ``c * rows + i``, and ``c * rows + n_inputs``
    is its pad row (with ``rows = 0`` every train reads the same weights).
    Step t delivers ``block[starts[t]:starts[t + 1]]``, whose column c holds
    train c's spikes and then padding; ``per_step`` is the (steps, C) count
    of real spikes.  Each train's indices are checked against ``n_inputs``
    as it is laid out, since a pad row would be a valid index.
    """
    per_step = np.stack([np.diff(tr.offsets) for tr in trains], axis=1)
    starts = np.zeros(len(per_step) + 1, dtype=np.int64)
    np.cumsum(per_step.max(axis=1), out=starts[1:])
    block = np.empty((starts[-1], len(trains)), dtype=np.int32)
    block[:] = np.arange(len(trains), dtype=np.int32) * rows + n_inputs
    for c, tr in enumerate(trains):
        if len(tr.indices) and (tr.indices.min() < 0 or tr.indices.max() >= n_inputs):
            raise AssertionError("input spike index out of range: wiring bug")
        at = np.repeat(starts[:-1] - tr.offsets[:-1], per_step[:, c]) + np.arange(len(tr.indices))
        block[at, c] = tr.indices + c * rows
    return block, starts, per_step


class ExpertNetwork:
    """One simulated network: state, synapses, and the presentation loop.

    It holds a learning group (``group``), frozen experts in lockstep on a
    block of ``images`` or one frozen expert; ``SynapseMatrix`` gives the
    layouts.
    """

    def __init__(
        self,
        syn: SynapseMatrix,
        params: SimulationParams,
        encoding: EncodingConfig,
        theta: np.ndarray | None = None,
        images: int | None = None,
        group: bool = False,
    ):
        """``images`` gives the state a leading axis: frozen inference of a block.

        ``group`` marks a learning group's stack (``learning_group``).
        """
        self.syn = syn
        self.params = params
        self.encoding = encoding
        self.group = group
        shape = (syn.w.shape[0], syn.w.shape[2]) if group else syn.w.shape[1:]
        if images is not None:
            shape = (images,) + shape
        self.exc = LayerState.resting(shape, params.lif_excitatory, theta)
        self.inh = LayerState.inhibitory(shape, params.lif_inhibitory)

    @classmethod
    def learning_group(
        cls, n_inputs: int, n_excitatory: int, seeds: list[int],
        params: SimulationParams, encoding: EncodingConfig,
    ) -> "ExpertNetwork":
        """Fresh experts, one per seed of ``init_weights``, as one learning group.

        One-neuron experts learn alone: numpy sums a lone column pairwise,
        and padding would change that sum.
        """
        if n_excitatory == 1 and len(seeds) > 1:
            raise ValueError("one-neuron experts learn alone")
        w = np.zeros((len(seeds), n_inputs + 1, n_excitatory))
        for member, seed in zip(w, seeds):
            member[:n_inputs] = init_weights(n_inputs, n_excitatory, seed, params.weight_init_max)
        return cls(SynapseMatrix(w, np.zeros(w.shape[:2])), params, encoding, group=True)

    def _member(self, g: int) -> "ExpertNetwork":
        """Expert g of a learning group as a group of one that shares its arrays."""
        member = copy.copy(self)
        member.syn = SynapseMatrix(self.syn.w[g:g + 1], self.syn.pre_trace[g:g + 1])
        member.exc, member.inh = self.exc[g:g + 1], self.inh[g:g + 1]
        return member

    def present(self, train, learn: bool, run_rest: bool = True) -> np.ndarray:
        """Simulate one presentation; return per-neuron excitatory spike counts.

        ``train`` is a ``SpikeTrain`` or ``BinnedTrain``, or a list of them:
        one per expert of a learning group, or one per image of a frozen
        block, all stepped together.  Counts cover the presentation window
        only; the optional rest window just lets the dynamic variables
        relax.  Only a learning group presents with ``learn``: the
        plasticity rule fires on every postsynaptic spike and the adaptive
        threshold evolves.  Frozen experts keep both fixed.  Every mode lays
        its trains out with ``_pad_block``: a learning group on its flattened
        stack, whose pad rows are all zero, and frozen experts on their
        (inputs, N, K) stack.  A learning group bumps its presynaptic traces
        with one ``np.add.at`` over each delivered step, pad entries
        included; STDP reads only the real inputs' traces.  A small frozen
        block of B > 1 images (K > 1, N * K <= ``PAD_BLOCK_CELLS``) gets each
        step's spikes in one padded (m, B) gather from a copy of its stack
        with an all-zero row; any other frozen block reads each image's real
        rows from the stack itself.
        """
        if learn != self.group:
            raise ValueError("a learning group learns and frozen experts do not")
        p = self.params
        dt = p.dt_ms
        trains = [bin_train(t, dt) for t in (train if isinstance(train, list) else [train])]
        n_pres = len(trains[0].offsets) - 1
        n_rest = int(round(self.encoding.rest_ms / dt)) if run_rest else 0
        exc, inh, syn = self.exc, self.inh, self.syn
        rows = syn.w.shape[1] if learn else 0
        n_inputs = rows - 1 if learn else syn.w.shape[0]
        block, starts, per_step = _pad_block(trains, n_inputs, rows)
        per_image = None  # a learning group and a small frozen block deliver padded steps
        source = syn
        if learn:
            # An inhibitory g_e decayed to a subnormal rounds back to itself when its
            # factor exp(-dt / tau_ge) exceeds 0.5 (0.61 by default), so it never
            # reaches 0 and slows every step.  It adds at most dt/tau * 5e-324 *
            # |E_exc - v| to v, below half an ulp of v unless v lies within about
            # 1e-290 of 0, so flushing it to 0 cannot change v.
            np.copyto(inh.g_e, 0.0, where=inh.g_e < np.finfo(np.float64).tiny)
            source = SynapseMatrix(syn.w.reshape(-1, syn.w.shape[2]), syn.pre_trace.reshape(-1))
            plastic = SynapseMatrix(syn.w[:, :n_inputs], syn.pre_trace[:, :n_inputs])
        elif len(trains) > 1 and syn.w.shape[-1] > 1 and syn.w[0].size <= PAD_BLOCK_CELLS:
            # a small frozen block, of N * K cells per image
            source = SynapseMatrix(np.concatenate([syn.w, np.zeros_like(syn.w[:1])]))
        else:
            per_image = per_step.tolist()  # Python ints index faster, step by step

        homeo = p.homeostasis if learn else None
        trace_decay = math.exp(-dt / p.stdp.trace_tau_ms)
        counts = np.zeros(exc.v.shape, dtype=np.int64)
        for t in range(n_pres + n_rest):
            if t < n_pres and starts[t + 1] > starts[t]:
                step = block[starts[t]:starts[t + 1]]
                apply_input_spikes(exc, source, step, None if per_image is None else per_image[t])
                if learn:  # pad entries bump the pad rows' traces, which nothing reads
                    np.add.at(source.pre_trace, step, 1.0)
            exc_spiked = lif_step(exc, p.lif_excitatory, dt, homeo)
            fired = np.count_nonzero(exc_spiked)
            if fired and learn:
                stdp_on_post_spike(plastic, p.stdp, np.nonzero(exc_spiked))
            inh_spiked = lif_step(inh, p.lif_inhibitory, dt, None)
            if fired or np.count_nonzero(inh_spiked):
                apply_lateral_inhibition(exc_spiked, inh_spiked, p.wiring, exc, inh)
            if learn:
                syn.pre_trace *= trace_decay
            if t < n_pres and fired:
                counts += exc_spiked
        return counts

    def present_with_retry(self, images, seed_words) -> np.ndarray:
        """Encode and learn, boosting rates until the output-spike floor is met.

        A learning group takes one image and one ``seed_words`` per expert
        and presents them together; the retry attempt index is appended to
        the words, so every attempt draws an independent, reproducible
        train.  An expert that misses the floor re-presents alone, on views
        of its own state.  Returns the (G, K) counts of each expert's final
        attempt.
        """
        enc = self.encoding

        def encode(g: int, attempt: int) -> SpikeTrain:
            return poisson_encode(
                images[g], enc, derive_seed(*seed_words[g], attempt),
                rate_boost_hz=enc.retry_boost_hz * attempt,
            )

        counts = self.present([encode(g, 0) for g in range(len(images))], learn=True)
        for g, image in enumerate(images):
            attempt = 0
            while (attempt < enc.max_retries and counts[g].sum() < enc.min_output_spikes
                   and image.any()):
                attempt += 1
                counts[g] = self._member(g).present(encode(g, attempt), learn=True)
        return counts
