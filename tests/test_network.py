"""Neuron dynamics, plasticity, lateral inhibition, and the presentation loop."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from snnplace import network
from snnplace.errors import ConfigError
from snnplace.imaging import EncodingConfig, SpikeTrain, poisson_encode
from snnplace.network import (
    PAD_BLOCK_CELLS,
    BinnedTrain,
    ExpertNetwork,
    FixedWiring,
    HomeostasisParams,
    LayerState,
    LifParams,
    SimulationParams,
    StdpParams,
    SynapseMatrix,
    UninhibitedLifParams,
    apply_input_spikes,
    apply_lateral_inhibition,
    bin_train,
    lif_step,
    normalize_columns,
    stdp_on_post_spike,
)
from tests.conftest import learning_group_of_one, tiny_encoding, tiny_sim

EXC = LifParams.excitatory_defaults()


def fresh_state(n=1, v=None, g_e=0.0, g_i=0.0, params=EXC):
    state = LayerState.resting(n, params)
    if v is not None:
        state.v[:] = v
    state.g_e[:] = g_e
    state.g_i[:] = g_i
    return state


class TestLifStep:
    def test_rest_is_fixed_point(self):
        state = fresh_state()
        spiked = lif_step(state, EXC, 0.5)
        assert state.v[0] == EXC.e_rest_mv
        assert not spiked.any()

    def test_single_step_hand_value(self):
        # dt/tau = 0.005; drive = 0.5 * (0 - (-65)) = 32.5 mV -> dV = 0.1625.
        state = fresh_state(v=-65.0, g_e=0.5)
        lif_step(state, EXC, 0.5)
        assert abs(state.v[0] - (-64.8375)) < 1e-12

    @pytest.mark.parametrize("tau_g", [0.5, 1.0, 2.0])
    def test_conductance_decay_closed_form(self, tau_g):
        import dataclasses

        params = dataclasses.replace(EXC, tau_ge_ms=tau_g, tau_gi_ms=tau_g)
        state = fresh_state(v=-90.0, g_e=1.0, g_i=1.0, params=params)
        n_steps, dt = 100, 0.5
        for _ in range(n_steps):
            lif_step(state, params, dt)
        expected = math.exp(-n_steps * dt / tau_g)
        assert abs(state.g_e[0] - expected) <= 0.01 * expected
        assert abs(state.g_i[0] - expected) <= 0.01 * expected

    def test_twenty_step_decay_example(self):
        state = fresh_state(v=-90.0, g_e=1.0)
        for _ in range(20):
            lif_step(state, EXC, 0.5)
        expected = math.exp(-10.0)
        assert abs(state.g_e[0] - expected) <= 0.01 * expected

    @pytest.mark.parametrize("v0", [-95.0, -55.0])
    def test_relaxation_toward_rest_is_monotone(self, v0):
        state = fresh_state(v=v0)
        previous = state.v[0]
        for _ in range(1200):
            lif_step(state, EXC, 0.5)
            gap_before = abs(previous - EXC.e_rest_mv)
            gap_after = abs(state.v[0] - EXC.e_rest_mv)
            assert gap_after <= gap_before
            previous = state.v[0]
        assert abs(state.v[0] - EXC.e_rest_mv) < 0.1

    def test_spike_reset_and_refractory_hold(self):
        state = fresh_state(v=-53.0, g_e=5.0)
        spiked = lif_step(state, EXC, 0.5)
        assert spiked[0]
        assert state.v[0] == EXC.v_reset_mv
        held_steps = int(EXC.refractory_ms / 0.5)
        for _ in range(held_steps):
            state.g_e[0] = 50.0  # strong drive must not break the hold
            spiked = lif_step(state, EXC, 0.5)
            assert not spiked[0]
            assert state.v[0] == EXC.v_reset_mv

    def test_theta_grows_by_increment_and_decays_between_spikes(self):
        homeo = HomeostasisParams(theta_plus_mv=0.05, theta_decay_ms=100.0)
        state = fresh_state(v=-53.0, g_e=20.0)
        state.theta[0] = 1.0
        before = state.theta[0]
        spiked = lif_step(state, EXC, 0.5, homeo)
        assert spiked[0]
        decayed = before * math.exp(-0.5 / 100.0)
        assert abs(state.theta[0] - (decayed + 0.05)) < 1e-12
        level = state.theta[0]
        for _ in range(10):  # refractory: no spikes, theta strictly decreasing
            lif_step(state, EXC, 0.5, homeo)
            assert state.theta[0] < level
            level = state.theta[0]
        assert level >= 0.0

    def test_frozen_threshold_in_inference(self):
        state = fresh_state(v=-53.0, g_e=5.0)
        state.theta[0] = 2.0
        lif_step(state, EXC, 0.5, homeo=None)
        assert state.theta[0] == 2.0

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ConfigError):
            lif_step(fresh_state(), EXC, 0.0)


def deliver_to_group_of_one(state, w, indices) -> SynapseMatrix:
    """Deliver ``indices`` to a learning group of one with weights ``w``, as ``present`` does.

    Returns the flattened (inputs + 1, K) synapses; delivery leaves their traces to ``present``.
    """
    group = learning_group_of_one(w, tiny_sim(), tiny_encoding()).syn
    flat = SynapseMatrix(group.w[0], group.pre_trace[0])
    apply_input_spikes(state, flat, indices[:, None])
    return flat


def deliver_block_of_one(state, syn, indices) -> None:
    """Deliver ``indices`` to frozen experts as a block of one image."""
    apply_input_spikes(state, syn, indices[:, None], [len(indices)])


class TestInputDelivery:
    def test_empty_spike_set_is_noop(self):
        state = fresh_state(n=(1, 3))
        syn = deliver_to_group_of_one(state, np.full((4, 3), 0.2), np.array([], dtype=np.int64))
        assert not state.g_e.any() and not syn.pre_trace.any()

    def test_uniform_weight_single_spike(self):
        state = fresh_state(n=(1, 3))
        syn = deliver_to_group_of_one(state, np.full((4, 3), 0.2), np.array([1]))
        np.testing.assert_allclose(state.g_e, 0.2)
        assert not syn.pre_trace.any()

    def test_two_simultaneous_spikes_are_additive(self):
        rng = np.random.default_rng(0)
        w = rng.uniform(size=(5, 3))
        state = fresh_state(n=(1, 3))
        deliver_to_group_of_one(state, w.copy(), np.array([0, 4]))
        np.testing.assert_allclose(state.g_e[0], w[0] + w[4])

    def test_float32_weights_give_the_float64_conductance(self):
        rng = np.random.default_rng(5)
        for shape in ((7,), (3, 7)):
            for m in (1, 2, 13, 40):
                w = rng.uniform(size=(50,) + shape).astype(np.float32)
                idx = rng.integers(0, 50, size=m)
                start = rng.uniform(size=shape)
                narrow, wide = fresh_state(n=shape, g_e=start), fresh_state(n=shape, g_e=start)
                syn = SynapseMatrix(w)
                assert syn.w.dtype == np.float32
                deliver_block_of_one(narrow, syn, idx)
                deliver_block_of_one(wide, SynapseMatrix(w.astype(np.float64)), idx)
                np.testing.assert_array_equal(narrow.g_e, wide.g_e)

    def test_stacked_experts_each_get_their_own_conductance(self):
        # Weights spanning 60 binades make float64 sums depend on their order,
        # so each expert's block must be summed as its own network sums it.
        rng = np.random.default_rng(6)
        for n_experts in (1, 2, 3):
            for k in (1, 2, 7):
                for m in (1, 8, 9, 40, 200):
                    w = (2.0 ** rng.uniform(-60, 1, size=(50, n_experts, k))).astype(np.float32)
                    idx = rng.integers(0, 50, size=m)
                    stacked = fresh_state(n=(n_experts, k))
                    deliver_block_of_one(stacked, SynapseMatrix(w), idx)
                    for i in range(n_experts):
                        alone = fresh_state(n=k)
                        alone_syn = SynapseMatrix(w[:, i].astype(np.float64))
                        deliver_block_of_one(alone, alone_syn, idx)
                        np.testing.assert_array_equal(stacked.g_e[i], alone.g_e)

    def test_block_images_each_get_their_own_conductance(self):
        # A block delivers every image's step spikes in one call, image by
        # image or, for K > 1, as one padded (m, B) block on the stack with an
        # all-zero row 50; each (image, expert) cell must get what that expert
        # alone gets from that image's spikes, with weights spanning 60 binades.
        # Image by image, the unused slots hold row 999, which the stack lacks:
        # a delivery that reads past an image's count raises.
        rng = np.random.default_rng(7)
        for n_images in (1, 3, 6):
            for n_experts in (1, 2, 3):
                for k in (1, 2, 7):
                    w = (2.0 ** rng.uniform(-60, 1, size=(50, n_experts, k))).astype(np.float32)
                    per_image = [rng.integers(0, 50, size=m)
                                 for m in rng.choice([0, 1, 8, 9, 40, 200], size=n_images)]
                    counts = [len(idx) for idx in per_image]
                    start = rng.uniform(size=(n_images, n_experts, k))
                    block = fresh_state(n=(n_images, n_experts, k), g_e=start)
                    syn = SynapseMatrix(w)
                    columns = np.full((max(counts), n_images), 999)
                    for b, idx in enumerate(per_image):
                        columns[:len(idx), b] = idx
                    apply_input_spikes(block, syn, columns, counts)
                    assert not syn.pre_trace.any()
                    if k > 1:
                        padded = fresh_state(n=(n_images, n_experts, k), g_e=start)
                        padded_syn = SynapseMatrix(np.concatenate([w, np.zeros_like(w[:1])]))
                        assert padded_syn.w.dtype == np.float32
                        rows = np.where(columns == 999, 50, columns)
                        apply_input_spikes(padded, padded_syn, rows)
                        assert not padded_syn.pre_trace.any()
                    for b, idx in enumerate(per_image):
                        for i in range(n_experts):
                            alone = fresh_state(n=k, g_e=start[b, i])
                            alone_syn = SynapseMatrix(w[:, i].astype(np.float64))
                            deliver_block_of_one(alone, alone_syn, idx)
                            np.testing.assert_array_equal(block.g_e[b, i], alone.g_e)
                            if k > 1:
                                np.testing.assert_array_equal(padded.g_e[b, i], alone.g_e)


class TestLateralInhibition:
    def setup_method(self):
        self.wiring = FixedWiring(w_exc_to_inh=10.4, w_inh_to_exc=17.0)
        self.exc = fresh_state(n=3)
        self.inh = LayerState.inhibitory(3, UninhibitedLifParams.inhibitory_defaults())

    def test_no_spikes_no_drive(self):
        off = np.zeros(3, dtype=bool)
        apply_lateral_inhibition(off, off, self.wiring, self.exc, self.inh)
        assert not self.inh.g_e.any() and not self.exc.g_i.any()

    def test_single_inhibitory_spike_spares_its_partner(self):
        inh_spiked = np.array([True, False, False])
        apply_lateral_inhibition(np.zeros(3, bool), inh_spiked, self.wiring, self.exc, self.inh)
        np.testing.assert_allclose(self.exc.g_i, [0.0, 17.0, 17.0])

    def test_all_inhibitory_spikes_hit_everyone_else(self):
        on = np.ones(3, dtype=bool)
        apply_lateral_inhibition(np.zeros(3, bool), on, self.wiring, self.exc, self.inh)
        np.testing.assert_allclose(self.exc.g_i, 2 * 17.0)

    def test_excitatory_spike_drives_own_partner(self):
        exc_spiked = np.array([False, True, False])
        apply_lateral_inhibition(exc_spiked, np.zeros(3, bool), self.wiring, self.exc, self.inh)
        np.testing.assert_allclose(self.inh.g_e, [0.0, 10.4, 0.0])

    def test_stacked_experts_inhibit_only_their_own_block(self):
        exc = fresh_state(n=(2, 3))
        inh = LayerState.inhibitory((2, 3), UninhibitedLifParams.inhibitory_defaults())
        inh_spiked = np.array([[True, False, True], [False, False, False]])
        exc_spiked = np.array([[False, False, False], [False, True, False]])
        apply_lateral_inhibition(exc_spiked, inh_spiked, self.wiring, exc, inh)
        np.testing.assert_array_equal(exc.g_i[0], [17.0, 34.0, 17.0])
        np.testing.assert_array_equal(exc.g_i[1], 0.0)
        np.testing.assert_array_equal(inh.g_e, [[0.0, 0.0, 0.0], [0.0, 10.4, 0.0]])


def oracle_lif_step(state, params, dt_ms, homeo=None):
    """``lif_step`` as it was before its in-place rewrite, on a full state."""
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


def oracle_lateral_inhibition(exc_spiked, inh_spiked, wiring, exc_state, inh_state):
    """``apply_lateral_inhibition`` as it was, with boolean gathers and scatters."""
    if inh_spiked.any():
        n_inh = inh_spiked.sum(axis=-1, keepdims=True)
        exc_state.g_i += wiring.w_inh_to_exc * n_inh
        exc_state.g_i[inh_spiked] -= wiring.w_inh_to_exc
    if exc_spiked.any():
        inh_state.g_e[exc_spiked] += wiring.w_exc_to_inh


def random_layer(rng, shape, params, theta_shape=None):
    """A full layer state with held, active and long-active neurons."""
    state = LayerState.resting(shape, params)
    state.v[:] = rng.uniform(params.e_inh_mv, params.v_thresh_mv + 8.0, shape)
    state.g_e[:] = rng.uniform(0.0, 6.0, shape) * (rng.random(shape) < 0.7)
    state.g_i[:] = rng.uniform(0.0, 60.0, shape) * (rng.random(shape) < 0.5)
    state.refractory[:] = rng.choice([0.0, -3.5, 0.5, 1.0, 1.3, params.refractory_ms], shape)
    if theta_shape is not None:
        state.theta = rng.uniform(0.0, 6.0, theta_shape) * (rng.random(theta_shape) < 0.6)
    return state


def copy_layer(state, minimal=False):
    """A copy of ``state``; ``minimal`` drops ``g_i`` and ``theta``, as the inhibitory layer's."""
    copied = LayerState(*(getattr(state, name).copy() for name in LayerState.__slots__))
    if minimal:
        copied.g_i = copied.theta = None
    return copied


class TestStepOracle:
    """``lif_step`` and ``apply_lateral_inhibition`` match their pre-rewrite bodies bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from([(7,), (3, 5), (2, 3, 4), (1, 2, 9)]),
        seed=st.integers(0, 2**32 - 1),
        steps=st.integers(1, 30),
        learn=st.booleans(),
        broadcast_theta=st.booleans(),
        minimal_inh=st.booleans(),
        reset_at_threshold=st.booleans(),
    )
    def test_matches_pre_rewrite_bodies(self, shape, seed, steps, learn, broadcast_theta,
                                        minimal_inh, reset_at_threshold):
        import dataclasses

        rng = np.random.default_rng(seed)
        exc_p, inh_p = EXC, UninhibitedLifParams.inhibitory_defaults()
        if reset_at_threshold:  # a held neuron sits at threshold, so only the mask stops it
            exc_p = dataclasses.replace(exc_p, v_reset_mv=exc_p.v_thresh_mv)
            inh_p = dataclasses.replace(inh_p, v_reset_mv=inh_p.v_thresh_mv)
        # A full inhibitory state (zero g_i) needs the g_i constants its layer lacks.
        full_inh_p = LifParams(**vars(inh_p), e_inh_mv=-85.0, tau_gi_ms=0.5)
        wiring = FixedWiring()
        homeo = HomeostasisParams(theta_plus_mv=0.5, theta_decay_ms=50.0) if learn else None
        # frozen experts answering a block read one (N, K) theta for every image
        theta_shape = shape[1:] if broadcast_theta and not learn and len(shape) == 3 else shape
        ref_exc = random_layer(rng, shape, exc_p, theta_shape)
        ref_inh = random_layer(rng, shape, full_inh_p)
        ref_inh.g_i[:] = 0.0
        ref_inh.theta[:] = 0.0
        exc, inh = copy_layer(ref_exc), copy_layer(ref_inh, minimal=minimal_inh)
        for _ in range(steps):
            drive = rng.uniform(0.0, 3.0, shape) * (rng.random(shape) < 0.3)
            ref_exc.g_e += drive
            exc.g_e += drive
            want = (oracle_lif_step(ref_exc, exc_p, 0.5, homeo),
                    oracle_lif_step(ref_inh, full_inh_p, 0.5))
            got = (lif_step(exc, exc_p, 0.5, homeo),
                   lif_step(inh, inh_p if minimal_inh else full_inh_p, 0.5))
            oracle_lateral_inhibition(*want, wiring, ref_exc, ref_inh)
            apply_lateral_inhibition(*got, wiring, exc, inh)
            for w, g in zip(want, got):
                np.testing.assert_array_equal(g, w)
            for ref, new in ((ref_exc, exc), (ref_inh, inh)):
                for name in ("v", "g_e", "g_i", "theta"):
                    value = getattr(new, name)
                    expected = getattr(ref, name)
                    if value is None:  # a minimal inhibitory state against a zeros oracle
                        assert not expected.any()
                    else:
                        assert value.tobytes() == expected.tobytes(), name
                held = ref.refractory > 0.0
                np.testing.assert_array_equal(new.refractory > 0.0, held)
                assert new.refractory[held].tobytes() == ref.refractory[held].tobytes()

    def test_minimal_state_indexes_to_views(self):
        inh = LayerState.inhibitory((2, 3), UninhibitedLifParams.inhibitory_defaults())
        member = inh[1:2]
        assert member.g_i is None and member.theta is None
        member.v[0, 0] = 1.0
        assert inh.v[1, 0] == 1.0


class TestStepConstants:
    """``lif_step`` builds its constants once per (params, dt_ms, homeo) and never reuses stale ones."""

    def test_every_key_change_rebuilds_the_constants(self):
        # Two equal-looking but distinct tau_gi params, two steps and homeostasis on
        # and off, visited in Gray-code order: each step changes exactly one part of
        # the key, so constants kept on less than all of it would go stale.
        params = [SimulationParams.defaults().with_tau_gi(tau).lif_excitatory
                  for tau in (0.5, 2.0)]
        homeos = [None, HomeostasisParams(theta_plus_mv=0.5, theta_decay_ms=50.0)]
        gray = [(0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 0),
                (1, 1, 0), (1, 1, 1), (1, 0, 1), (1, 0, 0)]
        rng = np.random.default_rng(11)
        shape = (2, 6)
        ref = random_layer(rng, shape, EXC, theta_shape=shape)
        state = copy_layer(ref)
        for _ in range(4):
            for p, dt, h in gray:
                drive = rng.uniform(0.0, 3.0, shape) * (rng.random(shape) < 0.5)
                inhibit = rng.uniform(0.0, 20.0, shape) * (rng.random(shape) < 0.5)
                for layer in (ref, state):
                    layer.g_e += drive
                    layer.g_i += inhibit
                want = oracle_lif_step(ref, params[p], (0.5, 0.25)[dt], homeos[h])
                got = lif_step(state, params[p], (0.5, 0.25)[dt], homeos[h])
                np.testing.assert_array_equal(got, want)
                for name in ("v", "g_e", "g_i", "theta"):
                    assert getattr(state, name).tobytes() == getattr(ref, name).tobytes(), name
                held = ref.refractory > 0.0
                np.testing.assert_array_equal(state.refractory > 0.0, held)


def oracle_poisson_encode(image, cfg, seed, rate_boost_hz=0.0):
    """``poisson_encode`` as it was, ordering spikes by input and time with ``np.lexsort``."""
    intensities = np.clip(np.asarray(image, dtype=np.float64).ravel(), 0.0, None)
    rates_hz = intensities * (cfg.max_rate_hz + rate_boost_hz)
    rng = np.random.default_rng(seed)
    counts = rng.poisson(rates_hz * (cfg.presentation_ms / 1000.0))
    total = int(counts.sum())
    times = rng.uniform(0.0, cfg.presentation_ms, size=total)
    indices = np.repeat(np.arange(rates_hz.size, dtype=np.int64), counts)
    order = np.lexsort((times, indices))
    return SpikeTrain(times[order], indices[order], rates_hz.size, cfg.presentation_ms)


def oracle_bin_train(train, dt_ms):
    """``bin_train`` as it was, with a stable argsort of int64 steps."""
    n_pres = int(round(train.duration_ms / dt_ms))
    steps = np.minimum((train.times / dt_ms).astype(np.int64), max(n_pres - 1, 0))
    offsets = np.zeros(n_pres + 1, dtype=np.int64)
    np.cumsum(np.bincount(steps, minlength=n_pres), out=offsets[1:])
    return train.indices[np.argsort(steps, kind="stable")].astype(np.int32), offsets


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestSpikeTrainOracle:
    """``poisson_encode`` and ``bin_train`` match their lexsort and int64-sort bodies bit for bit.

    The encoder does not order spikes in time, so its (time, input) pairs
    are compared after a lexsort; its binned train must equal the oracle's
    byte for byte, since ``bin_train`` alone orders a step.  The draws reach
    every key type: uint8, uint16 and uint32 input ids (1, 256 and 65,537
    inputs) and uint8 to uint32 steps (up to 80,000 steps of 0.5 ms), with
    windows that ``dt`` does not divide.
    """

    @settings(max_examples=80, deadline=None)
    @given(
        n_inputs=st.sampled_from([1, 7, 256, 257, 784, 65_537]),
        presentation_ms=st.sampled_from([0.3, 10.0, 350.0, 40_000.0]),
        dt_ms=st.sampled_from([0.3, 0.5, 1.0]),
        rate_boost_hz=st.sampled_from([0.0, 32.0, 640.0]),
        brightness=st.sampled_from([0.0, 1e-4, 0.05, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(65_537, 40_000.0, 0.5, 640.0, 1.0, 3)   # uint32 ids and uint32 steps
    @example(256, 350.0, 0.3, 32.0, 1.0, 4)          # uint16 ids; 0.3 does not divide 350
    @example(1, 10.0, 1.0, 0.0, 1.0, 5)              # uint8 ids and steps
    @example(784, 350.0, 0.5, 0.0, 0.0, 6)           # a zero image: no spikes
    def test_encode_and_bin_match_pre_rewrite_bodies(
        self, n_inputs, presentation_ms, dt_ms, rate_boost_hz, brightness, seed
    ):
        if round(presentation_ms / dt_ms) < 1:
            return  # no config holds a window shorter than one step
        rng = np.random.default_rng(seed)
        image = rng.uniform(size=(1, n_inputs)) * brightness
        cfg = EncodingConfig(presentation_ms=presentation_ms)
        # a dim image keeps wide inputs and long windows to tens of thousands of spikes
        expected = image.sum() * (cfg.max_rate_hz + rate_boost_hz) * presentation_ms / 1000.0
        image *= min(1.0, 20_000.0 / max(expected, 1e-12))
        got = poisson_encode(image, cfg, seed, rate_boost_hz)
        want = oracle_poisson_encode(image, cfg, seed, rate_boost_hz)
        order = np.lexsort((got.times, got.indices))
        assert_same_bytes(got.times[order], want.times)
        assert_same_bytes(got.indices[order], want.indices)
        assert (got.n_inputs, got.duration_ms) == (want.n_inputs, want.duration_ms)
        indices, offsets = bin_train(got, dt_ms)
        want_indices, want_offsets = oracle_bin_train(want, dt_ms)
        assert_same_bytes(indices, want_indices)
        assert_same_bytes(offsets, want_offsets)

    @settings(max_examples=80, deadline=None)
    @given(
        n_spikes=st.integers(0, 300),
        n_inputs=st.sampled_from([1, 3, 300, 70_000]),
        duration_ms=st.sampled_from([0.5, 2.0, 7.3, 40_000.0]),
        dt_ms=st.sampled_from([0.3, 0.5, 1.0]),
        distinct_times=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bin_matches_on_handmade_trains(
        self, n_spikes, n_inputs, duration_ms, dt_ms, distinct_times, seed
    ):
        if round(duration_ms / dt_ms) < 1:
            return
        rng = np.random.default_rng(seed)
        # few distinct times and few inputs repeat (step, input) pairs; times come unsorted
        times = rng.choice(rng.uniform(0.0, duration_ms, distinct_times), n_spikes)
        indices = rng.integers(0, n_inputs, n_spikes)
        train = SpikeTrain(times, indices, n_inputs, duration_ms)
        got_indices, got_offsets = bin_train(train, dt_ms)
        want_indices, want_offsets = oracle_bin_train(train, dt_ms)
        assert_same_bytes(got_indices, want_indices)
        assert_same_bytes(got_offsets, want_offsets)


class TestStdp:
    def test_saturated_weight_does_not_move(self):
        syn = SynapseMatrix(np.ones((3, 2)))
        syn.pre_trace[:] = 5.0
        stdp_on_post_spike(syn, StdpParams(w_max=1.0, weight_exponent=0.2), 0)
        np.testing.assert_array_equal(syn.w[:, 0], 1.0)

    def test_hand_value_potentiation(self):
        # 0.01 * (1 - 0) * (1 - 0.5)^1 = 0.005
        syn = SynapseMatrix(np.full((1, 1), 0.5))
        syn.pre_trace[0] = 1.0
        params = StdpParams(learning_rate=0.01, trace_target=0.0, w_max=1.0, weight_exponent=1.0)
        stdp_on_post_spike(syn, params, 0)
        assert abs(syn.w[0, 0] - 0.505) < 1e-15

    def test_silent_inputs_are_depressed(self):
        syn = SynapseMatrix(np.full((2, 1), 0.5))
        stdp_on_post_spike(syn, StdpParams(trace_target=0.4), 0)
        assert np.all(syn.w < 0.5)

    def test_weights_stay_clamped_under_random_updates(self):
        rng = np.random.default_rng(1)
        params = StdpParams(learning_rate=0.5, trace_target=0.4, w_max=1.0)
        syn = SynapseMatrix(rng.uniform(size=(6, 4)))
        for _ in range(300):
            syn.pre_trace[:] = rng.uniform(0, 3, size=6)
            stdp_on_post_spike(syn, params, rng.integers(0, 4))
            assert np.all(syn.w >= 0.0) and np.all(syn.w <= 1.0)


class TestNormalization:
    def test_columns_hit_target_sum(self):
        rng = np.random.default_rng(2)
        w = rng.uniform(0, 0.3, size=(20, 5))
        normalize_columns(w, 4.0, w_max=1.0)
        np.testing.assert_allclose(w.sum(axis=0), 4.0, rtol=1e-12)

    def test_clamp_wins_over_target(self):
        w = np.array([[0.5], [0.01]])
        normalize_columns(w, 10.0, w_max=1.0)
        assert w.max() <= 1.0

    def test_in_place_scaling_matches_the_masked_formula_bit_for_bit(self):
        # The formula normalize_columns had, which scaled a masked copy of the columns.
        def masked(w, target_sum, w_max):
            sums = w.sum(axis=0)
            nonzero = sums > 0
            w[:, nonzero] *= target_sum / sums[nonzero]
            np.clip(w, 0.0, w_max, out=w)

        rng = np.random.default_rng(7)
        for _ in range(300):
            shape = tuple(rng.integers(1, 40, size=2))
            # Weights over 60 binades, and about a fifth of the columns all zero.
            w = rng.uniform(0.5, 1.0, size=shape) * 2.0 ** rng.integers(-50, 10, size=shape)
            w[:, rng.uniform(size=shape[1]) < 0.2] = 0.0
            target, w_max = rng.uniform(0.1, 100.0), rng.uniform(0.1, 2.0)
            want = w.copy()
            masked(want, target, w_max)
            normalize_columns(w, target, w_max)
            assert w.tobytes() == want.tobytes()


class TestPresentation:
    def test_empty_train_zero_spikes(self):
        sim = tiny_sim()
        net = ExpertNetwork(SynapseMatrix(np.full((4, 3), 0.5)), sim, tiny_encoding())
        train = SpikeTrain(np.array([]), np.array([], dtype=np.int64), 4, 350.0)
        counts = net.present(train, learn=False)
        assert not counts.any()

    def test_winner_take_all_with_hand_set_weights(self):
        # Neuron 2 holds the largest summed input weight: under a strong
        # uniform drive it must fire first and hardest.
        import dataclasses

        sim = dataclasses.replace(tiny_sim(), weight_norm_enabled=False)
        w = np.zeros((16, 3))
        w[:, 0] = 0.3
        w[:, 1] = 0.5
        w[:, 2] = 0.9
        net = ExpertNetwork(SynapseMatrix(w), sim, tiny_encoding())
        train = poisson_encode(np.ones((4, 4)), EncodingConfig(max_rate_hz=400.0, min_output_spikes=0), seed=0)
        counts = net.present(train, learn=False)
        assert counts[2] == counts.max() > 0
        assert counts[2] > counts[0] and counts[2] > counts[1]

    def test_presentation_is_deterministic(self):
        rng = np.random.default_rng(3)
        w = rng.uniform(0, 0.5, size=(64, 6))
        train = poisson_encode(rng.uniform(size=(8, 8)), tiny_encoding(), seed=11)
        results = []
        for _ in range(2):
            net = learning_group_of_one(w.copy(), tiny_sim(), tiny_encoding())
            results.append(net.present([train], learn=True))
        np.testing.assert_array_equal(results[0], results[1])

    def test_simultaneous_pre_and_post_spike_ordering(self):
        # An input spike must update conductance and trace before the same
        # step's threshold test, so a one-step-driven postsynaptic spike sees
        # the fresh trace of exactly 1.
        import dataclasses

        stdp = StdpParams(learning_rate=0.1, trace_target=0.4, w_max=100.0,
                          weight_exponent=1.0)
        sim = dataclasses.replace(tiny_sim(), stdp=stdp, weight_norm_enabled=False)
        w0 = 50.0  # drives dv = 0.005 * 50 * 65 > 16 mV: fires in one step
        net = learning_group_of_one(np.full((1, 1), w0), sim, tiny_encoding())
        train = SpikeTrain(np.array([0.1]), np.array([0], dtype=np.int64), 1, 350.0)
        counts = net.present([train], learn=True)[0]
        assert counts[0] >= 1
        expected_dw = 0.1 * (1.0 - 0.4) * (100.0 - w0)
        assert abs(net.syn.w[0, 0, 0] - (w0 + expected_dw)) < 1e-9

    def test_retry_boost_until_spike_floor(self):
        # A dim image misses the 5-spike floor at the base rate; boosted
        # re-presentations must reach it.
        rng = np.random.default_rng(5)
        w = rng.uniform(0, 0.5, size=(64, 6))
        image = np.full((8, 8), 0.05)
        enc_off = tiny_encoding()
        net = learning_group_of_one(w.copy(), tiny_sim(), enc_off)
        quiet = net.present_with_retry([image], [(1, 2, 3)])
        assert quiet.sum() < 5

        enc_retry = EncodingConfig(min_output_spikes=5, retry_boost_hz=64.0,
                                   max_retries=30)
        net = learning_group_of_one(w.copy(), tiny_sim(), enc_retry)
        boosted = net.present_with_retry([image], [(1, 2, 3)])
        assert boosted.sum() >= 5

    def test_a_group_bumps_each_real_spike_trace_once_per_step(self):
        # Trains of unequal length pad a group's steps; each real spike bumps
        # its input's trace by 1 before the step's decay, as a per-spike loop does.
        rng = np.random.default_rng(21)
        n_inputs, n_steps = 6, 40
        trains = []
        for g in range(3):
            per_step = rng.integers(0, 4 * g + 1, size=n_steps)
            offsets = np.concatenate([[0], np.cumsum(per_step)])
            indices = np.sort(rng.integers(0, n_inputs, size=offsets[-1])).astype(np.int32)
            trains.append(BinnedTrain(indices, offsets))
        group = ExpertNetwork.learning_group(n_inputs, 2, [1, 2, 3], tiny_sim(),
                                             tiny_encoding(presentation_ms=n_steps * 0.5))
        group.present(trains, learn=True, run_rest=False)
        decay = math.exp(-0.5 / tiny_sim().stdp.trace_tau_ms)
        want = np.zeros((3, n_inputs))
        for t in range(n_steps):
            for g, tr in enumerate(trains):
                for i in tr.indices[tr.offsets[t]:tr.offsets[t + 1]]:
                    want[g, i] += 1.0
            want *= decay
        assert group.syn.pre_trace[:, :n_inputs].tobytes() == want.tobytes()

    def test_pad_row_traces_are_never_read(self, monkeypatch):
        # A group bumps its traces over each padded step, pad entries included;
        # pad-row traces that start at NaN must change nothing else, through
        # presentations whose dim images re-present alone.
        encoded = []

        def encode(*args, **kwargs):
            encoded.append(1)
            return poisson_encode(*args, **kwargs)

        monkeypatch.setattr(network, "poisson_encode", encode)
        rng = np.random.default_rng(22)
        images = rng.uniform(size=(4, 3, 8, 8)) * np.array([1.0, 0.2, 0.03])[:, None, None]
        enc = EncodingConfig(min_output_spikes=5, retry_boost_hz=32.0, max_retries=4)
        nets = []
        for pad_trace in (0.0, np.nan):
            net = ExpertNetwork.learning_group(64, 6, [4, 5, 6], tiny_sim(), enc)
            net.syn.pre_trace[:, -1] = pad_trace
            counts = [net.present_with_retry(batch, [(7, e, g) for g in range(3)])
                      for e, batch in enumerate(images)]
            nets.append((net, np.array(counts)))
        assert len(encoded) > 2 * images.shape[0] * images.shape[1]  # retries happened
        (zero, zero_counts), (nan, nan_counts) = nets
        assert np.isnan(nan.syn.pre_trace[:, -1]).all()
        assert not nan.syn.w[:, -1].any()
        assert nan.syn.w.tobytes() == zero.syn.w.tobytes()
        assert nan.exc.theta.tobytes() == zero.exc.theta.tobytes()
        assert nan.syn.pre_trace[:, :-1].tobytes() == zero.syn.pre_trace[:, :-1].tobytes()
        np.testing.assert_array_equal(nan_counts, zero_counts)

    def test_retry_gives_up_on_black_image(self):
        enc_retry = EncodingConfig(min_output_spikes=5, max_retries=10)
        net = learning_group_of_one(np.full((4, 2), 0.3), tiny_sim(), enc_retry)
        counts = net.present_with_retry([np.zeros((2, 2))], [(0,)])
        assert not counts.any()

    def test_inference_leaves_the_presynaptic_traces_alone(self):
        rng = np.random.default_rng(8)
        train = poisson_encode(rng.uniform(size=(8, 8)), tiny_encoding(), seed=13)
        net = ExpertNetwork(SynapseMatrix(rng.uniform(0, 0.5, size=(64, 6))), tiny_sim(), tiny_encoding())
        net.present(train, learn=False)
        assert len(train) > 0 and not net.syn.pre_trace.any()

    def test_out_of_range_index_in_an_inference_train_is_internal_error(self):
        good = SpikeTrain(np.array([0.1]), np.array([3], dtype=np.int64), 4, 350.0)
        bad = SpikeTrain(np.array([0.1, 200.0]), np.array([1, 4], dtype=np.int64), 5, 350.0)
        syn = SynapseMatrix(np.full((4, 2), 0.5, dtype=np.float32))
        with pytest.raises(AssertionError):
            ExpertNetwork(syn, tiny_sim(), tiny_encoding()).present(bad, learn=False)
        with pytest.raises(AssertionError):
            ExpertNetwork(syn, tiny_sim(), tiny_encoding(), images=2).present([good, bad], learn=False)

    def test_a_group_train_indexing_the_pad_row_is_internal_error(self):
        # Index 4 names input 4 of a 4-input expert, which does not exist;
        # in a learning group it would land on that expert's all-zero pad row.
        good = SpikeTrain(np.array([0.1]), np.array([3], dtype=np.int64), 4, 350.0)
        bad = SpikeTrain(np.array([0.1, 200.0]), np.array([1, 4], dtype=np.int64), 5, 350.0)
        group = ExpertNetwork.learning_group(4, 2, [0, 1], tiny_sim(), tiny_encoding())
        before = group.syn.w.copy()
        with pytest.raises(AssertionError):
            group.present([good, bad], learn=True)
        np.testing.assert_array_equal(group.syn.w, before)
        with pytest.raises(AssertionError):
            alone = learning_group_of_one(np.full((4, 2), 0.5), tiny_sim(), tiny_encoding())
            alone.present([bad], learn=True)

    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_block_cells_equal_each_expert_alone(self, k):
        # One step of large spike sets onto weights spanning 60 binades: a
        # block of one-neuron experts must stay on the per-image path, since
        # numpy sums a lone column pairwise and padding would change the sum.
        rng = np.random.default_rng(10 + k)
        n_experts, sizes = 3, (9, 40, 200, 131, 0)
        w = (2.0 ** rng.uniform(-60, 1, size=(50, n_experts, k))).astype(np.float32)
        trains = [BinnedTrain(rng.integers(0, 50, size=m).astype(np.int32), np.array([0, m]))
                  for m in sizes]
        block = ExpertNetwork(SynapseMatrix(w), tiny_sim(), tiny_encoding(), images=len(sizes))
        block.present(trains, learn=False, run_rest=False)
        for b, train in enumerate(trains):
            for i in range(n_experts):
                alone = ExpertNetwork(SynapseMatrix(w[:, i].astype(np.float64)), tiny_sim(),
                                      tiny_encoding())
                alone.present(train, learn=False, run_rest=False)
                for name in ("v", "g_e", "g_i", "refractory"):
                    np.testing.assert_array_equal(
                        getattr(block.exc, name)[b, i], getattr(alone.exc, name)
                    )

    @pytest.mark.parametrize("learn, n_experts, k, n_images, padded", [
        (False, 2, 5, 3, True),
        (False, 1, PAD_BLOCK_CELLS, 2, True),
        (False, 1, PAD_BLOCK_CELLS + 1, 2, False),
        (False, 4, 1, 3, False),
        (False, 2, 5, 1, True),
        (False, 1, PAD_BLOCK_CELLS + 1, 1, True),
        (False, 4, 1, 1, False),
        (True, 3, 2, 3, True),
        (True, 1, 2, 1, True),
        (True, 3, 1, 3, False),
        (True, 1, 1, 1, False),
    ])
    def test_block_size_picks_the_delivery_path(
        self, monkeypatch, learn, n_experts, k, n_images, padded,
    ):
        # Learning groups of K > 1 and small frozen blocks of K > 1 get one
        # padded (m, C) gather per step; a frozen block of one image of K > 1
        # has no pad entries and gets one gather on its stack as it is, at any
        # size.  Larger frozen blocks and one-neuron experts, learning or not,
        # read each column's counted rows, a frozen block from the stack itself
        # and a learning group from its flattened stack.  Either way, one call
        # per step with spikes.
        deliver, calls = network.apply_input_spikes, []

        def spy(state, syn, indices, counts=None):
            calls.append((indices.ndim, counts is None, syn.w.shape[0]))
            deliver(state, syn, indices, counts)

        monkeypatch.setattr(network, "apply_input_spikes", spy)
        # Steps 0 and 2 hold spikes of some train, step 1 none.
        trains = [BinnedTrain(np.array([b % 8, 7 - b % 8], dtype=np.int32), np.array([0, 1, 1, 2]))
                  for b in range(n_images)]
        if learn:   # one train per member
            net = ExpertNetwork.learning_group(8, k, list(range(n_experts)), tiny_sim(),
                                               tiny_encoding())
            rows = n_experts * 9
        else:
            w = np.full((8, n_experts, k), 0.5, dtype=np.float32)
            net = ExpertNetwork(SynapseMatrix(w), tiny_sim(), tiny_encoding(), images=n_images)
            rows = 9 if padded and n_images > 1 else 8
        net.present(trains, learn=learn, run_rest=False)
        assert calls == [(2, padded, rows)] * 2

    def test_one_neuron_group_state_equals_each_member_alone(self):
        # Large spike sets onto weights spanning 60 binades: numpy sums a lone
        # column pairwise, so a group of one-neuron experts whose steps were
        # padded would drive a member with another sum than it gets alone.  A
        # one-step presentation per round checks every delivery's bits.
        rng = np.random.default_rng(30)
        n_inputs, sim = 50, tiny_sim(stdp=StdpParams(w_max=2.0))
        w = 2.0 ** rng.uniform(-60, 1, size=(3, n_inputs, 1))
        group = ExpertNetwork.learning_group(n_inputs, 1, [0, 1, 2], sim, tiny_encoding())
        group.syn.w[:, :n_inputs] = w
        alone = [learning_group_of_one(w[g], sim, tiny_encoding()) for g in range(3)]
        for sizes in rng.choice([0, 9, 40, 131, 200], size=(30, 3)):
            trains = [BinnedTrain(rng.integers(0, n_inputs, size=m).astype(np.int32),
                                  np.array([0, m])) for m in sizes]
            group.present(trains, learn=True, run_rest=False)
            for g, (net, train) in enumerate(zip(alone, trains)):
                net.present([train], learn=True, run_rest=False)
                pairs = [(getattr(group.exc, name)[g], getattr(net.exc, name)[0])
                         for name in ("v", "g_e", "g_i", "theta")]
                pairs += [(group.syn.pre_trace[g, :n_inputs], net.syn.pre_trace[0, :n_inputs]),
                          (group.syn.w[g, :n_inputs], net.syn.w[0, :n_inputs])]
                for a, b in pairs:
                    assert a.tobytes() == b.tobytes()

    def test_learning_changes_weights_inference_does_not(self):
        rng = np.random.default_rng(4)
        w = rng.uniform(0, 0.5, size=(64, 6))
        train = poisson_encode(rng.uniform(size=(8, 8)), tiny_encoding(), seed=12)
        net = ExpertNetwork(SynapseMatrix(w.copy()), tiny_sim(), tiny_encoding())
        net.present(train, learn=False, run_rest=False)
        np.testing.assert_array_equal(net.syn.w, w)
        net = learning_group_of_one(w.copy(), tiny_sim(), tiny_encoding())
        net.present([train], learn=True)
        assert not np.array_equal(net.syn.w[0, :-1], w)

    def test_only_a_learning_group_learns(self):
        train = SpikeTrain(np.array([0.1]), np.array([3], dtype=np.int64), 4, 350.0)
        frozen = ExpertNetwork(SynapseMatrix(np.full((4, 2), 0.5)), tiny_sim(), tiny_encoding())
        group = learning_group_of_one(np.full((4, 2), 0.5), tiny_sim(), tiny_encoding())
        with pytest.raises(ValueError, match="learning group"):
            frozen.present(train, learn=True)
        with pytest.raises(ValueError, match="learning group"):
            group.present([train], learn=False)

    def test_a_learning_presentation_flushes_subnormal_inhibitory_g_e(self):
        # exp(-0.5 / 1.0) > 0.5, so 5e-324 decays back to itself and never reaches 0.
        stuck = np.float64(5e-324)
        assert stuck * math.exp(-0.5 / 1.0) == stuck
        group = ExpertNetwork.learning_group(4, 3, [0, 1], tiny_sim(), tiny_encoding())
        group.inh.g_e[:] = stuck
        empty = SpikeTrain(np.array([]), np.array([], dtype=np.int64), 4, 350.0)
        group.present([empty, empty], learn=True)
        assert not group.inh.g_e.any()

    def test_a_stuck_inhibitory_g_e_changes_nothing_else(self):
        # A stuck g_e adds far less than half an ulp to v, so a presentation
        # from it ends where one from 0 ends: frozen experts never flush it, and
        # a learning group flushes it first.
        rng = np.random.default_rng(4)
        w = rng.uniform(0, 0.5, size=(64, 6))
        train = poisson_encode(rng.uniform(size=(8, 8)), tiny_encoding(), seed=12)
        ends = []
        for g_e in (5e-324, 0.0):
            frozen = ExpertNetwork(SynapseMatrix(w.copy()), tiny_sim(), tiny_encoding())
            group = learning_group_of_one(w.copy(), tiny_sim(), tiny_encoding())
            frozen.inh.g_e[:] = g_e
            group.inh.g_e[:] = g_e
            counts = (frozen.present(train, learn=False), group.present([train], learn=True))
            ends.append([*counts, group.syn.w, group.exc.theta] + [
                getattr(layer, name) for net in (frozen, group)
                for layer, names in ((net.exc, ("v", "g_e", "g_i")), (net.inh, ("v",)))
                for name in names
            ])
        assert ends[0][0].sum() > 0 and ends[0][1].sum() > 0
        for stuck, zero in zip(*ends):
            np.testing.assert_array_equal(stuck, zero)
