"""Acceptance suite: one test per release criterion, each printing a verdict.

The heavyweight fixtures (a 100-place synthetic world with four experts)
are session-scoped and shared by several criteria.  Every tolerance is
fixed here, in code; each test prints one PASS/FAIL line with the measured
numbers (run pytest with -s to see them live).
"""

import dataclasses
import math
import os
import time

import numpy as np
import pytest
from scipy.stats import linregress, mannwhitneyu

from snnplace.calibration import select_theta, theta_sweep
from snnplace.ensemble import (
    apply_threshold,
    collect_query_responses,
    detect_hyperactive,
    flags_for_theta,
    fuse_scores,
    match_query,
    partition_reference,
    train_ensemble,
)
from snnplace.expert import ExpertConfig
from snnplace.imaging import EncodingConfig, PatchNormConfig
from snnplace.metrics import (
    neuron_precision_analysis,
    pr_curve,
    precision_at_100_recall,
    recall_at_n,
    records_from_responses,
    sad_distance,
)
from snnplace.network import (
    LifParams,
    SimulationParams,
    StdpParams,
    SynapseMatrix,
    lif_step,
    stdp_on_post_spike,
)
from snnplace.store import load_ensemble, save_ensemble
from snnplace.synthetic import (
    corrupt_queries,
    inject_cross_region_responders,
    make_textures,
    preprocess_stack,
    query_time_benchmark,
)
from tests.conftest import tiny_encoding, tiny_expert_cfg, tiny_sim, tiny_textures
from tests.test_ensemble import brute_force_ranking, random_instance
from tests.test_metrics import record

WORKERS = min(4, os.cpu_count() or 1)


def verdict(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE #{number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


# ---------------------------------------------------------------------------
# shared desk-scale world: 100 seeded textures, clean reference, noisy query
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def desk_world():
    raw = make_textures(100, (28, 28), seed=11)
    reference = preprocess_stack(raw)[None]
    queries = preprocess_stack(corrupt_queries(raw, seed=12, noise_sigma=0.1,
                                               brightness_gain=1.1))
    return reference, queries, np.arange(100)


@pytest.fixture(scope="session")
def desk_model(desk_world):
    """Trained + regularized four-expert model plus cached query responses."""
    reference, queries, truths = desk_world
    tick = time.perf_counter()
    cfg = ExpertConfig(n_excitatory=100, places_per_expert=25,
                       epochs=30, record_last_epochs=10)
    model = train_ensemble(
        reference, cfg,
        SimulationParams.defaults(), EncodingConfig(), PatchNormConfig(),
        global_seed=5, workers=WORKERS,
    )
    detect_hyperactive(model, reference, None, workers=WORKERS)
    responses = collect_query_responses(model, queries, workers=WORKERS)
    return {
        "model": model,
        "responses": responses,
        "seconds": time.perf_counter() - tick,
    }


def run_injection_study(desk_world, desk_model, fraction):
    """Inject under-regularized foreign responders and sweep the threshold."""
    reference, queries, truths = desk_world
    injected, pairs = inject_cross_region_responders(
        desk_model["model"], fraction=fraction, seed=21
    )
    detect_hyperactive(injected, reference, None, workers=WORKERS)
    responses = collect_query_responses(injected, queries, workers=WORKERS)
    curve = theta_sweep(injected, queries, truths, responses=responses)
    theta_star = select_theta(curve)
    return {
        "model": injected,
        "pairs": pairs,
        "responses": responses,
        "curve": dict(curve),
        "theta_star": theta_star,
        "truths": truths,
    }


@pytest.fixture(scope="session")
def injection_study(desk_world, desk_model):
    return run_injection_study(desk_world, desk_model, fraction=0.05)


@pytest.fixture(scope="session")
def injection_study_wide(desk_world, desk_model):
    # Criterion 6 demands >= 30 neurons per group; 5% of the 400 desk-scale
    # neurons is only 20, so its analysis runs the same protocol at 8%.
    return run_injection_study(desk_world, desk_model, fraction=0.08)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_numerics():
    tick = time.perf_counter()
    # conductance decay vs closed form over 100 steps at dt=0.5
    worst = 0.0
    for tau_g in (0.5, 1.0, 2.0):
        params = dataclasses.replace(
            LifParams.excitatory_defaults(), tau_ge_ms=tau_g, tau_gi_ms=tau_g
        )
        from snnplace.network import LayerState

        state = LayerState.resting(1, params)
        state.v[0] = -90.0
        state.g_e[0] = 1.0
        for _ in range(100):
            lif_step(state, params, 0.5)
        expected = math.exp(-100 * 0.5 / tau_g)
        worst = max(worst, abs(state.g_e[0] - expected) / expected)
    decay_ok = worst <= 0.01

    # membrane relaxation toward rest is monotone from both sides
    mono_ok = True
    params = LifParams.excitatory_defaults()
    for v0 in (-95.0, -55.0):
        from snnplace.network import LayerState

        state = LayerState.resting(1, params)
        state.v[0] = v0
        previous = abs(v0 - params.e_rest_mv)
        for _ in range(1000):
            lif_step(state, params, 0.5)
            gap = abs(state.v[0] - params.e_rest_mv)
            mono_ok &= gap <= previous
            previous = gap

    # the three plasticity hand values, exact
    syn = SynapseMatrix(np.ones((1, 1)))
    syn.pre_trace[0] = 5.0
    stdp_on_post_spike(syn, StdpParams(w_max=1.0, weight_exponent=0.2), 0)
    stdp_ok = syn.w[0, 0] == 1.0

    syn = SynapseMatrix(np.full((1, 1), 0.5))
    syn.pre_trace[0] = 1.0
    stdp_on_post_spike(
        syn, StdpParams(learning_rate=0.01, trace_target=0.0, w_max=1.0,
                        weight_exponent=1.0), 0,
    )
    stdp_ok &= abs(syn.w[0, 0] - 0.505) < 1e-15

    syn = SynapseMatrix(np.full((1, 1), 0.5))
    stdp_on_post_spike(syn, StdpParams(trace_target=0.4), 0)
    stdp_ok &= syn.w[0, 0] < 0.5

    elapsed = time.perf_counter() - tick
    ok = decay_ok and mono_ok and stdp_ok and elapsed < 1.0
    verdict(1, "numerics", ok,
            f"decay err {worst:.2e}, monotone {mono_ok}, stdp {stdp_ok}, {elapsed:.2f}s")
    assert decay_ok and mono_ok and stdp_ok
    assert elapsed < 1.0


def test_criterion_2_oracle_equivalence():
    tick = time.perf_counter()
    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(1000):
        model, counts, flags = random_instance(rng)
        (fused,) = fuse_scores(model, [counts])
        places, scores = brute_force_ranking(model, counts, flags)
        if not (np.array_equal(fused.place_ids, places)
                and np.array_equal(fused.scores, scores)):
            mismatches += 1
    elapsed = time.perf_counter() - tick
    ok = mismatches == 0 and elapsed < 10.0
    verdict(2, "oracle equivalence", ok,
            f"{mismatches}/1000 mismatches, {elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed < 10.0


def test_criterion_3_partition_and_filter_properties():
    tick = time.perf_counter()
    rng = np.random.default_rng(3030)
    tiling_ok = True
    for _ in range(500):
        place_count = int(rng.integers(1, 4000))
        kappa = int(rng.integers(1, 120))
        ranges = partition_reference(place_count, kappa)
        covered = np.concatenate([np.arange(s, t) for s, t in ranges])
        tiling_ok &= bool(np.array_equal(covered, np.arange(place_count)))

    monotone_ok = True
    for _ in range(50):
        totals = rng.integers(0, 300, size=64)
        previous = np.ones(totals.size, dtype=bool)  # totals >= 0: every neuron
        for theta in range(1, 320, 11):
            current = flags_for_theta(totals, theta)
            monotone_ok &= not bool(np.any(current & ~previous))
            previous = current

    reduces_ok = True
    for _ in range(50):
        model, counts, _ = random_instance(rng)
        roof = max(int(ex.reference_totals.max(initial=0)) for ex in model.experts) + 1
        apply_threshold(model, roof)
        (filtered,) = fuse_scores(model, [counts])
        apply_threshold(model, None)
        (plain,) = fuse_scores(model, [counts])
        reduces_ok &= bool(
            np.array_equal(filtered.place_ids, plain.place_ids)
            and np.array_equal(filtered.scores, plain.scores)
        )

    elapsed = time.perf_counter() - tick
    ok = tiling_ok and monotone_ok and reduces_ok and elapsed < 5.0
    verdict(3, "partition/filter properties", ok,
            f"tiling {tiling_ok}, monotone {monotone_ok}, degeneracy {reduces_ok}, {elapsed:.1f}s")
    assert tiling_ok and monotone_ok and reduces_ok
    assert elapsed < 5.0


def test_criterion_4_desk_scale_end_to_end(desk_world, desk_model):
    _, _, truths = desk_world
    records = records_from_responses(desk_model["model"], desk_model["responses"], truths)
    p100 = precision_at_100_recall(records)
    elapsed = desk_model["seconds"]
    ok = p100 >= 0.85 and elapsed < 1800.0
    verdict(4, "desk-scale end-to-end", ok,
            f"P@100R {p100:.3f} >= 0.85, pipeline {elapsed:.0f}s < 1800s")
    assert p100 >= 0.85
    assert elapsed < 1800.0


def test_criterion_5_regularization_benefit(injection_study):
    curve = injection_study["curve"]
    baseline = curve[0.0]
    theta_star = injection_study["theta_star"]
    calibrated = curve[theta_star]
    gap = calibrated - baseline
    in_band = sum(p > baseline for theta, p in curve.items() if theta > 0)
    ok = gap >= 0.02 and in_band >= 3
    verdict(5, "regularization benefit", ok,
            f"theta*={theta_star:.0f}: {calibrated:.3f} vs theta=0: {baseline:.3f}, "
            f"gap {gap * 100:.1f} pts >= 2; {in_band}/{len(curve) - 1} thresholds beat baseline")
    assert gap >= 0.02
    assert in_band >= 3  # a band of working thresholds, not a single point


def test_criterion_6_neuron_precision_separation(injection_study_wide):
    study = injection_study_wide
    model = study["model"]
    apply_threshold(model, study["theta_star"])
    records, summary = neuron_precision_analysis(
        model, study["responses"], study["truths"]
    )
    hyper = [r.precision for r in records if r.hyperactive]
    clean = [r.precision for r in records if not r.hyperactive]
    p_value = mannwhitneyu(clean, hyper, alternative="greater").pvalue
    groups_ok = len(hyper) >= 30 and len(clean) >= 30
    separation_ok = np.mean(clean) > np.mean(hyper)
    ok = groups_ok and separation_ok and p_value < 0.05
    verdict(6, "neuron-precision separation", ok,
            f"mean {np.mean(clean):.3f} (n={len(clean)}) > {np.mean(hyper):.3f} "
            f"(n={len(hyper)}), Mann-Whitney p={p_value:.1e}")
    assert groups_ok
    assert separation_ok
    assert p_value < 0.05


def test_criterion_7_query_time_scaling():
    tick = time.perf_counter()
    sizes = [1, 2, 4, 8, 16]
    times = dict(query_time_benchmark(sizes, n_excitatory=100, n_queries=60, seed=77))
    fit = linregress(sizes, [times[n] for n in sizes])
    r_squared = fit.rvalue ** 2
    doubling_ok = all(times[2 * n] <= 2.3 * times[n] for n in (1, 2, 4, 8))
    elapsed = time.perf_counter() - tick
    ok = r_squared >= 0.95 and doubling_ok and elapsed < 300.0
    detail = ", ".join(f"N={n}:{times[n] * 1e3:.0f}ms" for n in sizes)
    verdict(7, "query-time scaling", ok,
            f"R^2={r_squared:.4f} >= 0.95, doubling<=2.3x {doubling_ok}, "
            f"{detail}, {elapsed:.0f}s")
    assert r_squared >= 0.95
    assert doubling_ok
    assert elapsed < 300.0


def test_criterion_8_determinism_and_persistence(desk_world, desk_model, tmp_path):
    tick = time.perf_counter()
    # bit-identical archives for worker counts 1 and 8 on a fresh small world
    textures = tiny_textures(8, seed=88)[None]
    archives = {}
    for workers in (1, 8):
        model = train_ensemble(
            textures,
            tiny_expert_cfg(epochs=3, record_last_epochs=2),
            tiny_sim(), tiny_encoding(), PatchNormConfig(),
            global_seed=88, workers=workers,
        )
        detect_hyperactive(model, textures, theta=5, workers=workers)
        path = tmp_path / f"arch_w{workers}"
        save_ensemble(model, path)
        archives[workers] = {
            name: (path / name).read_bytes() for name in sorted(os.listdir(path))
        }
    workers_ok = archives[1] == archives[8]

    # save/load round-trip preserves 50 query outcomes on the desk model
    _, queries, _ = desk_world
    model = desk_model["model"]
    save_ensemble(model, tmp_path / "desk")
    loaded = load_ensemble(tmp_path / "desk")
    roundtrip_ok = True
    for k in range(50):
        before = match_query(model, queries[k], query_id=k)
        after = match_query(loaded, queries[k], query_id=k)
        roundtrip_ok &= bool(
            np.array_equal(before.place_ids, after.place_ids)
            and np.array_equal(before.scores, after.scores)
        )
    elapsed = time.perf_counter() - tick
    ok = workers_ok and roundtrip_ok and elapsed < 600.0
    verdict(8, "determinism & persistence", ok,
            f"workers 1==8 {workers_ok}, 50-query round-trip {roundtrip_ok}, {elapsed:.0f}s")
    assert workers_ok
    assert roundtrip_ok
    assert elapsed < 600.0


def test_criterion_9_metrics_cross_checks():
    tick = time.perf_counter()
    rng = np.random.default_rng(909)

    identity_ok = True
    for _ in range(200):
        n_places = int(rng.integers(2, 12))
        records = [
            record(int(rng.integers(0, n_places)), rng.permutation(n_places),
                   scores=sorted(rng.integers(0, 30, size=n_places), reverse=True))
            for _ in range(int(rng.integers(1, 30)))
        ]
        identity_ok &= precision_at_100_recall(records) == recall_at_n(records, 1)
        values = [recall_at_n(records, n) for n in range(1, n_places + 1)]
        identity_ok &= all(b >= a for a, b in zip(values, values[1:]))
        points = pr_curve(records)
        identity_ok &= points[-1][1] == precision_at_100_recall(records)

    sad_ok = True
    for _ in range(100):
        a, b, c = rng.uniform(-3, 3, size=(3, 6, 6))
        sad_ok &= sad_distance(a, b) >= 0
        sad_ok &= sad_distance(a, a) == 0
        sad_ok &= sad_distance(a, b) == sad_distance(b, a)
        sad_ok &= sad_distance(a, c) <= sad_distance(a, b) + sad_distance(b, c) + 1e-12

    elapsed = time.perf_counter() - tick
    ok = identity_ok and sad_ok and elapsed < 5.0
    verdict(9, "metrics cross-checks", ok,
            f"P@100R==R@1 & monotone & endpoint {identity_ok}, SAD axioms {sad_ok}, {elapsed:.1f}s")
    assert identity_ok and sad_ok
    assert elapsed < 5.0
