"""The benchmark's traced run still sees frozen inference and training.

Tier-1 never runs the benchmark, so a library change that the traced run
(``bench/tracing.py``) no longer wraps correctly would show only there.
This loads the tracer from its file, traces the three inference entry
points on a small synthetic ensemble and the training of a small
ensemble, and checks the rows of each.
"""

import importlib.util
import pathlib

import numpy as np

from snnplace import ensemble
from snnplace.expert import RegionData, train_expert
from snnplace.imaging import PatchNormConfig, derive_seed
from snnplace.synthetic import make_textures, synthetic_ensemble
from tests.conftest import tiny_encoding, tiny_expert_cfg, tiny_sim, tiny_textures

TRACING = pathlib.Path(__file__).parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_inference_counts_blocks_steps_and_spikes(monkeypatch):
    model = synthetic_ensemble(2, n_excitatory=30, places_per_expert=5, seed=2)
    reference = make_textures(10, (28, 28), 3)[None]
    queries = make_textures(3, (28, 28), 4)
    monkeypatch.setattr(ensemble, "BLOCK_STATE", 4 * 2 * 30)   # blocks of 4 images
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        ensemble.detect_hyperactive(model, reference, None)
        rows = ensemble.collect_query_responses(model, queries)
        ensemble.match_query(model, queries[0], query_id=0)   # the seed of rows[0]
    finally:
        tracer.uninstall()
    layer = {name: value for name, (value, _) in tracer.layer_metrics().items()}

    blocks = 3 + 1 + 1                       # 10 reference images, 3 queries, 1 match
    steps_per_block = round(model.encoding.presentation_ms / model.sim.dt_ms)
    assert layer["network.present_infer.calls"] == blocks
    assert layer["network.present_learn.calls"] == 0
    assert layer["network.steps"] == blocks * steps_per_block
    assert layer["network.lif_step.calls"] == 2 * layer["network.steps"]
    assert layer["network.input_spikes.calls"] > 0
    totals = sum(int(ex.reference_totals.sum()) for ex in model.experts)
    assert layer["network.output_spikes"] == totals + int(rows.sum()) + int(rows[0].sum())
    assert layer["ensemble.expert_images"] == len(model.experts) * (10 + 3 + 1)
    assert layer["imaging.encode.calls"] == 10 + 3 + 1


def test_traced_training_counts_group_presentations_steps_and_spikes():
    textures = tiny_textures(4, seed=30)[None]
    cfg = tiny_expert_cfg(n_excitatory=6, places_per_expert=2, epochs=2, record_last_epochs=2)
    sim, encoding = tiny_sim(), tiny_encoding()
    ranges = ensemble.partition_reference(4, 2)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        ensemble.train_ensemble(textures, cfg, sim, encoding, PatchNormConfig(), global_seed=9)
    finally:
        tracer.uninstall()
    layer = {name: value for name, (value, _) in tracer.layer_metrics().items()}

    presentations = cfg.epochs * 2             # both experts step through 2 places together
    steps = round((encoding.presentation_ms + encoding.rest_ms) / sim.dt_ms)
    assert layer["network.present_learn.calls"] == presentations
    assert layer["network.present_infer.calls"] == 0
    assert layer["network.steps"] == presentations * steps
    assert layer["network.lif_step.calls"] == 2 * layer["network.steps"]
    assert layer["network.normalize_columns.calls"] == 2 * presentations
    # Every epoch is recorded and nothing retries, so the tables hold every output spike.
    tables = [
        train_expert(
            RegionData(textures[:, start:stop], np.arange(start, stop)[None], start,
                       seed=derive_seed(9, index)),
            cfg, sim, encoding,
        )[1]
        for index, (start, stop) in enumerate(ranges)
    ]
    assert layer["network.output_spikes"] == sum(int(table.sum()) for table in tables) > 0
