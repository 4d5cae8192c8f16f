"""The benchmark's traced run still sees frozen inference.

Tier-1 never runs the benchmark, so a library change that the traced run
(``bench/tracing.py``) no longer wraps correctly would show only there.
This loads the tracer from its file, traces the three inference entry
points on a small synthetic ensemble and checks the inference rows.
"""

import importlib.util
import pathlib

import numpy as np

from snnplace import ensemble
from snnplace.synthetic import make_textures, synthetic_ensemble

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
