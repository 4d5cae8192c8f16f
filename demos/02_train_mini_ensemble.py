"""Train a miniature two-expert ensemble and watch it recognize places.

Builds eight synthetic places, trains two experts of four places each,
computes reference totals, and matches noisy queries back to their
places. A few seconds of compute.
"""

import time

from snnplace import (
    EncodingConfig,
    ExpertConfig,
    PatchNormConfig,
    SimulationParams,
    detect_hyperactive,
    match_query,
    partition_reference,
    train_ensemble,
)
from snnplace.synthetic import corrupt_queries, make_textures, preprocess_stack

N_PLACES = 8
PLACES_PER_EXPERT = 4

raw = make_textures(N_PLACES, (28, 28), seed=3)
reference = preprocess_stack(raw)[None]          # one reference traverse
queries = preprocess_stack(corrupt_queries(raw, seed=4))

partition = partition_reference(N_PLACES, PLACES_PER_EXPERT)
print(f"partition: {partition.n_regions} regions -> {partition.ranges}")

cfg = ExpertConfig(
    n_excitatory=40, places_per_expert=PLACES_PER_EXPERT, epochs=15, record_last_epochs=5,
)
tick = time.perf_counter()
model = train_ensemble(
    reference, cfg,
    SimulationParams.defaults(), EncodingConfig(), PatchNormConfig(),
    global_seed=1, workers=2,
)
print(f"trained {partition.n_regions} experts in {time.perf_counter() - tick:.1f}s")
n_excitatory = model.assignments.shape[1]
for i, assigned in enumerate((model.assignments >= 0).sum(axis=1).tolist()):
    print(f"expert {i}: {assigned}/{n_excitatory} neurons assigned")

# One inference pass over the whole reference set fills the totals that
# hyperactivity detection thresholds; no query data is needed for it.
detect_hyperactive(model, reference, theta=None, workers=2)

correct = 0
for place in range(N_PLACES):
    result = match_query(model, queries[place], query_id=place)
    hit = result.top == place
    correct += hit
    print(f"query {place}: matched place {result.top:2d} "
          f"(score {result.scores[0]:3d}) {'ok' if hit else 'MISS'}")
print(f"precision at 100% recall: {correct / N_PLACES:.2f}")
