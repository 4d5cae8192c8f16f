"""Why removing hyperactive neurons helps: a controlled corruption study.

Trains a small ensemble, transplants foreign "winner" neurons into a few
experts (the classic symptom of missing global regularization), and
sweeps the hyperactivity threshold to show the damage at theta=0 and the
recovery once the hot neurons are ignored. A few minutes of compute.
"""

import numpy as np

from snnplace import (
    EncodingConfig,
    ExpertConfig,
    PatchNormConfig,
    SimulationParams,
    detect_hyperactive,
    train_ensemble,
)
from snnplace.calibration import select_theta, theta_sweep
from snnplace.ensemble import collect_query_responses
from snnplace.synthetic import (
    corrupt_queries,
    inject_cross_region_responders,
    make_textures,
    preprocess_stack,
)

N_PLACES = 50

raw = make_textures(N_PLACES, (28, 28), seed=11)
reference = preprocess_stack(raw)[None]
queries = preprocess_stack(corrupt_queries(raw, seed=12))
truths = np.arange(N_PLACES)

cfg = ExpertConfig(n_excitatory=60, places_per_expert=25, epochs=20, record_last_epochs=10)
model = train_ensemble(
    reference, cfg,
    SimulationParams.defaults(), EncodingConfig(), PatchNormConfig(),
    global_seed=5, workers=2,
)
detect_hyperactive(model, reference, None, workers=2)

injected, pairs = inject_cross_region_responders(model, fraction=0.05, seed=21)
print(f"injected {len(pairs)} under-regularized foreign responders")
detect_hyperactive(injected, reference, None, workers=2)

clean_max = max(
    int(np.delete(totals, [e for i, e in pairs if i == j]).max())
    for j, totals in enumerate(injected.reference_totals)
)
hot = sorted(injected.reference_totals[i, e] for i, e in pairs)
print(f"reference totals: injected {hot[0]}..{hot[-1]}, honest max {clean_max}")

responses = collect_query_responses(injected, queries, workers=2)
curve = theta_sweep(injected, queries, truths, responses=responses)
print("theta sweep (theta=0 keeps every neuron):")
for theta, p in curve:
    bar = "#" * int(round(40 * p))
    print(f"  theta {theta:5.0f}  P@100R {p:.2f}  {bar}")

theta_star = select_theta(curve)
print(f"calibrated theta = {theta_star:.0f}: "
      f"{dict(curve)[theta_star]:.2f} vs {dict(curve)[0.0]:.2f} unfiltered")
