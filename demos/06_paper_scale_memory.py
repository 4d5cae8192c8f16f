"""Paper-scale memory: 132 experts x K=400 share one weight stack.

Builds a frozen synthetic ensemble the size of the paper's map (3,300
places at 25 per expert: 132 experts of 400 neurons on 28x28 inputs),
whose float32 weight stack holds 166 MB.  Runs one query and one archive
round trip, and prints wall seconds and tracemalloc peaks for each step.
Exits 1 if the query or the save allocates more than a tenth of the stack,
the load more than 1.1 times the stack (one copy of the weights and a
little more), or if the archive does not load back bit for bit.  Needs
about 200 MB of memory, a few hundred MB of temporary disk and about ten
seconds.

    PYTHONPATH=src python3 demos/06_paper_scale_memory.py
"""

import hashlib
import sys
import tempfile
import time
import tracemalloc

from snnplace import load_ensemble, match_query, save_ensemble
from snnplace.synthetic import make_textures, synthetic_ensemble

EXPERTS, NEURONS, PLACES_PER_EXPERT = 132, 400, 25
MiB = 2**20


def measured(label, step):
    """Run ``step()``; print its wall seconds and tracemalloc peak; return (result, peak)."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        result = step()
        seconds = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    print(f"{label:<8} {seconds:7.2f} s   peak {peak / MiB:8.2f} MiB")
    return result, peak


model, _ = measured("build", lambda: synthetic_ensemble(
    EXPERTS, n_excitatory=NEURONS, places_per_expert=PLACES_PER_EXPERT, seed=0,
))
stack_bytes = model.weights.nbytes
print(f"weight stack {model.weights.shape} float32: {stack_bytes / 1e6:.1f} MB")

query = make_textures(1, (28, 28), seed=1)[0]
result, query_peak = measured("query", lambda: match_query(model, query, query_id=0))
print(f"         best place {result.top}, score {result.confidence:.0f}")

digest = hashlib.sha256(model.weights).hexdigest()
with tempfile.TemporaryDirectory() as tmp:
    archive = f"{tmp}/model"
    _, save_peak = measured("save", lambda: save_ensemble(model, archive))
    del model, result  # the loaded copy is compared by digest
    loaded, load_peak = measured("load", lambda: load_ensemble(archive))

failures = [
    f"the {step} allocated {peak / MiB:.2f} MiB, more than {share} the "
    f"{stack_bytes / MiB:.2f} MiB stack"
    for step, peak, bound, share in (
        ("query", query_peak, stack_bytes / 10, "a tenth of"),
        ("save", save_peak, stack_bytes / 10, "a tenth of"),
        ("load", load_peak, 1.1 * stack_bytes, "1.1 times"),
    )
    if peak > bound
]
if hashlib.sha256(loaded.weights).hexdigest() != digest:
    failures.append("the loaded weight stack differs from the saved one")

for failure in failures:
    print(f"FAIL: {failure}")
sys.exit(1 if failures else 0)
