"""Evaluation toolkit tour: P@100R, R@N, PR curves, and the SAD baseline.

Uses hand-built rankings (no network training) so it runs instantly, then
shows the pixel-difference baseline on the same preprocessed images the
spiking path would see.
"""

import numpy as np

from snnplace import (
    MatchResult,
    PatchNormConfig,
    patch_normalize,
    pr_curve,
    precision_at_100_recall,
    recall_at_n,
    resize_bilinear,
    sad_match,
)
from snnplace.synthetic import corrupt_queries, make_textures

rng = np.random.default_rng(0)

# Fake a 10-place evaluation where 7 queries match and 3 land one rank off.
records = []
for truth in range(10):
    ranking = list(range(10))
    ranking.remove(truth)
    if truth < 7:
        ranking.insert(0, truth)     # correct at rank 1
    else:
        ranking.insert(1, truth)     # correct at rank 2
    scores = np.arange(10, 0, -1) * (3 if truth < 7 else 1)
    records.append(MatchResult(place_ids=np.array(ranking), scores=np.array(scores),
                               truth=truth))

print(f"P@100R = {precision_at_100_recall(records):.2f}")
for n in (1, 2, 5):
    print(f"R@{n}    = {recall_at_n(records, n):.2f}")

print("\nPR curve (confidence = winning score):")
for threshold, precision, recall in pr_curve(records):
    print(f"  conf >= {threshold:4.0f}: precision {precision:.2f}, recall {recall:.2f}")

# SAD baseline: identical preprocessing, then pixel-wise distance.
raw = make_textures(6, (28, 28), seed=1)
noisy = corrupt_queries(raw, seed=2)
patch = PatchNormConfig()
refs = np.stack([patch_normalize(resize_bilinear(img, 28, 28), patch) for img in raw])
print("\nSAD baseline on 6 noisy queries:")
hits = 0
for place in range(6):
    query = patch_normalize(resize_bilinear(noisy[place], 28, 28), patch)
    ranked, dists = sad_match(query, refs)
    hits += ranked[0] == place
    print(f"  query {place}: best place {ranked[0]} (distance {dists[0]:.1f})")
print(f"SAD P@100R = {hits / 6:.2f}")
