"""From pixels to spikes: the full input pipeline, step by step.

Walks one image through resizing, per-patch standardization, unit
rescaling, and Poisson rate coding, printing what each stage does to the
statistics. Runs in a couple of seconds.
"""

import numpy as np

from snnplace import (
    EncodingConfig,
    PatchNormConfig,
    patch_normalize,
    poisson_encode,
    rescale_unit,
    resize_bilinear,
)

rng = np.random.default_rng(0)

# Stand-in for a camera frame: a 360x640 grayscale scene.
scene = rng.uniform(0.0, 1.0, size=(360, 640))
print(f"raw scene:        {scene.shape[1]}x{scene.shape[0]}, "
      f"mean {scene.mean():.3f}, std {scene.std():.3f}")

small = resize_bilinear(scene, 28, 28)
print(f"resized:          28x28 ({small.size} input neurons), "
      f"mean {small.mean():.3f}, std {small.std():.3f}")

normalized = patch_normalize(small, PatchNormConfig(patch_width=7, patch_height=7))
patches = normalized.reshape(4, 7, 4, 7).transpose(0, 2, 1, 3)
print(f"patch-normalized: 16 independent 7x7 patches, "
      f"per-patch |mean| max {np.abs(patches.mean(axis=(2, 3))).max():.1e}")

unit = rescale_unit(normalized)
print(f"unit-rescaled:    range [{unit.min():.2f}, {unit.max():.2f}]")

cfg = EncodingConfig()
train = poisson_encode(unit, cfg, seed=42)
expected = unit.sum() * cfg.max_rate_hz * cfg.presentation_ms / 1000.0
print(f"spike train:      {len(train)} spikes over {cfg.presentation_ms:.0f} ms "
      f"(expected ~{expected:.0f} at {cfg.max_rate_hz} Hz max rate)")

# Determinism: the same seed always produces the same train.
again = poisson_encode(unit, cfg, seed=42)
print(f"same seed, same train: {np.array_equal(train.times, again.times)}")

# The brightest pixel fires roughly max_rate_hz; a dark one stays quiet.
counts = np.bincount(train.indices, minlength=train.n_inputs)
hot = int(np.argmax(unit))
cold = int(np.argmin(unit))
print(f"brightest pixel fired {counts[hot]} times, darkest {counts[cold]} times")
