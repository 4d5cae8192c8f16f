"""Image ingest and spike encoding for the input layer.

Pipeline: load an 8-bit grayscale image, resize it with bilinear
interpolation, standardize non-overlapping patches (z-scores per patch),
affinely rescale to [0, 1], and finally draw a Poisson spike train whose
per-pixel rate is proportional to intensity.

Every function here is pure: identical inputs (including the seed) give
identical outputs, so encoded images can be shared freely between workers.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IngestError, check_ranges, ranged

# Stream tags keep the RNG substreams of distinct pipeline stages apart.
# A seed is always derived as derive_seed(base_seed, stream, *ids).
STREAM_WEIGHT_INIT = 0
STREAM_TRAINING = 1
STREAM_REFERENCE = 2
STREAM_QUERY = 3

# Rec.601 luma coefficients for color -> grayscale conversion.
_LUMA = np.array([0.299, 0.587, 0.114])

# Spikes one input may draw in a presentation at its peak rate, the last retry's
# boost included: one per step of the longest window (network.MAX_WINDOW_STEPS),
# which admits that window at the default rates (351,875).  numpy's Poisson draw
# fails above a mean of about 9.2e18, and every spike holds 16 bytes.
MAX_PEAK_SPIKES = 1_000_000


def derive_seed(*words: int) -> int:
    """Mix integer words into a single u64 encoder seed.

    Built on numpy's SeedSequence so that (base_seed, stream, epoch,
    image_id, ...) always map to the same seed regardless of platform,
    scheduling, or worker count.
    """
    ss = np.random.SeedSequence([int(w) for w in words])
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class PatchNormConfig:
    """Geometry of the non-overlapping patch standardization grid."""

    # RunConfig requires each to divide the image's.
    patch_width: int = ranged(1, math.inf, default=7)
    patch_height: int = ranged(1, math.inf, default=7)
    # Std floor of a [0, 1] image's patch: above the 1e-16 or so of rounding in a
    # zero-variance patch's std, so such a patch maps to 0; 1 flattens every patch.
    epsilon: float = ranged(1e-12, 1.0, default=1e-6)

    def __post_init__(self) -> None:
        check_ranges(self)


@dataclass(frozen=True)
class EncodingConfig:
    """Rate-coding parameters for the Poisson spike encoder.

    ``max_rate_hz`` is the firing rate of a pixel at intensity 1.0.  When a
    presentation elicits fewer than ``min_output_spikes`` output spikes, the
    presenter re-encodes with all pixel rates boosted in proportion to their
    intensity by ``retry_boost_hz`` (set ``min_output_spikes`` to 0 to
    disable re-presentation).  The peak draw, ``(max_rate_hz +
    retry_boost_hz * max_retries) * presentation_ms / 1000`` spikes per
    input, must not exceed ``MAX_PEAK_SPIKES``.
    """

    # The peak draw bounds the rates and the presentation above, and
    # network.check_presentation_steps bounds each window to MAX_WINDOW_STEPS steps.
    max_rate_hz: float = ranged(1e-3, math.inf, default=63.75)  # > 0: a spike per 1000 s
    presentation_ms: float = ranged(1e-4, math.inf, default=350.0)  # > 0: the shortest step
    rest_ms: float = ranged(0.0, math.inf, default=150.0)
    retry_boost_hz: float = ranged(0.0, math.inf, default=32.0)
    min_output_spikes: int = ranged(0, math.inf, default=5)  # only compared with counts
    # A safety cap (an all-black input can never fire); the peak draw needs it as a float.
    max_retries: int = ranged(0, MAX_PEAK_SPIKES, default=20)

    def __post_init__(self) -> None:
        check_ranges(self)
        peak_hz = self.max_rate_hz + self.retry_boost_hz * self.max_retries
        if not peak_hz * self.presentation_ms / 1000.0 <= MAX_PEAK_SPIKES:  # inf fails too
            raise ConfigError(f"peak rate {peak_hz} Hz (max_rate_hz + retry_boost_hz * "
                              f"max_retries) draws more than {MAX_PEAK_SPIKES} spikes per "
                              f"input in presentation_ms ({self.presentation_ms})")


@dataclass(frozen=True)
class SpikeTrain:
    """Spike times of the input layer for one presentation window.

    ``times`` (ms) and ``indices`` are parallel arrays whose indices do not
    decrease: spikes are grouped by input in ascending order, in no
    particular time order within an input.  All times lie in
    [0, duration_ms); all indices are < n_inputs.  ``network.bin_train``
    orders the spikes by step.
    """

    times: np.ndarray
    indices: np.ndarray
    n_inputs: int
    duration_ms: float

    def __len__(self) -> int:
        return self.times.size


def load_image(path: str | os.PathLike) -> np.ndarray:
    """Read an image file as a float array in [0, 1].

    Binary PGM (P5, 8-bit) is parsed natively.  Any other format is
    delegated to Pillow when available; color inputs are converted to
    grayscale with Rec.601 luma weights.
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as fh:
            magic = fh.read(2)
            if magic == b"P5":
                return _read_pgm_body(fh, path)
    except OSError as exc:
        raise IngestError(f"cannot read image {path!r}: {exc}") from exc
    return _load_with_pillow(path)


def _read_pgm_body(fh, path: str) -> np.ndarray:
    def next_token() -> bytes:
        tok = b""
        while True:
            ch = fh.read(1)
            if not ch:
                raise IngestError(f"truncated PGM header in {path!r}")
            if ch == b"#":  # comment runs to end of line
                while ch not in (b"\n", b""):
                    ch = fh.read(1)
                continue
            if ch.isspace():
                if tok:
                    return tok
                continue
            tok += ch

    try:
        width, height, maxval = (int(next_token()) for _ in range(3))
    except ValueError as exc:
        raise IngestError(f"malformed PGM header in {path!r}") from exc
    if width <= 0 or height <= 0:
        raise IngestError(f"PGM {path!r} declares empty dimensions")
    if not 0 < maxval <= 255:
        raise IngestError(f"PGM {path!r} is not 8-bit (maxval={maxval})")
    data = fh.read()  # what the file holds, never a buffer of the size the header claims
    if len(data) < width * height:
        raise IngestError(f"PGM {path!r} payload is truncated")
    pixels = np.frombuffer(data, dtype=np.uint8, count=width * height).reshape(height, width)
    if pixels.max() > maxval:
        raise IngestError(f"PGM {path!r} holds pixels above its maxval {maxval}")
    return pixels.astype(np.float64) / float(maxval)


def _load_with_pillow(path: str) -> np.ndarray:
    try:
        from PIL import Image
    except ImportError as exc:
        raise IngestError(
            f"{path!r} is not binary PGM and Pillow is not installed"
        ) from exc
    try:
        with Image.open(path) as im:
            arr = np.asarray(im, dtype=np.float64)
    except Exception as exc:
        raise IngestError(f"cannot decode image {path!r}: {exc}") from exc
    if arr.ndim == 3:
        arr = arr[..., :3] @ _LUMA
    return arr / 255.0


def write_pgm(path: str | os.PathLike, image: np.ndarray) -> None:
    """Write a [0, 1] float image as binary 8-bit PGM (test/demo helper)."""
    data = np.clip(np.round(np.asarray(image) * 255.0), 0, 255).astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(data.tobytes())


def resize_bilinear(image: np.ndarray, width: int, height: int) -> np.ndarray:
    """Resize with bilinear interpolation and edge clamping.

    Pixel centers are aligned (source position of output pixel x is
    (x + 0.5) * scale - 0.5), which makes the operation an exact identity
    when source and target dimensions agree.
    """
    if width <= 0 or height <= 0:
        raise ConfigError("resize target dimensions must be positive")
    image = np.asarray(image, dtype=np.float64)
    src_h, src_w = image.shape
    xs = np.clip((np.arange(width) + 0.5) * (src_w / width) - 0.5, 0, src_w - 1)
    ys = np.clip((np.arange(height) + 0.5) * (src_h / height) - 0.5, 0, src_h - 1)
    x0 = np.floor(xs).astype(np.intp)
    y0 = np.floor(ys).astype(np.intp)
    x1 = np.minimum(x0 + 1, src_w - 1)
    y1 = np.minimum(y0 + 1, src_h - 1)
    fx = xs - x0
    fy = (ys - y0)[:, None]
    top = image[np.ix_(y0, x0)] * (1 - fx) + image[np.ix_(y0, x1)] * fx
    bottom = image[np.ix_(y1, x0)] * (1 - fx) + image[np.ix_(y1, x1)] * fx
    return top * (1 - fy) + bottom * fy


def load_and_resize(path: str | os.PathLike, target: tuple[int, int] = (28, 28)) -> np.ndarray:
    """Load an image and resize to ``target`` = (width, height)."""
    return resize_bilinear(load_image(path), target[0], target[1])


def patch_normalize(image: np.ndarray, cfg: PatchNormConfig) -> np.ndarray:
    """Standardize each non-overlapping patch to zero mean, unit std.

    Uses the population standard deviation, floored at ``cfg.epsilon`` so
    constant patches map to zero rather than NaN.
    """
    image = np.asarray(image, dtype=np.float64)
    h, w = image.shape
    ph, pw = cfg.patch_height, cfg.patch_width
    if h % ph != 0 or w % pw != 0:
        raise ConfigError(
            f"image {w}x{h} is not tiled by {pw}x{ph} patches"
        )
    patches = image.reshape(h // ph, ph, w // pw, pw).transpose(0, 2, 1, 3)
    mean = patches.mean(axis=(2, 3), keepdims=True)
    std = patches.std(axis=(2, 3), keepdims=True)
    out = (patches - mean) / np.maximum(std, cfg.epsilon)
    return out.transpose(0, 2, 1, 3).reshape(h, w)


def rescale_unit(image: np.ndarray) -> np.ndarray:
    """Affinely map an image onto [0, 1]; constant images map to zero."""
    image = np.asarray(image, dtype=np.float64)
    lo = image.min()
    hi = image.max()
    if hi <= lo:
        return np.zeros_like(image)
    return (image - lo) / (hi - lo)


def preprocess_for_encoding(
    image: np.ndarray,
    target: tuple[int, int] = (28, 28),
    patch: PatchNormConfig = PatchNormConfig(),
) -> np.ndarray:
    """Full encoder-input pipeline: resize, patch-normalize, map to [0, 1]."""
    return rescale_unit(patch_normalize(resize_bilinear(image, target[0], target[1]), patch))


def poisson_encode(
    image: np.ndarray,
    cfg: EncodingConfig,
    seed: int,
    rate_boost_hz: float = 0.0,
) -> SpikeTrain:
    """Draw one homogeneous Poisson spike train per pixel.

    Pixel i (row-major, intensity in [0, 1]) fires at
    intensity_i * (max_rate_hz + rate_boost_hz) over the presentation
    window.  Per neuron, the spike count is Poisson(rate * duration) and
    times are uniform on [0, duration) — an exact Poisson process.

    Spikes come out grouped by input in ascending order, each input's in
    the order they were drawn; nothing here sorts them by time, since
    ``network.bin_train`` orders them by step.
    """
    intensities = np.clip(np.asarray(image, dtype=np.float64).ravel(), 0.0, None)
    rates_hz = intensities * (cfg.max_rate_hz + rate_boost_hz)
    rng = np.random.default_rng(seed)
    counts = rng.poisson(rates_hz * (cfg.presentation_ms / 1000.0))
    total = int(counts.sum())
    times = rng.uniform(0.0, cfg.presentation_ms, size=total)
    indices = np.repeat(np.arange(rates_hz.size, dtype=np.int64), counts)
    return SpikeTrain(
        times=times,
        indices=indices,
        n_inputs=rates_hz.size,
        duration_ms=cfg.presentation_ms,
    )
