"""Image pipeline: loading, resizing, patch normalization, spike encoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snnplace.errors import ConfigError, IngestError
from snnplace.imaging import (
    EncodingConfig,
    PatchNormConfig,
    derive_seed,
    load_and_resize,
    load_image,
    patch_normalize,
    poisson_encode,
    rescale_unit,
    resize_bilinear,
    write_pgm,
)


class TestResize:
    def test_identity_when_dimensions_match(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(size=(28, 28))
        np.testing.assert_array_equal(resize_bilinear(img, 28, 28), img)

    def test_downscale_640x360_to_28x28(self):
        rng = np.random.default_rng(1)
        img = rng.uniform(size=(360, 640))
        out = resize_bilinear(img, 28, 28)
        assert out.shape == (28, 28)
        assert out.size == 784

    def test_upsample_2x2_matches_hand_oracle(self):
        # Hand oracle: output x maps to source (x + 0.5)/2 - 0.5, edge-clamped,
        # so each row of [[0,1],[0,1]] becomes [0, 0.25, 0.75, 1].
        img = np.array([[0.0, 1.0], [0.0, 1.0]])
        out = resize_bilinear(img, 4, 4)
        expected_row = np.array([0.0, 0.25, 0.75, 1.0])
        for row in out:
            np.testing.assert_allclose(row, expected_row, atol=1e-15)
            assert np.all(np.diff(row) >= 0)

    def test_zero_dimension_target_rejected(self):
        with pytest.raises(ConfigError):
            resize_bilinear(np.zeros((4, 4)), 0, 4)

    def test_idempotent_at_native_size(self):
        rng = np.random.default_rng(2)
        img = rng.uniform(size=(14, 21))
        once = resize_bilinear(img, 21, 14)
        np.testing.assert_array_equal(resize_bilinear(once, 21, 14), once)


class TestLoading:
    def test_pgm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        img = rng.integers(0, 256, size=(9, 7)).astype(np.float64) / 255.0
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        np.testing.assert_allclose(load_image(path), img, atol=1e-12)

    def test_pgm_header_comments(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([0, 64, 128, 255]))
        img = load_image(path)
        np.testing.assert_allclose(img.ravel(), [0, 64 / 255, 128 / 255, 1.0])

    def test_missing_file_names_path(self):
        with pytest.raises(IngestError, match="no/such/file"):
            load_image("no/such/file.pgm")

    def test_truncated_pgm_rejected(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(IngestError, match="truncated"):
            load_image(path)

    def test_16bit_pgm_rejected(self, tmp_path):
        path = tmp_path / "d.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(IngestError, match="8-bit"):
            load_image(path)

    def test_pixel_above_maxval_rejected(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 1\n100\n" + bytes([100, 200]))
        with pytest.raises(IngestError, match="maxval"):
            load_image(path)

    def test_huge_declared_size_is_truncation(self, tmp_path):
        path = tmp_path / "h.pgm"
        path.write_bytes(b"P5\n100000 100000\n255\n" + bytes(4))
        with pytest.raises(IngestError, match="truncated"):
            load_image(path)

    def test_load_and_resize_shape(self, tmp_path):
        path = tmp_path / "r.pgm"
        write_pgm(path, np.random.default_rng(4).uniform(size=(36, 64)))
        out = load_and_resize(path, (28, 28))
        assert out.shape == (28, 28)

    def test_png_via_pillow_with_luma_conversion(self, tmp_path):
        Image = pytest.importorskip("PIL.Image")
        rgb = np.zeros((3, 3, 3), dtype=np.uint8)
        rgb[..., 0] = 255  # pure red -> Rec.601 luma 0.299
        path = tmp_path / "red.png"
        Image.fromarray(rgb).save(path)
        img = load_image(path)
        np.testing.assert_allclose(img, 0.299, atol=1e-6)


PGM_HEADERS = st.builds(
    lambda sep, w, h, maxval, payload: f"{sep}{w} {h}{sep}{maxval}\n".encode() + payload,
    st.sampled_from([" ", "\n", "\n# note\n"]),
    st.integers(-1, 5), st.integers(-1, 5), st.integers(-1, 300),
    st.binary(max_size=40),
)


@settings(max_examples=300, deadline=None)
@given(body=st.one_of(st.binary(max_size=64), PGM_HEADERS))
def test_pgm_parser_returns_unit_image_or_ingest_error(tmp_path_factory, body):
    path = tmp_path_factory.getbasetemp() / "fuzz.pgm"
    path.write_bytes(b"P5" + body)
    try:
        image = load_image(path)
    except IngestError:
        return
    assert image.ndim == 2 and image.size > 0
    assert 0.0 <= image.min() and image.max() <= 1.0


class TestPatchNormalize:
    def test_constant_image_maps_to_zero(self):
        img = np.full((28, 28), 0.5)
        out = patch_normalize(img, PatchNormConfig())
        np.testing.assert_array_equal(out, np.zeros((28, 28)))

    def test_single_patch_hand_zscore(self):
        img = np.array([[0.0, 0.0], [1.0, 1.0]])
        out = patch_normalize(img, PatchNormConfig(patch_width=2, patch_height=2))
        np.testing.assert_allclose(out, [[-1.0, -1.0], [1.0, 1.0]], atol=1e-12)

    def test_16_patches_normalized_independently(self):
        # Each 7x7 patch gets its own affine distortion of one shared ramp;
        # per-patch standardization must erase the distortion entirely.
        ramp = np.arange(49, dtype=np.float64).reshape(7, 7)
        rng = np.random.default_rng(5)
        img = np.zeros((28, 28))
        for i in range(4):
            for j in range(4):
                scale = rng.uniform(0.5, 3.0)
                shift = rng.uniform(-10, 10)
                img[i * 7:(i + 1) * 7, j * 7:(j + 1) * 7] = ramp * scale + shift
        out = patch_normalize(img, PatchNormConfig())
        expected = (ramp - ramp.mean()) / ramp.std()
        for i in range(4):
            for j in range(4):
                np.testing.assert_allclose(
                    out[i * 7:(i + 1) * 7, j * 7:(j + 1) * 7], expected, atol=1e-9
                )

    def test_patch_means_near_zero(self):
        rng = np.random.default_rng(6)
        img = rng.uniform(size=(28, 28))
        out = patch_normalize(img, PatchNormConfig())
        patches = out.reshape(4, 7, 4, 7).transpose(0, 2, 1, 3)
        assert np.abs(patches.mean(axis=(2, 3))).max() < 1e-6

    def test_incompatible_geometry_rejected(self):
        with pytest.raises(ConfigError):
            patch_normalize(np.zeros((27, 28)), PatchNormConfig())


class TestRescaleUnit:
    def test_maps_to_full_range(self):
        img = np.array([[-2.0, 0.0], [1.0, 6.0]])
        out = rescale_unit(img)
        assert out.min() == 0.0 and out.max() == 1.0

    def test_constant_maps_to_zero(self):
        np.testing.assert_array_equal(rescale_unit(np.full((3, 3), 4.2)), np.zeros((3, 3)))


class TestPoissonEncode:
    def test_zero_image_empty_train(self):
        train = poisson_encode(np.zeros((4, 4)), EncodingConfig(), seed=1)
        assert len(train) == 0

    def test_monte_carlo_mean_matches_rate_times_duration(self):
        # One pixel at intensity 1.0: expected count = 63.75 Hz * 0.35 s.
        cfg = EncodingConfig(max_rate_hz=63.75, presentation_ms=350.0)
        expected = 63.75 * 0.350
        n_draws = 10_000
        counts = np.array([
            len(poisson_encode(np.ones((1, 1)), cfg, seed=derive_seed(123, k)))
            for k in range(n_draws)
        ])
        sigma_of_mean = np.sqrt(expected / n_draws)
        assert abs(counts.mean() - expected) < 3 * sigma_of_mean
        # Same bound as the 4-sigma sample-mean property.
        assert abs(counts.mean() - expected) < 4 * np.sqrt(expected / n_draws)

    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(8)
        img = rng.uniform(size=(6, 6))
        a = poisson_encode(img, EncodingConfig(), seed=99)
        b = poisson_encode(img, EncodingConfig(), seed=99)
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_train_invariants(self):
        rng = np.random.default_rng(9)
        img = rng.uniform(size=(6, 6))
        cfg = EncodingConfig()
        train = poisson_encode(img, cfg, seed=5)
        assert train.n_inputs == 36
        assert np.all(train.times >= 0) and np.all(train.times < cfg.presentation_ms)
        assert np.all(train.indices < 36)
        # grouped by neuron, ascending in time within each neuron
        for neuron in np.unique(train.indices):
            times = train.times[train.indices == neuron]
            assert np.all(np.diff(times) >= 0)

    def test_rate_boost_increases_counts(self):
        img = np.full((4, 4), 0.5)
        cfg = EncodingConfig()
        base = sum(
            len(poisson_encode(img, cfg, derive_seed(1, k))) for k in range(50)
        )
        boosted = sum(
            len(poisson_encode(img, cfg, derive_seed(1, k), rate_boost_hz=64.0))
            for k in range(50)
        )
        assert boosted > base


class TestSeedScheme:
    def test_derivation_is_deterministic_and_distinct(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        seeds = {derive_seed(0, s, e, i) for s in range(3) for e in range(4) for i in range(5)}
        assert len(seeds) == 60
