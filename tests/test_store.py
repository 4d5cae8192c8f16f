"""Archive round-trips, corruption detection, and dataset manifests."""

import json
import os

import numpy as np
import pytest

from snnplace.ensemble import (
    detect_hyperactive,
    match_query,
    partition_reference,
    train_ensemble,
)
from snnplace.errors import ArchiveError, IngestError
from snnplace.imaging import PatchNormConfig, write_pgm
from snnplace.store import FORMAT_VERSION, load_ensemble, save_ensemble, scan_traverse
from snnplace.synthetic import synthetic_ensemble
from tests.conftest import tiny_encoding, tiny_expert_cfg, tiny_sim, tiny_textures


@pytest.fixture(scope="module")
def trained_model():
    reference = tiny_textures(4, seed=40)[None]
    model = train_ensemble(
        reference, partition_reference(4, 2),
        tiny_expert_cfg(epochs=3, record_last_epochs=2),
        tiny_sim(), tiny_encoding(), PatchNormConfig(),
        global_seed=17,
    )
    detect_hyperactive(model, reference, theta=2)
    return model, reference


class TestRoundTrip:
    def test_bit_exact_round_trip(self, trained_model, tmp_path):
        model, _ = trained_model
        save_ensemble(model, tmp_path / "arch")
        loaded = load_ensemble(tmp_path / "arch")
        assert loaded.place_count == model.place_count
        assert loaded.theta == model.theta
        assert loaded.regularized == model.regularized
        assert loaded.global_seed == model.global_seed
        assert loaded.sim == model.sim
        assert loaded.encoding == model.encoding
        assert loaded.patch == model.patch
        assert loaded.expert_config == model.expert_config
        for a, b in zip(model.experts, loaded.experts):
            assert b.weights.dtype == np.float32
            np.testing.assert_array_equal(a.weights, b.weights)
            np.testing.assert_array_equal(a.theta, b.theta)
            np.testing.assert_array_equal(a.assignments, b.assignments)
            np.testing.assert_array_equal(a.reference_totals, b.reference_totals)
            np.testing.assert_array_equal(a.hyperactive, b.hyperactive)

    def test_save_then_save_again_is_identical(self, trained_model, tmp_path):
        model, _ = trained_model
        save_ensemble(model, tmp_path / "a")
        save_ensemble(model, tmp_path / "b")
        for name in sorted(os.listdir(tmp_path / "a")):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_query_results_survive_round_trip(self, trained_model, tmp_path):
        model, reference = trained_model
        save_ensemble(model, tmp_path / "arch")
        loaded = load_ensemble(tmp_path / "arch")
        rng = np.random.default_rng(41)
        for k in range(5):
            query = np.clip(
                reference[0, k % 4] + rng.normal(0, 0.05, (8, 8)), 0, 1
            )
            before = match_query(model, query, query_id=k)
            after = match_query(loaded, query, query_id=k)
            np.testing.assert_array_equal(before.place_ids, after.place_ids)
            np.testing.assert_array_equal(before.scores, after.scores)

    def test_refuses_overwrite_without_flag(self, trained_model, tmp_path):
        model, _ = trained_model
        save_ensemble(model, tmp_path / "arch")
        with pytest.raises(ArchiveError, match="refusing"):
            save_ensemble(model, tmp_path / "arch")
        save_ensemble(model, tmp_path / "arch", overwrite=True)


class TestCorruption:
    def _edit_manifest(self, model, tmp_path, edit):
        save_ensemble(model, tmp_path / "arch")
        manifest_path = tmp_path / "arch" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        edit(manifest)
        manifest_path.write_text(json.dumps(manifest))
        return tmp_path / "arch"

    def test_version_mismatch_is_explicit(self, trained_model, tmp_path):
        model, _ = trained_model
        path = self._edit_manifest(
            model, tmp_path, lambda m: m.update(format_version=FORMAT_VERSION + 1)
        )
        with pytest.raises(ArchiveError, match="version"):
            load_ensemble(path)

    def test_truncated_payload_names_file(self, trained_model, tmp_path):
        model, _ = trained_model
        save_ensemble(model, tmp_path / "arch")
        payload = tmp_path / "arch" / "expert_0000.bin"
        payload.write_bytes(payload.read_bytes()[:-1])
        with pytest.raises(ArchiveError, match="expert_0000.bin"):
            load_ensemble(tmp_path / "arch")

    def test_untiled_place_count_rejected(self, trained_model, tmp_path):
        model, _ = trained_model
        path = self._edit_manifest(
            model, tmp_path, lambda m: m.update(place_count=m["place_count"] + 1)
        )
        with pytest.raises(ArchiveError, match="cover"):
            load_ensemble(path)

    def test_image_size_must_match_inputs(self, trained_model, tmp_path):
        model, _ = trained_model
        path = self._edit_manifest(model, tmp_path, lambda m: m.update(image_size=[4, 4]))
        with pytest.raises(ArchiveError, match="n_inputs"):
            load_ensemble(path)

    def test_mixed_neuron_counts_rejected(self, trained_model, tmp_path):
        model, _ = trained_model

        def narrow_second_expert(manifest):
            meta = manifest["experts"][1]
            k = meta["n_excitatory"] - 2
            blob = (tmp_path / "arch" / meta["file"]).read_bytes()
            weights = np.frombuffer(blob, dtype="<f4").reshape(meta["n_inputs"], -1)
            (tmp_path / "arch" / meta["file"]).write_bytes(weights[:, :k].tobytes())
            meta["n_excitatory"] = k
            for key in ("theta_adapt_mv", "assignments", "reference_totals", "hyperactive"):
                meta[key] = meta[key][:k]

        path = self._edit_manifest(model, tmp_path, narrow_second_expert)
        with pytest.raises(ArchiveError, match="n_excitatory"):
            load_ensemble(path)

    def test_short_per_neuron_list_rejected(self, trained_model, tmp_path):
        model, _ = trained_model

        def drop_assignment(manifest):
            manifest["experts"][0]["assignments"].pop()

        path = self._edit_manifest(model, tmp_path, drop_assignment)
        with pytest.raises(ArchiveError, match="assignments"):
            load_ensemble(path)

    def test_missing_manifest(self, tmp_path):
        os.makedirs(tmp_path / "empty")
        with pytest.raises(ArchiveError):
            load_ensemble(tmp_path / "empty")


class TestScale:
    def test_reference_scale_manifest_lists_all_payloads(self, tmp_path):
        # 3300 places at 25 per expert -> 132 experts
        model = synthetic_ensemble(132, n_excitatory=2, image_size=(4, 4))
        save_ensemble(model, tmp_path / "big")
        manifest = json.loads((tmp_path / "big" / "manifest.json").read_text())
        assert len(manifest["experts"]) == 132
        payloads = [f for f in os.listdir(tmp_path / "big") if f.endswith(".bin")]
        assert len(payloads) == 132
        assert model.place_count == 3300


class TestManifests:
    def test_scan_orders_lexicographically_and_fingerprints(self, tmp_path):
        rng = np.random.default_rng(42)
        for name in ("b.pgm", "a.pgm", "c.pgm"):
            write_pgm(tmp_path / name, rng.uniform(size=(4, 4)))
        manifest = scan_traverse(tmp_path, role="reference")
        assert manifest.filenames == ("a.pgm", "b.pgm", "c.pgm")
        assert manifest.place_count == 3
        assert len(manifest.fingerprint) == 64
        again = scan_traverse(tmp_path, role="reference")
        assert manifest.fingerprint == again.fingerprint

    def test_fingerprint_tracks_content(self, tmp_path):
        rng = np.random.default_rng(43)
        write_pgm(tmp_path / "a.pgm", rng.uniform(size=(4, 4)))
        before = scan_traverse(tmp_path, role="reference").fingerprint
        write_pgm(tmp_path / "a.pgm", rng.uniform(size=(4, 4)))
        assert scan_traverse(tmp_path, role="reference").fingerprint != before

    def test_missing_directory_rejected(self):
        with pytest.raises(IngestError, match="no/such"):
            scan_traverse("no/such/dir", role="query")

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(IngestError):
            scan_traverse(tmp_path, role="query")
