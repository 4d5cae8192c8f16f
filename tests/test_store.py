"""Archive round-trips, corruption detection, and dataset manifests."""

import copy
import json
import os
import pathlib
import shutil
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snnplace.ensemble import (
    detect_hyperactive,
    match_query,
    train_ensemble,
)
from snnplace.cli import main
from snnplace.errors import ArchiveError, IngestError, SnnPlaceError
from snnplace.imaging import PatchNormConfig, write_pgm
from snnplace.store import FORMAT_VERSION, load_ensemble, save_ensemble, scan_traverse
from snnplace.synthetic import synthetic_ensemble
from tests.conftest import (
    assert_same_ensemble,
    tiny_encoding,
    tiny_expert_cfg,
    tiny_sim,
    tiny_textures,
)
from tests.test_config import ADVERSARIAL, CONFIG_KEYS, key_paths


@pytest.fixture(scope="module")
def trained_model():
    reference = tiny_textures(4, seed=40)[None]
    model = train_ensemble(
        reference, tiny_expert_cfg(epochs=3, record_last_epochs=2),
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

    def test_a_file_in_the_way_is_refused_before_writing(self, trained_model, tmp_path):
        model, _ = trained_model
        taken = tmp_path / "taken"
        taken.write_text("mine")
        for target, overwrite, reason in ((taken, False, "refusing to overwrite"),
                                          (taken, True, "Not a directory"),
                                          (taken / "arch", True, "taken' is not a directory")):
            with pytest.raises(ArchiveError, match=reason):
                save_ensemble(model, target, overwrite=overwrite)
        assert os.listdir(tmp_path) == ["taken"] and taken.read_text() == "mine"

    def test_failed_swap_restores_the_old_archive(self, trained_model, tmp_path, monkeypatch):
        model, _ = trained_model
        save_ensemble(model, tmp_path / "arch")
        before = {p.name: p.read_bytes() for p in (tmp_path / "arch").iterdir()}
        rename = os.rename
        calls = []

        def second_rename_fails(src, dst):
            calls.append((src, dst))
            if len(calls) == 2:
                raise OSError("simulated failure")
            rename(src, dst)

        monkeypatch.setattr("snnplace.store.os.rename", second_rename_fails)
        with pytest.raises(ArchiveError, match="simulated failure"):
            save_ensemble(model, tmp_path / "arch", overwrite=True)
        monkeypatch.undo()
        assert {p.name: p.read_bytes() for p in (tmp_path / "arch").iterdir()} == before
        assert os.listdir(tmp_path) == ["arch"]
        assert load_ensemble(tmp_path / "arch").place_count == model.place_count

    def test_interrupted_swap_leaves_the_old_archive_loadable(
        self, trained_model, tmp_path, monkeypatch
    ):
        model, _ = trained_model
        save_ensemble(model, tmp_path / "arch")
        newer = copy.copy(model)
        newer.global_seed = model.global_seed + 1
        rename = os.rename
        calls = []

        def killed_before_second_rename(src, dst):
            calls.append((src, dst))
            if len(calls) == 2:
                raise KeyboardInterrupt  # not an OSError: no rollback runs
            rename(src, dst)

        monkeypatch.setattr("snnplace.store.os.rename", killed_before_second_rename)
        with pytest.raises(KeyboardInterrupt):
            save_ensemble(newer, tmp_path / "arch", overwrite=True)
        monkeypatch.undo()
        assert not (tmp_path / "arch").exists()
        assert load_ensemble(tmp_path / "arch").global_seed == model.global_seed
        with pytest.raises(ArchiveError, match="refusing to overwrite"):
            save_ensemble(newer, tmp_path / "arch")

        save_ensemble(newer, tmp_path / "arch", overwrite=True)
        assert os.listdir(tmp_path) == ["arch"]
        assert load_ensemble(tmp_path / "arch").global_seed == newer.global_seed

        save_ensemble(model, tmp_path / "arch", overwrite=True)
        assert os.listdir(tmp_path) == ["arch"]
        assert load_ensemble(tmp_path / "arch").global_seed == model.global_seed

    def test_a_users_old_backup_is_never_touched(self, trained_model, tmp_path):
        model, _ = trained_model
        save_ensemble(model, tmp_path / "arch")
        shutil.copytree(tmp_path / "arch", tmp_path / "arch.old")
        (tmp_path / "arch.old" / "notes.txt").write_text("mine")
        (tmp_path / "arch.old" / "sub").mkdir()
        backup = {p.name for p in (tmp_path / "arch.old").iterdir()}
        newer = copy.copy(model)
        newer.global_seed = model.global_seed + 1

        shutil.copytree(tmp_path / "arch.old", tmp_path / "fresh.old")

        save_ensemble(newer, tmp_path / "arch", overwrite=True)
        save_ensemble(newer, tmp_path / "fresh")  # a plain save beside a fresh.old
        for kept in ("arch.old", "fresh.old"):
            assert {p.name for p in (tmp_path / kept).iterdir()} == backup
        assert load_ensemble(tmp_path / "fresh").global_seed == newer.global_seed
        assert (tmp_path / "arch.old" / "notes.txt").read_text() == "mine"
        assert load_ensemble(tmp_path / "arch").global_seed == newer.global_seed

        shutil.rmtree(tmp_path / "arch")
        with pytest.raises(ArchiveError, match="cannot read"):
            load_ensemble(tmp_path / "arch")  # arch.old is not this program's copy

    def test_refuses_to_replace_what_is_not_an_archive(self, trained_model, tmp_path):
        model, _ = trained_model
        save_ensemble(model, tmp_path / "arch")
        aside = tmp_path / "arch.snnplace-old"
        aside.mkdir()
        (aside / "notes.txt").write_text("mine")
        before = {p.name: p.read_bytes() for p in (tmp_path / "arch").iterdir()}
        with pytest.raises(ArchiveError, match="notes.txt"):
            save_ensemble(model, tmp_path / "arch", overwrite=True)
        assert {p.name: p.read_bytes() for p in (tmp_path / "arch").iterdir()} == before
        assert [p.name for p in aside.iterdir()] == ["notes.txt"]

        folder = tmp_path / "folder"
        (folder / "sub").mkdir(parents=True)
        (folder / "manifest.json").write_text("{}")
        with pytest.raises(ArchiveError, match="'sub'"):
            save_ensemble(model, folder, overwrite=True)
        assert sorted(p.name for p in folder.iterdir()) == ["manifest.json", "sub"]
        assert sorted(os.listdir(tmp_path)) == ["arch", "arch.snnplace-old", "folder"]


class TestPayloadsOneAtATime:
    """A save holds one expert's payload at a time; a load checks sizes before it allocates."""

    def test_save_holds_one_payload_and_the_manifest(self, tmp_path):
        model = synthetic_ensemble(4, n_excitatory=400, seed=0)
        tracemalloc.start()
        try:
            save_ensemble(model, tmp_path / "arch")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        payload = model.experts[0].weights.nbytes
        assert peak < payload + (tmp_path / "arch" / "manifest.json").stat().st_size
        loaded = load_ensemble(tmp_path / "arch")
        assert loaded.weights.tobytes() == model.weights.tobytes()

    def test_claimed_neuron_count_is_checked_before_the_stack_is_allocated(self, tmp_path):
        model = synthetic_ensemble(1, n_excitatory=400, seed=0)
        save_ensemble(model, tmp_path / "arch")
        manifest_path = tmp_path / "arch" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["experts"][0]["n_excitatory"] = 10**9
        manifest_path.write_text(json.dumps(manifest))
        tracemalloc.start()
        try:
            with pytest.raises(ArchiveError, match="expert_0000.bin.? holds 1254400 bytes"):
                load_ensemble(tmp_path / "arch")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < model.experts[0].weights.nbytes

    def test_save_into_a_missing_parent_is_an_archive_error(self, tmp_path):
        model = synthetic_ensemble(1, n_excitatory=2, image_size=(4, 4))
        with pytest.raises(ArchiveError, match="cannot write archive"):
            save_ensemble(model, tmp_path / "missing" / "parent" / "model")
        assert os.listdir(tmp_path) == []


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

    def test_missing_config_block_rejected(self, trained_model, tmp_path):
        model, _ = trained_model
        path = self._edit_manifest(model, tmp_path, lambda m: m.pop("config"))
        with pytest.raises(ArchiveError, match="config"):
            load_ensemble(path)

    def test_invalid_stored_theta_rejected(self, trained_model, tmp_path):
        model, _ = trained_model
        path = self._edit_manifest(model, tmp_path, lambda m: m.update(theta=-5))
        with pytest.raises(ArchiveError, match="theta"):
            load_ensemble(path)

    @pytest.mark.parametrize("place", [2, 7, 50, -2, -3])
    def test_assignment_outside_the_experts_places_rejected(self, trained_model, tmp_path,
                                                            place):
        model, _ = trained_model

        def reassign(manifest):
            manifest["experts"][0]["assignments"][0] = place

        path = self._edit_manifest(model, tmp_path, reassign)
        with pytest.raises(ArchiveError, match="assigns a neuron outside"):
            load_ensemble(path)

    @pytest.mark.parametrize("name", ["../outside.bin", "expert_1.bin", "manifest.json", 0])
    def test_payload_name_must_be_an_expert_file(self, trained_model, tmp_path, name):
        model, _ = trained_model
        # A payload of the right size just outside the archive.
        (tmp_path / "outside.bin").write_bytes(
            model.experts[0].weights.astype("<f4").tobytes()
        )
        path = self._edit_manifest(
            model, tmp_path, lambda m: m["experts"][0].update(file=name)
        )
        with pytest.raises(ArchiveError, match="payload name"):
            load_ensemble(path)

    def test_two_experts_cannot_share_a_payload(self, trained_model, tmp_path):
        model, _ = trained_model
        path = self._edit_manifest(
            model, tmp_path, lambda m: m["experts"][1].update(file="expert_0000.bin")
        )
        with pytest.raises(ArchiveError, match="expert 1's payload name 'expert_0000.bin'"):
            load_ensemble(path)

    def test_non_finite_threshold_rejected(self, trained_model, tmp_path):
        model, _ = trained_model

        def silence_a_neuron(manifest):
            manifest["experts"][1]["theta_adapt_mv"][0] = float("nan")

        path = self._edit_manifest(model, tmp_path, silence_a_neuron)
        assert "NaN" in (path / "manifest.json").read_text()
        with pytest.raises(ArchiveError, match="non-finite"):
            load_ensemble(path)

    def test_non_finite_weight_rejected(self, trained_model, tmp_path):
        model, _ = trained_model
        save_ensemble(model, tmp_path / "arch")
        payload = tmp_path / "arch" / "expert_0001.bin"
        weights = np.frombuffer(payload.read_bytes(), dtype="<f4").copy()
        weights[3] = np.nan
        payload.write_bytes(weights.tobytes())
        with pytest.raises(ArchiveError, match="non-finite"):
            load_ensemble(tmp_path / "arch")

    @pytest.mark.parametrize("key, value", [
        ("assignments", 1.9),          # numpy's cast truncated it to place 1
        ("assignments", True),
        ("assignments", "1"),
        ("reference_totals", -7),
        ("reference_totals", 2.5),
        ("hyperactive", "no"),         # any truthy value read as True
        ("hyperactive", 1),
        ("theta_adapt_mv", "1.5"),
        ("theta_adapt_mv", False),
    ])
    def test_per_neuron_element_of_the_wrong_type_rejected(self, trained_model, tmp_path,
                                                           key, value):
        model, _ = trained_model

        def retype(manifest):
            manifest["experts"][1][key][0] = value

        path = self._edit_manifest(model, tmp_path, retype)
        with pytest.raises(ArchiveError, match=f"expert 1 {key} must be a list of"):
            load_ensemble(path)

    @pytest.mark.parametrize("key, value", [
        ("place_count", 4.0),         # tiles the model's 4 places, then breaks a query
        ("place_count", 0),
        ("global_seed", -3),          # breaks the first query's seed
        ("global_seed", 1.5),
        ("global_seed", "7"),
        ("regularized", "no"),
        ("regularized", 1),
        ("dataset_fingerprints", {"a": 1}),
        ("dataset_fingerprints", ["a"]),
    ])
    def test_top_level_value_of_the_wrong_type_rejected(self, trained_model, tmp_path,
                                                        key, value):
        model, _ = trained_model
        path = self._edit_manifest(model, tmp_path, lambda m: m.update({key: value}))
        with pytest.raises(ArchiveError, match=f"{key} must be"):
            load_ensemble(path)

    @pytest.mark.parametrize("key", ["global_start", "n_places"])
    def test_region_bound_other_than_an_integer_rejected(self, trained_model, tmp_path, key):
        model, _ = trained_model

        def as_float(manifest):
            manifest["experts"][1][key] = float(manifest["experts"][1][key])  # 2.0 tiles

        path = self._edit_manifest(model, tmp_path, as_float)
        with pytest.raises(ArchiveError, match=f"{key} must be an integer"):
            load_ensemble(path)

    def test_presentation_shorter_than_a_step_rejected(self, trained_model, tmp_path):
        model, _ = trained_model

        def shorten(manifest):
            manifest["config"]["encoding"]["presentation_ms"] = 0.2
            manifest["config"]["dt_ms"] = 0.5

        path = self._edit_manifest(model, tmp_path, shorten)
        with pytest.raises(ArchiveError, match="at least one step"):
            load_ensemble(path)

    def test_window_longer_than_the_step_cap_rejected(self, trained_model, tmp_path):
        model, _ = trained_model
        path = self._edit_manifest(
            model, tmp_path, lambda m: m["config"]["encoding"].update(rest_ms=1e300)
        )
        with pytest.raises(ArchiveError, match="rest_ms"):
            load_ensemble(path)

    @pytest.mark.parametrize("version", [True, 1.0])  # each compares equal to 1
    def test_version_must_be_an_integer(self, trained_model, tmp_path, version):
        model, _ = trained_model
        path = self._edit_manifest(model, tmp_path, lambda m: m.update(format_version=version))
        with pytest.raises(ArchiveError, match="version"):
            load_ensemble(path)

    @pytest.mark.parametrize("section, key, value", [
        ("expert", "n_inputs", 64), ("expert", "seed", 0),
        ("lif_inhibitory", "tau_gi_ms", 0.5), ("lif_inhibitory", "e_inh_mv", -85.0),
    ])
    def test_format_2_rejects_the_keys_format_1_held(self, trained_model, tmp_path,
                                                      section, key, value):
        model, _ = trained_model
        path = self._edit_manifest(
            model, tmp_path, lambda m: m["config"][section].update({key: value})
        )
        with pytest.raises(ArchiveError, match=f"unknown keys .*{key}"):
            load_ensemble(path)

    def test_config_block_holds_the_run_configs_model_keys(self, trained_model, tmp_path):
        """The simulation's keys at the top, then the encoding, patch and expert sections."""
        save_ensemble(trained_model[0], tmp_path / "arch")
        manifest = json.loads((tmp_path / "arch" / "manifest.json").read_text())
        sections = ("simulation.", "encoding.", "patch.", "expert.")
        expected = sorted(
            key.removeprefix("simulation.") for key in CONFIG_KEYS if key.startswith(sections)
        )
        assert sorted(key_paths(manifest["config"])) == expected

    def test_missing_manifest(self, tmp_path):
        os.makedirs(tmp_path / "empty")
        with pytest.raises(ArchiveError):
            load_ensemble(tmp_path / "empty")


def manifest_keys(node, prefix=()):
    """Paths to every key of a manifest, the keys of each expert entry included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(node, dict):
            yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from manifest_keys(value, prefix + (key,))


JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text("ab.", max_size=3),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text("ab", max_size=2), st.integers(), max_size=2),
)


@pytest.fixture(scope="module")
def fuzz_archive(trained_model, tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "arch"
    save_ensemble(trained_model[0], path)
    manifest = json.loads((path / "manifest.json").read_text())
    return path, manifest, sorted(manifest_keys(manifest), key=repr)


class TestManifestFuzz:
    # 200 examples, or more under a profile that asks for them (conftest.py's
    # "manifest-fuzz", which CI loads to run this class alone).
    @settings(max_examples=max(200, settings.default.max_examples), deadline=None)
    @given(data=st.data())
    def test_dropped_or_retyped_key_raises_only_archive_error(self, fuzz_archive, trained_model,
                                                              data):
        """A load raises nothing but ArchiveError, and a loaded model answers a query
        or raises a SnnPlaceError; RuntimeWarnings are errors."""
        path, manifest, keys = fuzz_archive
        key = data.draw(st.sampled_from(keys))
        edited = copy.deepcopy(manifest)
        owner = edited
        for step in key[:-1]:
            owner = owner[step]
        if data.draw(st.booleans()):
            del owner[key[-1]]
        else:
            owner[key[-1]] = data.draw(JUNK)
        (path / "manifest.json").write_text(json.dumps(edited))
        try:
            loaded = load_ensemble(path)
        except ArchiveError:
            return
        try:
            match_query(loaded, trained_model[1][0, 0])
        except SnnPlaceError:
            pass

    def test_unedited_manifest_still_loads(self, fuzz_archive, trained_model):
        path, manifest, _ = fuzz_archive
        (path / "manifest.json").write_text(json.dumps(manifest))
        assert load_ensemble(path).place_count == trained_model[0].place_count


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
        manifest = scan_traverse(tmp_path)
        assert manifest.filenames == ("a.pgm", "b.pgm", "c.pgm")
        assert manifest.place_count == 3
        assert len(manifest.fingerprint) == 64
        again = scan_traverse(tmp_path)
        assert manifest.fingerprint == again.fingerprint

    def test_fingerprint_tracks_content(self, tmp_path):
        rng = np.random.default_rng(43)
        write_pgm(tmp_path / "a.pgm", rng.uniform(size=(4, 4)))
        before = scan_traverse(tmp_path).fingerprint
        write_pgm(tmp_path / "a.pgm", rng.uniform(size=(4, 4)))
        assert scan_traverse(tmp_path).fingerprint != before

    def test_missing_directory_rejected(self):
        with pytest.raises(IngestError, match="no/such"):
            scan_traverse("no/such/dir")

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(IngestError):
            scan_traverse(tmp_path)


V1 = pathlib.Path(__file__).parent / "data" / "v1"


class TestFormat1Archive:
    """A format-1 archive still loads, answers as it did, and re-saves as format 2.

    ``tests/data/v1`` was written by commit faa3525, the last to write format
    1, with ``PYTHONPATH=src``.  The world: ``rng = np.random.default_rng(15)``,
    ``textures = rng.uniform(size=(4, 8, 8))``, then for k in 0..3
    ``write_pgm(f"ref/place_{k:03d}.pgm", textures[k])`` and
    ``write_pgm(f"query/place_{k:03d}.pgm", np.clip(textures[k] +
    rng.normal(0, 0.03, (8, 8)), 0, 1))``; ``query.pgm`` is
    ``query/place_002.pgm``.  The config file (format 1 still required
    ``expert.n_inputs``)::

        {"seed": 9, "workers": 1, "image": {"width": 8, "height": 8},
         "patch": {"patch_width": 4, "patch_height": 4},
         "encoding": {"min_output_spikes": 0},
         "simulation": {"weight_norm_target": 20.0},
         "expert": {"n_inputs": 64, "n_excitatory": 4, "places_per_expert": 2,
                    "epochs": 2, "record_last_epochs": 1}}

    The commands::

        python3 -m snnplace.cli train --config config.json --ref-dirs ref --out model
        python3 -m snnplace.cli regularize --config config.json --model model \\
            --ref-dirs ref --theta 20
        python3 -m snnplace.cli match --model model --image query/place_002.pgm \\
            --top 3 > match_top3.jsonl
    """

    def test_loads_as_its_manifest_lists(self):
        manifest = json.loads((V1 / "model" / "manifest.json").read_text())
        assert manifest["format_version"] == 1
        model = load_ensemble(V1 / "model")
        assert (model.place_count, model.theta, model.regularized, list(model.image_size)) == (
            manifest["place_count"], manifest["theta"], manifest["regularized"],
            manifest["image_size"],
        )
        assert len(model.experts) == len(manifest["experts"]) == 2
        for ex, meta in zip(model.experts, manifest["experts"]):
            blob = (V1 / "model" / meta["file"]).read_bytes()
            assert ex.weights.shape == (meta["n_inputs"], meta["n_excitatory"])
            assert ex.weights.tobytes() == np.frombuffer(blob, "<f4").tobytes()
            assert ex.theta.tolist() == meta["theta_adapt_mv"]
            assert ex.assignments.tolist() == meta["assignments"]
            assert ex.reference_totals.tolist() == meta["reference_totals"]
            assert ex.hyperactive.tolist() == meta["hyperactive"]
            assert (ex.global_start, ex.n_places) == (meta["global_start"], meta["n_places"])
        assert sum(int(ex.hyperactive.sum()) for ex in model.experts) == 3

    def test_match_prints_the_lines_it_printed_at_format_1(self, capsys):
        argv = ["match", "--model", str(V1 / "model"), "--image", str(V1 / "query.pgm"),
                "--top", "3"]
        assert main(argv) == 0
        assert capsys.readouterr().out == (V1 / "match_top3.jsonl").read_text()

    def test_resave_writes_format_2_without_the_dropped_keys(self, tmp_path):
        model = load_ensemble(V1 / "model")
        save_ensemble(model, tmp_path / "v2")
        expected = json.loads((V1 / "model" / "manifest.json").read_text())
        expected["format_version"] = 2
        for section, key in (("expert", "n_inputs"), ("expert", "seed"),
                             ("lif_inhibitory", "tau_gi_ms"), ("lif_inhibitory", "e_inh_mv")):
            del expected["config"][section][key]
        assert json.loads((tmp_path / "v2" / "manifest.json").read_text()) == expected
        for meta in expected["experts"]:
            name = meta["file"]
            assert (tmp_path / "v2" / name).read_bytes() == (V1 / "model" / name).read_bytes()

        assert_same_ensemble(load_ensemble(tmp_path / "v2"), model)


V1_MANIFEST = json.loads((V1 / "model" / "manifest.json").read_text())


def test_flags_that_do_not_follow_theta_are_an_archive_error(tmp_path):
    # At theta=21 expert 1's totals [15, 20, 20, 17] flag nothing, but it stores
    # theta=20's flags [false, true, true, false].
    path = tmp_path / "model"
    shutil.copytree(V1 / "model", path)
    edited = copy.deepcopy(V1_MANIFEST)
    edited["theta"] = 21
    (path / "manifest.json").write_text(json.dumps(edited))
    with pytest.raises(ArchiveError, match="expert 1's hyperactive flags"):
        load_ensemble(path)


class TestFormat1Mutations:
    """Every single-field edit of ``tests/data/v1`` loads or raises a SnnPlaceError.

    The loader checks each payload's size against its manifest entry before
    it allocates the weight stack, so no edit can make it build an array
    larger than the payloads on disk.
    """

    @pytest.mark.parametrize("key", sorted(manifest_keys(V1_MANIFEST), key=repr),
                             ids=lambda key: "/".join(map(str, key)))
    def test_every_field_loads_or_raises(self, tmp_path, key):
        path = tmp_path / "model"
        shutil.copytree(V1 / "model", path)
        tracemalloc.start()
        try:
            for value in ADVERSARIAL + [KeyError]:  # KeyError: drop the field
                edited = copy.deepcopy(V1_MANIFEST)
                owner = edited
                for step in key[:-1]:
                    owner = owner[step]
                if value is KeyError:
                    del owner[key[-1]]
                else:
                    owner[key[-1]] = value
                (path / "manifest.json").write_text(json.dumps(edited))
                try:
                    load_ensemble(path)
                except SnnPlaceError:
                    pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("keep", [0, 0.5])
    @pytest.mark.parametrize("payload", ["expert_0000.bin", "expert_0001.bin"])
    def test_a_truncated_payload_is_an_archive_error(self, tmp_path, payload, keep):
        path = tmp_path / "model"
        shutil.copytree(V1 / "model", path)
        blob = (path / payload).read_bytes()
        (path / payload).write_bytes(blob[:int(len(blob) * keep)])
        with pytest.raises(ArchiveError, match=payload):
            load_ensemble(path)
