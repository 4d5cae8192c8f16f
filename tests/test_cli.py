"""End-to-end CLI behavior: exit codes, determinism, and report contracts."""

import copy
import dataclasses
import hashlib
import json
import math
import os
import shutil
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snnplace import cli, ensemble
from snnplace.cli import load_config, main
from snnplace.config import RunConfig, from_json, to_json
from snnplace.errors import ArchiveError, ConfigError, IngestError
from snnplace.imaging import write_pgm
from snnplace.network import LifParams
from snnplace.store import load_ensemble
from snnplace.synthetic import corrupt_queries, make_textures
from tests.test_store import JUNK, manifest_keys


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """PGM traverses plus a tiny config; everything the commands need."""
    root = tmp_path_factory.mktemp("world")
    rng = np.random.default_rng(50)
    ref = root / "ref"
    query = root / "query"
    ref.mkdir()
    query.mkdir()
    textures = rng.uniform(size=(4, 8, 8))
    for k, img in enumerate(textures):
        write_pgm(ref / f"place_{k:03d}.pgm", img)
        noisy = np.clip(img + rng.normal(0, 0.03, (8, 8)), 0, 1)
        write_pgm(query / f"place_{k:03d}.pgm", noisy)
    config = {
        "seed": 9,
        "workers": 1,
        "image": {"width": 8, "height": 8},
        "patch": {"patch_width": 4, "patch_height": 4},
        "encoding": {"min_output_spikes": 0},
        "simulation": {"weight_norm_target": 20.0},
        "expert": {
            "n_excitatory": 8, "places_per_expert": 2, "epochs": 8, "record_last_epochs": 4,
        },
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config))
    return root, str(cfg_path), str(ref), str(query)


@pytest.fixture(scope="module")
def trained_archive(world):
    root, cfg, ref, _ = world
    out = str(root / "model")
    assert main(["train", "--config", cfg, "--ref-dirs", ref, "--out", out]) == 0
    assert main(["regularize", "--config", cfg, "--model", out,
                 "--ref-dirs", ref, "--theta", "1000"]) == 0
    return out


def read_archive_bytes(path):
    return {
        name: open(os.path.join(path, name), "rb").read()
        for name in sorted(os.listdir(path))
    }


class TestTrain:
    def test_worker_count_does_not_change_archive(self, world):
        root, cfg, ref, _ = world
        a = str(root / "model_w1")
        b = str(root / "model_w2")
        assert main(["train", "--config", cfg, "--ref-dirs", ref, "--out", a,
                     "--workers", "1"]) == 0
        assert main(["train", "--config", cfg, "--ref-dirs", ref, "--out", b,
                     "--workers", "2"]) == 0
        assert read_archive_bytes(a) == read_archive_bytes(b)

    def test_missing_directory_exits_2_and_names_path(self, world, capsys):
        root, cfg, _, _ = world
        rc = main(["train", "--config", cfg, "--ref-dirs", "no/such/traverse",
                   "--out", str(root / "nope")])
        assert rc == 2
        assert "no/such/traverse" in capsys.readouterr().err

    def test_out_into_a_missing_directory_exits_2(self, world, tmp_path, capsys):
        _, cfg, ref, _ = world
        out = tmp_path / "missing" / "parent" / "model"
        assert main(["train", "--config", cfg, "--ref-dirs", ref, "--places", "2",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write archive") and "Traceback" not in err
        assert os.listdir(tmp_path) == []

    def test_places_flag_limits_partitioning(self, world):
        root, cfg, ref, _ = world
        out = str(root / "model_2p")
        assert main(["train", "--config", cfg, "--ref-dirs", ref, "--places", "2",
                     "--out", out]) == 0
        model = load_ensemble(out)
        assert model.place_count == 2
        assert len(model.experts) == 1

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "missing")
        rc = main(["train", "--ref-dirs", missing, "--out", missing, "--seed", "-1"])
        assert rc == 2
        assert_one_error_line(capsys, "seed")

    @pytest.mark.parametrize("encoding, fragment", [
        ({"max_rate_hz": 1e308}, "spikes per input"),
        ({"retry_boost_hz": -100.0, "min_output_spikes": 1000}, "retry_boost_hz"),
    ])
    def test_an_encoding_no_train_can_draw_exits_2(self, world, tmp_path, capsys,
                                                   encoding, fragment):
        _, cfg, ref, _ = world
        data = json.loads(open(cfg).read())
        data["encoding"] = {**data["encoding"], **encoding}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "model"
        assert main(["train", "--config", str(path), "--ref-dirs", ref, "--out", str(out)]) == 2
        assert_one_error_line(capsys, fragment)
        assert not out.exists()

    def test_a_directory_named_like_an_image_exits_2(self, world, tmp_path, capsys):
        _, cfg, ref, _ = world
        traverse = tmp_path / "ref"
        shutil.copytree(ref, traverse)
        (traverse / "0003.pgm").mkdir()
        out = tmp_path / "model"
        assert main(["train", "--config", cfg, "--ref-dirs", str(traverse), "--out", str(out)]) == 2
        assert_one_error_line(capsys, "cannot read image", "0003.pgm")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "calibrate"])
    def test_an_oversized_expert_exits_2_before_loading(self, world, tmp_path, monkeypatch,
                                                        capsys, command):
        _, cfg, ref, query = world
        never_called(monkeypatch, cli, "_load_traverses")
        rc = main(COMMAND_ARGS[command](cfg, ref, query, tmp_path) + ["--neurons", "1000000000"])
        assert rc == 2
        assert_one_error_line(capsys, "n_excitatory (1000000000)", "bytes")
        assert os.listdir(tmp_path) == []

    def test_an_oversized_weight_stack_exits_2_before_training(self, world, tmp_path,
                                                               monkeypatch, capsys):
        _, cfg, ref, _ = world
        # 4 places of 8 x 8 in regions of 2, 8 neurons each: a 4,096-byte stack.
        monkeypatch.setattr(ensemble, "MAX_STACK_BYTES", 4095)
        never_called(monkeypatch, ensemble, "train_experts")
        assert main(["train", "--config", cfg, "--ref-dirs", ref,
                     "--out", str(tmp_path / "model")]) == 2
        assert_one_error_line(capsys, "4096-byte weight stack", "4095")
        assert os.listdir(tmp_path) == []

    def test_a_refused_weight_stack_prints_nothing_to_stdout(self, world, tmp_path,
                                                             monkeypatch, capsys):
        _, cfg, ref, _ = world
        monkeypatch.setattr(ensemble, "MAX_STACK_BYTES", 4095)
        assert main(["train", "--config", cfg, "--ref-dirs", ref,
                     "--out", str(tmp_path / "model")]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and "4096-byte weight stack" in err

    @pytest.mark.parametrize("places", ["0", "-3"])
    def test_nonpositive_places_exits_2(self, world, places, capsys):
        root, cfg, ref, _ = world
        rc = main(["train", "--config", cfg, "--ref-dirs", ref, "--places", places,
                   "--out", str(root / "model_bad_places")])
        assert rc == 2
        assert_one_error_line(capsys, "--places")
        assert not (root / "model_bad_places").exists()


class TestPinnedBytes:
    """What train, regularize, evaluate and match write for one fixed tiny world.

    Six places make two experts, the second short.  The digests were taken
    when this test was written; a refactor that moves any of them changed
    an output.
    """

    DIGESTS = {
        "trained/expert_0000.bin":
            "d2ec9765c6caae0e98465d8f36376c243b5356a52c70f93821b6557c28a9e85b",
        "trained/expert_0001.bin":
            "7264225143199648590cf592fd2a7b963b593cee2628ce176633f1ef81d7ea42",
        "trained/manifest.json":
            "64798c917fdcfd738259bc852d4066b17cb7f54861fce4986e587d4117ef0164",
        "regularized/expert_0000.bin":
            "d2ec9765c6caae0e98465d8f36376c243b5356a52c70f93821b6557c28a9e85b",
        "regularized/expert_0001.bin":
            "7264225143199648590cf592fd2a7b963b593cee2628ce176633f1ef81d7ea42",
        "regularized/manifest.json":
            "32a598640bcaabd0c80502b751b185da2c6959d223d3b2a472ca2e2f43dce47b",
        "reports/neuron_precision.csv":
            "e929f74b958c292d3e85bfcb95d2375ff11a391bbfb043d3defbd9554ecda847",
        "reports/pr_curve.csv":
            "2fba481aafbae0c34005133d4d7ab8c36a28c77148a7368d3a4a780c174cf54a",
        "reports/recall_at_n.csv":
            "df139534812a32b00d15587d40827023e3bbf450f6fc2065b2ae01ea3fecc0f9",
        "reports/summary.json":
            "9c5d664f73bb5a69e49cb5e9d68a9ea7db336debdd913f2fa84cc3b95c647dc3",
        "match":
            "6ed5af547118edcf2ab225646504ffab2ce3cda6988d08583fad8a917ff24dfe",
    }

    def test_archives_reports_and_match_lines_keep_their_bytes(self, tmp_path, capsys):
        rng = np.random.default_rng(28)
        ref, query = tmp_path / "ref", tmp_path / "query"
        ref.mkdir()
        query.mkdir()
        for k, img in enumerate(rng.uniform(size=(6, 8, 8))):
            write_pgm(ref / f"place_{k:03d}.pgm", img)
            write_pgm(query / f"place_{k:03d}.pgm",
                      np.clip(img + rng.normal(0, 0.05, (8, 8)), 0, 1))
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "seed": 4, "workers": 1, "image": {"width": 8, "height": 8},
            "patch": {"patch_width": 4, "patch_height": 4},
            "encoding": {"min_output_spikes": 0},
            "simulation": {"weight_norm_target": 20.0},
            "expert": {"n_excitatory": 8, "places_per_expert": 4, "epochs": 6,
                       "record_last_epochs": 3},
        }))
        cfg, ref, query = str(cfg), str(ref), str(query)
        trained, regularized = str(tmp_path / "trained"), str(tmp_path / "regularized")
        reports = str(tmp_path / "reports")
        assert main(["train", "--config", cfg, "--ref-dirs", ref, "--out", trained]) == 0
        # theta 18 flags 5 of the 16 neurons.
        assert main(["regularize", "--config", cfg, "--model", trained, "--ref-dirs", ref,
                     "--theta", "18", "--out", regularized]) == 0
        assert main(["evaluate", "--config", cfg, "--model", regularized, "--query-dir", query,
                     "--report-dir", reports]) == 0
        capsys.readouterr()
        assert main(["match", "--model", regularized, "--top", "3",
                     "--image", os.path.join(query, "place_002.pgm")]) == 0
        written = {"match": capsys.readouterr().out.encode()}
        for directory in (trained, regularized, reports):
            for name, data in read_archive_bytes(directory).items():
                written[f"{os.path.basename(directory)}/{name}"] = data
        summary = json.loads(written["reports/summary.json"])
        del summary["mean_query_seconds"]   # a timing
        written["reports/summary.json"] = json.dumps(summary, sort_keys=True).encode()
        digests = {name: hashlib.sha256(data).hexdigest() for name, data in written.items()}
        assert digests == self.DIGESTS


def run_pipeline(root, cfg, ref, query, theta, workers) -> dict:
    """Every file train, regularize and evaluate write at ``--workers workers``.

    ``summary.json`` is compared without its timing, ``mean_query_seconds``.
    """
    out = {name: os.path.join(root, f"{name}_w{workers}")
           for name in ("trained", "regularized", "reports")}
    flags = ["--config", cfg, "--workers", str(workers)]
    assert main(["train", *flags, "--ref-dirs", ref, "--out", out["trained"]]) == 0
    assert main(["regularize", *flags, "--model", out["trained"], "--ref-dirs", ref,
                 "--theta", repr(theta), "--out", out["regularized"]]) == 0
    assert main(["evaluate", *flags, "--model", out["regularized"], "--query-dir", query,
                 "--report-dir", out["reports"]]) == 0
    written = {name: read_archive_bytes(path) for name, path in out.items()}
    summary = json.loads(written["reports"]["summary.json"])
    del summary["mean_query_seconds"]   # a timing
    written["reports"]["summary.json"] = summary
    return written


class TestWorkerCountProperty:
    # 10 examples in tier-1 (about 3 s), or as many as the "cli-determinism"
    # profile asks for (conftest.py), which CI loads to run this test alone.
    @settings(max_examples=(settings.default.max_examples
                            if settings.get_current_profile_name() == "cli-determinism"
                            else 10),
              deadline=None)
    @given(data=st.data())
    def test_one_and_two_workers_write_the_same_bytes(self, data):
        """Any tiny PGM world: archives and reports do not depend on the worker count."""
        n_places = data.draw(st.integers(2, 6), label="places")
        kappa = data.draw(st.integers(1, n_places), label="places_per_expert")
        epochs = data.draw(st.integers(1, 2), label="epochs")
        config = {
            "seed": data.draw(st.integers(min_value=0), label="seed"),
            "image": {"width": 8, "height": 8},
            "patch": {"patch_width": 4, "patch_height": 4},
            "encoding": {
                "presentation_ms": data.draw(st.integers(10, 40), label="presentation_ms"),
                "rest_ms": data.draw(st.integers(0, 20), label="rest_ms"),
                "min_output_spikes": 0,
            },
            "simulation": {"weight_norm_target": 20.0},
            "expert": {
                "n_excitatory": data.draw(st.integers(kappa, 8), label="n_excitatory"),
                "places_per_expert": kappa,
                "epochs": epochs,
                "record_last_epochs": data.draw(st.integers(1, epochs), label="recorded"),
            },
        }
        theta = data.draw(st.floats(min_value=0, allow_infinity=False), label="theta")
        world_seed = data.draw(st.integers(0, 2**32 - 1), label="world_seed")
        with tempfile.TemporaryDirectory() as root:
            ref, query = os.path.join(root, "ref"), os.path.join(root, "query")
            os.mkdir(ref)
            os.mkdir(query)
            textures = make_textures(n_places, (8, 8), seed=world_seed)
            for k, (img, noisy) in enumerate(zip(textures,
                                                 corrupt_queries(textures, world_seed + 1))):
                write_pgm(os.path.join(ref, f"place_{k:03d}.pgm"), img)
                write_pgm(os.path.join(query, f"place_{k:03d}.pgm"), noisy)
            cfg = os.path.join(root, "config.json")
            with open(cfg, "w") as fh:
                json.dump(config, fh)
            one, two = (run_pipeline(root, cfg, ref, query, theta, workers) for workers in (1, 2))
            assert one == two


class TestRegularize:
    def test_theta_zero_disables_filter(self, world, trained_archive):
        root, cfg, ref, _ = world
        out = str(root / "model_t0")
        assert main(["regularize", "--config", cfg, "--model", trained_archive,
                     "--ref-dirs", ref, "--theta", "0", "--out", out]) == 0
        model = load_ensemble(out)
        assert model.theta is None
        assert not any(ex.hyperactive.any() for ex in model.experts)

    def test_flag_set_shrinks_as_theta_grows(self, world, trained_archive):
        root, cfg, ref, _ = world
        flagged = []
        for theta in (1, 5, 1000):
            out = str(root / f"model_t{theta}")
            assert main(["regularize", "--config", cfg, "--model", trained_archive,
                         "--ref-dirs", ref, "--theta", str(theta), "--out", out]) == 0
            model = load_ensemble(out)
            flagged.append(sum(int(ex.hyperactive.sum()) for ex in model.experts))
        assert flagged[0] >= flagged[1] >= flagged[2]


    def test_a_rewritten_reference_image_exits_2(self, world, trained_archive, tmp_path,
                                                 capsys):
        _, cfg, ref, _ = world
        changed = tmp_path / "ref"  # the trained traverse's name, with one image rewritten
        shutil.copytree(ref, changed)
        write_pgm(changed / "place_001.pgm", np.zeros((8, 8)))
        model = str(tmp_path / "model")
        shutil.copytree(trained_archive, model)
        before = read_archive_bytes(model)
        assert main(["regularize", "--config", cfg, "--model", model,
                     "--ref-dirs", str(changed), "--theta", "5"]) == 2
        assert_one_error_line(
            capsys, "traverse 'ref' does not match the data this model was trained on"
        )
        assert read_archive_bytes(model) == before

    def test_an_existing_out_other_than_the_model_is_refused(self, world, trained_archive,
                                                             tmp_path, monkeypatch, capsys):
        _, cfg, ref, _ = world
        other = str(tmp_path / "other")
        shutil.copytree(trained_archive, other)
        before = read_archive_bytes(other)
        never_called(monkeypatch, ensemble, "detect_hyperactive")
        assert main(["regularize", "--config", cfg, "--model", trained_archive,
                     "--ref-dirs", ref, "--theta", "5", "--out", other]) == 2
        assert_one_error_line(capsys, "refusing to overwrite", "other")
        assert read_archive_bytes(other) == before
        assert sorted(os.listdir(tmp_path)) == ["other"]

    def test_out_naming_the_model_updates_it_in_place(self, world, trained_archive, tmp_path):
        _, cfg, ref, _ = world
        model = str(tmp_path / "model")
        shutil.copytree(trained_archive, model)
        assert main(["regularize", "--config", cfg, "--model", model, "--ref-dirs", ref,
                     "--theta", "5", "--out", os.path.join(str(tmp_path), ".", "model")]) == 0
        assert load_ensemble(model).theta == 5

    def test_a_users_old_backup_survives_regularize(self, world, trained_archive, tmp_path):
        _, cfg, ref, _ = world
        model = str(tmp_path / "model")
        shutil.copytree(trained_archive, model)
        for backup in (model + ".old", str(tmp_path / "out.old")):
            shutil.copytree(trained_archive, backup)
            with open(os.path.join(backup, "notes.txt"), "w") as fh:
                fh.write("mine")
        kept = read_archive_bytes(model + ".old")
        for extra in ([], ["--out", str(tmp_path / "out")]):
            assert main(["regularize", "--config", cfg, "--model", model, "--ref-dirs", ref,
                         "--theta", "5"] + extra) == 0
        assert read_archive_bytes(model + ".old") == kept
        assert read_archive_bytes(str(tmp_path / "out.old")) == kept
        assert load_ensemble(model).theta == 5


def assert_one_error_line(capsys, *fragments):
    """Exit-2 contract: a single `error:` line on stderr, no traceback."""
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert "Traceback" not in err
    for fragment in fragments:
        assert fragment in lines[0]


def never_called(monkeypatch, owner, name):
    """Replace ``owner.name`` with a function that fails the test when called."""
    monkeypatch.setattr(owner, name, lambda *a, **k: pytest.fail(f"{name} was called"))


# Each command's arguments short of the flags a test adds; output goes under ``out``.
COMMAND_ARGS = {
    "train": lambda cfg, ref, query, out: [
        "train", "--config", cfg, "--ref-dirs", ref, "--out", str(out / "model")],
    "calibrate": lambda cfg, ref, query, out: [
        "calibrate", "--config", cfg, "--ref-dirs", ref, "--query-dir", query,
        "--cal-range", "0:2", "--out-dir", str(out / "cal")],
}

# Every flag that sets a run-config value: the key it sets, a value in range
# and a value past it, each as JSON.  Only calibrate has the grid flags.
CONFIG_FLAGS = [
    ("--seed", ("seed",), 7, -1),
    ("--workers", ("workers",), 3, -1),
    ("--kappa", ("expert", "places_per_expert"), 3, 0),
    ("--neurons", ("expert", "n_excitatory"), 12, 0),
    ("--epochs", ("expert", "epochs"), 11, 0),
    ("--tau-gi-grid", ("calibration", "tau_gi_grid"), [0.5, 2.0], [0.5, 0.0]),
    ("--theta-grid", ("calibration", "theta_grid"), [0.0, 30.0], [30.0, -5.0]),
]
FLAGS_BY_COMMAND = [(command, *flag) for command in ("train", "calibrate")
                    for flag in CONFIG_FLAGS if command == "calibrate" or "grid" not in flag[0]]


def flag_argv(flag, value):
    return [flag] + [str(v) for v in (value if isinstance(value, list) else [value])]


class TestRunConfigFlags:
    """Each flag that sets a run-config value sets the key it names, as the file would."""

    @pytest.mark.parametrize("command, flag, key, value, _", FLAGS_BY_COMMAND,
                             ids=[f"{command} {flag}" for command, flag, *_ in FLAGS_BY_COMMAND])
    def test_flag_reaches_the_run_config(self, world, tmp_path, monkeypatch, command,
                                         flag, key, value, _):
        _, cfg, ref, query = world
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(with_leaf(to_json(load_config(cfg)), key, value)))
        want = load_config(str(edited))
        assert want != load_config(cfg)
        built = []

        def stop(dirs, source, place_range=None):
            built.append(source)
            raise IngestError("stopped before loading")

        monkeypatch.setattr(cli, "_load_traverses", stop)
        argv = COMMAND_ARGS[command](cfg, ref, query, tmp_path) + flag_argv(flag, value)
        assert main(argv) == 2
        assert built == [want]

    @pytest.mark.parametrize("flag, key, _, value", CONFIG_FLAGS,
                             ids=[flag for flag, *_ in CONFIG_FLAGS])
    def test_a_bad_value_exits_2_with_the_files_error(self, tmp_path, capsys, flag, key, _,
                                                      value):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(with_leaf(to_json(RunConfig()), key, value)))
        argv = config_commands(tmp_path)["calibrate"]
        errors = []
        for given in (flag_argv(flag, value), ["--config", str(path)]):
            assert main(argv + given) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: in 'config") and errors[0].count("\n") == 1
        assert not (tmp_path / "missing").exists()

    def test_a_flag_leaves_a_file_section_that_is_no_object_to_the_decoder(self, tmp_path,
                                                                          capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"expert": 5}))
        argv = config_commands(tmp_path)["train"] + ["--config", str(path), "--kappa", "3"]
        assert main(argv) == 2
        assert_one_error_line(capsys, "'config.expert' must be an object, got 5")


class TestOutputsCheckedFirst:
    """Every output a command writes is checked before the command does any work."""

    def test_train_into_a_missing_parent(self, world, tmp_path, monkeypatch, capsys):
        import snnplace.ensemble as ens

        _, cfg, ref, _ = world
        never_called(monkeypatch, ens, "train_ensemble")
        out = tmp_path / "missing" / "model"
        assert main(["train", "--config", cfg, "--ref-dirs", ref, "--out", str(out)]) == 2
        assert_one_error_line(capsys, "cannot write archive", "missing")
        assert os.listdir(tmp_path) == []

    def test_train_onto_an_archive_without_force(self, world, trained_archive, tmp_path,
                                                 monkeypatch, capsys):
        import snnplace.ensemble as ens

        _, cfg, ref, _ = world
        out = tmp_path / "model"
        shutil.copytree(trained_archive, out)
        never_called(monkeypatch, ens, "train_ensemble")
        assert main(["train", "--config", cfg, "--ref-dirs", ref, "--out", str(out)]) == 2
        assert_one_error_line(capsys, "refusing to overwrite")
        assert read_archive_bytes(out) == read_archive_bytes(trained_archive)

    def test_regularize_into_a_missing_parent(self, world, trained_archive, tmp_path,
                                              monkeypatch, capsys):
        import snnplace.ensemble as ens

        _, cfg, ref, _ = world
        never_called(monkeypatch, ens, "detect_hyperactive")
        out = tmp_path / "missing" / "model"
        assert main(["regularize", "--config", cfg, "--model", trained_archive,
                     "--ref-dirs", ref, "--theta", "5", "--out", str(out)]) == 2
        assert_one_error_line(capsys, "cannot write archive", "missing")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("below", [(), ("reports",)], ids=["a file", "under a file"])
    def test_evaluate_report_dir_on_a_file(self, world, trained_archive, tmp_path,
                                           monkeypatch, capsys, below):
        import snnplace.store as store

        _, cfg, _, query = world
        (tmp_path / "taken").write_text("mine")
        never_called(monkeypatch, store, "load_ensemble")
        reports = os.path.join(tmp_path, "taken", *below)
        assert main(["evaluate", "--config", cfg, "--model", trained_archive,
                     "--query-dir", query, "--report-dir", reports]) == 2
        assert_one_error_line(capsys, "taken", "not a directory")
        assert (tmp_path / "taken").read_text() == "mine"

    @pytest.mark.parametrize("below", [(), ("cal",)], ids=["a file", "under a file"])
    def test_calibrate_out_dir_on_a_file(self, world, tmp_path, monkeypatch, capsys, below):
        import snnplace.calibration as cal

        _, cfg, ref, query = world
        (tmp_path / "taken").write_text("mine")
        never_called(monkeypatch, cal, "train_ensemble")
        out_dir = os.path.join(tmp_path, "taken", *below)
        assert main(["calibrate", "--config", cfg, "--ref-dirs", ref, "--query-dir", query,
                     "--cal-range", "0:2", "--tau-gi-grid", "0.5", "--theta-grid", "5",
                     "--out-dir", out_dir]) == 2
        assert_one_error_line(capsys, "taken", "not a directory")
        assert (tmp_path / "taken").read_text() == "mine"


class TestArchiveGeometry:
    """Commands that load an archive preprocess with its size and patch, not the config's."""

    def test_regularize_and_evaluate_without_config(self, world, trained_archive, tmp_path):
        _, cfg, ref, query = world
        out = str(tmp_path / "model")
        assert main(["regularize", "--model", trained_archive, "--ref-dirs", ref,
                     "--theta", "1000", "--out", out, "--workers", "1"]) == 0
        assert read_archive_bytes(out) == read_archive_bytes(trained_archive)
        summaries = []
        for extra in ([], ["--config", cfg]):
            reports = tmp_path / f"reports{len(extra)}"
            assert main(["evaluate", "--model", out, "--query-dir", query, "--workers", "1",
                         "--report-dir", str(reports)] + extra) == 0
            summary = json.loads((reports / "summary.json").read_text())
            summary.pop("mean_query_seconds")
            summaries.append(summary)
        assert summaries[0] == summaries[1]


class TestInvalidTheta:
    def test_regularize_negative_theta_exits_2(self, world, trained_archive, capsys):
        root, cfg, ref, _ = world
        out = str(root / "model_neg")
        rc = main(["regularize", "--config", cfg, "--model", trained_archive,
                   "--ref-dirs", ref, "--theta", "-5", "--out", out])
        assert rc == 2
        assert_one_error_line(capsys, "theta")
        assert not os.path.exists(out)

    def test_evaluate_negative_theta_exits_2(self, world, trained_archive, tmp_path, capsys):
        _, cfg, _, query = world
        rc = main(["evaluate", "--config", cfg, "--model", trained_archive,
                   "--query-dir", query, "--report-dir", str(tmp_path / "r"),
                   "--theta", "-5"])
        assert rc == 2
        assert_one_error_line(capsys, "theta")

    @pytest.mark.parametrize("text", ['{"theta": -5}', '{"theta": "abc"}', '{"theta": NaN}'])
    def test_evaluate_params_bad_theta_exits_2(self, world, trained_archive, tmp_path,
                                               capsys, text):
        _, cfg, _, query = world
        params = tmp_path / "chosen.json"
        params.write_text(text)
        rc = main(["evaluate", "--config", cfg, "--model", trained_archive,
                   "--query-dir", query, "--report-dir", str(tmp_path / "r"),
                   "--params", str(params)])
        assert rc == 2
        assert_one_error_line(capsys, "theta")
        assert not (tmp_path / "r").exists()

    def test_evaluate_theta_and_params_together_exit_2(self, world, trained_archive, tmp_path,
                                                       monkeypatch, capsys):
        import snnplace.store as store

        _, cfg, _, query = world
        params = tmp_path / "chosen.json"
        params.write_text(json.dumps({"theta": 5}))
        never_called(monkeypatch, store, "load_ensemble")
        rc = main(["evaluate", "--config", cfg, "--model", trained_archive,
                   "--query-dir", query, "--report-dir", str(tmp_path / "r"),
                   "--theta", "50", "--params", str(params)])
        assert rc == 2
        assert_one_error_line(capsys, "--theta", "--params")
        assert not (tmp_path / "r").exists()

    def test_calibrate_bad_grid_fails_before_training(self, world, tmp_path, capsys,
                                                       monkeypatch):
        import snnplace.calibration as cal

        _, cfg, ref, query = world
        monkeypatch.setattr(cal, "train_ensemble", lambda *a, **k: pytest.fail("trained"))
        out_dir = tmp_path / "cal"
        rc = main(["calibrate", "--config", cfg, "--ref-dirs", ref,
                   "--query-dir", query, "--cal-range", "0:2",
                   "--tau-gi-grid", "0.5", "--theta-grid", "-5",
                   "--out-dir", str(out_dir)])
        assert rc == 2
        assert_one_error_line(capsys, "theta")
        assert not (out_dir / "chosen.json").exists()


class TestEvaluateParams:
    def _evaluate(self, world, archive, tmp_path, params):
        _, cfg, _, query = world
        return main(["evaluate", "--config", cfg, "--model", archive,
                     "--query-dir", query, "--report-dir", str(tmp_path / "r"),
                     "--params", str(params)])

    def test_missing_file_exits_2(self, world, trained_archive, tmp_path, capsys):
        missing = tmp_path / "no_such_chosen.json"
        assert self._evaluate(world, trained_archive, tmp_path, missing) == 2
        assert_one_error_line(capsys, "no_such_chosen.json")

    @pytest.mark.parametrize("text", ["{not json", "[50.0]"])
    def test_malformed_file_exits_2(self, world, trained_archive, tmp_path, capsys, text):
        params = tmp_path / "chosen.json"
        params.write_text(text)
        assert self._evaluate(world, trained_archive, tmp_path, params) == 2
        assert_one_error_line(capsys, "chosen.json")

    def test_chosen_theta_is_applied(self, world, trained_archive, tmp_path):
        params = tmp_path / "chosen.json"
        params.write_text(json.dumps({"tau_gi_ms": 0.5, "theta": 0}))
        assert self._evaluate(world, trained_archive, tmp_path, params) == 0
        summary = json.loads((tmp_path / "r" / "summary.json").read_text())
        assert summary["theta"] is None


class TestEvaluate:
    def test_reports_contract(self, world, trained_archive):
        root, cfg, _, query = world
        reports = str(root / "reports")
        assert main(["evaluate", "--config", cfg, "--model", trained_archive,
                     "--query-dir", query, "--report-dir", reports]) == 0
        for name in ("pr_curve.csv", "recall_at_n.csv", "neuron_precision.csv",
                     "summary.json"):
            assert os.path.exists(os.path.join(reports, name)), name
        summary = json.loads(open(os.path.join(reports, "summary.json")).read())
        assert 0.0 <= summary["p_at_100r"] <= 1.0
        assert summary["n_queries"] == 4

    def test_rerun_is_deterministic(self, world, trained_archive):
        root, cfg, _, query = world
        outs = []
        for tag in ("r1", "r2"):
            reports = str(root / f"reports_{tag}")
            assert main(["evaluate", "--config", cfg, "--model", trained_archive,
                         "--query-dir", query, "--report-dir", reports]) == 0
            outs.append(json.loads(open(os.path.join(reports, "summary.json")).read()))
        # timing fields are the only permitted difference
        for summary in outs:
            summary.pop("mean_query_seconds")
        assert outs[0] == outs[1]

    def test_inconsistent_archive_exits_2(self, world, trained_archive, tmp_path, capsys):
        _, cfg, _, query = world
        broken = tmp_path / "broken"
        shutil.copytree(trained_archive, broken)
        manifest = json.loads((broken / "manifest.json").read_text())
        manifest["image_size"] = [4, 4]
        (broken / "manifest.json").write_text(json.dumps(manifest))
        rc = main(["evaluate", "--config", cfg, "--model", str(broken),
                   "--query-dir", query, "--report-dir", str(tmp_path / "reports")])
        assert rc == 2
        assert "n_inputs" in capsys.readouterr().err


class TestMatch:
    def test_training_image_ranks_first(self, world, trained_archive, capsys):
        root, cfg, ref, _ = world
        rc = main(["match", "--model", trained_archive,
                   "--image", os.path.join(ref, "place_002.pgm"), "--query-id", "2"])
        assert rc == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert lines[0]["rank"] == 1
        assert lines[0]["place"] == 2
        assert lines == sorted(lines, key=lambda r: r["rank"])


    @pytest.mark.parametrize("flag, value", [("--query-id", "-1"), ("--top", "0"),
                                             ("--top", "-1")])
    def test_negative_id_or_empty_top_exits_2(self, world, trained_archive, flag, value,
                                              capsys):
        root, cfg, ref, _ = world
        rc = main(["match", "--model", trained_archive,
                   "--image", os.path.join(ref, "place_002.pgm"), flag, value])
        assert rc == 2
        assert_one_error_line(capsys, flag)

    def test_manifest_without_config_exits_2(self, world, trained_archive, tmp_path,
                                             capsys):
        root, cfg, ref, _ = world
        broken = tmp_path / "no_config"
        shutil.copytree(trained_archive, broken)
        manifest = json.loads((broken / "manifest.json").read_text())
        del manifest["config"]
        (broken / "manifest.json").write_text(json.dumps(manifest))
        rc = main(["match", "--model", str(broken),
                   "--image", os.path.join(ref, "place_002.pgm")])
        assert rc == 2
        assert_one_error_line(capsys, "config")

    def test_an_encoding_no_train_can_draw_exits_2(self, world, trained_archive, tmp_path,
                                                   capsys):
        root, cfg, ref, _ = world
        broken = tmp_path / "loud"
        shutil.copytree(trained_archive, broken)
        manifest = json.loads((broken / "manifest.json").read_text())
        manifest["config"]["encoding"]["max_rate_hz"] = 1e308
        (broken / "manifest.json").write_text(json.dumps(manifest))
        rc = main(["match", "--model", str(broken),
                   "--image", os.path.join(ref, "place_002.pgm")])
        assert rc == 2
        assert_one_error_line(capsys, "spikes per input")

    @pytest.mark.parametrize("value", [2**63, 2.35e154])
    def test_a_wiring_weight_past_its_range_exits_2(self, world, trained_archive, tmp_path,
                                                   capsys, value):
        # Each used to load and overflow the step: 2**63 silently, 2.35e154 in lif_step.
        root, cfg, ref, _ = world
        broken = tmp_path / "overflowing"
        shutil.copytree(trained_archive, broken)
        manifest = json.loads((broken / "manifest.json").read_text())
        manifest["config"]["wiring"]["w_inh_to_exc"] = value
        (broken / "manifest.json").write_text(json.dumps(manifest))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["match", "--model", str(broken),
                       "--image", os.path.join(ref, "place_002.pgm")])
        assert rc == 2
        assert_one_error_line(capsys, "archive", "'config.wiring'", "w_inh_to_exc")

    def test_assignment_past_the_place_count_exits_2(self, world, trained_archive, tmp_path,
                                                     capsys):
        root, cfg, ref, _ = world
        broken = tmp_path / "far_place"
        shutil.copytree(trained_archive, broken)
        manifest = json.loads((broken / "manifest.json").read_text())
        manifest["experts"][0]["assignments"][0] = 50
        (broken / "manifest.json").write_text(json.dumps(manifest))
        rc = main(["match", "--model", str(broken),
                   "--image", os.path.join(ref, "place_002.pgm")])
        assert rc == 2
        assert_one_error_line(capsys, "assigns a neuron outside")

    def test_an_empty_region_exits_2(self, world, trained_archive, tmp_path, capsys):
        # The regions still tile the place count: [0, 2) and an empty [2, 2).
        root, cfg, ref, _ = world
        broken = tmp_path / "empty_region"
        shutil.copytree(trained_archive, broken)
        manifest = json.loads((broken / "manifest.json").read_text())
        last = manifest["experts"][-1]
        last["n_places"] = 0
        last["assignments"] = [-1] * len(last["assignments"])
        manifest["place_count"] = 2
        (broken / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ArchiveError, match="expert 1 holds 0 places"):
            load_ensemble(broken)
        rc = main(["match", "--model", str(broken),
                   "--image", os.path.join(ref, "place_002.pgm")])
        assert rc == 2
        assert_one_error_line(capsys, "archive", "expert 1 holds 0 places")


    def test_unregularized_archive_exits_2_as_evaluate_does(self, world, tmp_path, capsys):
        _, cfg, ref, query = world
        model = str(tmp_path / "model")
        assert main(["train", "--config", cfg, "--ref-dirs", ref, "--places", "2",
                     "--out", model]) == 0
        capsys.readouterr()
        errors = []
        for argv in (["match", "--model", model, "--image", os.path.join(ref, "place_000.pgm")],
                     ["evaluate", "--config", cfg, "--model", model, "--query-dir", query,
                      "--report-dir", str(tmp_path / "reports")]):
            assert main(argv) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == (
            "error: model has no reference totals: run `regularize` first\n"
        )


class TestCalibrate:
    def test_tiny_grid_end_to_end(self, world):
        root, cfg, ref, query = world
        out_dir = str(root / "cal")
        rc = main(["calibrate", "--config", cfg, "--ref-dirs", ref,
                   "--query-dir", query, "--cal-range", "0:2",
                   "--tau-gi-grid", "0.5", "--theta-grid", "50", "100",
                   "--out-dir", out_dir])
        assert rc == 0
        chosen = json.loads(open(os.path.join(out_dir, "chosen.json")).read())
        assert chosen["tau_gi_ms"] == 0.5
        assert chosen["theta"] in (50.0, 100.0)
        rows = open(os.path.join(out_dir, "calibration.csv")).read().strip().splitlines()
        assert len(rows) == 3

    def test_train_uses_calibrated_tau_gi(self, world, tmp_path):
        _, cfg, ref, query = world
        out_dir = str(tmp_path / "cal")
        assert main(["calibrate", "--config", cfg, "--ref-dirs", ref,
                     "--query-dir", query, "--cal-range", "0:2",
                     "--tau-gi-grid", "2.0", "--theta-grid", "50",
                     "--out-dir", out_dir]) == 0
        model = str(tmp_path / "model")
        assert main(["train", "--config", os.path.join(out_dir, "config.json"),
                     "--ref-dirs", ref, "--out", model]) == 0
        assert load_ensemble(model).sim.lif_excitatory.tau_gi_ms == 2.0

    @pytest.mark.parametrize("cal_range", ["5:5", "3"])
    def test_empty_or_malformed_cal_range_exits_2(self, world, tmp_path, monkeypatch, capsys,
                                                  cal_range):
        import snnplace.calibration as cal

        _, cfg, ref, query = world
        never_called(monkeypatch, cal, "train_ensemble")
        out_dir = tmp_path / "cal"
        assert main(["calibrate", "--config", cfg, "--ref-dirs", ref, "--query-dir", query,
                     "--cal-range", cal_range, "--tau-gi-grid", "0.5", "--theta-grid", "5",
                     "--out-dir", str(out_dir)]) == 2
        assert_one_error_line(capsys, "range", repr(cal_range))
        assert not out_dir.exists()


class TestCalibrationSplitHygiene:
    def test_loader_never_touches_test_range_files(self, world, monkeypatch):
        import snnplace.cli as cli

        _, cfg_path, ref, _ = world
        cfg = cli.load_config(cfg_path)
        files_read = []
        encoder_input = cli._encoder_input
        monkeypatch.setattr(cli, "_encoder_input",
                            lambda path, *a: files_read.append(path) or encoder_input(path, *a))
        _, manifests = cli._load_traverses([ref], cfg, place_range=(0, 2))
        test_range_paths = set(manifests[0].paths()[2:])
        assert test_range_paths, "world should hold places beyond the cal range"
        assert test_range_paths.isdisjoint(files_read)
        assert len(files_read) == 2


class TestConfig:
    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"seed": 1, "bogus": 2}))
        with pytest.raises(ConfigError, match="bogus"):
            load_config(str(path))

    def test_unknown_nested_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"stdp_typo": {}}))
        with pytest.raises(ConfigError):
            load_config(str(path))
        path.write_text(json.dumps({"simulation": {"stdp": {"lr": 1}}}))
        with pytest.raises(ConfigError, match="lr"):
            load_config(str(path))

    def test_invariant_violations_exit_2(self, world, tmp_path):
        root, _, ref, _ = world
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "image": {"width": 8, "height": 8},
            "patch": {"patch_width": 4, "patch_height": 4},
            "simulation": {"lif_excitatory": {
                "tau_ms": -1.0, "e_rest_mv": -65.0, "e_exc_mv": 0.0,
                "e_inh_mv": -100.0, "v_thresh_mv": -52.0, "v_reset_mv": -65.0,
                "refractory_ms": 5.0, "tau_ge_ms": 1.0, "tau_gi_ms": 0.5,
            }},
        }))
        rc = main(["train", "--config", str(bad), "--ref-dirs", ref,
                   "--out", str(root / "never")])
        assert rc == 2

    def test_defaults_carry_reference_constants(self):
        cfg = load_config(None)
        assert cfg.encoding.presentation_ms == 350.0
        assert cfg.encoding.rest_ms == 150.0
        assert cfg.encoding.max_rate_hz == 63.75
        assert cfg.simulation.lif_excitatory.tau_ms == 100.0
        assert cfg.simulation.weight_norm_target == 78.0
        assert cfg.expert.places_per_expert == 25

    @pytest.mark.parametrize("section, key, value", [
        (("simulation", "wiring"), "w_inh_to_exc", 2**63),
        (("simulation", "wiring"), "w_inh_to_exc", 2.35e154),
        (("simulation", "lif_excitatory"), "tau_ms", 1e-300),
        (("simulation",), "dt_ms", 1e-308),
    ])
    def test_a_value_past_its_range_exits_2_before_ingest(self, world, tmp_path, capsys,
                                                          monkeypatch, section, key, value):
        _, cfg, ref, _ = world
        never_called(monkeypatch, cli, "_load_traverses")
        data = json.loads(open(cfg).read())
        owner = data
        for name in section:
            owner = owner.setdefault(name, {})
        owner[key] = value
        path = tmp_path / "past_range.json"
        path.write_text(json.dumps(data))
        rc = main(["train", "--config", str(path), "--ref-dirs", ref,
                   "--out", str(tmp_path / "never")])
        assert rc == 2
        assert_one_error_line(capsys, repr("config." + ".".join(section)), key, "must lie in")
        assert not (tmp_path / "never").exists()

    def test_initial_weights_above_w_max_exit_2_before_ingest(self, world, tmp_path, capsys,
                                                                monkeypatch):
        _, cfg, ref, _ = world
        never_called(monkeypatch, cli, "_load_traverses")
        data = json.loads(open(cfg).read())
        data["simulation"].update(weight_init_max=2.0, stdp={"w_max": 1.0})
        path = tmp_path / "init_above_w_max.json"
        path.write_text(json.dumps(data))
        rc = main(["train", "--config", str(path), "--ref-dirs", ref,
                   "--out", str(tmp_path / "never")])
        assert rc == 2
        assert_one_error_line(capsys, "weight_init_max", "stdp.w_max")
        assert not (tmp_path / "never").exists()

    def test_dt_too_small_for_a_window_exits_2(self, world, tmp_path, capsys):
        # The shortest step dt_ms may take gives 350 / 1e-4 = 3.5e6 presentation steps.
        _, cfg, ref, _ = world
        data = json.loads(open(cfg).read())
        data["simulation"]["dt_ms"] = 1e-4
        path = tmp_path / "tiny_dt.json"
        path.write_text(json.dumps(data))
        rc = main(["train", "--config", str(path), "--ref-dirs", ref,
                   "--out", str(tmp_path / "never")])
        assert rc == 2
        assert_one_error_line(capsys, "presentation_ms", "at most 1000000 steps")
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize("section, key", [
        (("expert",), "n_inputs"), (("expert",), "seed"),
        (("simulation", "lif_inhibitory"), "tau_gi_ms"),
        (("simulation", "lif_inhibitory"), "e_inh_mv"),
    ])
    def test_a_dropped_key_exits_2_naming_it(self, tmp_path, capsys, section, key):
        data = to_json(RunConfig())
        owner = data
        for name in section:
            owner = owner[name]
        owner[key] = 1.0
        path = tmp_path / "old.json"
        path.write_text(json.dumps(data))
        argv = config_commands(tmp_path)["train"] + ["--config", str(path)]
        assert main(argv) == 2
        assert_one_error_line(capsys, "unknown keys", key)

    def test_theta_key_rejected_and_named(self, tmp_path):
        path = tmp_path / "theta.json"
        path.write_text(json.dumps({"theta": 100.0}))
        with pytest.raises(ConfigError, match="theta"):
            load_config(str(path))

    def test_config_must_be_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="object"):
            load_config(str(path))

    def test_partial_section_keeps_other_defaults(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"simulation": {"lif_excitatory": {"tau_ms": 50.0}}}))
        cfg = load_config(str(path))
        defaults = RunConfig().simulation
        lif = cfg.simulation.lif_excitatory
        assert lif == dataclasses.replace(defaults.lif_excitatory, tau_ms=50.0)
        assert cfg.simulation == dataclasses.replace(defaults, lif_excitatory=lif)

    def test_round_trip(self, world):
        for cfg in (RunConfig(), load_config(world[1])):
            assert from_json(type(cfg), to_json(cfg), "config") == cfg

    def test_infinite_numbers_rejected_but_theta_decay(self):
        defaults = to_json(RunConfig())
        leaves = list(float_leaves(defaults))
        decay = ("simulation", "homeostasis", "theta_decay_ms")
        assert decay in leaves and ("calibration", "tau_gi_grid", 0) in leaves
        accepted = []
        for path in leaves:
            for value in (math.inf, -math.inf):
                try:
                    from_json(RunConfig, with_leaf(defaults, path, value), "config")
                except ConfigError:
                    continue
                accepted.append((path, value))
        assert accepted == [(decay, math.inf)]

    def test_infinite_presentation_exits_2(self, world, tmp_path, capsys):
        _, cfg, ref, _ = world
        data = json.loads(open(cfg).read())
        data["encoding"]["presentation_ms"] = math.inf
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(data))
        rc = main(["train", "--config", str(path), "--ref-dirs", ref,
                   "--out", str(tmp_path / "never")])
        assert rc == 2
        assert_one_error_line(capsys, "presentation_ms")

    def test_presentation_shorter_than_a_step_exits_2(self, world, tmp_path, capsys):
        _, cfg, ref, _ = world
        data = json.loads(open(cfg).read())
        data["encoding"]["presentation_ms"] = 0.2  # round(0.2 / 0.5) == 0 steps
        path = tmp_path / "short.json"
        path.write_text(json.dumps(data))
        rc = main(["train", "--config", str(path), "--ref-dirs", ref,
                   "--out", str(tmp_path / "never")])
        assert rc == 2
        assert_one_error_line(capsys, "presentation_ms", "dt_ms")
        assert not (tmp_path / "never").exists()

    def test_decoder_is_strict(self):
        lif = to_json(LifParams.excitatory_defaults())
        assert from_json(LifParams, {**lif, "tau_ms": 100}, "lif").tau_ms == 100
        for bad in (True, "100", None, [100.0]):
            with pytest.raises(ConfigError, match="lif.tau_ms"):
                from_json(LifParams, {**lif, "tau_ms": bad}, "lif")
        del lif["tau_ms"]
        with pytest.raises(ConfigError, match="missing keys in 'lif': tau_ms"):
            from_json(LifParams, lif, "lif")


def float_leaves(node, prefix=()):
    """Paths to every float of a JSON tree, list items included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from float_leaves(value, prefix + (key,))
        elif isinstance(value, float):
            yield prefix + (key,)


def with_leaf(tree, path, value):
    """A deep copy of ``tree`` with the leaf at ``path`` set to ``value``."""
    edited = copy.deepcopy(tree)
    owner = edited
    for step in path[:-1]:
        owner = owner[step]
    owner[path[-1]] = value
    return edited


def config_commands(tmp_path):
    """Every command that reads a config, with arguments it never gets to use."""
    missing = str(tmp_path / "missing")
    return {
        "train": ["train", "--ref-dirs", missing, "--out", missing],
        "regularize": ["regularize", "--model", missing, "--ref-dirs", missing,
                       "--theta", "1"],
        "calibrate": ["calibrate", "--ref-dirs", missing, "--query-dir", missing,
                      "--cal-range", "0:2", "--out-dir", missing],
        "evaluate": ["evaluate", "--model", missing, "--query-dir", missing,
                     "--report-dir", missing],
    }


BAD_VALUES = [
    ({"image": 5}, "image"),
    ({"calibration": {"theta_grid": 5}}, "theta_grid"),
    ({"calibration": {"theta_grid": [10**400]}}, "theta"),
    ({"expert": {"epochs": "x"}}, "epochs"),
    ({"seed": "x"}, "seed"),
    ({"expert": {"n_excitatory": 100.5}}, "n_excitatory"),
    ({"simulation": "x"}, "simulation"),
    ({"patch": {"patch_width": 0}}, "patch"),
    ({"simulation": {"dt_ms": float("nan")}}, "dt_ms"),
]


class TestBadConfigValues:
    @pytest.mark.parametrize("command", ["train", "regularize", "calibrate", "evaluate"])
    @pytest.mark.parametrize("data,fragment", BAD_VALUES)
    def test_exits_2_naming_the_key(self, tmp_path, capsys, command, data, fragment):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        argv = config_commands(tmp_path)[command] + ["--config", str(path)]
        assert main(argv) == 2
        assert_one_error_line(capsys, fragment)
        assert not (tmp_path / "missing").exists()


@pytest.fixture(scope="module")
def fuzz_config(tmp_path_factory):
    defaults = to_json(RunConfig())
    keys = sorted(manifest_keys(defaults), key=repr)
    return tmp_path_factory.mktemp("config_fuzz") / "config.json", defaults, keys


class TestConfigFuzz:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_dropped_or_retyped_key_exits_2(self, fuzz_config, data):
        path, defaults, keys = fuzz_config
        key = data.draw(st.sampled_from(keys))
        edited = copy.deepcopy(defaults)
        owner = edited
        for step in key[:-1]:
            owner = owner[step]
        if data.draw(st.booleans()):
            del owner[key[-1]]
        else:
            owner[key[-1]] = data.draw(JUNK)
        path.write_text(json.dumps(edited))
        missing = str(path.parent / "missing")
        assert main(["train", "--config", str(path), "--ref-dirs", missing, "--out", missing]) == 2
