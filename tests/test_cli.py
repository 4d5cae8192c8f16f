"""End-to-end CLI behavior: exit codes, determinism, and report contracts."""

import json
import os
import shutil

import numpy as np
import pytest

from snnplace.cli import load_config, main
from snnplace.errors import ConfigError
from snnplace.imaging import write_pgm
from snnplace.store import load_ensemble


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
            "n_inputs": 64, "n_excitatory": 8, "places_per_expert": 2,
            "epochs": 8, "record_last_epochs": 4,
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

    def test_places_flag_limits_partitioning(self, world):
        root, cfg, ref, _ = world
        out = str(root / "model_2p")
        assert main(["train", "--config", cfg, "--ref-dirs", ref, "--places", "2",
                     "--out", out]) == 0
        model = load_ensemble(out)
        assert model.place_count == 2
        assert len(model.experts) == 1


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


class TestEvaluate:
    def test_reports_contract(self, world, trained_archive):
        root, cfg, _, query = world
        reports = str(root / "reports")
        assert main(["evaluate", "--config", cfg, "--model", trained_archive,
                     "--query-dir", query, "--report-dir", reports]) == 0
        for name in ("pr_curve.csv", "recall_at_n.csv", "neuron_precision.csv",
                     "scaling.csv", "summary.json"):
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
        rc = main(["match", "--config", cfg, "--model", trained_archive,
                   "--image", os.path.join(ref, "place_002.pgm"), "--query-id", "2"])
        assert rc == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert lines[0]["rank"] == 1
        assert lines[0]["place"] == 2
        assert lines == sorted(lines, key=lambda r: r["rank"])


class TestBench:
    def test_three_row_scaling_csv(self, world):
        root, cfg, _, _ = world
        out = str(root / "scaling.csv")
        rc = main(["bench", "--config", cfg, "--sizes", "1,2,4", "--neurons", "4",
                   "--queries", "2", "--out", out])
        assert rc == 0
        rows = open(out).read().strip().splitlines()
        assert rows[0] == "n_experts,mean_query_seconds"
        assert len(rows) == 4
        assert [int(r.split(",")[0]) for r in rows[1:]] == [1, 2, 4]

    def test_bad_sizes_exits_2(self, world):
        _, cfg, _, _ = world
        assert main(["bench", "--config", cfg, "--sizes", "0,2", "--out", "x.csv"]) == 2


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


class TestCalibrationSplitHygiene:
    def test_loader_never_touches_test_range_files(self, world):
        from snnplace.cli import _load_traverses, load_config

        _, cfg_path, ref, _ = world
        cfg = load_config(cfg_path)
        _, manifests, files_read = _load_traverses([ref], "calibration", cfg,
                                                   place_range=(0, 2))
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
            "expert": {"n_inputs": 64},
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
        assert cfg.simulation.lif_exc.tau_ms == 100.0
        assert cfg.simulation.weight_norm_target == 78.0
        assert cfg.expert.places_per_expert == 25
        assert cfg.theta == 100.0
