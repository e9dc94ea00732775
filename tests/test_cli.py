import json
import os

import numpy as np
import pytest

from patchbag import cli
from patchbag.bagio import read_bags, write_bags
from patchbag.model import (
    DEFAULT_SCHEMA,
    ModelDims,
    ModelParams,
    TagSchema,
    save_checkpoint,
)
from patchbag.preprocess import write_pnm
from patchbag.synth import SynthConfig, generate


def read_dir_bytes(path):
    out = {}
    for root, _dirs, files in os.walk(path):
        for name in files:
            full = os.path.join(root, name)
            out[os.path.relpath(full, path)] = open(full, "rb").read()
    return out


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


SMALL_SYNTH = {
    "synth": {
        "schema": [["color", ["red", "blue"]], ["shape", ["dot", "bar", "box"]]],
        "feature_dim": 8,
        "patches_per_bag": 6,
        "n_bags": 40,
        "signal_fraction": 0.34,
        "noise_std": 0.15,
    }
}


class TestSynthCommand:
    def test_same_seed_identical_directories(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_SYNTH)
        for out in ("d1", "d2"):
            code = cli.main(["synth", "--config", cfg, "--seed", "7",
                             "--out", str(tmp_path / out)])
            assert code == 0
        assert read_dir_bytes(tmp_path / "d1") == read_dir_bytes(tmp_path / "d2")

    def test_default_schema_emits_paper_style_tasks(self, tmp_path):
        cfg = write_config(tmp_path, {"synth": {"n_bags": 3, "patches_per_bag": 16,
                                                "signal_fraction": 0.1}})
        code = cli.main(["synth", "--config", cfg, "--out", str(tmp_path / "d")])
        assert code == 0
        _, schema = read_bags(tmp_path / "d")
        assert schema.task_names == ("stain", "species", "organ")
        assert schema.class_counts == (3, 6, 16)

    def test_bad_ratios_exit_2_naming_field(self, tmp_path, capsys):
        payload = json.loads(json.dumps(SMALL_SYNTH))
        payload["synth"]["ratios"] = [0.5, 0.5, 0.5]
        cfg = write_config(tmp_path, payload)
        code = cli.main(["synth", "--config", cfg, "--out", str(tmp_path / "d")])
        assert code == 2
        assert "ratios" in capsys.readouterr().err

    def test_ratios_write_split_subdirectories(self, tmp_path):
        payload = json.loads(json.dumps(SMALL_SYNTH))
        payload["synth"]["n_bags"] = 50
        payload["synth"]["ratios"] = [0.72, 0.08, 0.20]
        cfg = write_config(tmp_path, payload)
        assert cli.main(["synth", "--config", cfg, "--out", str(tmp_path / "d")]) == 0
        sizes = [len(read_bags(tmp_path / "d" / n)[0])
                 for n in ("train", "val", "test")]
        assert sizes == [36, 4, 10]

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"surprise": 1})
        assert cli.main(["synth", "--config", cfg, "--out", str(tmp_path / "d")]) == 2
        assert "surprise" in capsys.readouterr().err

    def test_seed_flag_overrides_config_seed(self, tmp_path):
        payload = json.loads(json.dumps(SMALL_SYNTH))
        payload["seed"] = 1
        cfg = write_config(tmp_path, payload)
        assert cli.main(["synth", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["synth", "--config", cfg, "--seed", "1",
                         "--out", str(tmp_path / "b")]) == 0
        assert cli.main(["synth", "--config", cfg, "--seed", "2",
                         "--out", str(tmp_path / "c")]) == 0
        assert read_dir_bytes(tmp_path / "a") == read_dir_bytes(tmp_path / "b")
        assert read_dir_bytes(tmp_path / "a") != read_dir_bytes(tmp_path / "c")


TRAIN_SECTION = {
    "train": {"epochs": 2, "batch_size": 8, "lr": 0.003, "heads": 1,
              "attn_hidden": 4, "tag_hidden": 4}
}


def make_data_dir(tmp_path, name="data"):
    cfg = write_config(tmp_path, SMALL_SYNTH, name="synth.json")
    out = tmp_path / name
    assert cli.main(["synth", "--config", cfg, "--seed", "5", "--out", str(out)]) == 0
    return out


class TestTrainCommand:
    def test_rerun_same_seed_identical_checkpoint_bytes(self, tmp_path):
        data = make_data_dir(tmp_path)
        cfg = write_config(tmp_path, TRAIN_SECTION)
        for out in ("r1", "r2"):
            code = cli.main(["train", "--config", cfg, "--seed", "3",
                             "--data", str(data), "--out", str(tmp_path / out)])
            assert code == 0
        a = read_dir_bytes(tmp_path / "r1")
        b = read_dir_bytes(tmp_path / "r2")
        assert a == b
        assert set(a) == {"checkpoint.ckpt", "history.csv"}

    def test_missing_data_dir_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TRAIN_SECTION)
        code = cli.main(["train", "--config", cfg, "--data",
                         str(tmp_path / "absent"), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "absent" in capsys.readouterr().err

    def test_heads_and_variant_flags_select_arm(self, tmp_path):
        from patchbag.model import load_checkpoint
        data = make_data_dir(tmp_path)
        cfg = write_config(tmp_path, TRAIN_SECTION)
        for heads, variant in ((0, "gated"), (1, "gated"), (2, "sdpa")):
            out = tmp_path / f"arm_{heads}_{variant}"
            code = cli.main(["train", "--config", cfg, "--data", str(data),
                             "--out", str(out), "--heads", str(heads),
                             "--variant", variant])
            assert code == 0
            params = load_checkpoint(out / "checkpoint.ckpt")
            assert params.dims.n_heads == heads
            assert params.variant == variant

    def test_trains_on_presplit_directories(self, tmp_path):
        payload = json.loads(json.dumps(SMALL_SYNTH))
        payload["synth"]["n_bags"] = 50
        payload["synth"]["ratios"] = [0.72, 0.08, 0.20]
        cfg_synth = write_config(tmp_path, payload, name="s.json")
        data = tmp_path / "d"
        assert cli.main(["synth", "--config", cfg_synth, "--out", str(data)]) == 0
        cfg = write_config(tmp_path, TRAIN_SECTION)
        assert cli.main(["train", "--config", cfg, "--data", str(data),
                         "--out", str(tmp_path / "run")]) == 0


class TestEvalCommand:
    def setup_run(self, tmp_path):
        data = make_data_dir(tmp_path)
        cfg = write_config(tmp_path, TRAIN_SECTION)
        out = tmp_path / "run"
        assert cli.main(["train", "--config", cfg, "--seed", "2", "--data",
                         str(data), "--out", str(out)]) == 0
        return data, out / "checkpoint.ckpt"

    def test_report_has_per_task_f1_and_averages(self, tmp_path):
        data, ckpt = self.setup_run(tmp_path)
        out = tmp_path / "eval"
        code = cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                         "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert [t["task"] for t in report["tasks"]] == ["color", "shape"]
        for t in report["tasks"]:
            assert 0.0 <= t["macro_f1"] <= 1.0
            assert 0.0 <= t["micro_f1"] <= 1.0
            assert len(t["confusion"]) == len(t["per_class_f1"])
        assert 0.0 <= report["avg_macro_f1"] <= 1.0
        assert (out / "confusion_color.svg").exists()
        assert (out / "confusion_shape.svg").exists()

    def test_schema_mismatch_exit_2_prints_both(self, tmp_path, capsys):
        _, ckpt = self.setup_run(tmp_path)
        other_schema = TagSchema(tasks=(("tint", ("a", "b", "c")),))
        other = generate(SynthConfig(schema=other_schema, feature_dim=8,
                                     patches_per_bag=6, n_bags=4,
                                     signal_fraction=0.17, noise_std=0.2, seed=0))
        other_dir = tmp_path / "other"
        write_bags(other, other_dir, other_schema)
        code = cli.main(["eval", "--checkpoint", str(ckpt), "--data",
                         str(other_dir), "--out", str(tmp_path / "e")])
        assert code == 2
        err = capsys.readouterr().err
        assert "color:2" in err and "tint:3" in err

    def test_missing_checkpoint_exit_2(self, tmp_path, capsys):
        data = make_data_dir(tmp_path)
        code = cli.main(["eval", "--checkpoint", str(tmp_path / "no.ckpt"),
                         "--data", str(data), "--out", str(tmp_path / "e")])
        assert code == 2

    @pytest.mark.parametrize("old,new", [
        (b"\nfeature_dim 8\n", b"\nfeature_dim 8x\n"),
        (b"\nmatrix proj 8 8\n", b"\nmatrix proj 8x 8\n"),
        (b"\nvariant gated\n", b"\nvariant gat\xffed\n"),
        (b"\nseed 2\n", b"\nseed -2\n"),
    ], ids=["non-integer-field", "non-integer-matrix-rows", "non-utf8",
            "negative-seed"])
    def test_hostile_checkpoint_header_exit_4(self, tmp_path, capsys, old, new):
        data, ckpt = self.setup_run(tmp_path)
        raw = ckpt.read_bytes()
        assert raw.count(old) == 1
        ckpt.write_bytes(raw.replace(old, new))
        code = cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                         "--out", str(tmp_path / "e")])
        assert code == 4
        assert "error:" in capsys.readouterr().err


class TestExportCommand:
    def test_uniform_attention_exports_natural_order(self, tmp_path):
        schema = TagSchema(tasks=(("color", ("red", "blue")),
                                  ("shape", ("dot", "bar", "box"))))
        dims = ModelDims(feature_dim=8, attn_hidden=4, tag_hidden=4, n_heads=0)
        params = ModelParams(schema, dims, "gated", 0)
        for gate_proj, _gate_score in params.tag_gates:
            gate_proj.data[:] = 0.0  # equal logits, so uniform attention
        ckpt = tmp_path / "uniform.ckpt"
        save_checkpoint(params, ckpt)
        data = make_data_dir(tmp_path)
        out = tmp_path / "att"
        code = cli.main(["export-attention", "--checkpoint", str(ckpt),
                         "--data", str(data), "--out", str(out), "--svg"])
        assert code == 0
        csvs = sorted(p for p in os.listdir(out) if p.endswith(".csv"))
        assert len(csvs) == 40
        first = (out / csvs[0]).read_text().splitlines()
        assert first[0] == "task,rank,patch_index,weight"
        ranked = [int(line.split(",")[2]) for line in first[1:7]]
        assert ranked == [0, 1, 2, 3, 4, 5]
        assert any(p.endswith(".svg") for p in os.listdir(out))


class TestPreprocessCommand:
    def make_slide(self, tmp_path, name="slide.ppm", value=None, seed=0):
        rng = np.random.default_rng(seed)
        if value is None:
            img = rng.integers(235, 256, size=(420, 420, 3), dtype=np.uint8)
            img[60:360, 60:360] = rng.integers(30, 90, size=(300, 300, 3),
                                               dtype=np.uint8)
        else:
            img = np.full((300, 300, 3), value, dtype=np.uint8)
        path = tmp_path / name
        write_pnm(path, img)
        return path

    def preprocess_config(self, tmp_path, image_path):
        return write_config(tmp_path, {
            "preprocess": {
                "schema": [["color", ["red", "blue"]], ["shape", ["dot", "bar"]]],
                "images": [{"path": str(image_path),
                            "labels": {"color": "red", "shape": 1}}],
                "patches_per_bag": 3,
                "patch_size": 256,
                "feature_dim": 6,
                "hidden_dim": 8,
            }
        }, name="prep.json")

    def test_emits_exactly_m_patches(self, tmp_path):
        slide = self.make_slide(tmp_path)
        cfg = self.preprocess_config(tmp_path, slide)
        out = tmp_path / "bags"
        code = cli.main(["preprocess", "--config", cfg, "--seed", "4",
                         "--out", str(out)])
        assert code == 0
        bags, schema = read_bags(out)
        assert len(bags) == 1
        assert bags[0].n_patches == 3
        assert bags[0].features.shape == (3, 6)
        assert bags[0].labels == (0, 1)

    def test_all_white_image_exit_4(self, tmp_path, capsys):
        slide = self.make_slide(tmp_path, name="white.ppm", value=255)
        cfg = self.preprocess_config(tmp_path, slide)
        code = cli.main(["preprocess", "--config", cfg,
                         "--out", str(tmp_path / "bags")])
        assert code == 4
        assert "foreground" in capsys.readouterr().err

    def test_deterministic_per_seed(self, tmp_path):
        slide = self.make_slide(tmp_path)
        cfg = self.preprocess_config(tmp_path, slide)
        for out in ("p1", "p2"):
            assert cli.main(["preprocess", "--config", cfg, "--seed", "9",
                             "--out", str(tmp_path / out)]) == 0
        assert read_dir_bytes(tmp_path / "p1") == read_dir_bytes(tmp_path / "p2")


class TestExitCodes:
    def test_io_failure_exit_3(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory must go")
        cfg = write_config(tmp_path, {"synth": {"n_bags": 2, "patches_per_bag": 8,
                                                "feature_dim": 4,
                                                "signal_fraction": 0.1}})
        code = cli.main(["synth", "--config", cfg,
                         "--out", str(blocker / "sub")])
        assert code == 3

    def test_threads_flag_and_key_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["synth", "--threads", "2", "--out", str(tmp_path / "a")])
        assert exc.value.code == 2
        cfg = write_config(tmp_path, {"threads": 2})
        assert cli.main(["synth", "--config", cfg, "--out", str(tmp_path / "b")]) == 2


class TestLogging:
    def test_bad_log_level_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PATCHBAG_LOG", "chatty")
        code = cli.main(["synth", "--out", str(tmp_path / "d")])
        assert code == 2
        assert "PATCHBAG_LOG" in capsys.readouterr().err

    def test_known_levels_accepted(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, {"synth": {"n_bags": 2, "patches_per_bag": 8,
                                                "feature_dim": 4,
                                                "signal_fraction": 0.1}})
        for i, level in enumerate(("error", "warn", "info", "debug")):
            monkeypatch.setenv("PATCHBAG_LOG", level)
            assert cli.main(["synth", "--config", cfg,
                             "--out", str(tmp_path / f"d{i}")]) == 0
