import json
import os
import shutil
import threading
from pathlib import Path

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
from patchbag.preprocess import FeaturizerParams, image_to_features, read_pnm, write_pnm
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

    def test_correlation_rule_at_probability_one_holds_in_written_labels(self, tmp_path):
        red, box = 0, 2
        for rules in ([], [["color", "red", "shape", "box", 1]]):
            payload = {"synth": {**SMALL_SYNTH["synth"], "n_bags": 200,
                                 "correlations": rules}}
            cfg = write_config(tmp_path, payload)
            out = tmp_path / f"d{len(rules)}"
            assert cli.main(["synth", "--config", cfg, "--out", str(out)]) == 0
            reds = [bag.labels[1] for bag in read_bags(out)[0] if bag.labels[0] == red]
            assert len(reds) > 50
            # without the rule a red bag takes any shape; with it, only box
            assert (set(reds) == {box}) == bool(rules)

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

    def test_train_and_val_of_two_synth_runs_share_ids_and_train(self, tmp_path):
        data = tmp_path / "d"
        data.mkdir()
        make_data_dir(data, "train")
        make_data_dir(data, "val")
        assert read_bags(data / "val")[0][0].bag_id == read_bags(data / "train")[0][0].bag_id
        cfg = write_config(tmp_path, TRAIN_SECTION)
        assert cli.main(["train", "--config", cfg, "--data", str(data),
                         "--out", str(tmp_path / "run")]) == 0

    def test_val_of_another_width_exit_2_before_training(self, tmp_path, capsys):
        data = tmp_path / "d"
        data.mkdir()
        make_data_dir(data, "train")
        cfg6 = write_config(tmp_path, {"synth": {**SMALL_SYNTH["synth"], "feature_dim": 6}},
                            name="synth6.json")
        assert cli.main(["synth", "--config", cfg6, "--out", str(data / "val")]) == 0
        cfg = write_config(tmp_path, TRAIN_SECTION)
        code = cli.main(["train", "--config", cfg, "--data", str(data),
                         "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: train: bag ")
        assert "has feature width 6, the first bag 8" in err
        assert os.listdir(tmp_path / "run") == []


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

    @pytest.mark.parametrize("command", ["eval", "export-attention"])
    def test_feature_dim_unlike_the_checkpoint_exit_2(self, tmp_path, capsys, command):
        _, ckpt = self.setup_run(tmp_path)
        cfg = write_config(tmp_path, {"synth": {**SMALL_SYNTH["synth"], "feature_dim": 6}},
                           name="synth6.json")
        data6 = tmp_path / "data6"
        assert cli.main(["synth", "--config", cfg, "--out", str(data6)]) == 0
        code = cli.main([command, "--checkpoint", str(ckpt), "--data", str(data6),
                         "--out", str(tmp_path / "e")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint does not match data:")
        assert "checkpoint: feature_dim 8 [" in err and "data:       feature_dim 6 [" in err
        assert os.listdir(tmp_path / "e") == []

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
        params.tag_gates[0].data[:] = 0.0  # every gate_proj: equal logits, uniform attention
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


    @staticmethod
    def mixed_slides(tmp_path, n):
        """n slides that alternate P6 and P5 and mix two sizes."""
        paths = []
        for i in range(n):
            rng = np.random.default_rng([12, i])
            side, color = (300 if i % 3 == 1 else 420), i % 2 == 0
            shape = (side, side, 3) if color else (side, side)
            img = rng.integers(235, 256, size=shape, dtype=np.uint8)
            lo, hi = side // 7, side - side // 7
            img[lo:hi, lo:hi] = rng.integers(30, 110, size=(hi - lo, hi - lo) + shape[2:],
                                             dtype=np.uint8)
            paths.append(tmp_path / f"slide{i}.{'ppm' if color else 'pgm'}")
            write_pnm(paths[-1], img)
        return paths

    def images_config(self, tmp_path, paths, labels=None):
        labels = labels or [{"color": "red", "shape": 1}] * len(paths)
        cfg = json.loads(Path(self.preprocess_config(tmp_path, "")).read_text())
        cfg["preprocess"]["images"] = [{"path": str(p), "labels": lab}
                                       for p, lab in zip(paths, labels)]
        return write_config(tmp_path, cfg, name="prep.json")

    def run_images(self, tmp_path, paths, out):
        return cli.main(["preprocess", "--config", self.images_config(tmp_path, paths),
                         "--seed", "6", "--out", str(tmp_path / out)])

    @pytest.mark.parametrize("cpus", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_bags_equal_per_image_features_in_config_order(self, tmp_path, monkeypatch,
                                                           n, cpus):
        # more images than workers: the bytes of each bag must not depend on
        # the worker count, on which worker ran it, or when
        monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
        paths = self.mixed_slides(tmp_path, n)
        out = tmp_path / "bags"
        assert self.run_images(tmp_path, paths, "bags") == 0
        fparams = FeaturizerParams.initialize(hidden_dim=8, out_dim=6, seed=6)
        streams = np.random.SeedSequence(6).spawn(n)
        want = b"".join(
            image_to_features(read_pnm(p), 3, 256, fparams, seed=s)[0].astype("<f8").tobytes()
            for p, s in zip(paths, streams))
        assert (out / "features.bin").read_bytes() == want
        assert [b.bag_id for b in read_bags(out)[0]] == [p.stem for p in paths]

    @staticmethod
    def affinity_probe(monkeypatch, workers, cpus):
        """`_cpu_count` gives `workers`, and `os.sched_getaffinity` gives
        `cpus` once all `workers` threads have asked, so the pool starts every
        worker before any image ends. Returns the asking threads' ids."""
        asked, barrier = [], threading.Barrier(workers)

        def getaffinity(pid):
            asked.append(threading.get_ident())
            barrier.wait(timeout=30)
            return set(cpus)

        monkeypatch.setattr(cli, "_cpu_count", lambda: workers)
        monkeypatch.setattr(os, "sched_getaffinity", getaffinity)
        return asked

    @pytest.mark.parametrize("workers,cpus", [(2, (0, 1)), (3, (3, 5)), (2, (7,))])
    def test_each_worker_starts_on_the_next_cpu_then_allows_all(self, tmp_path,
                                                                monkeypatch, workers, cpus):
        # worker i asks for cpus[i % k] alone, then for the whole set again
        calls = {}
        self.affinity_probe(monkeypatch, workers, cpus)
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, mask: calls.setdefault(
            threading.get_ident(), []).append((pid, tuple(sorted(mask)))))
        assert self.run_images(tmp_path, self.mixed_slides(tmp_path, workers), "bags") == 0
        assert threading.get_ident() not in calls
        assert sorted(calls.values()) == sorted(
            [(0, (cpus[i % len(cpus)],)), (0, cpus)] for i in range(workers))

    @pytest.mark.parametrize("broken", ["raises", "missing"])
    def test_workers_that_cannot_be_placed_give_the_inline_bytes(self, tmp_path,
                                                                 monkeypatch, broken):
        paths = self.mixed_slides(tmp_path, 3)
        monkeypatch.setattr(cli, "_cpu_count", lambda: 1)
        assert self.run_images(tmp_path, paths, "inline") == 0
        asked = self.affinity_probe(monkeypatch, 3, (0, 1))
        if broken == "raises":
            def setaffinity(pid, mask):
                raise OSError(22, "Invalid argument")
            monkeypatch.setattr(os, "sched_setaffinity", setaffinity)
        else:
            monkeypatch.delattr(os, "sched_setaffinity")
        assert self.run_images(tmp_path, paths, "pooled") == 0
        assert len(set(asked) - {threading.get_ident()}) == 3
        assert ((tmp_path / "pooled" / "features.bin").read_bytes()
                == (tmp_path / "inline" / "features.bin").read_bytes())

    @pytest.mark.parametrize("count,want", [(5, 5), (None, 1)])
    def test_cpu_count_without_affinity_calls(self, monkeypatch, count, want):
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert cli._cpu_count() == want

    @pytest.mark.parametrize("order,text", [
        (("white.ppm", "bad.ppm"), "only 0 valid foreground"),
        (("bad.ppm", "white.ppm"), "bad.ppm: unsupported magic"),
    ], ids=["no-foreground-first", "bad-magic-first"])
    def test_first_failure_in_config_order_is_reported(self, tmp_path, capsys,
                                                       monkeypatch, order, text):
        # the two failing images run side by side; the bad header fails at
        # once, the large white slide only after its gray and histogram
        monkeypatch.setattr(cli, "_cpu_count", lambda: 2)
        write_pnm(tmp_path / "white.ppm", np.full((1500, 1500, 3), 255, dtype=np.uint8))
        (tmp_path / "bad.ppm").write_bytes(b"P3\n4 4\n255\n")
        paths = [tmp_path / name for name in order] + [self.make_slide(tmp_path)]
        assert cli.main(["preprocess", "--config", self.images_config(tmp_path, paths),
                         "--out", str(tmp_path / "bags")]) == 4
        err = capsys.readouterr().err
        assert text in err and err.count("error:") == 1

    def test_bad_label_is_reported_before_any_pixels_are_read(self, tmp_path, capsys):
        # every entry is checked before the first image is read, so a bad
        # label on the last entry wins over a malformed first image
        paths = [tmp_path / "bad.ppm", self.make_slide(tmp_path)]
        paths[0].write_bytes(b"P3\n4 4\n255\n")
        labels = [{"color": "red", "shape": 1}, {"color": "green", "shape": 1}]
        code = cli.main(["preprocess", "--config",
                         self.images_config(tmp_path, paths, labels),
                         "--out", str(tmp_path / "bags")])
        assert code == 2
        err = capsys.readouterr().err
        assert "'green'" in err and "bad.ppm" not in err

    @pytest.mark.parametrize("later,text", [
        (("a/slide.ppm", "b/slide.ppm"), "duplicate bag id 'slide'"),
        (("bad name.ppm",), "bag id 'bad name' must be"),
    ], ids=["duplicate", "malformed"])
    def test_bad_bag_id_is_reported_before_any_pixels_are_read(self, tmp_path, capsys,
                                                               later, text):
        # the bag id of each entry is its file's stem: a duplicate or malformed
        # one on a later entry wins over a malformed first image
        (tmp_path / "bad.ppm").write_bytes(b"P3\n4 4\n255\n")
        for name in later:
            (tmp_path / name).parent.mkdir(exist_ok=True)
            self.make_slide(tmp_path, name=name)
        paths = [tmp_path / "bad.ppm"] + [tmp_path / name for name in later]
        code = cli.main(["preprocess", "--config", self.images_config(tmp_path, paths),
                         "--out", str(tmp_path / "bags")])
        assert code == 2
        err = capsys.readouterr().err
        assert text in err and "unsupported magic" not in err


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


PREPROCESS_SECTION = {
    "schema": [["color", ["red", "blue"]], ["shape", ["dot", "bar"]]],
    "patches_per_bag": 3, "patch_size": 256, "feature_dim": 6, "hidden_dim": 8,
}


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A bag directory, a checkpoint that fits it, and slides to preprocess."""
    root = tmp_path_factory.mktemp("world")
    data = make_data_dir(root)
    dims = ModelDims(feature_dim=8, attn_hidden=4, tag_hidden=4, n_heads=1)
    params = ModelParams(read_bags(data)[1], dims, "gated", 0)
    save_checkpoint(params, root / "model.ckpt")
    for name in ("slide.ppm", "my slide.ppm", "a/dup.ppm", "b/dup.ppm", "a:b.ppm"):
        (root / name).parent.mkdir(exist_ok=True)
        TestPreprocessCommand().make_slide(root, name=name)
    return root


# the file in `world` that each `edit` target names
EDIT_TARGETS = {"manifest": "data/manifest", "blob": "data/features.bin",
                "checkpoint": "model.ckpt", "slide": "slide.ppm"}


def bad(name, command, text, config=None, flags=(), slides=("slide.ppm",),
        edit=None, code=2):
    """One malformed input: `config` is merged into the command's base config,
    `edit` = (target, old, new) replaces the first `old` with `new` in a copy
    of the manifest, checkpoint or slide, and the run must exit `code` with
    `text` in its error line."""
    return pytest.param(command, config or {}, list(flags), slides, edit, code,
                        text, id=name)


BAD_INPUTS = [
    bad("lr-string", "train", "train.lr", {"train": {"lr": "abc"}}),
    bad("lr-nan", "train", "train.lr", {"train": {"lr": float("nan")}}),
    bad("epochs-list", "train", "train.epochs", {"train": {"epochs": [1]}}),
    bad("epochs-float", "train", "train.epochs", {"train": {"epochs": 1.7}}),
    bad("heads-string", "train", "train.heads", {"train": {"heads": "x"}}),
    bad("lambdas-number", "train", "train.lambdas", {"train": {"lambdas": 5}}),
    bad("lambdas-string-item", "train", "train.lambdas",
        {"train": {"lambdas": ["a", 1, 1]}}),
    bad("ratios-string-item", "train", "train.ratios",
        {"train": {"ratios": ["a", 0.5, 0.5]}}),
    bad("seed-string", "train", "seed", {"seed": "x"}),
    bad("out-number", "synth", "out", {"out": 5}),
    bad("n-bags-string", "synth", "synth.n_bags", {"synth": {"n_bags": "x"}}),
    bad("correlations-number", "synth", "synth.correlations",
        {"synth": {"correlations": 5}}),
    bad("correlation-rule-short", "synth", "synth.correlations[0]",
        {"synth": {"correlations": [["color", "red", "shape", "box"]]}}),
    bad("class-weights-list", "synth", "synth.class_weights",
        {"synth": {"class_weights": [1]}}),
    bad("patch-size-string", "preprocess", "preprocess.patch_size",
        {"preprocess": {"patch_size": "x"}}),
    bad("patch-size-small", "preprocess", "preprocess.patch_size",
        {"preprocess": {"patch_size": 100}}),
    bad("hidden-dim-zero", "preprocess", "preprocess.hidden_dim",
        {"preprocess": {"hidden_dim": 0}}),
    bad("svg-string", "export-attention", "svg", {"svg": "no"}),
    bad("synth-seed-flag-negative", "synth", "seed", flags=["--seed", "-1"]),
    bad("train-seed-negative", "train", "seed", {"seed": -1}),
    bad("preprocess-seed-flag-negative", "preprocess", "seed",
        flags=["--seed", "-1"]),
    bad("manifest-tasks-string", "train", "tasks x", code=4,
        edit=("manifest", b"tasks 2\n", b"tasks x\n")),
    bad("manifest-label-string", "train", "x2", code=4,
        edit=("manifest", b" color=0 ", b" color=x2 ")),
    bad("manifest-repeated-label", "train", "repeated", code=4,
        edit=("manifest", b" color=0 ", b" color=0 color=1 ")),
    bad("manifest-non-utf8", "train", "UTF-8", code=4,
        edit=("manifest", b"task color ", b"task co\xfflor ")),
    bad("class-name-space", "synth", "'a b'",
        {"synth": {"schema": [["tint", ["a b", "c"]]]}}),
    bad("bag-id-space", "preprocess", "'my slide'", slides=["my slide.ppm"]),
    bad("bag-id-repeated", "preprocess", "'dup'",
        slides=["a/dup.ppm", "b/dup.ppm"]),
    # export-attention names one file per id: `a:b` must not pass as `a_b`
    bad("bag-id-colon", "preprocess", "'a:b'", slides=["a:b.ppm"]),
    bad("manifest-bag-id-colon", "export-attention", "'a:b'", code=4,
        edit=("manifest", b"bag bag00000 ", b"bag a:b ")),
    bad("manifest-zero-patches", "train", "patches=0", code=4,
        edit=("manifest", b" patches=6 offset=0 ", b" patches=0 offset=0 ")),
    bad("manifest-reordered-fields", "train", "'offset=0'", code=4,
        edit=("manifest", b" patches=6 offset=0 ", b" offset=0 patches=6 ")),
    bad("manifest-second-bag-offset-zero", "train", "offset=0", code=4,
        edit=("manifest", b" offset=384 ", b" offset=0 ")),
    bad("manifest-patches-leading-zero", "train", "'patches=06' should read 'patches=6'",
        code=4, edit=("manifest", b" patches=6 offset=0 ", b" patches=06 offset=0 ")),
    bad("manifest-label-leading-zero", "train", "'color=00' should read 'color=0'",
        code=4, edit=("manifest", b" color=0 ", b" color=00 ")),
    bad("manifest-unknown-task", "train", "flavor", code=4,
        edit=("manifest", b" color=", b" flavor=")),
    bad("manifest-label-out-of-range", "train", "label 9 is not a class of task 'color'",
        code=4, edit=("manifest", b" color=0 ", b" color=9 ")),
    bad("manifest-bad-magic", "train", "unsupported magic line", code=4,
        edit=("manifest", b"patchbag-bags 1\n", b"patchbag-bags 2\n")),
    bad("manifest-no-end-line", "train", "missing 'end' line", code=4,
        edit=("manifest", b"\nend\n", b"\n")),
    bad("manifest-bag-count", "train", "declares 41 bags but lists 40", code=4,
        edit=("manifest", b"\nbags 40\n", b"\nbags 41\n")),
    # b"" matches at byte 0: the blob gains 8 bytes no bag accounts for
    bad("blob-longer-than-manifest", "train", "manifest accounts for", code=4,
        edit=("blob", b"", bytes(8))),
    bad("checkpoint-repeated-seed", "export-attention", "'seed 0'", code=4,
        edit=("checkpoint", b"seed 0\n", b"seed 0\nseed 0\n")),
    bad("checkpoint-unknown-line", "export-attention", "'bogus 1'", code=4,
        edit=("checkpoint", b"heads 1\n", b"heads 1\nbogus 1\n")),
    bad("checkpoint-variant-two-words", "export-attention", "'gated sdpa'", code=4,
        edit=("checkpoint", b"variant gated\n", b"variant gated sdpa\n")),
    bad("checkpoint-variant-unknown", "export-attention", "'fancy'", code=4,
        edit=("checkpoint", b"variant gated\n", b"variant fancy\n")),
    bad("checkpoint-feature-dim-zero", "export-attention", "feature_dim", code=4,
        edit=("checkpoint", b"feature_dim 8\n", b"feature_dim 0\n")),
    bad("checkpoint-matrix-leading-zero", "export-attention", "'matrix proj 08 8'",
        code=4, edit=("checkpoint", b"matrix proj 8 8\n", b"matrix proj 08 8\n")),
    # the declared matrices are far past any memory: refused before allocation
    bad("checkpoint-feature-dim-huge", "export-attention", "1000000000000 4", code=4,
        edit=("checkpoint", b"feature_dim 8\n", b"feature_dim 1000000000000\n")),
    bad("checkpoint-heads-beyond-header", "export-attention", "100 heads", code=4,
        edit=("checkpoint", b"heads 1\n", b"heads 100\n")),
    bad("manifest-feature-dim-zero", "train", "feature_dim 0", code=4,
        edit=("manifest", b"feature_dim 8\n", b"feature_dim 0\n")),
    bad("manifest-feature-dim-leading-zero", "train",
        "header line 'feature_dim 08' should read 'feature_dim 8'", code=4,
        edit=("manifest", b"feature_dim 8\n", b"feature_dim 08\n")),
    bad("manifest-tasks-leading-zero", "train",
        "header line 'tasks 02' should read 'tasks 2'", code=4,
        edit=("manifest", b"tasks 2\n", b"tasks 02\n")),
    bad("manifest-bags-leading-zero", "train",
        "header line 'bags 040' should read 'bags 40'", code=4,
        edit=("manifest", b"\nbags 40\n", b"\nbags 040\n")),
    bad("slide-header-width", "preprocess", "width", code=4,
        edit=("slide", b"\n420 420\n", b"\n4x 4\n")),
    # a header one row short leaves that row's 420 x 3 bytes after the pixels
    bad("slide-trailing-bytes", "preprocess", "1260 bytes after the pixel data", code=4,
        edit=("slide", b"\n420 420\n", b"\n420 419\n")),
]


class TestMalformedInput:
    @pytest.mark.parametrize("command,config,flags,slides,edit,code,text",
                             BAD_INPUTS)
    def test_exit_code_and_error_line(self, world, tmp_path, capsys, command,
                                      config, flags, slides, edit, code, text):
        if edit is not None:
            target, old, new = edit
            world = Path(shutil.copytree(world, tmp_path / "edited"))
            path = world / EDIT_TARGETS[target]
            raw = path.read_bytes()
            assert old in raw
            path.write_bytes(raw.replace(old, new, 1))
        images = [{"path": str(world / s), "labels": {"color": "red", "shape": 1}}
                  for s in slides]
        payload = {
            "synth": {"synth": dict(SMALL_SYNTH["synth"])},
            "train": {"train": dict(TRAIN_SECTION["train"])},
            "preprocess": {"preprocess": {**PREPROCESS_SECTION, "images": images}},
            "export-attention": {},
        }[command]
        for key, value in config.items():
            if isinstance(value, dict):
                payload.setdefault(key, {}).update(value)
            else:
                payload[key] = value
        argv = [command, "--config", write_config(tmp_path, payload), *flags]
        if "out" not in config:
            argv += ["--out", str(tmp_path / "out")]
        if command in ("train", "export-attention"):
            argv += ["--data", str(world / "data")]
        if command == "export-attention":
            argv += ["--checkpoint", str(world / "model.ckpt")]
        assert cli.main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error:") and text in err

    def run_on_data(self, world, tmp_path, command, data):
        argv = [command, "--data", str(data), "--out", str(tmp_path / "out")]
        if command == "train":
            argv += ["--config", write_config(tmp_path, TRAIN_SECTION)]
        else:
            argv += ["--checkpoint", str(world / "model.ckpt")]
        return cli.main(argv)

    @pytest.mark.parametrize("command", ["train", "eval", "export-attention"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_feature_exit_4_naming_blob_and_bag(self, world, tmp_path, capsys,
                                                           command, value):
        data = Path(shutil.copytree(world / "data", tmp_path / "data"))
        bags = read_bags(data)[0]
        floats = np.fromfile(data / "features.bin", dtype="<f8")
        floats[sum(b.features.size for b in bags[:3]) + 5] = value
        floats.tofile(data / "features.bin")
        assert self.run_on_data(world, tmp_path, command, data) == 4
        err = capsys.readouterr().err
        assert f"features.bin: bag {bags[3].bag_id!r}: features contain NaN/Inf" in err
        assert os.listdir(tmp_path / "out") == []

    @pytest.mark.parametrize("command", ["train", "eval", "export-attention"])
    def test_manifest_of_no_bags_exit_4(self, world, tmp_path, capsys, command):
        data = tmp_path / "data"
        data.mkdir()
        text = (world / "data" / "manifest").read_text()
        (data / "manifest").write_text(text[:text.index("\nbags ")] + "\nbags 0\nend\n")
        (data / "features.bin").write_bytes(b"")
        assert self.run_on_data(world, tmp_path, command, data) == 4
        assert "manifest: bags 0: must be >= 1" in capsys.readouterr().err
        assert os.listdir(tmp_path / "out") == []

    def test_integer_for_a_float_key_trains(self, world, tmp_path):
        payload = json.loads(json.dumps(TRAIN_SECTION))
        payload["train"]["lr"] = 1
        cfg = write_config(tmp_path, payload)
        assert cli.main(["train", "--config", cfg, "--data", str(world / "data"),
                         "--out", str(tmp_path / "run")]) == 0


def test_readme_config_table_lists_every_key():
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md"),
                  encoding="utf-8").read()
    documented = {line.split("`")[1] for line in readme.splitlines()
                  if line.startswith("| `")}
    accepted = set()
    for key, default in cli.CONFIG_DEFAULTS.items():
        if key in ("synth", "train", "preprocess"):
            accepted |= {f"{key}.{name}" for name in default}
        else:
            accepted.add(key)
    assert documented == accepted
