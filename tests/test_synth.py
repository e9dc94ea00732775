import os
import sys

import numpy as np
import pytest

from patchbag import bagio
from patchbag.bagio import claim_bag_id, read_bags, write_bags
from patchbag.errors import (
    ConfigError,
    IntegrityError,
    ParseError,
)
from patchbag.model import DEFAULT_SCHEMA, TagSchema
from patchbag.synth import (
    CorrelationRule,
    PatchBag,
    SynthConfig,
    generate,
    generate_with_trace,
    split,
)

from oracles import nearest_prototype_labels

TWO_TASKS = TagSchema(tasks=(("color", ("red", "blue")), ("shape", ("dot", "bar", "box"))))


def small_config(**kw):
    base = dict(schema=TWO_TASKS, feature_dim=12, patches_per_bag=8,
                n_bags=30, signal_fraction=0.25, noise_std=0.1, seed=5)
    base.update(kw)
    return SynthConfig(**base)


class TestGenerate:
    def test_same_seed_identical(self):
        a = generate(small_config())
        b = generate(small_config())
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.bag_id == y.bag_id
            assert x.labels == y.labels
            assert x.features.tobytes() == y.features.tobytes()

    def test_different_seed_differs(self):
        a = generate(small_config())
        b = generate(small_config(seed=6))
        assert any(x.features.tobytes() != y.features.tobytes()
                   for x, y in zip(a, b))

    def test_default_schema_matches_paper_style_counts(self):
        config = SynthConfig(n_bags=1, patches_per_bag=16, signal_fraction=0.1)
        bags = generate(config)
        assert config.schema.class_counts == (3, 6, 16)
        assert len(bags[0].labels) == 3

    def test_nearest_prototype_oracle_recovers_labels(self):
        config = small_config(n_bags=200, noise_std=0.1)
        bags, trace = generate_with_trace(config)
        hits = total = 0
        for bag, entry in zip(bags, trace.signal_patches):
            guess = nearest_prototype_labels(bag, entry, trace.prototypes, TWO_TASKS)
            for k in range(TWO_TASKS.n_tasks):
                hits += guess[k] == bag.labels[k]
                total += 1
        assert hits / total > 0.99

    def test_signal_slots_are_distinct_round_robin(self):
        config = small_config()
        _, trace = generate_with_trace(config)
        entry = trace.signal_patches[0]
        flat = np.concatenate([entry[name] for name in TWO_TASKS.task_names])
        assert len(set(flat.tolist())) == len(flat)
        np.testing.assert_array_equal(entry["color"], [0, 2])
        np.testing.assert_array_equal(entry["shape"], [1, 3])

    def test_class_coverage_on_default_config(self):
        config = SynthConfig(n_bags=20 * 16, patches_per_bag=16,
                             signal_fraction=0.1, seed=2)
        bags = generate(config)
        labels = np.array([b.labels for b in bags])
        for k, count in enumerate(config.schema.class_counts):
            assert set(labels[:, k].tolist()) == set(range(count))

    def test_correlation_rule_probability_one_always_applies(self):
        rule = CorrelationRule("color", "red", "shape", "box", 1.0)
        bags = generate(small_config(n_bags=300, correlations=(rule,)))
        red = TWO_TASKS.classes("color").index("red")
        box = TWO_TASKS.classes("shape").index("box")
        reds = [b for b in bags if b.labels[0] == red]
        assert reds  # sampling should produce some
        assert all(b.labels[1] == box for b in reds)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            generate(small_config(seed=-1))
        with pytest.raises(ConfigError):
            generate(small_config(signal_fraction=0.0))
        with pytest.raises(ConfigError):
            generate(small_config(noise_std=0.0))
        with pytest.raises(ConfigError):
            generate(small_config(signal_fraction=1.0))  # 2 tasks x 8 > 8
        with pytest.raises(ConfigError):
            generate(small_config(
                correlations=(CorrelationRule("color", "green", "shape", "dot", 0.5),)
            ))
        with pytest.raises(ConfigError):
            generate(small_config(
                correlations=(CorrelationRule("color", "red", "shape", "dot", 1.5),)
            ))

    def test_class_weights_shift_marginals(self):
        bags = generate(small_config(
            n_bags=400, class_weights={"color": [0.9, 0.1]}))
        reds = sum(1 for b in bags if b.labels[0] == 0)
        assert reds > 300


class TestSplit:
    def test_default_ratios_reproduce_paper_scheme(self):
        bags = generate(small_config(n_bags=100))
        train, val, test = split(bags, seed=3)
        assert (len(train), len(val), len(test)) == (72, 8, 20)

    def test_all_in_train(self):
        bags = generate(small_config(n_bags=25))
        train, val, test = split(bags, ratios=(1.0, 0.0, 0.0), seed=0)
        assert (len(train), len(val), len(test)) == (25, 0, 0)

    def test_partition_exact(self):
        bags = generate(small_config(n_bags=53))
        train, val, test = split(bags, ratios=(0.5, 0.25, 0.25), seed=1)
        ids = [b.bag_id for b in train + val + test]
        assert sorted(ids) == sorted(b.bag_id for b in bags)
        assert len(set(ids)) == len(ids)

    def test_deterministic(self):
        bags = generate(small_config(n_bags=40))
        a = split(bags, seed=9)
        b = split(bags, seed=9)
        for part_a, part_b in zip(a, b):
            assert [x.bag_id for x in part_a] == [x.bag_id for x in part_b]

    def test_bad_ratios_rejected(self):
        bags = generate(small_config(n_bags=10))
        with pytest.raises(ConfigError):
            split(bags, ratios=(0.5, 0.5, 0.5))
        with pytest.raises(ConfigError):
            split(bags, ratios=(0.9, 0.2, -0.1))


class TestBagDirectory:
    def test_round_trip_bit_exact(self, tmp_path):
        bags = generate(small_config(n_bags=12))
        write_bags(bags, tmp_path / "d", TWO_TASKS)
        loaded, schema = read_bags(tmp_path / "d")
        assert schema == TWO_TASKS
        assert len(loaded) == len(bags)
        for a, b in zip(bags, loaded):
            assert a.bag_id == b.bag_id
            assert a.labels == b.labels
            assert a.features.tobytes() == b.features.tobytes()

    def test_write_twice_identical_bytes(self, tmp_path):
        bags = generate(small_config(n_bags=5))
        write_bags(bags, tmp_path / "a", TWO_TASKS)
        write_bags(bags, tmp_path / "b", TWO_TASKS)
        for name in ("manifest", "features.bin"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_truncated_blob_names_bag(self, tmp_path):
        bags = generate(small_config(n_bags=4))
        write_bags(bags, tmp_path / "d", TWO_TASKS)
        blob = tmp_path / "d" / "features.bin"
        blob.write_bytes(blob.read_bytes()[:-24])
        with pytest.raises(IntegrityError) as err:
            read_bags(tmp_path / "d")
        assert bags[-1].bag_id in str(err.value)

    def test_read_features_are_writeable_views_of_one_array(self, tmp_path):
        bags = generate(small_config(n_bags=3))
        write_bags(bags, tmp_path / "d", TWO_TASKS)
        loaded, _ = read_bags(tmp_path / "d")
        base = loaded[0].features.base
        assert base is not None and base.flags.owndata
        assert all(b.features.base is base and b.features.flags.writeable
                   for b in loaded)
        loaded[1].features[0, 0] = 7.0
        assert loaded[0].features.tobytes() == bags[0].features.tobytes()
        assert loaded[2].features.tobytes() == bags[2].features.tobytes()

    def test_blob_a_partial_float_longer_than_manifest_rejected(self, tmp_path):
        bags = generate(small_config(n_bags=3))
        write_bags(bags, tmp_path / "d", TWO_TASKS)
        blob = tmp_path / "d" / "features.bin"
        size = blob.stat().st_size
        blob.write_bytes(blob.read_bytes() + bytes(3))
        with pytest.raises(IntegrityError) as err:
            read_bags(tmp_path / "d")
        assert f"blob is {size + 3} bytes, manifest accounts for {size}" in str(err.value)

    def test_unknown_task_in_manifest_rejected(self, tmp_path):
        bags = generate(small_config(n_bags=2))
        write_bags(bags, tmp_path / "d", TWO_TASKS)
        manifest = tmp_path / "d" / "manifest"
        text = manifest.read_text().replace("color=", "flavor=")
        manifest.write_text(text)
        with pytest.raises(ParseError) as err:
            read_bags(tmp_path / "d")
        assert "flavor" in str(err.value)

    def test_malformed_manifest_names_file_and_field(self, tmp_path):
        bags = generate(small_config(n_bags=2))
        write_bags(bags, tmp_path / "d", TWO_TASKS)
        manifest = tmp_path / "d" / "manifest"
        text = manifest.read_text().replace("patches=8", "patches=soup", 1)
        manifest.write_text(text)
        with pytest.raises(ParseError) as err:
            read_bags(tmp_path / "d")
        assert "manifest" in str(err.value) and "patches" in str(err.value)

    def test_label_out_of_range_rejected(self, tmp_path):
        bags = generate(small_config(n_bags=2))
        write_bags(bags, tmp_path / "d", TWO_TASKS)
        manifest = tmp_path / "d" / "manifest"
        text = manifest.read_text().replace("shape=0", "shape=9").replace(
            "shape=1", "shape=9").replace("shape=2", "shape=9")
        manifest.write_text(text)
        with pytest.raises(ParseError):
            read_bags(tmp_path / "d")

    @pytest.mark.parametrize("label", [3, -1])
    def test_label_out_of_range_rejected_on_write(self, tmp_path, label):
        bags = generate(small_config(n_bags=2))
        bags[1].labels = (0, label)
        with pytest.raises(ConfigError) as err:
            write_bags(bags, tmp_path / "d", TWO_TASKS)
        assert repr(bags[1].bag_id) in str(err.value) and "'shape'" in str(err.value)
        assert not (tmp_path / "d" / "manifest").exists()

    def test_empty_dataset_rejected_on_write(self, tmp_path):
        with pytest.raises(ConfigError, match="write_bags: empty dataset"):
            write_bags([], tmp_path / "d", TWO_TASKS)
        assert not (tmp_path / "d").exists()

    def test_mixed_feature_width_rejected_on_write(self, tmp_path):
        bags = generate(small_config(n_bags=2))
        bags[1] = PatchBag(bags[1].bag_id, np.ones((8, 5)), bags[1].labels)
        with pytest.raises(ConfigError) as err:
            write_bags(bags, tmp_path / "d", TWO_TASKS)
        assert (f"write_bags: bag {bags[1].bag_id!r} has feature width 5, the first "
                "bag 12") in str(err.value)
        assert not (tmp_path / "d").exists()

    def test_label_count_unlike_the_schema_rejected_on_write(self, tmp_path):
        bags = generate(small_config(n_bags=2))
        bags[1].labels = (0, 1, 0)
        with pytest.raises(ConfigError) as err:
            write_bags(bags, tmp_path / "d", TWO_TASKS)
        assert (f"write_bags: bag {bags[1].bag_id!r} has 3 labels, the schema has 2 "
                "tasks") in str(err.value)
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("ids", [("", "b"), ("a b", "c"), ("a", "a"), (None, "b")])
    def test_bad_or_repeated_ids_rejected_on_write(self, tmp_path, ids):
        bags = generate(small_config(n_bags=2))
        for bag, bag_id in zip(bags, ids):
            bag.bag_id = bag_id
        with pytest.raises(ConfigError) as err:
            write_bags(bags, tmp_path / "d", TWO_TASKS)
        assert repr(ids[0]) in str(err.value)
        assert not (tmp_path / "d").exists()

    # the ids given to the manifest's first two bags, and whether the id rule
    # accepts them: letters and digits of any script, '-', '_' and '.'
    ID_TABLE = [("slide_01", "b1", True), ("A.b-c_9", "b1", True), ("é", "b1", True),
                ("٣", "b1", True), ("Ⅻ", "b1", True), ("_", "b1", True),
                ("-", "b1", True), (".", "b1", True), ("a b", "b1", False),
                ("a/b", "b1", False), ("", "b1", False), ("dup", "dup", False)]

    @pytest.mark.parametrize("first,second,valid", ID_TABLE,
                             ids=[repr(row[:2]) for row in ID_TABLE])
    def test_read_accepts_exactly_the_ids_claim_bag_id_accepts(self, tmp_path, first,
                                                               second, valid):
        directory = str(tmp_path / "d")
        bags = generate(small_config(n_bags=3))
        write_bags(bags, directory, TWO_TASKS)
        manifest = tmp_path / "d" / "manifest"
        text = manifest.read_text(encoding="utf-8")
        for bag, bag_id in zip(bags, (first, second)):
            text = text.replace(f"\nbag {bag.bag_id} ", f"\nbag {bag_id} ", 1)
        manifest.write_text(text, encoding="utf-8")
        try:
            seen = set()
            for bag_id in (first, second):
                claim_bag_id(bag_id, seen, ParseError, os.path.join(directory, "manifest"))
        except ParseError as e:
            assert not valid
            with pytest.raises(ParseError) as err:
                read_bags(directory)
            assert str(err.value) == str(e)
        else:
            assert valid
            assert [b.bag_id for b in read_bags(directory)[0][:2]] == [first, second]

    def test_id_pattern_accepts_the_characters_of_the_rule_at_every_code_point(self):
        wrong = [c for c in map(chr, range(sys.maxunicode + 1))
                 if (bagio._ID_PATTERN.fullmatch(c) is None) == (c.isalnum() or c in "-_.")]
        assert wrong == []

    def test_empty_bag_rejected_at_construction(self):
        with pytest.raises(ConfigError):
            PatchBag(bag_id="x", features=np.zeros((0, 4)), labels=(0, 0))

    def test_zero_width_features_rejected_at_construction(self):
        with pytest.raises(ConfigError, match="D >= 1"):
            PatchBag(bag_id="x", features=np.zeros((3, 0)), labels=(0, 0))

    def test_manifest_of_zero_width_features_rejected(self, tmp_path):
        # every bag 0 bytes wide: the offsets are all 0 and the blob empty
        bags = generate(small_config(n_bags=2))
        write_bags(bags, tmp_path / "d", TWO_TASKS)
        manifest = tmp_path / "d" / "manifest"
        text = manifest.read_text()
        for old, new in ((f"feature_dim {bags[0].features.shape[1]}\n", "feature_dim 0\n"),
                         (f"offset={bags[0].features.nbytes} ", "offset=0 ")):
            assert old in text
            text = text.replace(old, new)
        manifest.write_text(text)
        (tmp_path / "d" / "features.bin").write_bytes(b"")
        with pytest.raises(ParseError, match="feature_dim 0"):
            read_bags(tmp_path / "d")
