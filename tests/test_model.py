import math
import os

import numpy as np
import pytest

from patchbag import autodiff as ad
from patchbag.autodiff import Tensor
from patchbag.errors import (
    ConfigError,
    DimensionError,
    EmptyBagError,
    IntegrityError,
    ParseError,
)
from patchbag.model import (
    DEFAULT_SCHEMA,
    ModelDims,
    ModelParams,
    TagSchema,
    forward,
    head_attention,
    head_feature,
    load_checkpoint,
    patch_transform,
    predict_probs,
    predict_tag,
    save_checkpoint,
    sdpa_transform,
    tag_attention,
)
from patchbag.synth import PatchBag
from patchbag.training import multi_task_loss

from oracles import assert_grads_match, softmax_by_scalar

SMALL_SCHEMA = TagSchema(tasks=(("first", ("a", "b")), ("second", ("x", "y", "z"))))


def small_params(variant="gated", heads=2, feature_dim=6, seed=1):
    dims = ModelDims(feature_dim=feature_dim, attn_hidden=4, tag_hidden=4,
                     n_heads=heads)
    return ModelParams(SMALL_SCHEMA, dims, variant, seed)


def random_bag(rng, n_patches, feature_dim, schema=SMALL_SCHEMA, bag_id="bag"):
    labels = tuple(int(rng.integers(c)) for c in schema.class_counts)
    return PatchBag(bag_id=bag_id, features=rng.normal(size=(n_patches, feature_dim)),
                    labels=labels)


class TestSchema:
    def test_default_mirrors_three_six_sixteen(self):
        assert DEFAULT_SCHEMA.task_names == ("stain", "species", "organ")
        assert DEFAULT_SCHEMA.class_counts == (3, 6, 16)

    def test_rejects_duplicate_classes(self):
        with pytest.raises(ConfigError):
            TagSchema(tasks=(("t", ("a", "a")),))

    def test_rejects_single_class_task(self):
        with pytest.raises(ConfigError):
            TagSchema(tasks=(("t", ("only",)),))


class TestHeadAttention:
    def test_single_patch_gets_full_weight(self):
        params = small_params(feature_dim=3)
        V = Tensor(np.random.default_rng(0).normal(size=(1, 3)))
        a = head_attention(V, params.heads[0]["gate_proj"],
                           params.heads[0]["gate_score"])
        np.testing.assert_array_equal(a.data, [[1.0]])

    def test_zero_gate_gives_uniform(self):
        V = Tensor(np.random.default_rng(1).normal(size=(4, 6)))
        zero_proj = Tensor(np.zeros((6, 4)))
        score = Tensor(np.random.default_rng(2).normal(size=(4, 1)))
        a = head_attention(V, zero_proj, score)
        np.testing.assert_allclose(a.data, 0.25, atol=1e-15)

    def test_scalar_chain_matches_oracle(self):
        # D % 1, one hidden unit: logits are w * tanh(u * v)
        V = Tensor([[0.0], [10.0]])
        a = head_attention(V, Tensor([[1.0]]), Tensor([[1.0]]))
        logits = [1.0 * math.tanh(1.0 * 0.0), 1.0 * math.tanh(1.0 * 10.0)]
        np.testing.assert_allclose(a.data[:, 0], softmax_by_scalar(logits),
                                   rtol=1e-12)
        np.testing.assert_allclose(a.data[:, 0], [0.2689, 0.7311], atol=5e-5)

    def test_empty_bag_rejected(self):
        params = small_params(feature_dim=3)
        with pytest.raises(EmptyBagError):
            head_attention(Tensor(np.zeros((0, 3))),
                           params.heads[0]["gate_proj"],
                           params.heads[0]["gate_score"])


class TestHeadFeature:
    def test_uniform_weights_scale_by_one_over_m(self):
        V = Tensor(np.arange(8.0).reshape(4, 2))
        a = Tensor(np.full((4, 1), 0.25))
        np.testing.assert_allclose(head_feature(V, a).data, V.data / 4.0)

    def test_one_hot_keeps_single_row(self):
        V = Tensor(np.arange(6.0).reshape(3, 2))
        a = Tensor([[0.0], [0.0], [1.0]])
        out = head_feature(V, a).data
        np.testing.assert_array_equal(out[:2], np.zeros((2, 2)))
        np.testing.assert_array_equal(out[2], V.data[2])

    def test_rows_scaled_against_loop_oracle(self):
        rng = np.random.default_rng(3)
        V = rng.normal(size=(3, 2))
        w = np.array([0.2, 0.3, 0.5])
        out = head_feature(Tensor(V), Tensor(w.reshape(3, 1))).data
        for m in range(3):
            for d in range(2):
                assert out[m, d] == w[m] * V[m, d]

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            head_feature(Tensor(np.ones((3, 2))), Tensor(np.ones((2, 1))))


class TestPatchTransform:
    def test_zero_projection_reduces_to_relu(self):
        params = small_params()
        params.proj.data[:] = 0.0
        V = np.random.default_rng(4).normal(size=(5, 6))
        out, _ = patch_transform(Tensor(V), params)
        np.testing.assert_array_equal(out.data, np.maximum(V, 0.0))

    def test_paper_scale_shapes(self):
        # 32 patches of 2048 features in, same shape out
        dims = ModelDims(feature_dim=2048, attn_hidden=8, tag_hidden=8, n_heads=1)
        params = ModelParams(SMALL_SCHEMA, dims, "gated", seed=0)
        V = np.random.default_rng(5).normal(size=(32, 2048))
        out, weights = patch_transform(Tensor(V), params)
        assert out.data.shape == (32, 2048)
        assert len(weights) == 1 and weights[0].data.shape == (32, 1)

    def test_row_permutation_equivariant(self):
        params = small_params()
        rng = np.random.default_rng(6)
        V = rng.normal(size=(7, 6))
        perm = rng.permutation(7)
        direct, _ = patch_transform(Tensor(V[perm]), params)
        swapped, _ = patch_transform(Tensor(V), params)
        np.testing.assert_allclose(direct.data, swapped.data[perm], atol=1e-12)


class TestSdpaTransform:
    def test_single_patch_attention_is_one(self):
        params = small_params(variant="sdpa", heads=2)
        V = np.random.default_rng(7).normal(size=(1, 6))
        out, mats = sdpa_transform(Tensor(V), params)
        for m in mats:
            np.testing.assert_array_equal(m.data, [[1.0]])
        assert out.data.shape == (1, 6)

    def test_rows_sum_to_one(self):
        params = small_params(variant="sdpa", heads=3)
        V = np.random.default_rng(8).normal(size=(9, 6))
        _, mats = sdpa_transform(Tensor(V), params)
        for m in mats:
            np.testing.assert_allclose(m.data.sum(axis=1), 1.0, atol=1e-12)

    def test_row_permutation_equivariant(self):
        params = small_params(variant="sdpa", heads=2)
        rng = np.random.default_rng(9)
        V = rng.normal(size=(6, 6))
        perm = rng.permutation(6)
        direct, _ = sdpa_transform(Tensor(V[perm]), params)
        plain, _ = sdpa_transform(Tensor(V), params)
        np.testing.assert_allclose(direct.data, plain.data[perm], atol=1e-12)

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ConfigError):
            ModelParams(SMALL_SCHEMA,
                        ModelDims(feature_dim=6, n_heads=4), "sdpa", 0)


class TestTagAttention:
    def test_single_patch_returns_that_row(self):
        params = small_params()
        Vp = Tensor(np.random.default_rng(10).normal(size=(1, 6)))
        pooled, alpha = tag_attention(Vp, *params.tag_gates[0])
        np.testing.assert_array_equal(alpha.data, [[1.0]])
        np.testing.assert_array_equal(pooled.data[0], Vp.data[0])

    def test_zero_gate_pools_to_column_mean(self):
        rng = np.random.default_rng(11)
        Vp = Tensor(rng.normal(size=(5, 6)))
        pooled, alpha = tag_attention(Vp, Tensor(np.zeros((6, 4))),
                                      Tensor(rng.normal(size=(4, 1))))
        np.testing.assert_allclose(alpha.data, 0.2, atol=1e-15)
        np.testing.assert_allclose(pooled.data[0], Vp.data.mean(axis=0),
                                   atol=1e-12)

    def test_forced_three_quarters_weighting(self):
        # logits (ln 3, 0) make alpha = (0.75, 0.25) exactly
        Vp = Tensor(np.eye(2))
        gate_proj = Tensor([[5.0, 0.0], [0.0, 0.0]])
        gate_score = Tensor([[math.log(3.0) / math.tanh(5.0)], [0.0]])
        pooled, alpha = tag_attention(Vp, gate_proj, gate_score)
        np.testing.assert_allclose(alpha.data[:, 0], [0.75, 0.25], rtol=1e-12)
        np.testing.assert_allclose(pooled.data[0], [0.75, 0.25], rtol=1e-12)


class TestPredictTag:
    def test_zero_classifier_gives_uniform(self):
        pooled = Tensor(np.random.default_rng(12).normal(size=(1, 6)))
        probs = predict_tag(pooled, Tensor(np.zeros((6, 3))))
        np.testing.assert_allclose(probs.data, 1.0 / 3.0, atol=1e-15)

    def test_sixteen_class_head(self):
        pooled = Tensor(np.random.default_rng(13).normal(size=(1, 6)))
        probs = predict_tag(pooled, Tensor(np.random.default_rng(14).normal(size=(6, 16))))
        assert probs.data.shape == (1, 16)
        assert abs(probs.data.sum() - 1.0) <= 1e-12

    def test_matches_scalar_softmax_oracle(self):
        rng = np.random.default_rng(15)
        pooled = rng.normal(size=(1, 4))
        w = rng.normal(size=(4, 3))
        probs = predict_tag(Tensor(pooled), Tensor(w)).data[0]
        np.testing.assert_allclose(
            probs, softmax_by_scalar(list((pooled @ w)[0])), rtol=1e-12
        )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            predict_tag(Tensor(np.ones((1, 5))), Tensor(np.ones((6, 3))))


class TestForward:
    def test_output_arity_matches_schema(self):
        dims = ModelDims(feature_dim=8, attn_hidden=4, tag_hidden=4, n_heads=1)
        params = ModelParams(DEFAULT_SCHEMA, dims, "gated", 0)
        rng = np.random.default_rng(16)
        bag = random_bag(rng, 5, 8, schema=DEFAULT_SCHEMA)
        probs, record = predict_probs(bag, params)
        assert [len(p) for p in probs] == [3, 6, 16]
        assert len(record.tag_weights) == 3

    @pytest.mark.parametrize("variant,heads", [("gated", 2), ("sdpa", 2), ("gated", 0)])
    def test_patch_permutation_leaves_probs_unchanged(self, variant, heads):
        params = small_params(variant=variant, heads=heads)
        rng = np.random.default_rng(17)
        bag = random_bag(rng, 8, 6)
        perm = rng.permutation(8)
        shuffled = PatchBag("bag-p", bag.features[perm], bag.labels)
        probs_a, rec_a = predict_probs(bag, params)
        probs_b, rec_b = predict_probs(shuffled, params)
        for pa, pb in zip(probs_a, probs_b):
            np.testing.assert_allclose(pa, pb, atol=1e-10)
        for wa, wb in zip(rec_a.tag_weights, rec_b.tag_weights):
            np.testing.assert_allclose(wa[perm], wb, atol=1e-12)

    def test_attention_record_vectors_normalized(self):
        params = small_params()
        rng = np.random.default_rng(18)
        bag = random_bag(rng, 6, 6)
        _, record = predict_probs(bag, params)
        for w in record.head_weights + record.tag_weights:
            assert w.shape == (6,)
            assert abs(w.sum() - 1.0) <= 1e-9
            assert np.all(w >= 0) and np.all(w <= 1)

    def test_dim_mismatch_and_empty_bag(self):
        params = small_params()
        rng = np.random.default_rng(19)
        with pytest.raises(DimensionError):
            forward(random_bag(rng, 4, 5), params)
        bad = PatchBag("ok", rng.normal(size=(1, 6)), (0, 0))
        bad.features = np.zeros((0, 6))  # bypass the constructor guard
        with pytest.raises(EmptyBagError):
            forward(bad, params)

    def test_heads_zero_skips_transform(self):
        params = small_params(heads=0)
        assert params.proj is None and params.heads == []
        rng = np.random.default_rng(20)
        bag = random_bag(rng, 4, 6)
        probs, record = predict_probs(bag, params)
        assert record.head_weights == []
        assert len(probs) == 2


class TestFullModelGradients:
    @pytest.mark.parametrize("variant", ["gated", "sdpa"])
    def test_all_matrices_match_finite_differences(self, variant):
        params = small_params(variant=variant)
        rng = np.random.default_rng(21)
        bags = [random_bag(rng, 4, 6, bag_id=f"b{i}") for i in range(2)]
        labels = np.array([b.labels for b in bags])

        def loss_builder():
            per_task = [[] for _ in range(SMALL_SCHEMA.n_tasks)]
            for bag in bags:
                probs, _ = forward(bag, params)
                for k, p in enumerate(probs):
                    per_task[k].append(p)
            return multi_task_loss(per_task, labels, (1.0, 1.0))

        assert_grads_match(loss_builder, params.parameters(), rel=1e-4, abs_=1e-8)


class TestCopy:
    VARIANTS = [("gated", 3), ("gated", 0), ("sdpa", 2)]

    def trained_looking(self, variant, heads):
        dims = ModelDims(feature_dim=6, attn_hidden=4, tag_hidden=3, n_heads=heads)
        params = ModelParams(SMALL_SCHEMA, dims, variant, seed=9)
        # move every matrix off its seeded init, so re-initializing is not copying
        for i, t in enumerate(params.parameters()):
            t.data += 0.5 * (i + 1)
        return params

    @pytest.mark.parametrize("variant,heads", VARIANTS)
    def test_copy_equals_source_bit_for_bit(self, variant, heads):
        params = self.trained_looking(variant, heads)
        dup = params.copy()
        assert (dup.schema, dup.dims, dup.variant, dup.seed) == (
            params.schema, params.dims, params.variant, params.seed)
        named, dup_named = params.named_parameters(), dup.named_parameters()
        assert [n for n, _ in dup_named] == [n for n, _ in named]
        for (_, a), (_, b) in zip(named, dup_named):
            assert b.requires_grad
            assert a.data.shape == b.data.shape
            assert a.data.tobytes() == b.data.tobytes()

    @pytest.mark.parametrize("variant,heads", VARIANTS)
    def test_copy_and_source_are_independent(self, variant, heads):
        params = self.trained_looking(variant, heads)
        dup = params.copy()
        src_before = [t.data.copy() for t in params.parameters()]
        for t in dup.parameters():
            t.data[...] = -1.0
        for t, want in zip(params.parameters(), src_before):
            assert t.data.tobytes() == want.tobytes()
        dup_before = [t.data.copy() for t in dup.parameters()]
        for t in params.parameters():
            t.data[...] = 7.0
        for t, want in zip(dup.parameters(), dup_before):
            assert t.data.tobytes() == want.tobytes()


class TestCheckpoint:
    @pytest.mark.parametrize("variant,heads", [("gated", 3), ("sdpa", 2), ("gated", 0)])
    def test_round_trip_is_bit_exact(self, tmp_path, variant, heads):
        dims = ModelDims(feature_dim=6, attn_hidden=4, tag_hidden=3, n_heads=heads)
        params = ModelParams(SMALL_SCHEMA, dims, variant, seed=9)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.variant == variant
        assert loaded.dims == dims
        assert loaded.schema == SMALL_SCHEMA
        assert loaded.seed == 9
        for (name_a, a), (name_b, b) in zip(params.named_parameters(),
                                            loaded.named_parameters()):
            assert name_a == name_b
            assert a.data.tobytes() == b.data.tobytes()

    def test_double_save_identical_bytes(self, tmp_path):
        params = small_params()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(params, p1)
        save_checkpoint(params, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_blob_detected(self, tmp_path):
        params = small_params()
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(IntegrityError):
            load_checkpoint(path)

    def test_garbage_header_detected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"not a checkpoint\nend\n")
        with pytest.raises(ParseError):
            load_checkpoint(path)
