import hashlib
import tracemalloc

import numpy as np
import pytest

from patchbag.errors import (
    ContractError,
    DegenerateHistogramError,
    InsufficientForegroundError,
    ParseError,
    SizeError,
)
from patchbag.preprocess import (
    PIXEL_CHUNK,
    FeaturizerParams,
    augment,
    featurize,
    foreground_mask,
    gray_histogram,
    image_to_features,
    otsu_threshold,
    pooled_stats,
    read_pnm,
    sample_patches,
    to_grayscale,
    window_mask,
    write_pnm,
)

from oracles import anchors_by_window_sums, augment_by_slicing, otsu_exhaustive_exact


def bimodal_histogram(rng, lo_center=60, hi_center=190, spread=18, n=4000):
    hist = np.zeros(256, dtype=np.int64)
    lo = np.clip(np.rint(rng.normal(lo_center, spread, n)), 0, 255).astype(int)
    hi = np.clip(np.rint(rng.normal(hi_center, spread, n)), 0, 255).astype(int)
    np.add.at(hist, lo, 1)
    np.add.at(hist, hi, 1)
    return hist


class TestPnmIO:
    def test_color_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(30, 20, 3), dtype=np.uint8)
        write_pnm(tmp_path / "x.ppm", img)
        np.testing.assert_array_equal(read_pnm(tmp_path / "x.ppm"), img)

    def test_gray_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, size=(12, 17), dtype=np.uint8)
        write_pnm(tmp_path / "x.pgm", img)
        np.testing.assert_array_equal(read_pnm(tmp_path / "x.pgm"), img)

    def test_comment_skipped_and_truncation_detected(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n\x00\x01\x02\x03")
        np.testing.assert_array_equal(read_pnm(path), [[0, 1], [2, 3]])
        path.write_bytes(b"P5\n2 2\n255\n\x00\x01")
        with pytest.raises(ParseError):
            read_pnm(path)

    def test_bytes_after_the_pixels_rejected_with_their_count(self, tmp_path):
        path = tmp_path / "t.ppm"
        write_pnm(path, np.zeros((4, 4, 3), dtype=np.uint8))
        path.write_bytes(path.read_bytes() + b"\x00" * 20)
        with pytest.raises(ParseError, match=r"t\.ppm: 20 bytes after the pixel data"):
            read_pnm(path)

    def test_unsupported_magic_rejected(self, tmp_path):
        path = tmp_path / "a.pbm"
        path.write_bytes(b"P1\n2 2\n0 1 1 0\n")
        with pytest.raises(ParseError):
            read_pnm(path)


class TestOtsu:
    def test_single_valued_histogram_flagged(self):
        hist = np.zeros(256, dtype=np.int64)
        hist[128] = 1000
        result = otsu_threshold(hist)
        assert result.threshold == 128
        assert result.degenerate

    def test_empty_histogram_rejected(self):
        with pytest.raises(DegenerateHistogramError):
            otsu_threshold(np.zeros(256, dtype=np.int64))

    def test_two_spike_tie_breaks_low(self):
        hist = np.zeros(256, dtype=np.int64)
        hist[50] = 700
        hist[200] = 700
        result = otsu_threshold(hist)
        assert result.threshold == otsu_exhaustive_exact(hist) == 50
        assert not result.degenerate

    def test_bimodal_falls_between_modes(self):
        rng = np.random.default_rng(2)
        hist = bimodal_histogram(rng)
        result = otsu_threshold(hist)
        assert result.threshold == otsu_exhaustive_exact(hist)
        assert 100 <= result.threshold <= 150

    def test_matches_exhaustive_oracle_on_random_histograms(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            kind = rng.integers(3)
            if kind == 0:
                hist = rng.integers(0, 50, size=256).astype(np.int64)
            elif kind == 1:
                hist = bimodal_histogram(rng, lo_center=int(rng.integers(20, 100)),
                                         hi_center=int(rng.integers(120, 240)))
            else:
                hist = np.zeros(256, dtype=np.int64)
                spikes = rng.integers(0, 256, size=rng.integers(2, 6))
                for s in spikes:
                    hist[s] += int(rng.integers(1, 500))
            if hist.sum() == 0 or np.count_nonzero(hist) == 1:
                continue
            assert otsu_threshold(hist).threshold == otsu_exhaustive_exact(hist)


class TestSampling:
    def test_all_foreground_single_patch_in_bounds(self):
        mask = np.ones((300, 280), dtype=bool)
        anchors = sample_patches(mask, 1, 224, seed=0)
        assert anchors.shape == (1, 2) and anchors.dtype == np.int64
        y, x = anchors[0]
        assert 0 <= y <= 300 - 224 and 0 <= x <= 280 - 224

    def test_all_background_reports_count(self):
        mask = np.zeros((300, 300), dtype=bool)
        with pytest.raises(InsufficientForegroundError) as err:
            sample_patches(mask, 4, 224, seed=0)
        assert err.value.found == 0 and err.value.needed == 4

    def test_same_seed_identical_coordinates(self):
        mask = np.ones((400, 400), dtype=bool)
        a = sample_patches(mask, 8, 224, seed=42)
        b = sample_patches(mask, 8, 224, seed=42)
        assert a.tolist() == b.tolist()

    @pytest.mark.parametrize("seed", range(4))
    def test_picks_are_the_drawn_rows_of_every_valid_anchor(self, seed):
        # only the picked corners are located; they must be the rows the same
        # draw takes from the full row-major list, empty corner rows included
        rng = np.random.default_rng([62, seed])
        mask = rng.random((40, 50)) < 0.55
        mask[:12] = False
        anchors = sample_patches(mask, 6, 8, seed=seed)
        every = np.argwhere(window_mask(mask, 8))
        want = every[np.random.default_rng(seed).choice(len(every), size=6, replace=False)]
        assert anchors.tolist() == want.tolist()

    def test_half_foreground_quota_enforced(self):
        # left half foreground: windows crossing the boundary need >= 50%
        mask = np.zeros((10, 20), dtype=bool)
        mask[:, :10] = True
        anchors = np.argwhere(window_mask(mask, 10))
        # window at x covers columns [x, x+10); foreground cols = 10 - x
        assert set(anchors[:, 1].tolist()) == {0, 1, 2, 3, 4, 5}

    @pytest.mark.parametrize("patch_size,count,error,text", [
        (0, 2, SizeError, "patch_size must be >= 1, got 0"),
        (-1, 2, SizeError, "patch_size must be >= 1, got -1"),
        (-5, 2, SizeError, "patch_size must be >= 1, got -5"),
        (4, -1, ContractError, "count must be >= 0, got -1"),
    ], ids=["size-0", "size-minus-1", "size-minus-5", "count-minus-1"])
    def test_bad_patch_size_or_count_rejected_naming_it(self, patch_size, count,
                                                         error, text):
        with pytest.raises(error, match=text):
            sample_patches(np.ones((20, 20), dtype=bool), count, patch_size, seed=0)


class TestValidAnchors:
    @pytest.mark.parametrize("shape,patch,density", [
        ((12, 12), 4, 0.5), ((9, 17), 5, 0.5), ((23, 8), 6, 0.45),
        ((31, 40), 7, 0.55), ((6, 6), 6, 0.5), ((6, 15), 6, 0.5), ((14, 5), 5, 0.6),
    ])
    def test_matches_direct_window_sums_on_random_masks(self, shape, patch, density):
        rng = np.random.default_rng([61, *shape, patch])
        for _ in range(4):
            mask = rng.random(shape) < density
            anchors = np.argwhere(window_mask(mask, patch))
            assert [tuple(a) for a in anchors.tolist()] == anchors_by_window_sums(mask, patch)

    def test_window_exactly_at_the_quota_is_kept(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask.flat[:8] = True                 # 8 of 16: exactly half
        assert window_mask(mask, 4).tolist() == [[True]]
        mask.flat[7] = False                 # 7 of 16: one short
        assert window_mask(mask, 4).tolist() == [[False]]

    def test_window_as_large_as_the_mask(self):
        mask = np.ones((9, 9), dtype=bool)
        assert window_mask(mask, 9).tolist() == [[True]]

    @pytest.mark.parametrize("shape", [(5, 20), (20, 5), (5, 5)])
    def test_mask_smaller_than_the_window_gives_no_anchor(self, shape):
        ok = window_mask(np.ones(shape, dtype=bool), 6)
        assert ok.size == 0 and ok.dtype == bool


class TestAugment:
    SEEDS = range(64)     # their draws cover all 16 flip and quarter-turn choices

    @staticmethod
    def make_slide(side, color, seed=6):
        """A random slide a little larger than one window, and 64 corners in
        it, its four extreme corners among them."""
        rng = np.random.default_rng([seed, side, color])
        h, w = side + 37, side + 52
        shape = (h, w, 3) if color else (h, w)
        corners = np.stack([rng.integers(h - side + 1, size=64),
                            rng.integers(w - side + 1, size=64)], axis=1)
        corners[:4] = [(0, 0), (0, w - side), (h - side, 0), (h - side, w - side)]
        return rng.integers(0, 256, size=shape, dtype=np.uint8), corners

    @staticmethod
    def undo(patch, choices):
        """The crop a patch came from: its quarter turns and flips reversed."""
        _, _, flip_h, flip_v, turns = choices
        back = np.rot90(patch, -turns)
        back = back[::-1] if flip_v else back
        return back[:, ::-1] if flip_h else back

    @pytest.mark.parametrize("side", [224, 260, 300])
    @pytest.mark.parametrize("color", [True, False], ids=["P6", "P5"])
    def test_matches_the_slicing_oracle(self, color, side):
        image, corners = self.make_slide(side, color)
        out = augment(image, corners, side, self.SEEDS)
        assert out.shape == (len(corners), 224, 224) + image.shape[2:]
        assert out.dtype == np.uint8 and out.flags.c_contiguous
        drawn = set()
        for patch, (y, x), seed in zip(out, corners, self.SEEDS):
            window = image[y:y + side, x:x + side]
            want, choices = augment_by_slicing(window, seed)
            assert patch.tobytes() == np.ascontiguousarray(want).tobytes()
            crop_y, crop_x = choices[:2]
            crop = window[crop_y:crop_y + 224, crop_x:crop_x + 224]
            np.testing.assert_array_equal(self.undo(patch, choices), crop)
            drawn.add(choices[2:])
        assert len(drawn) == 16

    def test_identity_draw_gives_the_center_crop(self):
        image, _ = self.make_slide(260, True)
        seed = 5097       # draws crop (18, 18), no flip, no turn
        assert augment_by_slicing(image[7:267, 11:271], seed)[1] == (18, 18, False, False, 0)
        out = augment(image, [(7, 11)], 260, [seed])
        np.testing.assert_array_equal(out[0], image[25:249, 29:253])

    @pytest.mark.parametrize("shape,side", [((300, 300, 3), 200), ((300, 300, 4), 224)],
                             ids=["small", "four_channels"])
    def test_small_input_rejected(self, shape, side):
        with pytest.raises(SizeError):
            augment(np.zeros(shape, dtype=np.uint8), [(0, 0)], side, [0])

    @pytest.mark.parametrize("corner", [(-1, 0), (0, -1), (38, 0), (0, 53)],
                             ids=["above", "left", "below", "right"])
    def test_window_leaving_the_image_rejected(self, corner):
        image, _ = self.make_slide(224, False)      # 261 x 276
        with pytest.raises(SizeError, match="leaves the"):
            augment(image, [(0, 0), corner], 224, [0, 1])

    def test_one_seed_per_window_required(self):
        image, corners = self.make_slide(224, False)
        with pytest.raises(ContractError, match=r"1 seeds for corners of shape \(2, 2\)"):
            augment(image, corners[:2], 224, [0])


class TestFeaturizer:
    def test_output_length_is_configured_dim(self):
        fparams = FeaturizerParams.initialize(hidden_dim=16, out_dim=64, seed=0)
        rng = np.random.default_rng(7)
        pixels = rng.integers(0, 256, (2, 224, 224, 3), dtype=np.uint8)
        assert featurize(pixels, fparams).shape == (2, 64)

    def test_zero_image_gives_zero_feature(self):
        fparams = FeaturizerParams.initialize(hidden_dim=8, out_dim=12, seed=0)
        feat = featurize(np.zeros((1, 224, 224, 3), dtype=np.uint8), fparams)
        np.testing.assert_array_equal(feat, np.zeros((1, 12)))

    def test_wrong_size_rejected(self):
        fparams = FeaturizerParams.initialize(seed=0)
        with pytest.raises(SizeError):
            featurize(np.zeros((1, 100, 100), dtype=np.uint8), fparams)

    def test_weights_are_required(self):
        with pytest.raises(TypeError):
            FeaturizerParams(8, 4, 0)

    def test_pooled_stats_shape_and_grayscale_path(self):
        gray = np.zeros((1, 224, 224), dtype=np.uint8)
        stats = pooled_stats(gray)
        assert stats.shape == (1, 28 * 28 + 6)

    @staticmethod
    def random_patches(color, n=11, seed=71):
        rng = np.random.default_rng([seed, color])
        shape = (224, 224, 3) if color else (224, 224)
        # each patch its own brightness range, so the stats differ row to row
        return np.stack([rng.integers(lo, lo + 96, shape, dtype=np.uint8)
                         for lo in rng.integers(0, 160, n)])

    @pytest.mark.parametrize("color", [True, False], ids=["P6", "P5"])
    def test_stack_rows_equal_single_patches_bit_for_bit(self, color):
        fparams = FeaturizerParams.initialize(seed=3)
        patches = self.random_patches(color)
        stacked = featurize(patches, fparams)
        assert stacked.shape == (len(patches), 64)
        for row, patch in zip(stacked, patches):
            assert row.tobytes() == featurize(patch[None], fparams).tobytes()
        for i in (0, 3, 8):
            part = featurize(patches[i:i + 3], fparams)
            assert part.tobytes() == stacked[i:i + 3].tobytes()

    @pytest.mark.parametrize("color", [True, False], ids=["P6", "P5"])
    def test_stats_rows_equal_numpy_mean_and_std_per_patch(self, color):
        patches = self.random_patches(color, n=5)
        rows = pooled_stats(patches)
        for row, patch in zip(rows, patches):
            if color:
                chans = patch.astype(np.float64) / 255.0
                want = np.concatenate([chans.mean(axis=(0, 1)), chans.std(axis=(0, 1))])
            else:
                g = patch.astype(np.float64) / 255.0
                want = np.array([g.mean()] * 3 + [g.std()] * 3)
            assert row[-6:].tobytes() == want.tobytes()

    def test_given_gray_stack_gives_the_same_bytes(self):
        patches = self.random_patches(True, n=3)
        given = pooled_stats(patches, to_grayscale(patches))
        assert given.tobytes() == pooled_stats(patches).tobytes()
        with pytest.raises(SizeError, match="gray stack"):
            pooled_stats(patches, to_grayscale(patches[:2]))

    @pytest.mark.parametrize("shape", [(2, 100, 224, 3), (3, 224, 223), (224, 224),
                                       (2, 224, 224, 4), (0, 224, 224, 3), (0, 224, 224)])
    def test_stack_of_the_wrong_shape_rejected(self, shape):
        with pytest.raises(SizeError):
            pooled_stats(np.zeros(shape, dtype=np.uint8))


class TestImagePipeline:
    def make_tissue_image(self, seed=9):
        # bright background with a dark tissue blob in the middle
        rng = np.random.default_rng(seed)
        img = rng.integers(235, 256, size=(420, 420, 3), dtype=np.uint8)
        img[60:360, 60:360] = rng.integers(30, 90, size=(300, 300, 3), dtype=np.uint8)
        return img

    def test_emits_requested_patch_count(self):
        fparams = FeaturizerParams.initialize(hidden_dim=8, out_dim=6, seed=0)
        feats, final = image_to_features(
            self.make_tissue_image(), count=4, patch_size=256, fparams=fparams,
            seed=3,
        )
        assert feats.shape == (4, 6)
        assert final.shape == (4, 224, 224, 3) and final.dtype == np.uint8

    @staticmethod
    def seeded_slide(seed, side, color):
        rng = np.random.default_rng(seed)
        shape = (side, side, 3) if color else (side, side)
        img = rng.integers(235, 256, size=shape, dtype=np.uint8)
        lo, hi = side // 7, side - side // 7
        img[lo:hi, lo:hi] = rng.integers(30, 110, size=(hi - lo, hi - lo) + shape[2:],
                                         dtype=np.uint8)
        return img

    # sha256 of image_to_features' float64 bytes, written before the featurizer
    # ran on stacks: 10 patches make one full chunk of 8 and one partial one
    @pytest.mark.parametrize("color,seed,side,digest", [
        (True, 9, 420, "8a636561c6e454477973bf6c9e0688b5cac115edfc7b642d5220682f6de93594"),
        (False, 11, 400, "d2a1a2758be50ea716279d0c2e69acc0499910c48387207045abb1b792e387d4"),
    ], ids=["P6", "P5"])
    def test_feature_bytes_are_pinned(self, color, seed, side, digest):
        fparams = FeaturizerParams.initialize(seed=5)
        feats, _ = image_to_features(self.seeded_slide(seed, side, color), count=10,
                                     patch_size=240, fparams=fparams, seed=21)
        assert feats.shape == (10, 64)
        assert hashlib.sha256(feats.tobytes()).hexdigest() == digest

    def test_peak_memory_of_a_2048_color_slide_is_bounded(self):
        # patches are cut straight from the slide: 19.4 MB traced here, against
        # 35.9 MB when every 512 window was first copied into a stack; the
        # bound adds a quarter to the measured peak
        slide = self.seeded_slide(13, 2048, True)
        fparams = FeaturizerParams.initialize(seed=5)
        tracemalloc.start()
        try:
            image_to_features(slide, count=32, patch_size=512, fparams=fparams, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24e6, f"{peak / 1e6:.1f} MB"

    def test_mask_separates_tissue_from_background(self):
        img = self.make_tissue_image()
        gray = to_grayscale(img)
        result = otsu_threshold(gray_histogram(gray))
        mask = foreground_mask(gray, result.threshold)
        assert mask[200, 200] and not mask[10, 10]

    def test_all_white_image_raises_insufficient_foreground(self):
        fparams = FeaturizerParams.initialize(hidden_dim=8, out_dim=6, seed=0)
        white = np.full((300, 300, 3), 255, dtype=np.uint8)
        with pytest.raises(InsufficientForegroundError):
            image_to_features(white, count=2, patch_size=224, fparams=fparams,
                              seed=0)

    @pytest.mark.parametrize("count", [0, -3])
    def test_count_below_one_rejected_naming_it(self, count):
        fparams = FeaturizerParams.initialize(hidden_dim=8, out_dim=6, seed=0)
        with pytest.raises(ContractError, match=f"count must be >= 1, got {count}"):
            image_to_features(self.make_tissue_image(), count=count, patch_size=256,
                              fparams=fparams, seed=3)


class TestGrayscale:
    def test_every_rgb_triple_matches_the_rounded_luma(self):
        # all 2^24 triples, one red value at a time: 65,536 pixels per call
        green, blue = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
        rgb = np.empty((256, 256, 3), dtype=np.uint8)
        rgb[..., 1], rgb[..., 2] = green, blue
        for red in range(256):
            rgb[..., 0] = red
            want = np.clip(np.rint(0.299 * red + 0.587 * green + 0.114 * blue), 0, 255)
            assert np.array_equal(to_grayscale(rgb), want.astype(np.uint8)), red

    def test_chunked_passes_equal_whole_image_arithmetic(self):
        # more pixels than one chunk, and a partial last chunk
        rng = np.random.default_rng(63)
        rgb = rng.integers(0, 256, size=(601, 900, 3), dtype=np.uint8)
        assert rgb.shape[0] * rgb.shape[1] > 2 * PIXEL_CHUNK
        luma = rgb[..., 0] * 0.299
        luma += rgb[..., 1] * 0.587
        luma += rgb[..., 2] * 0.114
        gray = to_grayscale(rgb)
        assert gray.tobytes() == np.rint(luma).astype(np.uint8).tobytes()
        hist = gray_histogram(gray)
        assert hist.dtype == np.int64
        assert hist.tolist() == np.bincount(gray.ravel(), minlength=256).tolist()

    def test_gray_input_passes_through(self):
        gray = np.arange(256, dtype=np.uint8).reshape(16, 16)
        assert to_grayscale(gray).tobytes() == gray.tobytes()

    def test_uint8_gray_input_comes_back_as_itself(self):
        gray = np.arange(256, dtype=np.uint8).reshape(16, 16)
        assert np.shares_memory(to_grayscale(gray), gray)
