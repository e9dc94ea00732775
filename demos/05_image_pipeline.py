"""The raw-image path: synthesize a slide-like PPM, mask the background with
Otsu's threshold, sample foreground window corners, cut and augment a patch
in each window, featurize.

Run:  python demos/05_image_pipeline.py
"""

import os
import tempfile

import numpy as np

from patchbag.preprocess import (
    FeaturizerParams,
    augment,
    foreground_mask,
    gray_histogram,
    otsu_threshold,
    read_pnm,
    sample_patches,
    featurize,
    to_grayscale,
    write_pnm,
)

rng = np.random.default_rng(5)

# Bright background, one dark tissue-like blob.
slide = rng.integers(230, 256, size=(500, 500, 3), dtype=np.uint8)
slide[80:420, 120:430] = rng.integers(40, 110, size=(340, 310, 3), dtype=np.uint8)

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "slide.ppm")
    write_pnm(path, slide)
    slide = read_pnm(path)  # round trip is bit-exact

gray = to_grayscale(slide)
result = otsu_threshold(gray_histogram(gray))
mask = foreground_mask(gray, result.threshold)
print(f"otsu threshold: {result.threshold} (degenerate={result.degenerate})")
print(f"foreground fraction: {mask.mean():.2f}")

anchors = sample_patches(mask, count=4, patch_size=256, seed=11)
print("top-left corners of the 256x256 windows:", anchors.tolist())

# one seed per window; each 224x224 patch is cut straight from the slide
final = augment(slide, anchors, 256, seeds=range(len(anchors)))
print("augmented stack:", final.shape, final.dtype)

fparams = FeaturizerParams.initialize(hidden_dim=32, out_dim=16, seed=2)
features = featurize(final, fparams)
print("bag features:", features.shape)
