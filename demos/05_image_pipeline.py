"""The raw-image path: synthesize a slide-like PPM, mask the background with
Otsu's threshold, sample foreground windows, augment, featurize.

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

patches = sample_patches(slide, mask, count=4, patch_size=256, seed=11)
print("sampled windows:", [(p.y, p.x) for p in patches])

final = [augment(p, seed=i) for i, p in enumerate(patches)]
print("augmented shapes:", {p.pixels.shape for p in final})
print("one augmentation log:", final[0].ops_log)

fparams = FeaturizerParams.initialize(hidden_dim=32, out_dim=16, seed=2)
features = np.stack([featurize(p, fparams) for p in final])
print("bag features:", features.shape)
