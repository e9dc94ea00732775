"""Raw-image path: background removal, patch sampling, augmentation, and a
fixed featurizer.

Images come in as binary 8-bit PGM (grayscale) or PPM (color). Otsu's
threshold on the grayscale histogram separates dark tissue from bright
background. Fixed-size windows are sampled from the foreground into one
(N, side, side[, 3]) uint8 stack, augmented down to an (N, 224, 224[, 3])
stack, and turned into feature vectors by a fixed, seeded two-layer
linear+ReLU projection; each of the N rows has the bytes of its patch
featurized alone. Nothing trains the
featurizer: its weights are drawn from the seed and never updated.
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    ContractError,
    DegenerateHistogramError,
    InsufficientForegroundError,
    ParseError,
    SizeError,
)

PATCH_SIDE = 224          # final augmented patch side
POOL_SIDE = 28            # featurizer average-pool grid
LUMA = (0.299, 0.587, 0.114)
FOREGROUND_QUOTA = 0.5    # window must be at least half foreground
PIXEL_CHUNK = 1 << 18     # pixels per per-pixel pass: bounds its float64 and intp copies


# ---------------------------------------------------------------------------
# PGM / PPM I/O (binary, 8-bit)
# ---------------------------------------------------------------------------


def read_pnm(path):
    """The (H, W) or (H, W, 3) uint8 pixels of a binary 8-bit PGM or PPM: a
    view into the one buffer the file is read into."""
    with open(path, "rb") as fh:        # read in place: no second copy of the file
        raw = bytearray(os.fstat(fh.fileno()).st_size)
        del raw[fh.readinto(raw):]
        raw += fh.read()                # whatever a growing file added

    pos = 0

    def token():
        nonlocal pos
        while pos < len(raw):
            if raw[pos:pos + 1].isspace():
                pos += 1
            elif raw[pos:pos + 1] == b"#":
                while pos < len(raw) and raw[pos] != 0x0A:
                    pos += 1
            else:
                break
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ParseError(f"{path}: truncated header")
        return bytes(raw[start:pos])

    def number(field):
        text = token()
        if not text.isdigit():          # bytes.isdigit accepts ASCII digits only
            raise ParseError(f"{path}: {field} must be decimal digits, got {text!r}")
        return int(text)

    magic = token()
    if magic not in (b"P5", b"P6"):
        raise ParseError(f"{path}: unsupported magic {magic!r}, need binary P5/P6")
    width, height, maxval = number("width"), number("height"), number("maxval")
    if maxval != 255:
        raise ParseError(f"{path}: maxval must be 255, got {maxval}")
    pos += 1  # single whitespace byte after maxval
    channels = 1 if magic == b"P5" else 3
    count = width * height * channels
    found = max(len(raw) - pos, 0)
    if found < count:
        raise ParseError(f"{path}: pixel data truncated ({found} of {count} bytes)")
    if found > count:
        raise ParseError(f"{path}: {found - count} bytes after the pixel data")
    arr = np.frombuffer(raw, dtype=np.uint8, count=count, offset=pos)
    return arr.reshape((height, width) if channels == 1 else (height, width, 3))


def write_pnm(path, image) -> None:
    image = np.asarray(image, dtype=np.uint8)
    if image.ndim == 2:
        magic, h, w = b"P5", image.shape[0], image.shape[1]
    elif image.ndim == 3 and image.shape[2] == 3:
        magic, h, w = b"P6", image.shape[0], image.shape[1]
    else:
        raise SizeError(f"write_pnm: expected (H, W) or (H, W, 3), got {image.shape}")
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (w, h))
        fh.write(np.ascontiguousarray(image).tobytes())


def to_grayscale(image):
    """Rounded luma of each pixel, PIXEL_CHUNK pixels at a time."""
    image = np.asarray(image)
    if image.ndim == 2:
        return image.astype(np.uint8)
    rgb = image.reshape(-1, image.shape[-1])
    gray = np.empty(len(rgb), dtype=np.uint8)
    for i in range(0, len(rgb), PIXEL_CHUNK):
        chunk = rgb[i:i + PIXEL_CHUNK]
        luma = chunk[:, 0] * LUMA[0]
        luma += chunk[:, 1] * LUMA[1]
        luma += chunk[:, 2] * LUMA[2]         # at most 255.0: no clip needed
        gray[i:i + PIXEL_CHUNK] = np.rint(luma, out=luma)
    return gray.reshape(image.shape[:-1])


def gray_histogram(gray):
    gray = np.asarray(gray, dtype=np.uint8).ravel()
    hist = np.zeros(256, dtype=np.int64)
    for i in range(0, len(gray), PIXEL_CHUNK):
        hist += np.bincount(gray[i:i + PIXEL_CHUNK], minlength=256)
    return hist


# ---------------------------------------------------------------------------
# Otsu thresholding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OtsuResult:
    threshold: int
    degenerate: bool    # histogram had a single occupied bin


def otsu_threshold(hist) -> OtsuResult:
    """Threshold maximizing between-class variance over all 256 cuts.

    Pixels <= threshold form the low class. Ties pick the smallest cut; a
    single-valued histogram returns that value with the degenerate flag set.
    """
    hist = np.asarray(hist, dtype=np.int64)
    if hist.shape != (256,) or np.any(hist < 0):
        raise ConfigError(f"otsu: need 256 non-negative counts, got shape {hist.shape}")
    total = int(hist.sum())
    if total == 0:
        raise DegenerateHistogramError("otsu: histogram has no mass")
    occupied = np.nonzero(hist)[0]
    if len(occupied) == 1:
        return OtsuResult(threshold=int(occupied[0]), degenerate=True)

    values = np.arange(256, dtype=np.float64)
    w0 = np.cumsum(hist).astype(np.float64)            # mass at or below each cut
    s0 = np.cumsum(hist * values)                      # intensity mass below
    w1 = total - w0
    mu0 = np.divide(s0, w0, out=np.zeros(256), where=w0 > 0)
    mu1 = np.divide(s0[-1] - s0, w1, out=np.zeros(256), where=w1 > 0)
    between = w0 * w1 * (mu0 - mu1) ** 2               # scaled by total^2
    return OtsuResult(threshold=int(np.argmax(between)), degenerate=False)


def foreground_mask(gray, threshold: int):
    """Tissue mask: the dark class (values at or below the threshold)."""
    return np.asarray(gray) <= threshold


# ---------------------------------------------------------------------------
# patch sampling and augmentation
# ---------------------------------------------------------------------------


def window_mask(mask, patch_size: int):
    """(H - side + 1, W - side + 1) bool: whether the window at each top-left
    corner is mostly foreground. Built one row of corners at a time from the
    column counts of a band of `side` mask rows slid down the mask."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    p = patch_size
    ok = np.zeros((max(h - p + 1, 0), max(w - p + 1, 0)), dtype=bool)
    if not ok.size:
        return ok
    quota = math.ceil(FOREGROUND_QUOTA * p * p)
    band = mask[:p].sum(axis=0, dtype=np.int32)
    runs = np.zeros(w + 1, dtype=np.int32)  # may wrap on wide masks; differences stay exact
    for y in range(h - p + 1):
        if y:
            band += mask[y + p - 1]
            band -= mask[y - 1]
        np.cumsum(band, out=runs[1:])
        np.greater_equal(runs[p:] - runs[:-p], quota, out=ok[y])
    return ok


def valid_anchors(mask, patch_size: int):
    """Top-left corners whose window is inside bounds and mostly foreground."""
    return np.argwhere(window_mask(mask, patch_size))


def cut_windows(image, anchors, side: int):
    """The (N, side, side[, 3]) stack of the windows at the N top-left corners."""
    windows = np.empty((len(anchors), side, side) + image.shape[2:], dtype=image.dtype)
    for window, (y, x) in zip(windows, anchors):
        window[...] = image[y:y + side, x:x + side]
    return windows


def sample_patches(image, mask, count: int, patch_size: int, seed):
    """Uniformly sample `count` valid windows without replacement: their
    (count, side, side[, 3]) stack and (count, 2) int64 top-left corners.

    The draw picks among the valid corners in row-major order, so only the
    picked corners are located."""
    ok = window_mask(mask, patch_size)
    found = int(np.count_nonzero(ok))
    if found < count:
        raise InsufficientForegroundError(found=found, needed=count)
    rng = np.random.default_rng(seed)
    picks = rng.choice(found, size=count, replace=False)
    # pick k: its row holds valid corners starts[y] <= k < starts[y + 1]
    starts = np.zeros(len(ok) + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(ok, axis=1), out=starts[1:])
    rows = np.searchsorted(starts, picks, side="right") - 1
    anchors = np.array([(y, np.flatnonzero(ok[y])[k - starts[y]])
                        for y, k in zip(rows, picks)], dtype=np.int64).reshape(count, 2)
    return cut_windows(np.asarray(image), anchors, patch_size), anchors


def augment(windows, seeds):
    """The (N, 224, 224[, 3]) stack of N square windows, each cropped to 224 at
    random, flipped horizontally and vertically 50/50 and turned by 0-3 quarter
    turns, all drawn in that order from its own seed (int or SeedSequence)."""
    windows = np.asarray(windows)
    shape = windows.shape
    if (windows.ndim < 3 or shape[1] != shape[2] or shape[1] < PATCH_SIDE
            or shape[3:] not in ((), (3,))):
        raise SizeError(f"augment: need square windows of side >= {PATCH_SIDE}, got {shape}")
    if len(seeds) != len(windows):
        raise ContractError(f"augment: {len(seeds)} seeds for {len(windows)} windows")
    span = shape[1] - PATCH_SIDE + 1
    out = np.empty((len(windows), PATCH_SIDE, PATCH_SIDE) + shape[3:], dtype=windows.dtype)
    for patch, window, seed in zip(out, windows, seeds):
        rng = np.random.default_rng(seed)
        y, x = rng.integers(span), rng.integers(span)
        view = window[y:y + PATCH_SIDE, x:x + PATCH_SIDE]
        if rng.random() < 0.5:
            view = view[:, ::-1]
        if rng.random() < 0.5:
            view = view[::-1]
        patch[...] = np.rot90(view, k=rng.integers(4))
    return out


# ---------------------------------------------------------------------------
# featurizer: pooled pixels + channel stats -> two fixed linear+ReLU layers
# ---------------------------------------------------------------------------

STATS_LEN = 6
POOL_LEN = POOL_SIDE * POOL_SIDE
FEAT_INPUT_LEN = POOL_LEN + STATS_LEN
FEATURIZE_CHUNK = 8       # patches per stack: bounds its float64 copies


@dataclass
class FeaturizerParams:
    hidden_dim: int
    out_dim: int
    seed: int
    w1: np.ndarray = field(repr=False)
    w2: np.ndarray = field(repr=False)

    @classmethod
    def initialize(cls, hidden_dim: int = 128, out_dim: int = 64, seed: int = 0):
        rng = np.random.default_rng(seed)

        def mat(rows, cols):
            bound = math.sqrt(1.0 / rows)
            return rng.uniform(-bound, bound, (rows, cols))

        return cls(
            hidden_dim=hidden_dim, out_dim=out_dim, seed=seed,
            w1=mat(FEAT_INPUT_LEN, hidden_dim),
            w2=mat(hidden_dim, out_dim),
        )


def pooled_stats(pixels, gray=None):
    """(N, 790): 28x28 block-mean luma and channel mean/std of an (N, 224, 224[, 3])
    uint8 stack. Each sum runs over one patch in one fixed order, so row bytes
    do not depend on N. The stack's (N, 224, 224) `to_grayscale`, when the
    caller has it, is passed as `gray` instead of being computed again."""
    pixels = np.asarray(pixels)
    if (not len(pixels) or pixels.shape[1:3] != (PATCH_SIDE, PATCH_SIDE)
            or pixels.shape[3:] not in ((), (3,))):
        raise SizeError(f"featurize: need one or more {PATCH_SIDE}x{PATCH_SIDE} patches, "
                        f"got {pixels.shape}")
    n, color = len(pixels), pixels.ndim == 4
    if gray is None:
        gray = to_grayscale(pixels) if color else pixels
    elif np.shape(gray) != pixels.shape[:3]:
        raise SizeError(f"featurize: gray stack {np.shape(gray)} does not match "
                        f"the patches {pixels.shape}")
    gray = np.asarray(gray) / 255.0
    block = PATCH_SIDE // POOL_SIDE
    pooled = gray.reshape(n, POOL_SIDE, block, POOL_SIDE, block).mean(axis=(2, 4))
    if color:   # pixel-major: one sequential chain per (patch, channel) column
        x, axis = np.empty((PATCH_SIDE * PATCH_SIDE, n * 3)), 0
        np.divide(pixels.reshape(n, -1, 3).transpose(1, 0, 2), 255.0, out=x.reshape(-1, n, 3))
    else:       # one pairwise chain along each patch's contiguous pixels
        x, axis = gray.reshape(n, -1), 1
    mean = x.sum(axis=axis, keepdims=True) / x.shape[axis]   # np.std's arithmetic
    x -= mean                                 # x is this call's own copy
    x *= x
    std = np.sqrt(x.sum(axis=axis, keepdims=True) / x.shape[axis])
    stats = [np.broadcast_to(v.reshape(n, -1), (n, 3)) for v in (mean, std)]
    return np.concatenate([pooled.reshape(n, POOL_LEN), *stats], axis=1)


def featurize(pixels, fparams: FeaturizerParams, gray=None) -> np.ndarray:
    """(N, out_dim) features of an (N, 224, 224[, 3]) uint8 stack: a matmul per row.
    `gray` is as in `pooled_stats`."""
    h = pooled_stats(pixels, gray)[:, None, :] @ fparams.w1
    h = np.where(h > 0.0, h, 0.0)
    y = h @ fparams.w2
    return np.where(y > 0.0, y, 0.0).reshape(len(h), fparams.out_dim)


def image_to_features(image, count: int, patch_size: int,
                      fparams: FeaturizerParams, seed):
    """Full pipeline for one raster: mask, sample, augment, featurize.

    `seed` may be an int or a numpy SeedSequence. Returns the (count, out_dim)
    float64 features and the (count, 224, 224[, 3]) augmented stack. A color
    slide's gray windows are cut from its gray and augmented by the same draws
    as the color ones, so no patch is grayed a second time. Each stack is
    dropped once the next one is made.
    """
    if count < 1:
        raise ContractError(f"image_to_features: count must be >= 1, got {count}")
    image = np.asarray(image)
    gray = to_grayscale(image)
    result = otsu_threshold(gray_histogram(gray))
    if result.degenerate:
        # single-intensity image: nothing separable from background
        raise InsufficientForegroundError(found=0, needed=count)
    mask = foreground_mask(gray, result.threshold)
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    sample_ss, augment_ss = root.spawn(2)
    windows, anchors = sample_patches(image, mask, count, patch_size, sample_ss)
    del mask
    seeds = augment_ss.spawn(count)
    final = augment(windows, seeds)
    del windows
    final_gray = (augment(cut_windows(gray, anchors, patch_size), seeds)
                  if image.ndim == 3 else final)
    del gray
    feats = [featurize(final[i:i + FEATURIZE_CHUNK], fparams,
                       final_gray[i:i + FEATURIZE_CHUNK])
             for i in range(0, count, FEATURIZE_CHUNK)]
    return np.concatenate(feats), final
