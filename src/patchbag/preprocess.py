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


# ---------------------------------------------------------------------------
# PGM / PPM I/O (binary, 8-bit)
# ---------------------------------------------------------------------------


def read_pnm(path):
    with open(path, "rb") as fh:
        raw = fh.read()

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
        return raw[start:pos]

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
    data = raw[pos:pos + count]
    if len(data) != count:
        raise ParseError(f"{path}: pixel data truncated ({len(data)} of {count} bytes)")
    if len(raw) > pos + count:
        raise ParseError(f"{path}: {len(raw) - pos - count} bytes after the pixel data")
    arr = np.frombuffer(data, dtype=np.uint8)
    if channels == 1:
        return arr.reshape(height, width).copy()
    return arr.reshape(height, width, 3).copy()


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
    image = np.asarray(image)
    if image.ndim == 2:
        return image.astype(np.uint8)
    luma = image[..., 0] * LUMA[0]
    luma += image[..., 1] * LUMA[1]
    luma += image[..., 2] * LUMA[2]           # at most 255.0: no clip needed
    return np.rint(luma, out=luma).astype(np.uint8)


def gray_histogram(gray):
    gray = np.asarray(gray, dtype=np.uint8)
    return np.bincount(gray.ravel(), minlength=256).astype(np.int64)


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


def valid_anchors(mask, patch_size: int):
    """Top-left corners whose window is inside bounds and mostly foreground."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    if h < patch_size or w < patch_size:
        return np.empty((0, 2), dtype=np.int64)
    # separable int32 running counts; wrapped totals still give exact windows
    p = patch_size
    runs = np.zeros((h + 1, w), dtype=np.int32)
    runs[1:] = mask
    for i in range(1, h + 1):   # row by row: np.cumsum down axis 0 is ~10x slower
        runs[i] += runs[i - 1]
    cols = np.zeros((h - p + 1, w + 1), dtype=np.int32)
    np.cumsum(runs[p:] - runs[:-p], axis=1, out=cols[:, 1:])
    sums = cols[:, p:] - cols[:, :-p]
    return np.argwhere(sums >= math.ceil(FOREGROUND_QUOTA * p * p))


def sample_patches(image, mask, count: int, patch_size: int, seed):
    """Uniformly sample `count` valid windows without replacement: their
    (count, side, side[, 3]) stack and (count, 2) int64 top-left corners."""
    image = np.asarray(image)
    anchors = valid_anchors(mask, patch_size)
    if len(anchors) < count:
        raise InsufficientForegroundError(found=len(anchors), needed=count)
    rng = np.random.default_rng(seed)
    anchors = anchors[rng.choice(len(anchors), size=count, replace=False)]
    windows = np.empty((count, patch_size, patch_size) + image.shape[2:], dtype=image.dtype)
    for window, (y, x) in zip(windows, anchors):
        window[...] = image[y:y + patch_size, x:x + patch_size]
    return windows, anchors


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


def pooled_stats(pixels):
    """(N, 790): 28x28 block-mean luma and channel mean/std of an (N, 224, 224[, 3])
    uint8 stack. Each sum runs over one patch in one fixed order, so row bytes
    do not depend on N."""
    pixels = np.asarray(pixels)
    if (not len(pixels) or pixels.shape[1:3] != (PATCH_SIDE, PATCH_SIDE)
            or pixels.shape[3:] not in ((), (3,))):
        raise SizeError(f"featurize: need one or more {PATCH_SIDE}x{PATCH_SIDE} patches, "
                        f"got {pixels.shape}")
    n, color = len(pixels), pixels.ndim == 4
    gray = (to_grayscale(pixels) if color else pixels) / 255.0
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


def featurize(pixels, fparams: FeaturizerParams) -> np.ndarray:
    """(N, out_dim) features of an (N, 224, 224[, 3]) uint8 stack: a matmul per row."""
    h = pooled_stats(pixels)[:, None, :] @ fparams.w1
    h = np.where(h > 0.0, h, 0.0)
    y = h @ fparams.w2
    return np.where(y > 0.0, y, 0.0).reshape(len(h), fparams.out_dim)


def image_to_features(image, count: int, patch_size: int,
                      fparams: FeaturizerParams, seed):
    """Full pipeline for one raster: mask, sample, augment, featurize.

    `seed` may be an int or a numpy SeedSequence. Returns the (count, out_dim)
    float64 features and the (count, 224, 224[, 3]) augmented stack.
    """
    if count < 1:
        raise ContractError(f"image_to_features: count must be >= 1, got {count}")
    gray = to_grayscale(image)
    result = otsu_threshold(gray_histogram(gray))
    if result.degenerate:
        # single-intensity image: nothing separable from background
        raise InsufficientForegroundError(found=0, needed=count)
    mask = foreground_mask(gray, result.threshold)
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    sample_ss, augment_ss = root.spawn(2)
    windows, _ = sample_patches(image, mask, count, patch_size, sample_ss)
    final = augment(windows, augment_ss.spawn(count))
    feats = [featurize(final[i:i + FEATURIZE_CHUNK], fparams)
             for i in range(0, count, FEATURIZE_CHUNK)]
    return np.concatenate(feats), final
