"""Seeded inputs for the benchmark: synthetic slides, bag sets, configs.

Every input is a function of the workload's sizes and the --seed value.
The slides are written here; bag sets come from patchbag's own `synth`
command and generator, which is the only source of labelled bags the
program has.
"""

import json
import os

import numpy as np

from patchbag import cli
from patchbag.bagio import write_bags
from patchbag.model import DEFAULT_SCHEMA
from patchbag.synth import PatchBag, SynthConfig, generate

SCHEMA = DEFAULT_SCHEMA.tasks   # (task, class names) pairs
RATIOS = (0.72, 0.08, 0.20)
FEATURE_DIM = 64
PATCHES = 32
M_MIX = (8, 16, 32, 64)         # patch counts of the infer bags, equal shares
PATCH_SIZE = 512
CKPT_BAGS = 250                 # bags behind the set-up checkpoint

BACKGROUND_RGB = (238, 236, 240)
TISSUE_RGB = (150, 90, 160)


def run_cli(argv):
    """Runs one patchbag command in this process; raises on a non-zero exit."""
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"patchbag {' '.join(argv)} exited {code}")


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def split_sizes(n):
    """(train, val, test) sizes that `synth` writes for RATIOS."""
    n_train = int(round(RATIOS[0] * n))
    n_val = min(int(round(RATIOS[1] * n)), n - n_train)
    return n_train, n_val, n - n_train - n_val


def synth_config(path, n_bags):
    write_json(path, {"synth": {"n_bags": n_bags, "feature_dim": FEATURE_DIM,
                                "patches_per_bag": PATCHES,
                                "ratios": list(RATIOS)}})


def train_config(path, batch_size):
    write_json(path, {"train": {"lr": 1e-3, "epochs": 1,
                                "batch_size": batch_size}})


# ---------------------------------------------------------------------------
# slides
# ---------------------------------------------------------------------------


def write_ppm(path, rgb):
    h, w, _ = rgb.shape
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (w, h))
        fh.write(np.ascontiguousarray(rgb, dtype=np.uint8).tobytes())


def luma(rgb):
    """The 8-bit grayscale of an RGB raster (ITU-R 601 weights, rounded)."""
    rgb = rgb.astype(np.float64)
    g = 0.299 * rgb[..., 0] + 0.587 * rgb[..., 1] + 0.114 * rgb[..., 2]
    return np.clip(np.rint(g), 0, 255).astype(np.uint8)


def make_slide(side, rng):
    """Bright background with one large tissue ellipse and two small blobs.

    The ellipse is centred within side/16 of the middle with semi-axes of
    0.30-0.40 side, so hundreds of thousands of 512-px windows are at
    least half tissue. Returns (rgb, tissue mask).
    """
    yy, xx = np.ogrid[0:side, 0:side]
    yy, xx = yy / side, xx / side
    cy, cx = 0.5 + rng.uniform(-1, 1, 2) / 16
    ry, rx = rng.uniform(0.30, 0.40, 2)
    tissue = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0
    for _ in range(2):
        by, bx = rng.uniform(0.1, 0.9, 2)
        tissue |= (yy - by) ** 2 + (xx - bx) ** 2 <= rng.uniform(0.05, 0.10) ** 2
    rgb = np.empty((side, side, 3), dtype=np.uint8)
    spread = np.where(tissue, np.int16(40), np.int16(10))
    for c in range(3):
        noise = rng.integers(-64, 65, (side, side), dtype=np.int16) * spread // 64
        base = np.where(tissue, np.int16(TISSUE_RGB[c]), np.int16(BACKGROUND_RGB[c]))
        rgb[..., c] = np.clip(base + noise, 0, 255)
    return rgb, tissue


def write_slides(directory, sides, rng):
    """Writes one PPM per side; returns [(path, labels, histogram, split)].

    The histogram is of the slide's 8-bit grayscale; the split is (lightest
    tissue pixel, darkest background pixel), which Otsu's cut must separate.
    """
    out = []
    for i, side in enumerate(sides):
        rgb, tissue = make_slide(side, rng)
        gray = luma(rgb)
        path = os.path.join(directory, f"slide{i:02d}_{side}.ppm")
        write_ppm(path, rgb)
        labels = {name: classes[int(rng.integers(len(classes)))]
                  for name, classes in SCHEMA}
        out.append((path, labels, np.bincount(gray.ravel(), minlength=256),
                    (int(gray[tissue].max()), int(gray[~tissue].min()))))
    return out


# ---------------------------------------------------------------------------
# bag sets
# ---------------------------------------------------------------------------


def write_mixed_bags(directory, n_bags, seed):
    """n_bags bags of the default schema with M mixed evenly over M_MIX.

    All bags are drawn at the largest M from one generator seed (so they
    share its class prototypes) and each is cut to its first M rows; the
    round-robin slot layout keeps at least two planted rows per task in
    every cut. Which bag gets which M is a seeded permutation.
    """
    bags = generate(SynthConfig(feature_dim=FEATURE_DIM,
                                patches_per_bag=max(M_MIX), n_bags=n_bags,
                                seed=seed))
    order = np.random.default_rng([seed, 1]).permutation(n_bags)
    for i, j in enumerate(order):
        m = M_MIX[i % len(M_MIX)]
        bag = bags[j]
        bags[j] = PatchBag(bag_id=f"{bag.bag_id}_m{m:02d}",
                           features=bag.features[:m].copy(), labels=bag.labels)
    write_bags(bags, directory, DEFAULT_SCHEMA)


def set_up(directory, sizes, seed):
    """Writes every input of one workload under `directory`.

    Returns a dict of the paths and facts the stages and checks need.
    """
    rng = np.random.default_rng([seed, 0])
    slide_dir = os.path.join(directory, "slides")
    os.makedirs(slide_dir)
    slides = write_slides(slide_dir, sizes["slides"], rng)
    pre_cfg = os.path.join(directory, "preprocess.json")
    write_json(pre_cfg, {"preprocess": {
        "images": [{"path": p, "labels": lab} for p, lab, *_ in slides],
        "patches_per_bag": PATCHES, "patch_size": PATCH_SIZE,
        "feature_dim": FEATURE_DIM}})

    configs = {}
    for name, n in (("synth", sizes["synth_bags"]),
                    ("train_data", sizes["train_bags"]),
                    ("ckpt_data", CKPT_BAGS)):
        configs[name] = os.path.join(directory, f"{name}.json")
        synth_config(configs[name], n)
    for batch in (1, 8):
        configs[f"batch{batch}"] = os.path.join(directory, f"train_b{batch}.json")
        train_config(configs[f"batch{batch}"], batch)

    ckpt_data = os.path.join(directory, "ckpt_data")
    run_cli(["synth", "--config", configs["ckpt_data"], "--seed", str(seed),
             "--out", ckpt_data])
    train_data = os.path.join(directory, "train_data")
    run_cli(["synth", "--config", configs["train_data"], "--seed", str(seed),
             "--out", train_data])
    infer_data = os.path.join(directory, "infer_data")
    write_mixed_bags(infer_data, sizes["infer_bags"], seed)
    ckpt_run = os.path.join(directory, "ckpt")
    run_cli(["train", "--config", configs["batch1"], "--data", ckpt_data,
             "--out", ckpt_run, "--seed", str(seed), "--heads", "3",
             "--variant", "gated"])
    return {
        "seed": seed, "sizes": sizes, "slides": slides,
        "preprocess_config": pre_cfg, "configs": configs,
        "train_data": train_data, "infer_data": infer_data,
        "checkpoint": os.path.join(ckpt_run, "checkpoint.ckpt"),
    }
