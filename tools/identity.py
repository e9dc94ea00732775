#!/usr/bin/env python3
"""Byte-identity check: digests of every output of a fixed set of commands.

    python3 tools/identity.py [--seed N] [--work DIR] > digests.txt

Run from any directory; patchbag is imported from this checkout's src/,
and the bag and slide makers from its bench/inputs.py. From one seed it
runs `synth` (with and without a train/val/test split), writes a bag set of
mixed patch counts, trains each arm in ARMS for 2 epochs, runs `eval` and
`export-attention --svg` of every checkpoint on the test split and on the
mixed set, and runs `preprocess` on three slides, 13 patches each (a full
featurizer chunk of 8 and a partial one): a color and a gray one of one
size and a color one of another. Three images are more than a 2-CPU
machine runs at once, so one worker takes a second image. It prints the
OpenBLAS core name, then one `path sha256` line per output file, sorted by
path. Trained bytes depend on the BLAS kernel, so two lists compare only
when their core names match: run it on two checkouts on one machine and
diff the outputs.
"""

import argparse
import ctypes
import glob
import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import numpy as np  # noqa: E402

from inputs import luma, make_slide, run_cli, write_json, write_mixed_bags  # noqa: E402
from patchbag.preprocess import write_pnm  # noqa: E402

N_BAGS = 400
MIXED_BAGS = 200
# (arm, data set, variant, heads, batch size, lambdas)
ARMS = (
    ("gated3", "split", "gated", 3, 1, None),
    ("gated1", "split", "gated", 1, 1, None),
    ("pool", "split", "gated", 0, 1, None),
    ("sdpa4", "split", "sdpa", 4, 1, None),
    ("gated3_b8", "split", "gated", 3, 8, None),
    ("gated3_lambdas", "split", "gated", 3, 1, [0.5, 1.0, 2.0]),
    ("gated2_b8_mixed", "mixed", "gated", 2, 8, None),
)


def blas_core():
    """The name of the kernel OpenBLAS picked at run time, or 'unknown'."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    for path in libs:
        get = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if get is not None:
            get.restype = ctypes.c_char_p
            return get().decode()
    return "unknown"


def produce(work, seed):
    """Runs every command; outputs go under work/out, configs under work."""
    out = os.path.join(work, "out")
    seed_flag = ["--seed", str(seed)]
    synth = {"n_bags": N_BAGS, "feature_dim": 64, "patches_per_bag": 32}
    for name, extra in (("split", {"ratios": [0.72, 0.08, 0.2]}), ("whole", {})):
        config = os.path.join(work, f"synth_{name}.json")
        write_json(config, {"synth": {**synth, **extra}})
        run_cli(["synth", "--config", config, "--out", os.path.join(out, f"synth_{name}")]
                + seed_flag)
    write_mixed_bags(os.path.join(out, "mixed"), MIXED_BAGS, seed)
    data = {"split": os.path.join(out, "synth_split"),
            "mixed": os.path.join(out, "mixed")}
    scored = {"test": os.path.join(out, "synth_split", "test"), "mixed": data["mixed"]}
    for arm, data_set, variant, heads, batch, lambdas in ARMS:
        config = os.path.join(work, f"train_{arm}.json")
        train = {"lr": 1e-3, "epochs": 2, "batch_size": batch}
        write_json(config, {"train": train if lambdas is None
                            else {**train, "lambdas": lambdas}})
        arm_dir = os.path.join(out, f"train_{arm}")
        run_cli(["train", "--config", config, "--data", data[data_set], "--out", arm_dir,
                 "--heads", str(heads), "--variant", variant] + seed_flag)
        ckpt = os.path.join(arm_dir, "checkpoint.ckpt")
        for name, bags in scored.items():
            infer = ["--checkpoint", ckpt, "--data", bags]
            run_cli(["eval", *infer, "--out", os.path.join(arm_dir, f"eval_{name}")])
            run_cli(["export-attention", *infer, "--svg",
                     "--out", os.path.join(arm_dir, f"export_{name}")])
    rng = np.random.default_rng(seed)
    rgb, _ = make_slide(512, rng)
    slides = [(os.path.join(work, "color.ppm"), rgb),
              (os.path.join(work, "gray.pgm"), luma(rgb)),
              (os.path.join(work, "color640.ppm"), make_slide(640, rng)[0])]
    for path, pixels in slides:
        write_pnm(path, pixels)
    config = os.path.join(work, "preprocess.json")
    labels = {"stain": "IHC", "species": "Rat", "organ": "Liver"}
    write_json(config, {"preprocess": {
        "images": [{"path": path, "labels": labels} for path, _ in slides],
        "patches_per_bag": 13, "patch_size": 240, "feature_dim": 32}})
    run_cli(["preprocess", "--config", config, "--out", os.path.join(out, "preprocess")]
            + seed_flag)
    return out


def digests(out):
    lines = []
    for base, _, files in os.walk(out):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                lines.append(f"{os.path.relpath(path, out)} "
                             f"{hashlib.sha256(fh.read()).hexdigest()}")
    return sorted(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--work", help="directory for the outputs (default: a "
                        "temporary one, removed afterwards)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or tmp
        os.makedirs(work, exist_ok=True)
        stdout = sys.stdout
        sys.stdout = sys.stderr          # the commands' own lines
        try:
            lines = digests(produce(work, args.seed))
        finally:
            sys.stdout = stdout
    print(f"# openblas core {blas_core()}")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
