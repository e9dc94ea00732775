#!/usr/bin/env python3
"""Benchmark for patchbag: its five CLI stages, run as a user runs them.

    python3 bench/run.py --workload train|infer|ingest --seed N \
        --seconds S --trace 0|1

Run from the repository root; patchbag is imported from ./src. Each stage
is one call of patchbag.cli.main in this process, on inputs made from the
seed (bench/inputs.py). A run sets up its inputs three times, then repeats
whole rounds of the same commands -- synth, preprocess, train on five arms,
eval, export-attention -- until the commands have taken about --seconds.
The workloads differ in which stages get the full-size input (see WORKLOADS
and bench/README.md). The second round's outputs are checked against the
oracles in bench/oracles.py; every round must reproduce them byte for byte.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end rates
(medians over each command's executions, scaled to the reference speed of
the host: see REFERENCE_KERNEL_S), set-up time and peak memory; with
--trace 1 the same rounds run with spans recorded (bench/spans.py) and the
metrics are per-layer times and counts, medians over rounds. Spans are
written to .bench_work/traces/.
"""

import argparse
import collections
import contextlib
import ctypes
import ctypes.util
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

# BLAS threads are capped at the CPUs this process may use; this must
# happen before numpy is first imported.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
if not os.path.isfile(os.path.join(SRC, "patchbag", "cli.py")):
    sys.exit(f"bench: no patchbag sources under {SRC}")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import oracles  # noqa: E402
import selftest  # noqa: E402
import spans  # noqa: E402
from patchbag import cli  # noqa: E402
from patchbag.model import load_checkpoint  # noqa: E402
from patchbag.preprocess import otsu_threshold  # noqa: E402

SETUP_REPEATS = 3

# Host speed. On a small VM of a shared host, the speed the host gives the
# VM changes by up to 2x for minutes at a time, and every command of a run
# moves with it. Every timed command and set-up is bracketed by a fixed
# reference kernel (reference_kernel) and its user-mode time is scaled to
# the kernel's time at the reference speed (timed), so the end-to-end
# metrics read as rates on the reference machine (bench/README.md, Noise)
# and are steady across host states. The constant is the kernel's median
# time there.
REFERENCE_KERNEL_S = 0.0063
KERNEL_STEPS = 150
_kernel_rng = np.random.default_rng(0)
KERNEL_A = _kernel_rng.standard_normal((32, 64))
KERNEL_W = _kernel_rng.standard_normal((64, 64)) * 0.1

# Input sizes per workload. Every workload runs every stage, so every
# metric exists on every workload. A round runs the workload's primary
# stages once, at the sizes the workload is named for, and every other
# stage MINOR_REPEATS times on small inputs: short commands are noisy, so
# they need more samples per run.
WORKLOADS = {
    "train": {"primary": ("train",), "train_bags": 2000, "infer_bags": 400,
              "synth_bags": 400, "slides": (1024,)},
    "infer": {"primary": ("infer",), "train_bags": 200, "infer_bags": 4920,
              "synth_bags": 400, "slides": (1024,)},
    "ingest": {"primary": ("synth", "preprocess"), "train_bags": 200,
               "infer_bags": 400, "synth_bags": 4920,
               "slides": (1024,) * 6 + (2048,) * 2},
}
MINOR_REPEATS = 3
# (arm, variant, heads, batch size)
ARMS = (
    ("gated3", "gated", 3, 1),
    ("gated1", "gated", 1, 1),
    ("pool", "gated", 0, 1),
    ("sdpa4", "sdpa", 4, 1),
    ("gated3_b8", "gated", 3, 8),
)
# predictions within this probability gap of a tie may go either way
TIE_GAP = 1e-9
# glibc's malloc_trim; None where the C library lacks it
MALLOC_TRIM = getattr(ctypes.CDLL(ctypes.util.find_library("c")),
                      "malloc_trim", None)


class CheckFailed(Exception):
    pass


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def digest_dir(path):
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(path)):
        dirs.sort()
        for name in sorted(files):
            full = os.path.join(base, name)
            h.update(os.path.relpath(full, path).encode())
            with open(full, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


def stage_ops(env):
    """Each stage's commands: {stage: [(name, argv, units of work, checker)]}."""
    seed = str(env["seed"])
    sizes = env["sizes"]
    cfg = env["configs"]
    n_train = inputs.split_sizes(sizes["train_bags"])[0]
    infer = ["--checkpoint", env["checkpoint"], "--data", env["infer_data"]]
    return {
        "synth": [("synth", ["synth", "--config", cfg["synth"], "--seed", seed],
                   sizes["synth_bags"], check_synth)],
        "preprocess": [("preprocess", ["preprocess", "--config",
                                       env["preprocess_config"], "--seed", seed],
                        len(sizes["slides"]), check_preprocess)],
        "train": [(f"train.{arm}",
                   ["train", "--config", cfg[f"batch{batch}"], "--data",
                    env["train_data"], "--seed", seed, "--heads", str(heads),
                    "--variant", variant], n_train, check_train)
                  for arm, variant, heads, batch in ARMS],
        "infer": [("eval", ["eval"] + infer, sizes["infer_bags"], check_eval),
                  ("export", ["export-attention"] + infer, sizes["infer_bags"],
                   check_export)],
    }


def round_ops(env, out):
    """One round: (name, argv, work, checker, output dir) per command.

    The primary stages run once, after the first pass of the others.
    """
    stages = stage_ops(env)
    primary = env["sizes"]["primary"]
    ops = []
    for rep in range(MINOR_REPEATS):
        for stage, commands in stages.items():
            if stage not in primary:
                ops += [(*c, f"{c[0]}.{rep}") for c in commands]
        if rep == 0:
            ops += [(*c, c[0]) for stage in primary for c in stages[stage]]
    return [(name, argv + ["--out", os.path.join(out, sub)], work, check,
             os.path.join(out, sub)) for name, argv, work, check, sub in ops]


# ---------------------------------------------------------------------------
# checks of the second round's outputs
# ---------------------------------------------------------------------------


def check_synth(env, op, out):
    parts = []
    for part, want in zip(("train", "val", "test"),
                          inputs.split_sizes(env["sizes"]["synth_bags"])):
        dim, counts, bags = oracles.read_bag_dir(os.path.join(out, part))
        expect(dim == inputs.FEATURE_DIM and counts == oracles.DEFAULT_CLASS_COUNTS,
               f"synth {part}: dim {dim}, classes {counts}")
        expect(len(bags) == want, f"synth {part}: {len(bags)} bags, want {want}")
        for bag_id, labels, feats in bags:
            expect(feats.shape == (inputs.PATCHES, inputs.FEATURE_DIM)
                   and all(0 <= y < c for y, c in zip(labels, counts)),
                   f"synth {part}: bag {bag_id} {feats.shape} {labels}")
        parts.append(bags)
    ids = {b[0] for bags in parts for b in bags}
    expect(len(ids) == env["sizes"]["synth_bags"], "synth: bag ids repeat")
    share = oracles.centroid_recovery(parts[0], parts[1] + parts[2],
                                      oracles.DEFAULT_CLASS_COUNTS)
    expect(share > 0.99, f"synth: centroid decoding recovers only {share:.4f}")


def check_preprocess(env, op, out):
    dim, counts, bags = oracles.read_bag_dir(out)
    slides = env["slides"]
    expect(len(bags) == len(slides), f"preprocess: {len(bags)} bags")
    for (bag_id, labels, feats), (path, names, hist, split) in zip(bags, slides):
        stem = os.path.splitext(os.path.basename(path))[0]
        want = tuple(classes.index(names[task]) for task, classes in inputs.SCHEMA)
        expect(bag_id == stem and labels == want,
               f"preprocess: bag {bag_id} {labels}, want {stem} {want}")
        expect(feats.shape == (inputs.PATCHES, inputs.FEATURE_DIM),
               f"preprocess: bag {bag_id} shape {feats.shape}")
        expect(bool(np.all(np.isfinite(feats)) and np.all(feats >= 0)),
               f"preprocess: bag {bag_id} has negative or non-finite features")
        t = oracles.otsu_exhaustive(hist)
        tissue_max, background_min = split
        expect(tissue_max <= t < background_min,
               f"preprocess: {stem} Otsu cut {t} does not separate tissue "
               f"(<= {tissue_max}) from background (>= {background_min})")
        expect(otsu_threshold(hist).threshold == t,
               f"preprocess: {stem} program Otsu differs from exhaustive {t}")


def oracle_bags(env, key):
    """Bags of the train split's val part or of the infer set, read once."""
    if key not in env:
        path = (os.path.join(env["train_data"], "val") if key == "val_bags"
                else env["infer_data"])
        env[key] = oracles.read_bag_dir(path)[2]
    return env[key]


def reference_labels(bags, fields, mats):
    """Reference predictions: per task, (truth, argmax, near-tie count)."""
    ref = oracles.reference_predict(fields, mats, bags)
    out = []
    for k in range(len(oracles.DEFAULT_CLASS_COUNTS)):
        truth, pred, ties = [], [], 0
        for bag_id, labels, _ in bags:
            arg, gap = oracles.argmax_with_margin(ref[bag_id][0][k])
            truth.append(labels[k])
            pred.append(arg)
            ties += gap <= TIE_GAP
        out.append((truth, pred, ties))
    return ref, out


def check_train(env, op, out):
    arm = op.split(".", 1)[1]
    variant, heads = next((v, h) for a, v, h, _ in ARMS if a == arm)
    path = os.path.join(out, "checkpoint.ckpt")
    fields, counts, mats = oracles.read_checkpoint(path)
    expect(fields["variant"] == variant and int(fields["heads"]) == heads,
           f"{op}: checkpoint is {fields['variant']} x{fields['heads']}")
    params = load_checkpoint(path)
    expect(all(np.array_equal(t.data, mats[name])
               for name, t in params.named_parameters()),
           f"{op}: loaded checkpoint differs from its file")

    val = oracle_bags(env, "val_bags")
    ref, per_task = reference_labels(val, fields, mats)
    macro = [oracles.f1_by_counting(t, p, c)[1]
             for (t, p, _), c in zip(per_task, counts)]
    # one epoch on the small split (144 bags, 18 Adam steps at batch 8)
    # learns too little to clear the loss bound and F1 floor, so those run
    # where training is the primary stage; the history match runs always
    if "train" in env["sizes"]["primary"]:
        loss = sum(-np.log(max(ref[b[0]][0][k][b[1][k]], 1e-12))
                   for b in val for k in range(len(counts))) / len(val)
        bound = oracles.uniform_loss_bound(counts)
        expect(loss < bound, f"{op}: val loss {loss:.4f} >= uniform bound {bound:.4f}")
        avg = sum(macro) / len(macro)
        floor = 1.5 * oracles.chance_macro_f1(counts)
        expect(avg > floor, f"{op}: val avg Macro F1 {avg:.4f} <= floor {floor:.4f}")

    with open(os.path.join(out, "history.csv"), encoding="utf-8") as fh:
        header, *rows = [line.split(",") for line in fh.read().split()]
    cols = [header.index(f"val_macro_f1_{task}") for task, _ in inputs.SCHEMA]
    best = max(rows, key=lambda r: sum(float(r[c]) for c in cols))
    for k, col in enumerate(cols):
        if per_task[k][2] == 0:
            expect(abs(float(best[col]) - macro[k]) <= 1e-12,
                   f"{op}: history val Macro F1 {best[col]} for task {k}, "
                   f"reference {macro[k]!r}")


def check_eval(env, op, out):
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    fields, counts, mats = oracles.read_checkpoint(env["checkpoint"])
    _, per_task = reference_labels(oracle_bags(env, "infer_bags"), fields, mats)
    for task, (truth, pred, ties), c in zip(report["tasks"], per_task, counts):
        expect(os.path.isfile(os.path.join(out, f"confusion_{task['task']}.svg")),
               f"eval: no confusion SVG for {task['task']}")
        if ties:
            continue
        per_class, macro, acc, conf = oracles.f1_by_counting(truth, pred, c)
        expect(np.allclose(task["per_class_f1"], per_class, rtol=0, atol=1e-12)
               and abs(task["macro_f1"] - macro) <= 1e-12
               and abs(task["micro_f1"] - acc) <= 1e-12
               and np.allclose(task["confusion"], conf, rtol=0, atol=1e-12),
               f"eval: report for {task['task']} differs from counted F1 "
               f"(macro {task['macro_f1']!r} vs {macro!r}, "
               f"micro {task['micro_f1']!r} vs {acc!r})")


def check_export(env, op, out):
    fields, _, mats = oracles.read_checkpoint(env["checkpoint"])
    bags = oracle_bags(env, "infer_bags")
    ref = oracles.reference_predict(fields, mats, bags)
    expect(len(os.listdir(out)) == len(bags),
           f"export: {len(os.listdir(out))} files for {len(bags)} bags")
    tasks = [task for task, _ in inputs.SCHEMA]
    for bag_id, _, feats in bags:
        m = feats.shape[0]
        with open(os.path.join(out, f"attention_{bag_id}.csv"), encoding="utf-8") as fh:
            lines = fh.read().split()
        expect(lines[0] == "task,rank,patch_index,weight" and
               len(lines) == 1 + m * len(tasks), f"export: {bag_id} layout")
        for k, task in enumerate(tasks):
            rows = [line.split(",") for line in lines[1 + k * m:1 + (k + 1) * m]]
            expect(all(r[0] == task and int(r[1]) == i for i, r in enumerate(rows)),
                   f"export: {bag_id} {task} rows out of order")
            idx = [int(r[2]) for r in rows]
            w = [float(r[3]) for r in rows]
            expect(sorted(idx) == list(range(m)),
                   f"export: {bag_id} {task} indices are not a permutation")
            expect(abs(sum(w) - 1.0) <= 1e-9, f"export: {bag_id} {task} sum {sum(w)}")
            alpha = ref[bag_id][1][k]
            expect(max(abs(a - alpha[i]) for a, i in zip(w, idx)) <= 1e-9,
                   f"export: {bag_id} {task} weights differ from the reference")
            expect(all(w[r] > w[r + 1] or (w[r] == w[r + 1] and idx[r] < idx[r + 1])
                       for r in range(m - 1)),
                   f"export: {bag_id} {task} ranking is not descending")


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def call_cli(argv):
    """One patchbag command; returns its exit code (-1 if it raised)."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv)
        except Exception:
            traceback.print_exc()
            return -1


def release_memory():
    """Frees garbage and hands free heap pages back to the OS.

    Run after each set-up, so the peak memory of the rounds does not depend
    on what set-up left behind.
    """
    gc.collect()
    if MALLOC_TRIM is not None:
        MALLOC_TRIM(0)


def reference_kernel():
    """Times a fixed piece of work that does not depend on patchbag.

    Small matmuls, element-wise numpy and Python object churn on the array
    sizes patchbag works on (32 patches x 64 features): the kinds of work
    the commands spend their time on, in about 6 ms.
    """
    start = time.perf_counter()
    acc = 0.0
    for _ in range(KERNEL_STEPS):
        h = np.tanh(KERNEL_A @ KERNEL_W)
        g = (1.0 - h * h) @ KERNEL_W.T
        rows = [(j, float(h[j, 0])) for j in range(len(h))]
        acc += float(g.sum()) + sum(v for _, v in rows)
    return time.perf_counter() - start


def timed(call, k_before):
    """Runs call(); returns (result, wall, wall at reference speed, kernel).

    The part of the wall time the process spent in user mode is scaled by
    REFERENCE_KERNEL_S over the mean of the reference kernel's times just
    before and just after the call, so a change of host speed that lasts
    longer than a command cancels out; system time and waiting are kept as
    measured, since the host's speed changes move them far less (bench/
    README.md, Noise). The kernel time after the call is returned for use
    before the next one.
    """
    user0 = resource.getrusage(resource.RUSAGE_SELF).ru_utime
    start = time.perf_counter()
    result = call()
    wall = time.perf_counter() - start
    # BLAS threads can add more user time than wall time
    user = min(resource.getrusage(resource.RUSAGE_SELF).ru_utime - user0, wall)
    k_after = reference_kernel()
    scale = REFERENCE_KERNEL_S / ((k_before + k_after) / 2)
    return result, wall, wall - user + user * scale, k_after


def set_up(workload, seed, run_dir):
    times = []
    for i in range(SETUP_REPEATS):
        directory = os.path.join(run_dir, f"setup{i}")
        with contextlib.redirect_stdout(io.StringIO()):
            env, _, scaled, _ = timed(
                lambda: inputs.set_up(directory, WORKLOADS[workload], seed),
                reference_kernel())
        times.append(scaled)
        if i + 1 < SETUP_REPEATS:
            shutil.rmtree(directory)
        release_memory()
    return env, statistics.median(times)


@contextlib.contextmanager
def untraced(tracer):
    """Takes the tracer's wrappers out for the duration, when tracing."""
    if tracer:
        tracer.remove()
    try:
        yield
    finally:
        if tracer:
            tracer.install()


def run_rounds(env, run_dir, seconds, tracer):
    """Repeats whole rounds until the commands have taken `seconds`.

    Every command's output is digested and deleted right after it, so each
    command starts from the same file-system state (on ext4 the cost of
    creating a file grows with the files created and not yet written back
    or deleted). Each command's first output of the second round is
    checked against the oracles, after the first round has set the peak
    memory; every output must equal the first round's byte for byte.
    """
    walls = {}
    digests = {}
    checked = set()
    problems = []
    attempted = failed = 0
    measured = 0.0
    bounds = []
    r = 0
    # start another round while that ends nearer to `seconds` than stopping
    while r < 2 or measured + measured / r / 2 < seconds:
        ops = round_ops(env, os.path.join(run_dir, f"round{r}"))
        if tracer:
            tracer.install()
            first = len(tracer.spans)
        kernel = reference_kernel()
        kernels = [kernel]
        for name, argv, work, check, path in ops:
            call = tracer.span(f"cli.{name}", call_cli) if tracer else call_cli
            code, wall, scaled, kernel = timed(lambda: call(argv), kernel)
            kernels.append(kernel)
            attempted += 1
            measured += wall
            if code != 0:
                failed += 1
                print(f"{name}: exit {code}", file=sys.stderr)
                continue
            walls.setdefault(name, []).append((work, scaled))
            try:
                digest = digest_dir(path)
                if r == 1 and name not in checked:
                    checked.add(name)
                    with untraced(tracer):
                        check(env, name, path)
                expect(digest == digests.setdefault(name, digest),
                       f"{name}: output in round {r} differs from round 0")
            except CheckFailed as e:
                problems.append(str(e))
            shutil.rmtree(path)
            if r == 1:
                # the check's garbage, collected outside the next command
                gc.collect()
        if tracer:
            tracer.remove()
            bounds.append((first, len(tracer.spans)))
        if r == 0:
            # every round runs the same commands, so the peak is reached by
            # now, before any check has read an output
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(f"round {r}, reference kernel "
              f"{statistics.median(kernels) * 1e3:.2f} ms, "
              f"command times scaled to {REFERENCE_KERNEL_S * 1e3} ms: " + ", ".join(
            f"{name} " + "/".join(f"{w:.3f}" for _, w in walls.get(name, [])[-n:])
            for name, n in collections.Counter(op[0] for op in ops).items()),
            file=sys.stderr)
        r += 1
    return walls, problems, attempted, failed, bounds, peak_kib


def end_to_end(walls, setup_s, peak_kib):
    def rate(name):
        return statistics.median(work / wall for work, wall in walls[name])

    metrics = {"setup_s": (setup_s, "s")}
    for arm, *_ in ARMS:
        metrics[f"train.{arm}_bags_per_s"] = (rate(f"train.{arm}"), "bags/s")
    metrics["eval_bags_per_s"] = (rate("eval"), "bags/s")
    metrics["export_bags_per_s"] = (rate("export"), "bags/s")
    metrics["preprocess_images_per_s"] = (rate("preprocess"), "images/s")
    metrics["synth_bags_per_s"] = (rate("synth"), "bags/s")
    metrics["peak_rss_mb"] = (peak_kib / 1024.0, "MB")
    return metrics


def per_layer(tracer, bounds, n_train):
    """Per-layer times and counts per command run, as medians over rounds."""
    rounds = []
    for r, (first, last) in enumerate(bounds):
        facts = spans.analyse(tracer.spans, first, last)
        rounds.append(spans.layer_metrics(facts, n_train))
        for f in facts if r == 0 else ():
            if f["parent"] is None:
                cover = 1.0 - f["self"] / f["dur"]
                print(f"trace: {f['name']} {f['dur']:.3f} s, "
                      f"{cover:.1%} inside layer spans", file=sys.stderr)
    names = sorted(set().union(*rounds))
    return {name: (statistics.median(r.get(name, 0.0) for r in rounds),
                   spans.unit(name)) for name in names}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        selftest.run(run_dir)
        env, setup_s = set_up(args.workload, args.seed, run_dir)
        tracer = spans.Tracer() if args.trace else None
        walls, problems, attempted, failed, bounds, peak_kib = run_rounds(
            env, run_dir, args.seconds, tracer)
        if args.trace:
            n_train = inputs.split_sizes(env["sizes"]["train_bags"])[0]
            metrics = per_layer(tracer, bounds, n_train)
            os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
            tracer.write(os.path.join(WORK, "traces",
                                      f"{args.workload}-seed{args.seed}.json.gz"))
        else:
            metrics = end_to_end(walls, setup_s, peak_kib)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
