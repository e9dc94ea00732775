"""Single executable for the whole pipeline.

Subcommands: synth, preprocess, train, eval, export-attention. Every run is
driven by an optional JSON config file plus flags (flags win). Exit codes
are a stable scripting contract: 0 success, 2 configuration, 3 I/O,
4 numeric or data-integrity failure.
"""

import argparse
import itertools
import json
import logging
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, fields

import numpy as np

from .bagio import claim_bag_id, read_bags, write_bags
from .errors import ConfigError, PatchbagError, SchemaMismatchError
from .model import DEFAULT_SCHEMA, TagSchema, load_checkpoint, save_checkpoint
from .plots import confusion_svg
from .preprocess import PATCH_SIDE, FeaturizerParams, image_to_features, read_pnm
from .synth import (
    CorrelationRule,
    PatchBag,
    SynthConfig,
    check_ratios,
    generate,
    split,
)
from .training import (
    TrainConfig,
    evaluate,
    export_attention,
    train,
    write_history_csv,
)

log = logging.getLogger("patchbag")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DATA = 4

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


def _fields(cls, **extra):
    """A config section's keys and defaults: the fields of `cls` but `seed`."""
    keys = {f.name: f.default_factory() if f.default is MISSING else f.default
            for f in fields(cls) if f.name != "seed"}
    return {**keys, **extra}


# Every key a config accepts, with its default. The top-level `seed` seeds
# every command.
CONFIG_DEFAULTS = {
    "seed": 0, "out": None, "data": None, "checkpoint": None, "svg": False,
    "synth": _fields(SynthConfig, ratios=None),
    "train": _fields(TrainConfig, ratios=(0.72, 0.08, 0.20)),
    "preprocess": {"images": [], "schema": DEFAULT_SCHEMA, "patches_per_bag": 32,
                   "patch_size": 512, "feature_dim": 64, "hidden_dim": 128},
}
_SECTIONS = ("synth", "train", "preprocess")


def _setup_logging() -> None:
    name = os.environ.get("PATCHBAG_LOG", "warn").lower()
    if name not in _LOG_LEVELS:
        raise ConfigError(
            f"PATCHBAG_LOG: unknown level {name!r}, expected one of "
            f"{sorted(_LOG_LEVELS)}"
        )
    logging.basicConfig(level=_LOG_LEVELS[name],
                        format="%(levelname)s %(name)s: %(message)s")


def _expect(ok, where, what, value):
    """`value` when `ok`; else a ConfigError naming the key at `where`."""
    if not ok:
        raise ConfigError(f"config: {where} must be {what}, got {value!r}")
    return value


# The JSON values a key takes, by the type of its default. JSON true and
# false are never integers or numbers here.
_BY_TYPE = {
    bool: lambda v, at: _expect(isinstance(v, bool), at, "true or false", v),
    int: lambda v, at: _expect(type(v) is int, at, "an integer", v),
    float: lambda v, at: float(_expect(
        type(v) in (int, float) and math.isfinite(v), at, "a finite number", v)),
    str: lambda v, at: _expect(isinstance(v, str), at, "a string", v),
}
_text, _number = _BY_TYPE[str], _BY_TYPE[float]


def _list(value, where, item):
    _expect(isinstance(value, list), where, "a list", value)
    return tuple(item(v, f"{where}[{i}]") for i, v in enumerate(value))


def _task(value, where):
    _expect(isinstance(value, list) and len(value) == 2, where,
            "a [task, [classes...]] pair", value)
    return _text(value[0], where), _list(value[1], where, _text)


def _rule(value, where):
    _expect(isinstance(value, list) and len(value) == 5, where,
            "[task_a, class_a, task_b, class_b, probability]", value)
    return CorrelationRule(*(_text(v, where) for v in value[:4]),
                           _number(value[4], where))


def _image(value, where):
    _expect(isinstance(value, dict) and isinstance(value.get("labels"), dict),
            where, "an object with 'path' and 'labels'", value)
    _text(value.get("path"), f"{where}.path")
    for task, label in value["labels"].items():
        _expect(type(label) is int or isinstance(label, str),
                f"{where}.labels.{task}", "a class name or index", label)
    return value


# Keys whose JSON type their default does not show.
_CONVERTERS = {
    "seed": lambda v, at: _expect(type(v) is int and v >= 0, at,
                                  "an integer >= 0", v),
    "out": _text, "data": _text, "checkpoint": _text,
    "schema": lambda v, at: TagSchema(tasks=_list(v, at, _task)),
    "correlations": lambda v, at: _list(v, at, _rule),
    "class_weights": lambda v, at: {
        task: _list(w, f"{at}.{task}", _number)
        for task, w in _expect(isinstance(v, dict), at, "an object", v).items()},
    "lambdas": lambda v, at: _list(v, at, _number),
    "ratios": lambda v, at: check_ratios(_list(v, at, _number)),
    "images": lambda v, at: list(_list(v, at, _image)),
}


def _resolve(given: dict, defaults: dict, where: str) -> dict:
    unknown = sorted(set(given) - set(defaults))
    if unknown:
        raise ConfigError(f"config: unknown key(s) {unknown} in {where or 'top level'}")
    resolved = dict(defaults)
    for key, value in given.items():
        at = f"{where}.{key}" if where else key
        if key in _SECTIONS:
            resolved[key] = _resolve(value, defaults[key], at)
        else:
            convert = _CONVERTERS.get(key) or _BY_TYPE[type(defaults[key])]
            resolved[key] = convert(value, at)
    return resolved


def resolve_config(args) -> dict:
    """The run's config: the JSON file with the flags folded in, every key
    present, and every value checked against its JSON type and converted."""
    cfg = {}
    if args.config is not None:
        if not os.path.isfile(args.config):
            raise ConfigError(f"config: file not found: {args.config}")
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                cfg = json.load(fh)
            except json.JSONDecodeError as e:
                raise ConfigError(f"config: {args.config} is not valid JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config: top level must be a JSON object")
    for name in _SECTIONS:
        if not isinstance(cfg.setdefault(name, {}), dict):
            raise ConfigError(f"config: {name!r} must be an object")
    for key in ("seed", "out", "data", "checkpoint", "svg"):
        if getattr(args, key, None) is not None:
            cfg[key] = getattr(args, key)
    for key in ("heads", "variant"):
        if getattr(args, key, None) is not None:
            cfg["train"][key] = getattr(args, key)
    return _resolve(cfg, CONFIG_DEFAULTS, "")


def _section(cls, cfg: dict, name: str):
    """`cls` built from the resolved section `name` and the top-level seed."""
    return cls(seed=cfg["seed"],
               **{k: v for k, v in cfg[name].items() if k != "ratios"})


def _required(path, flag: str, exists=os.path.isfile):
    if path is None:
        raise ConfigError(f"{flag}: required (flag or config)")
    if not exists(path):
        raise ConfigError(f"{flag}: not found: {path}")
    return path


def _out_dir(cfg: dict) -> str:
    if cfg["out"] is None:
        raise ConfigError("--out: required (flag or config)")
    os.makedirs(cfg["out"], exist_ok=True)
    return cfg["out"]


def cmd_synth(args) -> int:
    cfg = resolve_config(args)
    out = _out_dir(cfg)
    config = _section(SynthConfig, cfg, "synth")
    config.validate()
    ratios = cfg["synth"]["ratios"]
    dataset = generate(config)
    if ratios is None:
        write_bags(dataset, out, config.schema)
        log.info("wrote %d bags to %s", len(dataset), out)
    else:
        parts = split(dataset, ratios, config.seed)
        for name, bags in zip(("train", "val", "test"), parts):
            if bags:
                write_bags(bags, os.path.join(out, name), config.schema)
        log.info("wrote splits %s to %s", [len(p) for p in parts], out)
    print(f"synth: {len(dataset)} bags ({config.schema.describe()}) -> {out}")
    return EXIT_OK


def _load_splits(data_dir, ratios, seed):
    sub = [os.path.join(data_dir, name) for name in ("train", "val", "test")]
    if all(os.path.isdir(p) for p in sub[:2]):
        train_bags, schema = read_bags(sub[0])
        val_bags, val_schema = read_bags(sub[1])
        if val_schema != schema:
            raise SchemaMismatchError(
                f"train/val schemas differ: [{schema.describe()}] vs "
                f"[{val_schema.describe()}]"
            )
        return train_bags, val_bags, schema
    bags, schema = read_bags(data_dir)
    train_bags, val_bags, _ = split(bags, ratios, seed)
    return train_bags, val_bags, schema


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    data_dir = _required(cfg["data"], "--data", os.path.isdir)
    out = _out_dir(cfg)
    config = _section(TrainConfig, cfg, "train")
    train_bags, val_bags, schema = _load_splits(data_dir, cfg["train"]["ratios"],
                                                config.seed)
    result = train(train_bags, val_bags, schema, config)
    ckpt_path = os.path.join(out, "checkpoint.ckpt")
    save_checkpoint(result.params, ckpt_path)
    write_history_csv(result.history, schema, os.path.join(out, "history.csv"))
    last = result.history[-1] if result.history else None
    best = (f"best epoch {result.best_epoch}"
            if result.best_epoch >= 0 else "no validation")
    loss = f"{last.train_loss:.4f}" if last else "n/a"
    print(f"train: {config.variant} heads={config.heads} epochs={config.epochs} "
          f"final_loss={loss} ({best}) -> {ckpt_path}")
    return EXIT_OK


def _load_scored(cfg: dict):
    """The checkpoint, bags, schema and output directory of eval and export."""
    ckpt = _required(cfg["checkpoint"], "--checkpoint")
    data_dir = _required(cfg["data"], "--data", os.path.isdir)
    out = _out_dir(cfg)
    params = load_checkpoint(ckpt)
    bags, schema = read_bags(data_dir)
    width = bags[0].features.shape[1]
    if params.schema != schema or width != params.dims.feature_dim:
        raise SchemaMismatchError(
            "checkpoint does not match data:\n"
            f"  checkpoint: feature_dim {params.dims.feature_dim} [{params.schema.describe()}]\n"
            f"  data:       feature_dim {width} [{schema.describe()}]"
        )
    return params, bags, schema, out


def cmd_eval(args) -> int:
    params, bags, schema, out = _load_scored(resolve_config(args))
    report = evaluate(params, bags)
    report_path = os.path.join(out, "report.json")
    with open(report_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report.to_json() + "\n")
    for task in report.tasks:
        svg = confusion_svg(task.confusion, schema.classes(task.task),
                            title=f"{task.task} (row-normalized)")
        with open(os.path.join(out, f"confusion_{task.task}.svg"), "w",
                  encoding="utf-8") as fh:
            fh.write(svg)
    print(f"eval: {len(bags)} bags avg_macro_f1={report.avg_macro_f1:.4f} "
          f"avg_micro_f1={report.avg_micro_f1:.4f} -> {report_path}")
    return EXIT_OK


def cmd_export_attention(args) -> int:
    cfg = resolve_config(args)
    params, bags, _, out = _load_scored(cfg)
    written = export_attention(params, bags, out, svg=cfg["svg"])
    print(f"export-attention: {len(bags)} bags, {len(written)} files -> {out}")
    return EXIT_OK


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call on this platform
        return os.cpu_count() or 1


def _start_on_next_cpu(counter) -> None:
    """Pool initializer: start this thread on the next CPU it may use, then
    allow them all again. Never raises: that would break the pool."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[next(counter) % len(cpus)]})
        os.sched_setaffinity(0, cpus)
    except (AttributeError, OSError):   # no affinity calls, or refused: stay put
        pass


def cmd_preprocess(args) -> int:
    cfg = resolve_config(args)
    section = cfg["preprocess"]
    out = _out_dir(cfg)
    images = section["images"]
    if not images:
        raise ConfigError("preprocess.images: at least one image entry required")
    for key, low in (("patches_per_bag", 1), ("patch_size", PATCH_SIDE),
                     ("feature_dim", 1), ("hidden_dim", 1)):
        if section[key] < low:
            raise ConfigError(f"preprocess.{key}: must be >= {low}, got {section[key]}")
    schema = section["schema"]
    count = section["patches_per_bag"]
    fparams = FeaturizerParams.initialize(hidden_dim=section["hidden_dim"],
                                          out_dim=section["feature_dim"],
                                          seed=cfg["seed"])
    jobs, stems = [], set()
    for entry in images:
        path = _required(entry["path"], "preprocess.images.path")
        stem = os.path.splitext(os.path.basename(path))[0]
        claim_bag_id(stem, stems, ConfigError, f"preprocess: image {path}")
        labels = []
        for name, classes in schema.tasks:
            value = entry["labels"].get(name)
            index = classes.index(value) if value in classes else value
            if not (type(index) is int and 0 <= index < len(classes)):
                raise SchemaMismatchError(
                    f"preprocess: image {path}: label {value!r} for task {name!r} "
                    "is missing or names no class"
                )
            labels.append(index)
        jobs.append((path, stem, tuple(labels)))

    def bag(job, stream):
        path, stem, labels = job
        feats, _ = image_to_features(read_pnm(path), count, section["patch_size"],
                                     fparams, seed=stream)
        return PatchBag(bag_id=stem, features=feats, labels=labels)

    # one image per CPU, each worker started on a CPU of its own: where load
    # balancing is off (a cpuset's `sched_load_balance` 0), a thread stays on
    # the CPU it started on. Each image has its own stream, so bytes do not
    # depend on the worker count, and map raises the first failure in config
    # order. A lone worker runs here: a thread gets its own malloc arena,
    # which keeps tens of MB it has freed and so raises the process's peak.
    streams = np.random.SeedSequence(cfg["seed"]).spawn(len(jobs))
    workers = min(len(jobs), _cpu_count())
    if workers == 1:
        bags = list(map(bag, jobs, streams))
    else:
        with ThreadPoolExecutor(max_workers=workers, initializer=_start_on_next_cpu,
                                initargs=(itertools.count(),)) as pool:
            bags = list(pool.map(bag, jobs, streams))
    write_bags(bags, out, schema)
    print(f"preprocess: {len(bags)} image(s) x {count} patches -> {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patchbag",
        description="Patch-bag multi-tag attention pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, data=False, checkpoint=False, svg=False):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override config seed")
        p.add_argument("--out", help="output directory")
        if data:
            p.add_argument("--data", help="bag directory")
        if checkpoint:
            p.add_argument("--checkpoint", help="checkpoint file")
        if svg:
            p.add_argument("--svg", action="store_true", default=None,
                           help="also emit SVG charts")

    common(sub.add_parser("synth", help="generate a synthetic bag dataset"))
    common(sub.add_parser("preprocess",
                          help="turn PPM/PGM rasters into a bag dataset"))
    p_train = sub.add_parser("train", help="train a model on a bag dataset")
    common(p_train, data=True)
    p_train.add_argument("--heads", type=int, default=None,
                         help="attention heads (0 skips the transform stage)")
    p_train.add_argument("--variant", choices=("gated", "sdpa"), default=None)
    common(sub.add_parser("eval", help="evaluate a checkpoint on a dataset"),
           data=True, checkpoint=True)
    common(sub.add_parser("export-attention",
                          help="write per-bag attention rankings"),
           data=True, checkpoint=True, svg=True)
    return parser


_HANDLERS = {
    "synth": cmd_synth,
    "preprocess": cmd_preprocess,
    "train": cmd_train,
    "eval": cmd_eval,
    "export-attention": cmd_export_attention,
}


def main(argv=None) -> int:
    try:
        _setup_logging()
        args = build_parser().parse_args(argv)
        return _HANDLERS[args.command](args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except PatchbagError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
