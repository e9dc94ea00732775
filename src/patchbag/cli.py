"""Single executable for the whole pipeline.

Subcommands: synth, preprocess, train, eval, export-attention. Every run is
driven by an optional JSON config file plus flags (flags win). Exit codes
are a stable scripting contract: 0 success, 2 configuration, 3 I/O,
4 numeric or data-integrity failure.
"""

import argparse
import json
import logging
import os
import sys

import numpy as np

from .bagio import read_bags, write_bags
from .errors import (
    ConfigError,
    ContractError,
    DegenerateHistogramError,
    DimensionError,
    EmptyBagError,
    InsufficientForegroundError,
    IntegrityError,
    NumericError,
    ParseError,
    SchemaMismatchError,
    SizeError,
)
from .model import DEFAULT_SCHEMA, TagSchema, load_checkpoint, save_checkpoint
from .plots import confusion_svg
from .preprocess import FeaturizerParams, image_to_features, read_pnm
from .synth import CorrelationRule, PatchBag, SynthConfig, generate, split
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

_TOP_KEYS = {"seed", "out", "data", "checkpoint", "svg",
             "synth", "train", "preprocess"}
_SYNTH_KEYS = {"schema", "feature_dim", "patches_per_bag", "n_bags",
               "signal_fraction", "noise_std", "correlations", "class_weights",
               "ratios"}
_TRAIN_KEYS = {"lr", "beta1", "beta2", "epsilon", "lambdas", "epochs",
               "batch_size", "variant", "heads", "attn_hidden", "tag_hidden",
               "ratios"}
_PREPROCESS_KEYS = {"images", "schema", "patches_per_bag", "patch_size",
                    "feature_dim", "hidden_dim"}


def _setup_logging() -> None:
    name = os.environ.get("PATCHBAG_LOG", "warn").lower()
    if name not in _LOG_LEVELS:
        raise ConfigError(
            f"PATCHBAG_LOG: unknown level {name!r}, expected one of "
            f"{sorted(_LOG_LEVELS)}"
        )
    logging.basicConfig(level=_LOG_LEVELS[name],
                        format="%(levelname)s %(name)s: %(message)s")


def _check_keys(section: dict, allowed, where: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"config: unknown key(s) {unknown} in {where}")


def load_config(path) -> dict:
    if path is None:
        return {}
    if not os.path.isfile(path):
        raise ConfigError(f"config: file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config: {path} is not valid JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config: top level must be a JSON object")
    _check_keys(cfg, _TOP_KEYS, "top level")
    for name, keys in (("synth", _SYNTH_KEYS), ("train", _TRAIN_KEYS),
                       ("preprocess", _PREPROCESS_KEYS)):
        section = cfg.get(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"config: {name!r} must be an object")
        _check_keys(section, keys, f"section {name!r}")
    return cfg


def _schema_from_json(spec) -> TagSchema:
    if spec is None:
        return DEFAULT_SCHEMA
    try:
        tasks = tuple((name, tuple(classes)) for name, classes in spec)
    except (TypeError, ValueError):
        raise ConfigError(
            "config: schema must be a list of [task, [classes...]] pairs"
        ) from None
    return TagSchema(tasks=tasks)


def _synth_config(cfg: dict, seed: int) -> SynthConfig:
    section = cfg.get("synth", {})
    rules = []
    for item in section.get("correlations", []):
        if len(item) != 5:
            raise ConfigError(
                "config: correlations entries are [task_a, class_a, task_b, "
                "class_b, probability]"
            )
        rules.append(CorrelationRule(item[0], item[1], item[2], item[3],
                                     float(item[4])))
    config = SynthConfig(
        schema=_schema_from_json(section.get("schema")),
        feature_dim=int(section.get("feature_dim", 64)),
        patches_per_bag=int(section.get("patches_per_bag", 32)),
        n_bags=int(section.get("n_bags", 100)),
        signal_fraction=float(section.get("signal_fraction", 0.25)),
        noise_std=float(section.get("noise_std", 0.25)),
        correlations=tuple(rules),
        class_weights=section.get("class_weights", {}),
        seed=seed,
    )
    config.validate()
    return config


def _train_config(cfg: dict, args) -> TrainConfig:
    section = cfg.get("train", {})
    config = TrainConfig(
        lr=float(section.get("lr", 1e-4)),
        beta1=float(section.get("beta1", 0.9)),
        beta2=float(section.get("beta2", 0.999)),
        epsilon=float(section.get("epsilon", 1e-8)),
        lambdas=tuple(section["lambdas"]) if "lambdas" in section else None,
        epochs=int(section.get("epochs", 50)),
        batch_size=int(section.get("batch_size", 8)),
        seed=_seed(cfg, args),
        variant=section.get("variant", "gated"),
        heads=int(section.get("heads", 3)),
        attn_hidden=int(section.get("attn_hidden", 32)),
        tag_hidden=int(section.get("tag_hidden", 32)),
    )
    if getattr(args, "variant", None) is not None:
        config.variant = args.variant
    if getattr(args, "heads", None) is not None:
        config.heads = args.heads
    return config


def _seed(cfg: dict, args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    return int(cfg.get("seed", 0))


def _required_dir(path, flag: str):
    if path is None:
        raise ConfigError(f"{flag}: required (flag or config)")
    if not os.path.isdir(path):
        raise ConfigError(f"{flag}: directory not found: {path}")
    return path


def _required_file(path, flag: str):
    if path is None:
        raise ConfigError(f"{flag}: required (flag or config)")
    if not os.path.isfile(path):
        raise ConfigError(f"{flag}: file not found: {path}")
    return path


def _out_dir(cfg: dict, args) -> str:
    out = getattr(args, "out", None) or cfg.get("out")
    if out is None:
        raise ConfigError("--out: required (flag or config)")
    os.makedirs(out, exist_ok=True)
    return out


def _ratios(section: dict):
    if "ratios" not in section:
        return None
    ratios = section["ratios"]
    if (not isinstance(ratios, (list, tuple)) or len(ratios) != 3
            or abs(sum(float(r) for r in ratios) - 1.0) > 1e-9
            or any(float(r) < 0 for r in ratios)):
        raise ConfigError(
            f"ratios: need 3 non-negative values summing to 1, got {ratios!r}"
        )
    return tuple(float(r) for r in ratios)


def cmd_synth(args) -> int:
    cfg = load_config(args.config)
    seed = _seed(cfg, args)
    out = _out_dir(cfg, args)
    config = _synth_config(cfg, seed)
    ratios = _ratios(cfg.get("synth", {}))
    dataset = generate(config)
    if ratios is None:
        write_bags(dataset, out, config.schema)
        log.info("wrote %d bags to %s", len(dataset), out)
    else:
        parts = split(dataset, ratios, seed)
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
    train_bags, val_bags, _ = split(bags, ratios or (0.72, 0.08, 0.20), seed)
    return train_bags, val_bags, schema


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    data_dir = _required_dir(getattr(args, "data", None) or cfg.get("data"), "--data")
    out = _out_dir(cfg, args)
    config = _train_config(cfg, args)
    ratios = _ratios(cfg.get("train", {}))
    train_bags, val_bags, schema = _load_splits(data_dir, ratios, config.seed)
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


def _check_schema_match(params, schema) -> None:
    if params.schema != schema:
        raise SchemaMismatchError(
            "checkpoint schema does not match data schema:\n"
            f"  checkpoint: [{params.schema.describe()}]\n"
            f"  data:       [{schema.describe()}]"
        )


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    ckpt = _required_file(getattr(args, "checkpoint", None) or cfg.get("checkpoint"),
                          "--checkpoint")
    data_dir = _required_dir(getattr(args, "data", None) or cfg.get("data"), "--data")
    out = _out_dir(cfg, args)
    params = load_checkpoint(ckpt)
    bags, schema = read_bags(data_dir)
    _check_schema_match(params, schema)
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
    cfg = load_config(args.config)
    ckpt = _required_file(getattr(args, "checkpoint", None) or cfg.get("checkpoint"),
                          "--checkpoint")
    data_dir = _required_dir(getattr(args, "data", None) or cfg.get("data"), "--data")
    out = _out_dir(cfg, args)
    svg = bool(args.svg or cfg.get("svg", False))
    params = load_checkpoint(ckpt)
    bags, schema = read_bags(data_dir)
    _check_schema_match(params, schema)
    written = export_attention(params, bags, out, svg=svg)
    print(f"export-attention: {len(bags)} bags, {len(written)} files -> {out}")
    return EXIT_OK


def cmd_preprocess(args) -> int:
    cfg = load_config(args.config)
    section = cfg.get("preprocess", {})
    seed = _seed(cfg, args)
    out = _out_dir(cfg, args)
    images = section.get("images")
    if not images:
        raise ConfigError("preprocess.images: at least one image entry required")
    schema = _schema_from_json(section.get("schema"))
    count = int(section.get("patches_per_bag", 32))
    patch_size = int(section.get("patch_size", 512))
    fparams = FeaturizerParams.initialize(
        hidden_dim=int(section.get("hidden_dim", 128)),
        out_dim=int(section.get("feature_dim", 64)),
        seed=seed,
    )
    bags = []
    streams = np.random.SeedSequence(seed).spawn(len(images))
    for entry, stream in zip(images, streams):
        if "path" not in entry or "labels" not in entry:
            raise ConfigError("preprocess.images: entries need 'path' and 'labels'")
        path = _required_file(entry["path"], "preprocess.images.path")
        labels = []
        for name, classes in schema.tasks:
            if name not in entry["labels"]:
                raise SchemaMismatchError(
                    f"preprocess: image {path} missing label for task {name!r}"
                )
            value = entry["labels"][name]
            if isinstance(value, str):
                if value not in classes:
                    raise SchemaMismatchError(
                        f"preprocess: unknown class {value!r} for task {name!r}"
                    )
                labels.append(classes.index(value))
            else:
                labels.append(int(value))
        image = read_pnm(path)
        feats, _ = image_to_features(image, count, patch_size, fparams, seed=stream)
        stem = os.path.splitext(os.path.basename(path))[0]
        bags.append(PatchBag(bag_id=stem, features=feats, labels=tuple(labels)))
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
            p.add_argument("--svg", action="store_true", help="also emit SVG charts")

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
    except (SchemaMismatchError, ConfigError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParseError, IntegrityError, NumericError, DimensionError,
            EmptyBagError, SizeError, ContractError,
            InsufficientForegroundError, DegenerateHistogramError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
