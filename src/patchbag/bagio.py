"""On-disk bag directory format.

A dataset directory holds exactly two files:

  manifest      UTF-8 text: format version, schema, then one line per bag
                with id, patch count, byte offset and task=label pairs
  features.bin  every bag's (M, D) feature matrix as little-endian float64,
                row-major, concatenated in manifest order

The round trip is bit-exact; offsets and file length are cross-checked so
truncation or padding is detected and reported per bag.
"""

import os

import numpy as np

from .errors import ConfigError, IntegrityError, ParseError, SchemaMismatchError
from .model import TagSchema, count_line, header_int, parse_schema_lines
from .synth import PatchBag

BAGS_MAGIC = "patchbag-bags"
BAGS_VERSION = 1
BLOB_NAME = "features.bin"
MANIFEST_NAME = "manifest"


_ID_RULE = "must be non-empty and hold only letters, digits, '-', '_' and '.'"


def _id_is_file_name(bag_id) -> bool:
    """Manifests store ids as whitespace-split tokens, and export-attention
    writes one file per id, named after it unchanged."""
    return (isinstance(bag_id, str) and bag_id != ""
            and all(c.isalnum() or c in "-_." for c in bag_id))


def write_bags(dataset, directory, schema: TagSchema) -> None:
    if not dataset:
        raise ConfigError("write_bags: empty dataset")
    feature_dim = dataset[0].features.shape[1]
    os.makedirs(directory, exist_ok=True)

    lines = [
        f"{BAGS_MAGIC} {BAGS_VERSION}",
        f"feature_dim {feature_dim}",
    ]
    lines.extend(schema.manifest_lines())
    lines.append(f"bags {len(dataset)}")

    offset = 0
    chunks = []
    seen = set()
    for bag in dataset:
        if not _id_is_file_name(bag.bag_id):
            raise ConfigError(f"write_bags: bag id {bag.bag_id!r} {_ID_RULE}")
        if bag.bag_id in seen:
            raise ConfigError(f"write_bags: duplicate bag id {bag.bag_id!r}")
        seen.add(bag.bag_id)
        if bag.features.shape[1] != feature_dim:
            raise SchemaMismatchError(
                f"write_bags: bag {bag.bag_id!r} has feature dim "
                f"{bag.features.shape[1]}, dataset uses {feature_dim}"
            )
        if len(bag.labels) != schema.n_tasks:
            raise SchemaMismatchError(
                f"write_bags: bag {bag.bag_id!r} has {len(bag.labels)} labels, "
                f"schema has {schema.n_tasks} tasks"
            )
        pairs = " ".join(
            f"{name}={label}" for name, label in zip(schema.task_names, bag.labels)
        )
        lines.append(
            f"bag {bag.bag_id} patches={bag.n_patches} offset={offset} {pairs}"
        )
        blob = np.ascontiguousarray(bag.features, dtype="<f8").tobytes()
        chunks.append(blob)
        offset += len(blob)
    lines.append("end")

    with open(os.path.join(directory, MANIFEST_NAME), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(directory, BLOB_NAME), "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)


def read_bags(directory):
    """Load a bag directory; returns (bags, schema)."""
    path = os.path.join(directory, MANIFEST_NAME)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except UnicodeDecodeError:
        raise ParseError(f"{path}: manifest is not UTF-8") from None
    if not lines or lines[0].split() != [BAGS_MAGIC, str(BAGS_VERSION)]:
        raise ParseError(f"{path}: missing or unsupported magic line")
    if lines[-1] == "":
        lines.pop()
    if not lines or lines[-1] != "end":
        raise ParseError(f"{path}: missing 'end' line")
    body = lines[1:-1]

    def header(i):
        return body[i] if i < len(body) else ""

    feature_dim = count_line(path, header(0), "feature_dim")
    n_schema_lines = 1 + count_line(path, header(1), "tasks")
    schema = parse_schema_lines(body[1:1 + n_schema_lines], path=path)
    n_bags = count_line(path, header(1 + n_schema_lines), "bags")
    bag_lines = body[2 + n_schema_lines:]
    if len(bag_lines) != n_bags:
        raise ParseError(
            f"{path}: manifest declares {n_bags} bags but lists {len(bag_lines)}"
        )

    blob_path = os.path.join(directory, BLOB_NAME)
    with open(blob_path, "rb") as fh:
        blob = fh.read()

    known = set(schema.task_names)
    ids = set()
    bags = []
    for line in bag_lines:
        toks = line.split()
        if len(toks) < 4 or toks[0] != "bag":
            raise ParseError(f"{path}: bad bag line {line!r}")
        bag_id = toks[1]
        if not _id_is_file_name(bag_id):
            raise ParseError(f"{path}: bag id {bag_id!r} {_ID_RULE}")
        if bag_id in ids:
            raise ParseError(f"{path}: duplicate bag id {bag_id!r}")
        ids.add(bag_id)
        fields = dict(t.split("=", 1) for t in toks[2:] if "=" in t)
        if len(fields) != len(toks) - 2:
            raise ParseError(f"{path}: bad or repeated key=value in line {line!r}")
        n_patches = header_int(path, fields.pop("patches", ""), f"bag {bag_id} patches")
        if n_patches < 1:
            raise ParseError(f"{path}: bag {bag_id!r} declares patches=0")
        offset = header_int(path, fields.pop("offset", ""), f"bag {bag_id} offset")

        labels = [None] * schema.n_tasks
        for task, value in fields.items():
            if task not in known:
                raise SchemaMismatchError(
                    f"{path}: bag {bag_id!r} labels unknown task {task!r} "
                    f"(schema tasks: {', '.join(schema.task_names)})"
                )
            idx = schema.task_index(task)
            label = header_int(path, value, f"bag {bag_id} {task}")
            if not (0 <= label < len(schema.classes(task))):
                raise SchemaMismatchError(
                    f"{path}: bag {bag_id!r} label {label} out of range for "
                    f"task {task!r}"
                )
            labels[idx] = label
        if any(v is None for v in labels):
            raise SchemaMismatchError(
                f"{path}: bag {bag_id!r} is missing a label for some task"
            )

        count = n_patches * feature_dim
        end = offset + count * 8
        if end > len(blob):
            raise IntegrityError(
                f"{blob_path}: bag {bag_id!r} needs bytes [{offset}, {end}) but "
                f"blob has {len(blob)}"
            )
        feats = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        bags.append(PatchBag(
            bag_id=bag_id,
            features=np.ascontiguousarray(
                feats.reshape(n_patches, feature_dim), dtype=np.float64),
            labels=tuple(labels),
        ))

    expected_total = sum(b.n_patches for b in bags) * feature_dim * 8
    if len(blob) != expected_total:
        raise IntegrityError(
            f"{blob_path}: blob is {len(blob)} bytes, manifest accounts for "
            f"{expected_total}"
        )
    return bags, schema
