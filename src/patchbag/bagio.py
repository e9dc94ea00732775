"""On-disk bag directory format.

A dataset directory holds exactly two files:

  manifest      UTF-8 text: format version, feature_dim, schema, bag count,
                then one `bag ID patches=M offset=O task=label ...` line per
                bag, its labels in schema task order, and an `end` line
  features.bin  every bag's (M, D) feature matrix as little-endian float64,
                row-major, concatenated in manifest order

A bag's offset is the running byte total of the bags before it.
`_header_lines` and `_bag_line` render the lines `write_bags` writes, and
`read_bags` accepts the header only if it is the one `_header_lines` renders
from its feature_dim, schema and bag count, and a bag line only if it is the
one `_bag_line` renders from its id, patch count, labels and running offset;
any other manifest, and one of no bags, is a ParseError. A blob shorter or
longer than the bags' bytes, or holding a NaN or Inf, is an IntegrityError.
`read_bags` reads features.bin once into one array and gives each bag a
writeable view of its rows; the round trip is bit-exact. `check_bags` is
the one rule for a bag set's contents (one feature width, a class index of
each task per bag); `write_bags`, `read_bags` and `train` (over train and
val together) apply it, and ids are `claim_bag_id`'s.
"""

import os

import numpy as np

from .errors import ConfigError, IntegrityError, ParseError
from .model import TagSchema, count_line, header_int, parse_schema_lines
from .synth import PatchBag

BAGS_MAGIC = "patchbag-bags"
BAGS_VERSION = 1
BLOB_NAME = "features.bin"
MANIFEST_NAME = "manifest"


_ID_RULE = "must be non-empty and hold only letters, digits, '-', '_' and '.'"


def claim_bag_id(bag_id, seen, error, where) -> None:
    """Add `bag_id` to the set `seen`, or raise `error` naming `where` when it
    breaks the id rule or is in `seen` already. Manifests store ids as
    whitespace-split tokens, and export-attention writes one file per id,
    named after it unchanged."""
    if not (isinstance(bag_id, str) and bag_id != ""
            and all(c.isalnum() or c in "-_." for c in bag_id)):
        raise error(f"{where}: bag id {bag_id!r} {_ID_RULE}")
    if bag_id in seen:
        raise error(f"{where}: duplicate bag id {bag_id!r}")
    seen.add(bag_id)


def check_bags(bags, schema: TagSchema, error, where) -> None:
    """Raise `error` naming `where` unless every bag has the first bag's
    feature width and one label per task, each a class index of that task."""
    counts = schema.class_counts
    for bag in bags:
        width = bags[0].features.shape[1]
        if bag.features.shape[1] != width:
            raise error(f"{where}: bag {bag.bag_id!r} has feature width "
                        f"{bag.features.shape[1]}, the first bag {width}")
        if len(bag.labels) != len(counts):
            raise error(f"{where}: bag {bag.bag_id!r} has {len(bag.labels)} labels, "
                        f"the schema has {len(counts)} tasks")
        for k, label in enumerate(bag.labels):
            if not 0 <= label < counts[k]:
                raise error(f"{where}: bag {bag.bag_id!r} label {label!r} is not "
                            f"a class of task {schema.task_names[k]!r}")


def _bag_line(schema: TagSchema, bag_id, patches, offset, labels) -> str:
    pairs = " ".join(f"{name}={label}" for name, label in zip(schema.task_names, labels))
    return f"bag {bag_id} patches={patches} offset={offset} {pairs}"


def _header_lines(feature_dim, schema: TagSchema, n_bags) -> list:
    return [f"{BAGS_MAGIC} {BAGS_VERSION}", f"feature_dim {feature_dim}",
            *schema.manifest_lines(), f"bags {n_bags}"]


def write_bags(dataset, directory, schema: TagSchema) -> None:
    if not dataset:
        raise ConfigError("write_bags: empty dataset")
    check_bags(dataset, schema, ConfigError, "write_bags")
    lines = _header_lines(dataset[0].features.shape[1], schema, len(dataset))
    offset = 0
    seen = set()
    for bag in dataset:
        claim_bag_id(bag.bag_id, seen, ConfigError, "write_bags")
        lines.append(_bag_line(schema, bag.bag_id, bag.n_patches, offset, bag.labels))
        offset += bag.features.nbytes
    lines.append("end")

    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, MANIFEST_NAME), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(directory, BLOB_NAME), "wb") as fh:
        for bag in dataset:
            fh.write(np.ascontiguousarray(bag.features, dtype="<f8"))


def read_bags(directory):
    """Load a bag directory; returns (bags, schema). Each bag's features are a
    writeable (M, D) view of the one array read from features.bin."""
    path = os.path.join(directory, MANIFEST_NAME)
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError:
        raise ParseError(f"{path}: manifest is not UTF-8") from None
    if lines[0] != f"{BAGS_MAGIC} {BAGS_VERSION}":
        raise ParseError(f"{path}: missing or unsupported magic line")
    if lines[-2:] != ["end", ""]:
        raise ParseError(f"{path}: missing 'end' line")
    it = iter(lines[1:-2])
    feature_dim = count_line(path, next(it, ""), "feature_dim")
    if feature_dim < 1:
        raise ParseError(f"{path}: feature_dim {feature_dim}: must be >= 1")
    schema = parse_schema_lines(it, path=path)
    n_bags = count_line(path, next(it, ""), "bags")
    if n_bags < 1:
        raise ParseError(f"{path}: bags {n_bags}: must be >= 1")
    for got, want in zip(lines, _header_lines(feature_dim, schema, n_bags)):
        if got != want:
            raise ParseError(f"{path}: header line {got!r} should read {want!r}")
    bag_lines = list(it)
    if len(bag_lines) != n_bags:
        raise ParseError(
            f"{path}: manifest declares {n_bags} bags but lists {len(bag_lines)}"
        )

    blob_path = os.path.join(directory, BLOB_NAME)
    size = os.path.getsize(blob_path)
    blob = np.fromfile(blob_path, dtype="<f8")      # a partial last float is dropped
    ids = set()
    bags = []
    offset = 0
    for line in bag_lines:
        toks = line.split(" ")
        if len(toks) != 4 + len(schema.task_names) or toks[0] != "bag":
            raise ParseError(
                f"{path}: bad bag line {line!r}: expected 'bag ID patches=M "
                f"offset=O' then one task=label for each of "
                f"{', '.join(schema.task_names)}, in order, none missing or repeated"
            )
        bag_id = toks[1]
        claim_bag_id(bag_id, ids, ParseError, path)
        # patches and labels are read; the offset is the bags' running total
        n_patches, *labels = (header_int(path, tok.partition("=")[2], f"bag {bag_id} {tok}")
                              for tok in toks[2:3] + toks[4:])
        want = _bag_line(schema, bag_id, n_patches, offset, labels)
        if line != want:
            got, field = next((g, w) for g, w in zip(toks, want.split(" ")) if g != w)
            raise ParseError(f"{path}: bag {bag_id!r}: {got!r} should read {field!r}")
        if n_patches < 1:
            raise ParseError(f"{path}: bag {bag_id!r} declares patches=0")

        start, offset = offset, offset + 8 * n_patches * feature_dim
        if offset > size:
            raise IntegrityError(
                f"{blob_path}: bag {bag_id!r} needs bytes [{start}, {offset}) "
                f"but blob has {size}"
            )
        feats = blob[start // 8:offset // 8].reshape(n_patches, feature_dim)
        try:
            bags.append(PatchBag(bag_id=bag_id, features=feats, labels=tuple(labels)))
        except ConfigError as e:        # the shape is sound: a NaN or Inf
            raise IntegrityError(f"{blob_path}: {e}") from None
    check_bags(bags, schema, ParseError, path)

    if size != offset:
        raise IntegrityError(
            f"{blob_path}: blob is {size} bytes, manifest accounts for {offset}"
        )
    return bags, schema
