"""Seeded synthetic patch-bag datasets with planted per-task signal.

Each (task, class) pair gets a fixed unit prototype vector. Every bag draws
one label per task, then plants ceil(signal_fraction * M) signal patches per
task (prototype plus gaussian noise) on task-specific patch slots assigned
round-robin, leaving the rest pure noise. Different tasks therefore light up
different patches, which is exactly what per-task attention pooling should
discover.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .model import DEFAULT_SCHEMA, TagSchema


@dataclass
class PatchBag:
    """One bag: M patch feature rows plus one class index per task."""

    bag_id: str
    features: np.ndarray            # (M, D) float64
    labels: tuple                   # one class index per task

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or min(self.features.shape) < 1:
            raise ConfigError(
                f"bag {self.bag_id!r}: features must be (M >= 1, D >= 1), "
                f"got {self.features.shape}"
            )
        if not np.all(np.isfinite(self.features)):
            raise ConfigError(f"bag {self.bag_id!r}: features contain NaN/Inf")
        self.labels = tuple(int(v) for v in self.labels)

    @property
    def n_patches(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class CorrelationRule:
    """If a bag's `task_a` label is `class_a`, force task_b to class_b w.p. p."""

    task_a: str
    class_a: str
    task_b: str
    class_b: str
    probability: float


@dataclass
class SynthConfig:
    schema: TagSchema = DEFAULT_SCHEMA
    feature_dim: int = 64
    patches_per_bag: int = 32
    n_bags: int = 100
    signal_fraction: float = 0.25
    noise_std: float = 0.25
    correlations: tuple = ()
    class_weights: dict = field(default_factory=dict)  # task -> per-class weights
    seed: int = 0

    def validate(self) -> None:
        if self.seed < 0:
            raise ConfigError("synth: seed must be >= 0")
        if self.feature_dim < 1:
            raise ConfigError("synth: feature_dim must be >= 1")
        if self.patches_per_bag < 1:
            raise ConfigError("synth: patches_per_bag must be >= 1")
        if self.n_bags < 1:
            raise ConfigError("synth: n_bags must be >= 1")
        if not (0.0 < self.signal_fraction <= 1.0):
            raise ConfigError("synth: signal_fraction must be in (0, 1]")
        if self.noise_std <= 0.0:
            raise ConfigError("synth: noise_std must be > 0")
        per_task = math.ceil(self.signal_fraction * self.patches_per_bag)
        if per_task * self.schema.n_tasks > self.patches_per_bag:
            raise ConfigError(
                "synth: signal patches must be distinct per task, but "
                f"{self.schema.n_tasks} tasks x {per_task} signal patches "
                f"exceed patches_per_bag={self.patches_per_bag}"
            )
        for rule in self.correlations:
            if not (0.0 <= rule.probability <= 1.0):
                raise ConfigError("synth: correlation probability must be in [0, 1]")
            for task, cls in ((rule.task_a, rule.class_a), (rule.task_b, rule.class_b)):
                try:
                    classes = self.schema.classes(task)
                except KeyError:
                    raise ConfigError(f"synth: correlation names unknown task {task!r}") from None
                if cls not in classes:
                    raise ConfigError(
                        f"synth: correlation names unknown class {cls!r} in task {task!r}"
                    )
        for task, weights in self.class_weights.items():
            try:
                classes = self.schema.classes(task)
            except KeyError:
                raise ConfigError(f"synth: class_weights names unknown task {task!r}") from None
            if len(weights) != len(classes):
                raise ConfigError(f"synth: class_weights for {task!r} has wrong length")
            if any(w < 0 for w in weights) or sum(weights) <= 0:
                raise ConfigError(f"synth: class_weights for {task!r} must be >= 0, sum > 0")


@dataclass
class SynthTrace:
    """Generation bookkeeping used by oracles: prototypes and signal slots."""

    prototypes: dict                # task name -> (n_classes, D) array
    signal_patches: list            # per bag: dict task name -> index array


def _signal_slots(n_tasks: int, per_task: int):
    """Round-robin patch indices: task k owns k, k+K, k+2K, ..."""
    return [
        np.array([k + j * n_tasks for j in range(per_task)], dtype=np.int64)
        for k in range(n_tasks)
    ]


def generate_with_trace(config: SynthConfig):
    """Deterministic dataset plus the trace describing how it was planted."""
    config.validate()
    schema = config.schema
    root = np.random.SeedSequence(config.seed)
    proto_ss, label_ss, noise_ss = root.spawn(3)

    proto_rng = np.random.default_rng(proto_ss)
    prototypes = {}
    support = max(2, config.feature_dim // 4)
    for name, classes in schema.tasks:
        # sparse nonnegative unit prototypes: each class lights up its own
        # small coordinate subset. Nonnegative mirrors post-ReLU patch
        # features (so downstream rectification keeps the signal); sparse
        # keeps class supports nearly disjoint, so margins stay wide.
        vecs = np.zeros((len(classes), config.feature_dim))
        for c in range(len(classes)):
            coords = proto_rng.choice(config.feature_dim, size=support,
                                      replace=False)
            vecs[c, coords] = np.abs(proto_rng.standard_normal(support))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        prototypes[name] = vecs

    per_task = math.ceil(config.signal_fraction * config.patches_per_bag)
    slots = _signal_slots(schema.n_tasks, per_task)
    weights = []
    for name, classes in schema.tasks:
        w = config.class_weights.get(name)
        if w is None:
            weights.append(None)
        else:
            w = np.asarray(w, dtype=np.float64)
            weights.append(w / w.sum())

    width = max(5, len(str(config.n_bags - 1)))
    label_streams = label_ss.spawn(config.n_bags)
    noise_streams = noise_ss.spawn(config.n_bags)

    def build_bag(i: int) -> PatchBag:
        lrng = np.random.default_rng(label_streams[i])
        labels = []
        for k, (name, classes) in enumerate(schema.tasks):
            if weights[k] is None:
                labels.append(int(lrng.integers(len(classes))))
            else:
                labels.append(int(lrng.choice(len(classes), p=weights[k])))
        for rule in config.correlations:
            ka = schema.task_names.index(rule.task_a)
            kb = schema.task_names.index(rule.task_b)
            if labels[ka] == schema.classes(rule.task_a).index(rule.class_a):
                if lrng.random() < rule.probability:
                    labels[kb] = schema.classes(rule.task_b).index(rule.class_b)

        nrng = np.random.default_rng(noise_streams[i])
        feats = nrng.normal(0.0, config.noise_std,
                            (config.patches_per_bag, config.feature_dim))
        for k, name in enumerate(schema.task_names):
            feats[slots[k]] += prototypes[name][labels[k]]
        return PatchBag(bag_id=f"bag{i:0{width}d}", features=feats,
                        labels=tuple(labels))

    bags = [build_bag(i) for i in range(config.n_bags)]
    traces = [
        {name: slots[k].copy() for k, name in enumerate(schema.task_names)}
        for _ in range(config.n_bags)
    ]
    return bags, SynthTrace(prototypes=prototypes, signal_patches=traces)


def generate(config: SynthConfig):
    """Deterministic dataset of labeled patch bags."""
    bags, _ = generate_with_trace(config)
    return bags


def check_ratios(ratios):
    """(train, val, test) fractions as floats: three, non-negative, summing to 1."""
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3:
        raise ConfigError(f"ratios: expected 3 values, got {len(ratios)}")
    if any(r < 0 for r in ratios):
        raise ConfigError(f"ratios: must be non-negative, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"ratios: must sum to 1, got {ratios} (sum {sum(ratios)})")
    return ratios


def split(dataset, ratios=(0.72, 0.08, 0.20), seed: int = 0):
    """Seeded disjoint (train, val, test) partition.

    Default ratios reproduce an 80/20 train/test split with 10% of the
    training side held out for validation.
    """
    ratios = check_ratios(ratios)
    n = len(dataset)
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(round(ratios[0] * n))
    n_val = min(int(round(ratios[1] * n)), n - n_train)
    train = [dataset[i] for i in order[:n_train]]
    val = [dataset[i] for i in order[n_train:n_train + n_val]]
    test = [dataset[i] for i in order[n_train + n_val:]]
    return train, val, test
