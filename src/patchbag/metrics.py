"""Macro/Micro F1 and row-normalized confusion matrices, per tagging task.

Macro F1 is the unweighted mean of per-class F1 over every class in the
schema; a class missing from both truth and predictions has an undefined F1
that is scored as 0 and flagged. Micro F1 pools counts over classes, which
for single-label multi-class tasks equals plain accuracy.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .model import TagSchema


@dataclass
class TaskMetrics:
    task: str
    macro_f1: float
    micro_f1: float
    per_class_f1: list
    confusion: np.ndarray          # (C, C) rows = truth, row-normalized
    undefined_f1_classes: list     # absent from truth AND predictions
    absent_truth_classes: list     # all-zero confusion rows


@dataclass
class MetricsReport:
    tasks: list                    # TaskMetrics, in schema task order
    avg_macro_f1: float
    avg_micro_f1: float

    def to_dict(self):
        """Each task's fields in declaration order, the confusion as nested lists."""
        tasks = [{**vars(t), "confusion": t.confusion.tolist()} for t in self.tasks]
        return {"tasks": tasks, "avg_macro_f1": self.avg_macro_f1,
                "avg_micro_f1": self.avg_micro_f1}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def task_metrics(truth, predicted, class_names, task: str = "") -> TaskMetrics:
    """Counts-based metrics for one single-label task."""
    truth = np.asarray(truth, dtype=np.int64)
    predicted = np.asarray(predicted, dtype=np.int64)
    if truth.shape != predicted.shape or truth.ndim != 1:
        raise ContractError(
            f"task_metrics: truth {truth.shape} vs predicted {predicted.shape}"
        )
    n_classes = len(class_names)
    if truth.size and (truth.min() < 0 or truth.max() >= n_classes):
        raise ContractError(f"task_metrics: truth label out of range for {task!r}")
    if predicted.size and (predicted.min() < 0 or predicted.max() >= n_classes):
        raise ContractError(f"task_metrics: prediction out of range for {task!r}")

    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (truth, predicted), 1)

    tp = np.diag(counts).astype(np.float64)
    fn = counts.sum(axis=1) - tp
    fp = counts.sum(axis=0) - tp

    f1 = np.zeros(n_classes)
    denom = 2 * tp + fp + fn
    nz = denom > 0
    f1[nz] = 2 * tp[nz] / denom[nz]
    undefined = [class_names[c] for c in range(n_classes) if not nz[c]]

    macro = float(f1.mean())
    total = counts.sum()
    micro = float(tp.sum() / total) if total else 0.0  # pooled == accuracy here

    row_sums = counts.sum(axis=1, keepdims=True)
    confusion = np.divide(
        counts, row_sums, out=np.zeros((n_classes, n_classes)), where=row_sums > 0
    )
    absent = [class_names[c] for c in range(n_classes) if row_sums[c, 0] == 0]

    return TaskMetrics(
        task=task,
        macro_f1=macro,
        micro_f1=micro,
        per_class_f1=[float(v) for v in f1],
        confusion=confusion,
        undefined_f1_classes=undefined,
        absent_truth_classes=absent,
    )


def build_report(schema: TagSchema, truths, predictions) -> MetricsReport:
    """Per-task metrics plus cross-task averages.

    truths/predictions: arrays of shape (n_bags, n_tasks) of class indices.
    """
    truths = np.asarray(truths, dtype=np.int64)
    predictions = np.asarray(predictions, dtype=np.int64)
    tasks = []
    for k, (name, classes) in enumerate(schema.tasks):
        tasks.append(task_metrics(truths[:, k], predictions[:, k], classes, task=name))
    return MetricsReport(
        tasks=tasks,
        avg_macro_f1=float(np.mean([t.macro_f1 for t in tasks])),
        avg_micro_f1=float(np.mean([t.micro_f1 for t in tasks])),
    )
