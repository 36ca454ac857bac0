"""Ranking metrics and offline analysis: AUC, task reports, the expert-count
sweep and the gate-weight export."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, UndefinedMetricError, prefix_data_errors
from .model import EncodedBatch, ModelConfig, MvkeModel, Task, encode_examples, split_routing

EVAL_BATCH = 1024


def auc(scores, labels) -> float:
    """Probability that a random positive outranks a random negative.

    Ties get half credit. Computed from average ranks over a single sort;
    the numerator stays integer so the result matches the quadratic
    pairwise definition exactly.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ConfigError(f"auc expects matching 1-d arrays, got {s.shape} vs {y.shape}")
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos + n_neg != len(y):
        raise UndefinedMetricError("labels must be 0 or 1")
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("auc needs at least one positive and one negative")

    order = np.argsort(s, kind="mergesort")
    sorted_scores = s[order]
    sorted_pos = (y[order] == 1)
    # doubled average rank per tie group: lo + hi + 1 in 1-based ranks
    change = np.nonzero(sorted_scores[1:] != sorted_scores[:-1])[0] + 1
    group_edges = np.concatenate(([0], change, [len(s)]))
    doubled = group_edges[:-1] + group_edges[1:] + 1
    double_rank = np.repeat(doubled, np.diff(group_edges))
    double_rank_sum = int(double_rank[sorted_pos].sum())
    return (double_rank_sum - n_pos * (n_pos + 1)) / (2 * n_pos * n_neg)


@dataclass
class EvalReport:
    model_id: str
    seed: int
    aucs: dict[Task, float]
    n_examples: dict[Task, int]
    n_positive: dict[Task, int]

    def rows(self) -> list[dict]:
        return [
            {"model": self.model_id, "seed": self.seed, "task": task.value,
             "auc": self.aucs[task], "n": self.n_examples[task],
             "n_pos": self.n_positive[task]}
            for task in self.aucs
        ]


def predict_dataset(model, batch: EncodedBatch, task: Task) -> np.ndarray:
    """Scores for every row of a pre-encoded dataset, in fixed-size chunks."""
    chunks = []
    for start in range(0, batch.size, EVAL_BATCH):
        rows = np.arange(start, min(start + EVAL_BATCH, batch.size))
        chunks.append(model.predict(batch.slice(rows), task))
    return np.concatenate(chunks)


def evaluate(model, dataset: Sequence, model_id: str | None = None,
             seed: int = 0) -> EvalReport:
    """AUC of each of ``model.tasks`` over a dataset; deterministic in (params, dataset).

    The CVR task is scored over all impressions against the conversion
    label, the same convention the training loss uses.
    """
    with prefix_data_errors("evaluation split"):
        batch = encode_examples(dataset, model.cfg.schema)
    aucs, counts, positives = {}, {}, {}
    for task in model.tasks:
        scores = predict_dataset(model, batch, task)
        labels = batch.label(task)
        aucs[task] = auc(scores, labels)
        counts[task] = batch.size
        positives[task] = int(labels.sum())
    return EvalReport(model_id or model.kind, seed, aucs, counts, positives)


def sensitivity_sweep(expert_counts: Sequence[int], train_ds: Sequence,
                      test_ds: Sequence, base_cfg: ModelConfig, train_cfg,
                      seed: int = 0) -> list[dict]:
    """Train and evaluate once per expert count, shared seed and data.

    Routing is auto-split per count. Returns one row per count with both
    task AUCs.
    """
    from .train import fit  # local import; train depends on this module

    rows = []
    for k in expert_counts:
        cfg = ModelConfig(schema=base_cfg.schema, routing=split_routing(k),
                          head_hidden=base_cfg.head_hidden, tau_init=base_cfg.tau_init)
        model = MvkeModel(cfg, seed=seed)
        fit(model, train_ds, test_ds, train_cfg)
        report = evaluate(model, test_ds, model_id=f"mvke-k{k}", seed=seed)
        rows.append({"n_experts": k,
                     "ctr_auc": report.aucs[Task.CTR],
                     "cvr_auc": report.aucs[Task.CVR]})
    return rows


def export_gate_weights(model: MvkeModel, tag_ids: Sequence[int] | None = None) -> list[dict]:
    """Per-tag gate weights for each of ``model.tasks``.

    One row per (task, tag); the weight columns cover all experts and the
    entries for experts outside the task's routing set are None (written
    as empty CSV cells). Weights are user-independent by construction.
    """
    if tag_ids is None:
        tag_ids = range(model.cfg.schema.tag_vocab_size)
    rows = []
    for task in model.tasks:
        experts = model.cfg.routing.task_experts(task)
        _, gates, _ = model.tag_side(task, list(tag_ids))
        for i, tag in enumerate(tag_ids):
            row: dict = {"task": task.value, "tag_id": int(tag)}
            for e in range(model.cfg.routing.n_experts):
                row[f"expert_{e}"] = None
            for col, e in enumerate(experts):
                row[f"expert_{e}"] = float(gates[i, col])
            rows.append(row)
    return rows


def write_csv(rows: Sequence[dict], path) -> None:
    """Write dicts as CSV under the first row's keys; None becomes an empty cell."""
    if not rows:
        Path(path).write_text("", encoding="utf-8")
        return
    names = list(rows[0])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=names, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if row.get(k) is None else row.get(k)) for k in names})
