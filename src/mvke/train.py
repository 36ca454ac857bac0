"""Multi-task training: joint loss, Adam, the fit loop and the expert-count sweep."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import diffgraph as dg
from .diffgraph import Tensor
from .errors import ConfigError, NumericsError, TrainingDivergenceError, prefix_data_errors
from .evaluation import auc, evaluate, predict_dataset, require_both_labels
from .model import (EncodedBatch, ModelConfig, MvkeModel, Task, TASKS, _names, encode_examples,
                    mixture, split_routing, two_tower_forward)

MODES = ("ctr-only", "cvr-only", "multi")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 256
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    mode: str = "multi"

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        # 0 is allowed as an explicit no-update dry run
        if self.learning_rate < 0:
            raise ConfigError("learning_rate must not be negative")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        # Adam divides by sqrt(v) + eps, and v is 0 wherever no gradient arrived yet
        if not self.eps > 0:
            raise ConfigError("eps must be > 0")
        # 1 freezes a moment at 0 and divides by 1 - beta**t = 0; a negative beta flips its sign
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)!r}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")


def mode_tasks(mode: str) -> tuple[Task, ...]:
    if mode == "ctr-only":
        return (Task.CTR,)
    if mode == "cvr-only":
        return (Task.CVR,)
    return TASKS


def mtl_loss(batch: EncodedBatch, cfg: ModelConfig, params: dict[str, Tensor],
             mode: str = "multi") -> Tensor:
    """Joint loss: unweighted sum of the per-task BCE losses, one ``bce_loss`` node.

    Both tasks consume every impression in the batch with their own label;
    single-task modes return that task's BCE alone.
    """
    if mode == "multi":
        cfg.routing.check_multi_task()
    tasks = mode_tasks(mode)
    probs, _ = mixture(batch, cfg.schema, params, cfg.routing)
    if tasks != TASKS:
        probs = dg.gather_rows(probs, [TASKS.index(task) for task in tasks])
    return dg.bce_loss(probs, np.stack([batch.label(task) for task in tasks]))


class Adam:
    """Standard Adam with bias correction; zeroes grads after each step.

    The constructor moves every parameter into one flat buffer and rebinds
    each tensor's ``data`` to its named view of it, so a step is a few vector
    ops over all parameters at once. A parameter without a gradient takes a
    zero one; one that never gets a gradient (the other task's tower in a
    single-task fit) keeps zero moments and never moves.
    """

    def __init__(self, params: dict[str, Tensor], learning_rate: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.learning_rate = learning_rate
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        dtypes = {t.data.dtype for t in params.values()}
        if len(dtypes) > 1:
            raise ConfigError(f"Adam needs parameters of one dtype, got {sorted(map(str, dtypes))}")
        self.flat = np.concatenate([t.data.reshape(-1) for t in params.values()])
        self.grad = np.zeros_like(self.flat)
        self.first_moment = np.zeros_like(self.flat)
        self.second_moment = np.zeros_like(self.flat)
        self.views: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        offset = 0
        for name, tensor in params.items():
            end = offset + tensor.size
            tensor.data = self.flat[offset:end].reshape(tensor.shape)
            self.views[name] = (tensor.data, self.grad[offset:end].reshape(tensor.shape))
            offset = end

    def _first_non_finite(self, part: int) -> str:
        """Name of the first parameter whose data (``part`` 0) or gradient (1) is not finite."""
        return next(name for name, arrays in self.views.items()
                    if not np.isfinite(arrays[part]).all())

    def step(self, params: dict[str, Tensor]) -> None:
        for name, tensor in params.items():
            grad_view = self.views[name][1]
            if tensor.grad is None:
                grad_view.fill(0)
            else:
                grad_view[...] = tensor.grad
            tensor.zero_grad()
        grad = self.grad
        if not np.isfinite(grad).all():
            raise NumericsError(f"non-finite gradient for parameter {self._first_non_finite(1)!r}")
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.beta1, self.beta2
        m, v = self.first_moment, self.second_moment
        m *= b1
        m += (1 - b1) * grad
        v *= b2
        v += (1 - b2) * grad * grad
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        self.flat -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)
        if not np.isfinite(self.flat).all():
            raise NumericsError(f"parameter {self._first_non_finite(0)!r} became non-finite")


def _model_loss(model, batch: EncodedBatch, mode: str) -> Tensor:
    if model.kind == "mvke":
        return mtl_loss(batch, model.cfg, model.params, mode)
    (task,) = model.tasks
    return dg.bce_loss(two_tower_forward(batch, model.cfg, model.params), batch.label(task))


def snapshot_params(params: dict[str, Tensor]) -> dict[str, Tensor]:
    return {name: dg.raw_tensor(t.data.copy(), t.requires_grad)
            for name, t in params.items()}


def fit(model, train_ds: Sequence, valid_ds: Sequence,
        cfg: TrainConfig) -> tuple[dict[str, Tensor], list[dict]]:
    """Train ``model.tasks`` in shuffled mini-batches, keep the best validation checkpoint.

    Returns (best params, history rows). The model is left holding the
    best parameters; selection is by mean validation AUC over the trained
    tasks, earliest epoch winning ties. Aborts with epoch and batch index
    if the loss goes non-finite. Before encoding anything, refuses
    (ConfigError) a ``cfg.mode`` that trains other tasks than the model's;
    before the first step, (UndefinedMetricError) a validation split on
    which a trained task has one label value, since its AUC is undefined.
    """
    tasks = model.tasks
    if mode_tasks(cfg.mode) != tasks:
        raise ConfigError(f"training mode {cfg.mode!r} trains {_names(mode_tasks(cfg.mode))}, "
                          f"the model has tasks {_names(tasks)}")
    with prefix_data_errors("training split"):
        train_batch = encode_examples(train_ds, model.cfg.schema)
    with prefix_data_errors("validation split"):
        valid_batch = encode_examples(valid_ds, model.cfg.schema)
    require_both_labels(valid_batch, tasks, "validation split")
    optimizer = Adam(model.params, cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.eps)
    rng = np.random.default_rng(cfg.seed)

    best_params = snapshot_params(model.params)
    best_score = -1.0
    history: list[dict] = []
    for epoch in range(cfg.epochs):
        perm = rng.permutation(train_batch.size)
        loss_sum, seen = 0.0, 0
        for b, start in enumerate(range(0, train_batch.size, cfg.batch_size)):
            rows = perm[start:start + cfg.batch_size]
            batch = train_batch.slice(rows)
            try:
                loss = _model_loss(model, batch, cfg.mode)
                dg.require_finite(loss.data, "the training loss")
                dg.zero_grads(model.params)
                dg.backward(loss)
                optimizer.step(model.params)
            except NumericsError as e:
                raise TrainingDivergenceError(epoch, b, str(e)) from e
            loss_sum += loss.item() * len(rows)
            seen += len(rows)
        val = {task: auc(predict_dataset(model, valid_batch, task), valid_batch.label(task))
               for task in tasks}
        row = {"epoch": epoch,
               "train_loss": loss_sum / seen,
               "ctr_auc": val.get(Task.CTR),
               "cvr_auc": val.get(Task.CVR)}
        history.append(row)
        score = sum(val.values()) / len(val)
        if score > best_score:
            best_score = score
            best_params = snapshot_params(model.params)
    model.params = best_params
    return best_params, history


def sensitivity_sweep(expert_counts: Sequence[int], train_ds: Sequence,
                      test_ds: Sequence, base_cfg: ModelConfig, train_cfg: TrainConfig,
                      seed: int = 0) -> list[dict]:
    """Train the tasks of ``train_cfg.mode`` and evaluate once per expert count
    (auto-split routing), shared seed and data; returns one row per count with
    each task's AUC, None for a task the mode does not train."""
    rows = []
    for k in expert_counts:
        cfg = ModelConfig(schema=base_cfg.schema, routing=split_routing(k),
                          head_hidden=base_cfg.head_hidden, tau_init=base_cfg.tau_init)
        model = MvkeModel(cfg, seed=seed, tasks=mode_tasks(train_cfg.mode))
        fit(model, train_ds, test_ds, train_cfg)
        aucs = evaluate(model, test_ds).aucs
        rows.append({"n_experts": k,
                     "ctr_auc": aucs.get(Task.CTR),
                     "cvr_auc": aucs.get(Task.CVR)})
    return rows
