"""Model architectures as pure forward functions over parameter dicts.

Two models share the same tag tower and scoring head:

* the virtual-kernel mixture model: per-expert attention over user field
  embeddings, queried by a learnable kernel vector, combined per task by
  a tag-conditioned gate;
* a plain two-tower baseline: mean field embedding through a small MLP.

All forward functions are pure in the parameters and take batches only:
one example is a batch of one. The thin model classes only add
construction, prediction batching and tower invocation counters for the
serving path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from . import diffgraph as dg
from .diffgraph import Tensor
from .errors import ConfigError, DataError


class Task(str, Enum):
    """CTR predicts clicks (interest), CVR predicts conversions (intention)."""

    CTR = "ctr"
    CVR = "cvr"


TASKS = (Task.CTR, Task.CVR)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class FieldSchema:
    """Categorical layout of one training record."""

    user_fields: tuple[tuple[str, int], ...]
    tag_vocab_size: int
    embed_dim: int

    def __post_init__(self):
        if len(self.user_fields) < 1:
            raise ConfigError("schema needs at least one user field")
        if self.tag_vocab_size < 2:
            raise ConfigError("tag_vocab_size must be >= 2")
        if self.embed_dim < 2:
            raise ConfigError("embed_dim must be >= 2")
        for name, vocab in self.user_fields:
            if vocab < 1:
                raise ConfigError(f"field {name!r} has empty vocab")

    @property
    def field_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.user_fields)


@dataclass(frozen=True)
class ExpertRouting:
    """Assignment of experts to tasks; shared experts serve both."""

    n_experts: int
    ctr_experts: tuple[int, ...]
    cvr_experts: tuple[int, ...]

    def __post_init__(self):
        if self.n_experts < 1:
            raise ConfigError("need at least one expert")
        object.__setattr__(self, "ctr_experts", tuple(sorted(set(self.ctr_experts))))
        object.__setattr__(self, "cvr_experts", tuple(sorted(set(self.cvr_experts))))
        everyone = set(self.ctr_experts) | set(self.cvr_experts)
        if not self.ctr_experts or not self.cvr_experts:
            raise ConfigError("each task needs at least one expert")
        if everyone != set(range(self.n_experts)):
            raise ConfigError(
                f"expert sets must cover 0..{self.n_experts - 1} with no orphans, "
                f"got ctr={self.ctr_experts} cvr={self.cvr_experts}")

    @property
    def shared(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.ctr_experts) & set(self.cvr_experts)))

    def task_experts(self, task: Task) -> tuple[int, ...]:
        return self.ctr_experts if task == Task.CTR else self.cvr_experts

    def check_multi_task(self) -> None:
        """Both-task constraints: a shared expert and an exclusive one per task."""
        if not self.shared:
            raise ConfigError("multi-task routing needs at least one shared expert")
        if not set(self.ctr_experts) - set(self.cvr_experts):
            raise ConfigError("multi-task routing needs a ctr-only expert")
        if not set(self.cvr_experts) - set(self.ctr_experts):
            raise ConfigError("multi-task routing needs a cvr-only expert")


def split_routing(n_experts: int) -> ExpertRouting:
    """Auto-split for a sweep: exclusive blocks at both ends, shared middle.

    Each task gets ``max(1, (k - 2) // 2)`` exclusive experts; the rest are
    shared. Needs ``k >= 3`` so the shared set is nonempty.
    """
    if n_experts < 3:
        raise ConfigError("auto routing needs at least 3 experts")
    exclusive = max(1, (n_experts - 2) // 2)
    ctr = tuple(range(0, n_experts - exclusive))
    cvr = tuple(range(exclusive, n_experts))
    routing = ExpertRouting(n_experts, ctr, cvr)
    routing.check_multi_task()
    return routing


def five_expert_routing() -> ExpertRouting:
    """Default 5-expert split: first 3 serve CTR, last 4 serve CVR."""
    return ExpertRouting(5, ctr_experts=(0, 1, 2), cvr_experts=(1, 2, 3, 4))


@dataclass(frozen=True)
class ModelConfig:
    schema: FieldSchema
    routing: ExpertRouting
    head_hidden: int = 0  # 0 means 2 * embed_dim
    tau_init: float = 5.0

    @property
    def hidden(self) -> int:
        return self.head_hidden if self.head_hidden > 0 else 2 * self.schema.embed_dim

    def to_dict(self) -> dict:
        return {
            "user_fields": [[n, v] for n, v in self.schema.user_fields],
            "tag_vocab_size": self.schema.tag_vocab_size,
            "embed_dim": self.schema.embed_dim,
            "n_experts": self.routing.n_experts,
            "ctr_experts": list(self.routing.ctr_experts),
            "cvr_experts": list(self.routing.cvr_experts),
            "head_hidden": self.head_hidden,
            "tau_init": self.tau_init,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        schema = FieldSchema(
            user_fields=tuple((n, int(v)) for n, v in d["user_fields"]),
            tag_vocab_size=int(d["tag_vocab_size"]),
            embed_dim=int(d["embed_dim"]),
        )
        routing = ExpertRouting(
            int(d["n_experts"]),
            tuple(d["ctr_experts"]),
            tuple(d["cvr_experts"]),
        )
        return cls(schema=schema, routing=routing,
                   head_hidden=int(d.get("head_hidden", 0)),
                   tau_init=float(d.get("tau_init", 5.0)))


# ---------------------------------------------------------------------------
# batch encoding


@dataclass
class EncodedBatch:
    """Padded index/weight arrays ready for embedding lookups.

    Every field (and the tag set) is stored as ``idx [B, c]`` plus
    ``weight [B, c]`` where weights are 1/count for real entries and 0 for
    padding, so a weighted sum implements mean pooling uniformly.
    """

    size: int
    field_idx: list[np.ndarray]
    field_weight: list[np.ndarray]
    tag_idx: np.ndarray
    tag_weight: np.ndarray
    clicks: np.ndarray
    convs: np.ndarray

    def slice(self, rows: np.ndarray) -> "EncodedBatch":
        return EncodedBatch(
            size=len(rows),
            field_idx=[f[rows] for f in self.field_idx],
            field_weight=[w[rows] for w in self.field_weight],
            tag_idx=self.tag_idx[rows],
            tag_weight=self.tag_weight[rows],
            clicks=self.clicks[rows],
            convs=self.convs[rows],
        )

    def label(self, task: Task) -> np.ndarray:
        return self.clicks if task == Task.CTR else self.convs


def _pad_ids(values: list[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    width = max(len(v) for v in values)
    idx = np.zeros((len(values), width), dtype=np.int64)
    weight = np.zeros((len(values), width), dtype=np.float64)
    for r, ids in enumerate(values):
        idx[r, :len(ids)] = ids
        weight[r, :len(ids)] = 1.0 / len(ids)
    return idx, weight


def encode_examples(examples: Sequence, schema: FieldSchema) -> EncodedBatch:
    """Validate and pack examples into an EncodedBatch.

    Raises DataError for an out-of-vocab id (naming the field) or an empty
    tag set.
    """
    if not examples:
        raise ConfigError("cannot encode an empty batch")
    field_idx, field_weight = [], []
    for j, (fname, vocab) in enumerate(schema.user_fields):
        per_row: list[tuple[int, ...]] = []
        for ex in examples:
            raw = ex.field_values[j]
            ids = tuple(raw) if isinstance(raw, (tuple, list)) else (int(raw),)
            if not ids:
                raise DataError(f"field {fname!r} has no values")
            for v in ids:
                if not 0 <= v < vocab:
                    raise DataError(
                        f"field {fname!r}: id {v} out of vocab range [0, {vocab})")
            per_row.append(ids)
        idx, w = _pad_ids(per_row)
        field_idx.append(idx)
        field_weight.append(w)

    tag_rows: list[tuple[int, ...]] = []
    for ex in examples:
        tags = tuple(sorted(set(ex.tag_set)))
        if not tags:
            raise DataError("example has an empty tag set")
        for v in tags:
            if not 0 <= v < schema.tag_vocab_size:
                raise DataError(f"tag id {v} out of vocab range [0, {schema.tag_vocab_size})")
        tag_rows.append(tags)
    tag_idx, tag_weight = _pad_ids(tag_rows)

    clicks = np.array([float(ex.click_label) for ex in examples])
    convs = np.array([float(ex.conversion_label) for ex in examples])
    return EncodedBatch(len(examples), field_idx, field_weight,
                        tag_idx, tag_weight, clicks, convs)


# ---------------------------------------------------------------------------
# parameter initialization


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _embed_table(rng: np.random.Generator, rows: int, dim: int) -> np.ndarray:
    return rng.uniform(-0.05, 0.05, size=(rows, dim))


def _distinct_unit_kernels(rng: np.random.Generator, k: int, dim: int) -> np.ndarray:
    """Unit-norm rows with pairwise cosine < 0.99 to break expert symmetry."""
    for _ in range(100):
        kernels = rng.normal(size=(k, dim))
        kernels /= np.linalg.norm(kernels, axis=1, keepdims=True)
        cos = kernels @ kernels.T
        np.fill_diagonal(cos, 0.0)
        if np.all(np.abs(cos) < 0.99):
            return kernels
    raise ConfigError("could not draw distinct virtual kernels")


def _param(params: dict[str, Tensor], name: str, values: np.ndarray) -> None:
    if name in params:
        raise ConfigError(f"duplicate parameter name {name!r}")
    params[name] = Tensor(values, requires_grad=True)


def _init_tag_tower(params, rng, schema: FieldSchema, task: Task) -> None:
    d = schema.embed_dim
    _param(params, f"tag_tower.{task.value}.embed",
           _embed_table(rng, schema.tag_vocab_size, d))
    _param(params, f"tag_tower.{task.value}.proj.w", _xavier(rng, d, d))
    _param(params, f"tag_tower.{task.value}.proj.b", np.zeros(d))


def init_mvke_params(cfg: ModelConfig, seed: int) -> dict[str, Tensor]:
    rng = np.random.default_rng(seed)
    schema, routing = cfg.schema, cfg.routing
    d, h = schema.embed_dim, cfg.hidden
    params: dict[str, Tensor] = {}
    for fname, vocab in schema.user_fields:
        _param(params, f"user_embed.{fname}", _embed_table(rng, vocab, d))
    _param(params, "virtual_kernels", _distinct_unit_kernels(rng, routing.n_experts, d))
    for i in range(routing.n_experts):
        for proj in ("q_proj", "k_proj", "v_proj"):
            _param(params, f"expert.{i}.{proj}.w", _xavier(rng, d, d))
            _param(params, f"expert.{i}.{proj}.b", np.zeros(d))
        _param(params, f"expert.{i}.head.w1", _xavier(rng, d, h))
        _param(params, f"expert.{i}.head.b1", np.zeros(h))
        _param(params, f"expert.{i}.head.w2", _xavier(rng, h, d))
        _param(params, f"expert.{i}.head.b2", np.zeros(d))
    for task in TASKS:
        _init_tag_tower(params, rng, schema, task)
        _param(params, f"gate.{task.value}.q_proj.w", _xavier(rng, d, d))
        _param(params, f"gate.{task.value}.q_proj.b", np.zeros(d))
        _param(params, f"gate.{task.value}.k_proj.w", _xavier(rng, d, d))
        _param(params, f"gate.{task.value}.k_proj.b", np.zeros(d))
        _param(params, f"temperature.{task.value}", np.array(cfg.tau_init))
    return params


def init_two_tower_params(cfg: ModelConfig, task: Task, seed: int) -> dict[str, Tensor]:
    rng = np.random.default_rng(seed)
    schema = cfg.schema
    d, h = schema.embed_dim, cfg.hidden
    params: dict[str, Tensor] = {}
    for fname, vocab in schema.user_fields:
        _param(params, f"user_embed.{fname}", _embed_table(rng, vocab, d))
    _param(params, "user_mlp.w1", _xavier(rng, d, h))
    _param(params, "user_mlp.b1", np.zeros(h))
    _param(params, "user_mlp.w2", _xavier(rng, h, d))
    _param(params, "user_mlp.b2", np.zeros(d))
    _init_tag_tower(params, rng, schema, task)
    _param(params, f"temperature.{task.value}", np.array(cfg.tau_init))
    return params


def count_params(params: dict[str, Tensor]) -> int:
    return sum(t.size for t in params.values())


# ---------------------------------------------------------------------------
# forward pieces


def _affine(x: Tensor, params: dict[str, Tensor], prefix: str) -> Tensor:
    return dg.add(dg.matmul(x, params[f"{prefix}.w"]), params[f"{prefix}.b"])


def _pooled_lookup(table: Tensor, idx: np.ndarray, weight: np.ndarray) -> Tensor:
    """Mean-pool embedding rows: gather [B, c, d], weight, sum over c."""
    rows = dg.gather_rows(table, idx)
    w = Tensor(weight.astype(table.data.dtype))
    return dg.reduce_sum(dg.mul(rows, dg.reshape(w, (*weight.shape, 1))), axis=1)


def embed_user_fields(batch: EncodedBatch, params: dict[str, Tensor],
                      schema: FieldSchema) -> Tensor:
    """Field embeddings [B, m, d]; a multi-valued field is mean-pooled into one row."""
    cols = []
    for j, (fname, _) in enumerate(schema.user_fields):
        emb = _pooled_lookup(params[f"user_embed.{fname}"],
                             batch.field_idx[j], batch.field_weight[j])
        cols.append(dg.reshape(emb, (batch.size, 1, schema.embed_dim)))
    return dg.concat(cols, axis=1)


def tag_tower(tag_idx: np.ndarray, tag_weight: np.ndarray, task: Task,
              params: dict[str, Tensor]) -> Tensor:
    """Tag embeddings [B, d]: mean of tag rows, then affine + tanh."""
    prefix = f"tag_tower.{task.value}"
    pooled = _pooled_lookup(params[f"{prefix}.embed"], tag_idx, tag_weight)
    return dg.tanh(_affine(pooled, params, f"{prefix}.proj"))


def _expert_query(expert_index: int, params: dict[str, Tensor]) -> Tensor:
    """Attention query [1, d] from this expert's virtual kernel."""
    kernel = dg.gather_rows(params["virtual_kernels"], np.array([expert_index]))
    return dg.tanh(_affine(kernel, params, f"expert.{expert_index}.q_proj"))


def _expert_head(x: Tensor, expert_index: int, params: dict[str, Tensor]) -> Tensor:
    prefix = f"expert.{expert_index}.head"
    hidden = dg.relu(dg.add(dg.matmul(x, params[f"{prefix}.w1"]), params[f"{prefix}.b1"]))
    return dg.add(dg.matmul(hidden, params[f"{prefix}.w2"]), params[f"{prefix}.b2"])


def vke_attention(field_embeddings: Tensor, expert_index: int,
                  params: dict[str, Tensor]) -> tuple[Tensor, Tensor]:
    """Kernel-queried attention over field embeddings [B, m, d].

    Returns (context [B, d], weights [B, m]).
    """
    b, m, d = field_embeddings.shape
    flat = dg.reshape(field_embeddings, (b * m, d))
    q = _expert_query(expert_index, params)
    keys = dg.tanh(_affine(flat, params, f"expert.{expert_index}.k_proj"))
    values = dg.tanh(_affine(flat, params, f"expert.{expert_index}.v_proj"))
    logits = dg.mul(dg.reshape(dg.matmul(keys, dg.transpose(q)), (b, m)),
                    1.0 / math.sqrt(d))
    weights = dg.softmax(logits, axis=-1)
    ctx = dg.reduce_sum(dg.mul(dg.reshape(values, (b, m, d)),
                               dg.reshape(weights, (b, m, 1))), axis=1)
    return ctx, weights


def vke_forward(field_embeddings: Tensor, expert_index: int,
                params: dict[str, Tensor]) -> Tensor:
    """One expert's user embeddings [B, d]: attention context through its MLP head."""
    ctx, _ = vke_attention(field_embeddings, expert_index, params)
    return _expert_head(ctx, expert_index, params)


def gate_weights_for_tags(tag_embeddings: Tensor, task: Task,
                          params: dict[str, Tensor],
                          routing: ExpertRouting) -> Tensor:
    """Gate distribution [B, n_task] from tag embeddings [B, d] and virtual kernels.

    Depends only on the tag side and the kernels; user features never
    enter, which is what makes the serving cache exact.
    """
    experts = routing.task_experts(task)
    d = tag_embeddings.shape[-1]
    kernels = dg.gather_rows(params["virtual_kernels"], np.array(experts))
    keys = dg.tanh(_affine(kernels, params, f"gate.{task.value}.k_proj"))
    queries = dg.tanh(_affine(tag_embeddings, params, f"gate.{task.value}.q_proj"))
    logits = dg.mul(dg.matmul(queries, dg.transpose(keys)), 1.0 / math.sqrt(d))
    return dg.softmax(logits, axis=-1)


def vkg_combine(vke_outputs: Tensor, tag_embeddings: Tensor, task: Task,
                params: dict[str, Tensor],
                routing: ExpertRouting) -> tuple[Tensor, Tensor]:
    """Mix expert outputs with tag-conditioned attention weights.

    ``vke_outputs`` [B, n, d] has its rows ordered by ascending expert index
    within the task's routing set; with tag embeddings [B, d] the result is
    (mixed [B, d], weights [B, n]). The expert outputs pass through as
    values unchanged so cached mixing stays lossless.
    """
    weights = gate_weights_for_tags(tag_embeddings, task, params, routing)
    b, n = weights.shape
    if vke_outputs.shape[:2] != (b, n):
        raise ConfigError(f"expected {b} x {n} expert outputs for task {task.value}, "
                          f"got {vke_outputs.shape}")
    mixed = dg.reduce_sum(dg.mul(vke_outputs, dg.reshape(weights, (b, n, 1))), axis=1)
    return mixed, weights


def score_pair(user_embedding: Tensor, tag_embedding: Tensor, task: Task,
               params: dict[str, Tensor]) -> Tensor:
    """Probabilities [B] = sigmoid(tau * cos(user, tag)) row-wise; tau is learnable per task."""
    cos = dg.cosine_similarity(user_embedding, tag_embedding)
    return dg.sigmoid(dg.mul(cos, params[f"temperature.{task.value}"]))


def mvke_forward(batch: EncodedBatch, cfg: ModelConfig, params: dict[str, Tensor],
                 tasks: Sequence[Task] = TASKS) -> dict[Task, tuple[Tensor, Tensor]]:
    """Full mixture forward for a batch.

    Expert outputs are computed once and shared across tasks. Returns
    ``{task: (probabilities [B], gate_weights [B, n_task])}``.
    """
    routing = cfg.routing
    fields = embed_user_fields(batch, params, cfg.schema)
    needed = sorted({e for task in tasks for e in routing.task_experts(task)})
    expert_out = {e: vke_forward(fields, e, params) for e in needed}
    result: dict[Task, tuple[Tensor, Tensor]] = {}
    for task in tasks:
        experts = routing.task_experts(task)
        stacked = dg.concat(
            [dg.reshape(expert_out[e], (batch.size, 1, cfg.schema.embed_dim))
             for e in experts], axis=1)
        tag_emb = tag_tower(batch.tag_idx, batch.tag_weight, task, params)
        user_emb, gates = vkg_combine(stacked, tag_emb, task, params, routing)
        result[task] = (score_pair(user_emb, tag_emb, task, params), gates)
    return result


def two_tower_user_embedding(batch: EncodedBatch, cfg: ModelConfig,
                             params: dict[str, Tensor]) -> Tensor:
    """Baseline user tower [B, d]: mean field embedding through a 2-layer MLP."""
    fields = embed_user_fields(batch, params, cfg.schema)
    pooled = dg.reduce_mean(fields, axis=1)
    hidden = dg.relu(dg.add(dg.matmul(pooled, params["user_mlp.w1"]),
                            params["user_mlp.b1"]))
    return dg.add(dg.matmul(hidden, params["user_mlp.w2"]), params["user_mlp.b2"])


def two_tower_forward(batch: EncodedBatch, cfg: ModelConfig,
                      params: dict[str, Tensor], task: Task) -> Tensor:
    """Baseline: mean field embedding -> 2-layer MLP -> cosine score."""
    user_emb = two_tower_user_embedding(batch, cfg, params)
    tag_emb = tag_tower(batch.tag_idx, batch.tag_weight, task, params)
    return score_pair(user_emb, tag_emb, task, params)


# ---------------------------------------------------------------------------
# model objects


class MvkeModel:
    """Mixture model wrapper: parameters, prediction, serving hooks."""

    kind = "mvke"

    def __init__(self, cfg: ModelConfig, seed: int = 0,
                 params: dict[str, Tensor] | None = None):
        self.cfg = cfg
        self.params = params if params is not None else init_mvke_params(cfg, seed)
        self.counters = {"user_tower": 0, "tag_tower": 0}

    @property
    def tasks(self) -> tuple[Task, ...]:
        return TASKS

    def reset_counters(self) -> None:
        self.counters = {"user_tower": 0, "tag_tower": 0}

    def forward(self, batch: EncodedBatch,
                tasks: Sequence[Task] = TASKS) -> dict[Task, tuple[Tensor, Tensor]]:
        self.counters["user_tower"] += batch.size
        self.counters["tag_tower"] += batch.size * len(tasks)
        return mvke_forward(batch, self.cfg, self.params, tasks)

    def predict(self, batch: EncodedBatch, task: Task) -> np.ndarray:
        with dg.no_grad():
            out = self.forward(batch, (task,))
        return out[task][0].data.copy()

    def user_expert_outputs(self, batch: EncodedBatch) -> np.ndarray:
        """All expert outputs for a batch of users, shape [B, k, d]."""
        self.counters["user_tower"] += batch.size
        with dg.no_grad():
            fields = embed_user_fields(batch, self.params, self.cfg.schema)
            outs = [vke_forward(fields, e, self.params)
                    for e in range(self.cfg.routing.n_experts)]
            return np.stack([o.data for o in outs], axis=1)

    def tag_side(self, task: Task, tag_ids: Sequence[int]) -> tuple[np.ndarray, np.ndarray, float]:
        """Per-tag embeddings [T, d] and gate weights [T, n_task], plus tau."""
        self.counters["tag_tower"] += len(tag_ids)
        idx, weight = _pad_ids([(int(t),) for t in tag_ids])
        with dg.no_grad():
            emb = tag_tower(idx, weight, task, self.params)
            gates = gate_weights_for_tags(emb, task, self.params, self.cfg.routing)
        tau = float(self.params[f"temperature.{task.value}"].data)
        return emb.data.copy(), gates.data.copy(), tau


class TwoTowerModel:
    """Single-task baseline wrapper with the same prediction interface."""

    kind = "two_tower"

    def __init__(self, cfg: ModelConfig, task: Task, seed: int = 0,
                 params: dict[str, Tensor] | None = None):
        self.cfg = cfg
        self.task = task
        self.params = params if params is not None else init_two_tower_params(cfg, task, seed)
        self.counters = {"user_tower": 0, "tag_tower": 0}

    @property
    def tasks(self) -> tuple[Task, ...]:
        return (self.task,)

    def reset_counters(self) -> None:
        self.counters = {"user_tower": 0, "tag_tower": 0}

    def predict(self, batch: EncodedBatch, task: Task) -> np.ndarray:
        if task != self.task:
            raise ConfigError(f"baseline model only serves task {self.task.value}")
        self.counters["user_tower"] += batch.size
        self.counters["tag_tower"] += batch.size
        with dg.no_grad():
            return two_tower_forward(batch, self.cfg, self.params, task).data.copy()


# ---------------------------------------------------------------------------
# checkpoint I/O (parameters + model identity)


def save_model(model, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = {
        "kind": model.kind,
        "config": model.cfg.to_dict(),
        "precision": dg.precision_name(),
    }
    if model.kind == "two_tower":
        meta["task"] = model.task.value
    (out / "model.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n",
                                    encoding="utf-8")
    dg.save_params(model.params, out / "params.jsonl")


def load_model(ckpt_dir):
    """Model from ``save_model``; DataError naming the file for a bad checkpoint.

    The parameter names and shapes must be the ones the config builds.
    """
    ckpt = Path(ckpt_dir)
    meta_path = ckpt / "model.json"
    if not meta_path.exists():
        raise DataError(f"no model.json under {ckpt}")
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        kind = meta["kind"]
        cfg = ModelConfig.from_dict(meta["config"])
        task = Task(meta["task"]) if kind == "two_tower" else None
    except KeyError as e:
        raise DataError(f"{meta_path} has no key {e}") from e
    except (ConfigError, OSError, TypeError, ValueError) as e:
        raise DataError(f"bad {meta_path}: {e}") from e
    if kind not in ("mvke", "two_tower"):
        raise DataError(f"unknown model kind {kind!r} in {meta_path}")
    params_path = ckpt / "params.jsonl"
    params = dg.load_params(params_path)
    built = init_mvke_params(cfg, 0) if task is None else init_two_tower_params(cfg, task, 0)
    wrong = sorted(name for name in built.keys() | params.keys()
                   if name not in built or name not in params
                   or built[name].shape != params[name].shape)
    if wrong:
        raise DataError(f"{params_path}: names or shapes differ from the config at {wrong[:5]}")
    if task is None:
        return MvkeModel(cfg, params=params)
    return TwoTowerModel(cfg, task, params=params)
