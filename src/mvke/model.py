"""Model architectures as pure forward functions over parameter dicts.

Two models share the same tag tower and scoring head:

* the virtual-kernel mixture model: per-expert attention over user field
  embeddings, queried by a learnable kernel vector, combined per task by
  a tag-conditioned gate. All experts share one shape, so each expert
  layer is one parameter stacked along a leading expert axis;
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
from itertools import chain
from pathlib import Path
from typing import Callable, Sequence

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

    @property
    def field_offsets(self) -> tuple[int, ...]:
        """First row of each field in the stacked ``user_embed`` table."""
        return tuple(np.cumsum([0] + [vocab for _, vocab in self.user_fields])[:-1].tolist())


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


def _as_ids(value) -> tuple:
    """A field value as a tuple of ids: a tuple or list as is, anything else as one id."""
    return tuple(value) if isinstance(value, (tuple, list)) else (int(value),)


def _pack_ids(values: list, vocab: int, empty_message: str,
              bad_message: Callable[[int], str]) -> tuple[np.ndarray, np.ndarray]:
    """Per-row id counts ``[B]`` and all ids in row order, each checked against ``[0, vocab)``.

    A value is one id or a tuple or list of ids. DataError for the first row
    that is empty (``empty_message``) or holds an id outside the vocab
    (``bad_message(id)``).
    """
    n = len(values)
    try:  # one id per row, read without a tuple per row
        lengths, flat = np.ones(n, dtype=np.int64), np.fromiter(values, dtype=np.int64, count=n)
    except (OverflowError, TypeError, ValueError):
        rows = [_as_ids(v) for v in values]
        lengths = np.fromiter(map(len, rows), dtype=np.int64, count=n)
        try:
            flat = np.fromiter(chain.from_iterable(rows), dtype=np.int64,
                               count=int(lengths.sum()))
        except (OverflowError, TypeError, ValueError):
            flat = None
    if flat is None or not (lengths.all() and ((flat >= 0) & (flat < vocab)).all()):
        for ids in map(_as_ids, values):  # only a failing batch is scanned row by row
            if not ids:
                raise DataError(empty_message)
            for v in ids:
                if not 0 <= v < vocab:
                    raise DataError(bad_message(v))
    return lengths, flat


def _padded(lengths: np.ndarray, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``idx [B, c]`` and mean-pooling ``weight [B, c]`` of rows of ``lengths`` ids each."""
    filled = np.arange(lengths.max(initial=0)) < lengths[:, None]
    idx = np.zeros(filled.shape, dtype=np.int64)
    weight = np.zeros(filled.shape, dtype=np.float64)
    idx[filled] = flat
    weight[filled] = np.repeat(1.0 / lengths, lengths)
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
        lengths, flat = _pack_ids(
            [ex.field_values[j] for ex in examples], vocab, f"field {fname!r} has no values",
            lambda v: f"field {fname!r}: id {v} out of vocab range [0, {vocab})")
        idx, w = _padded(lengths, flat)
        field_idx.append(idx)
        field_weight.append(w)

    tags = schema.tag_vocab_size
    lengths, flat = _pack_ids(
        [tuple(sorted(set(ex.tag_set))) for ex in examples], tags,
        "example has an empty tag set", lambda v: f"tag id {v} out of vocab range [0, {tags})")
    tag_idx, tag_weight = _padded(lengths, flat)

    n = len(examples)
    clicks = np.fromiter((ex.click_label for ex in examples), dtype=np.float64, count=n)
    convs = np.fromiter((ex.conversion_label for ex in examples), dtype=np.float64, count=n)
    return EncodedBatch(n, field_idx, field_weight, tag_idx, tag_weight, clicks, convs)


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


def _user_table(rng: np.random.Generator, schema: FieldSchema) -> np.ndarray:
    """One table for all user fields, drawn field by field in schema order."""
    return np.concatenate([_embed_table(rng, vocab, schema.embed_dim)
                           for _, vocab in schema.user_fields])


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
    _param(params, "user_embed", _user_table(rng, schema))
    _param(params, "virtual_kernels", _distinct_unit_kernels(rng, routing.n_experts, d))
    # drawn expert by expert, layer by layer, then stacked: w [k, in, out], b [k, 1, out]
    shapes = {"q_proj": (d, d), "k_proj": (d, d), "v_proj": (d, d),
              "head1": (d, h), "head2": (h, d)}
    draws = [[_xavier(rng, *shape) for shape in shapes.values()]
             for _ in range(routing.n_experts)]
    for j, (layer, (_, fan_out)) in enumerate(shapes.items()):
        _param(params, f"experts.{layer}.w", np.stack([row[j] for row in draws]))
        _param(params, f"experts.{layer}.b", np.zeros((routing.n_experts, 1, fan_out)))
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
    _param(params, "user_embed", _user_table(rng, schema))
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
    return dg.affine(x, params[f"{prefix}.w"], params[f"{prefix}.b"])


def _pooled_lookup(table: Tensor, idx: Sequence[np.ndarray], weight: Sequence[np.ndarray],
                   offsets: Sequence[int]) -> Tensor:
    """Weighted sums of table rows [B, g, d], one per group ``j`` of columns ``idx[j] [B, c_j]``.

    Group ``j``'s ids count from row ``offsets[j]``. All columns are gathered
    at once, then pooled by one matmul with the constant [B, g, C] weight matrix.
    """
    widths = [i.shape[1] for i in idx]
    cols = np.concatenate(idx, axis=1) + np.repeat(offsets, widths)
    pool = np.zeros((len(cols), len(widths), cols.shape[1]), dtype=table.data.dtype)
    pool[:, np.repeat(np.arange(len(widths)), widths), np.arange(cols.shape[1])] = \
        np.concatenate(weight, axis=1)
    return dg.matmul(dg.raw_tensor(pool), dg.gather_rows(table, cols))


def embed_user_fields(batch: EncodedBatch, params: dict[str, Tensor],
                      schema: FieldSchema) -> Tensor:
    """Field embeddings [B, m, d]; a multi-valued field is mean-pooled into one row."""
    return _pooled_lookup(params["user_embed"], batch.field_idx, batch.field_weight,
                          schema.field_offsets)


def tag_tower(tag_idx: np.ndarray, tag_weight: np.ndarray, task: Task,
              params: dict[str, Tensor]) -> Tensor:
    """Tag embeddings [B, d]: mean of tag rows, then affine + tanh."""
    prefix = f"tag_tower.{task.value}"
    pooled = _pooled_lookup(params[f"{prefix}.embed"], [tag_idx], [tag_weight], [0])
    pooled = dg.reshape(pooled, (len(tag_idx), pooled.shape[-1]))
    return dg.tanh(_affine(pooled, params, f"{prefix}.proj"))


def _expert_rows(params: dict[str, Tensor], experts: Sequence[int],
                 layers: Sequence[str]) -> dict[str, Tensor]:
    """The ``experts`` rows of the stacked ``experts.<layer>.{w,b}`` parameters."""
    return {f"experts.{layer}.{part}": dg.gather_rows(params[f"experts.{layer}.{part}"], experts)
            for layer in layers for part in ("w", "b")}


def vke_attention(field_embeddings: Tensor, experts: Sequence[int],
                  params: dict[str, Tensor]) -> tuple[Tensor, Tensor]:
    """Kernel-queried attention of the given experts over field embeddings [B, m, d].

    Returns (context [n, B, d], weights [n, B, m]), expert-major in the
    order of ``experts``.
    """
    b, m, d = field_embeddings.shape
    n = len(experts)
    p = _expert_rows(params, experts, ("q_proj", "k_proj", "v_proj"))
    kernels = dg.reshape(dg.gather_rows(params["virtual_kernels"], experts), (n, 1, d))
    q = dg.reshape(dg.tanh(_affine(kernels, p, "experts.q_proj")), (n, 1, 1, d))
    flat = dg.reshape(field_embeddings, (b * m, d))
    keys = dg.reshape(dg.tanh(_affine(flat, p, "experts.k_proj")), (n, b, m, d))
    values = dg.reshape(dg.tanh(_affine(flat, p, "experts.v_proj")), (n, b, m, d))
    ctx, weights = dg.scaled_dot_attention(q, keys, values)
    return dg.reshape(ctx, (n, b, d)), dg.reshape(weights, (n, b, m))


def vke_forward(field_embeddings: Tensor, experts: Sequence[int],
                params: dict[str, Tensor]) -> Tensor:
    """User embeddings [n, B, d] of the given experts: attention context through each MLP head."""
    ctx, _ = vke_attention(field_embeddings, experts, params)
    p = _expert_rows(params, experts, ("head1", "head2"))
    return _affine(dg.relu(_affine(ctx, p, "experts.head1")), p, "experts.head2")


def gate_weights_for_tags(tag_embeddings: Tensor, task: Task,
                          params: dict[str, Tensor],
                          routing: ExpertRouting) -> Tensor:
    """Gate distribution [B, n_task] from tag embeddings [B, d] and virtual kernels.

    Depends only on the tag side and the kernels; user features never
    enter, which is what makes the serving cache exact.
    """
    kernels = dg.gather_rows(params["virtual_kernels"], np.array(routing.task_experts(task)))
    keys = dg.tanh(_affine(kernels, params, f"gate.{task.value}.k_proj"))
    queries = dg.tanh(_affine(tag_embeddings, params, f"gate.{task.value}.q_proj"))
    return dg.attention_weights(queries, keys)


def vkg_combine(vke_outputs: Tensor, tag_embeddings: Tensor, task: Task,
                params: dict[str, Tensor],
                routing: ExpertRouting) -> tuple[Tensor, Tensor]:
    """Mix expert outputs with tag-conditioned attention weights.

    ``vke_outputs`` [n, B, d] is expert-major, ordered by ascending expert
    index within the task's routing set; with tag embeddings [B, d] the
    result is (mixed [B, d], weights [B, n]). The expert outputs pass
    through as values unchanged so cached mixing stays lossless.
    """
    weights = gate_weights_for_tags(tag_embeddings, task, params, routing)
    b, n = weights.shape
    if vke_outputs.shape[:2] != (n, b):
        raise ConfigError(f"expected {n} x {b} expert outputs for task {task.value}, "
                          f"got {vke_outputs.shape}")
    mixed = dg.reduce_sum(dg.mul(vke_outputs, dg.reshape(dg.transpose(weights), (n, b, 1))),
                          axis=0)
    return mixed, weights


def score_pair(user_embedding: Tensor, tag_embedding: Tensor, task: Task,
               params: dict[str, Tensor]) -> Tensor:
    """Probabilities [B] = sigmoid(tau * cos(user, tag)) row-wise; tau is learnable per task."""
    cos = dg.cosine_similarity(user_embedding, tag_embedding)
    return dg.sigmoid(dg.mul(cos, params[f"temperature.{task.value}"]))


def mvke_forward(batch: EncodedBatch, cfg: ModelConfig, params: dict[str, Tensor],
                 tasks: Sequence[Task] = TASKS) -> dict[Task, tuple[Tensor, Tensor]]:
    """Full mixture forward for a batch.

    Only the requested tasks' experts run, once, shared across tasks.
    Returns ``{task: (probabilities [B], gate_weights [B, n_task])}``.
    """
    routing = cfg.routing
    fields = embed_user_fields(batch, params, cfg.schema)
    needed = sorted({e for task in tasks for e in routing.task_experts(task)})
    expert_out = vke_forward(fields, needed, params)
    result: dict[Task, tuple[Tensor, Tensor]] = {}
    for task in tasks:
        rows = np.searchsorted(needed, routing.task_experts(task))
        task_out = dg.gather_rows(expert_out, rows)
        tag_emb = tag_tower(batch.tag_idx, batch.tag_weight, task, params)
        user_emb, gates = vkg_combine(task_out, tag_emb, task, params, routing)
        result[task] = (score_pair(user_emb, tag_emb, task, params), gates)
    return result


def two_tower_user_embedding(batch: EncodedBatch, cfg: ModelConfig,
                             params: dict[str, Tensor]) -> Tensor:
    """Baseline user tower [B, d]: mean field embedding through a 2-layer MLP."""
    fields = embed_user_fields(batch, params, cfg.schema)
    pooled = dg.reduce_mean(fields, axis=1)
    hidden = dg.relu(dg.affine(pooled, params["user_mlp.w1"], params["user_mlp.b1"]))
    return dg.affine(hidden, params["user_mlp.w2"], params["user_mlp.b2"])


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
        return dg.require_finite(out[task][0].data.copy(), f"{task.value} predictions")

    def user_expert_outputs(self, batch: EncodedBatch) -> np.ndarray:
        """All expert outputs for a batch of users, shape [B, k, d]."""
        self.counters["user_tower"] += batch.size
        with dg.no_grad():
            fields = embed_user_fields(batch, self.params, self.cfg.schema)
            outs = vke_forward(fields, range(self.cfg.routing.n_experts), self.params)
        return dg.require_finite(outs.data, "expert outputs").transpose(1, 0, 2)

    def tag_side(self, task: Task, tag_ids: Sequence[int]) -> tuple[np.ndarray, np.ndarray, float]:
        """Per-tag embeddings [T, d] and gate weights [T, n_task], plus tau."""
        self.counters["tag_tower"] += len(tag_ids)
        idx = np.array([int(t) for t in tag_ids], dtype=np.int64).reshape(-1, 1)
        with dg.no_grad():
            emb = tag_tower(idx, np.ones(idx.shape), task, self.params)
            gates = gate_weights_for_tags(emb, task, self.params, self.cfg.routing)
        tau = float(self.params[f"temperature.{task.value}"].data)
        what = f"{task.value} tag side"
        return (dg.require_finite(emb.data.copy(), what),
                dg.require_finite(gates.data.copy(), what), tau)


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
            out = two_tower_forward(batch, self.cfg, self.params, task)
        return dg.require_finite(out.data.copy(), f"{task.value} predictions")


# ---------------------------------------------------------------------------
# checkpoint I/O (parameters + model identity)


def model_precision(model) -> str:
    """Precision name (``"f32"`` or ``"f64"``) of the model's parameters."""
    return dg.dtype_name(next(iter(model.params.values())).data)


def save_model(model, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = {
        "kind": model.kind,
        "config": model.cfg.to_dict(),
        "precision": model_precision(model),
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
        precision = meta["precision"]
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
    dtypes = sorted({dg.dtype_name(t.data) for t in params.values()})
    if dtypes != [precision]:
        raise DataError(f"{meta_path} records precision {precision!r} "
                        f"but {params_path} holds {dtypes}")
    if task is None:
        return MvkeModel(cfg, params=params)
    return TwoTowerModel(cfg, task, params=params)
