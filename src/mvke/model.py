"""Model architectures as pure forward functions over parameter dicts.

Two models share the same tag tower and scoring head:

* the virtual-kernel mixture model: per-expert attention over user field
  embeddings, queried by a learnable kernel vector, combined per task by
  a tag-conditioned gate. Each expert layer is one parameter with a leading
  expert axis, each task parameter (tag tower, gate, temperature) one with a
  leading task axis; the routing of experts to tasks is a gate-logit mask;
* a plain two-tower baseline: mean field embedding through a small MLP.

All forward functions are pure in the parameters and take batches only:
one example is a batch of one. The thin model classes only add
construction, prediction batching and tower invocation counters for the
serving path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from enum import Enum
from itertools import chain
from operator import attrgetter
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

    def gate_mask(self, dtype=np.float64) -> np.ndarray:
        """Gate-logit mask [n_tasks, 1, k]: 0 where a task routes to an expert, -inf elsewhere."""
        routed = np.array([[e in self.task_experts(task) for e in range(self.n_experts)]
                           for task in TASKS])
        return np.where(routed, 0.0, -np.inf).astype(dtype)[:, None, :]

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


def _int(value) -> int:
    """``value`` if it is a JSON integer; ValueError for a bool, a float or a non-number."""
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _float(value) -> float:
    """``value`` as a float; ValueError for a bool, a non-number, NaN or infinity."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _ints(values) -> list[int]:
    return [_int(v) for v in values]


def _read(fields: dict, key: str, convert, where: str = ""):
    """``convert(fields[key])``; ConfigError naming ``where`` and the field."""
    try:
        return convert(fields[key])
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"{where}field {key!r}: {e}") from e


def _user_field(pair) -> tuple[str, int]:
    name, vocab = pair
    if type(name) is not str:
        raise ValueError(f"expected a field name, got {name!r}")
    return name, _int(vocab)


@dataclass(frozen=True)
class ModelConfig:
    schema: FieldSchema
    routing: ExpertRouting
    head_hidden: int = 0  # 0 means 2 * embed_dim
    tau_init: float = 5.0

    def __post_init__(self):
        if self.head_hidden < 0:
            raise ConfigError(f"field 'head_hidden': expected >= 0 (0 means 2 * embed_dim), "
                              f"got {self.head_hidden}")

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
        """The config of ``to_dict``'s fields, each read strictly.

        ConfigError naming the field unless ``d`` is an object with exactly
        those fields, ``tau_init`` a finite number and every other number a
        JSON integer (not a bool, a float or a string).
        """
        if not isinstance(d, dict):
            raise ConfigError(f"expected an object, got {d!r}")
        missing, unknown = sorted(_READERS.keys() - d.keys()), sorted(d.keys() - _READERS.keys())
        if missing or unknown:
            raise ConfigError(f"missing fields {missing}" if missing else f"unknown fields {unknown}")
        v = {key: _read(d, key, convert) for key, convert in _READERS.items()}
        return cls(schema=FieldSchema(v["user_fields"], v["tag_vocab_size"], v["embed_dim"]),
                   routing=ExpertRouting(v["n_experts"], v["ctr_experts"], v["cvr_experts"]),
                   head_hidden=v["head_hidden"], tau_init=v["tau_init"])


_READERS: dict[str, Callable] = {
    "user_fields": lambda pairs: tuple(map(_user_field, pairs)),
    "tag_vocab_size": _int,
    "embed_dim": _int,
    "n_experts": _int,
    "ctr_experts": _ints,
    "cvr_experts": _ints,
    "head_hidden": _int,
    "tau_init": _float,
}


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
    return tuple(value) if isinstance(value, (tuple, list)) else (value,)


def _encode_column(values: Sequence, vocab: int, what: str, empty_message: str,
                   as_set: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """``idx [B, c]`` and mean-pooling ``weight [B, c]`` of a column of ids or tuples or
    lists of ids; ``as_set`` sorts each row's ids and drops repeats. DataError for the
    first row that is empty (``empty_message``) or holds an id outside ``[0, vocab)`` or
    a non-integer one (``what`` names it), in ``sorted(set(row))`` order if ``as_set``."""
    n = len(values)
    kinds = set(map(type, values))
    if kinds <= {int}:
        lengths, ids = np.ones(n, dtype=np.int64), values
    else:  # sequences; only a column that mixes ids and sequences is read row by row
        rows = values if kinds <= {tuple, list} else [_as_ids(v) for v in values]
        lengths = np.fromiter(map(len, rows), dtype=np.int64, count=n)
        ids = list(chain.from_iterable(rows))
        kinds = set(map(type, ids))
    try:  # np.fromiter would truncate a float or bool, so only ints take this path
        flat = np.fromiter(ids, dtype=np.int64, count=len(ids)) if kinds <= {int} else None
    except OverflowError:
        flat = None
    if flat is None or not (lengths.all() and ((flat >= 0) & (flat < vocab)).all()):
        for row in map(_as_ids, values):  # only a failing batch is scanned row by row
            row = sorted(set(row)) if as_set else row
            if not row:
                raise DataError(empty_message)
            for v in row:
                if isinstance(v, (int, float, np.number)) and not 0 <= v < vocab:
                    raise DataError(f"{what} {v} out of vocab range [0, {vocab})")
                if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                    raise DataError(f"{what} {v!r} is not an integer")
        flat = np.fromiter(ids, dtype=np.int64, count=len(ids))  # numpy integers
    if as_set:  # sort each row padded with vocab, keep the first id of each run
        grid = np.full((n, lengths.max()), vocab, dtype=np.int64)
        grid[np.arange(grid.shape[1]) < lengths[:, None]] = flat
        grid.sort(axis=1)
        kept = grid < vocab
        kept[:, 1:] &= grid[:, 1:] != grid[:, :-1]
        lengths, flat = kept.sum(axis=1), grid[kept]
    filled = np.arange(lengths.max()) < lengths[:, None]
    idx = np.zeros(filled.shape, dtype=np.int64)
    weight = np.zeros(filled.shape, dtype=np.float64)
    idx[filled] = flat
    weight[filled] = np.repeat(1.0 / lengths, lengths)
    return idx, weight


def encode_user_fields(field_rows: Sequence[Sequence], schema: FieldSchema) -> EncodedBatch:
    """A batch of users alone, from one row of field values each: its tag arrays
    are 0 wide and its labels 0. DataError for a row with the wrong field count,
    then as ``_encode_column`` in field order, then row order."""
    n, m = len(field_rows), len(schema.user_fields)
    if not n:
        raise ConfigError("cannot encode an empty batch")
    widths = np.fromiter(map(len, field_rows), dtype=np.int64, count=n)
    if (widths != m).any():
        row = int(np.flatnonzero(widths != m)[0])
        raise DataError(f"row {row} has {widths[row]} user fields, the schema has {m}")
    # a list per column, not zip(*field_rows): that makes one iterator per
    # row, each an object the garbage collector counts
    packed = [_encode_column([row[j] for row in field_rows], vocab, f"field {name!r}: id",
                             f"field {name!r} has no values")
              for j, (name, vocab) in enumerate(schema.user_fields)]
    idx, weight = (list(arrays) for arrays in zip(*packed))
    return EncodedBatch(n, idx, weight, np.zeros((n, 0), dtype=np.int64), np.zeros((n, 0)),
                        np.zeros(n), np.zeros(n))


def encode_examples(examples: Sequence, schema: FieldSchema) -> EncodedBatch:
    """Validate and pack examples; DataError as ``encode_user_fields``, then for the tags."""
    users = encode_user_fields(list(map(attrgetter("field_values"), examples)), schema)
    tag_idx, tag_weight = _encode_column(list(map(attrgetter("tag_set"), examples)),
                                         schema.tag_vocab_size, "tag id",
                                         "example has an empty tag set", as_set=True)
    clicks, convs = (np.fromiter(map(attrgetter(label), examples), dtype=np.float64,
                                 count=users.size) for label in ("click_label", "conversion_label"))
    return replace(users, tag_idx=tag_idx, tag_weight=tag_weight, clicks=clicks, convs=convs)


# ---------------------------------------------------------------------------
# parameter initialization


# Name prefixes of the parameters with a leading task axis and of those with a
# leading expert axis; every other parameter is shared whole.
TASK_STACKED = ("tag_tower.", "gate.", "temperature")
EXPERT_STACKED = ("experts.", "virtual_kernels")


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


def _task_arrays(rng: np.random.Generator, cfg: ModelConfig, n_tasks: int,
                 gate: bool) -> dict[str, np.ndarray]:
    """Tag tower (and gate) arrays drawn task by task, then stacked on a leading
    task axis (``embed [n, T, d]``, ``w [n, d, d]``, ``b [n, 1, d]``), plus ``temperature [n]``."""
    d = cfg.schema.embed_dim
    draws = []
    for _ in range(n_tasks):
        row = {"tag_tower.embed": _embed_table(rng, cfg.schema.tag_vocab_size, d),
               "tag_tower.proj.w": _xavier(rng, d, d)}
        if gate:
            row["gate.q_proj.w"] = _xavier(rng, d, d)
            row["gate.k_proj.w"] = _xavier(rng, d, d)
        draws.append(row)
    arrays = {}
    for name in draws[0]:
        arrays[name] = np.stack([row[name] for row in draws])
        if name.endswith(".w"):
            arrays[name[:-1] + "b"] = np.zeros((n_tasks, 1, d))
    arrays["temperature"] = np.full(n_tasks, cfg.tau_init)
    return arrays


def _params(arrays: dict[str, np.ndarray]) -> dict[str, Tensor]:
    return {name: Tensor(values, requires_grad=True) for name, values in arrays.items()}


def init_mvke_params(cfg: ModelConfig, seed: int) -> dict[str, Tensor]:
    rng = np.random.default_rng(seed)
    d, h, k = cfg.schema.embed_dim, cfg.hidden, cfg.routing.n_experts
    arrays = {"user_embed": _user_table(rng, cfg.schema),
              "virtual_kernels": _distinct_unit_kernels(rng, k, d)}
    # drawn expert by expert, layer by layer, then stacked: w [k, in, out], b [k, 1, out]
    shapes = {"q_proj": (d, d), "k_proj": (d, d), "v_proj": (d, d),
              "head1": (d, h), "head2": (h, d)}
    draws = [[_xavier(rng, *shape) for shape in shapes.values()] for _ in range(k)]
    for j, (layer, (_, fan_out)) in enumerate(shapes.items()):
        arrays[f"experts.{layer}.w"] = np.stack([row[j] for row in draws])
        arrays[f"experts.{layer}.b"] = np.zeros((k, 1, fan_out))
    return _params({**arrays, **_task_arrays(rng, cfg, len(TASKS), gate=True)})


def init_two_tower_params(cfg: ModelConfig, seed: int) -> dict[str, Tensor]:
    """Baseline parameters; its one task is a task axis of size 1."""
    rng = np.random.default_rng(seed)
    d, h = cfg.schema.embed_dim, cfg.hidden
    arrays = {"user_embed": _user_table(rng, cfg.schema),
              "user_mlp.w1": _xavier(rng, d, h), "user_mlp.b1": np.zeros(h),
              "user_mlp.w2": _xavier(rng, h, d), "user_mlp.b2": np.zeros(d)}
    return _params({**arrays, **_task_arrays(rng, cfg, 1, gate=False)})


def count_params(params: dict[str, Tensor]) -> int:
    return sum(t.size for t in params.values())


# ---------------------------------------------------------------------------
# forward pieces


def _affine(x: Tensor, params: dict[str, Tensor], prefix: str) -> Tensor:
    return dg.affine(x, params[f"{prefix}.w"], params[f"{prefix}.b"])


def embed_user_fields(batch: EncodedBatch, params: dict[str, Tensor],
                      schema: FieldSchema) -> tuple[Tensor, np.ndarray]:
    """The batch's distinct field rows [U, d] and the inverse [B, m] that names
    the row of each (example, field) pair.

    Field ``j``'s ids count from row ``field_offsets[j]`` of ``user_embed``. A
    field one id wide in this batch gives one row per distinct id, found for
    all such fields by one 1-D ``np.unique``; a wider field gives one
    mean-pooled row per example. Each row is the weighted sum of a bag of at
    most ``W`` table rows (the widest field), so all rows come from one
    ``gather_mix`` of the table with the constant [1, U, W] bag weights.
    """
    table = params["user_embed"]
    size = batch.size
    widths = [idx.shape[1] for idx in batch.field_idx]
    single = [j for j, width in enumerate(widths) if width == 1]
    pooled = [j for j, width in enumerate(widths) if width > 1]
    firsts = np.column_stack([idx[:, 0] for idx in batch.field_idx]) + schema.field_offsets
    distinct, found = np.unique(firsts[:, single], return_inverse=True)
    inverse = np.empty((size, len(widths)), dtype=np.int64)
    inverse[:, single] = found.reshape(size, len(single))

    n = len(distinct)
    bag_ids = np.zeros((n + size * len(pooled), max(widths)), dtype=np.int64)
    bag_weights = np.zeros((1, *bag_ids.shape), dtype=table.data.dtype)
    bag_ids[:n, 0], bag_weights[0, :n, 0] = distinct, 1.0
    for r, j in enumerate(pooled):
        own = np.arange(n + r * size, n + (r + 1) * size)  # this field's row of each example
        bag_ids[own, :widths[j]] = batch.field_idx[j] + schema.field_offsets[j]
        bag_weights[0, own, :widths[j]] = batch.field_weight[j]
        inverse[:, j] = own
    rows = dg.gather_mix(dg.raw_tensor(bag_weights), dg.reshape(table, (1, *table.shape)), bag_ids)
    return dg.reshape(rows, (len(bag_ids), schema.embed_dim)), inverse


def tag_tower(tag_idx: np.ndarray, tag_weight: np.ndarray,
              params: dict[str, Tensor]) -> Tensor:
    """Tag embeddings [n_tasks, B, d]: per task, the mean of its tag rows, then affine + tanh."""
    embed = params["tag_tower.embed"]
    pool = np.broadcast_to(tag_weight.astype(embed.data.dtype), (len(embed.data), *tag_idx.shape))
    pooled = dg.gather_mix(dg.raw_tensor(pool), embed, tag_idx)
    return dg.tanh(_affine(pooled, params, "tag_tower.proj"))


def vke_attention(rows: Tensor, inverse: np.ndarray,
                  params: dict[str, Tensor]) -> tuple[Tensor, Tensor]:
    """Kernel-queried attention of every expert over the field rows of each example.

    ``rows [U, d]`` and ``inverse [B, m]`` are ``embed_user_fields``' output:
    keys, values and scores are computed once per distinct row ([k, U, .]),
    and each example's [k, m] scores and values are taken through the inverse.
    Returns (context [k, B, d], weights [k, B, m]), expert-major.
    """
    u, d = rows.shape
    k = params["virtual_kernels"].shape[0]
    kernels = dg.reshape(params["virtual_kernels"], (k, 1, d))
    q = dg.reshape(dg.tanh(_affine(kernels, params, "experts.q_proj")), (k, d, 1))
    keys = dg.tanh(_affine(rows, params, "experts.k_proj"))  # [k, U, d]
    values = dg.tanh(_affine(rows, params, "experts.v_proj"))
    scale = dg.raw_tensor(np.asarray(1.0 / math.sqrt(d), dtype=keys.data.dtype))
    scores = dg.reshape(dg.mul(dg.matmul(keys, q), scale), (k * u,))
    ids = inverse + u * np.arange(k).reshape(k, 1, 1)  # [k, B, m] in the flattened scores
    weights = dg.softmax(dg.gather_rows(scores, ids), axis=-1)
    return dg.gather_mix(weights, values, inverse), weights


def vke_forward(rows: Tensor, inverse: np.ndarray, params: dict[str, Tensor]) -> Tensor:
    """User embeddings [k, B, d] of every expert: attention context through each MLP head."""
    ctx, _ = vke_attention(rows, inverse, params)
    return _affine(dg.relu(_affine(ctx, params, "experts.head1")), params, "experts.head2")


def gate_weights_for_tags(tag_embeddings: Tensor, params: dict[str, Tensor],
                          mask: Tensor | None = None) -> Tensor:
    """Gate distributions [n_tasks, B, k] from tag embeddings [n_tasks, B, d] and the kernels.

    ``mask`` (``ExpertRouting.gate_mask``) zeroes the experts a task does not route
    to. User features never enter, which is what makes the serving cache exact.
    """
    keys = dg.tanh(_affine(params["virtual_kernels"], params, "gate.k_proj"))
    queries = dg.tanh(_affine(tag_embeddings, params, "gate.q_proj"))
    return dg.attention_weights(queries, keys, mask)


def vkg_combine(vke_outputs: Tensor, tag_embeddings: Tensor, params: dict[str, Tensor],
                mask: Tensor | None = None) -> tuple[Tensor, Tensor]:
    """Mix expert outputs [k, B, d] with each task's tag-conditioned gate.

    With tag embeddings [n_tasks, B, d] the result is (mixed [n_tasks, B, d],
    weights [n_tasks, B, k]). The expert outputs pass through as values
    unchanged so cached mixing stays lossless.
    """
    weights = gate_weights_for_tags(tag_embeddings, params, mask)
    n, b, k = weights.shape
    per_expert = dg.reshape(dg.transpose(weights), (n, k, b, 1))
    return dg.reduce_sum(dg.mul(vke_outputs, per_expert), axis=1), weights


def score_pair(user_embedding: Tensor, tag_embedding: Tensor,
               params: dict[str, Tensor]) -> Tensor:
    """Probabilities [n_tasks, B] = sigmoid(tau * cos(user, tag)); tau is learnable per task."""
    cos = dg.cosine_similarity(user_embedding, tag_embedding)
    tau = params["temperature"]
    return dg.sigmoid(dg.mul(cos, dg.reshape(tau, (tau.shape[0], 1))))


def mixture(batch: EncodedBatch, schema: FieldSchema, params: dict[str, Tensor],
            routing: ExpertRouting | None = None) -> tuple[Tensor, Tensor]:
    """(probabilities [n_tasks, B], gate weights [n_tasks, B, k]) of every expert and task;
    ``routing`` masks each task's gate to its experts (``ExpertRouting.gate_mask``)."""
    mask = routing and dg.raw_tensor(routing.gate_mask(params["virtual_kernels"].data.dtype))
    experts = vke_forward(*embed_user_fields(batch, params, schema), params)
    tags = tag_tower(batch.tag_idx, batch.tag_weight, params)
    users, gates = vkg_combine(experts, tags, params, mask)
    return score_pair(users, tags, params), gates


def mvke_forward(batch: EncodedBatch, cfg: ModelConfig,
                 params: dict[str, Tensor]) -> dict[Task, tuple[Tensor, Tensor]]:
    """Full mixture forward for a batch: every expert runs once, for both tasks.

    Returns ``{task: (probabilities [B], gate_weights [B, k])}``; a task's
    gate weights are exactly 0 on the experts outside its routing set.
    """
    probs, gates = mixture(batch, cfg.schema, params, cfg.routing)
    return {task: (dg.gather_rows(probs, i), dg.gather_rows(gates, i))
            for i, task in enumerate(TASKS)}


def two_tower_user_embedding(batch: EncodedBatch, cfg: ModelConfig,
                             params: dict[str, Tensor]) -> Tensor:
    """Baseline user tower [B, d]: mean field embedding through a 2-layer MLP."""
    rows, inverse = embed_user_fields(batch, params, cfg.schema)
    pooled = dg.reduce_mean(dg.gather_rows(rows, inverse), axis=1)
    hidden = dg.relu(dg.affine(pooled, params["user_mlp.w1"], params["user_mlp.b1"]))
    return dg.affine(hidden, params["user_mlp.w2"], params["user_mlp.b2"])


def two_tower_forward(batch: EncodedBatch, cfg: ModelConfig,
                      params: dict[str, Tensor]) -> Tensor:
    """Baseline probabilities [B]: mean field embedding -> 2-layer MLP -> cosine score."""
    user_emb = two_tower_user_embedding(batch, cfg, params)
    tag_emb = tag_tower(batch.tag_idx, batch.tag_weight, params)
    probs = score_pair(dg.reshape(user_emb, (1, *user_emb.shape)), tag_emb, params)
    return dg.reshape(probs, (batch.size,))


# ---------------------------------------------------------------------------
# model objects


def _frozen(params: dict[str, Tensor]) -> dict[str, Tensor]:
    """Non-tracking views of ``params``: a forward over them records no graph."""
    return {name: dg.raw_tensor(t.data) for name, t in params.items()}


def _task_view(params: dict[str, Tensor], routing: ExpertRouting,
               task: Task) -> dict[str, Tensor]:
    """Non-tracking one-task model: ``task``'s slice of each task-stacked parameter
    and its experts' rows of each expert-stacked one. It needs no gate mask, runs
    only the task's experts and gives the task's numbers of the full forward, up
    to the rounding of sums over the experts."""
    i, experts = TASKS.index(task), list(routing.task_experts(task))

    def rows(name: str, arr: np.ndarray) -> np.ndarray:
        if name.startswith(TASK_STACKED):
            return arr[i:i + 1]
        return arr[experts] if name.startswith(EXPERT_STACKED) else arr

    return {name: dg.raw_tensor(rows(name, t.data)) for name, t in params.items()}


class MvkeModel:
    """Mixture model wrapper: parameters, prediction, serving hooks."""

    kind = "mvke"
    tasks = TASKS

    def __init__(self, cfg: ModelConfig, seed: int = 0,
                 params: dict[str, Tensor] | None = None):
        self.cfg = cfg
        self.params = params if params is not None else init_mvke_params(cfg, seed)
        self.counters = {"user_tower": 0, "tag_tower": 0}

    def reset_counters(self) -> None:
        self.counters = {"user_tower": 0, "tag_tower": 0}

    def predict(self, batch: EncodedBatch, task: Task) -> np.ndarray:
        """``task``'s probabilities [B]; only the task's experts run."""
        self.counters["user_tower"] += batch.size
        self.counters["tag_tower"] += batch.size
        probs, _ = mixture(batch, self.cfg.schema, _task_view(self.params, self.cfg.routing, task))
        return dg.require_finite(probs.data[0], f"{task.value} predictions")

    def user_expert_outputs(self, batch: EncodedBatch) -> np.ndarray:
        """All expert outputs for a batch of users, shape [B, k, d]."""
        self.counters["user_tower"] += batch.size
        params = _frozen(self.params)
        outs = vke_forward(*embed_user_fields(batch, params, self.cfg.schema), params)
        return dg.require_finite(outs.data, "expert outputs").transpose(1, 0, 2)

    def tag_side(self, task: Task, tag_ids: Sequence[int]) -> tuple[np.ndarray, np.ndarray, float]:
        """Per-tag embeddings [T, d] and gate weights [T, n_task], plus tau."""
        self.counters["tag_tower"] += len(tag_ids)
        idx = np.array([int(t) for t in tag_ids], dtype=np.int64).reshape(-1, 1)
        params = _task_view(self.params, self.cfg.routing, task)
        emb = tag_tower(idx, np.ones(idx.shape), params)
        gates = gate_weights_for_tags(emb, params)
        tau = float(params["temperature"].data[0])
        what = f"{task.value} tag side"
        return dg.require_finite(emb.data[0], what), dg.require_finite(gates.data[0], what), tau


class TwoTowerModel:
    """Single-task baseline wrapper with the same prediction interface."""

    kind = "two_tower"

    def __init__(self, cfg: ModelConfig, task: Task, seed: int = 0,
                 params: dict[str, Tensor] | None = None):
        self.cfg = cfg
        self.task = task
        self.tasks = (task,)
        self.params = params if params is not None else init_two_tower_params(cfg, seed)
        self.counters = {"user_tower": 0, "tag_tower": 0}

    def reset_counters(self) -> None:
        self.counters = {"user_tower": 0, "tag_tower": 0}

    def predict(self, batch: EncodedBatch, task: Task) -> np.ndarray:
        if task != self.task:
            raise ConfigError(f"baseline model only serves task {self.task.value}")
        self.counters["user_tower"] += batch.size
        self.counters["tag_tower"] += batch.size
        out = two_tower_forward(batch, self.cfg, _frozen(self.params))
        return dg.require_finite(out.data, f"{task.value} predictions")


# ---------------------------------------------------------------------------
# checkpoint I/O (parameters + model identity)


def save_model(model, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = {
        "kind": model.kind,
        "config": model.cfg.to_dict(),
        "precision": dg.dtype_name(next(iter(model.params.values())).data),
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
    built = init_mvke_params(cfg, 0) if task is None else init_two_tower_params(cfg, 0)
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
