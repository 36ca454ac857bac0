"""Cached fast prediction.

Inference cost for scoring every user against every tag drops from
user-count times tag-count tower passes to one user-tower pass per user
plus one tag-tower pass per tag and task. Per user the cache stores all
expert outputs; per (task, tag) it stores the tag embedding and the gate
weights over that task's experts. Because gate weights depend only on the
tag side, mixing cached vectors reproduces the full forward exactly.
"""

from __future__ import annotations

import json
import math
import struct
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import diffgraph as dg
from .errors import ConfigError, DataError
from .model import MvkeModel, Task, TASKS, encode_examples
from .data import Example

_HEADER = struct.Struct("<qqq")  # (vectors per row, vector dim, row count)


def _write_cache(bin_path, index_path, header: tuple[int, int, int],
                 payload: np.ndarray, index: dict) -> None:
    """Header plus little-endian payload, and a JSON index that names the dtype."""
    dtype = dg.dtype_name(payload)
    with open(bin_path, "wb") as fh:
        fh.write(_HEADER.pack(*header))
        fh.write(np.ascontiguousarray(payload, dtype=dg.codec_dtype(dtype)).tobytes())
    Path(index_path).write_text(json.dumps({**index, "dtype": dtype}, separators=(",", ":"))
                                + "\n", encoding="utf-8")


def _read_cache(bin_path, index_path, row_width) -> tuple[dict, int, int, np.ndarray]:
    """(index, a, b, rows [n, row_width(a, b)]) of a cache with header (a, b, n).

    Raises DataError naming the file unless the index's dtype is known, the
    header lists as many rows as the index has ids and the payload fills
    them exactly. The rows are a writable view of the bytes read, not a copy.
    """
    try:
        index = json.loads(Path(index_path).read_text(encoding="utf-8"))
        code, n_ids = dg.codec_dtype(index["dtype"]), len(index["ids"])
        raw = np.fromfile(bin_path, dtype=np.uint8)
    except (DataError, OSError, KeyError, TypeError, ValueError) as e:
        raise DataError(f"cannot load cache {bin_path} with index {index_path}: {e}") from e
    if raw.size < _HEADER.size:
        raise DataError(f"cache {bin_path} is shorter than its {_HEADER.size}-byte header")
    a, b, n = _HEADER.unpack_from(raw)
    if n != n_ids:
        raise DataError(f"cache {bin_path} holds {n} rows, its index lists {n_ids} ids")
    width = row_width(a, b)
    if min(a, b) < 0 or raw.size - _HEADER.size != n * width * code.itemsize:
        raise DataError(f"cache {bin_path}: {raw.size - _HEADER.size} payload bytes "
                        f"do not fill header ({a}, {b}, {n})")
    return index, a, b, raw[_HEADER.size:].view(code).reshape(n, width)


@dataclass
class UserCache:
    """Per-user expert outputs, shape [n_users, k, d]."""

    user_ids: list[int]
    vectors: np.ndarray

    def __post_init__(self):
        self._index = {u: i for i, u in enumerate(self.user_ids)}

    def lookup(self, user_id: int) -> np.ndarray:
        i = self._index.get(user_id)
        if i is None:
            raise DataError(f"user {user_id} not cached")
        return self.vectors[i]

    @property
    def stored_values(self) -> int:
        return int(self.vectors.size)

    def save(self, bin_path, index_path) -> None:
        n, k, d = self.vectors.shape
        _write_cache(bin_path, index_path, (k, d, n), self.vectors, {"ids": self.user_ids})

    @classmethod
    def load(cls, bin_path, index_path) -> "UserCache":
        index, k, d, rows = _read_cache(bin_path, index_path, lambda k, d: k * d)
        return cls(user_ids=index["ids"], vectors=rows.reshape(-1, k, d))


@dataclass
class TaskTagCache:
    """Per-tag embeddings and gate weights for one task."""

    task: Task
    tag_ids: list[int]
    embeddings: np.ndarray  # [n_tags, d]
    gate_weights: np.ndarray  # [n_tags, n_task_experts]
    expert_ids: tuple[int, ...]
    tau: float

    def __post_init__(self):
        self._index = {t: i for i, t in enumerate(self.tag_ids)}

    def row(self, tag_id: int) -> int:
        i = self._index.get(tag_id)
        if i is None:
            raise DataError(f"tag {tag_id} not cached for task {self.task.value}")
        return i

    def save(self, bin_path, index_path) -> None:
        n, d = self.embeddings.shape
        payload = np.concatenate(
            [self.embeddings, self.gate_weights.astype(self.embeddings.dtype)], axis=1)
        _write_cache(bin_path, index_path, (len(self.expert_ids), d, n), payload,
                     {"task": self.task.value, "ids": self.tag_ids,
                      "experts": list(self.expert_ids), "tau": self.tau})

    @classmethod
    def load(cls, bin_path, index_path) -> "TaskTagCache":
        doc, n_w, d, rows = _read_cache(bin_path, index_path, lambda n_w, d: d + n_w)
        try:
            task, experts, tau = Task(doc["task"]), tuple(doc["experts"]), float(doc["tau"])
        except (KeyError, TypeError, ValueError) as e:
            raise DataError(f"cache index {index_path}: {e}") from e
        if n_w != len(experts):
            raise DataError(f"cache {bin_path} holds {n_w} gate weights per tag, "
                            f"its index lists {len(experts)} experts")
        return cls(task=task, tag_ids=doc["ids"], embeddings=rows[:, :d].copy(),
                   gate_weights=rows[:, d:].copy(), expert_ids=experts, tau=tau)


@dataclass
class TagCache:
    per_task: dict[Task, TaskTagCache]

    def __getitem__(self, task: Task) -> TaskTagCache:
        return self.per_task[task]


@dataclass
class TagAssignment:
    """Per-user ranked tags, scores descending, ties by ascending tag id."""

    task: Task
    top_n: int
    entries: dict[int, list[tuple[int, float]]]

    def rows(self) -> list[dict]:
        out = []
        for user_id in sorted(self.entries):
            for rank, (tag_id, score) in enumerate(self.entries[user_id], start=1):
                out.append({"user_id": user_id, "rank": rank, "tag_id": tag_id,
                            "task": self.task.value, "score": score})
        return out


CACHE_BATCH = 512


def build_caches(model: MvkeModel, users: Sequence[tuple[int, tuple]],
                 tags: Sequence[int],
                 tasks: Sequence[Task] = TASKS) -> tuple[UserCache, TagCache]:
    """One user-tower pass per user, one tag-tower pass per tag per task.

    ``users`` are (user_id, field_values) pairs; invocation counts are
    visible on ``model.counters``.
    """
    user_ids = [u for u, _ in users]
    chunks = []
    for start in range(0, len(users), CACHE_BATCH):
        part = users[start:start + CACHE_BATCH]
        examples = [Example(u, fv, (0,), 0, 0) for u, fv in part]
        batch = encode_examples(examples, model.cfg.schema)
        chunks.append(model.user_expert_outputs(batch))
    vectors = (np.concatenate(chunks) if chunks else
               np.zeros((0, model.cfg.routing.n_experts, model.cfg.schema.embed_dim),
                        dtype=model.params["virtual_kernels"].data.dtype))
    user_cache = UserCache(user_ids, vectors)

    per_task = {}
    for task in tasks:
        tag_ids = [int(t) for t in tags]
        emb, gates, tau = model.tag_side(task, tag_ids)
        per_task[task] = TaskTagCache(task, tag_ids, emb, gates,
                                      model.cfg.routing.task_experts(task), tau)
    return user_cache, TagCache(per_task)


def score_from_cache(user_id: int, tag_id: int, task: Task,
                     caches: tuple[UserCache, TagCache]) -> float:
    """Cached score for one (user, tag) pair; exact match of the forward."""
    user_cache, tag_cache = caches
    tc = tag_cache[task]
    row = tc.row(tag_id)
    mixed = tc.gate_weights[row] @ user_cache.lookup(user_id)[list(tc.expert_ids)]
    tag_vec = tc.embeddings[row]
    norms = math.sqrt(float(mixed @ mixed)) * math.sqrt(float(tag_vec @ tag_vec))
    cos = min(max(float(mixed @ tag_vec) / max(norms, 1e-12), -1.0), 1.0)
    return dg._sigmoid_scalar(tc.tau * cos)


def _all_tags_scorer(tc: TaskTagCache):
    """(tag ids ascending, score): score(vectors [u, k_all, d]) -> [u, T] float64.

    The gates depend only on the tag, so with ``E_u`` the user's expert rows
    and ``w_t`` the tag's gate weights, ``mix · t = Σ_k w_tk (E_uk · t)`` and
    ``‖mix‖² = w_tᵀ (E_u E_uᵀ) w_t``: one matmul each per user chunk, with
    no ``[u, T, d]`` tensor. float64 keeps the quadratic form clear of
    cancellation. Columns are in ascending tag-id order.
    """
    tag_ids = np.asarray(tc.tag_ids, dtype=np.int64)
    order = np.argsort(tag_ids, kind="stable")
    emb = tc.embeddings[order].astype(np.float64)
    w = tc.gate_weights[order].astype(np.float64)
    (n, k), d = w.shape, emb.shape[1]
    dot_form = (w[:, :, None] * emb[:, None, :]).reshape(n, k * d).T
    norm_form = (w[:, :, None] * w[:, None, :]).reshape(n, k * k).T
    tag_norms = np.linalg.norm(emb, axis=1)
    experts = list(tc.expert_ids)

    def score(vectors: np.ndarray) -> np.ndarray:
        v = vectors[:, experts, :].astype(np.float64)
        u = len(v)
        cos = v.reshape(u, k * d) @ dot_form
        norms = (v @ v.transpose(0, 2, 1)).reshape(u, k * k) @ norm_form
        # in place: a fresh [u, T] temporary per step costs more than the step
        np.sqrt(np.maximum(norms, 0.0, out=norms), out=norms)
        norms *= tag_norms
        cos /= np.maximum(norms, 1e-12, out=norms)
        np.clip(cos, -1.0, 1.0, out=cos)
        cos *= tc.tau
        return dg._sigmoid_values(cos)

    return tag_ids[order], score


def assign_topk(caches: tuple[UserCache, TagCache], top_n: int,
                task: Task) -> TagAssignment:
    """Exhaustive exact top-N tags per user from the caches alone.

    Scores every tag for ``CACHE_BATCH`` users at a time, so memory stays
    at a few ``[CACHE_BATCH, T]`` arrays whatever the roster size.
    """
    if top_n < 1:
        raise ConfigError("top_n must be >= 1")
    user_cache, tag_cache = caches
    tag_ids, score = _all_tags_scorer(tag_cache[task])
    top_n = min(top_n, len(tag_ids))
    if top_n == 0:
        return TagAssignment(task, 0, {u: [] for u in user_cache.user_ids})
    entries: dict[int, list[tuple[int, float]]] = {}
    for start in range(0, len(user_cache.user_ids), CACHE_BATCH):
        scores = score(user_cache.vectors[start:start + CACHE_BATCH])
        cols = np.argpartition(-scores, top_n - 1, axis=1)[:, :top_n]
        picked = np.take_along_axis(scores, cols, axis=1)
        # rows where only some of the tags tied at the top_n-th score fit:
        # a stable sort over ascending tag ids keeps the lowest ids
        kth = picked.min(axis=1, keepdims=True)
        split = np.flatnonzero((scores == kth).sum(axis=1) > (picked == kth).sum(axis=1))
        cols[split] = np.argsort(-scores[split], axis=1, kind="stable")[:, :top_n]
        picked = np.take_along_axis(scores, cols, axis=1)
        # score descending, then tag id ascending (columns are in tag-id order)
        order = np.lexsort((cols, -picked), axis=1)
        ranked_tags = tag_ids[np.take_along_axis(cols, order, axis=1)].tolist()
        ranked_scores = np.take_along_axis(picked, order, axis=1).tolist()
        entries.update(zip(user_cache.user_ids[start:start + CACHE_BATCH],
                           (list(zip(t, s)) for t, s in zip(ranked_tags, ranked_scores))))
    return TagAssignment(task, top_n, entries)


def naive_scores(model: MvkeModel, users: Sequence[tuple[int, tuple]],
                 tags: Sequence[int], task: Task) -> np.ndarray:
    """Single-tower regime: one full per-pair forward for every pair."""
    out = np.empty((len(users), len(tags)))
    for i, (user_id, fields) in enumerate(users):
        for j, tag in enumerate(tags):
            one = encode_examples([Example(user_id, fields, (int(tag),), 0, 0)],
                                  model.cfg.schema)
            out[i, j] = model.predict(one, task)[0]
    return out


def bench(model: MvkeModel, users: Sequence[tuple[int, tuple]],
          tags: Sequence[int], sizes: Sequence[tuple[int, int]],
          tasks: Sequence[Task] = TASKS) -> list[dict]:
    """Compare naive per-pair inference against the cached path.

    Rows report tower invocation counters and wall time per (n_users,
    n_tags) size; the naive side runs full forwards for every pair and
    task.
    """
    rows = []
    for n_users, n_tags in sizes:
        if n_users > len(users) or n_tags > len(tags):
            raise ConfigError(f"bench size ({n_users}, {n_tags}) exceeds roster")
        sub_users = list(users[:n_users])
        sub_tags = list(tags[:n_tags])

        model.reset_counters()
        t0 = time.perf_counter()
        for task in tasks:
            naive_scores(model, sub_users, sub_tags, task)
        naive_seconds = time.perf_counter() - t0
        naive_counts = dict(model.counters)

        model.reset_counters()
        t0 = time.perf_counter()
        user_cache, tag_cache = build_caches(model, sub_users, sub_tags, tasks)
        for task in tasks:
            _, score = _all_tags_scorer(tag_cache[task])
            for start in range(0, n_users, CACHE_BATCH):
                score(user_cache.vectors[start:start + CACHE_BATCH])
        cached_seconds = time.perf_counter() - t0
        cached_counts = dict(model.counters)

        rows.append({
            "n_users": n_users,
            "n_tags": n_tags,
            "n_tasks": len(tasks),
            "naive_user_tower": naive_counts["user_tower"],
            "naive_tag_tower": naive_counts["tag_tower"],
            "cached_user_tower": cached_counts["user_tower"],
            "cached_tag_tower": cached_counts["tag_tower"],
            "naive_seconds": naive_seconds,
            "cached_seconds": cached_seconds,
            "speedup": naive_seconds / cached_seconds if cached_seconds > 0 else math.inf,
        })
    return rows


def save_caches(caches: tuple[UserCache, TagCache], out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    user_cache, tag_cache = caches
    user_cache.save(out / "user_cache.bin", out / "user_cache.json")
    for task, tc in tag_cache.per_task.items():
        tc.save(out / f"tag_cache_{task.value}.bin", out / f"tag_cache_{task.value}.json")


def load_caches(cache_dir, tasks: Sequence[Task] = TASKS) -> tuple[UserCache, TagCache]:
    cache = Path(cache_dir)
    user_bin = cache / "user_cache.bin"
    if not user_bin.exists():
        raise DataError(f"no user cache under {cache}")
    user_cache = UserCache.load(user_bin, cache / "user_cache.json")
    per_task = {}
    for task in tasks:
        per_task[task] = TaskTagCache.load(cache / f"tag_cache_{task.value}.bin",
                                           cache / f"tag_cache_{task.value}.json")
    return user_cache, TagCache(per_task)
