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
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from . import diffgraph as dg
from .errors import ConfigError, DataError
from .model import MvkeModel, Task, TASKS, check_task, encode_examples, encode_user_fields
from .data import Example

def _write_cache(bin_path, index_path, values: np.ndarray, index: dict) -> None:
    """The little-endian payload of ``values`` alone, and a JSON index that adds
    its ``{"shape", "dtype"}`` record to ``index``."""
    record, payload = dg.to_payload(values)
    with open(bin_path, "wb") as fh:
        payload.tofile(fh)
    Path(index_path).write_text(json.dumps({**index, **record}, separators=(",", ":"))
                                + "\n", encoding="utf-8")


def _read_cache(bin_path, index_path, rank: int) -> tuple[dict, np.ndarray]:
    """(index, payload) of a cache whose payload has ``rank`` axes, one row per id.

    Raises DataError naming the file unless the index's ids are distinct
    JSON integers (not bools), its shape and dtype are a codec record the
    payload fills exactly, and every value is finite. The payload is a
    writable view of the bytes read, not a copy.
    """
    try:
        index = json.loads(Path(index_path).read_text(encoding="utf-8"))
        ids = index["ids"]
        if (not isinstance(ids, list) or not set(map(type, ids)) <= {int}
                or len(set(ids)) != len(ids)):
            raise ValueError("its ids are not distinct integers")
        values = dg.from_payload(index, np.fromfile(bin_path, dtype=np.uint8))
    except (DataError, OSError, KeyError, TypeError, ValueError) as e:
        raise DataError(f"cannot load cache {bin_path} with index {index_path}: {e}") from e
    if values.ndim != rank or len(values) != len(ids):
        raise DataError(f"cache {bin_path} has shape {list(values.shape)}, expected "
                        f"{rank} axes and a row for each of its {len(ids)} ids")
    if not np.isfinite(values).all():
        raise DataError(f"cache {bin_path} holds non-finite values")
    return index, values


def _id_index(ids: list[int], what: str) -> dict[int, int]:
    """``{id: row}``; DataError naming the first id listed twice."""
    index = {x: i for i, x in enumerate(ids)}
    if len(index) != len(ids):
        repeated = next(x for i, x in enumerate(ids) if index[x] != i)
        raise DataError(f"{what} id {repeated} is listed more than once")
    return index


@dataclass
class UserCache:
    """Per-user expert outputs, shape [n_users, k, d]."""

    user_ids: list[int]
    vectors: np.ndarray

    def __post_init__(self):
        self._index = _id_index(self.user_ids, "user")

    def lookup(self, user_id: int) -> np.ndarray:
        i = self._index.get(user_id)
        if i is None:
            raise DataError(f"user {user_id} not cached")
        return self.vectors[i]

    def save(self, bin_path, index_path) -> None:
        _write_cache(bin_path, index_path, self.vectors, {"ids": self.user_ids})

    @classmethod
    def load(cls, bin_path, index_path) -> "UserCache":
        index, vectors = _read_cache(bin_path, index_path, 3)
        return cls(user_ids=index["ids"], vectors=vectors)


@dataclass
class TaskTagCache:
    """Per-tag embeddings and gate weights for one task.

    Construction also lays out what a single lookup needs of each tag:
    ``_mixing`` ``[T, max(expert_ids) + 1]`` holds the tag's gate weight of
    expert ``e`` in column ``e`` and exactly 0 for an expert outside the
    task, and ``_tag_norms`` the embedding's norm, clamped at ``NORM_EPS``.
    """

    task: Task
    tag_ids: list[int]
    embeddings: np.ndarray  # [n_tags, d]
    gate_weights: np.ndarray  # [n_tags, n_task_experts]
    expert_ids: tuple[int, ...]
    tau: float

    def __post_init__(self):
        self._index = _id_index(self.tag_ids, "tag")
        self._mixing = np.zeros((len(self.tag_ids), max(self.expert_ids, default=-1) + 1),
                                dtype=self.gate_weights.dtype)
        self._mixing[:, list(self.expert_ids)] = self.gate_weights
        self._tag_norms = [max(math.sqrt(float(t.dot(t))), dg.NORM_EPS) for t in self.embeddings]

    def row(self, tag_id: int) -> int:
        i = self._index.get(tag_id)
        if i is None:
            raise DataError(f"tag {tag_id} not cached for task {self.task.value}")
        return i

    def save(self, bin_path, index_path) -> None:
        payload = np.concatenate(
            [self.embeddings, self.gate_weights.astype(self.embeddings.dtype)], axis=1)
        _write_cache(bin_path, index_path, payload,
                     {"task": self.task.value, "ids": self.tag_ids,
                      "experts": list(self.expert_ids), "tau": self.tau})

    @classmethod
    def load(cls, bin_path, index_path, task: Task, n_experts: int,
             embed_dim: int) -> "TaskTagCache":
        """DataError naming the file unless the index names ``task``, lists distinct
        expert ids in ``[0, n_experts)`` and a finite ``tau``, and each row holds an
        ``embed_dim``-wide embedding in [-1, 1] (the tag tower ends in tanh), then
        one gate weight in [0, 1] (a softmax) per listed expert."""
        doc, rows = _read_cache(bin_path, index_path, 2)
        try:
            experts, tau = tuple(doc["experts"]), doc["tau"]
            if doc["task"] != task.value:
                raise ValueError(f"task {doc['task']!r} is not {task.value!r}")
            if (not all(type(e) is int and 0 <= e < n_experts for e in experts)
                    or len(set(experts)) != len(experts)):
                raise ValueError(f"experts {list(experts)} are not distinct ids "
                                 f"in [0, {n_experts})")
            if type(tau) not in (int, float) or not math.isfinite(tau):
                raise ValueError(f"tau {tau!r} is not a finite number")
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise DataError(f"cache index {index_path}: {e}") from e
        d = rows.shape[1] - len(experts)
        if d != embed_dim:
            raise DataError(f"cache {bin_path} holds {d}-wide tag embeddings, "
                            f"the user cache {embed_dim}-wide expert outputs")
        for what, values, low in (("tag embedding", rows[:, :d], -1.0),
                                  ("gate weight", rows[:, d:], 0.0)):
            if not ((values >= low) & (values <= 1.0)).all():
                raise DataError(f"cache {bin_path} holds a {what} outside [{low:g}, 1], "
                                "which the model cannot have written")
        return cls(task=task, tag_ids=doc["ids"], embeddings=rows[:, :d].copy(),
                   gate_weights=rows[:, d:].copy(), expert_ids=experts, tau=float(tau))


@dataclass
class TagCache:
    per_task: dict[Task, TaskTagCache]

    def __getitem__(self, task: Task) -> TaskTagCache:
        """``task``'s cache; ConfigError naming it and the cached tasks if there is none."""
        try:
            return self.per_task[task]
        except KeyError:
            check_task(task, tuple(self.per_task), "the tag cache")
            raise


@dataclass(eq=False)
class TagAssignment:
    """Per-user ranked tags, scores descending, ties by ascending tag id.

    Row ``i`` of ``tag_ids`` and ``scores`` ``[U, top_n]`` ranks the tags of
    user ``user_ids[i]``.
    """

    task: Task
    user_ids: list[int]
    tag_ids: np.ndarray
    scores: np.ndarray

    @cached_property
    def entries(self) -> dict[int, list[tuple[int, float]]]:
        """``{user_id: [(tag_id, score), ...]}``, built on first read."""
        return {user_id: list(zip(tags, scores)) for user_id, tags, scores
                in zip(self.user_ids, self.tag_ids.tolist(), self.scores.tolist())}

    def rows(self) -> list[dict]:
        """CSV rows by ascending user id, then rank."""
        tags, scores, task = self.tag_ids.tolist(), self.scores.tolist(), self.task.value
        return [{"user_id": user_id, "rank": rank, "tag_id": tag_id, "task": task, "score": score}
                for i, user_id in sorted(enumerate(self.user_ids), key=lambda p: p[1])
                for rank, (tag_id, score) in enumerate(zip(tags[i], scores[i]), start=1)]


CACHE_BATCH = 512


def build_caches(model: MvkeModel, users: Sequence[tuple[int, tuple]],
                 tags: Sequence[int]) -> tuple[UserCache, TagCache]:
    """One user-tower pass per user, one tag-tower pass per tag for each of ``model.tasks``.

    ``users`` are (user_id, field_values) pairs; invocation counts are
    visible on ``model.counters``.
    """
    user_ids, field_rows = [u for u, _ in users], [fv for _, fv in users]
    chunks = [model.user_expert_outputs(
        encode_user_fields(field_rows[start:start + CACHE_BATCH], model.cfg.schema))
        for start in range(0, len(users), CACHE_BATCH)]
    vectors = (np.concatenate(chunks) if chunks else
               np.zeros((0, model.cfg.routing.n_experts, model.cfg.schema.embed_dim),
                        dtype=model.params["virtual_kernels"].data.dtype))
    user_cache = UserCache(user_ids, vectors)

    per_task = {}
    for task in model.tasks:
        tag_ids = [int(t) for t in tags]
        emb, gates, tau = model.tag_side(task, tag_ids)
        per_task[task] = TaskTagCache(task, tag_ids, emb, gates,
                                      model.cfg.routing.task_experts(task), tau)
    return user_cache, TagCache(per_task)


def score_from_cache(user_id: int, tag_id: int, task: Task,
                     caches: tuple[UserCache, TagCache]) -> float:
    """Cached score for one (user, tag) pair; exact match of the forward.

    The tag's mixing row weighs the user's leading expert rows, a view, so
    experts outside the task enter as exact zeros; ``ndarray.dot`` costs
    about half of ``@`` per call on vectors this short.
    """
    user_cache, tag_cache = caches
    tc = tag_cache[task]
    row = tc.row(tag_id)
    mixing = tc._mixing[row]
    mixed = mixing.dot(user_cache.lookup(user_id)[:len(mixing)])
    tag_vec = tc.embeddings[row]
    norms = max(math.sqrt(float(mixed.dot(mixed))), dg.NORM_EPS) * tc._tag_norms[row]
    cos = min(max(float(mixed.dot(tag_vec)) / norms, -1.0), 1.0)
    return dg._sigmoid_scalar(tc.tau * cos)


def _all_tags_scorer(tc: TaskTagCache):
    """(tag ids ascending, neg_logits): neg_logits(vectors [u, k_all, d]) -> [u, T] float64.

    Entries are ``-tau · cos``, the sigmoid's argument negated. The gates
    depend only on the tag, so with ``E_u`` the user's expert rows and ``w_t``
    the tag's gate weights, ``mix · t = Σ_k w_tk (E_uk · t)`` and ``‖mix‖² =
    w_tᵀ (E_u E_uᵀ) w_t``: one matmul each per user chunk, in float64 against
    cancellation, with no ``[u, T, d]`` tensor. Columns ascend by tag id.
    """
    tag_ids = np.asarray(tc.tag_ids, dtype=np.int64)
    order = np.argsort(tag_ids, kind="stable")
    emb = tc.embeddings[order].astype(np.float64)
    w = tc.gate_weights[order].astype(np.float64)
    (n, k), d = w.shape, emb.shape[1]
    dot_form = (w[:, :, None] * emb[:, None, :]).reshape(n, k * d).T
    norm_form = (w[:, :, None] * w[:, None, :]).reshape(n, k * k).T
    tag_norms = np.maximum(np.linalg.norm(emb, axis=1), dg.NORM_EPS)
    experts = list(tc.expert_ids)

    def neg_logits(vectors: np.ndarray) -> np.ndarray:
        v = vectors[:, experts, :].astype(np.float64)
        u = len(v)
        cos = v.reshape(u, k * d) @ dot_form
        norms = (v @ v.transpose(0, 2, 1)).reshape(u, k * k) @ norm_form
        # in place: a fresh [u, T] temporary per step costs more than the step;
        # each norm is clamped at NORM_EPS, as in the forward's cosine
        np.sqrt(np.maximum(norms, dg.NORM_EPS ** 2, out=norms), out=norms)
        norms *= tag_norms
        cos /= norms
        np.clip(cos, -1.0, 1.0, out=cos)
        cos *= -tc.tau  # exactly -(tau · cos): rounding is symmetric in sign
        return cos

    return tag_ids[order], neg_logits


def assign_topk(caches: tuple[UserCache, TagCache], top_n: int,
                task: Task) -> TagAssignment:
    """Exhaustive exact top-N tags per user from the caches alone.

    Scores every tag for ``CACHE_BATCH`` users at a time, so memory stays
    at a few ``[CACHE_BATCH, T]`` arrays whatever the roster size.
    """
    if top_n < 1:
        raise ConfigError("top_n must be >= 1")
    user_cache, tag_cache = caches
    tag_ids, neg_logits = _all_tags_scorer(tag_cache[task])
    top_n = min(top_n, len(tag_ids))
    n_users = len(user_cache.user_ids)
    ranked_tags = np.empty((n_users, top_n), dtype=np.int64)
    ranked_scores = np.empty((n_users, top_n))
    if top_n == 0:
        return TagAssignment(task, user_cache.user_ids, ranked_tags, ranked_scores)
    for start in range(0, n_users, CACHE_BATCH):
        neg = neg_logits(user_cache.vectors[start:start + CACHE_BATCH])
        # ranked on the sigmoid's argument: columns [:top_n] are the listed
        # tags and column top_n, if there is one, the best tag left out; the
        # sigmoid runs on those only
        cols = np.argpartition(neg, min(top_n, len(tag_ids) - 1), axis=1)[:, :top_n + 1]
        probs = dg._sigmoid_values(-np.take_along_axis(neg, cols, axis=1))
        cols, picked = cols[:, :top_n], probs[:, :top_n]
        # the sigmoid is monotone, so no tag left out scores above the best
        # one; only where that one ties the last listed score may a lower id
        # belong in the list: such rows sort the sigmoid of the whole row,
        # stably over ascending tag ids
        tied = np.flatnonzero((probs[:, top_n:] == picked.min(axis=1, keepdims=True)).any(axis=1))
        scores = dg._sigmoid_values(-neg[tied])
        cols[tied] = np.argsort(-scores, axis=1, kind="stable")[:, :top_n]
        picked[tied] = np.take_along_axis(scores, cols[tied], axis=1)
        # score descending, then tag id ascending (columns are in tag-id order)
        order = np.lexsort((cols, -picked), axis=1)
        ranked_tags[start:start + CACHE_BATCH] = tag_ids[np.take_along_axis(cols, order, axis=1)]
        ranked_scores[start:start + CACHE_BATCH] = np.take_along_axis(picked, order, axis=1)
    return TagAssignment(task, user_cache.user_ids, ranked_tags, ranked_scores)


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
          tags: Sequence[int], sizes: Sequence[tuple[int, int]]) -> list[dict]:
    """Compare naive per-pair inference against the cached path.

    Rows report tower invocation counters and wall time per (n_users,
    n_tags) size; the naive side runs full forwards for every pair and
    task, the cached side builds caches and runs ``assign_topk`` over all tags.
    """
    rows = []
    for n_users, n_tags in sizes:
        if not (1 <= n_users <= len(users) and 1 <= n_tags <= len(tags)):
            raise ConfigError(f"bench size ({n_users}, {n_tags}) is outside "
                              f"[1, {len(users)}] x [1, {len(tags)}]")
        sub_users = list(users[:n_users])
        sub_tags = list(tags[:n_tags])

        model.reset_counters()
        t0 = time.perf_counter()
        for task in model.tasks:
            naive_scores(model, sub_users, sub_tags, task)
        naive_seconds = time.perf_counter() - t0
        naive_counts = dict(model.counters)

        model.reset_counters()
        t0 = time.perf_counter()
        user_cache, tag_cache = build_caches(model, sub_users, sub_tags)
        for task in model.tasks:
            assign_topk((user_cache, tag_cache), n_tags, task)
        cached_seconds = time.perf_counter() - t0
        cached_counts = dict(model.counters)

        rows.append({
            "n_users": n_users,
            "n_tags": n_tags,
            "n_tasks": len(model.tasks),
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


def load_caches(cache_dir) -> tuple[UserCache, TagCache]:
    """The caches ``save_caches`` wrote, with the tag cache of each task whose
    ``tag_cache_<task>.json`` is present; DataError naming the directory if none is."""
    cache = Path(cache_dir)
    tasks = [task for task in TASKS if (cache / f"tag_cache_{task.value}.json").exists()]
    if not tasks:
        raise DataError(f"no tag_cache_<task>.json of any task {[t.value for t in TASKS]} "
                        f"under {cache}")
    user_cache = UserCache.load(cache / "user_cache.bin", cache / "user_cache.json")
    per_task = {task: TaskTagCache.load(cache / f"tag_cache_{task.value}.bin",
                                        cache / f"tag_cache_{task.value}.json", task,
                                        *user_cache.vectors.shape[1:])
                for task in tasks}
    return user_cache, TagCache(per_task)
