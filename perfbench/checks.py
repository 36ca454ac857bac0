"""Correctness checks for the benchmark's outputs.

Every check compares a program output against a computation made here,
apart from the program, or against a property the method must have. None
compares against a stored copy of an earlier output, so the checks hold
for any generator that keeps the documented data model, whatever its
random stream. A check raises ``CheckFailed`` with a message that names
what differed.
"""

from __future__ import annotations

import math

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def _fail(msg: str):
    raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# training and evaluation


def check_losses(history: list[dict]) -> None:
    """Every epoch's loss is finite and the last epoch's is below the first's."""
    losses = [h["train_loss"] for h in history]
    if len(losses) < 2:
        _fail(f"need at least two epochs to see the loss fall, got {len(losses)}")
    if not all(math.isfinite(x) for x in losses):
        _fail(f"non-finite epoch loss in {losses}")
    if not losses[-1] < losses[0]:
        _fail(f"last epoch loss {losses[-1]:.6f} is not below the first {losses[0]:.6f}")


def null_auc_se(n_pos: int, n_neg: int) -> float:
    """Standard error of the AUC of a random scorer (Mann-Whitney null)."""
    return math.sqrt((n_pos + n_neg + 1) / (12.0 * n_pos * n_neg))


def check_auc_range(task: str, value: float, n_pos: int, n_neg: int,
                    bayes: float, z: float = 3.0) -> None:
    """Clearly above chance and not above the Bayes bound.

    Both margins are ``z`` standard errors of the null AUC at this sample
    size: above ``0.5 + z*se`` a random scorer lands with probability
    about 0.1% for z = 3, and ``bayes + z*se`` allows for the sampling
    noise of the realized labels.
    """
    se = null_auc_se(n_pos, n_neg)
    if not value > 0.5 + z * se:
        _fail(f"{task} AUC {value:.4f} is not clearly above 0.5 "
              f"(needs > {0.5 + z * se:.4f} at {n_pos} pos / {n_neg} neg)")
    if not value <= bayes + z * se:
        _fail(f"{task} AUC {value:.4f} exceeds the Bayes bound {bayes:.4f} "
              f"plus slack {z * se:.4f}")


def pairwise_auc(scores, labels) -> float:
    """AUC by the quadratic definition: count every positive/negative pair.

    Ties count half. Returned as one exact integer ratio.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    pos, neg = s[y == 1], s[y == 0]
    diff = pos[:, None] - neg[None, :]
    doubled = 2 * int((diff > 0).sum()) + int((diff == 0).sum())
    return doubled / (2 * len(pos) * len(neg))


def check_auc_pairwise(value: float, scores, labels) -> None:
    """``value`` (the program's AUC) equals the pairwise count on the same rows."""
    ref = pairwise_auc(scores, labels)
    if abs(value - ref) > 1e-12:
        _fail(f"evaluation.auc gave {value!r}, the pairwise count gives {ref!r}")


def check_identical(what: str, a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape or a.dtype != b.dtype or not np.array_equal(a, b):
        _fail(f"{what}: arrays differ")


# ---------------------------------------------------------------------------
# serving


def check_counters(counters: dict, n_users: int, n_tags: int, n_tasks: int) -> None:
    """The cached path costs one user-tower pass per user, one tag pass per tag and task."""
    want = {"user_tower": n_users, "tag_tower": n_tags * n_tasks}
    got = {k: counters.get(k) for k in want}
    if got != want:
        _fail(f"tower counters {got}, expected {want}")


def check_cached_vs_forward(cached: np.ndarray, forward: np.ndarray,
                            tol: float = 1e-6) -> None:
    """Cached scores match the full forward within ``tol``."""
    if cached.shape != forward.shape:
        _fail(f"cached scores {cached.shape} vs forward {forward.shape}")
    err = float(np.max(np.abs(cached - forward))) if cached.size else 0.0
    if not err <= tol:
        _fail(f"cached score differs from the full forward by {err:.3e} (> {tol:g})")


def check_topk_lists(entries: dict, k: int, n_tags: int, user_ids) -> None:
    """Every user has min(k, T) entries, by score descending then tag ascending."""
    want = min(k, n_tags)
    if sorted(entries) != sorted(user_ids):
        _fail("top-k assignment does not cover exactly the cached users")
    for user_id, listed in entries.items():
        if len(listed) != want:
            _fail(f"user {user_id}: {len(listed)} top-k entries, expected {want}")
        if len({t for t, _ in listed}) != len(listed):
            _fail(f"user {user_id}: a tag is listed twice")
        for (t0, s0), (t1, s1) in zip(listed, listed[1:]):
            if not (s0 > s1 or (s0 == s1 and t0 < t1)):
                _fail(f"user {user_id}: ({t0}, {s0!r}) listed before ({t1}, {s1!r})")


def check_topk_exclusion(user_id: int, listed: list, forward_row: np.ndarray,
                         tag_ids, tol: float = 1e-6) -> None:
    """No tag left out of the list scores above the k-th listed score by more than ``tol``."""
    kept = {t for t, _ in listed}
    kth = listed[-1][1]
    for j, t in enumerate(tag_ids):
        if t not in kept and forward_row[j] > kth + tol:
            _fail(f"user {user_id}: excluded tag {t} scores {forward_row[j]:.7f}, "
                  f"above the k-th listed score {kth:.7f}")


def check_cache_round_trip(built, loaded) -> None:
    """Saved then loaded caches hold exactly the built ones."""
    (bu, bt), (lu, lt) = built, loaded
    if list(bu.user_ids) != list(lu.user_ids):
        _fail("user cache ids changed in the round trip")
    check_identical("user cache vectors", bu.vectors, lu.vectors)
    if set(bt.per_task) != set(lt.per_task):
        _fail("tag cache tasks changed in the round trip")
    for task, b in bt.per_task.items():
        got = lt.per_task[task]
        if (list(b.tag_ids) != list(got.tag_ids) or tuple(b.expert_ids) != tuple(got.expert_ids)
                or b.tau != got.tau):
            _fail(f"{task.value} tag cache index changed in the round trip")
        check_identical(f"{task.value} tag embeddings", b.embeddings, got.embeddings)
        check_identical(f"{task.value} gate weights", b.gate_weights, got.gate_weights)


# ---------------------------------------------------------------------------
# ingest


def check_rows_equal(written, read_back) -> None:
    """``read_dataset(write_dataset(x)) == x``, row for row."""
    if len(written) != len(read_back):
        _fail(f"wrote {len(written)} rows, read back {len(read_back)}")
    for i, (a, b) in enumerate(zip(written, read_back)):
        if a != b:
            _fail(f"row {i} changed in the round trip: {a} vs {b}")


def check_rows_valid(rows, n_tags: int) -> None:
    """0/1 labels, conversion implies click, non-empty in-vocab tags."""
    for i, ex in enumerate(rows):
        if ex.click_label not in (0, 1) or ex.conversion_label not in (0, 1):
            _fail(f"row {i}: labels must be 0/1")
        if ex.conversion_label == 1 and ex.click_label != 1:
            _fail(f"row {i}: conversion without click")
        if not ex.tag_set or not all(0 <= t < n_tags for t in ex.tag_set):
            _fail(f"row {i}: tags {ex.tag_set} empty or outside [0, {n_tags})")


def check_rows_match_truth(rows, user_fields) -> None:
    """Each row's fields are its user's fields in the ground truth."""
    for i, ex in enumerate(rows):
        if tuple(ex.field_values) != tuple(user_fields[ex.user_id]):
            _fail(f"row {i}: fields of user {ex.user_id} differ from the ground truth")


def check_encoded_weights(batch) -> None:
    """Each encoded field's (and the tag set's) weights sum to 1 per row."""
    for j, w in enumerate([*batch.field_weight, batch.tag_weight]):
        err = float(np.max(np.abs(w.sum(axis=1) - 1.0)))
        if err > 1e-9:
            _fail(f"encoded column {j}: weights sum to 1 only within {err:.2e}")
