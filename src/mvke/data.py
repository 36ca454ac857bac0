"""Synthetic click/conversion dataset with a known preference model.

Users get categorical attribute fields; latent affinity vectors are built
deterministically from those fields, so the labels are learnable from the
observable features. Clicking and converting use separate latents,
correlated at rho = 0.5 so the two actions are related but not identical.
Optionally (n_facets > 1) tags split into topic facets with one user
latent per facet, which makes a single compact user embedding lossy and
rewards tag-conditioned models. Ads carry 1 to 3 tags. Impressions draw
click and conversion labels from the latent model under the sequential
constraint (conversion implies click), and each click is followed by a
configurable number of randomly sampled negative rows, mirroring how
action logs get joined with sampled negatives.

The GroundTruth object keeps the latent vectors so tests and acceptance
checks can compute the Bayes-optimal AUC bound.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import diffgraph as dg
from .errors import ConfigError, DataError
from .evaluation import auc
from .model import FieldSchema, Task, _int

LATENT_CORRELATION = 0.5

# field layout of the generator (name, vocab, max values per record)
FIELD_LAYOUT = (
    ("age_band", 8, 1),
    ("gender", 3, 1),
    ("region", 20, 1),
    ("device", 5, 1),
    ("income_band", 6, 1),
    ("behavior", 40, 3),
)


@dataclass(frozen=True)
class Example:
    user_id: int
    field_values: tuple
    tag_set: tuple
    click_label: int
    conversion_label: int

    def __post_init__(self):
        if self.conversion_label == 1 and self.click_label != 1:
            raise DataError("conversion without click violates the action sequence")


@dataclass(frozen=True)
class GeneratorConfig:
    n_users: int = 10_000
    n_tags: int = 100
    n_ads: int = 2_000
    n_impressions: int = 200_000
    n_test_impressions: int = 40_000
    latent_dim: int = 8
    n_facets: int = 1
    negative_ratio: int = 1
    click_offset: float = 0.9
    conv_offset: float = -2.1
    affinity_scale: float = 4.0
    seed: int = 0

    def __post_init__(self):
        for name in ("n_users", "n_tags", "n_ads", "n_impressions",
                     "n_test_impressions", "latent_dim", "n_facets"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.n_tags < 3:  # an ad draws up to 3 distinct tags
            raise ConfigError(f"n_tags must be >= 3, got {self.n_tags}")
        if self.negative_ratio < 0:
            raise ConfigError("negative_ratio must be >= 0")


def schema_for(config: GeneratorConfig, embed_dim: int = 16) -> FieldSchema:
    return FieldSchema(
        user_fields=tuple((name, vocab) for name, vocab, _ in FIELD_LAYOUT),
        tag_vocab_size=config.n_tags,
        embed_dim=embed_dim,
    )


class GroundTruth:
    """Latent preference model behind a generated dataset.

    ``user_click`` and ``user_conv`` have shape [n_users, n_facets,
    latent_dim]; each tag belongs to one facet and a pair's affinity uses
    the user's latent vector for that facet.
    """

    def __init__(self, user_click: np.ndarray, user_conv: np.ndarray,
                 tag_vectors: np.ndarray, tag_facets: np.ndarray,
                 click_offset: float, conv_offset: float,
                 user_fields: list[tuple], ad_tags: list[tuple],
                 train_span: tuple[int, int], test_span: tuple[int, int]):
        self.user_click = user_click
        self.user_conv = user_conv
        self.tag_vectors = tag_vectors
        self.tag_facets = tag_facets
        self.click_offset = click_offset
        self.conv_offset = conv_offset
        self.user_fields = user_fields
        self.ad_tags = ad_tags
        # global draw ordinals covered by each split; disjoint by construction
        self.train_span = train_span
        self.test_span = test_span

    def _affinity(self, latents: np.ndarray, user_id: int,
                  tags: Sequence[int]) -> float:
        total = 0.0
        for t in tags:
            total += float(latents[user_id, self.tag_facets[t]] @ self.tag_vectors[t])
        return total / len(tags)

    def p_click(self, user_id: int, tags: Sequence[int]) -> float:
        return dg._sigmoid_scalar(self._affinity(self.user_click, user_id, tags)
                                  + self.click_offset)

    def p_conv_given_click(self, user_id: int, tags: Sequence[int]) -> float:
        return dg._sigmoid_scalar(self._affinity(self.user_conv, user_id, tags)
                                  + self.conv_offset)

    def p_conv(self, user_id: int, tags: Sequence[int]) -> float:
        return self.p_click(user_id, tags) * self.p_conv_given_click(user_id, tags)

    def true_scores(self, dataset: Sequence[Example], task: Task) -> np.ndarray:
        """The true probability of each row; DataError naming the first row with
        a user or tag id outside the truth's arrays."""
        n_users, n_tags = len(self.user_click), len(self.tag_vectors)
        for row, ex in enumerate(dataset):
            wrong = [f"user id {ex.user_id}"] if not 0 <= ex.user_id < n_users else []
            wrong += [f"tag id {t}" for t in ex.tag_set if not 0 <= t < n_tags]
            if wrong:
                raise DataError(f"row {row}: {wrong[0]} is outside the truth of {n_users} "
                                f"users and {n_tags} tags")
        score = self.p_click if task == Task.CTR else self.p_conv
        return np.array([score(ex.user_id, ex.tag_set) for ex in dataset])

    def save(self, path) -> None:
        doc = {
            "click_offset": self.click_offset,
            "conv_offset": self.conv_offset,
            "user_fields": self.user_fields,
            "ad_tags": self.ad_tags,
            "tag_facets": [int(f) for f in self.tag_facets],
            "train_span": self.train_span,
            "test_span": self.test_span,
            "user_click": dg.encode_array(self.user_click),
            "user_conv": dg.encode_array(self.user_conv),
            "tag_vectors": dg.encode_array(self.tag_vectors),
        }
        Path(path).write_text(json.dumps(doc, separators=(",", ":")) + "\n",
                              encoding="utf-8")

    @classmethod
    def load(cls, path) -> "GroundTruth":
        """Truth from ``save``; DataError naming the file for a malformed one."""
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
            return cls(
                user_click=dg.decode_array(doc["user_click"]),
                user_conv=dg.decode_array(doc["user_conv"]),
                tag_vectors=dg.decode_array(doc["tag_vectors"]),
                tag_facets=np.array(doc["tag_facets"], dtype=np.int64),
                click_offset=doc["click_offset"],
                conv_offset=doc["conv_offset"],
                user_fields=[_field_values(f) for f in doc["user_fields"]],
                ad_tags=[tuple(t) for t in doc["ad_tags"]],
                train_span=tuple(doc["train_span"]),
                test_span=tuple(doc["test_span"]),
            )
        except KeyError as e:
            raise DataError(f"{path} has no key {e}") from e
        except (DataError, OSError, TypeError, ValueError) as e:
            raise DataError(f"bad {path}: {e}") from e


def _field_values(values) -> tuple:
    """A record's field values, each a JSON integer or a list of them; ValueError otherwise."""
    return tuple(tuple(map(_int, v)) if isinstance(v, list) else _int(v) for v in values)


# ---------------------------------------------------------------------------
# generation


def _draw_user_fields(rng: np.random.Generator, n_users: int) -> list[tuple]:
    users = []
    for _ in range(n_users):
        values = []
        for _, vocab, max_vals in FIELD_LAYOUT:
            if max_vals == 1:
                values.append(int(rng.integers(vocab)))
            else:
                count = int(rng.integers(1, max_vals + 1))
                picks = rng.choice(vocab, size=count, replace=False)
                values.append(tuple(int(v) for v in sorted(picks)))
        users.append(tuple(values))
    return users


def _field_latents(rng: np.random.Generator, user_fields: list[tuple],
                   latent_dim: int, n_facets: int) -> np.ndarray:
    """Per-facet latent vectors as the mean of per-field-value contributions.

    Contribution entries are unit normal, so scaling the mean of m fields
    by sqrt(m) keeps the latent entries near unit variance. Returns shape
    [n_users, n_facets, latent_dim]. One gather per field column; a
    multi-valued field's rows are summed in id order, then divided by the
    count, as a per-user ``mean`` does, bit for bit.
    """
    tables = [rng.normal(size=(vocab, n_facets, latent_dim))
              for _, vocab, _ in FIELD_LAYOUT]
    m = len(FIELD_LAYOUT)
    n = len(user_fields)
    acc = np.zeros((n, n_facets, latent_dim))
    for j, (table, (_, _, max_vals)) in enumerate(zip(tables, FIELD_LAYOUT)):
        # a list per column, not zip(*user_fields): that makes one tuple
        # iterator per user, which the garbage collector counts as new objects
        column = [values[j] for values in user_fields]
        if max_vals == 1:
            acc += table[np.fromiter(column, np.int64, n)]
            continue
        counts = np.fromiter(map(len, column), np.int64, n)
        ids = np.fromiter(chain.from_iterable(column), np.int64, int(counts.sum()))
        first = np.cumsum(counts) - counts  # each user's first id in ids
        total = table[ids[first]]
        for i in range(1, max_vals):
            has = counts > i
            total[has] += table[ids[first[has] + i]]
        acc += total / counts[:, None, None]
    return acc / m * math.sqrt(m)


def _draw_impressions(rng: np.random.Generator, config: GeneratorConfig,
                      truth: GroundTruth, n_rows: int) -> list[Example]:
    """Draw labeled impressions; each click enqueues sampled negative rows."""
    rows: list[Example] = []
    pending_negatives = 0
    while len(rows) < n_rows:
        if pending_negatives > 0:
            pending_negatives -= 1
            u = int(rng.integers(config.n_users))
            a = int(rng.integers(config.n_ads))
            rows.append(Example(u, truth.user_fields[u], truth.ad_tags[a], 0, 0))
            continue
        u = int(rng.integers(config.n_users))
        a = int(rng.integers(config.n_ads))
        tags = truth.ad_tags[a]
        click = int(rng.random() < truth.p_click(u, tags))
        conv = 0
        if click:
            conv = int(rng.random() < truth.p_conv_given_click(u, tags))
            pending_negatives += config.negative_ratio
        rows.append(Example(u, truth.user_fields[u], tags, click, conv))
    return rows


def generate(config: GeneratorConfig) -> tuple[list[Example], list[Example], GroundTruth]:
    """Build train and test splits plus the ground truth behind them.

    The splits are disjoint draws from one seeded stream; their global
    draw ordinals are recorded on the truth object.
    """
    rng = np.random.default_rng(config.seed)
    user_fields = _draw_user_fields(rng, config.n_users)
    click_latent = _field_latents(rng, user_fields, config.latent_dim, config.n_facets)
    other_latent = _field_latents(rng, user_fields, config.latent_dim, config.n_facets)
    rho = LATENT_CORRELATION
    conv_latent = rho * click_latent + math.sqrt(1.0 - rho * rho) * other_latent
    tag_vectors = (rng.normal(size=(config.n_tags, config.latent_dim))
                   * (config.affinity_scale / math.sqrt(config.latent_dim)))
    if config.n_facets > 1:
        tag_facets = rng.integers(config.n_facets, size=config.n_tags)
    else:
        tag_facets = np.zeros(config.n_tags, dtype=np.int64)
    ad_tags = []
    for _ in range(config.n_ads):
        count = int(rng.integers(1, 4))
        picks = rng.choice(config.n_tags, size=count, replace=False)
        ad_tags.append(tuple(int(t) for t in sorted(picks)))

    truth = GroundTruth(
        user_click=click_latent, user_conv=conv_latent, tag_vectors=tag_vectors,
        tag_facets=tag_facets,
        click_offset=config.click_offset, conv_offset=config.conv_offset,
        user_fields=user_fields, ad_tags=ad_tags,
        train_span=(0, config.n_impressions),
        test_span=(config.n_impressions,
                   config.n_impressions + config.n_test_impressions),
    )
    train = _draw_impressions(rng, config, truth, config.n_impressions)
    test = _draw_impressions(rng, config, truth, config.n_test_impressions)
    return train, test, truth


def user_roster(dataset: Iterable[Example]) -> list[tuple[int, tuple]]:
    """Unique (user_id, field_values) pairs, sorted by id.

    Raises DataError if one user appears with inconsistent fields.
    """
    seen: dict[int, tuple] = {}
    for ex in dataset:
        prev = seen.get(ex.user_id)
        if prev is None:
            seen[ex.user_id] = ex.field_values
        elif prev != ex.field_values:
            raise DataError(f"user {ex.user_id} has inconsistent field values")
    return sorted(seen.items())


# ---------------------------------------------------------------------------
# file I/O: one JSON object per line


def write_dataset(dataset: Iterable[Example], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ex in dataset:
            record = {
                "user_id": ex.user_id,
                "fields": ex.field_values,
                "tags": ex.tag_set,
                "click": ex.click_label,
                "conv": ex.conversion_label,
            }
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def read_dataset(path) -> list[Example]:
    """Rows from ``write_dataset``; DataError naming the file and line of a malformed one.

    Every id, field value and label must be a JSON integer.
    """
    rows: list[Example] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
                ex = Example(
                    user_id=_int(doc["user_id"]),
                    field_values=_field_values(doc["fields"]),
                    tag_set=tuple(map(_int, doc["tags"])),
                    click_label=_int(doc["click"]),
                    conversion_label=_int(doc["conv"]),
                )
                if ex.click_label not in (0, 1) or ex.conversion_label not in (0, 1):
                    raise DataError("labels must be 0/1")
                if not ex.tag_set:
                    raise DataError("empty tag set")
            except (KeyError, ValueError, TypeError, DataError) as e:
                raise DataError(f"{path}: malformed dataset line {lineno}: {e}") from e
            rows.append(ex)
    return rows


# ---------------------------------------------------------------------------
# oracle


def bayes_auc(truth: GroundTruth, dataset: Sequence[Example], task: Task) -> float:
    """AUC of the true probabilities against the realized labels.

    This upper-bounds any learned model in expectation, since the true
    probability is the Bayes-optimal score for ranking.
    """
    scores = truth.true_scores(dataset, task)
    labels = np.array([ex.click_label if task == Task.CTR else ex.conversion_label
                       for ex in dataset])
    return auc(scores, labels)
