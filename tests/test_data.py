import hashlib
import json
import math
import re

import numpy as np
import pytest

import mvke.data as D
from mvke.errors import ConfigError, DataError
from mvke.model import TASKS, Task


SMALL = dict(n_users=400, n_tags=30, n_ads=150, n_impressions=6000,
             n_test_impressions=1500, seed=7)


@pytest.fixture(scope="module")
def small_gen():
    cfg = D.GeneratorConfig(**SMALL)
    train, test, truth = D.generate(cfg)
    return cfg, train, test, truth


def test_config_validation():
    with pytest.raises(ConfigError):
        D.GeneratorConfig(n_users=0)
    with pytest.raises(ConfigError):
        D.GeneratorConfig(negative_ratio=-1)
    with pytest.raises(ConfigError, match="n_tags"):
        D.GeneratorConfig(n_tags=2)  # an ad draws up to 3 distinct tags


def test_generation_is_deterministic(small_gen):
    cfg, train, test, _ = small_gen
    train2, test2, _ = D.generate(D.GeneratorConfig(**SMALL))
    assert train == train2
    assert test == test2


def _split_digest(rows) -> str:
    return hashlib.sha256(repr([(ex.user_id, ex.field_values, ex.tag_set, ex.click_label,
                                 ex.conversion_label) for ex in rows]).encode()).hexdigest()


def _array_digest(arr: np.ndarray) -> str:
    return hashlib.sha256(f"{arr.dtype}{arr.shape}".encode() + arr.tobytes()).hexdigest()


# sha256 of generate(GeneratorConfig(**SMALL))'s output, pinned when the field
# latents were vectorized; the generator's output must not move
SMALL_DIGESTS = {
    "train": "aa950fe632e478ecd0d6ef5e2018360b830eac3883d0acff084e38d21723a061",
    "test": "cd14deaa11091f8d0ef17764089769f02a324632d662552bee180b718ba9b8e2",
    "user_click": "e8ef763898346d5c8ce732de078edfe0be5e8f225df8d3d7c4c43744bea88a19",
    "user_conv": "6963ebbd4a94d701c0f2639e64afc460dfa5b87322085d0e14ce5f432b08a8f8",
    "tag_vectors": "2a82b1737782518c514425d8e4ac396716c53d26975e1cb5d1e450be5a53fee1",
    "tag_facets": "ef0f4f3a588bf634c846e5559f79755be451a1242c5546ce3e5dd80411a8053e",
}


def test_generate_output_is_pinned(small_gen):
    _, train, test, truth = small_gen
    got = {"train": _split_digest(train), "test": _split_digest(test),
           **{name: _array_digest(getattr(truth, name))
              for name in ("user_click", "user_conv", "tag_vectors", "tag_facets")}}
    assert got == SMALL_DIGESTS


def _field_latents_per_user(rng, user_fields, latent_dim, n_facets):
    """Reference: the per-user loop, one ``mean`` per field value list."""
    tables = [rng.normal(size=(vocab, n_facets, latent_dim))
              for _, vocab, _ in D.FIELD_LAYOUT]
    m = len(D.FIELD_LAYOUT)
    out = np.zeros((len(user_fields), n_facets, latent_dim))
    for u, values in enumerate(user_fields):
        acc = np.zeros((n_facets, latent_dim))
        for j, raw in enumerate(values):
            ids = raw if isinstance(raw, tuple) else (raw,)
            acc += tables[j][list(ids)].mean(axis=0)
        out[u] = acc / m * math.sqrt(m)
    return out


@pytest.mark.parametrize("n_facets", [1, 3])
def test_field_latents_equal_the_per_user_loop(n_facets):
    user_fields = D._draw_user_fields(np.random.default_rng(11), 300)
    assert {len(values[-1]) for values in user_fields} == {1, 2, 3}
    got = D._field_latents(np.random.default_rng(5), user_fields, 6, n_facets)
    want = _field_latents_per_user(np.random.default_rng(5), user_fields, 6, n_facets)
    assert got.shape == (300, n_facets, 6)
    assert np.array_equal(got, want)


def test_conversion_rate_below_click_rate(small_gen):
    _, train, test, _ = small_gen
    for ds in (train, test):
        clicks = sum(e.click_label for e in ds)
        convs = sum(e.conversion_label for e in ds)
        assert convs <= clicks


def test_every_conversion_has_a_click(small_gen):
    _, train, test, _ = small_gen
    for ex in list(train) + list(test):
        if ex.conversion_label == 1:
            assert ex.click_label == 1


def test_example_rejects_conversion_without_click():
    with pytest.raises(DataError):
        D.Example(0, ((1,),), (1,), click_label=0, conversion_label=1)


def test_negative_rows_follow_clicks():
    # with ratio r, each click row is followed by r sampled negatives
    cfg = D.GeneratorConfig(**{**SMALL, "negative_ratio": 2})
    train, _, _ = D.generate(cfg)
    for i, ex in enumerate(train):
        if ex.click_label == 1:
            for nxt in train[i + 1:i + 3]:
                assert nxt.click_label == 0 and nxt.conversion_label == 0


def test_negative_ratio_dilutes_click_rate():
    base = D.generate(D.GeneratorConfig(**SMALL))[0]
    diluted = D.generate(D.GeneratorConfig(**{**SMALL, "negative_ratio": 4}))[0]
    rate = lambda ds: sum(e.click_label for e in ds) / len(ds)
    assert rate(diluted) < rate(base) * 0.6


def test_empirical_click_rate_within_3_sigma_of_truth():
    # pure Bernoulli stream: no sampled negatives mixed in
    cfg = D.GeneratorConfig(**{**SMALL, "negative_ratio": 0})
    train, _, truth = D.generate(cfg)
    p = truth.true_scores(train, Task.CTR)
    clicks = sum(e.click_label for e in train)
    sigma = math.sqrt(float((p * (1.0 - p)).sum()))
    assert abs(clicks - p.sum()) <= 3.0 * sigma


def test_train_and_test_draw_spans_disjoint(small_gen):
    cfg, train, test, truth = small_gen
    lo1, hi1 = truth.train_span
    lo2, hi2 = truth.test_span
    assert hi1 <= lo2 or hi2 <= lo1
    assert hi1 - lo1 == len(train)
    assert hi2 - lo2 == len(test)
    assert test != train[:len(test)]


def test_user_roster_consistent(small_gen):
    _, train, _, truth = small_gen
    roster = D.user_roster(train)
    for user_id, fields in roster:
        assert truth.user_fields[user_id] == fields


def test_user_roster_rejects_conflicting_fields():
    a = D.Example(1, (2, 3), (0,), 0, 0)
    b = D.Example(1, (2, 4), (0,), 0, 0)
    with pytest.raises(DataError):
        D.user_roster([a, b])


# ---------------------------------------------------------------------------
# file I/O

def test_round_trip_identity(tmp_path, small_gen):
    _, train, _, _ = small_gen
    path = tmp_path / "ds.jsonl"
    D.write_dataset(train, path)
    again = D.read_dataset(path)
    assert again == train


def test_empty_dataset_round_trip(tmp_path):
    path = tmp_path / "empty.jsonl"
    D.write_dataset([], path)
    assert path.read_text() == ""
    assert D.read_dataset(path) == []


def test_read_rejects_conversion_without_click(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"user_id":0,"fields":[1],"tags":[2],"click":1,"conv":0}\n'
        '{"user_id":1,"fields":[1],"tags":[2],"click":0,"conv":1}\n')
    with pytest.raises(DataError, match="line 2"):
        D.read_dataset(path)


def test_read_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"user_id":0,"fields":[1],"tags":[2],"click":0,"conv":0}\nnot json\n')
    with pytest.raises(DataError, match="line 2"):
        D.read_dataset(path)


def test_read_rejects_empty_tags(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"user_id":0,"fields":[1],"tags":[],"click":0,"conv":0}\n')
    with pytest.raises(DataError, match="line 1"):
        D.read_dataset(path)


GOOD_ROW = {"user_id": 0, "fields": [1, [2, 3]], "tags": [2], "click": 1, "conv": 0}


@pytest.mark.parametrize("key, value", [
    ("user_id", 1.7), ("user_id", True), ("user_id", "1"),
    ("fields", [1.0, [2, 3]]), ("fields", [1, [2, True]]),
    ("tags", [3.9]), ("tags", [False]), ("tags", 3),
    ("click", 0.6), ("click", True), ("conv", 0.0),
])
def test_read_refuses_a_value_that_is_not_a_json_integer(tmp_path, key, value):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(GOOD_ROW) + "\n" + json.dumps({**GOOD_ROW, key: value}) + "\n")
    with pytest.raises(DataError, match=r"bad\.jsonl: malformed dataset line 2"):
        D.read_dataset(path)
    path.write_text(json.dumps(GOOD_ROW) + "\n")
    assert D.read_dataset(path) == [D.Example(0, (1, (2, 3)), (2,), 1, 0)]


def test_truth_round_trip(tmp_path, small_gen):
    _, _, test, truth = small_gen
    path = tmp_path / "truth.json"
    truth.save(path)
    again = D.GroundTruth.load(path)
    np.testing.assert_array_equal(truth.user_click, again.user_click)
    np.testing.assert_array_equal(truth.tag_vectors, again.tag_vectors)
    np.testing.assert_array_equal(truth.tag_facets, again.tag_facets)
    assert truth.ad_tags == again.ad_tags
    assert truth.user_fields == again.user_fields
    ex = test[0]
    assert truth.p_click(ex.user_id, ex.tag_set) == again.p_click(ex.user_id, ex.tag_set)


def test_truncated_truth_is_data_error_naming_the_file(tmp_path, small_gen):
    _, _, _, truth = small_gen
    path = tmp_path / "truth.json"
    truth.save(path)
    text = path.read_text()
    path.write_text(text[:len(text) // 2])
    with pytest.raises(DataError, match=r"truth\.json"):
        D.GroundTruth.load(path)


@pytest.mark.parametrize("key", ["tag_facets", "user_fields", "user_click"])
def test_truth_missing_a_key_is_data_error_naming_the_file_and_key(tmp_path, small_gen, key):
    _, _, _, truth = small_gen
    path = tmp_path / "truth.json"
    truth.save(path)
    doc = json.loads(path.read_text())
    del doc[key]
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=rf"truth\.json has no key '{key}'"):
        D.GroundTruth.load(path)


@pytest.mark.parametrize("fields", [[1.5, [2]], [1, [2, "3"]], [True]])
def test_truth_user_field_that_is_not_a_json_integer_is_data_error(tmp_path, small_gen, fields):
    _, _, _, truth = small_gen
    path = tmp_path / "truth.json"
    truth.save(path)
    doc = json.loads(path.read_text())
    doc["user_fields"][3] = fields
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=r"bad .*truth\.json: expected an integer"):
        D.GroundTruth.load(path)


# ---------------------------------------------------------------------------
# bayes oracle

def _tiny_truth(scale=6.0, seed=3, n_users=40, n_tags=8):
    rng = np.random.default_rng(seed)
    return D.GroundTruth(
        user_click=rng.normal(size=(n_users, 2, 4)),
        user_conv=rng.normal(size=(n_users, 2, 4)),
        tag_vectors=rng.normal(size=(n_tags, 4)) * scale,
        tag_facets=rng.integers(2, size=n_tags),
        click_offset=0.0, conv_offset=0.0,
        user_fields=[(0,)] * n_users, ad_tags=[(t,) for t in range(n_tags)],
        train_span=(0, 0), test_span=(0, 0),
    )


def test_bayes_auc_separable_case_is_one():
    truth = _tiny_truth()
    rng = np.random.default_rng(4)
    examples = []
    for _ in range(300):
        u = int(rng.integers(40))
        t = int(rng.integers(8))
        click = int(truth.p_click(u, (t,)) > 0.5)  # thresholded, not sampled
        examples.append(D.Example(u, (0,), (t,), click, 0))
    labels = [e.click_label for e in examples]
    assert 0 < sum(labels) < len(labels)
    assert D.bayes_auc(truth, examples, Task.CTR) == 1.0


def test_bayes_auc_uniform_truth_is_half():
    truth = _tiny_truth(scale=0.0)  # all tag vectors zero: constant probability
    rng = np.random.default_rng(5)
    examples = []
    while True:
        examples = [D.Example(int(rng.integers(40)), (0,), (int(rng.integers(8)),),
                              int(rng.random() < 0.5), 0) for _ in range(200)]
        labels = [e.click_label for e in examples]
        if 0 < sum(labels) < len(labels):
            break
    assert D.bayes_auc(truth, examples, Task.CTR) == 0.5


@pytest.mark.parametrize("user, tag, message", [
    (500, 3, "row 1: user id 500 is outside the truth of 50 users and 10 tags"),
    (-1, 3, "row 1: user id -1 is outside the truth of 50 users and 10 tags"),
    (7, 40, "row 1: tag id 40 is outside the truth of 50 users and 10 tags"),
], ids=["user-500", "user-minus-1", "tag-40"])
def test_truth_refuses_a_row_outside_it(user, tag, message):
    truth = _tiny_truth(n_users=50, n_tags=10)
    examples = [D.Example(0, (0,), (1,), 1, 0), D.Example(user, (0,), (2, tag), 0, 0)]
    for task in TASKS:
        with pytest.raises(DataError, match=re.escape(message)):
            D.bayes_auc(truth, examples, task)


def test_bayes_auc_reference_pinned(small_gen):
    # deterministic given the seed; pinned when the generator was frozen
    _, _, test, truth = small_gen
    assert D.bayes_auc(truth, test, Task.CTR) == pytest.approx(0.755883397022, abs=1e-9)
    assert D.bayes_auc(truth, test, Task.CVR) == pytest.approx(0.890336758563, abs=1e-9)


def test_multi_facet_generation():
    cfg = D.GeneratorConfig(**{**SMALL, "n_facets": 3})
    train, _, truth = D.generate(cfg)
    assert truth.user_click.shape[1] == 3
    assert set(np.unique(truth.tag_facets)) <= {0, 1, 2}
    for ex in train[:50]:
        p = truth.p_click(ex.user_id, ex.tag_set)
        assert 0.0 < p < 1.0


def test_schema_for_matches_field_layout(small_gen):
    cfg, _, _, _ = small_gen
    schema = D.schema_for(cfg, embed_dim=8)
    assert schema.tag_vocab_size == cfg.n_tags
    assert tuple(n for n, _ in schema.user_fields) == tuple(n for n, _, _ in D.FIELD_LAYOUT)
    assert schema.embed_dim == 8
