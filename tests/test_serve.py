import json
import math
import re

import numpy as np
import pytest

import mvke.data as D
import mvke.diffgraph as dg
import mvke.model as M
import mvke.serve as S
from mvke.errors import ConfigError, DataError
from mvke.model import Task


SMALL = dict(n_users=120, n_tags=20, n_ads=60, n_impressions=2500,
             n_test_impressions=600, seed=13)


@pytest.fixture(scope="module")
def served():
    with dg.precision("f32"):
        cfg = D.GeneratorConfig(**SMALL)
        train, test, _ = D.generate(cfg)
        mcfg = M.ModelConfig(schema=D.schema_for(cfg, embed_dim=8),
                             routing=M.five_expert_routing())
        model = M.MvkeModel(mcfg, seed=1)
        users = D.user_roster(test)
        tags = list(range(cfg.n_tags))
        model.reset_counters()
        caches = S.build_caches(model, users, tags)
        yield model, users, tags, caches


def test_build_cache_invocation_counts(served):
    model, users, tags, _ = served
    assert model.counters["user_tower"] == len(users)
    assert model.counters["tag_tower"] == len(tags) * 2


def test_user_cache_size_claim(served):
    model, users, _, caches = served
    user_cache, _ = caches
    k = model.cfg.routing.n_experts
    d = model.cfg.schema.embed_dim
    assert user_cache.vectors.shape == (len(users), k, d)
    assert user_cache.vectors.size == k * len(users) * d


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_user_cache_equals_the_expert_outputs_of_encoded_examples(precision, monkeypatch):
    """Field values packed column by column give the user vectors that encoding
    one ``Example`` with a placeholder tag per user gave, bit for bit."""
    monkeypatch.setattr(S, "CACHE_BATCH", 37)  # several chunks, the last one short
    with dg.precision(precision):
        cfg = D.GeneratorConfig(**SMALL)
        _, test, _ = D.generate(cfg)
        mcfg = M.ModelConfig(schema=D.schema_for(cfg, embed_dim=8),
                             routing=M.five_expert_routing())
        model = M.MvkeModel(mcfg, seed=1)
    users = D.user_roster(test)
    got = S.build_caches(model, users, [0])[0].vectors
    examples = [D.Example(u, fv, (0,), 0, 0) for u, fv in users]
    want = np.concatenate([
        model.user_expert_outputs(M.encode_examples(examples[start:start + 37], mcfg.schema))
        for start in range(0, len(examples), 37)])
    assert got.dtype == want.dtype == dg.codec_dtype(precision)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_cached_vectors_match_direct_expert_outputs(served):
    model, users, _, caches = served
    user_cache, _ = caches
    user_id, fields = users[7]
    with dg.precision("f32"):
        one = M.encode_examples([D.Example(user_id, fields, (0,), 0, 0)], model.cfg.schema)
        rows, inverse = M.embed_user_fields(one, model.params, model.cfg.schema)
        for e in range(model.cfg.routing.n_experts):
            direct = M.vke_forward(rows, inverse, model.params).data[e, 0]
            np.testing.assert_allclose(user_cache.lookup(user_id)[e], direct,
                                       atol=1e-6)


def test_cached_scores_match_full_forward(served):
    model, users, tags, caches = served
    with dg.precision("f32"):
        rng = np.random.default_rng(0)
        for _ in range(60):
            user_id, fields = users[rng.integers(len(users))]
            tag = int(rng.integers(len(tags)))
            task = Task.CTR if rng.random() < 0.5 else Task.CVR
            cached = S.score_from_cache(user_id, tag, task, caches)
            one = M.encode_examples([D.Example(user_id, fields, (tag,), 0, 0)],
                                    model.cfg.schema)
            full = model.predict(one, task)[0]
            assert cached == pytest.approx(full, abs=1e-6)


def _reference_score(user_id, tag_id, task, caches):
    """The lookup as first written: gate weights times the task's expert rows,
    picked by a fancy index, and every product through ``@``."""
    user_cache, tag_cache = caches
    tc = tag_cache[task]
    row = tc.row(tag_id)
    mixed = tc.gate_weights[row] @ user_cache.lookup(user_id)[list(tc.expert_ids)]
    tag_vec = tc.embeddings[row]
    norms = (max(math.sqrt(float(mixed @ mixed)), dg.NORM_EPS)
             * max(math.sqrt(float(tag_vec @ tag_vec)), dg.NORM_EPS))
    cos = min(max(float(mixed @ tag_vec) / norms, -1.0), 1.0)
    return dg._sigmoid_scalar(tc.tau * cos)


# CTR's experts are not contiguous, CVR's are not a prefix of 0..k-1
SCATTERED = dict(n_experts=5, ctr_experts=(0, 2, 4), cvr_experts=(1, 2, 3))


def _routed_model(precision, routing):
    with dg.precision(precision):
        cfg = D.GeneratorConfig(**SMALL)
        _, test, _ = D.generate(cfg)
        mcfg = M.ModelConfig(schema=D.schema_for(cfg, embed_dim=8), routing=routing)
        return M.MvkeModel(mcfg, seed=3), D.user_roster(test), list(range(cfg.n_tags))


@pytest.mark.parametrize("routing", [M.five_expert_routing(), M.ExpertRouting(**SCATTERED)],
                         ids=["default", "scattered"])
def test_lookup_agrees_with_the_reference_on_every_pair(routing):
    model, users, tags = _routed_model("f64", routing)
    with dg.precision("f64"):
        caches = S.build_caches(model, users, tags)
    for task in M.TASKS:
        assert caches[1][task].expert_ids == routing.task_experts(task)
        got = [S.score_from_cache(u, t, task, caches) for u, _ in users for t in tags]
        want = [_reference_score(u, t, task, caches) for u, _ in users for t in tags]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_cached_scores_with_scattered_experts_match_full_forward():
    model, users, tags = _routed_model("f32", M.ExpertRouting(**SCATTERED))
    with dg.precision("f32"):
        caches = S.build_caches(model, users, tags)
        rng = np.random.default_rng(1)
        for _ in range(60):
            user_id, fields = users[rng.integers(len(users))]
            tag = int(rng.integers(len(tags)))
            task = M.TASKS[rng.integers(len(M.TASKS))]
            one = M.encode_examples([D.Example(user_id, fields, (tag,), 0, 0)],
                                    model.cfg.schema)
            assert (S.score_from_cache(user_id, tag, task, caches)
                    == pytest.approx(model.predict(one, task)[0], abs=1e-6))


def test_cached_score_is_pure(served):
    _, users, _, caches = served
    once = S.score_from_cache(users[0][0], 3, Task.CVR, caches)
    twice = S.score_from_cache(users[0][0], 3, Task.CVR, caches)
    assert once == twice


def test_single_expert_task_reduces_to_cosine():
    with dg.precision("f32"):
        cfg = D.GeneratorConfig(**{**SMALL, "seed": 21})
        _, test, _ = D.generate(cfg)
        routing = M.ExpertRouting(2, ctr_experts=(0,), cvr_experts=(0, 1))
        mcfg = M.ModelConfig(schema=D.schema_for(cfg, embed_dim=8), routing=routing)
        model = M.MvkeModel(mcfg, seed=2)
        users = D.user_roster(test)[:10]
        caches = S.build_caches(model, users, [0, 1, 2])
        user_cache, tag_cache = caches
        tc = tag_cache[Task.CTR]
        got = S.score_from_cache(users[3][0], 1, Task.CTR, caches)
        vec = user_cache.lookup(users[3][0])[0]
        tag_vec = tc.embeddings[tc.row(1)]
        cos = vec @ tag_vec / (np.linalg.norm(vec) * np.linalg.norm(tag_vec))
        expected = 1.0 / (1.0 + np.exp(-tc.tau * cos))
        assert got == pytest.approx(float(expected), abs=1e-6)


@pytest.mark.parametrize("user_norm", [0.0, 1e-7])
def test_cached_scores_clamp_each_norm_like_the_forward(user_norm):
    """Tiny and zero norms score as ``cosine_score`` does."""
    direction = np.full(4, 0.5)
    user = user_norm * direction
    tags = np.stack([1e-7 * direction, direction, np.zeros(4)])
    tau = 5.0
    want = dg.cosine_score(dg.raw_tensor(np.tile(user, (1, 3, 1))), dg.raw_tensor(tags[None]),
                           dg.raw_tensor(np.array([tau]))).data[0]
    tc = S.TaskTagCache(Task.CTR, [0, 1, 2], tags, np.ones((3, 1)), expert_ids=(0,), tau=tau)
    caches = (S.UserCache([5], user.reshape(1, 1, 4)), S.TagCache({Task.CTR: tc}))
    looked_up = [S.score_from_cache(5, tag, Task.CTR, caches) for tag in (0, 1, 2)]
    np.testing.assert_allclose(looked_up, want, rtol=0, atol=1e-9)
    ranked = dict(S.assign_topk(caches, 3, Task.CTR).entries[5])
    np.testing.assert_allclose([ranked[tag] for tag in (0, 1, 2)], want, rtol=0, atol=1e-9)


@pytest.mark.parametrize("users, tags, repeated", [
    ([0, 1, 1, 0], [0, 3], "user id 0"),
    ([0, 1], [0, 3, 3], "tag id 3"),
], ids=["users", "tags"])
def test_build_caches_refuses_repeated_ids(served, users, tags, repeated):
    """A repeated id would answer from its last row and fail to load once saved."""
    model, roster, _, _ = served
    with dg.precision("f32"), pytest.raises(DataError, match=repeated):
        S.build_caches(model, [(u, roster[u][1]) for u in users], tags)


def test_missing_ids_raise_lookup_error(served):
    _, _, _, caches = served
    with pytest.raises(DataError):
        S.score_from_cache(10**9, 0, Task.CTR, caches)
    with pytest.raises(DataError):
        S.score_from_cache(caches[0].user_ids[0], 10**9, Task.CTR, caches)


# ---------------------------------------------------------------------------
# top-k

def test_topk_full_ranking_when_n_is_tag_count(served):
    _, users, tags, caches = served
    assignment = S.assign_topk(caches, len(tags), Task.CTR)
    ranked = assignment.entries[users[0][0]]
    assert len(ranked) == len(tags)
    scores = [s for _, s in ranked]
    assert scores == sorted(scores, reverse=True)


def test_topk_clamps_to_tag_count(served):
    _, users, tags, caches = served
    assignment = S.assign_topk(caches, len(tags) + 50, Task.CVR)
    assert all(len(v) == len(tags) for v in assignment.entries.values())


def test_topk_rejects_nonpositive_n(served):
    _, _, _, caches = served
    with pytest.raises(ConfigError):
        S.assign_topk(caches, 0, Task.CTR)


def test_topk_matches_brute_force_top1(served):
    model, users, tags, caches = served
    sub_users = users[:50]
    sub_tags = tags[:20]
    with dg.precision("f32"):
        naive = S.naive_scores(model, sub_users, sub_tags, Task.CTR)
    assignment = S.assign_topk(caches, 1, Task.CTR)
    for i, (user_id, _) in enumerate(sub_users):
        best_tag, best_score = assignment.entries[user_id][0]
        # brute-force argmax with the same tie convention
        order = np.lexsort((np.array(sub_tags), -naive[i]))
        assert best_tag == sub_tags[order[0]]
        assert best_score == pytest.approx(naive[i][order[0]], abs=1e-6)


def test_topk_ties_break_by_ascending_tag_id():
    user_cache = S.UserCache([1], np.ones((1, 2, 4)))
    tc = S.TaskTagCache(Task.CTR, [5, 2, 9],
                        embeddings=np.tile(np.ones(4), (3, 1)),
                        gate_weights=np.full((3, 2), 0.5),
                        expert_ids=(0, 1), tau=1.0)
    caches = (user_cache, S.TagCache({Task.CTR: tc}))
    ranked = S.assign_topk(caches, 3, Task.CTR).entries[1]
    assert [t for t, _ in ranked] == [2, 5, 9]  # all scores equal


def test_topk_invariant_to_roster_order(served):
    model, users, tags, _ = served
    with dg.precision("f32"):
        shuffled_users = list(reversed(users))
        shuffled_tags = list(reversed(tags))
        model.reset_counters()
        caches2 = S.build_caches(model, shuffled_users, shuffled_tags)
        a1 = S.assign_topk(S.build_caches(model, users, tags), 5, Task.CTR)
        a2 = S.assign_topk(caches2, 5, Task.CTR)
    for user_id in a1.entries:
        tags1 = [t for t, _ in a1.entries[user_id]]
        tags2 = [t for t, _ in a2.entries[user_id]]
        assert tags1 == tags2


def test_empty_tag_list_gives_empty_cache(served):
    model, users, _, _ = served
    with dg.precision("f32"):
        _, tag_cache = S.build_caches(model, users[:3], [])
    for task in M.TASKS:
        tc = tag_cache[task]
        assert tc.tag_ids == []
        assert tc.embeddings.shape == (0, model.cfg.schema.embed_dim)
        assert tc.gate_weights.shape == (0, len(model.cfg.routing.task_experts(task)))
        assert tc.embeddings.dtype == tc.gate_weights.dtype == np.float32


def test_empty_roster_gives_empty_cache_in_model_dtype(served):
    model, _, tags, _ = served
    with dg.precision("f32"):
        caches = S.build_caches(model, [], tags)
    assert caches[0].vectors.shape == (0, model.cfg.routing.n_experts,
                                       model.cfg.schema.embed_dim)
    assert caches[0].vectors.dtype == np.float32
    assert S.assign_topk(caches, 3, Task.CTR).entries == {}


def _brute_force_topk(caches, top_n, task):
    """Every pair through score_from_cache, then one lexsort per user."""
    tag_ids = np.array(caches[1][task].tag_ids, dtype=np.int64)
    out = {}
    for user_id in caches[0].user_ids:
        scores = np.array([S.score_from_cache(user_id, int(t), task, caches)
                           for t in tag_ids])
        order = np.lexsort((tag_ids, -scores))[:top_n]
        out[user_id] = [(int(tag_ids[j]), float(scores[j])) for j in order]
    return out


def _assert_topk_matches_brute_force(caches, top_n, task):
    got = S.assign_topk(caches, top_n, task).entries
    want = _brute_force_topk(caches, top_n, task)
    assert list(got) == list(want)
    for user_id, listed in want.items():
        assert [t for t, _ in got[user_id]] == [t for t, _ in listed], user_id
        np.testing.assert_allclose([s for _, s in got[user_id]], [s for _, s in listed],
                                   rtol=0, atol=1e-6)
        assert all(type(t) is int and type(s) is float for t, s in got[user_id])


@pytest.fixture(scope="module")
def served_f64():
    """f64 caches of a small model, tag ids in non-ascending order."""
    with dg.precision("f64"):
        cfg = D.GeneratorConfig(**SMALL)
        _, test, _ = D.generate(cfg)
        mcfg = M.ModelConfig(schema=D.schema_for(cfg, embed_dim=8),
                             routing=M.five_expert_routing())
        model = M.MvkeModel(mcfg, seed=4)
        users = D.user_roster(test)
        tags = list(np.random.default_rng(5).permutation(cfg.n_tags))
        yield model, users, S.build_caches(model, users, tags)


@pytest.mark.parametrize("task", M.TASKS, ids=lambda t: t.value)
@pytest.mark.parametrize("top_n", [1, 5, SMALL["n_tags"]])
def test_topk_matches_brute_force_with_unordered_tag_ids(served_f64, top_n, task):
    _, _, caches = served_f64
    assert caches[1][task].tag_ids != sorted(caches[1][task].tag_ids)
    _assert_topk_matches_brute_force(caches, top_n, task)


def test_topk_matches_brute_force_over_several_chunks():
    rng = np.random.default_rng(6)
    n_users = 2 * S.CACHE_BATCH + 3
    user_cache = S.UserCache(list(rng.permutation(10 * n_users)[:n_users].tolist()),
                             rng.standard_normal((n_users, 5, 8)))
    gates = rng.random((20, 3))
    tc = S.TaskTagCache(Task.CVR, list(range(40, 0, -2)), rng.standard_normal((20, 8)),
                        gates / gates.sum(axis=1, keepdims=True), (0, 2, 4), tau=4.0)
    _assert_topk_matches_brute_force((user_cache, S.TagCache({Task.CVR: tc})), 4, Task.CVR)


@pytest.mark.parametrize("top_n", [2, 3, 4])
def test_topk_keeps_lowest_tag_ids_of_ties_straddling_the_cut(top_n):
    # tags 3, 6 and 1 share one embedding: every user ranks tag 8 first, then
    # those three tied by ascending id, then tag 4; at top_n 2 or 3 only the
    # lowest ids of the tie fit, at 4 all of them do
    rng = np.random.default_rng(7)
    user_cache = S.UserCache([10, 11, 12], 1.0 + 0.1 * rng.random((3, 2, 4)))
    tied = [1.0, 1.0, 1.0, 0.0]
    emb = np.array([[1.0, 1.0, 1.0, 1.0], tied, tied, tied, [-1.0, 0.0, 0.0, 0.0]])
    tc = S.TaskTagCache(Task.CTR, [8, 3, 6, 1, 4], emb, np.full((5, 2), 0.5),
                        expert_ids=(0, 1), tau=3.0)
    caches = (user_cache, S.TagCache({Task.CTR: tc}))
    _assert_topk_matches_brute_force(caches, top_n, Task.CTR)
    for listed in S.assign_topk(caches, top_n, Task.CTR).entries.values():
        assert [t for t, _ in listed] == [8, 1, 3, 6][:top_n]


@pytest.mark.parametrize("top_n", [1, 2])
def test_topk_saturated_scores_tie_by_ascending_tag_id(top_n):
    # at tau 2000 tags 9, 5 and 2 (cosines 0.99, 0.95, 0.9) all score exactly
    # 1.0 though their logits differ, and tag 7 scores 0.0: the list keeps the
    # lowest ids of the three, not the highest logits
    cosines = np.array([-1.0, 0.9, 0.95, 0.99])
    emb = np.stack([cosines, np.sqrt(1.0 - cosines ** 2)], axis=1)
    user_cache = S.UserCache([1, 2], np.array([[[1.0, 0.0]], [[3.0, 0.0]]]))
    tc = S.TaskTagCache(Task.CTR, [7, 2, 5, 9], emb, np.ones((4, 1)), expert_ids=(0,),
                        tau=2000.0)
    caches = (user_cache, S.TagCache({Task.CTR: tc}))
    _assert_topk_matches_brute_force(caches, top_n, Task.CTR)
    for listed in S.assign_topk(caches, top_n, Task.CTR).entries.values():
        assert listed == [(2, 1.0), (5, 1.0)][:top_n]


@pytest.mark.parametrize("task", M.TASKS, ids=lambda t: t.value)
def test_topk_leaving_out_one_tag_matches_brute_force(served_f64, task):
    _, _, caches = served_f64
    _assert_topk_matches_brute_force(caches, SMALL["n_tags"] - 1, task)


def test_topk_of_no_tags_lists_nothing(served):
    model, users, _, _ = served
    with dg.precision("f32"):
        caches = S.build_caches(model, users[:5], [])
    for task in M.TASKS:
        assignment = S.assign_topk(caches, 3, task)
        assert assignment.entries == {u: [] for u, _ in users[:5]}
        assert assignment.entries == _brute_force_topk(caches, 3, task)


# ---------------------------------------------------------------------------
# cache files

def test_cache_files_round_trip(tmp_path, served):
    model, users, tags, caches = served
    S.save_caches(caches, tmp_path / "caches")
    again = S.load_caches(tmp_path / "caches")
    np.testing.assert_array_equal(caches[0].vectors, again[0].vectors)
    assert caches[0].user_ids == again[0].user_ids
    for task in M.TASKS:
        np.testing.assert_array_equal(caches[1][task].gate_weights,
                                      again[1][task].gate_weights)
        assert caches[1][task].tau == again[1][task].tau
        assert caches[1][task].expert_ids == again[1][task].expert_ids
    # identical scores from reloaded caches
    u = users[0][0]
    assert (S.score_from_cache(u, 2, Task.CTR, caches)
            == S.score_from_cache(u, 2, Task.CTR, again))


def test_user_cache_file_holds_the_values_alone(tmp_path, served):
    model, users, _, caches = served
    S.save_caches(caches, tmp_path / "caches")
    raw = (tmp_path / "caches" / "user_cache.bin").read_bytes()
    index = json.loads((tmp_path / "caches" / "user_cache.json").read_text())
    k = model.cfg.routing.n_experts
    d = model.cfg.schema.embed_dim
    assert index["shape"] == [len(users), k, d] and index["dtype"] == "f32"
    assert raw == caches[0].vectors.astype("<f4").tobytes()


# ---------------------------------------------------------------------------
# bench

def test_bench_counter_formulas(served):
    model, users, tags, _ = served
    with dg.precision("f32"):
        rows = S.bench(model, users, tags, sizes=[(10, 6)])
    row = rows[0]
    assert row["naive_user_tower"] == 10 * 6 * 2
    assert row["naive_tag_tower"] == 10 * 6 * 2
    assert row["cached_user_tower"] == 10
    assert row["cached_tag_tower"] == 6 * 2
    assert row["naive_seconds"] > 0 and row["cached_seconds"] > 0


def test_bench_cached_counts_scale_linearly(served):
    model, users, tags, _ = served
    with dg.precision("f32"):
        rows = S.bench(model, users, tags, sizes=[(20, 6), (40, 6)])
    assert rows[1]["cached_user_tower"] == 2 * rows[0]["cached_user_tower"]
    assert rows[1]["cached_tag_tower"] == rows[0]["cached_tag_tower"]


def test_bench_rejects_oversized_request(served):
    model, users, tags, _ = served
    with pytest.raises(ConfigError):
        S.bench(model, users, tags, sizes=[(10**6, 5)])


@pytest.mark.parametrize("size", [(-1, 5), (0, 5), (8, -2)])
def test_bench_rejects_a_size_below_one(served, size):
    """A negative size would slice from the end and report the wrong count."""
    model, users, tags, _ = served
    with pytest.raises(ConfigError, match="bench size"):
        S.bench(model, users, tags, sizes=[size])


@pytest.fixture
def saved(tmp_path, served):
    _, _, _, caches = served
    S.save_caches(caches, tmp_path)
    return tmp_path


def _rewrite_index(path, **changes):
    doc = json.loads(path.read_text())
    path.write_text(json.dumps({**doc, **changes}))


def test_cache_bad_dtype_is_data_error(saved):
    _rewrite_index(saved / "user_cache.json", dtype="f16")
    with pytest.raises(DataError, match="user_cache.bin"):
        S.load_caches(saved)


def test_cache_index_with_fewer_ids_than_rows_is_data_error(saved):
    doc = json.loads((saved / "user_cache.json").read_text())
    _rewrite_index(saved / "user_cache.json", ids=doc["ids"][:-1])
    with pytest.raises(DataError, match="user_cache.bin"):
        S.load_caches(saved)


def test_cache_payload_not_filling_header_is_data_error(saved):
    """The index's shape record is the header the payload must fill."""
    path = saved / "tag_cache_ctr.bin"
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(DataError, match="tag_cache_ctr.bin"):
        S.load_caches(saved)


def _user_cache_of_a_4_wide_model(saved):
    with dg.precision("f32"):
        schema = M.FieldSchema(user_fields=(("color", 5), ("size", 4)),
                               tag_vocab_size=6, embed_dim=4)
        model = M.MvkeModel(M.ModelConfig(schema, M.five_expert_routing()), seed=0)
        users = [(u, (u % 5, u % 4)) for u in range(3)]
        S.build_caches(model, users, range(6))[0].save(saved / "user_cache.bin",
                                                        saved / "user_cache.json")


def _index_listing_one_expert_fewer(saved):
    # one gate weight fewer and one embedding value more per row: the payload still fits
    doc = json.loads((saved / "tag_cache_cvr.json").read_text())
    _rewrite_index(saved / "tag_cache_cvr.json", experts=doc["experts"][:-1])


@pytest.mark.parametrize("name, tamper", [
    ("tag_cache_ctr.bin", _user_cache_of_a_4_wide_model),
    ("tag_cache_cvr.bin", _index_listing_one_expert_fewer),
], ids=["other-model", "expert-count"])
def test_tag_cache_embedding_width_must_match_the_user_cache(saved, name, tamper):
    """8-wide tag embeddings beside 4-wide expert outputs would fail each lookup."""
    tamper(saved)
    with pytest.raises(DataError, match=re.escape(name)):
        S.load_caches(saved)


@pytest.mark.parametrize("experts", [[0, 1, 7], [0, 0, 1], [-1, 0, 1], [0, 1, 2.0], [0, 1, True]])
def test_tag_cache_experts_must_be_distinct_ids_of_the_user_cache(saved, experts):
    _rewrite_index(saved / "tag_cache_ctr.json", experts=experts)  # ctr routes to 3 of 5
    with pytest.raises(DataError, match=r"tag_cache_ctr\.json.*experts"):
        S.load_caches(saved)


@pytest.mark.parametrize("tau", ["nan", "5.0", True, float("inf"), float("nan")])
def test_tag_cache_tau_must_be_a_finite_number(saved, tau):
    _rewrite_index(saved / "tag_cache_cvr.json", tau=tau)
    with pytest.raises(DataError, match=r"tag_cache_cvr\.json"):
        S.load_caches(saved)


@pytest.mark.parametrize("name, bad_ids", [
    ("tag_cache_ctr.json", lambda ids: ["a", *ids[1:]]),
    ("user_cache.json", lambda ids: [ids[1], *ids[1:]]),
    ("user_cache.json", lambda ids: [True, *ids[1:]]),
    ("user_cache.json", lambda ids: [float(i) for i in ids]),
], ids=["string", "repeated", "bool", "float"])
def test_cache_ids_must_be_distinct_integers(saved, name, bad_ids):
    doc = json.loads((saved / name).read_text())
    _rewrite_index(saved / name, ids=bad_ids(doc["ids"]))
    with pytest.raises(DataError, match=re.escape(name)):
        S.load_caches(saved)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", ["user_cache.bin", "tag_cache_cvr.bin"])
def test_cache_with_a_non_finite_value_is_data_error(saved, name, value):
    path = saved / name
    dtype = dg.codec_dtype(json.loads(path.with_suffix(".json").read_text())["dtype"])
    raw = bytearray(path.read_bytes())
    payload = np.frombuffer(raw, dtype=dtype)
    payload[len(payload) // 2] = value
    path.write_bytes(raw)
    with pytest.raises(DataError, match=re.escape(name)):
        S.load_caches(saved)


@pytest.mark.parametrize("name, column, value", [
    ("tag_cache_ctr.bin", 0, 1e20),
    ("tag_cache_ctr.bin", 2, -1.5),
    ("tag_cache_cvr.bin", -1, 1.5),
    ("tag_cache_cvr.bin", -2, -0.25),
], ids=["embedding-huge", "embedding-below", "gate-above", "gate-negative"])
def test_tag_cache_value_the_model_cannot_write_is_data_error(saved, name, column, value):
    """The tag tower ends in tanh and the gate in a softmax. A flipped exponent byte
    can make a stored tag value about 1e20, which squares past float32 in lookups."""
    path = saved / name
    doc = json.loads(path.with_suffix(".json").read_text())
    raw = bytearray(path.read_bytes())
    np.frombuffer(raw, dtype=dg.codec_dtype(doc["dtype"])).reshape(doc["shape"])[1, column] = value
    path.write_bytes(raw)
    with pytest.raises(DataError, match=re.escape(name) + ".*outside"):
        S.load_caches(saved)


def test_cache_payload_cut_mid_value_is_data_error(saved):
    path = saved / "user_cache.bin"
    path.write_bytes(path.read_bytes()[:10])
    with pytest.raises(DataError, match="user_cache.bin"):
        S.load_caches(saved)


def test_missing_cache_file_is_data_error_naming_it(saved):
    (saved / "user_cache.bin").unlink()
    with pytest.raises(DataError, match="user_cache.bin"):
        S.load_caches(saved)


def test_cache_index_without_a_shape_is_data_error(saved):
    """The layout before the shape record moved into the index is refused."""
    doc = json.loads((saved / "user_cache.json").read_text())
    del doc["shape"]
    (saved / "user_cache.json").write_text(json.dumps(doc))
    with pytest.raises(DataError, match="user_cache.bin.*shape"):
        S.load_caches(saved)


@pytest.mark.parametrize("name, shape", [
    ("user_cache.json", lambda n, k, d: [n, k * d]),
    ("user_cache.json", lambda n, k, d: [n * k, d, 1]),
    ("tag_cache_ctr.json", lambda n, w: [n, w, 1]),
], ids=["user-rank-2", "user-row-per-expert", "tag-rank-3"])
def test_cache_shape_must_have_its_rank_and_a_row_per_id(saved, name, shape):
    doc = json.loads((saved / name).read_text())
    _rewrite_index(saved / name, shape=shape(*doc["shape"]))
    with pytest.raises(DataError, match=re.escape(name.replace(".json", ".bin"))):
        S.load_caches(saved)
