import math

import numpy as np
import pytest

import mvke.diffgraph as dg
import mvke.model as M
from mvke.errors import ConfigError, DataError
from mvke.model import Task

from conftest import FakeExample


pytestmark = pytest.mark.usefixtures("f64")


def np_tanh_affine(x, w, b):
    return np.tanh(x @ w + b)


def make_params(small_cfg, seed=0):
    return M.init_mvke_params(small_cfg, seed=seed)


def one_example(schema, field_values=(1, 2, 3), tags=(1,)):
    """A batch of one."""
    return M.encode_examples([FakeExample(field_values, tags)], schema)


def tag_batch(schema, tags):
    batch = one_example(schema, tags=tags)
    return batch.tag_idx, batch.tag_weight


# ---------------------------------------------------------------------------
# schema / routing validation

def test_schema_validation():
    with pytest.raises(ConfigError):
        M.FieldSchema(user_fields=(), tag_vocab_size=5, embed_dim=4)
    with pytest.raises(ConfigError):
        M.FieldSchema(user_fields=(("a", 3),), tag_vocab_size=1, embed_dim=4)
    with pytest.raises(ConfigError):
        M.FieldSchema(user_fields=(("a", 3),), tag_vocab_size=5, embed_dim=1)


def test_routing_accepts_default_five_expert_split():
    routing = M.five_expert_routing()
    routing.check_multi_task()
    assert routing.ctr_experts == (0, 1, 2)
    assert routing.cvr_experts == (1, 2, 3, 4)
    assert routing.shared == (1, 2)


def test_routing_rejects_orphan_expert():
    with pytest.raises(ConfigError):
        M.ExpertRouting(5, (0, 1), (2, 3))  # expert 4 unused


def test_routing_multi_task_constraints():
    no_shared = M.ExpertRouting(4, (0, 1), (2, 3))
    with pytest.raises(ConfigError):
        no_shared.check_multi_task()
    no_exclusive = M.ExpertRouting(3, (0, 1, 2), (0, 2))
    with pytest.raises(ConfigError):
        no_exclusive.check_multi_task()


@pytest.mark.parametrize("k", range(3, 13))
def test_split_routing_valid_for_any_k(k):
    routing = M.split_routing(k)
    routing.check_multi_task()
    assert set(routing.ctr_experts) | set(routing.cvr_experts) == set(range(k))


def test_model_config_json_round_trip(small_cfg):
    again = M.ModelConfig.from_dict(small_cfg.to_dict())
    assert again == small_cfg


# ---------------------------------------------------------------------------
# embeddings

def test_embed_single_field_is_table_row(small_cfg):
    params = make_params(small_cfg)
    out = M.embed_user_fields(one_example(small_cfg.schema), params, small_cfg.schema)
    assert out.shape == (1, 3, 8)
    np.testing.assert_array_equal(out.data[0, 0], params["user_embed.color"].data[1])
    np.testing.assert_array_equal(out.data[0, 1], params["user_embed.size"].data[2])


def test_embed_multivalued_field_mean_pools(small_cfg):
    params = make_params(small_cfg)
    batch = one_example(small_cfg.schema, ((0, 2), 1, 3))
    out = M.embed_user_fields(batch, params, small_cfg.schema)
    table = params["user_embed.color"].data
    np.testing.assert_allclose(out.data[0, 0], (table[0] + table[2]) / 2, atol=1e-15)


def test_embed_out_of_vocab_names_field(small_cfg):
    with pytest.raises(DataError, match="size"):
        one_example(small_cfg.schema, (1, 99, 3))


def test_embedding_gradient_touches_only_looked_up_rows(small_cfg):
    params = make_params(small_cfg)
    batch = M.encode_examples([FakeExample((1, 2, 3), (1,), 1, 0)], small_cfg.schema)

    def loss():
        out = M.mvke_forward(batch, small_cfg, params)
        return dg.bce_loss(out[Task.CTR][0], batch.clicks)

    dg.zero_grads(params)
    dg.backward(loss())
    table = params["user_embed.color"]
    assert np.any(table.grad[1] != 0.0)
    for untouched in (0, 2, 3, 4):
        np.testing.assert_array_equal(table.grad[untouched], 0.0)
    # finite differences agree that untouched rows have zero gradient
    flat = table.data
    orig = flat[0, 0]
    with dg.no_grad():
        flat[0, 0] = orig + 1e-4
        up = loss().item()
        flat[0, 0] = orig - 1e-4
        down = loss().item()
        flat[0, 0] = orig
    assert up == down


# ---------------------------------------------------------------------------
# tag tower

def test_tag_tower_singleton(small_cfg):
    params = make_params(small_cfg)
    out = M.tag_tower(*tag_batch(small_cfg.schema, (3,)), Task.CTR, params)
    expected = np_tanh_affine(params["tag_tower.ctr.embed"].data[3],
                              params["tag_tower.ctr.proj.w"].data,
                              params["tag_tower.ctr.proj.b"].data)
    assert out.shape == (1, 8)
    np.testing.assert_allclose(out.data[0], expected, atol=1e-12)


def test_tag_tower_duplicates_collapse(small_cfg):
    params = make_params(small_cfg)
    np.testing.assert_array_equal(
        M.tag_tower(*tag_batch(small_cfg.schema, (3, 3)), Task.CTR, params).data,
        M.tag_tower(*tag_batch(small_cfg.schema, (3,)), Task.CTR, params).data)


def test_tag_tower_pair_matches_oracle(small_cfg):
    params = make_params(small_cfg)
    out = M.tag_tower(*tag_batch(small_cfg.schema, (2, 5)), Task.CVR, params)
    table = params["tag_tower.cvr.embed"].data
    expected = np_tanh_affine((table[2] + table[5]) / 2,
                              params["tag_tower.cvr.proj.w"].data,
                              params["tag_tower.cvr.proj.b"].data)
    np.testing.assert_allclose(out.data[0], expected, atol=1e-12)


def test_tag_tower_empty_set_is_data_error(small_cfg):
    with pytest.raises(DataError):
        tag_batch(small_cfg.schema, ())


# ---------------------------------------------------------------------------
# expert forward

def test_vke_single_field_context_is_value_row(small_cfg):
    params = make_params(small_cfg)
    fe = dg.Tensor(np.random.default_rng(0).normal(size=(1, 1, 8)))
    ctx, w = M.vke_attention(fe, 0, params)
    expected_v = np_tanh_affine(fe.data[0], params["expert.0.v_proj.w"].data,
                                params["expert.0.v_proj.b"].data)
    np.testing.assert_allclose(ctx.data, expected_v, atol=1e-12)
    np.testing.assert_allclose(w.data, [[1.0]], atol=1e-15)


def test_identical_experts_produce_identical_outputs(small_cfg):
    params = make_params(small_cfg)
    # copy expert 0 weights and kernel onto expert 1
    for proj in ("q_proj.w", "q_proj.b", "k_proj.w", "k_proj.b", "v_proj.w", "v_proj.b",
                 "head.w1", "head.b1", "head.w2", "head.b2"):
        params[f"expert.1.{proj}"].data[...] = params[f"expert.0.{proj}"].data
    params["virtual_kernels"].data[1] = params["virtual_kernels"].data[0]
    fe = dg.Tensor(np.random.default_rng(1).normal(size=(1, 3, 8)))
    np.testing.assert_array_equal(M.vke_forward(fe, 0, params).data,
                                  M.vke_forward(fe, 1, params).data)


def test_vke_matches_step_by_step_oracle(small_cfg):
    params = make_params(small_cfg)
    rng = np.random.default_rng(2)
    fe = rng.normal(size=(3, 8))
    got = M.vke_forward(dg.Tensor(fe[None]), 2, params).data[0]

    # plain-loop oracle: per-input transforms, explicit softmax, MLP head
    p = {k: v.data for k, v in params.items()}
    kernel = p["virtual_kernels"][2]
    q = np.tanh(kernel @ p["expert.2.q_proj.w"] + p["expert.2.q_proj.b"])
    logits = []
    keys, values = [], []
    for i in range(3):
        keys.append(np.tanh(fe[i] @ p["expert.2.k_proj.w"] + p["expert.2.k_proj.b"]))
        values.append(np.tanh(fe[i] @ p["expert.2.v_proj.w"] + p["expert.2.v_proj.b"]))
        logits.append(float(q @ keys[i]) / math.sqrt(8.0))
    es = [math.exp(z - max(logits)) for z in logits]
    ws = [e / sum(es) for e in es]
    ctx = sum(w * v for w, v in zip(ws, values))
    hidden = np.maximum(ctx @ p["expert.2.head.w1"] + p["expert.2.head.b1"], 0.0)
    expected = hidden @ p["expert.2.head.w2"] + p["expert.2.head.b2"]
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_vke_batch_matches_single(small_cfg):
    params = make_params(small_cfg)
    rng = np.random.default_rng(3)
    fe = rng.normal(size=(4, 3, 8))
    batched = M.vke_forward(dg.Tensor(fe), 1, params).data
    for b in range(4):
        single = M.vke_forward(dg.Tensor(fe[b:b + 1]), 1, params).data
        np.testing.assert_allclose(batched[b], single[0], atol=1e-12)


# ---------------------------------------------------------------------------
# gate combine

def test_vkg_singleton_task_set(small_cfg):
    schema = small_cfg.schema
    routing = M.ExpertRouting(2, ctr_experts=(0,), cvr_experts=(0, 1))
    cfg = M.ModelConfig(schema=schema, routing=routing)
    params = M.init_mvke_params(cfg, seed=0)
    rng = np.random.default_rng(4)
    outs = dg.Tensor(rng.normal(size=(1, 1, 8)))
    tag = dg.Tensor(rng.normal(size=(1, 8)))
    mixed, w = M.vkg_combine(outs, tag, Task.CTR, params, routing)
    np.testing.assert_allclose(mixed.data, outs.data[:, 0], atol=1e-15)
    np.testing.assert_allclose(w.data, [[1.0]], atol=1e-15)


def test_vkg_equal_kernels_give_uniform_weights(small_cfg):
    params = make_params(small_cfg)
    params["virtual_kernels"].data[...] = params["virtual_kernels"].data[0]
    rng = np.random.default_rng(5)
    outs = dg.Tensor(rng.normal(size=(1, 3, 8)))
    tag = dg.Tensor(rng.normal(size=(1, 8)))
    mixed, w = M.vkg_combine(outs, tag, Task.CTR, params, small_cfg.routing)
    np.testing.assert_allclose(w.data, np.full((1, 3), 1 / 3), atol=1e-12)
    np.testing.assert_allclose(mixed.data, outs.data.mean(axis=1), atol=1e-12)


def test_vkg_matches_attention_oracle(small_cfg):
    params = make_params(small_cfg)
    rng = np.random.default_rng(6)
    outs = rng.normal(size=(3, 8))
    tag = rng.normal(size=8)
    mixed, w = M.vkg_combine(dg.Tensor(outs[None]), dg.Tensor(tag[None]), Task.CTR,
                             params, small_cfg.routing)

    p = {k: v.data for k, v in params.items()}
    q = np.tanh(tag @ p["gate.ctr.q_proj.w"] + p["gate.ctr.q_proj.b"])
    logits = []
    for e in small_cfg.routing.ctr_experts:
        key = np.tanh(p["virtual_kernels"][e] @ p["gate.ctr.k_proj.w"] + p["gate.ctr.k_proj.b"])
        logits.append(float(q @ key) / math.sqrt(8.0))
    es = [math.exp(z - max(logits)) for z in logits]
    ws = np.array([e / sum(es) for e in es])
    np.testing.assert_allclose(w.data[0], ws, atol=1e-12)
    np.testing.assert_allclose(mixed.data[0], ws @ outs, atol=1e-12)


def test_vkg_gate_weights_are_probabilities(small_cfg):
    params = make_params(small_cfg)
    rng = np.random.default_rng(7)
    for task in M.TASKS:
        emb = dg.Tensor(rng.normal(size=(6, 8)))
        w = M.gate_weights_for_tags(emb, task, params, small_cfg.routing)
        assert np.all(w.data >= 0.0)
        np.testing.assert_allclose(w.data.sum(axis=1), np.ones(6), atol=1e-6)


# ---------------------------------------------------------------------------
# scoring

def test_score_identical_embeddings(small_cfg):
    params = make_params(small_cfg)  # tau initialized to 5.0
    v = dg.Tensor(np.array([[0.3, -1.0, 0.2, 0.9, 0.1, -0.4, 0.8, 0.5]]))
    p = M.score_pair(v, v, Task.CTR, params)
    assert p.data[0] == pytest.approx(0.9933071490757152, abs=1e-9)


def test_score_orthogonal_embeddings(small_cfg):
    params = make_params(small_cfg)
    a = dg.Tensor(np.array([[1.0] + [0.0] * 7]))
    b = dg.Tensor(np.array([[0.0, 1.0] + [0.0] * 6]))
    assert M.score_pair(a, b, Task.CTR, params).data[0] == pytest.approx(0.5, abs=1e-12)


def test_score_tau_one_opposite_embeddings(small_cfg):
    params = make_params(small_cfg)
    params["temperature.ctr"].data[...] = 1.0
    a = dg.Tensor(np.array([[1.0] + [0.0] * 7]))
    b = dg.Tensor(np.array([[-1.0] + [0.0] * 7]))
    assert M.score_pair(a, b, Task.CTR, params).data[0] == pytest.approx(
        0.2689414213699951, abs=1e-12)


# ---------------------------------------------------------------------------
# full forward

def test_routing_isolation_bit_identical(small_cfg, small_batch_examples):
    schema = small_cfg.schema
    routing = M.ExpertRouting(2, ctr_experts=(0,), cvr_experts=(1,))
    cfg = M.ModelConfig(schema=schema, routing=routing)
    params = M.init_mvke_params(cfg, seed=0)
    batch = M.encode_examples(small_batch_examples, schema)
    before = M.mvke_forward(batch, cfg, params)[Task.CTR][0].data.copy()
    # perturb everything owned by expert 1 and the cvr tower/gate
    rng = np.random.default_rng(8)
    for name, t in params.items():
        if name.startswith("expert.1.") or ".cvr" in name:
            t.data += rng.normal(size=t.data.shape)
    params["virtual_kernels"].data[1] += 0.37
    after = M.mvke_forward(batch, cfg, params)[Task.CTR][0].data
    np.testing.assert_array_equal(before, after)


def test_routing_isolation_under_default_split(small_cfg, small_batch_examples):
    params = make_params(small_cfg)
    batch = M.encode_examples(small_batch_examples, small_cfg.schema)
    before = M.mvke_forward(batch, small_cfg, params)[Task.CTR][0].data.copy()
    for proj in ("q_proj.w", "k_proj.b", "head.w2"):
        params[f"expert.4.{proj}"].data += 1.0  # expert 4 serves cvr only
    after = M.mvke_forward(batch, small_cfg, params)[Task.CTR][0].data
    np.testing.assert_array_equal(before, after)


def test_shared_experts_receive_gradient_from_each_single_task_loss(
        small_cfg, small_batch_examples):
    params = make_params(small_cfg)
    batch = M.encode_examples(small_batch_examples, small_cfg.schema)
    for task, labels in ((Task.CTR, batch.clicks), (Task.CVR, batch.convs)):
        dg.zero_grads(params)
        out = M.mvke_forward(batch, small_cfg, params, (task,))
        dg.backward(dg.bce_loss(out[task][0], labels))
        for shared in small_cfg.routing.shared:
            grad = params[f"expert.{shared}.k_proj.w"].grad
            assert grad is not None and np.linalg.norm(grad) > 0.0


def test_gate_weights_ignore_user_features(small_cfg, small_batch_examples):
    params = make_params(small_cfg)
    batch = M.encode_examples(small_batch_examples, small_cfg.schema)
    w_before = M.mvke_forward(batch, small_cfg, params)[Task.CTR][1].data.copy()
    for name in ("user_embed.color", "user_embed.size", "user_embed.habits"):
        params[name].data += np.random.default_rng(9).normal(size=params[name].data.shape)
    w_after = M.mvke_forward(batch, small_cfg, params)[Task.CTR][1].data
    np.testing.assert_array_equal(w_before, w_after)


def test_gate_weights_vary_with_tag(small_cfg):
    params = make_params(small_cfg)
    exs = [FakeExample((1, 2, 3), (t,), 0, 0) for t in (0, 5)]
    batch = M.encode_examples(exs, small_cfg.schema)
    w = M.mvke_forward(batch, small_cfg, params)[Task.CTR][1].data
    assert not np.allclose(w[0], w[1])


def test_mvke_batch_matches_single_example(small_cfg, small_batch_examples):
    params = make_params(small_cfg)
    batch = M.encode_examples(small_batch_examples, small_cfg.schema)
    full = M.mvke_forward(batch, small_cfg, params)
    for i, ex in enumerate(small_batch_examples):
        one = M.encode_examples([ex], small_cfg.schema)
        out = M.mvke_forward(one, small_cfg, params)
        for task in M.TASKS:
            assert full[task][0].data[i] == pytest.approx(out[task][0].data[0], abs=1e-12)


def test_full_model_gradient_check(small_cfg, small_batch_examples):
    params = make_params(small_cfg)
    batch = M.encode_examples(small_batch_examples, small_cfg.schema)

    def loss():
        out = M.mvke_forward(batch, small_cfg, params)
        return dg.add(dg.bce_loss(out[Task.CTR][0], batch.clicks),
                      dg.bce_loss(out[Task.CVR][0], batch.convs))

    assert dg.grad_check(loss, params, max_entries=8) <= 1e-4


def test_single_expert_loss_gradient_check(small_cfg, small_batch_examples):
    # one expert path plus BCE, a handful of parameters, tight tolerance
    params = make_params(small_cfg)
    batch = M.encode_examples(small_batch_examples, small_cfg.schema)

    def loss():
        fe = M.embed_user_fields(batch, params, small_cfg.schema)
        out = M.vke_forward(fe, 0, params)
        tag = M.tag_tower(batch.tag_idx, batch.tag_weight, Task.CTR, params)
        p = M.score_pair(out, tag, Task.CTR, params)
        return dg.bce_loss(p, batch.clicks)

    subset = {name: params[name] for name in
              ("expert.0.q_proj.w", "expert.0.k_proj.w", "expert.0.v_proj.b",
               "expert.0.head.w1", "virtual_kernels", "tag_tower.ctr.proj.w",
               "user_embed.color", "temperature.ctr")}
    assert dg.grad_check(loss, subset, max_entries=8) <= 1e-5


# ---------------------------------------------------------------------------
# two-tower baseline

def test_two_tower_has_fewer_params_than_mvke(small_cfg):
    mvke_params = make_params(small_cfg)
    tt_params = M.init_two_tower_params(small_cfg, Task.CTR, seed=0)
    assert M.count_params(tt_params) < M.count_params(mvke_params)


def test_two_tower_identity_mlp_returns_field_embedding():
    schema = M.FieldSchema(user_fields=(("only", 6),), tag_vocab_size=5, embed_dim=4)
    cfg = M.ModelConfig(schema=schema, routing=M.five_expert_routing())
    params = M.init_two_tower_params(cfg, Task.CTR, seed=0)
    d, h = 4, cfg.hidden
    eye = np.eye(d)
    params["user_mlp.w1"].data[...] = np.concatenate([eye, -eye], axis=1)
    params["user_mlp.b1"].data[...] = 0.0
    params["user_mlp.w2"].data[...] = np.concatenate([eye, -eye], axis=0)
    params["user_mlp.b2"].data[...] = 0.0
    batch = M.encode_examples([FakeExample((2,), (1,), 0, 0)], schema)
    emb = M.two_tower_user_embedding(batch, cfg, params)
    np.testing.assert_allclose(emb.data[0], params["user_embed.only"].data[2], atol=1e-12)


def test_two_tower_matches_oracle_on_batch(small_cfg, small_batch_examples):
    params = M.init_two_tower_params(small_cfg, Task.CVR, seed=3)
    batch = M.encode_examples(small_batch_examples[:2], small_cfg.schema)
    got = M.two_tower_forward(batch, small_cfg, params, Task.CVR).data

    p = {k: v.data for k, v in params.items()}
    tables = [p["user_embed.color"], p["user_embed.size"], p["user_embed.habits"]]
    for i, ex in enumerate(small_batch_examples[:2]):
        rows = []
        for j, raw in enumerate(ex.field_values):
            ids = raw if isinstance(raw, tuple) else (raw,)
            rows.append(np.mean([tables[j][v] for v in ids], axis=0))
        pooled = np.mean(rows, axis=0)
        hidden = np.maximum(pooled @ p["user_mlp.w1"] + p["user_mlp.b1"], 0.0)
        user = hidden @ p["user_mlp.w2"] + p["user_mlp.b2"]
        tag_rows = np.mean([p["tag_tower.cvr.embed"][t] for t in sorted(set(ex.tag_set))],
                           axis=0)
        tag = np.tanh(tag_rows @ p["tag_tower.cvr.proj.w"] + p["tag_tower.cvr.proj.b"])
        cos = float(user @ tag / (np.linalg.norm(user) * np.linalg.norm(tag)))
        expected = 1.0 / (1.0 + math.exp(-float(p["temperature.cvr"]) * cos))
        assert got[i] == pytest.approx(expected, abs=1e-10)


# ---------------------------------------------------------------------------
# checkpointing

def test_save_and_load_model_round_trip(tmp_path, small_cfg, small_batch_examples):
    model = M.MvkeModel(small_cfg, seed=1)
    batch = M.encode_examples(small_batch_examples, small_cfg.schema)
    before = model.predict(batch, Task.CTR)
    M.save_model(model, tmp_path / "ckpt")
    again = M.load_model(tmp_path / "ckpt")
    np.testing.assert_array_equal(before, again.predict(batch, Task.CTR))
    assert again.cfg == small_cfg
