import json
import math

import numpy as np
import pytest

import mvke.diffgraph as dg
import mvke.model as M
from mvke.errors import ConfigError, DataError, NumericsError
from mvke.model import Task

from fakes import FakeExample


pytestmark = pytest.mark.usefixtures("f64")


def np_tanh_affine(x, w, b):
    return np.tanh(x @ w + b)


def make_params(small_cfg, seed=0):
    return M.init_mvke_params(small_cfg, seed=seed)


def expert_names(params):
    """Names of the stacked expert parameters; never empty for a mixture model."""
    names = [name for name in params if name.startswith("experts.")]
    assert names
    return names


def expert_slice(params, layer, e):
    """Expert ``e``'s (w [in, out], b [out]) of a stacked layer."""
    return params[f"experts.{layer}.w"].data[e], params[f"experts.{layer}.b"].data[e, 0]


def field_rows(array, schema, fname):
    """Field ``fname``'s rows of a stacked ``user_embed`` array, found through its offset."""
    j = schema.field_names.index(fname)
    start = schema.field_offsets[j]
    return array[start:start + schema.user_fields[j][1]]


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
    table = params["user_embed"].data
    np.testing.assert_array_equal(out.data[0, 0], field_rows(table, small_cfg.schema, "color")[1])
    np.testing.assert_array_equal(out.data[0, 1], field_rows(table, small_cfg.schema, "size")[2])


def test_embed_multivalued_field_mean_pools(small_cfg):
    params = make_params(small_cfg)
    batch = one_example(small_cfg.schema, ((0, 2), 1, 3))
    out = M.embed_user_fields(batch, params, small_cfg.schema)
    table = field_rows(params["user_embed"].data, small_cfg.schema, "color")
    np.testing.assert_allclose(out.data[0, 0], (table[0] + table[2]) / 2, atol=1e-15)


def test_embed_out_of_vocab_names_field(small_cfg):
    with pytest.raises(DataError, match="size"):
        one_example(small_cfg.schema, (1, 99, 3))


def _reference_encoding(examples, schema):
    """Row-by-row padding, the loop the vectorized encoder replaced."""
    def pad(rows):
        width = max(len(r) for r in rows)
        idx = np.zeros((len(rows), width), dtype=np.int64)
        weight = np.zeros((len(rows), width), dtype=np.float64)
        for r, ids in enumerate(rows):
            idx[r, :len(ids)] = ids
            weight[r, :len(ids)] = 1.0 / len(ids)
        return idx, weight

    arrays = []
    for j in range(len(schema.user_fields)):
        arrays.extend(pad([tuple(v) if isinstance(v, (tuple, list)) else (int(v),)
                           for v in (ex.field_values[j] for ex in examples)]))
    arrays.extend(pad([tuple(sorted(set(ex.tag_set))) for ex in examples]))
    arrays.append(np.array([float(ex.click_label) for ex in examples]))
    arrays.append(np.array([float(ex.conversion_label) for ex in examples]))
    return arrays


def test_encode_matches_row_by_row_reference_byte_for_byte(small_cfg):
    rng = np.random.default_rng(31)
    schema = small_cfg.schema
    examples = []
    for i in range(200):
        fields = tuple(tuple(int(v) for v in rng.integers(vocab, size=rng.integers(1, 4)))
                       if j == 2 else int(rng.integers(vocab))
                       for j, (_, vocab) in enumerate(schema.user_fields))
        tags = tuple(int(v) for v in rng.integers(schema.tag_vocab_size,
                                                   size=rng.integers(1, 6)))
        examples.append(FakeExample(fields, tags, i % 2, i % 4 == 0))
    batch = M.encode_examples(examples, schema)
    got = []
    for idx, weight in zip(batch.field_idx, batch.field_weight):
        got += [idx, weight]
    got += [batch.tag_idx, batch.tag_weight, batch.clicks, batch.convs]
    for a, b in zip(got, _reference_encoding(examples, schema), strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("rows, message", [
    # the first bad row in field order, then row order, is reported
    ([((1, 99, 3), (1,)), ((1, 2, ()), (1,))], "field 'size': id 99 out of vocab range [0, 4)"),
    ([((1, 2, ()), (1,)), ((1, 2, (9, -1)), (1,))], "field 'habits' has no values"),
    ([((1, 2, (0, 9, -4, 8)), (1,))], "field 'habits': id 9 out of vocab range [0, 7)"),
    ([((1, 2, 3), (1,)), ((1, 2, 3), ())], "example has an empty tag set"),
    ([((1, 2, 3), (12, -3, 1))], "tag id -3 out of vocab range [0, 10)"),
    ([((1, 2, 3), (11,)), ((1, 2, 3), ())], "tag id 11 out of vocab range [0, 10)"),
])
def test_encode_error_names_first_bad_row(small_cfg, rows, message):
    examples = [FakeExample(fields, tags) for fields, tags in rows]
    with pytest.raises(DataError) as err:
        M.encode_examples(examples, small_cfg.schema)
    assert str(err.value) == message


@pytest.mark.parametrize("bad", [2**70, float("nan")])
def test_encode_id_beyond_int64_is_data_error(small_cfg, bad):
    with pytest.raises(DataError) as err:
        one_example(small_cfg.schema, (1, 2, (2, bad)))
    assert str(err.value) == f"field 'habits': id {bad} out of vocab range [0, 7)"


def test_embedding_gradient_touches_only_looked_up_rows(small_cfg):
    params = make_params(small_cfg)
    batch = M.encode_examples([FakeExample((1, 2, 3), (1,), 1, 0)], small_cfg.schema)

    def loss():
        out = M.mvke_forward(batch, small_cfg, params)
        return dg.bce_loss(out[Task.CTR][0], batch.clicks)

    dg.zero_grads(params)
    dg.backward(loss())
    grad = field_rows(params["user_embed"].grad, small_cfg.schema, "color")
    assert np.any(grad[1] != 0.0)
    for untouched in (0, 2, 3, 4):
        np.testing.assert_array_equal(grad[untouched], 0.0)
    # finite differences agree that untouched rows have zero gradient
    flat = field_rows(params["user_embed"].data, small_cfg.schema, "color")
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
    ctx, w = M.vke_attention(fe, [0], params)
    expected_v = np_tanh_affine(fe.data[0], *expert_slice(params, "v_proj", 0))
    np.testing.assert_allclose(ctx.data[0], expected_v, atol=1e-12)
    np.testing.assert_allclose(w.data[0], [[1.0]], atol=1e-15)


def test_identical_experts_produce_identical_outputs(small_cfg):
    params = make_params(small_cfg)
    # copy expert 0 weights and kernel onto expert 1
    for name in expert_names(params):
        params[name].data[1] = params[name].data[0]
    params["virtual_kernels"].data[1] = params["virtual_kernels"].data[0]
    fe = dg.Tensor(np.random.default_rng(1).normal(size=(1, 3, 8)))
    np.testing.assert_array_equal(M.vke_forward(fe, [0], params).data,
                                  M.vke_forward(fe, [1], params).data)


def test_vke_matches_step_by_step_oracle(small_cfg):
    params = make_params(small_cfg)
    rng = np.random.default_rng(2)
    fe = rng.normal(size=(3, 8))
    got = M.vke_forward(dg.Tensor(fe[None]), [2], params).data[0, 0]

    # plain-loop oracle: per-input transforms, explicit softmax, MLP head
    (qw, qb), (kw, kb), (vw, vb), (w1, b1), (w2, b2) = (
        expert_slice(params, layer, 2)
        for layer in ("q_proj", "k_proj", "v_proj", "head1", "head2"))
    kernel = params["virtual_kernels"].data[2]
    q = np.tanh(kernel @ qw + qb)
    logits = []
    keys, values = [], []
    for i in range(3):
        keys.append(np.tanh(fe[i] @ kw + kb))
        values.append(np.tanh(fe[i] @ vw + vb))
        logits.append(float(q @ keys[i]) / math.sqrt(8.0))
    es = [math.exp(z - max(logits)) for z in logits]
    ws = [e / sum(es) for e in es]
    ctx = sum(w * v for w, v in zip(ws, values))
    hidden = np.maximum(ctx @ w1 + b1, 0.0)
    expected = hidden @ w2 + b2
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_vke_batch_matches_single(small_cfg):
    params = make_params(small_cfg)
    rng = np.random.default_rng(3)
    fe = rng.normal(size=(4, 3, 8))
    batched = M.vke_forward(dg.Tensor(fe), [1], params).data
    for b in range(4):
        single = M.vke_forward(dg.Tensor(fe[b:b + 1]), [1], params).data
        np.testing.assert_allclose(batched[0, b], single[0, 0], atol=1e-12)
    # several experts in one call: each row block equals that expert alone
    experts = [4, 0, 2]
    stacked = M.vke_forward(dg.Tensor(fe), experts, params).data
    for row, e in enumerate(experts):
        np.testing.assert_array_equal(stacked[row],
                                      M.vke_forward(dg.Tensor(fe), [e], params).data[0])


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
    np.testing.assert_allclose(mixed.data, outs.data[0], atol=1e-15)
    np.testing.assert_allclose(w.data, [[1.0]], atol=1e-15)


def test_vkg_equal_kernels_give_uniform_weights(small_cfg):
    params = make_params(small_cfg)
    params["virtual_kernels"].data[...] = params["virtual_kernels"].data[0]
    rng = np.random.default_rng(5)
    outs = dg.Tensor(rng.normal(size=(3, 1, 8)))
    tag = dg.Tensor(rng.normal(size=(1, 8)))
    mixed, w = M.vkg_combine(outs, tag, Task.CTR, params, small_cfg.routing)
    np.testing.assert_allclose(w.data, np.full((1, 3), 1 / 3), atol=1e-12)
    np.testing.assert_allclose(mixed.data, outs.data.mean(axis=0), atol=1e-12)


def test_vkg_matches_attention_oracle(small_cfg):
    params = make_params(small_cfg)
    rng = np.random.default_rng(6)
    outs = rng.normal(size=(3, 8))
    tag = rng.normal(size=8)
    mixed, w = M.vkg_combine(dg.Tensor(outs[:, None]), dg.Tensor(tag[None]), Task.CTR,
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
    for name in expert_names(params):
        params[name].data[1] += rng.normal(size=params[name].data[1].shape)
    for name, t in params.items():
        if ".cvr" in name:
            t.data += rng.normal(size=t.data.shape)
    params["virtual_kernels"].data[1] += 0.37
    after = M.mvke_forward(batch, cfg, params)[Task.CTR][0].data
    np.testing.assert_array_equal(before, after)


def test_routing_isolation_under_default_split(small_cfg, small_batch_examples):
    params = make_params(small_cfg)
    batch = M.encode_examples(small_batch_examples, small_cfg.schema)
    before = M.mvke_forward(batch, small_cfg, params)[Task.CTR][0].data.copy()
    for name in ("q_proj.w", "k_proj.b", "head2.w"):
        params[f"experts.{name}"].data[4] += 1.0  # expert 4 serves cvr only
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
            grad = params["experts.k_proj.w"].grad
            assert grad is not None and np.linalg.norm(grad[shared]) > 0.0


def test_gate_weights_ignore_user_features(small_cfg, small_batch_examples):
    params = make_params(small_cfg)
    batch = M.encode_examples(small_batch_examples, small_cfg.schema)
    w_before = M.mvke_forward(batch, small_cfg, params)[Task.CTR][1].data.copy()
    for fname in ("color", "size", "habits"):
        table = field_rows(params["user_embed"].data, small_cfg.schema, fname)
        table += np.random.default_rng(9).normal(size=table.shape)
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
    # the mean of all expert paths plus BCE, every entry of every expert
    # slice, tight tolerance. O(1) field embeddings: at the +-0.05 init tanh
    # is near-linear and softmax shift invariance leaves the key bias a
    # gradient (~1e-7) below what central differences resolve.
    params = make_params(small_cfg)
    rng = np.random.default_rng(10)
    for fname, _ in small_cfg.schema.user_fields:
        table = field_rows(params["user_embed"].data, small_cfg.schema, fname)
        table[...] = rng.normal(size=table.shape)
    batch = M.encode_examples(small_batch_examples, small_cfg.schema)
    k = small_cfg.routing.n_experts

    def loss():
        fe = M.embed_user_fields(batch, params, small_cfg.schema)
        out = dg.reduce_mean(M.vke_forward(fe, range(k), params), axis=0)
        tag = M.tag_tower(batch.tag_idx, batch.tag_weight, Task.CTR, params)
        return dg.bce_loss(M.score_pair(out, tag, Task.CTR, params), batch.clicks)

    subset = {name: params[name] for name in
              (*expert_names(params), "virtual_kernels", "tag_tower.ctr.proj.w",
               "user_embed", "temperature.ctr")}
    assert dg.grad_check(loss, subset) <= 1e-5


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
    only = field_rows(params["user_embed"].data, schema, "only")
    np.testing.assert_allclose(emb.data[0], only[2], atol=1e-12)


def test_two_tower_matches_oracle_on_batch(small_cfg, small_batch_examples):
    params = M.init_two_tower_params(small_cfg, Task.CVR, seed=3)
    batch = M.encode_examples(small_batch_examples[:2], small_cfg.schema)
    got = M.two_tower_forward(batch, small_cfg, params, Task.CVR).data

    p = {k: v.data for k, v in params.items()}
    tables = [field_rows(p["user_embed"], small_cfg.schema, fname)
              for fname in ("color", "size", "habits")]
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


def test_save_model_records_the_parameters_precision(tmp_path, small_cfg):
    with dg.precision("f32"):
        model = M.MvkeModel(small_cfg, seed=1)
    M.save_model(model, tmp_path / "ckpt")  # saved under the f64 default
    meta = json.loads((tmp_path / "ckpt" / "model.json").read_text())
    assert meta["precision"] == "f32"
    again = M.load_model(tmp_path / "ckpt")
    assert all(t.data.dtype == np.float32 for t in again.params.values())


def test_load_model_refuses_precision_other_than_the_parameters(tmp_path, small_cfg):
    M.save_model(M.MvkeModel(small_cfg, seed=1), tmp_path / "ckpt")
    meta_path = tmp_path / "ckpt" / "model.json"
    meta = json.loads(meta_path.read_text())
    assert meta["precision"] == "f64"
    meta_path.write_text(json.dumps({**meta, "precision": "f32"}))
    with pytest.raises(DataError, match="model.json") as err:
        M.load_model(tmp_path / "ckpt")
    assert "params.jsonl" in str(err.value)


def test_user_fields_share_one_table_at_field_offsets(small_cfg):
    schema = small_cfg.schema
    assert schema.field_offsets == (0, 5, 9)
    params = make_params(small_cfg)
    assert params["user_embed"].shape == (16, 8)
    assert not any(name.startswith("user_embed.") for name in params)
    # drawn field by field from one stream, so the rows follow the old tables
    rng = np.random.default_rng(0)
    for fname, vocab in schema.user_fields:
        np.testing.assert_array_equal(field_rows(params["user_embed"].data, schema, fname),
                                      rng.uniform(-0.05, 0.05, size=(vocab, 8)))


def test_load_model_refuses_a_non_finite_parameter(tmp_path, small_cfg):
    with dg.precision("f32"):
        model = M.MvkeModel(small_cfg, seed=1)
        model.params["temperature.ctr"].data[...] = np.nan
        M.save_model(model, tmp_path / "ckpt")
    line = 1 + list(model.params).index("temperature.ctr")
    with pytest.raises(DataError, match=rf"params\.jsonl.*line {line}.*'temperature\.ctr'"):
        M.load_model(tmp_path / "ckpt")


# ---------------------------------------------------------------------------
# non-finite inference outputs


@pytest.mark.parametrize("name", ["temperature.ctr", "experts.head2.b"])
def test_non_finite_parameter_fails_inference_with_numerics_error(
        small_cfg, small_batch_examples, name):
    model = M.MvkeModel(small_cfg, seed=1)
    model.params[name].data[...] = np.nan
    batch = M.encode_examples(small_batch_examples, small_cfg.schema)
    with pytest.raises(NumericsError):  # from the output check or the cosine norms
        model.predict(batch, Task.CTR)
    if name.startswith("experts."):
        with pytest.raises(NumericsError, match="expert outputs"):
            model.user_expert_outputs(batch)


def test_non_finite_tag_side_is_numerics_error(small_cfg):
    model = M.MvkeModel(small_cfg, seed=1)
    model.params["gate.cvr.k_proj.b"].data[...] = np.nan
    with pytest.raises(NumericsError, match="cvr tag side"):
        model.tag_side(Task.CVR, [0, 1, 2])
    model.tag_side(Task.CTR, [0, 1, 2])  # the other task's gate is untouched


def test_non_finite_two_tower_prediction_is_numerics_error(small_cfg, small_batch_examples):
    model = M.TwoTowerModel(small_cfg, Task.CVR, seed=1)
    model.params["temperature.cvr"].data[...] = np.nan
    batch = M.encode_examples(small_batch_examples, small_cfg.schema)
    with pytest.raises(NumericsError, match="cvr predictions"):
        model.predict(batch, Task.CVR)
