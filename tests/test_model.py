import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def task_slice(params, name, task):
    """``task``'s slice of a task-stacked parameter."""
    return params[name].data[M.TASKS.index(task)]


def one_expert(params, e):
    """Expert ``e`` alone: its rows of every expert-stacked parameter, the rest as is."""
    return {name: dg.Tensor(t.data[[e]]) if name.startswith(M.EXPERT_STACKED)
            else t for name, t in params.items()}


def field_rows(array, schema, fname):
    """Field ``fname``'s rows of a stacked ``user_embed`` array, found through its offset."""
    j = [name for name, _ in schema.user_fields].index(fname)
    start = schema.field_offsets[j]
    return array[start:start + schema.user_fields[j][1]]


def one_example(schema, field_values=(1, 2, 3), tags=(1,)):
    """A batch of one."""
    return M.encode_examples([FakeExample(field_values, tags)], schema)


def pair_rows(fe):
    """Field embeddings ``fe [B, m, d]`` as expert inputs: one row per (example, field) pair."""
    b, m, d = fe.shape
    return dg.Tensor(fe.reshape(b * m, d)), np.arange(b * m).reshape(b, m)


def per_pair(rows, inverse):
    """``embed_user_fields``' output expanded back to [B, m, d]."""
    return rows.data[inverse]


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
    out = per_pair(*M.embed_user_fields(one_example(small_cfg.schema), params, small_cfg.schema))
    assert out.shape == (1, 3, 8)
    table = params["user_embed"].data
    np.testing.assert_array_equal(out[0, 0], field_rows(table, small_cfg.schema, "color")[1])
    np.testing.assert_array_equal(out[0, 1], field_rows(table, small_cfg.schema, "size")[2])


def test_embed_multivalued_field_mean_pools(small_cfg):
    params = make_params(small_cfg)
    batch = one_example(small_cfg.schema, ((0, 2), 1, 3))
    out = per_pair(*M.embed_user_fields(batch, params, small_cfg.schema))
    table = field_rows(params["user_embed"].data, small_cfg.schema, "color")
    np.testing.assert_allclose(out[0, 0], (table[0] + table[2]) / 2, atol=1e-15)


def _per_pair_oracle(examples, schema, params):
    """Expert contexts [k, B, d], weights [k, B, m] and outputs [k, B, d], one
    (example, field) pair and one expert at a time: the mean of the field's table
    rows, its own key and value, a softmax over the example's fields."""
    p = {name: t.data for name, t in params.items()}
    k, d = p["virtual_kernels"].shape
    m = len(schema.user_fields)
    ctx, weights, out = (np.zeros((k, len(examples), d)), np.zeros((k, len(examples), m)),
                         np.zeros((k, len(examples), d)))
    for b, ex in enumerate(examples):
        fields = [np.mean([field_rows(p["user_embed"], schema, fname)[v]
                           for v in (raw if isinstance(raw, tuple) else (raw,))], axis=0)
                  for (fname, _), raw in zip(schema.user_fields, ex.field_values)]
        for e in range(k):
            (qw, qb), (kw, kb), (vw, vb), (w1, b1), (w2, b2) = (
                expert_slice(params, layer, e)
                for layer in ("q_proj", "k_proj", "v_proj", "head1", "head2"))
            q = np.tanh(p["virtual_kernels"][e] @ qw + qb)
            logits = np.array([q @ np.tanh(f @ kw + kb) for f in fields]) / math.sqrt(d)
            weights[e, b] = np.exp(logits - logits.max()) / np.exp(logits - logits.max()).sum()
            ctx[e, b] = sum(w * np.tanh(f @ vw + vb) for w, f in zip(weights[e, b], fields))
            out[e, b] = np.maximum(ctx[e, b] @ w1 + b1, 0.0) @ w2 + b2
    return ctx, weights, out


DISTINCT_ROW_BATCHES = {
    # a multi-valued field with an id repeated in one row, and ids shared across rows
    "repeated_id_in_row": [((1, 2, (3, 3, 5)), (1,)), ((1, 0, (3,)), (2,)), ((4, 2, 6), (3,))],
    "batch_of_one": [(((0, 2), 3, (1, 6)), (4,))],
    "all_single_valued": [((1, 2, 3), (1,)), ((1, 0, 3), (2,)), ((4, 2, 3), (3,)),
                          ((1, 2, 3), (4,))],
    "no_single_valued_field": [(((0, 2), (1, 3), (1, 6)), (4,)), ((4, (0, 1), (2, 2)), (1,))],
}


@pytest.mark.parametrize("case", [*DISTINCT_ROW_BATCHES, "wide_slice"])
def test_distinct_field_rows_match_per_pair_oracle(small_cfg, case):
    schema = small_cfg.schema
    params = make_params(small_cfg, seed=6)
    if case == "wide_slice":
        # a slice of a dataset-level encoding: 'habits' is 3 wide, its rows hold 1 id
        examples = [FakeExample((1, 2, (0, 4, 6)), (1,)), FakeExample((2, 2, 4), (2,)),
                    FakeExample((1, 3, 4), (3,)), FakeExample((0, 2, 5), (4,))]
        batch = M.encode_examples(examples, schema).slice(np.array([1, 2, 3]))
        examples = examples[1:]
        assert batch.field_idx[2].shape[1] == 3
    else:
        examples = [FakeExample(*row) for row in DISTINCT_ROW_BATCHES[case]]
        batch = M.encode_examples(examples, schema)
    rows, inverse = M.embed_user_fields(batch, params, schema)
    # one row per distinct id of a one-wide field, one per example of a wider one
    widths = [idx.shape[1] for idx in batch.field_idx]
    distinct = {(j, int(idx[b, 0])) for j, idx in enumerate(batch.field_idx) if widths[j] == 1
                for b in range(batch.size)}
    assert inverse.shape == (batch.size, 3)
    assert rows.shape == (len(distinct) + batch.size * sum(w > 1 for w in widths), 8)

    ctx, weights, out = _per_pair_oracle(examples, schema, params)
    got_ctx, got_weights = M.vke_attention(rows, inverse, params)
    np.testing.assert_allclose(got_ctx.data, ctx, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got_weights.data, weights, rtol=0, atol=1e-12)
    np.testing.assert_allclose(M.vke_forward(rows, inverse, params).data, out, rtol=0, atol=1e-12)


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


@pytest.mark.parametrize("fields", [(1, 2), (1, 2, 3, 4)])
def test_encode_row_with_the_wrong_field_count_is_data_error(small_cfg, fields):
    examples = [FakeExample((1, 2, 3), (1,)), FakeExample(fields, (1,)), FakeExample((1,), (1,))]
    with pytest.raises(DataError) as err:
        M.encode_examples(examples, small_cfg.schema)
    assert str(err.value) == f"row 1 has {len(fields)} user fields, the schema has 3"


@pytest.mark.parametrize("fields, tags, message", [
    ((1.7, 2, 3), (1,), "field 'color': id 1.7 is not an integer"),
    ((1, True, 3), (1,), "field 'size': id True is not an integer"),
    ((1, 2, (2, 1.9)), (1,), "field 'habits': id 1.9 is not an integer"),
    ((1, 2, [np.float64(3)]), (1,), f"field 'habits': id {np.float64(3)!r} is not an integer"),
    ((1, "2", 3), (1,), "field 'size': id '2' is not an integer"),
    ((1, 2, 3), (1.9,), "tag id 1.9 is not an integer"),
    ((1, 2, 3), (4, True), "tag id True is not an integer"),
])
def test_encode_non_integer_id_is_data_error(small_cfg, fields, tags, message):
    examples = [FakeExample((1, 2, 3), (1,)), FakeExample(fields, tags)]
    with pytest.raises(DataError) as err:
        M.encode_examples(examples, small_cfg.schema)
    assert str(err.value) == message


def test_encode_takes_numpy_integer_ids(small_cfg):
    plain = [FakeExample((1, 2, (2, 5)), (3, 1)), FakeExample((4, 0, 6), (2,))]
    numpy = [FakeExample((np.int64(1), np.int32(2), (np.int64(2), 5)), (np.int64(3), 1)),
             FakeExample((4, np.uint8(0), [np.int16(6)]), (np.int64(2),))]
    want, got = (M.encode_examples(rows, small_cfg.schema) for rows in (plain, numpy))
    for a, b in zip([*want.field_idx, *want.field_weight, want.tag_idx, want.tag_weight],
                    [*got.field_idx, *got.field_weight, got.tag_idx, got.tag_weight], strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


PROPERTY_SCHEMA = M.FieldSchema(user_fields=(("color", 5), ("size", 4), ("habits", 7)),
                                tag_vocab_size=10, embed_dim=8)


def _field_values(vocab):
    """One id, or a tuple or list of 1-4 ids, unsorted and possibly repeated."""
    ids = st.integers(0, vocab - 1)
    many = st.lists(ids, min_size=1, max_size=4)
    return st.one_of(ids, many, many.map(tuple))


_ROWS = st.lists(st.tuples(
    st.tuples(*(_field_values(vocab) for _, vocab in PROPERTY_SCHEMA.user_fields)),
    st.one_of(st.lists(st.integers(0, 9), min_size=1, max_size=6),
              st.lists(st.integers(0, 9), min_size=1, max_size=6).map(tuple)),
    st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=40)


@settings(max_examples=300, deadline=None)
@given(rows=_ROWS)
def test_encode_matches_the_reference_on_mixed_columns(rows):
    examples = [FakeExample(fields, tags, click, click * conv) for fields, tags, click, conv in rows]
    batch = M.encode_examples(examples, PROPERTY_SCHEMA)
    got = []
    for idx, weight in zip(batch.field_idx, batch.field_weight, strict=True):
        got += [idx, weight]
    got += [batch.tag_idx, batch.tag_weight, batch.clicks, batch.convs]
    for a, b in zip(got, _reference_encoding(examples, PROPERTY_SCHEMA), strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_embedding_gradient_touches_only_looked_up_rows(small_cfg):
    params = make_params(small_cfg)
    batch = M.encode_examples([FakeExample((1, 2, 3), (1,), 1, 0)], small_cfg.schema)

    def loss():
        probs, _ = M.mixture(batch, small_cfg.schema, params, small_cfg.routing)
        return dg.bce_loss(dg.gather_rows(probs, M.TASKS.index(Task.CTR)), batch.clicks)

    dg.zero_grads(params)
    dg.backward(loss())
    grad = field_rows(params["user_embed"].grad, small_cfg.schema, "color")
    assert np.any(grad[1] != 0.0)
    for untouched in (0, 2, 3, 4):
        np.testing.assert_array_equal(grad[untouched], 0.0)
    # finite differences agree that untouched rows have zero gradient
    flat = field_rows(params["user_embed"].data, small_cfg.schema, "color")
    orig = flat[0, 0]
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
    out = M.tag_tower(*tag_batch(small_cfg.schema, (3,)), params)
    expected = np_tanh_affine(task_slice(params, "tag_tower.embed", Task.CTR)[3],
                              task_slice(params, "tag_tower.proj.w", Task.CTR),
                              task_slice(params, "tag_tower.proj.b", Task.CTR)[0])
    assert out.shape == (2, 1, 8)
    np.testing.assert_allclose(out.data[0, 0], expected, atol=1e-12)


def test_tag_tower_duplicates_collapse(small_cfg):
    params = make_params(small_cfg)
    np.testing.assert_array_equal(
        M.tag_tower(*tag_batch(small_cfg.schema, (3, 3)), params).data,
        M.tag_tower(*tag_batch(small_cfg.schema, (3,)), params).data)


def test_tag_tower_pair_matches_oracle(small_cfg):
    params = make_params(small_cfg)
    out = M.tag_tower(*tag_batch(small_cfg.schema, (2, 5)), params)
    table = task_slice(params, "tag_tower.embed", Task.CVR)
    expected = np_tanh_affine((table[2] + table[5]) / 2,
                              task_slice(params, "tag_tower.proj.w", Task.CVR),
                              task_slice(params, "tag_tower.proj.b", Task.CVR)[0])
    np.testing.assert_allclose(out.data[1, 0], expected, atol=1e-12)


def test_tag_tower_empty_set_is_data_error(small_cfg):
    with pytest.raises(DataError):
        tag_batch(small_cfg.schema, ())


# ---------------------------------------------------------------------------
# expert forward

def test_vke_single_field_context_is_value_row(small_cfg):
    params = make_params(small_cfg)
    fe = np.random.default_rng(0).normal(size=(1, 1, 8))
    ctx, w = M.vke_attention(*pair_rows(fe), params)
    expected_v = np_tanh_affine(fe[0], *expert_slice(params, "v_proj", 0))
    np.testing.assert_allclose(ctx.data[0], expected_v, atol=1e-12)
    np.testing.assert_allclose(w.data[0], [[1.0]], atol=1e-15)


def test_identical_experts_produce_identical_outputs(small_cfg):
    params = make_params(small_cfg)
    # copy expert 0 weights and kernel onto expert 1
    for name in expert_names(params):
        params[name].data[1] = params[name].data[0]
    params["virtual_kernels"].data[1] = params["virtual_kernels"].data[0]
    fe = np.random.default_rng(1).normal(size=(1, 3, 8))
    out = M.vke_forward(*pair_rows(fe), params).data
    np.testing.assert_array_equal(out[0], out[1])


def test_vke_matches_step_by_step_oracle(small_cfg):
    params = make_params(small_cfg)
    rng = np.random.default_rng(2)
    fe = rng.normal(size=(3, 8))
    got = M.vke_forward(*pair_rows(fe[None]), params).data[2, 0]

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
    batched = M.vke_forward(*pair_rows(fe), params).data
    for b in range(4):
        single = M.vke_forward(*pair_rows(fe[b:b + 1]), params).data
        np.testing.assert_allclose(batched[:, b], single[:, 0], atol=1e-12)
    # all experts in one call: each row block equals that expert alone
    for e in range(small_cfg.routing.n_experts):
        np.testing.assert_array_equal(batched[e],
                                      M.vke_forward(*pair_rows(fe), one_expert(params, e)).data[0])


# ---------------------------------------------------------------------------
# gate combine

def test_vkg_singleton_task_set(small_cfg):
    schema = small_cfg.schema
    routing = M.ExpertRouting(2, ctr_experts=(0,), cvr_experts=(0, 1))
    cfg = M.ModelConfig(schema=schema, routing=routing)
    params = M.init_mvke_params(cfg, seed=0)
    rng = np.random.default_rng(4)
    outs = dg.Tensor(rng.normal(size=(2, 1, 8)))
    tag = dg.Tensor(rng.normal(size=(2, 1, 8)))
    mixed, w = M.vkg_combine(outs, tag, params, dg.raw_tensor(routing.gate_mask()))
    np.testing.assert_allclose(mixed.data[0], outs.data[0], atol=1e-15)
    np.testing.assert_array_equal(w.data[0], [[1.0, 0.0]])


def test_vkg_equal_kernels_give_uniform_weights(small_cfg):
    params = make_params(small_cfg)
    params["virtual_kernels"].data[...] = params["virtual_kernels"].data[0]
    rng = np.random.default_rng(5)
    outs = dg.Tensor(rng.normal(size=(5, 1, 8)))
    tag = dg.Tensor(rng.normal(size=(2, 1, 8)))
    mixed, w = M.vkg_combine(outs, tag, params, dg.raw_tensor(small_cfg.routing.gate_mask()))
    np.testing.assert_allclose(w.data[0], [[1 / 3] * 3 + [0.0] * 2], atol=1e-12)
    np.testing.assert_allclose(w.data[1], [[0.0] + [1 / 4] * 4], atol=1e-12)
    np.testing.assert_allclose(mixed.data[0], outs.data[:3].mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(mixed.data[1], outs.data[1:].mean(axis=0), atol=1e-12)


def test_vkg_matches_attention_oracle(small_cfg):
    params = make_params(small_cfg)
    rng = np.random.default_rng(6)
    outs = rng.normal(size=(5, 8))
    tag = rng.normal(size=8)
    mixed, w = M.vkg_combine(dg.Tensor(outs[:, None]), dg.Tensor(np.stack([tag, tag])[:, None]),
                             params, dg.raw_tensor(small_cfg.routing.gate_mask()))

    def ctr(name):
        return task_slice(params, name, Task.CTR)

    experts = list(small_cfg.routing.ctr_experts)
    q = np.tanh(tag @ ctr("gate.q_proj.w") + ctr("gate.q_proj.b")[0])
    logits = []
    for e in experts:
        key = np.tanh(params["virtual_kernels"].data[e] @ ctr("gate.k_proj.w")
                      + ctr("gate.k_proj.b")[0])
        logits.append(float(q @ key) / math.sqrt(8.0))
    es = [math.exp(z - max(logits)) for z in logits]
    ws = np.array([e / sum(es) for e in es])
    np.testing.assert_allclose(w.data[0, 0, experts], ws, atol=1e-12)
    np.testing.assert_array_equal(np.delete(w.data[0, 0], experts), 0.0)
    np.testing.assert_allclose(mixed.data[0, 0], ws @ outs[experts], atol=1e-12)


def test_vkg_gate_weights_are_probabilities(small_cfg):
    params = make_params(small_cfg)
    rng = np.random.default_rng(7)
    emb = dg.Tensor(rng.normal(size=(2, 6, 8)))
    w = M.gate_weights_for_tags(emb, params, dg.raw_tensor(small_cfg.routing.gate_mask()))
    assert np.all(w.data >= 0.0)
    np.testing.assert_allclose(w.data.sum(axis=-1), np.ones((2, 6)), atol=1e-6)


# ---------------------------------------------------------------------------
# scoring

def test_score_identical_embeddings(small_cfg):
    params = make_params(small_cfg)  # tau initialized to 5.0
    v = dg.Tensor(np.array([[[0.3, -1.0, 0.2, 0.9, 0.1, -0.4, 0.8, 0.5]]] * 2))
    p = dg.cosine_score(v, v, params["temperature"])
    np.testing.assert_allclose(p.data, 0.9933071490757152, atol=1e-9)


def test_score_orthogonal_embeddings(small_cfg):
    params = make_params(small_cfg)
    a = dg.Tensor(np.array([[[1.0] + [0.0] * 7]] * 2))
    b = dg.Tensor(np.array([[[0.0, 1.0] + [0.0] * 6]] * 2))
    np.testing.assert_allclose(dg.cosine_score(a, b, params["temperature"]).data, 0.5, atol=1e-12)


def test_score_tau_one_opposite_embeddings(small_cfg):
    params = make_params(small_cfg)
    params["temperature"].data[0] = 1.0  # ctr
    a = dg.Tensor(np.array([[[1.0] + [0.0] * 7]] * 2))
    b = dg.Tensor(np.array([[[-1.0] + [0.0] * 7]] * 2))
    p = dg.cosine_score(a, b, params["temperature"]).data
    assert p[0, 0] == pytest.approx(0.2689414213699951, abs=1e-12)
    assert p[1, 0] == pytest.approx(1.0 / (1.0 + math.exp(5.0)), abs=1e-12)


# ---------------------------------------------------------------------------
# full forward

def test_routing_isolation_bit_identical(small_cfg, small_batch_examples):
    schema = small_cfg.schema
    routing = M.ExpertRouting(2, ctr_experts=(0,), cvr_experts=(1,))
    cfg = M.ModelConfig(schema=schema, routing=routing)
    params = M.init_mvke_params(cfg, seed=0)
    batch = M.encode_examples(small_batch_examples, schema)
    probs, _ = M.mixture(batch, schema, params, routing)
    before = probs.data[M.TASKS.index(Task.CTR)]
    # perturb everything owned by expert 1 and the cvr tower/gate
    rng = np.random.default_rng(8)
    for name in expert_names(params):
        params[name].data[1] += rng.normal(size=params[name].data[1].shape)
    for name, t in params.items():
        if name.startswith(M.TASK_STACKED):
            t.data[1] += rng.normal(size=t.data[1].shape)  # the cvr slice
    params["virtual_kernels"].data[1] += 0.37
    probs, _ = M.mixture(batch, schema, params, routing)
    after = probs.data[M.TASKS.index(Task.CTR)]
    np.testing.assert_array_equal(before, after)


def test_routing_isolation_under_default_split(small_cfg, small_batch_examples):
    params = make_params(small_cfg)
    batch = M.encode_examples(small_batch_examples, small_cfg.schema)
    probs, _ = M.mixture(batch, small_cfg.schema, params, small_cfg.routing)
    before = probs.data[M.TASKS.index(Task.CTR)]
    for name in ("q_proj.w", "k_proj.b", "head2.w"):
        params[f"experts.{name}"].data[4] += 1.0  # expert 4 serves cvr only
    probs, _ = M.mixture(batch, small_cfg.schema, params, small_cfg.routing)
    after = probs.data[M.TASKS.index(Task.CTR)]
    np.testing.assert_array_equal(before, after)


def test_shared_experts_receive_gradient_from_each_single_task_loss(
        small_cfg, small_batch_examples):
    params = make_params(small_cfg)
    batch = M.encode_examples(small_batch_examples, small_cfg.schema)
    for task, labels in ((Task.CTR, batch.clicks), (Task.CVR, batch.convs)):
        dg.zero_grads(params)
        probs, _ = M.mixture(batch, small_cfg.schema, params, small_cfg.routing)
        dg.backward(dg.bce_loss(dg.gather_rows(probs, M.TASKS.index(task)), labels))
        for shared in small_cfg.routing.shared:
            grad = params["experts.k_proj.w"].grad
            assert grad is not None and np.linalg.norm(grad[shared]) > 0.0


def test_gate_weights_ignore_user_features(small_cfg, small_batch_examples):
    params = make_params(small_cfg)
    batch = M.encode_examples(small_batch_examples, small_cfg.schema)
    _, gates = M.mixture(batch, small_cfg.schema, params, small_cfg.routing)
    w_before = gates.data[M.TASKS.index(Task.CTR)]
    for fname in ("color", "size", "habits"):
        table = field_rows(params["user_embed"].data, small_cfg.schema, fname)
        table += np.random.default_rng(9).normal(size=table.shape)
    _, gates = M.mixture(batch, small_cfg.schema, params, small_cfg.routing)
    w_after = gates.data[M.TASKS.index(Task.CTR)]
    np.testing.assert_array_equal(w_before, w_after)


def test_gate_weights_vary_with_tag(small_cfg):
    params = make_params(small_cfg)
    exs = [FakeExample((1, 2, 3), (t,), 0, 0) for t in (0, 5)]
    batch = M.encode_examples(exs, small_cfg.schema)
    _, gates = M.mixture(batch, small_cfg.schema, params, small_cfg.routing)
    w = gates.data[M.TASKS.index(Task.CTR)]
    assert not np.allclose(w[0], w[1])


def test_mvke_batch_matches_single_example(small_cfg, small_batch_examples):
    params = make_params(small_cfg)
    batch = M.encode_examples(small_batch_examples, small_cfg.schema)
    full, _ = M.mixture(batch, small_cfg.schema, params, small_cfg.routing)
    for i, ex in enumerate(small_batch_examples):
        one = M.encode_examples([ex], small_cfg.schema)
        out, _ = M.mixture(one, small_cfg.schema, params, small_cfg.routing)
        for task in M.TASKS:
            j = M.TASKS.index(task)
            assert full.data[j, i] == pytest.approx(out.data[j, 0], abs=1e-12)


ROUTINGS = {**{f"split{k}": M.split_routing(k) for k in range(3, 11)},
            "default": M.five_expert_routing()}


@pytest.mark.parametrize("routing", ROUTINGS.values(), ids=ROUTINGS.keys())
def test_off_task_gate_weights_are_exactly_zero(small_schema, routing):
    """The gate mask gives the experts outside a task exactly zero weight, in the
    forward and on the cached tag side, which keeps only the task's columns."""
    model = M.MvkeModel(M.ModelConfig(schema=small_schema, routing=routing), seed=2)
    tags = list(range(small_schema.tag_vocab_size))
    batch = M.encode_examples([FakeExample((1, 2, 3), (t,)) for t in tags], small_schema)
    _, all_gates = M.mixture(batch, small_schema, model.params, routing)
    for task in M.TASKS:
        gates = all_gates.data[M.TASKS.index(task)]
        experts = list(routing.task_experts(task))
        off = [e for e in range(routing.n_experts) if e not in experts]
        assert gates.shape == (len(tags), routing.n_experts)
        np.testing.assert_array_equal(gates[:, off], 0.0)
        np.testing.assert_allclose(gates.sum(axis=1), 1.0, atol=1e-12)
        _, cached, _ = model.tag_side(task, tags)  # sums of more terms may round apart
        np.testing.assert_allclose(cached, gates[:, experts], rtol=0, atol=1e-15)


@pytest.mark.parametrize("routing", ROUTINGS.values(), ids=ROUTINGS.keys())
def test_single_task_backward_leaves_other_task_slices_at_zero(
        small_schema, small_batch_examples, routing):
    cfg = M.ModelConfig(schema=small_schema, routing=routing)
    params = M.init_mvke_params(cfg, seed=3)
    batch = M.encode_examples(small_batch_examples, small_schema)
    for i, task in enumerate(M.TASKS):
        other = M.TASKS[1 - i]
        exclusive = sorted(set(routing.task_experts(other)) - set(routing.task_experts(task)))
        dg.zero_grads(params)
        probs, _ = M.mixture(batch, small_schema, params, routing)
        dg.backward(dg.bce_loss(dg.gather_rows(probs, i), batch.label(task)))
        zero, nonzero = [], []
        for name, t in params.items():
            if name.startswith(M.TASK_STACKED):
                zero.append((f"{name}[{other.value}]", t.grad[1 - i]))
                nonzero.append((f"{name}[{task.value}]", t.grad[i]))
            elif name.startswith(M.EXPERT_STACKED):
                zero.append((f"{name}{exclusive}", t.grad[exclusive]))
        assert len(zero) == 19  # 8 task-stacked and 11 expert-stacked parameters
        for what, grad in zero:
            np.testing.assert_array_equal(grad, 0.0, err_msg=what)
        assert any(np.any(grad != 0.0) for _, grad in nonzero)


def test_single_task_predict_equals_the_full_forward(small_cfg, small_batch_examples):
    # bit for bit at five experts: the masked columns only add exact zeros to the sums
    model = M.MvkeModel(small_cfg, seed=4)
    batch = M.encode_examples(small_batch_examples, small_cfg.schema)
    probs, _ = M.mixture(batch, small_cfg.schema, model.params, small_cfg.routing)
    for task in M.TASKS:
        np.testing.assert_array_equal(model.predict(batch, task), probs.data[M.TASKS.index(task)])


def test_stacked_prefixes_name_every_parameter_with_a_task_or_expert_axis(small_cfg):
    """Single-task views slice parameters by these prefixes; a parameter they miss
    or misname would be sliced wrongly without an error."""
    k = small_cfg.routing.n_experts
    for name, t in make_params(small_cfg).items():
        task_axis, expert_axis = name.startswith(M.TASK_STACKED), name.startswith(M.EXPERT_STACKED)
        assert not (task_axis and expert_axis), name
        if task_axis:
            assert t.shape[0] == len(M.TASKS), name
        elif expert_axis:
            assert t.shape[0] == k, name
        else:
            assert name == "user_embed"


def test_full_model_gradient_check(small_cfg, small_batch_examples):
    params = make_params(small_cfg)
    batch = M.encode_examples(small_batch_examples, small_cfg.schema)

    def loss():
        probs, _ = M.mixture(batch, small_cfg.schema, params, small_cfg.routing)
        return dg.add(dg.bce_loss(dg.gather_rows(probs, M.TASKS.index(Task.CTR)), batch.clicks),
                      dg.bce_loss(dg.gather_rows(probs, M.TASKS.index(Task.CVR)), batch.convs))

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
    both_tasks = dg.Tensor(np.zeros((2, batch.size, small_cfg.schema.embed_dim)))

    def loss():
        rows, inverse = M.embed_user_fields(batch, params, small_cfg.schema)
        k = small_cfg.routing.n_experts
        out = dg.add(dg.mul(dg.reduce_sum(M.vke_forward(rows, inverse, params), axis=0), 1.0 / k),
                     both_tasks)
        tags = M.tag_tower(batch.tag_idx, batch.tag_weight, params)
        probs = dg.cosine_score(out, tags, params["temperature"])
        return dg.bce_loss(dg.gather_rows(probs, 0), batch.clicks)

    subset = {name: params[name] for name in
              (*expert_names(params), "virtual_kernels", "tag_tower.proj.w",
               "user_embed", "temperature")}
    assert dg.grad_check(loss, subset) <= 1e-5


# ---------------------------------------------------------------------------
# two-tower baseline

def test_two_tower_has_fewer_params_than_mvke(small_cfg):
    mvke_params = make_params(small_cfg)
    tt_params = M.init_two_tower_params(small_cfg, seed=0)
    assert sum(t.size for t in tt_params.values()) < sum(t.size for t in mvke_params.values())


def test_two_tower_identity_mlp_returns_field_embedding():
    schema = M.FieldSchema(user_fields=(("only", 6),), tag_vocab_size=5, embed_dim=4)
    cfg = M.ModelConfig(schema=schema, routing=M.five_expert_routing())
    params = M.init_two_tower_params(cfg, seed=0)
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
    params = M.init_two_tower_params(small_cfg, seed=3)
    batch = M.encode_examples(small_batch_examples[:2], small_cfg.schema)
    got = M.two_tower_forward(batch, small_cfg, params).data

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
        tag_rows = np.mean([p["tag_tower.embed"][0, t] for t in sorted(set(ex.tag_set))],
                           axis=0)
        tag = np.tanh(tag_rows @ p["tag_tower.proj.w"][0] + p["tag_tower.proj.b"][0, 0])
        cos = float(user @ tag / (np.linalg.norm(user) * np.linalg.norm(tag)))
        expected = 1.0 / (1.0 + math.exp(-float(p["temperature"][0]) * cos))
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
        model.params["temperature"].data[0] = np.nan
        M.save_model(model, tmp_path / "ckpt")
    line = 1 + list(model.params).index("temperature")
    with pytest.raises(DataError, match=rf"params\.jsonl.*line {line}.*'temperature'"):
        M.load_model(tmp_path / "ckpt")


# ---------------------------------------------------------------------------
# inference


def test_inference_records_no_graph(small_cfg, small_batch_examples, monkeypatch):
    """Inference on parameters that require grad makes only untracked nodes."""
    nodes, node = [], dg._node

    def recording_node(*args):
        nodes.append(node(*args))
        return nodes[-1]

    monkeypatch.setattr(dg, "_node", recording_node)
    mixture = M.MvkeModel(small_cfg, seed=1)
    baseline = M.TwoTowerModel(small_cfg, Task.CVR, seed=1)
    params = [*mixture.params.values(), *baseline.params.values()]
    assert all(t.requires_grad for t in params)
    batch = M.encode_examples(small_batch_examples, small_cfg.schema)
    for task in M.TASKS:
        mixture.predict(batch, task)
        mixture.tag_side(task, [0, 3, 9])
    mixture.user_expert_outputs(batch)
    baseline.predict(batch, Task.CVR)
    assert len(nodes) > 50
    assert not any(t.requires_grad or t._parents for t in nodes)
    assert all(t.grad is None and t.requires_grad for t in params)


# ---------------------------------------------------------------------------
# non-finite inference outputs


@pytest.mark.parametrize("name", ["temperature", "experts.head2.b"])
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
    model.params["gate.k_proj.b"].data[1] = np.nan  # the cvr slice
    with pytest.raises(NumericsError, match="cvr tag side"):
        model.tag_side(Task.CVR, [0, 1, 2])
    model.tag_side(Task.CTR, [0, 1, 2])  # the other task's gate is untouched


def test_non_finite_two_tower_prediction_is_numerics_error(small_cfg, small_batch_examples):
    model = M.TwoTowerModel(small_cfg, Task.CVR, seed=1)
    model.params["temperature"].data[...] = np.nan
    batch = M.encode_examples(small_batch_examples, small_cfg.schema)
    with pytest.raises(NumericsError, match="cvr predictions"):
        model.predict(batch, Task.CVR)


# ---------------------------------------------------------------------------
# a model's tasks


@pytest.mark.parametrize("tasks", [(), (Task.CVR, Task.CTR), (Task.CTR, Task.CTR), ("bogus",)],
                         ids=["none", "reversed", "repeated", "unknown"])
def test_mixture_refuses_tasks_that_are_not_a_subsequence_of_the_tasks(small_cfg, tasks):
    with pytest.raises(ConfigError, match="non-empty subsequence of"):
        M.MvkeModel(small_cfg, seed=1, tasks=tasks)


def test_a_model_refuses_a_task_it_was_not_built_for(small_cfg, small_batch_examples):
    batch = M.encode_examples(small_batch_examples, small_cfg.schema)
    mixture = M.MvkeModel(small_cfg, seed=1, tasks=(Task.CVR,))
    baseline = M.TwoTowerModel(small_cfg, Task.CVR, seed=1)
    for call in (lambda: mixture.predict(batch, Task.CTR),
                 lambda: mixture.tag_side(Task.CTR, [0, 1]),
                 lambda: baseline.predict(batch, Task.CTR)):
        with pytest.raises(ConfigError, match=r"no 'ctr' task, only \['cvr'\]"):
            call()
    # the task it has gives the two-task mixture's numbers of that task
    both = M.MvkeModel(small_cfg, seed=1)
    np.testing.assert_array_equal(mixture.predict(batch, Task.CVR), both.predict(batch, Task.CVR))
    assert mixture.counters == {"user_tower": len(small_batch_examples),
                                "tag_tower": len(small_batch_examples)}


@pytest.mark.parametrize("tasks", [(Task.CTR,), (Task.CVR,), M.TASKS], ids=lambda t: len(t))
def test_checkpoint_records_and_restores_the_mixtures_tasks(small_cfg, tmp_path, tasks):
    M.save_model(M.MvkeModel(small_cfg, seed=1, tasks=tasks), tmp_path)
    meta = json.loads((tmp_path / "model.json").read_text())
    assert meta["tasks"] == [t.value for t in tasks]
    assert M.load_model(tmp_path).tasks == tasks


@pytest.mark.parametrize("kind, tasks", [
    ("mvke", "ctr"), ("mvke", []), ("mvke", ["cvr", "ctr"]), ("mvke", ["bogus"]),
    ("two_tower", ["ctr", "cvr"]), ("two_tower", []), ("two_tower", ["bogus"]),
])
def test_a_checkpoint_whose_tasks_its_kind_cannot_serve_is_a_data_error(small_cfg, tmp_path,
                                                                         kind, tasks):
    model = (M.MvkeModel(small_cfg, seed=1) if kind == "mvke"
             else M.TwoTowerModel(small_cfg, Task.CVR, seed=1))
    M.save_model(model, tmp_path)
    meta = json.loads((tmp_path / "model.json").read_text())
    (tmp_path / "model.json").write_text(json.dumps({**meta, "tasks": tasks}))
    with pytest.raises(DataError, match=r"bad .*model\.json: .*task"):
        M.load_model(tmp_path)
