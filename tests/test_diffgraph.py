import ast
import inspect
import json
import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvke.diffgraph as dg
from mvke.errors import ConfigError, DataError, NumericsError


@pytest.fixture(autouse=True)
def f64_mode():
    with dg.precision("f64"):
        yield


def t(x, rg=False):
    return dg.Tensor(np.asarray(x, dtype=float), requires_grad=rg)


# ---------------------------------------------------------------------------
# softmax

def test_softmax_closed_form():
    out = dg.softmax(t([0.0, math.log(2.0)]))
    np.testing.assert_allclose(out.data, [1 / 3, 2 / 3], atol=1e-12)


@pytest.mark.parametrize("c", [-7.5, 0.0, 3.0, 123.0])
def test_softmax_uniform_under_equal_logits(c):
    out = dg.softmax(t([c, c, c]))
    np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_softmax_matches_scalar_oracle():
    # frozen from a 40-digit exp/sum oracle
    expected = [0.09003057317038046, 0.24472847105479764, 0.6652409557748219]
    out = dg.softmax(t([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(out.data, expected, atol=1e-12, rtol=0)


def test_softmax_nan_input_is_hard_error():
    with pytest.raises(NumericsError):
        dg.Tensor(np.array([np.nan, 1.0]))


def test_softmax_rank2_rows_sum_to_one():
    x = t(np.random.default_rng(0).uniform(-50, 50, size=(6, 9)))
    out = dg.softmax(x, axis=-1)
    np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(6), atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=12))
def test_softmax_sums_to_one_property(logits):
    with dg.precision("f64"):
        out = dg.softmax(dg.Tensor(np.array(logits)))
        assert abs(out.data.sum() - 1.0) < 1e-12
    with dg.precision("f32"):
        out32 = dg.softmax(dg.Tensor(np.array(logits, dtype=np.float32)))
        assert abs(float(out32.data.sum()) - 1.0) < 1e-6


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=-30, max_value=30), min_size=2, max_size=10),
    st.floats(min_value=-20, max_value=20),
)
def test_softmax_shift_invariance(logits, shift):
    with dg.precision("f64"):
        base = dg.softmax(dg.Tensor(np.array(logits))).data
        shifted = dg.softmax(dg.Tensor(np.array(logits) + shift)).data
        np.testing.assert_allclose(base, shifted, atol=1e-12)


# ---------------------------------------------------------------------------
# attention: the composite ``matmul(attention_weights(q, k), v)``

def attend(q, k, v):
    weights = dg.attention_weights(q, k)
    return dg.matmul(weights, v), weights


def test_attention_single_key_returns_value_row():
    q = t(np.random.default_rng(1).normal(size=(1, 4)))
    k = t(np.random.default_rng(2).normal(size=(1, 4)))
    v = t([[3.0, -1.0, 2.0]])
    out, w = attend(q, k, v)
    np.testing.assert_allclose(out.data, v.data, atol=1e-15)
    np.testing.assert_allclose(w.data, [[1.0]], atol=1e-15)


def test_attention_identical_keys_average_values():
    rng = np.random.default_rng(3)
    row = rng.normal(size=4)
    k = t(np.tile(row, (5, 1)))
    v = t(rng.normal(size=(5, 3)))
    q = t(rng.normal(size=(2, 4)))
    out, w = attend(q, k, v)
    np.testing.assert_allclose(out.data, np.tile(v.data.mean(axis=0), (2, 1)), atol=1e-12)
    np.testing.assert_allclose(w.data, np.full((2, 5), 0.2), atol=1e-12)


def test_attention_matches_brute_force_oracle():
    rng = np.random.default_rng(4)
    q = rng.normal(size=(1, 2))
    k = rng.normal(size=(2, 2))
    v = rng.normal(size=(2, 3))
    # explicit exp/sum oracle
    logits = [float(q[0] @ k[i]) / math.sqrt(2.0) for i in range(2)]
    es = [math.exp(z) for z in logits]
    ws = [e / sum(es) for e in es]
    expected = ws[0] * v[0] + ws[1] * v[1]
    out, w = attend(t(q), t(k), t(v))
    np.testing.assert_allclose(w.data[0], ws, atol=1e-12)
    np.testing.assert_allclose(out.data[0], expected, atol=1e-12)


def test_attention_dimension_mismatch_is_config_error():
    with pytest.raises(ConfigError):
        attend(t(np.ones((1, 3))), t(np.ones((2, 4))), t(np.ones((2, 2))))
    with pytest.raises(ConfigError):
        attend(t(np.ones((1, 3))), t(np.ones((2, 3))), t(np.ones((3, 2))))


def test_attention_leading_axes_match_per_slice_calls():
    rng = np.random.default_rng(6)
    q, k, v = (rng.normal(size=(2, 3, n, 4)) for n in (2, 5, 5))
    out, w = attend(t(q), t(k), t(v))
    assert out.shape == (2, 3, 2, 4) and w.shape == (2, 3, 2, 5)
    for i in range(2):
        for j in range(3):
            o2, w2 = attend(t(q[i, j]), t(k[i, j]), t(v[i, j]))
            np.testing.assert_array_equal(out.data[i, j], o2.data)
            np.testing.assert_array_equal(w.data[i, j], w2.data)


def test_attention_output_in_convex_hull_of_values():
    rng = np.random.default_rng(5)
    for _ in range(20):
        q = t(rng.normal(size=(1, 4)))
        k = t(rng.normal(size=(6, 4)))
        v = t(rng.normal(size=(6, 3)))
        out, _ = attend(q, k, v)
        lo = v.data.min(axis=0) - 1e-12
        hi = v.data.max(axis=0) + 1e-12
        assert np.all(out.data[0] >= lo) and np.all(out.data[0] <= hi)


# ---------------------------------------------------------------------------
# cosine score: sigmoid(tau * cos)


def score(a, b, tau=1.0):
    """``cosine_score`` of one pair of vectors (or rows) as a ``[1, B]`` batch."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    shape = (1, -1, a.shape[-1])
    return dg.cosine_score(t(a.reshape(shape)), t(b.reshape(shape)), t([tau]))


def test_cosine_identical_vectors():
    a = [0.3, -2.0, 1.5]
    assert score(a, [0.3, -2.0, 1.5]).item() == pytest.approx(dg._sigmoid_scalar(1.0), abs=1e-12)


def test_cosine_orthogonal_vectors():
    assert score([1.0, 0.0], [0.0, 2.0], tau=7.0).item() == pytest.approx(0.5, abs=1e-15)


def test_cosine_matches_scalar_oracle():
    # frozen from a 40-digit dot/(|a||b|) oracle
    got = score([1.0, 2.0], [3.0, 4.0], tau=2.0).item()
    assert got == pytest.approx(dg._sigmoid_scalar(2.0 * 0.9838699100999074), abs=1e-12)


def test_cosine_degenerate_norm_clamps_and_counts():
    dg.reset_degenerate_norm_count()
    out = score([0.0, 0.0], [1.0, 1.0])
    assert np.isfinite(out.data)
    assert dg.degenerate_norm_count() == 1
    dg.reset_degenerate_norm_count()


def test_cosine_rowwise():
    a = np.array([[1.0, 0.0], [1.0, 2.0]])
    b = np.array([[0.0, 1.0], [3.0, 4.0]])
    out = score(a, b)
    np.testing.assert_allclose(out.data, [[0.5, dg._sigmoid_scalar(0.9838699100999074)]],
                               atol=1e-12)


def test_cosine_score_scales_each_row_by_its_temperature():
    rng = np.random.default_rng(8)
    a, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4))
    cos = (a * b).sum(-1) / (np.linalg.norm(a, axis=-1) * np.linalg.norm(b, axis=-1))
    out = dg.cosine_score(t(a), t(b), t([2.0, -5.0]))
    np.testing.assert_allclose(out.data, 1.0 / (1.0 + np.exp(-np.array([[2.0], [-5.0]]) * cos)),
                               rtol=1e-12)
    with pytest.raises(ConfigError, match="cosine_score"):
        dg.cosine_score(t(a), t(b), t([2.0]))


# ---------------------------------------------------------------------------
# mix


def test_mix_is_the_weighted_sum_over_the_expert_axis():
    rng = np.random.default_rng(9)
    w, e = rng.random((2, 3, 4)), rng.normal(size=(4, 3, 5))
    out = dg.mix(t(w), t(e))
    np.testing.assert_allclose(out.data, np.einsum("nbk,kbe->nbe", w, e), rtol=1e-12)
    with pytest.raises(ConfigError, match="mix"):
        dg.mix(t(w), t(e[:3]))


# ---------------------------------------------------------------------------
# bce

def test_bce_half_probability():
    loss = dg.bce_loss(t([0.5]), np.array([1.0]))
    assert loss.item() == pytest.approx(0.6931471805599453, abs=1e-12)


def test_bce_near_perfect_prediction():
    loss = dg.bce_loss(t([1.0 - 1e-7]), np.array([1.0]))
    assert loss.item() <= 1.2e-7


def test_bce_batch_matches_scalar_oracle():
    # frozen from a 40-digit -mean(ln 0.9, ln 0.8) oracle
    loss = dg.bce_loss(t([0.9, 0.2]), np.array([1.0, 0.0]))
    assert loss.item() == pytest.approx(0.16425203348601802, abs=1e-12)


def test_bce_gradient_is_zero_at_and_beyond_the_clip():
    p = t([0.0, dg.BCE_EPS, 1.0 - dg.BCE_EPS, 1.0, -0.5, 1.5, 0.3, 0.8], rg=True)
    y = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    dg.backward(dg.bce_loss(p, y))
    np.testing.assert_array_equal(p.grad[:6], 0.0)
    assert np.all(p.grad[6:] != 0.0)
    # beyond the clip by more than the step, central differences read 0 too
    q = t([-0.5, 0.3, 1.5, 0.8, 0.05, 0.97], rg=True)
    labels = np.array([1.0, 1.0, 0.0, 0.0, 0.0, 1.0])
    assert dg.grad_check(lambda: dg.bce_loss(q, labels), {"q": q}) <= 1e-5


def test_bce_over_task_rows_is_the_sum_of_one_call_per_row():
    """A [2, B] input: the loss is the sum of the two rows' losses and each row
    gets its own call's gradient, bit for bit, a clipped entry included."""
    rng = np.random.default_rng(5)
    probs = rng.uniform(0.01, 0.99, size=(2, 37))
    probs[1, 3] = 1.0
    labels = (rng.random((2, 37)) < 0.4).astype(float)
    both, rows = t(probs, rg=True), [t(row, rg=True) for row in probs]
    loss = dg.bce_loss(both, labels)
    total = dg.add(*(dg.bce_loss(row, y) for row, y in zip(rows, labels)))
    dg.backward(loss)
    dg.backward(total)
    assert loss.shape == () and loss.data.tobytes() == total.data.tobytes()
    assert both.grad.tobytes() == np.stack([row.grad for row in rows]).tobytes()


def test_bce_casts_labels_to_probability_dtype():
    p = dg.raw_tensor(np.array([0.9, 0.2], dtype=np.float32))
    assert dg.bce_loss(p, np.array([1.0, 0.0])).data.dtype == np.float32


def test_bce_rejects_bad_labels():
    with pytest.raises(DataError):
        dg.bce_loss(t([0.5]), np.array([0.5]))


# ---------------------------------------------------------------------------
# backward

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_values_match_where_formula_byte_for_byte(dtype):
    x = np.random.default_rng(12).normal(scale=20.0, size=(512, 300)).astype(dtype)
    x[0, :6] = [0.0, -0.0, 1e30, -1e30, 88.0, -88.0]
    e = np.exp(-np.abs(x))
    expected = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    got = dg._sigmoid_values(x)
    assert got.dtype == dtype and got.tobytes() == expected.tobytes()
    assert dg._sigmoid_values(x[1, 0]).tobytes() == expected[1, 0].tobytes()


@pytest.mark.parametrize("z", [-800.0, -3.5, -0.0, 0.0, 2.25, 800.0])
def test_scalar_sigmoid_matches_array_form(z):
    assert dg._sigmoid_scalar(z) == pytest.approx(dg._sigmoid_values(np.array([z]))[0],
                                                  rel=1e-15, abs=0.0)


def test_backward_sum_gives_ones():
    w = t(np.arange(6.0).reshape(2, 3), rg=True)
    dg.backward(dg.reduce_sum(w))
    np.testing.assert_array_equal(w.grad, np.ones((2, 3)))


def test_backward_sigmoid_at_zero():
    x = t([0.0], rg=True)  # the temperature of a pair with cosine 1
    dg.backward(dg.reduce_sum(dg.cosine_score(t([[[1.0, 2.0]]]), t([[[1.0, 2.0]]]), x)))
    np.testing.assert_allclose(x.grad, [0.25], atol=1e-15)


def test_backward_non_scalar_is_usage_error():
    w = t([1.0, 2.0], rg=True)
    with pytest.raises(ConfigError):
        dg.backward(dg.mul(w, 2.0))


def test_backward_twice_doubles_gradient():
    w = t([1.5, -2.0], rg=True)

    def loss():
        return dg.reduce_sum(dg.mul(w, w))

    dg.backward(loss())
    once = w.grad.copy()
    dg.backward(loss())
    np.testing.assert_array_equal(w.grad, 2.0 * once)


def test_shared_subexpression_accumulates():
    x = t([2.0], rg=True)
    y = dg.add(dg.mul(x, x), x)  # d/dx (x^2 + x) = 2x + 1
    dg.backward(dg.reduce_sum(y))
    np.testing.assert_allclose(x.grad, [5.0], atol=1e-15)


# ---------------------------------------------------------------------------
# grad_check

def test_grad_check_quadratic():
    w = t([3.0], rg=True)
    err = dg.grad_check(lambda: dg.reduce_sum(dg.mul(w, w)), {"w": w})
    assert err <= 1e-9


def test_grad_check_non_finite_loss_is_numerics_error():
    w = t([1e200], rg=True)  # w * w overflows to inf
    with np.errstate(over="ignore"):
        with pytest.raises(NumericsError):
            dg.grad_check(lambda: dg.reduce_sum(dg.mul(w, w)), {"w": w})
        # a loss that only overflows at a perturbed point is caught there too
        v = t([1.0], rg=True)
        with pytest.raises(NumericsError, match="'v'"):
            dg.grad_check(lambda: dg.reduce_sum(dg.mul(v, 1e308)), {"v": v}, h=1.0)


def test_grad_check_requires_f64():
    with dg.precision("f32"):
        w = dg.Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        with pytest.raises(ConfigError):
            dg.grad_check(lambda: dg.reduce_sum(w), {"w": w})


def test_grad_check_refuses_f32_parameters_under_f64_precision():
    w = dg.raw_tensor(np.array([0.3, -1.2], dtype=np.float32), requires_grad=True)
    with pytest.raises(ConfigError, match="float64"):
        dg.grad_check(lambda: dg.reduce_sum(dg.tanh(dg.mul(w, w))), {"w": w})


PRIMITIVE_CASES = [
    "matmul", "add_bias", "mul", "tanh", "relu", "sigmoid",
    "softmax", "gather", "cosine", "bce", "attention",
    "matmul_batched", "matmul_broadcast", "transpose_last_two", "gather_3d",
    "attention_batched", "affine", "affine_stacked", "gather_repeated", "gather_mix",
    "cosine_clamped", "mix", "mix_zero_weights",
]


@pytest.mark.parametrize("case", PRIMITIVE_CASES)
def test_grad_check_per_primitive(case):
    rng = np.random.default_rng(zlib.crc32(case.encode()))
    a = t(rng.normal(size=(3, 4)), rg=True)
    b = t(rng.normal(size=(4, 3)), rg=True)
    v = t(rng.normal(size=(3, 4)) * 0.5 + 1.5, rg=True)  # positive, away from 0

    if case == "matmul":
        f = lambda: dg.reduce_sum(dg.tanh(dg.matmul(a, b)))
        params = {"a": a, "b": b}
    elif case == "add_bias":
        bias = t(rng.normal(size=4), rg=True)
        f = lambda: dg.reduce_sum(dg.tanh(dg.add(a, bias)))
        params = {"a": a, "bias": bias}
    elif case == "mul":
        f = lambda: dg.reduce_sum(dg.mul(a, v))
        params = {"a": a, "v": v}
    elif case in ("tanh", "relu"):
        op = getattr(dg, case)
        f = lambda: dg.reduce_sum(dg.mul(op(a), op(a)))
        params = {"a": a}
    elif case == "softmax":
        f = lambda: dg.reduce_sum(dg.mul(dg.softmax(a, axis=-1), v))
        params = {"a": a}
    elif case == "gather":
        idx = np.array([[0, 2], [1, 1]])
        flat = t(rng.normal(size=3), rg=True)  # a 1-D table: one scalar per row
        f = lambda: dg.add(dg.reduce_sum(dg.tanh(dg.gather_rows(a, idx))),
                           dg.reduce_sum(dg.tanh(dg.gather_rows(flat, idx))))
        params = {"a": a, "flat": flat}
    elif case == "sigmoid":
        # the score node's sigmoid: its temperatures alone, at fixed cosines
        tau = t(rng.normal(size=3) * 2.0, rg=True)
        f = lambda: dg.reduce_sum(dg.mul(dg.cosine_score(a.data[:, None], v.data[:, None], tau),
                                         dg.cosine_score(a.data[:, None], b.data.T[:, None], tau)))
        params = {"tau": tau}
    elif case == "cosine":
        x = t(rng.normal(size=5), rg=True)
        y = t(rng.normal(size=5), rg=True)
        tau = t([1.5], rg=True)
        f = lambda: dg.reduce_sum(dg.cosine_score(dg.reshape(x, (1, 1, 5)),
                                                  dg.reshape(y, (1, 1, 5)), tau))
        params = {"x": x, "y": y, "tau": tau}
    elif case == "cosine_clamped":
        # pairs whose first vector is zero or below NORM_EPS, so its norm is clamped;
        # those vectors are constants, since a finite difference would lift them past it
        x = t(np.stack([rng.normal(size=4), np.zeros(4), 1e-14 * rng.normal(size=4)])[None])
        y = t(rng.normal(size=(1, 3, 4)), rg=True)
        tau = t([3.0], rg=True)
        f = lambda: dg.reduce_sum(dg.cosine_score(x, y, tau))
        params = {"y": y, "tau": tau}
    elif case == "bce":
        x = t(rng.normal(size=(2, 3, 4)), rg=True)
        y = t(rng.normal(size=(2, 3, 4)), rg=True)
        tau = t([2.0, -1.0], rg=True)
        labels = (rng.random((2, 3)) < 0.5).astype(float)
        f = lambda: dg.bce_loss(dg.cosine_score(x, y, tau), labels)
        params = {"x": x, "y": y, "tau": tau}
    elif case == "attention":
        q = t(rng.normal(size=(2, 4)), rg=True)
        k = t(rng.normal(size=(5, 4)), rg=True)
        vv = t(rng.normal(size=(5, 3)), rg=True)
        f = lambda: dg.reduce_sum(dg.tanh(attend(q, k, vv)[0]))
        params = {"q": q, "k": k, "v": vv}
    elif case == "matmul_batched":
        x = t(rng.normal(size=(2, 3, 4)), rg=True)
        y = t(rng.normal(size=(2, 4, 5)), rg=True)
        f = lambda: dg.reduce_sum(dg.tanh(dg.matmul(x, y)))
        params = {"x": x, "y": y}
    elif case == "matmul_broadcast":
        y = t(rng.normal(size=(2, 4, 5)), rg=True)
        f = lambda: dg.reduce_sum(dg.tanh(dg.matmul(a, y)))
        params = {"a": a, "y": y}
    elif case == "transpose_last_two":
        x = t(rng.normal(size=(2, 3, 4)), rg=True)
        w = t(rng.normal(size=(2, 4, 3)))
        f = lambda: dg.reduce_sum(dg.mul(dg.transpose(x), w))
        params = {"x": x}
    elif case == "gather_3d":
        x = t(rng.normal(size=(3, 2, 4)), rg=True)
        f = lambda: dg.reduce_sum(dg.tanh(dg.gather_rows(x, np.array([2, 0, 2]))))
        params = {"x": x}
    elif case == "attention_batched":
        # one query per leading index, broadcast over the second axis of K, V
        q = t(rng.normal(size=(2, 1, 1, 4)), rg=True)
        k = t(rng.normal(size=(2, 3, 5, 4)), rg=True)
        vv = t(rng.normal(size=(2, 3, 5, 3)), rg=True)
        f = lambda: dg.reduce_sum(dg.tanh(attend(q, k, vv)[0]))
        params = {"q": q, "k": k, "v": vv}
    elif case == "affine":
        bias = t(rng.normal(size=3), rg=True)
        f = lambda: dg.reduce_sum(dg.tanh(dg.affine(a, b, bias)))
        params = {"a": a, "b": b, "bias": bias}
    elif case == "affine_stacked":
        # one 2-d input through a stack of k = 2 weight matrices and biases
        w = t(rng.normal(size=(2, 4, 5)), rg=True)
        bias = t(rng.normal(size=(2, 1, 5)), rg=True)
        f = lambda: dg.reduce_sum(dg.tanh(dg.affine(a, w, bias)))
        params = {"a": a, "w": w, "bias": bias}
    elif case == "gather_repeated":
        idx = np.array([[2, 0, 2], [2, 1, 0], [0, 2, 2]])
        f = lambda: dg.reduce_sum(dg.tanh(dg.mul(dg.gather_rows(a, idx), v.data[0])))
        params = {"a": a}
    elif case == "gather_mix":
        # row 1 twice in one example and in two examples; row 2 never picked
        w = t(rng.normal(size=(2, 3, 2)), rg=True)
        x = t(rng.normal(size=(2, 4, 3)), rg=True)
        idx = np.array([[1, 1], [0, 3], [3, 1]])
        f = lambda: dg.reduce_sum(dg.tanh(dg.gather_mix(w, x, idx)))
        params = {"w": w, "x": x}
    elif case == "mix":
        w = t(rng.random((2, 3, 4)), rg=True)
        x = t(rng.normal(size=(4, 3, 5)), rg=True)
        f = lambda: dg.reduce_sum(dg.tanh(dg.mix(w, x)))
        params = {"w": w, "x": x}
    elif case == "mix_zero_weights":
        # gate weights as in the model: a softmax whose -inf mask gives exact zeros
        logits = t(rng.normal(size=(2, 3, 4)), rg=True)
        routed = np.array([[[1, 1, 0, 1]], [[0, 1, 1, 1]]]) == 1
        mask = dg.raw_tensor(np.where(routed, 0.0, -np.inf))
        x = t(rng.normal(size=(4, 3, 5)), rg=True)
        f = lambda: dg.reduce_sum(dg.tanh(dg.mix(dg.softmax(dg.add(logits, mask)), x)))
        params = {"logits": logits, "x": x}

    assert dg.grad_check(f, params) <= 1e-5


def _node_recorders() -> list[str]:
    """Names of the ``diffgraph`` functions that record a graph node (call ``_node``)."""
    return sorted(f.name for f in ast.parse(inspect.getsource(dg)).body
                  if isinstance(f, ast.FunctionDef) and f.name != "_node"
                  and any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_node"
                          for n in ast.walk(f)))


def test_every_graph_node_has_a_primitive_grad_check(monkeypatch):
    called = set()

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return wrapper

    names = _node_recorders()
    assert {"add", "mix", "cosine_score", "bce_loss"} <= set(names)
    for name in names:
        monkeypatch.setattr(dg, name, recording(name, getattr(dg, name)))
    for case in PRIMITIVE_CASES:
        test_grad_check_per_primitive(case)
    assert not set(names) - called, f"no PRIMITIVE_CASES case calls {sorted(set(names) - called)}"


def test_add_returns_no_gradient_for_a_constant_operand():
    x = t([[0.5, -1.0]], rg=True)
    mask = dg.raw_tensor(np.array([[0.0, -np.inf]]))
    out = dg.add(x, mask)
    assert out._grad_fn(np.ones((1, 2)))[1] is None
    assert dg.add(mask, x)._grad_fn(np.ones((1, 2)))[0] is None


def test_batched_ops_match_per_slice_loops():
    rng = np.random.default_rng(11)
    x, y = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 4, 5))
    np.testing.assert_array_equal(dg.matmul(t(x), t(y)).data,
                                  np.stack([x[i] @ y[i] for i in range(2)]))
    np.testing.assert_array_equal(dg.matmul(t(x[0]), t(y)).data,
                                  np.stack([x[0] @ y[i] for i in range(2)]))
    np.testing.assert_array_equal(dg.transpose(t(x)).data,
                                  np.stack([x[i].T for i in range(2)]))
    out = dg.gather_rows(t(x), np.array([[1, 0], [1, 1]]))
    assert out.shape == (2, 2, 3, 4)
    np.testing.assert_array_equal(out.data[1, 0], x[1])


def test_item_of_one_element_tensors():
    assert dg.Tensor(0.5).item() == 0.5
    assert dg.Tensor([0.5]).item() == 0.5
    assert dg.Tensor([[0.5]]).item() == 0.5
    with pytest.raises(ValueError):
        dg.Tensor([0.5, 1.0]).item()


def test_relu_grad_zero_when_blocked():
    x = t([-1.5], rg=True)
    dg.backward(dg.reduce_sum(dg.mul(dg.relu(x), 3.0)))
    np.testing.assert_array_equal(x.grad, [0.0])


def test_gather_rows_untouched_rows_get_zero_grad():
    table = t(np.random.default_rng(9).normal(size=(5, 3)), rg=True)
    out = dg.gather_rows(table, np.array([1, 3]))
    dg.backward(dg.reduce_sum(dg.mul(out, out)))
    assert np.all(table.grad[0] == 0.0)
    assert np.all(table.grad[2] == 0.0)
    assert np.all(table.grad[4] == 0.0)
    assert np.any(table.grad[1] != 0.0)


@pytest.mark.parametrize("precision, dtype, rtol", [("f32", np.float32, 1e-5),
                                                    ("f64", np.float64, 1e-12)])
def test_gather_rows_grad_matches_add_at_reference(precision, dtype, rtol):
    rng = np.random.default_rng(21)
    with dg.precision(precision):
        table = dg.Tensor(rng.normal(size=(40, 2, 3)), requires_grad=True)
        idx = rng.integers(0, 30, size=(64, 5))  # repeated ids, rows 30.. never hit
        out = dg.gather_rows(table, idx)
        g = rng.normal(size=out.shape).astype(dtype)
        (got,) = out._grad_fn(g)
    expected = np.zeros_like(table.data)
    np.add.at(expected, idx.reshape(-1), g.reshape(-1, 2, 3))
    assert got.dtype == dtype
    np.testing.assert_allclose(got, expected, rtol=rtol, atol=rtol)
    assert np.all(got[30:] == 0.0)


def test_gather_rows_distinct_ids_scatter_exactly():
    table = t(np.random.default_rng(22).normal(size=(6, 3)), rg=True)
    out = dg.gather_rows(table, np.array([4, 0, 5]))
    g = np.random.default_rng(23).normal(size=(3, 3))
    (got,) = out._grad_fn(g)
    np.testing.assert_array_equal(got[[4, 0, 5]], g)
    np.testing.assert_array_equal(got[[1, 2, 3]], 0.0)


def test_identity_gather_passes_gradients_through_unchanged():
    rng = np.random.default_rng(24)
    table = t(rng.normal(size=(4, 2, 3)), rg=True)
    weights = rng.normal(size=(4, 2, 3))
    out = dg.gather_rows(table, np.arange(4))
    dg.backward(dg.reduce_sum(dg.mul(out, weights)))
    np.testing.assert_array_equal(table.grad, weights)


@pytest.mark.parametrize("precision, dtype, rtol", [("f32", np.float32, 1e-5),
                                                    ("f64", np.float64, 1e-12)])
def test_gather_mix_matches_loop_and_add_at_references(precision, dtype, rtol):
    rng = np.random.default_rng(26)
    with dg.precision(precision):
        w = dg.Tensor(rng.normal(size=(3, 50, 4)), requires_grad=True)
        x = dg.Tensor(rng.normal(size=(3, 40, 5)), requires_grad=True)
        idx = rng.integers(0, 30, size=(50, 4))  # repeats within and across rows; 30.. never hit
        out = dg.gather_mix(w, x, idx)
        g = rng.normal(size=out.shape).astype(dtype)
        dw, dx = out._grad_fn(g)
    expected = np.zeros(out.shape)
    expected_dw = np.zeros(w.shape)
    expected_dx = np.zeros(x.shape)
    for e in range(3):
        for b in range(50):
            for j in range(4):
                expected[e, b] += w.data[e, b, j] * x.data[e, idx[b, j]]
                expected_dw[e, b, j] = g[e, b] @ x.data[e, idx[b, j]]
        contributions = w.data[e][..., None] * g[e][:, None]  # [50, 4, 5]
        np.add.at(expected_dx[e], idx.reshape(-1), contributions.reshape(-1, 5))
    for got, want in ((out.data, expected), (dw, expected_dw), (dx, expected_dx)):
        assert got.dtype == dtype
        np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol)
    assert np.all(dx[:, 30:] == 0.0)


def test_gather_mix_constant_weights_get_no_gradient():
    rng = np.random.default_rng(27)
    w = t(rng.normal(size=(2, 3, 2)))
    x = t(rng.normal(size=(2, 4, 3)), rg=True)
    out = dg.gather_mix(w, x, np.array([[0, 1], [2, 3], [1, 1]]))
    dw, dx = out._grad_fn(np.ones(out.shape))
    assert dw is None and dx.shape == x.shape


@pytest.mark.parametrize("w_shape, x_shape, idx_shape", [
    ((2, 3, 2), (3, 4, 5), (3, 2)),  # weights and values disagree on k
    ((2, 3, 2), (2, 4, 5), (3, 3)),  # index is not [B, m] of the weights
    ((3, 2), (2, 4, 5), (3, 2)),
])
def test_gather_mix_shape_mismatch_is_config_error(w_shape, x_shape, idx_shape):
    with pytest.raises(ConfigError, match="gather_mix"):
        dg.gather_mix(t(np.ones(w_shape)), t(np.ones(x_shape)), np.zeros(idx_shape, dtype=int))


@pytest.mark.parametrize("idx", [np.array([[0, 4]]), np.array([[-1, 0]]), np.array([[0.0, 1.0]])])
def test_gather_mix_bad_index_is_data_error(idx):
    with pytest.raises(DataError, match="gather_mix"):
        dg.gather_mix(t(np.ones((2, 1, 2))), t(np.ones((2, 4, 3))), idx)


@pytest.mark.parametrize("op", ["matmul", "affine"])
def test_constant_matmul_operand_gets_no_gradient(op):
    rng = np.random.default_rng(25)
    x = t(rng.normal(size=(3, 4)))
    w = t(rng.normal(size=(4, 2)), rg=True)
    out = dg.matmul(x, w) if op == "matmul" else dg.affine(x, w, t(np.zeros(2)))
    grads = out._grad_fn(np.ones(out.shape))
    assert grads[0] is None and grads[-1 if op == "affine" else 0] is None
    np.testing.assert_array_equal(grads[1], x.data.T @ np.ones(out.shape))


def test_affine_equals_matmul_plus_bias():
    rng = np.random.default_rng(26)
    x = rng.normal(size=(7, 4))
    w, b = rng.normal(size=(3, 4, 5)), rng.normal(size=(3, 1, 5))
    np.testing.assert_array_equal(dg.affine(t(x), t(w), t(b)).data, x @ w + b)
    with pytest.raises(ConfigError):
        dg.affine(t(x), t(w), t(np.ones((2, 1, 5))))
    with pytest.raises(ConfigError):
        dg.affine(t(x), t(np.ones((5, 5))), t(np.ones(5)))


def test_outer_product_matmul_equals_numpy_matmul():
    rng = np.random.default_rng(27)
    x, y = rng.normal(size=(3, 4, 5, 1)), rng.normal(size=(3, 1, 1, 6))
    np.testing.assert_array_equal(dg.matmul(t(x), t(y)).data, x @ y)


def test_gather_rows_out_of_range_is_data_error():
    table = t(np.ones((3, 2)))
    with pytest.raises(DataError):
        dg.gather_rows(table, np.array([3]))


# ---------------------------------------------------------------------------
# precision

def test_precision_controls_dtype():
    with dg.precision("f32"):
        assert dg.Tensor([1.0]).data.dtype == np.float32
    with dg.precision("f64"):
        assert dg.Tensor([1.0]).data.dtype == np.float64


def test_unknown_precision_rejected():
    with pytest.raises(ConfigError):
        dg.set_precision("f16")


# ---------------------------------------------------------------------------
# checkpoint round-trip

def test_checkpoint_round_trip_byte_identical(tmp_path):
    rng = np.random.default_rng(11)
    params = {
        "block.w": t(rng.normal(size=(4, 3)), rg=True),
        "block.b": t(rng.normal(size=3), rg=True),
        "temp": t(np.array(5.0), rg=True),
    }
    p1 = tmp_path / "ck1.jsonl"
    p2 = tmp_path / "ck2.jsonl"
    dg.save_params(params, p1)
    loaded = dg.load_params(p1)
    dg.save_params(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    for name in params:
        np.testing.assert_array_equal(params[name].data, loaded[name].data)
        assert loaded[name].requires_grad


def test_checkpoint_malformed_line_reports_lineno(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"name": "a", "shape": [1], "dtype": "f64", "data": "AAAAAAAA8D8="}\n'
                    "not json\n")
    with pytest.raises(DataError, match="line 2"):
        dg.load_params(path)


def test_checkpoint_line_format_is_stable(tmp_path):
    path = tmp_path / "ck.jsonl"
    with dg.precision("f32"):
        dg.save_params({"a": dg.Tensor([1.0, 2.0])}, path)
    assert path.read_text() == '{"name":"a","shape":[2],"dtype":"f32","data":"AACAPwAAAEA="}\n'


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_checkpoint_non_finite_value_is_data_error(tmp_path, bad):
    path = tmp_path / "ck.jsonl"
    with dg.precision("f32"):
        dg.save_params({"a": dg.Tensor([1.0, 2.0])}, path)
    record = {"name": "temperature.ctr", **dg.encode_array(np.array(bad, dtype=np.float32))}
    with open(path, "a") as fh:
        fh.write(json.dumps(record) + "\n")
    with pytest.raises(DataError, match=r"ck\.jsonl.*line 2.*'temperature\.ctr'"):
        dg.load_params(path)


def test_checkpoint_unknown_dtype_is_data_error(tmp_path):
    path = tmp_path / "ck.jsonl"
    path.write_text('{"name":"a","shape":[2],"dtype":"f16","data":"AACAPwAAAEA="}\n')
    with pytest.raises(DataError, match="f16"):
        dg.load_params(path)


@pytest.mark.parametrize("name, dtype", [("f32", np.float32), ("f64", np.float64)])
def test_array_codec_round_trip(name, dtype):
    arr = np.arange(6, dtype=dtype).reshape(2, 3) / 7
    record = dg.encode_array(arr)
    assert record["dtype"] == name and record["shape"] == [2, 3]
    again = dg.decode_array(record)
    assert again.dtype == dtype and again.flags.writeable
    np.testing.assert_array_equal(again, arr)


@pytest.mark.parametrize("name, dtype", [("f32", np.float32), ("f64", np.float64)])
def test_payload_codec_round_trip_copies_nothing(name, dtype):
    arr = np.arange(6, dtype=dtype).reshape(2, 3) / 7
    record, payload = dg.to_payload(arr)
    assert record == {"shape": [2, 3], "dtype": name} and np.shares_memory(payload, arr)
    raw = bytearray(payload.tobytes())
    again = dg.from_payload(record, raw)
    assert again.dtype == dg.codec_dtype(name) and np.shares_memory(again, np.frombuffer(raw))
    np.testing.assert_array_equal(again, arr)


def test_payload_of_a_strided_array_is_its_c_order_bytes():
    arr = np.arange(6, dtype=np.float32).reshape(2, 3).T
    record, payload = dg.to_payload(arr)
    assert record["shape"] == [3, 2] and payload.tobytes() == arr.tobytes()


@pytest.mark.parametrize("bad", [{"dtype": "f16"}, {"shape": [4]}, {"shape": [-1]},
                                 {"data": "AAC!PwAAAEA="}, {"dtype": None}, {"shape": 2}])
def test_array_codec_rejects_bad_records(bad):
    record = {"shape": [2], "dtype": "f32", "data": "AACAPwAAAEA=", **bad}
    with pytest.raises(DataError):
        dg.decode_array(record)
