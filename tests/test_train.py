import math

import numpy as np
import pytest

import mvke.data as D
import mvke.diffgraph as dg
import mvke.model as M
import mvke.train as T
from mvke.errors import ConfigError, NumericsError, TrainingDivergenceError
from mvke.evaluation import evaluate
from mvke.model import Task

from fakes import FakeExample


pytestmark = pytest.mark.usefixtures("f64")


TINY = dict(n_users=200, n_tags=20, n_ads=80, n_impressions=3000,
            n_test_impressions=800, seed=5)


@pytest.fixture(scope="module")
def tiny_data():
    cfg = D.GeneratorConfig(**TINY)
    train, test, _ = D.generate(cfg)
    mcfg = M.ModelConfig(schema=D.schema_for(cfg, embed_dim=8),
                         routing=M.five_expert_routing())
    return train, test, mcfg


def test_train_config_validation():
    with pytest.raises(ConfigError):
        T.TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        T.TrainConfig(mode="both")
    with pytest.raises(ConfigError, match="eps"):
        T.TrainConfig(eps=0.0)


# ---------------------------------------------------------------------------
# loss

def test_multi_loss_is_sum_of_single_task_losses(small_cfg, small_batch_examples):
    params = M.init_mvke_params(small_cfg, seed=0)
    batch = M.encode_examples(small_batch_examples, small_cfg.schema)
    multi = T.mtl_loss(batch, small_cfg, params, "multi").item()
    ctr = T.mtl_loss(batch, small_cfg, params, "ctr-only").item()
    cvr = T.mtl_loss(batch, small_cfg, params, "cvr-only").item()
    assert multi == ctr + cvr  # exact additivity


def test_multi_loss_requires_mtl_routing(small_cfg, small_batch_examples):
    routing = M.ExpertRouting(2, (0,), (1,))  # no shared expert
    cfg = M.ModelConfig(schema=small_cfg.schema, routing=routing)
    params = M.init_mvke_params(cfg, seed=0)
    batch = M.encode_examples(small_batch_examples, cfg.schema)
    with pytest.raises(ConfigError):
        T.mtl_loss(batch, cfg, params, "multi")
    # single-task modes do not need shared experts
    T.mtl_loss(batch, cfg, params, "ctr-only")


def test_loss_matches_per_example_oracle(small_cfg, small_batch_examples):
    params = M.init_mvke_params(small_cfg, seed=1)
    batch = M.encode_examples(small_batch_examples, small_cfg.schema)
    got = T.mtl_loss(batch, small_cfg, params, "multi").item()

    total = 0.0
    for task in M.TASKS:
        terms = []
        for ex in small_batch_examples:
            one = M.encode_examples([ex], small_cfg.schema)
            p = float(M.mvke_forward(one, small_cfg, params)[task][0].data[0])
            y = ex.click_label if task == Task.CTR else ex.conversion_label
            p = min(max(p, 1e-7), 1 - 1e-7)
            terms.append(-(y * math.log(p) + (1 - y) * math.log(1 - p)))
        total += sum(terms) / len(terms)
    assert got == pytest.approx(total, abs=1e-12)


def test_all_negative_batch_with_tiny_probability_has_tiny_loss(small_cfg):
    params = M.init_mvke_params(small_cfg, seed=0)
    # saturate the sigmoid, then keep only examples whose score pinned to 0
    params["temperature"].data[0] = 1e4  # ctr
    kept = []
    for fv in ((1, 2, 3), (2, 1, 0), (4, 3, 6), (0, 0, 1), (3, 2, 5)):
        for tag in range(10):
            ex = FakeExample(fv, (tag,), 0, 0)
            one = M.encode_examples([ex], small_cfg.schema)
            p = float(M.mvke_forward(one, small_cfg, params)[Task.CTR][0].data[0])
            if p < 1e-12:
                kept.append(ex)
    assert len(kept) >= 2
    batch = M.encode_examples(kept[:4], small_cfg.schema)
    loss = T.mtl_loss(batch, small_cfg, params, "ctr-only").item()
    assert loss <= 1.2e-7


# ---------------------------------------------------------------------------
# adam

def test_adam_zero_or_missing_gradient_leaves_params_unchanged():
    w = dg.Tensor(np.array([1.0, -2.0]), requires_grad=True)
    v = dg.Tensor(np.array([0.5]), requires_grad=True)
    opt = T.Adam({"w": w, "v": v}, learning_rate=0.1)
    w.grad = np.zeros(2)
    opt.step({"w": w, "v": v})  # v has no grad at all
    np.testing.assert_array_equal(w.data, [1.0, -2.0])
    np.testing.assert_array_equal(v.data, [0.5])


def test_adam_first_step_matches_scalar_oracle():
    w = dg.Tensor(np.array([3.0]), requires_grad=True)
    opt = T.Adam({"w": w}, learning_rate=0.1)
    w.grad = np.array([1.0])
    opt.step({"w": w})
    # scalar oracle with plain python floats
    m = 0.1 * 1.0
    v = 0.001 * 1.0
    m_hat = m / (1 - 0.9)
    v_hat = v / (1 - 0.999)
    expected = 3.0 - 0.1 * m_hat / (math.sqrt(v_hat) + 1e-8)
    assert w.data[0] == pytest.approx(expected, abs=0)
    assert w.grad is None  # grads zeroed after the step


def test_adam_keeps_parameters_as_views_of_one_buffer():
    w = dg.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
    b = dg.Tensor(np.array([5.0]), requires_grad=True)
    opt = T.Adam({"w": w, "b": b}, learning_rate=0.1)
    np.testing.assert_array_equal(opt.flat, [1.0, 2.0, 3.0, 4.0, 5.0])
    assert w.data.shape == (2, 2) and np.shares_memory(w.data, opt.flat)
    w.grad, b.grad = np.ones((2, 2)), np.array([-1.0])
    opt.step({"w": w, "b": b})
    np.testing.assert_array_equal(opt.flat, np.concatenate([w.data.ravel(), b.data]))
    np.testing.assert_allclose(w.data, [[0.9, 1.9], [2.9, 3.9]], rtol=1e-8)
    np.testing.assert_allclose(b.data, [5.1], rtol=1e-8)


def test_adam_names_the_parameter_that_became_non_finite():
    w = dg.Tensor(np.array([1.0]), requires_grad=True)
    v = dg.Tensor(np.array([1e308]), requires_grad=True)
    opt = T.Adam({"w": w, "v": v}, learning_rate=1e308)
    w.grad, v.grad = np.array([0.0]), np.array([-1.0])  # v steps past the float max
    with np.errstate(over="ignore"), pytest.raises(NumericsError, match="'v' became"):
        opt.step({"w": w, "v": v})


def test_adam_aborts_on_non_finite_grad():
    w = dg.Tensor(np.array([1.0]), requires_grad=True)
    opt = T.Adam({"w": w})
    w.grad = np.array([np.nan])
    with pytest.raises(Exception, match="'w'"):
        opt.step({"w": w})


# ---------------------------------------------------------------------------
# fit

def test_fit_zero_epochs_returns_initial_params(tiny_data):
    train, test, mcfg = tiny_data
    model = M.MvkeModel(mcfg, seed=0)
    init = {n: t.data.copy() for n, t in model.params.items()}
    params, history = T.fit(model, train, test, T.TrainConfig(epochs=0))
    assert history == []
    for name, arr in init.items():
        np.testing.assert_array_equal(params[name].data, arr)


def test_fit_zero_learning_rate_keeps_params_and_baseline_auc(tiny_data):
    train, test, mcfg = tiny_data
    model = M.MvkeModel(mcfg, seed=0)
    init = {n: t.data.copy() for n, t in model.params.items()}
    untrained_auc = evaluate(M.MvkeModel(mcfg, seed=0), test).aucs[Task.CTR]
    _, history = T.fit(model, train, test,
                       T.TrainConfig(epochs=1, learning_rate=0.0))
    for name, arr in init.items():
        np.testing.assert_array_equal(model.params[name].data, arr)
    assert history[0]["ctr_auc"] == pytest.approx(untrained_auc, abs=0)


def test_negative_learning_rate_rejected():
    with pytest.raises(ConfigError):
        T.TrainConfig(learning_rate=-1e-3)


def test_fit_two_runs_identical_trajectories(tiny_data):
    train, test, mcfg = tiny_data
    cfg = T.TrainConfig(epochs=1, seed=3)
    m1 = M.MvkeModel(mcfg, seed=0)
    m2 = M.MvkeModel(mcfg, seed=0)
    _, h1 = T.fit(m1, train, test, cfg)
    _, h2 = T.fit(m2, train, test, cfg)
    assert h1 == h2
    for name in m1.params:
        np.testing.assert_array_equal(m1.params[name].data, m2.params[name].data)


def test_f32_model_computes_in_f32_under_an_f64_global(tiny_data):
    """Inference and training follow the parameters' dtype, not the global precision."""
    train, test, mcfg = tiny_data
    with dg.precision("f32"):
        model = M.MvkeModel(mcfg, seed=0)
    init = T.snapshot_params(model.params)
    batch = M.encode_examples(test[:64], mcfg.schema)
    tags = range(mcfg.schema.tag_vocab_size)

    def run(precision):
        model.params = T.snapshot_params(init)
        with dg.precision(precision):
            out = [model.predict(batch, task) for task in M.TASKS]
            out.append(model.user_expert_outputs(batch))
            for task in M.TASKS:
                out.extend(model.tag_side(task, tags)[:2])
            params, history = T.fit(model, train, test, T.TrainConfig(epochs=1, seed=3))
        return out + [t.data for t in params.values()], history

    want, want_history = run("f32")
    got, got_history = run("f64")
    assert got_history == want_history
    for w, g in zip(want, got, strict=True):
        assert g.dtype == np.float32
        np.testing.assert_array_equal(g, w)


def test_fit_loss_decreases_over_first_three_epochs(tiny_data):
    train, test, mcfg = tiny_data
    model = M.MvkeModel(mcfg, seed=0)
    _, history = T.fit(model, train, test, T.TrainConfig(epochs=3, seed=1))
    losses = [h["train_loss"] for h in history]
    assert losses[0] > losses[1] > losses[2]


def test_single_task_step_leaves_other_task_params_untouched(tiny_data):
    train, test, mcfg = tiny_data
    model = M.MvkeModel(mcfg, seed=2)
    frozen = {n: t.data.copy() for n, t in model.params.items()}
    T.fit(model, train[:512], test[:256], T.TrainConfig(epochs=1, mode="ctr-only"))
    # cvr-exclusive experts (3, 4) and the cvr slice of the tag tower, gate, and temperature
    untouched, moved = [], []
    for name, before in frozen.items():
        after = model.params[name].data
        if name.startswith("experts."):
            untouched.append((f"{name}[3:5]", after[3:], before[3:]))
            moved.append((f"{name}[0]", after[0], before[0]))
        elif name.startswith(M.TASK_STACKED):
            untouched.append((f"{name}[1]", after[1], before[1]))
            if name.startswith("tag_tower."):
                moved.append((f"{name}[0]", after[0], before[0]))
    assert any(name.startswith("experts.") for name, _, _ in untouched)
    for name, after, before in untouched:
        np.testing.assert_array_equal(after, before, err_msg=name)
    for name, after, before in moved:
        assert not np.array_equal(after, before), name


def test_checkpoint_round_trip_preserves_validation_auc(tmp_path, tiny_data):
    train, test, mcfg = tiny_data
    model = M.MvkeModel(mcfg, seed=0)
    T.fit(model, train[:1024], test, T.TrainConfig(epochs=1))
    before = evaluate(model, test).aucs
    M.save_model(model, tmp_path / "ck")
    again = M.load_model(tmp_path / "ck")
    after = evaluate(again, test).aucs
    assert before == after  # bit-identical


def test_fit_reports_divergence_with_location(tiny_data):
    train, test, mcfg = tiny_data
    model = M.MvkeModel(mcfg, seed=0)
    # simulate an already-diverged parameter: the next forward must abort
    model.params["experts.head1.w"].data[0, 0, 0] = np.nan
    with pytest.raises(TrainingDivergenceError) as err:
        T.fit(model, train, test, T.TrainConfig(epochs=1))
    assert err.value.epoch == 0
    assert err.value.batch == 0


def test_fit_reports_non_finite_loss_with_location(tiny_data):
    train, test, mcfg = tiny_data
    model = M.MvkeModel(mcfg, seed=0)
    # a NaN temperature reaches the loss through the score head alone,
    # past the norm check in cosine_similarity
    model.params["temperature"].data[1] = np.nan  # cvr
    with pytest.raises(TrainingDivergenceError, match="loss") as err:
        T.fit(model, train, test, T.TrainConfig(epochs=1))
    assert (err.value.epoch, err.value.batch) == (0, 0)


@pytest.mark.parametrize("mode", T.MODES)
def test_multi_task_loss_graph_stays_within_node_budget(mode):
    """Tensors reachable from one loss in each training mode at the default shape."""
    gen = D.GeneratorConfig()
    cfg = M.ModelConfig(schema=D.schema_for(gen, embed_dim=16),
                        routing=M.five_expert_routing())
    rng = np.random.default_rng(0)
    (_, behaviors), fields = cfg.schema.user_fields[-1], cfg.schema.user_fields[:-1]
    examples = [FakeExample((*(int(rng.integers(v)) for _, v in fields),  # last field multi-valued
                             tuple(int(v) for v in rng.integers(behaviors, size=1 + i % 3))),
                            (int(rng.integers(gen.n_tags)),), i % 2, 0)
                for i in range(8)]
    batch = M.encode_examples(examples, cfg.schema)
    assert batch.field_idx[-1].shape[1] == 3
    loss = T.mtl_loss(batch, cfg, M.init_mvke_params(cfg, seed=0), mode)
    seen, stack = {id(loss)}, [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    assert len(seen) <= 67


def test_multi_task_loss_gradient_check_with_multi_valued_field(small_cfg):
    """The whole multi-task loss over distinct field rows: a multi-valued field with
    a repeated id in one row, and single-valued ids shared by several examples."""
    params = M.init_mvke_params(small_cfg, seed=4)
    examples = [FakeExample(((0, 2, 2), 1, 6), (2,), 0, 0),
                FakeExample((3, 1, (4, 6)), (1, 4), 1, 0),
                FakeExample((3, 2, 5), (7, 8, 3), 1, 1),
                FakeExample(((2,), 1, 6), (9,), 0, 1)]
    batch = M.encode_examples(examples, small_cfg.schema)
    rows, _ = M.embed_user_fields(batch, params, small_cfg.schema)
    assert rows.shape[0] < batch.size * len(small_cfg.schema.user_fields)
    loss = lambda: T.mtl_loss(batch, small_cfg, params, "multi")
    assert dg.grad_check(loss, params, max_entries=8) <= 1e-4


def test_fit_keeps_best_validation_checkpoint(tiny_data):
    train, test, mcfg = tiny_data
    model = M.MvkeModel(mcfg, seed=0)
    params, history = T.fit(model, train, test, T.TrainConfig(epochs=3, seed=1))
    scores = [(h["ctr_auc"] + h["cvr_auc"]) / 2 for h in history]
    best_epoch = int(np.argmax(scores))  # argmax takes the earliest on ties
    rerun = M.MvkeModel(mcfg, seed=0)
    T.fit(rerun, train, test, T.TrainConfig(epochs=best_epoch + 1, seed=1))
    for name in params:
        np.testing.assert_array_equal(params[name].data, rerun.params[name].data)


def test_two_tower_fit_works(tiny_data):
    train, test, mcfg = tiny_data
    model = M.TwoTowerModel(mcfg, Task.CVR, seed=0)
    _, history = T.fit(model, train[:1024], test[:512],
                       T.TrainConfig(epochs=1, mode="cvr-only"))
    assert history[0]["cvr_auc"] is not None
    assert history[0]["ctr_auc"] is None
