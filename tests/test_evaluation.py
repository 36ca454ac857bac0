import dataclasses

import numpy as np
import pytest

import mvke.data as D
import mvke.evaluation as E
import mvke.model as M
import mvke.train as T
from mvke.errors import UndefinedMetricError
from mvke.model import Task


pytestmark = pytest.mark.usefixtures("f64")


def brute_force_auc(scores, labels):
    # quadratic pairwise oracle with integer half-credit accumulation
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    credit2 = 0
    for p in pos:
        for n in neg:
            if p > n:
                credit2 += 2
            elif p == n:
                credit2 += 1
    return credit2 / (2 * len(pos) * len(neg))


# ---------------------------------------------------------------------------
# auc

def test_auc_perfect_ranking():
    assert E.auc([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0


def test_auc_inverted_ranking():
    assert E.auc([0.9, 0.8, 0.1], [0, 0, 1]) == 0.0


def test_auc_all_ties_is_half():
    assert E.auc([0.4, 0.4, 0.4, 0.4], [1, 0, 1, 0]) == 0.5


def test_auc_single_class_is_undefined():
    with pytest.raises(UndefinedMetricError):
        E.auc([0.1, 0.9], [1, 1])
    with pytest.raises(UndefinedMetricError):
        E.auc([0.1, 0.9], [0, 0])


def test_auc_rejects_non_binary_labels():
    with pytest.raises(UndefinedMetricError):
        E.auc([0.1, 0.9], [0, 2])


def test_auc_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(42)
    for trial in range(100):
        n = int(rng.integers(2, 501))
        # quantized scores so ties actually occur
        scores = rng.integers(0, 25, size=n) / 10.0
        labels = (rng.random(n) < 0.4).astype(int)
        if labels.sum() in (0, n):
            continue
        assert E.auc(scores, labels) == brute_force_auc(scores, labels), f"trial {trial}"


def test_auc_invariant_under_monotone_transforms():
    rng = np.random.default_rng(43)
    for _ in range(25):
        n = int(rng.integers(10, 200))
        scores = rng.normal(size=n)
        labels = (rng.random(n) < 0.5).astype(int)
        if labels.sum() in (0, n):
            continue
        base = E.auc(scores, labels)
        assert E.auc(2.0 * scores + 1.0, labels) == base
        assert E.auc(1.0 / (1.0 + np.exp(-scores)), labels) == base


# ---------------------------------------------------------------------------
# evaluate

TINY = dict(n_users=300, n_tags=25, n_ads=120, n_impressions=1500,
            n_test_impressions=6000, seed=11)


@pytest.fixture(scope="module")
def tiny_gen():
    cfg = D.GeneratorConfig(**TINY)
    train, test, truth = D.generate(cfg)
    mcfg = M.ModelConfig(schema=D.schema_for(cfg, embed_dim=8),
                         routing=M.five_expert_routing())
    return train, test, truth, mcfg


def test_untrained_model_scores_near_half(tiny_gen):
    _, test, _, mcfg = tiny_gen
    model = M.MvkeModel(mcfg, seed=3)
    report = E.evaluate(model, test)
    for task in M.TASKS:
        assert abs(report.aucs[task] - 0.5) < 0.03


def test_evaluate_is_deterministic(tiny_gen):
    _, test, _, mcfg = tiny_gen
    model = M.MvkeModel(mcfg, seed=3)
    r1 = E.evaluate(model, test)
    r2 = E.evaluate(model, test)
    assert r1.aucs == r2.aucs
    assert r1.n_examples == r2.n_examples


def test_evaluate_counts(tiny_gen):
    _, test, _, mcfg = tiny_gen
    model = M.MvkeModel(mcfg, seed=3)
    report = E.evaluate(model, test)
    assert report.n_examples[Task.CTR] == len(test)
    assert report.n_positive[Task.CTR] == sum(e.click_label for e in test)
    assert report.n_positive[Task.CVR] == sum(e.conversion_label for e in test)


def test_evaluate_refuses_a_split_with_one_label_value_naming_it_and_the_task(tiny_gen):
    _, test, _, mcfg = tiny_gen
    model = M.MvkeModel(mcfg, seed=3)
    no_conversions = [dataclasses.replace(ex, conversion_label=0) for ex in test]
    with pytest.raises(UndefinedMetricError,
                       match=f"evaluation split: cvr labels are all 0 in its {len(test)} rows"):
        E.evaluate(model, no_conversions)


# ---------------------------------------------------------------------------
# sweep

def test_sweep_single_count_equals_direct_fit(tiny_gen):
    train, test, _, mcfg = tiny_gen
    tcfg = T.TrainConfig(epochs=1, seed=5)
    rows = T.sensitivity_sweep([5], train[:600], test[:600], mcfg, tcfg, seed=4)
    assert len(rows) == 1

    direct_cfg = M.ModelConfig(schema=mcfg.schema, routing=M.split_routing(5))
    direct = M.MvkeModel(direct_cfg, seed=4)
    T.fit(direct, train[:600], test[:600], tcfg)
    report = E.evaluate(direct, test[:600])
    assert rows[0]["ctr_auc"] == report.aucs[Task.CTR]
    assert rows[0]["cvr_auc"] == report.aucs[Task.CVR]
    assert rows[0]["n_experts"] == 5


# ---------------------------------------------------------------------------
# gate-weight export

def test_export_gate_weights_structure(tiny_gen):
    _, _, _, mcfg = tiny_gen
    model = M.MvkeModel(mcfg, seed=6)
    rows = E.export_gate_weights(model, tag_ids=range(10))
    ctr_rows = [r for r in rows if r["task"] == "ctr"]
    cvr_rows = [r for r in rows if r["task"] == "cvr"]
    assert len(ctr_rows) == 10 and len(cvr_rows) == 10
    for row in ctr_rows:
        weights = [row[f"expert_{e}"] for e in range(5) if row[f"expert_{e}"] is not None]
        assert len(weights) == 3  # ctr routes to experts 0..2
        assert sum(weights) == pytest.approx(1.0, abs=1e-6)
    for row in cvr_rows:
        weights = [row[f"expert_{e}"] for e in range(5) if row[f"expert_{e}"] is not None]
        assert len(weights) == 4  # cvr routes to experts 1..4
        assert sum(weights) == pytest.approx(1.0, abs=1e-6)


def test_export_gate_weights_of_no_tags_is_empty(tiny_gen):
    _, _, _, mcfg = tiny_gen
    assert E.export_gate_weights(M.MvkeModel(mcfg, seed=6), tag_ids=[]) == []


def test_export_gate_weights_vary_across_tags(tiny_gen):
    _, _, _, mcfg = tiny_gen
    model = M.MvkeModel(mcfg, seed=6)
    rows = [r for r in E.export_gate_weights(model, tag_ids=range(12))
            if r["task"] == "ctr"]
    matrix = np.array([[r[f"expert_{e}"] for e in (0, 1, 2)] for r in rows])
    assert matrix.var(axis=0).sum() > 0.0


def test_write_csv_handles_none(tmp_path):
    rows = [{"a": 1, "b": None}, {"a": 2, "b": 0.5}]
    path = tmp_path / "out.csv"
    E.write_csv(rows, path)
    assert path.read_text() == "a,b\n1,\n2,0.5\n"


def test_sweep_in_a_single_task_mode_trains_and_reports_that_task_alone(tiny_gen):
    train, test, _, mcfg = tiny_gen
    tcfg = T.TrainConfig(epochs=1, seed=5, mode="cvr-only")
    rows = T.sensitivity_sweep([5], train[:600], test[:600], mcfg, tcfg, seed=4)
    direct = M.MvkeModel(M.ModelConfig(schema=mcfg.schema, routing=M.split_routing(5)),
                         seed=4, tasks=(Task.CVR,))
    T.fit(direct, train[:600], test[:600], tcfg)
    assert rows == [{"n_experts": 5, "ctr_auc": None,
                     "cvr_auc": E.evaluate(direct, test[:600]).aucs[Task.CVR]}]
