"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavyweight fixtures (three seeded trainings of the mixture model and
the per-task baselines on the default-scale dataset) are shared across
criteria. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np
import pytest

import mvke.data as D
import mvke.diffgraph as dg
import mvke.evaluation as E
import mvke.model as M
import mvke.serve as S
import mvke.train as T
from mvke.cli import main
from mvke.model import Task, TASKS

from fakes import FakeExample


pytestmark = pytest.mark.acceptance

SEEDS = (0, 1, 2)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def small_model_batch():
    schema = M.FieldSchema(user_fields=(("color", 5), ("size", 4), ("habits", 7)),
                           tag_vocab_size=10, embed_dim=8)
    cfg = M.ModelConfig(schema=schema, routing=M.five_expert_routing())
    params = M.init_mvke_params(cfg, seed=0)
    examples = [
        FakeExample((1, 2, 3), (1, 4), 1, 0),
        FakeExample(((0, 2), 1, 6), (2,), 0, 0),
        FakeExample((4, 0, 0), (7, 8, 3), 1, 1),
        FakeExample((2, 3, 2), (9,), 0, 0),
    ]
    batch = M.encode_examples(examples, schema)
    return cfg, params, batch


@pytest.fixture(scope="module")
def trained_runs():
    """Default-scale dataset, three seeds: mixture model plus the two
    single-task baselines, with the Bayes bound per task."""
    runs = []
    for seed in SEEDS:
        with dg.precision("f32"):
            t0 = time.perf_counter()
            gen = D.GeneratorConfig(seed=seed)
            train, test, truth = D.generate(gen)
            bayes = {task: D.bayes_auc(truth, test, task) for task in TASKS}
            mcfg = M.ModelConfig(schema=D.schema_for(gen, embed_dim=16),
                                 routing=M.five_expert_routing())
            mvke = M.MvkeModel(mcfg, seed=seed + 1)
            T.fit(mvke, train, test, T.TrainConfig(epochs=10, seed=seed + 2))
            mvke_aucs = E.evaluate(mvke, test).aucs
            seconds = time.perf_counter() - t0
            nomtl_aucs = {}
            for task, mode in ((Task.CTR, "ctr-only"), (Task.CVR, "cvr-only")):
                baseline = M.TwoTowerModel(mcfg, task, seed=seed + 1)
                T.fit(baseline, train, test,
                      T.TrainConfig(epochs=10, seed=seed + 2, mode=mode))
                nomtl_aucs[task] = E.evaluate(baseline, test).aucs[task]
            runs.append({"seed": seed, "bayes": bayes, "mvke": mvke_aucs,
                         "nomtl": nomtl_aucs, "seconds": seconds,
                         "model": mvke})
    return runs


def _mean(runs, source, task):
    return float(np.mean([r[source][task] for r in runs]))


# ---------------------------------------------------------------------------
# 1. gradient correctness


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    with dg.precision("f64"):
        cfg, params, batch = small_model_batch()

        def loss():
            out = M.mvke_forward(batch, cfg, params)
            return dg.add(dg.bce_loss(out[Task.CTR][0], batch.clicks),
                          dg.bce_loss(out[Task.CVR][0], batch.convs))

        full_err = dg.grad_check(loss, params, max_entries=32)

        rng = np.random.default_rng(0)
        a = dg.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = dg.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        v = dg.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        x = dg.Tensor(rng.normal(size=5), requires_grad=True)
        y = dg.Tensor(rng.normal(size=5), requires_grad=True)
        logits = dg.Tensor(rng.normal(size=6), requires_grad=True)
        labels = (rng.random(6) < 0.5).astype(float)
        primitive_cases = [
            (lambda: dg.reduce_sum(dg.tanh(dg.matmul(a, b))), {"a": a, "b": b}),
            (lambda: dg.reduce_sum(dg.sigmoid(dg.add(a, v))), {"a": a, "v": v}),
            (lambda: dg.reduce_sum(dg.mul(dg.softmax(a, axis=-1), v)), {"a": a}),
            (lambda: dg.reduce_sum(dg.relu(dg.gather_rows(a, np.array([0, 2, 1])))),
             {"a": a}),
            (lambda: dg.reduce_sum(dg.mul(dg.reduce_mean(a, axis=0),
                                          dg.reduce_mean(a, axis=0))), {"a": a}),
            (lambda: dg.cosine_similarity(x, y), {"x": x, "y": y}),
            (lambda: dg.bce_loss(dg.sigmoid(logits), labels), {"logits": logits}),
            (lambda: dg.reduce_sum(dg.scaled_dot_attention(
                dg.tanh(a), dg.tanh(v), dg.tanh(v))[0]), {"a": a, "v": v}),
        ]
        prim_err = max(dg.grad_check(f, p) for f, p in primitive_cases)
    elapsed = time.perf_counter() - t0
    ok = full_err <= 1e-4 and prim_err <= 1e-5 and elapsed < 60.0
    report(1, ok, f"full-model rel err {full_err:.2e} (<=1e-4), "
                  f"per-primitive {prim_err:.2e} (<=1e-5), {elapsed:.1f}s (<60s)")


# ---------------------------------------------------------------------------
# 2 + 3. serving equivalence and complexity counters


@pytest.fixture(scope="module")
def serving_setup():
    with dg.precision("f32"):
        gen = D.GeneratorConfig(n_users=100, n_tags=50, n_ads=200,
                                n_impressions=4000, n_test_impressions=1000,
                                seed=17)
        train, _, _ = D.generate(gen)
        mcfg = M.ModelConfig(schema=D.schema_for(gen, embed_dim=16),
                             routing=M.five_expert_routing())
        model = M.MvkeModel(mcfg, seed=18)
        users = D.user_roster(train)[:100]
        tags = list(range(50))
        model.reset_counters()
        caches = S.build_caches(model, users, tags)
        counters = dict(model.counters)
        yield model, users, tags, caches, counters


def test_criterion_2_serving_equivalence(serving_setup):
    model, users, tags, caches, _ = serving_setup
    t0 = time.perf_counter()
    max_err = 0.0
    with dg.precision("f32"):
        naive = {task: S.naive_scores(model, users, tags, task) for task in TASKS}
        for task in TASKS:
            for i, (user_id, _) in enumerate(users):
                for j, tag in enumerate(tags):
                    cached = S.score_from_cache(user_id, tag, task, caches)
                    max_err = max(max_err, abs(cached - naive[task][i, j]))
        top1_match = True
        tag_arr = np.array(tags)
        for task in TASKS:
            assignment = S.assign_topk(caches, 1, task)
            for i, (user_id, _) in enumerate(users):
                brute = tag_arr[np.lexsort((tag_arr, -naive[task][i]))[0]]
                if assignment.entries[user_id][0][0] != brute:
                    top1_match = False
    elapsed = time.perf_counter() - t0
    ok = max_err <= 1e-6 and top1_match and elapsed < 60.0
    report(2, ok, f"100x50x2 cached vs full max |diff| {max_err:.2e} (<=1e-6), "
                  f"top-1 identical: {top1_match}, {elapsed:.1f}s (<60s)")


def test_criterion_3_complexity_counters(serving_setup):
    model, users, tags, caches, cached_counters = serving_setup
    n_users, n_tags = len(users), len(tags)
    with dg.precision("f32"):
        model.reset_counters()
        for task in TASKS:
            S.naive_scores(model, users[:20], tags[:10], task)
        naive_counters = dict(model.counters)
    k = model.cfg.routing.n_experts
    cache_ok = (cached_counters["user_tower"] == n_users
                and cached_counters["tag_tower"] == n_tags * 2)
    naive_ok = (naive_counters["user_tower"] == 20 * 10 * 2
                and naive_counters["tag_tower"] == 20 * 10 * 2)
    size_ok = caches[0].vectors.shape[:2] == (n_users, k)
    ok = cache_ok and naive_ok and size_ok
    report(3, ok, f"cached path: {cached_counters['user_tower']} user / "
                  f"{cached_counters['tag_tower']} tag passes "
                  f"(= |U|, |T|*2); naive 20x10x2: {naive_counters['user_tower']} "
                  f"(= |U|*|T|*2); user cache stores k*|U| = {n_users * k} vectors")


# ---------------------------------------------------------------------------
# 4 + 5. learnability and multi-task directionality


def test_criterion_4_learnability(trained_runs):
    ctr = _mean(trained_runs, "mvke", Task.CTR)
    cvr = _mean(trained_runs, "mvke", Task.CVR)
    bayes_ctr = _mean(trained_runs, "bayes", Task.CTR)
    bayes_cvr = _mean(trained_runs, "bayes", Task.CVR)
    slowest = max(r["seconds"] for r in trained_runs)
    ok = (ctr >= 0.70 and cvr >= 0.65
          and ctr >= bayes_ctr - 0.05 and cvr >= bayes_cvr - 0.05
          and slowest < 600.0)
    report(4, ok, f"3-seed mean CTR AUC {ctr:.4f} (>=0.70, bayes {bayes_ctr:.4f}), "
                  f"CVR AUC {cvr:.4f} (>=0.65, bayes {bayes_cvr:.4f}), "
                  f"slowest seed {slowest:.0f}s (<600s)")


def test_criterion_5_mtl_directionality(trained_runs):
    mvke_cvr = _mean(trained_runs, "mvke", Task.CVR)
    nomtl_cvr = _mean(trained_runs, "nomtl", Task.CVR)
    mvke_ctr = _mean(trained_runs, "mvke", Task.CTR)
    nomtl_ctr = _mean(trained_runs, "nomtl", Task.CTR)
    cvr_gap = mvke_cvr - nomtl_cvr
    ok = mvke_cvr >= nomtl_cvr and mvke_ctr >= nomtl_ctr - 0.005
    report(5, ok, f"CVR: mixture {mvke_cvr:.4f} vs baseline {nomtl_cvr:.4f} "
                  f"(gap {cvr_gap:+.4f}, expected positive); "
                  f"CTR: {mvke_ctr:.4f} vs {nomtl_ctr:.4f} "
                  f"({mvke_ctr - nomtl_ctr:+.4f} >= -0.005)")


# ---------------------------------------------------------------------------
# 6. routing isolation and loss additivity, bit-level


def test_criterion_6_isolation_and_additivity():
    with dg.precision("f64"):
        cfg, params, batch = small_model_batch()

        # additivity: multi loss equals exact sum of single-task losses
        multi = T.mtl_loss(batch, cfg, params, "multi").item()
        parts = (T.mtl_loss(batch, cfg, params, "ctr-only").item()
                 + T.mtl_loss(batch, cfg, params, "cvr-only").item())
        additive = multi == parts

        # isolation: perturbing an off-task expert leaves outputs bit-identical
        before = M.mvke_forward(batch, cfg, params)[Task.CTR][0].data.copy()
        params["experts.q_proj.w"].data[4] += 1.0  # expert 4 serves cvr only
        params["experts.head2.w"].data[4] -= 0.5
        after = M.mvke_forward(batch, cfg, params)[Task.CTR][0].data
        isolated = bool(np.array_equal(before, after))

        # complement: one ctr-only step leaves cvr-exclusive params untouched
        params2 = M.init_mvke_params(cfg, seed=5)
        frozen = {n: t.data.copy() for n, t in params2.items()}
        opt = T.Adam(params2, learning_rate=1e-2)
        dg.zero_grads(params2)
        dg.backward(T.mtl_loss(batch, cfg, params2, "ctr-only"))
        opt.step(params2)
        # expert slices 3 and 4 serve cvr only
        expert_slices = [(params2[n].data[3:], frozen[n][3:]) for n in frozen
                         if n.startswith("experts.")]
        cvr_params = [(params2[n].data, frozen[n]) for n in frozen
                      if n.startswith(("tag_tower.cvr.", "gate.cvr.", "temperature.cvr"))]
        untouched = bool(expert_slices) and all(
            np.array_equal(after, before) for after, before in expert_slices + cvr_params)
        moved = not np.array_equal(params2["tag_tower.ctr.proj.w"].data,
                                   frozen["tag_tower.ctr.proj.w"])
    ok = additive and isolated and untouched and moved
    report(6, ok, f"additivity exact: {additive}, forward isolation bit-level: "
                  f"{isolated}, single-task step isolation: {untouched}")


# ---------------------------------------------------------------------------
# 7. AUC oracle equivalence


def test_criterion_7_auc_oracle_equivalence():
    rng = np.random.default_rng(7)
    checked = 0
    exact = True
    while checked < 100:
        n = int(rng.integers(2, 501))
        scores = rng.integers(0, 40, size=n) / 20.0  # ties occur
        labels = (rng.random(n) < 0.35).astype(int)
        if labels.sum() in (0, n):
            continue
        checked += 1
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        credit2 = int((2 * (pos[:, None] > neg[None, :]).sum())
                      + (pos[:, None] == neg[None, :]).sum())
        brute = credit2 / (2 * len(pos) * len(neg))
        if E.auc(scores, labels) != brute:
            exact = False
    report(7, exact, f"sort-based AUC == quadratic pairwise oracle on "
                     f"{checked} random instances (exact)")


# ---------------------------------------------------------------------------
# 8. gate behavior after training


def test_criterion_8_gate_behavior(trained_runs):
    model = trained_runs[0]["model"]
    with dg.precision("f32"):
        rows = E.export_gate_weights(model)
    sums_ok = True
    width_ok = True
    variances = []
    for task, expected_width in ((Task.CTR, 3), (Task.CVR, 4)):
        task_rows = [r for r in rows if r["task"] == task.value]
        matrix = []
        for row in task_rows:
            weights = [row[f"expert_{e}"] for e in range(5)
                       if row[f"expert_{e}"] is not None]
            if len(weights) != expected_width:
                width_ok = False
            if abs(sum(weights) - 1.0) > 1e-6:
                sums_ok = False
            matrix.append(weights)
        variances.append(float(np.var(np.array(matrix), axis=0).sum()))
    var_ok = all(v > 0.0 for v in variances)
    ok = sums_ok and width_ok and var_ok
    report(8, ok, f"rows sum to 1 +/- 1e-6: {sums_ok}; CTR rows 3 entries / "
                  f"CVR rows 4: {width_ok}; across-tag weight variance "
                  f"(ctr {variances[0]:.2e}, cvr {variances[1]:.2e}) > 0")


# ---------------------------------------------------------------------------
# 9. expert-count sensitivity sweep


def test_criterion_9_sensitivity_sweep():
    with dg.precision("f32"):
        gen = D.GeneratorConfig(n_users=2000, n_tags=50, n_ads=500,
                                n_impressions=30_000, n_test_impressions=8_000,
                                seed=9)
        train, test, _ = D.generate(gen)
        base = M.ModelConfig(schema=D.schema_for(gen, embed_dim=16),
                             routing=M.five_expert_routing())
        rows = E.sensitivity_sweep(range(4, 11), train, test, base,
                                   T.TrainConfig(epochs=6, seed=10), seed=9)
    complete = [int(r["n_experts"]) for r in rows] == list(range(4, 11))
    floors = all(min(r["ctr_auc"], r["cvr_auc"]) >= 0.6 for r in rows)
    curve = ", ".join(f"k={r['n_experts']}: ({r['ctr_auc']:.3f}, {r['cvr_auc']:.3f})"
                      for r in rows)
    ok = complete and floors
    report(9, ok, f"7 rows over k=4..10, every run beats 0.5 by >= 0.1; "
                  f"curve (reported, not asserted): {curve}")


# ---------------------------------------------------------------------------
# 10. end-to-end determinism


def test_criterion_10_determinism(tmp_path):
    import json

    cfg_doc = {
        "seed": 23,
        "precision": "f64",
        "data": {"n_users": 500, "n_tags": 24, "n_ads": 150,
                 "n_impressions": 4000, "n_test_impressions": 1200},
        "model": {"embed_dim": 8},
        "train": {"epochs": 2, "batch_size": 128},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg_doc))
    outputs = []
    for run in ("a", "b"):
        base = tmp_path / run
        assert main(["gen-data", "--config", str(cfg_path),
                     "--out", str(base / "data")]) == 0
        assert main(["train", "--config", str(cfg_path),
                     "--data", str(base / "data"), "--out", str(base / "run")]) == 0
        assert main(["eval", "--config", str(cfg_path),
                     "--data", str(base / "data"),
                     "--ckpt", str(base / "run" / "checkpoint"),
                     "--out", str(base / "eval")]) == 0
        outputs.append({
            "history": (base / "run" / "history.csv").read_bytes(),
            "report": (base / "eval" / "report.csv").read_bytes(),
        })
    history_same = outputs[0]["history"] == outputs[1]["history"]
    report_same = outputs[0]["report"] == outputs[1]["report"]
    ok = history_same and report_same
    report(10, ok, f"two identical 64-bit runs: history.csv byte-identical: "
                   f"{history_same}, report.csv byte-identical: {report_same}")
