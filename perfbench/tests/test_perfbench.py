"""Tests of the benchmark itself.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests

The end-to-end tests run every workload at the small scale in a few
seconds each. The check tests feed each check a correct output, which
must pass, and then one deliberately wrong output, which must fail.
"""

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mvke.data as D
import mvke.diffgraph as dg
import mvke.evaluation as E
import mvke.model as M
import mvke.serve as S

import checks as C
from tracing import PHASE_CALLS, Tracer, spans_around

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--scale", "small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_small_scale_run_prints_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    proc = run_bench("train_mt", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# each check fails on a wrong output


@pytest.fixture(scope="module")
def small_serving():
    with dg.precision("f32"):
        gen = D.GeneratorConfig(n_users=60, n_tags=12, n_impressions=200,
                                n_test_impressions=200, seed=5)
        _, test, truth = D.generate(gen)
        cfg = M.ModelConfig(schema=D.schema_for(gen, embed_dim=8),
                            routing=M.five_expert_routing())
        model = M.MvkeModel(cfg, seed=2)
        roster = [(u, truth.user_fields[u]) for u in range(gen.n_users)]
        tags = list(range(gen.n_tags))
        caches = S.build_caches(model, roster, tags)
        yield model, roster, tags, caches, test


def test_nudged_cached_score_fails(small_serving):
    model, roster, tags, caches, _ = small_serving
    rows = [D.Example(u, fv, (t,), 0, 0) for u, fv in roster[:5] for t in tags]
    with dg.precision("f32"):
        forward = model.predict(M.encode_examples(rows, model.cfg.schema), M.Task.CTR)
    cached = np.array([S.score_from_cache(u, t, M.Task.CTR, caches)
                       for u, _ in roster[:5] for t in tags])
    C.check_cached_vs_forward(cached, forward)
    cached[7] += 1e-4
    with pytest.raises(C.CheckFailed):
        C.check_cached_vs_forward(cached, forward)


def test_swapped_topk_entries_fail(small_serving):
    _, roster, tags, caches, _ = small_serving
    entries = S.assign_topk(caches, 5, M.Task.CVR).entries
    user_ids = [u for u, _ in roster]
    C.check_topk_lists(entries, 5, len(tags), user_ids)
    u = user_ids[0]
    listed = list(entries[u])
    listed[1], listed[2] = listed[2], listed[1]
    with pytest.raises(C.CheckFailed):
        C.check_topk_lists({**entries, u: listed}, 5, len(tags), user_ids)


def test_dropped_jsonl_row_fails(small_serving, tmp_path):
    *_, test = small_serving
    path = tmp_path / "log.jsonl"
    D.write_dataset(test, path)
    C.check_rows_equal(test, D.read_dataset(path))
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:10] + lines[11:]))
    with pytest.raises(C.CheckFailed):
        C.check_rows_equal(test, D.read_dataset(path))


def test_auc_on_shuffled_labels_fails():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 2, size=500)
    scores = np.round(labels * 0.3 + rng.random(500), 2)  # informative, with ties
    C.check_auc_pairwise(E.auc(scores, labels), scores, labels)
    shuffled = rng.permutation(labels)
    with pytest.raises(C.CheckFailed):
        C.check_auc_pairwise(E.auc(scores, shuffled), scores, labels)


def _losses(ctx):
    return (C.check_losses, ([{"train_loss": 0.70}, {"train_loss": 0.62}],),
            ([{"train_loss": 0.62}, {"train_loss": 0.70}],))


def _auc_range(ctx):
    # 500 positives and 500 negatives: three null standard errors are 0.039.
    return (C.check_auc_range, ("ctr", 0.70, 500, 500, 0.72),
            ("ctr", 0.80, 500, 500, 0.72))


def _identical(ctx):
    a = np.linspace(0.1, 0.9, 9, dtype=np.float32)
    b = a.copy()
    b[4] = np.nextafter(b[4], np.float32(1))
    return C.check_identical, ("scores", a, a.copy()), ("scores", a, b)


def _counters(ctx):
    n_users, n_tags = len(ctx["roster"]), len(ctx["tags"])
    good = {"user_tower": n_users, "tag_tower": 2 * n_tags}
    return (C.check_counters, (good, n_users, n_tags, 2),
            ({**good, "user_tower": n_users + 1}, n_users, n_tags, 2))


def _topk_exclusion(ctx):
    forward_row = np.array([0.9, 0.5, 0.7, 0.3])
    return (C.check_topk_exclusion, (0, [(0, 0.9), (2, 0.7)], forward_row, [0, 1, 2, 3]),
            (0, [(0, 0.9), (1, 0.5)], forward_row, [0, 1, 2, 3]))


def _cache_round_trip(ctx):
    S.save_caches(ctx["caches"], ctx["tmp_path"])
    users, tags = S.load_caches(ctx["tmp_path"])
    flipped = users.vectors.copy()
    flipped.view(np.uint8)[0, 0, 0] ^= 1
    bad = (S.UserCache(list(users.user_ids), flipped), tags)
    return C.check_cache_round_trip, (ctx["caches"], (users, tags)), (ctx["caches"], bad)


def _rows_valid(ctx):
    rows = list(ctx["test"])
    clicked = next(i for i, ex in enumerate(rows) if ex.click_label == 1)
    bad_row = copy.copy(rows[clicked])  # conversion without click: the constructor refuses it
    object.__setattr__(bad_row, "click_label", 0)
    object.__setattr__(bad_row, "conversion_label", 1)
    n_tags = len(ctx["tags"])
    return (C.check_rows_valid, (rows, n_tags),
            (rows[:clicked] + [bad_row] + rows[clicked + 1:], n_tags))


def _rows_match_truth(ctx):
    rows = list(ctx["test"])
    fields = [fv for _, fv in ctx["roster"]]
    other = next(fv for fv in fields if fv != rows[0].field_values)
    bad = [dataclasses.replace(rows[0], field_values=other)] + rows[1:]
    return C.check_rows_match_truth, (rows, fields), (bad, fields)


def _encoded_weights(ctx):
    batch = M.encode_examples(ctx["test"], ctx["model"].cfg.schema)
    scaled = [batch.field_weight[0] * 0.9, *batch.field_weight[1:]]
    return (C.check_encoded_weights, (batch,),
            (dataclasses.replace(batch, field_weight=scaled),))


WRONG_OUTPUTS = {
    "rising loss": _losses,
    "AUC above the Bayes bound plus slack": _auc_range,
    "score changed in its last bit": _identical,
    "user tower counter off by one": _counters,
    "higher-scoring tag left out of the top k": _topk_exclusion,
    "flipped bit in a loaded cache": _cache_round_trip,
    "conversion without click": _rows_valid,
    "changed user field": _rows_match_truth,
    "field weights summing to 0.9": _encoded_weights,
}


@pytest.mark.parametrize("wrong", list(WRONG_OUTPUTS))
def test_check_fails_on_a_wrong_output(wrong, small_serving, tmp_path):
    model, roster, tags, caches, test = small_serving
    ctx = dict(model=model, roster=roster, tags=tags, caches=caches, test=test,
               tmp_path=tmp_path)
    check, good, bad = WRONG_OUTPUTS[wrong](ctx)
    check(*good)
    with pytest.raises(C.CheckFailed):
        check(*bad)


def test_spans_around_records_the_library_calls_and_puts_them_back(small_serving):
    model, *_, test = small_serving
    originals = [vars(owner)[attr] for owner, attr, _, _ in PHASE_CALLS["evaluate"]]
    tracer = Tracer()
    with dg.precision("f32"), spans_around(tracer, PHASE_CALLS["evaluate"]):
        traced = E.evaluate(model, test).aucs
    assert [s.name for s in tracer.spans] == [
        "model.encode_examples",
        "evaluation.predict_dataset", "evaluation.auc",
        "evaluation.predict_dataset", "evaluation.auc"]
    assert [vars(owner)[attr] for owner, attr, _, _ in PHASE_CALLS["evaluate"]] == originals
    with dg.precision("f32"):
        assert E.evaluate(model, test).aucs == traced
