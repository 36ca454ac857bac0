import csv
import json
import logging
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import mvke
import mvke.data
import mvke.diffgraph as dg
import mvke.errors
from mvke.cli import build_parser, main


TINY_CONFIG = {
    "seed": 3,
    "precision": "f64",
    "data": {
        "n_users": 250,
        "n_tags": 16,
        "n_ads": 90,
        "n_impressions": 1600,
        "n_test_impressions": 500,
    },
    "model": {"embed_dim": 8},
    "train": {"epochs": 1, "batch_size": 128},
    "eval": {"sweep_counts": [4, 5]},
    "serve": {"topk": 3, "bench_sizes": [[8, 5]]},
}


def write_config(tmp_path, extra=None) -> str:
    cfg = json.loads(json.dumps(TINY_CONFIG))
    if extra:
        for key, value in extra.items():
            if isinstance(value, dict):
                cfg.setdefault(key, {}).update(value)
            else:
                cfg[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-data + train once; several commands reuse the artifacts."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg = write_config(root)
    data_dir = root / "data"
    train_dir = root / "run"
    assert main(["gen-data", "--config", cfg, "--out", str(data_dir)]) == 0
    assert main(["train", "--config", cfg, "--data", str(data_dir),
                 "--out", str(train_dir)]) == 0
    return root, cfg, data_dir, train_dir


def test_gen_data_is_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    assert main(["gen-data", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["gen-data", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("train.jsonl", "test.jsonl", "truth.json", "resolved.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_gen_data_creates_missing_out_dir(tmp_path):
    cfg = write_config(tmp_path)
    nested = tmp_path / "does" / "not" / "exist"
    assert main(["gen-data", "--config", cfg, "--out", str(nested)]) == 0
    assert (nested / "train.jsonl").exists()


def test_gen_data_row_counts_match_config(pipeline):
    _, _, data_dir, _ = pipeline
    n_train = len((data_dir / "train.jsonl").read_text().splitlines())
    n_test = len((data_dir / "test.jsonl").read_text().splitlines())
    assert n_train == TINY_CONFIG["data"]["n_impressions"]
    assert n_test == TINY_CONFIG["data"]["n_test_impressions"]


def test_train_writes_checkpoint_and_history(pipeline):
    _, _, _, train_dir = pipeline
    assert (train_dir / "checkpoint" / "params.jsonl").exists()
    assert (train_dir / "checkpoint" / "model.json").exists()
    history = read_csv(train_dir / "history.csv")
    assert len(history) == TINY_CONFIG["train"]["epochs"]
    assert list(history[0].keys()) == ["epoch", "train_loss", "ctr_auc", "cvr_auc"]


def test_history_timestamps_confined_to_log(pipeline):
    _, _, _, train_dir = pipeline
    assert (train_dir / "run.log").exists()
    # outputs stay timestamp-free; rerunning under the same seed is tested below
    for name in ("history.csv", "resolved.json"):
        content = (train_dir / name).read_text()
        assert "202" not in content.split("\n")[0] or name == "resolved.json"


def test_train_run_reproducible_byte_identical(pipeline, tmp_path):
    root, cfg, data_dir, train_dir = pipeline
    again = tmp_path / "again"
    assert main(["train", "--config", cfg, "--data", str(data_dir),
                 "--out", str(again)]) == 0
    assert ((train_dir / "history.csv").read_bytes()
            == (again / "history.csv").read_bytes())
    assert ((train_dir / "checkpoint" / "params.jsonl").read_bytes()
            == (again / "checkpoint" / "params.jsonl").read_bytes())


def test_resolved_config_refeeds_identically(pipeline, tmp_path):
    _, _, data_dir, train_dir = pipeline
    refed = tmp_path / "refed"
    assert main(["train", "--config", str(train_dir / "resolved.json"),
                 "--data", str(data_dir), "--out", str(refed)]) == 0
    assert ((train_dir / "history.csv").read_bytes()
            == (refed / "history.csv").read_bytes())
    assert ((train_dir / "resolved.json").read_bytes()
            == (refed / "resolved.json").read_bytes())


def test_eval_writes_report_and_is_stable(pipeline, tmp_path):
    _, cfg, data_dir, train_dir = pipeline
    out1, out2 = tmp_path / "e1", tmp_path / "e2"
    for out in (out1, out2):
        assert main(["eval", "--config", cfg, "--data", str(data_dir),
                     "--ckpt", str(train_dir / "checkpoint"),
                     "--out", str(out)]) == 0
    rows = read_csv(out1 / "report.csv")
    assert {r["task"] for r in rows} == {"ctr", "cvr"}
    for r in rows:
        assert 0.0 <= float(r["auc"]) <= 1.0
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()


def _broken_checkpoint(train_dir, tmp_path, break_it):
    ckpt = tmp_path / "ckpt"
    shutil.copytree(train_dir / "checkpoint", ckpt)
    break_it(ckpt)
    return ckpt


def _drop_kind(ckpt):
    meta = json.loads((ckpt / "model.json").read_text())
    del meta["kind"]
    (ckpt / "model.json").write_text(json.dumps(meta))


def _drop_tasks(ckpt):
    meta = json.loads((ckpt / "model.json").read_text())
    del meta["tasks"]
    (ckpt / "model.json").write_text(json.dumps(meta))


def _drop_last_param(ckpt):
    lines = (ckpt / "params.jsonl").read_text().splitlines(keepends=True)
    (ckpt / "params.jsonl").write_text("".join(lines[:-1]))


def _reshape_first_param(ckpt):
    lines = (ckpt / "params.jsonl").read_text().splitlines(keepends=True)
    record = json.loads(lines[0])
    record["shape"] = record["shape"][::-1] + [1]
    (ckpt / "params.jsonl").write_text(json.dumps(record) + "\n" + "".join(lines[1:]))


def _per_field_user_tables(ckpt):
    """Rewrite the stacked ``user_embed`` table as one ``user_embed.<field>`` table per field."""
    fields = json.loads((ckpt / "model.json").read_text())["config"]["user_fields"]
    lines = []
    for line in (ckpt / "params.jsonl").read_text().splitlines():
        record = json.loads(line)
        if record["name"] != "user_embed":
            lines.append(line)
            continue
        table, start = dg.decode_array(record), 0
        for name, vocab in fields:
            lines.append(json.dumps({"name": f"user_embed.{name}",
                                     **dg.encode_array(table[start:start + vocab])}))
            start += vocab
    assert len(lines) > len(fields)
    (ckpt / "params.jsonl").write_text("\n".join(lines) + "\n")


def _per_task_tables(ckpt):
    """Rewrite each task-stacked parameter as one ``<group>.<task>.<rest>`` parameter per
    task, with the per-task shapes of that layout (``b [d]``, a scalar ``temperature``)."""
    lines = []
    for line in (ckpt / "params.jsonl").read_text().splitlines():
        record = json.loads(line)
        group, _, rest = record["name"].partition(".")
        if group not in ("tag_tower", "gate", "temperature"):
            lines.append(line)
            continue
        stacked = dg.decode_array(record)
        for task, values in zip(("ctr", "cvr"), stacked):
            name = ".".join(filter(None, (group, task, rest)))
            values = values.reshape(-1) if name.endswith(".b") else values
            lines.append(json.dumps({"name": name, **dg.encode_array(values)}))
    assert any('"temperature.cvr"' in line for line in lines)
    (ckpt / "params.jsonl").write_text("\n".join(lines) + "\n")


def _drop_model_json(ckpt):
    (ckpt / "model.json").unlink()


def _config_value(key, value):
    """A ``break_it`` that sets ``model.json``'s ``config[key]`` to ``value``."""
    def break_it(ckpt):
        meta = json.loads((ckpt / "model.json").read_text())
        meta["config"][key] = value
        (ckpt / "model.json").write_text(json.dumps(meta))
    return break_it


@pytest.mark.parametrize("break_it, names", [
    (_drop_kind, "model.json"),
    (_drop_last_param, "params.jsonl"),
    (_reshape_first_param, "params.jsonl"),
    (_per_field_user_tables, "user_embed"),
    (_per_task_tables, "gate.ctr."),
    (_config_value("tau_init", "nan"), "model.json: field 'tau_init'"),
    (_config_value("ctr_experts", [0.0, 1.0, 2.0]), "model.json: field 'ctr_experts'"),
    (_config_value("embed_dim", 8.9), "model.json: field 'embed_dim'"),
    (_config_value("bogus", 1), "model.json: unknown fields ['bogus']"),
    (_config_value("head_hidden", -3), "model.json: field 'head_hidden'"),
    (_drop_model_json, "no model.json under"),
    (_drop_tasks, "model.json has no key 'tasks'"),
])
def test_eval_on_broken_checkpoint_is_data_error(pipeline, tmp_path, capsys,
                                                 break_it, names):
    _, cfg, data_dir, train_dir = pipeline
    ckpt = _broken_checkpoint(train_dir, tmp_path, break_it)
    code = main(["eval", "--config", cfg, "--data", str(data_dir),
                 "--ckpt", str(ckpt), "--out", str(tmp_path / "e")])
    assert code == 2
    assert names in capsys.readouterr().err


def _nan_temperature(ckpt):
    lines = (ckpt / "params.jsonl").read_text().splitlines()
    for i, line in enumerate(lines):
        record = json.loads(line)
        if record["name"] == "temperature":
            value = dg.decode_array(record)
            value[...] = float("nan")
            lines[i] = json.dumps({"name": record["name"], **dg.encode_array(value)})
    (ckpt / "params.jsonl").write_text("\n".join(lines) + "\n")


def test_eval_on_non_finite_checkpoint_is_data_error(pipeline, tmp_path, capsys):
    _, cfg, data_dir, train_dir = pipeline
    ckpt = _broken_checkpoint(train_dir, tmp_path, _nan_temperature)
    code = main(["eval", "--config", cfg, "--data", str(data_dir),
                 "--ckpt", str(ckpt), "--out", str(tmp_path / "e")])
    assert code == 2
    err = capsys.readouterr().err
    assert "params.jsonl" in err and "'temperature'" in err and "non-finite" in err


def test_checkpoint_commands_compute_in_the_checkpoint_precision(pipeline, tmp_path):
    """An f32 checkpoint run with ``--precision f64`` gives the f32 run's outputs."""
    _, _, data_dir, _ = pipeline
    cfg = write_config(tmp_path, {"precision": "f32"})
    train_dir = tmp_path / "run32"
    assert main(["train", "--config", cfg, "--data", str(data_dir),
                 "--out", str(train_dir)]) == 0
    ckpt = str(train_dir / "checkpoint")
    outputs = {}
    for flags in ([], ["--precision", "f64"]):
        key = tuple(flags)
        base = tmp_path / ("p64" if flags else "p32")
        common = ["--config", cfg, "--ckpt", ckpt, *flags]
        assert main(["predict", *common, "--data", str(data_dir),
                     "--out", str(base / "predict")]) == 0
        assert main(["eval", *common, "--data", str(data_dir),
                     "--out", str(base / "eval")]) == 0
        assert main(["export-attention", *common, "--out", str(base / "weights")]) == 0
        index = json.loads((base / "predict" / "caches" / "user_cache.json").read_text())
        assert index["dtype"] == "f32"
        outputs[key] = [(base / sub).read_bytes() for sub in (
            "predict/assignments.csv", "predict/caches/user_cache.bin",
            "eval/report.csv", "weights/weights.csv")]
    assert outputs[()] == outputs[("--precision", "f64")]


def test_export_attention_rows_sum_to_one(pipeline, tmp_path):
    _, cfg, _, train_dir = pipeline
    out = tmp_path / "weights"
    assert main(["export-attention", "--config", cfg,
                 "--ckpt", str(train_dir / "checkpoint"), "--out", str(out)]) == 0
    rows = read_csv(out / "weights.csv")
    assert len(rows) == 2 * TINY_CONFIG["data"]["n_tags"]
    for row in rows:
        weights = [float(row[k]) for k in row if k.startswith("expert_") and row[k]]
        assert sum(weights) == pytest.approx(1.0, abs=1e-6)
        assert len(weights) == (3 if row["task"] == "ctr" else 4)


def test_predict_idempotent_and_caches(pipeline, tmp_path):
    _, cfg, data_dir, train_dir = pipeline
    out1, out2 = tmp_path / "p1", tmp_path / "p2"
    for out in (out1, out2):
        assert main(["predict", "--config", cfg, "--data", str(data_dir),
                     "--ckpt", str(train_dir / "checkpoint"),
                     "--out", str(out)]) == 0
    assert ((out1 / "assignments.csv").read_bytes()
            == (out2 / "assignments.csv").read_bytes())
    assert (out1 / "caches" / "user_cache.bin").exists()
    rows = read_csv(out1 / "assignments.csv")
    per_user_task: dict = {}
    for r in rows:
        per_user_task.setdefault((r["user_id"], r["task"]), []).append(int(r["rank"]))
    for ranks in per_user_task.values():
        assert ranks == list(range(1, TINY_CONFIG["serve"]["topk"] + 1))


def test_predict_topk_zero_is_usage_error(pipeline, tmp_path):
    _, cfg, data_dir, train_dir = pipeline
    code = main(["predict", "--config", cfg, "--data", str(data_dir),
                 "--ckpt", str(train_dir / "checkpoint"),
                 "--out", str(tmp_path / "p0"), "--topk", "0"])
    assert code == 1


def test_bench_csv_has_count_columns(pipeline, tmp_path):
    _, cfg, data_dir, train_dir = pipeline
    out = tmp_path / "bench"
    assert main(["bench", "--config", cfg, "--data", str(data_dir),
                 "--ckpt", str(train_dir / "checkpoint"), "--out", str(out)]) == 0
    rows = read_csv(out / "bench.csv")
    row = rows[0]
    n_u, n_t = 8, 5
    assert int(row["naive_user_tower"]) == n_u * n_t * 2
    assert int(row["cached_user_tower"]) == n_u
    assert int(row["cached_tag_tower"]) == n_t * 2


def test_sweep_emits_requested_counts(pipeline, tmp_path):
    root, _, data_dir, _ = pipeline
    cfg = write_config(root, {"data": {"n_impressions": 400},
                              "train": {"epochs": 1}})
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--data", str(data_dir),
                 "--out", str(out)]) == 0
    rows = read_csv(out / "sweep.csv")
    assert [int(r["n_experts"]) for r in rows] == [4, 5]


def test_mode_flag_controls_model_kind(pipeline, tmp_path, capsys):
    _, cfg, data_dir, _ = pipeline
    out = tmp_path / "nomtl"
    assert main(["train", "--config", cfg, "--data", str(data_dir),
                 "--out", str(out), "--mode", "noMTL-ctr"]) == 0
    meta = json.loads((out / "checkpoint" / "model.json").read_text())
    assert meta["kind"] == "two_tower"
    assert meta["tasks"] == ["ctr"]
    history = read_csv(out / "history.csv")
    assert history[0]["cvr_auc"] == ""
    for command in ("predict", "bench", "export-attention"):
        data = [] if command == "export-attention" else ["--data", str(data_dir)]
        capsys.readouterr()
        assert main([command, "--config", cfg, *data, "--ckpt", str(out / "checkpoint"),
                     "--out", str(tmp_path / command)]) == 1
        assert f"{command} needs a mixture checkpoint" in capsys.readouterr().err


def test_a_single_task_mixture_is_reported_and_served_for_its_task_alone(pipeline, tmp_path):
    _, cfg, data_dir, _ = pipeline
    ckpt = str(tmp_path / "run" / "checkpoint")
    assert main(["train", "--config", cfg, "--data", str(data_dir),
                 "--out", str(tmp_path / "run"), "--mode", "mvke-st-cvr"]) == 0
    meta = json.loads((tmp_path / "run" / "checkpoint" / "model.json").read_text())
    assert (meta["kind"], meta["tasks"]) == ("mvke", ["cvr"])
    for command in ("eval", "predict", "export-attention", "bench"):
        data = [] if command == "export-attention" else ["--data", str(data_dir)]
        assert main([command, "--config", cfg, *data, "--ckpt", ckpt,
                     "--out", str(tmp_path / command)]) == 0
    report = read_csv(tmp_path / "eval" / "report.csv")
    assert [(r["model"], r["task"]) for r in report] == [("mvke-st-cvr", "cvr")]
    for path in ("predict/assignments.csv", "export-attention/weights.csv"):
        assert {r["task"] for r in read_csv(tmp_path / path)} == {"cvr"}, path
    assert sorted(p.name for p in (tmp_path / "predict" / "caches").iterdir()) == [
        "tag_cache_cvr.bin", "tag_cache_cvr.json", "user_cache.bin", "user_cache.json"]
    bench = read_csv(tmp_path / "bench" / "bench.csv")[0]
    assert (bench["n_tasks"], bench["cached_tag_tower"]) == ("1", "5")


def test_eval_labels_the_report_from_the_checkpoint_not_the_config(pipeline, tmp_path):
    _, _, data_dir, train_dir = pipeline
    nomtl = tmp_path / "nomtl"
    assert main(["train", "--config", write_config(tmp_path, {"mode": "noMTL-ctr"}),
                 "--data", str(data_dir), "--out", str(nomtl)]) == 0
    cfg = write_config(tmp_path, {"mode": "noMTL-cvr", "seed": 7})
    for ckpt, mode, tasks in ((train_dir, "mvke-mt", ["ctr", "cvr"]),
                              (nomtl, "noMTL-ctr", ["ctr"])):
        out = tmp_path / mode
        assert main(["eval", "--config", cfg, "--data", str(data_dir),
                     "--ckpt", str(ckpt / "checkpoint"), "--out", str(out)]) == 0
        rows = read_csv(out / "report.csv")
        assert [(r["model"], r["seed"], r["task"]) for r in rows] == [
            (mode, "7", task) for task in tasks]


def test_eval_has_no_mode_flag(pipeline, tmp_path, capsys):
    _, cfg, data_dir, train_dir = pipeline
    assert main(["eval", "--config", cfg, "--data", str(data_dir),
                 "--ckpt", str(train_dir / "checkpoint"), "--out", str(tmp_path),
                 "--mode", "noMTL-ctr"]) == 1
    assert "unrecognized arguments: --mode noMTL-ctr" in capsys.readouterr().err


def test_multi_task_training_without_a_shared_expert_is_a_config_error(pipeline, tmp_path,
                                                                        capsys):
    _, _, data_dir, _ = pipeline
    cfg = write_config(tmp_path, {"model": {"n_experts": 4, "ctr_experts": [0, 1],
                                            "cvr_experts": [2, 3]}})
    assert main(["train", "--config", cfg, "--data", str(data_dir),
                 "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "shared expert" in err
    assert not (tmp_path / "run" / "checkpoint").exists()


def test_sweep_in_a_single_task_mode_leaves_the_other_tasks_cells_empty(pipeline, tmp_path):
    _, _, data_dir, _ = pipeline
    cfg = write_config(tmp_path, {"mode": "noMTL-cvr", "eval": {"sweep_counts": [4]}})
    assert main(["sweep", "--config", cfg, "--data", str(data_dir),
                 "--out", str(tmp_path / "sweep")]) == 0
    (row,) = read_csv(tmp_path / "sweep" / "sweep.csv")
    assert row["n_experts"] == "4" and row["ctr_auc"] == "" and 0 <= float(row["cvr_auc"]) <= 1


def test_vke_count_flag_overrides_routing(pipeline, tmp_path):
    _, cfg, data_dir, _ = pipeline
    out = tmp_path / "k7"
    assert main(["train", "--config", cfg, "--data", str(data_dir),
                 "--out", str(out), "--vke-count", "7"]) == 0
    meta = json.loads((out / "checkpoint" / "model.json").read_text())
    assert meta["config"]["n_experts"] == 7


def test_missing_data_dir_is_data_error(pipeline, tmp_path):
    _, cfg, _, _ = pipeline
    code = main(["train", "--config", cfg, "--data", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "out")])
    assert code == 2


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_training_without_the_test_split_is_a_data_error_naming_it(pipeline, tmp_path, capsys,
                                                                    command):
    _, cfg, data_dir, _ = pipeline
    only_train = tmp_path / "data"
    only_train.mkdir()
    shutil.copy(data_dir / "train.jsonl", only_train)
    capsys.readouterr()
    assert main([command, "--config", cfg, "--data", str(only_train),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "test.jsonl" in err and "train.jsonl" not in err


def test_eval_predict_and_bench_read_only_the_test_split(pipeline, tmp_path):
    """``eval``, ``predict`` and ``bench`` need only ``test.jsonl`` and write the same files."""
    _, cfg, data_dir, train_dir = pipeline
    only_test = tmp_path / "only_test"
    only_test.mkdir()
    shutil.copy(data_dir / "test.jsonl", only_test)
    outputs = {}
    for data in (data_dir, only_test):
        base = tmp_path / data.name
        for command in ("eval", "predict", "bench"):
            assert main([command, "--config", cfg, "--data", str(data),
                         "--ckpt", str(train_dir / "checkpoint"),
                         "--out", str(base / command)]) == 0
        bench = [{k: v for k, v in row.items() if not k.endswith(("seconds", "speedup"))}
                 for row in read_csv(base / "bench" / "bench.csv")]
        outputs[data] = [bench] + [(base / sub).read_bytes() for sub in (
            "eval/report.csv", "predict/assignments.csv", "predict/caches/user_cache.bin",
            "predict/caches/tag_cache_ctr.bin", "predict/caches/tag_cache_cvr.bin")]
    assert outputs[data_dir] == outputs[only_test]


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_main_restores_the_precision_it_found(pipeline, tmp_path, command):
    _, cfg, data_dir, _ = pipeline
    for found, run in (("f32", "f64"), ("f64", "f32")):
        with dg.precision(found):
            assert main([command, "--config", cfg, "--data", str(data_dir),
                         "--precision", run, "--out", str(tmp_path / run)]) == 0
            assert dg.dtype_name(dg.Tensor([1.0]).data) == found


def test_main_restores_the_log_level_it_found(tmp_path, monkeypatch):
    monkeypatch.setenv("MVKE_LOG_LEVEL", "debug")
    logger = logging.getLogger("mvke")
    before = logger.level
    try:
        for found in (logging.NOTSET, logging.WARNING):
            logger.setLevel(found)
            assert main(["gen-data", "--config", write_config(tmp_path),
                         "--out", str(tmp_path / str(found))]) == 0
            assert logger.level == found
    finally:
        logger.setLevel(before)


@pytest.mark.parametrize("count, split, command, where", [
    (5, "train", "train", "training split"),
    (7, "train", "train", "training split"),
    (5, "test", "train", "validation split"),
    (7, "test", "eval", "evaluation split"),
])
def test_a_row_with_the_wrong_field_count_is_a_data_error_naming_its_split(
        pipeline, tmp_path, capsys, count, split, command, where):
    _, cfg, data_dir, train_dir = pipeline
    bad = tmp_path / "data"
    shutil.copytree(data_dir, bad)
    lines = (bad / f"{split}.jsonl").read_text().splitlines()
    doc = json.loads(lines[3])
    doc["fields"] = (doc["fields"] + [0])[:count]
    lines[3] = json.dumps(doc)
    (bad / f"{split}.jsonl").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    ckpt = ["--ckpt", str(train_dir / "checkpoint")] if command == "eval" else []
    code = main([command, "--config", cfg, "--data", str(bad), *ckpt,
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert (f"{where}: row 3 has {count} user fields, the schema has 6"
            in capsys.readouterr().err)


@pytest.mark.parametrize("content, message", [
    ("{not json", "is not valid JSON"),
    (None, "config file not found"),
    ("[1, 2]", "must hold a JSON object"),
], ids=["not-json", "missing", "array"])
def test_bad_config_file_is_config_error(tmp_path, capsys, content, message):
    """``content`` None: the file does not exist."""
    path = tmp_path / "bad.json"
    if content is not None:
        path.write_text(content)
    assert main(["gen-data", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert message in err and str(path) in err


def test_seed_flag_overrides_the_config_seed(tmp_path):
    """``--seed 7`` draws the data of a config holding seed 7, not the config's seed 3."""
    drawn = {}
    for name, extra, flags in (("flag", None, ["--seed", "7"]), ("file", {"seed": 7}, []),
                               ("config", None, [])):
        run = tmp_path / name
        run.mkdir()
        assert main(["gen-data", "--config", write_config(run, extra), *flags,
                     "--out", str(run / "data")]) == 0
        drawn[name] = (run / "data" / "train.jsonl").read_bytes()
    assert json.loads((tmp_path / "flag" / "data" / "resolved.json").read_text())["seed"] == 7
    assert drawn["flag"] == drawn["file"] != drawn["config"]


@pytest.mark.parametrize("label", ["click", "conv"])
def test_a_label_of_2_is_a_data_error_naming_the_file_and_line(pipeline, tmp_path, capsys, label):
    _, cfg, data_dir, train_dir = pipeline
    bad = tmp_path / "data"
    shutil.copytree(data_dir, bad)
    lines = (bad / "test.jsonl").read_text().splitlines()
    lines[3] = json.dumps({**json.loads(lines[3]), label: 2})
    (bad / "test.jsonl").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["eval", "--config", cfg, "--data", str(bad),
                 "--ckpt", str(train_dir / "checkpoint"), "--out", str(tmp_path / "out")]) == 2
    assert "test.jsonl: malformed dataset line 4: labels must be 0/1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_a_test_split_without_conversions_is_a_data_error_naming_the_file_and_task(
        pipeline, tmp_path, capsys, command):
    _, cfg, data_dir, train_dir = pipeline
    bad = tmp_path / "data"
    shutil.copytree(data_dir, bad)
    lines = (bad / "test.jsonl").read_text().splitlines()
    (bad / "test.jsonl").write_text(
        "".join(json.dumps({**json.loads(line), "conv": 0}) + "\n" for line in lines))
    capsys.readouterr()
    ckpt = ["--ckpt", str(train_dir / "checkpoint")] if command == "eval" else []
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--data", str(bad), *ckpt, "--out", str(out)]) == 2
    split = "validation split" if command == "train" else "evaluation split"
    assert (f"{bad / 'test.jsonl'}: {split}: cvr labels are all 0 in its {len(lines)} rows"
            in capsys.readouterr().err)
    assert not (out / "checkpoint").exists() and not (out / "report.csv").exists()


def test_unknown_mode_is_config_error(tmp_path):
    cfg = write_config(tmp_path, {"mode": "warp-drive"})
    code = main(["gen-data", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 1


@pytest.mark.parametrize("command, extra, field", [
    ("train", {"model": {"n_experts": "x"}}, "n_experts"),
    ("train", {"model": {"ctr_experts": 5}}, "ctr_experts"),
    ("predict", {"serve": {"topk": "x"}}, "topk"),
    ("bench", {"serve": {"bench_sizes": [[8, 5, 1]]}}, "bench_sizes"),
    ("train", {"train": {"batch_size": 2.5}}, "batch_size"),
    ("train", {"train": {"batch_size": True}}, "batch_size"),
    ("train", {"train": {"epochs": 1.5}}, "epochs"),
    ("train", {"train": {"seed": 4}}, "seed"),
    ("gen-data", {"seed": "x"}, "seed"),
    ("gen-data", {"data": {"n_users": 2.5}}, "n_users"),
    ("gen-data", {"data": {"n_user": 250}}, "n_user"),
    ("sweep", {"eval": {"sweep_counts": ["x"]}}, "sweep_counts"),
    ("predict", {"serve": {"topk": 2.5}}, "topk"),
    ("predict --topk 3", {"serve": 5}, "serve"),
    ("train --vke-count 4", {"model": 5}, "model"),
    ("train", {"train": {"learning_rate": True}}, "learning_rate"),
    ("gen-data", {"data": {"click_offset": "1e-3"}}, "click_offset"),
    ("train", {"model": {"tau_init": "nan"}}, "tau_init"),
    ("train", {"train": {"learning_rate": float("nan")}}, "learning_rate"),
    ("train", {"train": {"beta1": 10**400}}, "beta1"),
    ("train", {"model": {"embed_dimm": 4, "n_expert": 9}}, "['embed_dimm', 'n_expert']"),
    ("train", {"model": {"tag_vocab_size": 16}}, "tag_vocab_size"),
    ("train", {"model": {"embed_dim": 8.0}}, "embed_dim"),
    ("sweep", {"eval": {"extra": 1}}, "extra"),
    ("predict", {"serve": {"bogus": 2}}, "bogus"),
    ("gen-data", {"sead": 5, "modle": {}}, "['modle', 'sead']"),
    ("train", {"model": "x"}, "model section: expected an object"),
    ("gen-data", {"seed": -1}, "seed"),
    ("eval", {"precision": "f16"}, "precision"),
    ("bench", {"serve": {"bench_sizes": [[-1, 5]]}}, "bench size (-1, 5)"),
    ("train", {"model": {"head_hidden": -3}}, "head_hidden"),
    ("MVKE_LOG_LEVEL=bogus gen-data", {}, "MVKE_LOG_LEVEL"),
    ("gen-data --out config.json/o", {}, "--out config.json/o"),
    ("gen-data", {"data": {"n_tags": 2}}, "n_tags"),
    ("gen-data --seed -1", {}, "field 'seed'"),
    ("train", {"train": {"beta1": 1.0}}, "beta1"),
    ("train", {"train": {"beta2": 1.0}}, "beta2"),
    ("train", {"train": {"beta1": -0.5}}, "beta1"),
])
def test_bad_config_value_is_config_error(pipeline, tmp_path, capsys, monkeypatch,
                                          command, extra, field):
    """``command`` is any ``NAME=value`` environment settings, the subcommand, then any
    flags it runs with; a relative path in them starts at ``tmp_path``."""
    _, _, data_dir, train_dir = pipeline
    words = command.split()
    while "=" in words[0]:
        monkeypatch.setenv(*words.pop(0).split("=", 1))
    command, *flags = words
    monkeypatch.chdir(tmp_path)
    argv = [command, "--config", write_config(tmp_path, extra),
            "--out", str(tmp_path / "o"), *flags]
    if command != "gen-data":
        argv += ["--data", str(data_dir)]
    if command not in ("gen-data", "train", "sweep"):
        argv += ["--ckpt", str(train_dir / "checkpoint")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err and field in err and "Traceback" not in err


BUILT_IN_DEFAULTS = {
    "seed": 0, "precision": "f32", "mode": "mvke-mt",
    "data": {"n_users": 10_000, "n_tags": 100, "n_ads": 2_000, "n_impressions": 200_000,
             "n_test_impressions": 40_000, "latent_dim": 8, "n_facets": 1,
             "negative_ratio": 1, "click_offset": 0.9, "conv_offset": -2.1,
             "affinity_scale": 4.0},
    "model": {"embed_dim": 16, "n_experts": 5, "ctr_experts": [0, 1, 2],
              "cvr_experts": [1, 2, 3, 4], "head_hidden": 0, "tau_init": 5.0},
    "train": {"epochs": 10, "batch_size": 256, "learning_rate": 1e-3, "beta1": 0.9,
              "beta2": 0.999, "eps": 1e-8},
    "eval": {"sweep_counts": [4, 5, 6, 7, 8, 9, 10]},
    "serve": {"topk": 10, "bench_sizes": [[200, 50], [400, 50]]},
}


def test_gen_data_without_config_resolves_the_documented_defaults(tmp_path, monkeypatch):
    """The defaults the config sections derive from the dataclasses keep their values.

    ``resolved.json`` is written before generation, so the generator is stubbed
    out rather than run at default scale.
    """
    seen = []

    def stub(gen_cfg):
        seen.append(gen_cfg)
        raise mvke.errors.DataError("generation stubbed out")

    monkeypatch.setattr(mvke.data, "generate", stub)
    assert main(["gen-data", "--out", str(tmp_path)]) == 2
    assert json.loads((tmp_path / "resolved.json").read_text()) == BUILT_IN_DEFAULTS
    assert seen == [mvke.data.GeneratorConfig()]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # training overflows on purpose
def test_divergence_exits_3(tmp_path):
    cfg = write_config(tmp_path, {"train": {"learning_rate": 1e155, "epochs": 1}})
    data_dir = tmp_path / "data"
    assert main(["gen-data", "--config", cfg, "--out", str(data_dir)]) == 0
    code = main(["train", "--config", cfg, "--data", str(data_dir),
                 "--out", str(tmp_path / "boom")])
    assert code == 3


def test_every_command_of_the_readme_usage_block_parses():
    """A flag the CLI no longer has cannot stay documented."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    commands = [line.split()[1:] for line in block.splitlines() if line.startswith("mvke ")]
    assert len(commands) == 7
    parser = build_parser()
    for argv in commands:
        assert parser.parse_args(argv).command == argv[0]


def test_usage_error_exits_nonzero():
    assert main(["no-such-command"]) == 1
    assert main([]) == 1


def test_module_run_reaches_the_cli():
    src = str(Path(mvke.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "mvke.cli", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stdout.startswith("usage: mvke")
