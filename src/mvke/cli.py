"""Command-line pipeline: gen-data, train, eval, sweep, export-attention,
predict, bench.

One JSON config document drives every subcommand; command-line flags
override file values, which override built-in defaults. The fully
resolved config is echoed into the output directory and can be re-fed as
``--config`` to reproduce a run. Exit codes: 0 success, 1 usage or config
error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import copy
import json
import logging
import os
import sys
from pathlib import Path

from . import data as data_mod
from . import diffgraph as dg
from . import evaluation as eval_mod
from . import serve as serve_mod
from .errors import ConfigError, DataError, MvkeError, NumericsError
from .model import (ExpertRouting, ModelConfig, MvkeModel, Task, TwoTowerModel,
                    five_expert_routing, load_model, model_precision, save_model,
                    split_routing)
from .train import TrainConfig, fit

log = logging.getLogger("mvke")

MODES = ("noMTL-ctr", "noMTL-cvr", "mvke-st-ctr", "mvke-st-cvr", "mvke-mt")

DEFAULT_CONFIG: dict = {
    "seed": 0,
    "precision": "f32",
    "mode": "mvke-mt",
    "data": {
        "n_users": 10_000,
        "n_tags": 100,
        "n_ads": 2_000,
        "n_impressions": 200_000,
        "n_test_impressions": 40_000,
        "latent_dim": 8,
        "n_facets": 1,
        "negative_ratio": 1,
        "click_offset": 0.9,
        "conv_offset": -2.1,
        "affinity_scale": 4.0,
    },
    "model": {
        "embed_dim": 16,
        "n_experts": 5,
        "ctr_experts": [0, 1, 2],
        "cvr_experts": [1, 2, 3, 4],
        "head_hidden": 0,
        "tau_init": 5.0,
    },
    "train": {
        "epochs": 10,
        "batch_size": 256,
        "learning_rate": 1e-3,
        "beta1": 0.9,
        "beta2": 0.999,
        "eps": 1e-8,
    },
    "eval": {
        "sweep_counts": [4, 5, 6, 7, 8, 9, 10],
    },
    "serve": {
        "topk": 10,
        "bench_sizes": [[200, 50], [400, 50]],
    },
}


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key in out and isinstance(out[key], dict) and isinstance(value, dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def resolve_config(config_path: str | None, args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags."""
    resolved = copy.deepcopy(DEFAULT_CONFIG)
    if config_path:
        path = Path(config_path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            file_cfg = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file is not valid JSON: {e}") from e
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        resolved = _deep_merge(resolved, file_cfg)
    if getattr(args, "seed", None) is not None:
        resolved["seed"] = args.seed
    if getattr(args, "precision", None) is not None:
        resolved["precision"] = args.precision
    if getattr(args, "mode", None) is not None:
        resolved["mode"] = args.mode
    if getattr(args, "vke_count", None) is not None:
        k = args.vke_count
        routing = split_routing(k)
        resolved["model"]["n_experts"] = k
        resolved["model"]["ctr_experts"] = list(routing.ctr_experts)
        resolved["model"]["cvr_experts"] = list(routing.cvr_experts)
    if getattr(args, "topk", None) is not None:
        resolved["serve"]["topk"] = args.topk
    if resolved["mode"] not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {resolved['mode']!r}")
    return resolved


def generator_config(resolved: dict) -> data_mod.GeneratorConfig:
    try:
        return data_mod.GeneratorConfig(seed=resolved["seed"], **resolved["data"])
    except TypeError as e:
        raise ConfigError(f"bad data section: {e}") from e


def _field(resolved: dict, section: str, key: str, convert):
    """``convert(resolved[section][key])``; ConfigError naming the section and field."""
    try:
        return convert(resolved[section][key])
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad {section} section: field {key!r}: {e}") from e


def model_config(resolved: dict) -> ModelConfig:
    gen_cfg = generator_config(resolved)

    def m(key, convert):
        return _field(resolved, "model", key, convert)

    schema = data_mod.schema_for(gen_cfg, embed_dim=m("embed_dim", int))
    routing = ExpertRouting(m("n_experts", int), m("ctr_experts", tuple),
                            m("cvr_experts", tuple))
    return ModelConfig(schema=schema, routing=routing,
                       head_hidden=m("head_hidden", int),
                       tau_init=m("tau_init", float))


def train_config(resolved: dict) -> TrainConfig:
    mode_map = {
        "noMTL-ctr": "ctr-only",
        "noMTL-cvr": "cvr-only",
        "mvke-st-ctr": "ctr-only",
        "mvke-st-cvr": "cvr-only",
        "mvke-mt": "multi",
    }
    try:
        return TrainConfig(seed=resolved["seed"] + 2,
                           mode=mode_map[resolved["mode"]],
                           **resolved["train"])
    except TypeError as e:
        raise ConfigError(f"bad train section: {e}") from e


def _prepare_out(resolved: dict, out_dir: str) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "resolved.json").write_text(
        json.dumps(resolved, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    handler = logging.FileHandler(out / "run.log")
    handler.setFormatter(logging.Formatter("%(asctime)s %(levelname)s %(message)s"))
    log.addHandler(handler)
    log.setLevel(os.environ.get("MVKE_LOG_LEVEL", "INFO").upper())
    return out


def _load_datasets(data_dir: str):
    base = Path(data_dir)
    train_path = base / "train.jsonl"
    test_path = base / "test.jsonl"
    if not train_path.exists() or not test_path.exists():
        raise DataError(f"expected train.jsonl and test.jsonl under {base}")
    return data_mod.read_dataset(train_path), data_mod.read_dataset(test_path)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args) -> int:
    resolved = resolve_config(args.config, args)
    out = _prepare_out(resolved, args.out)
    gen_cfg = generator_config(resolved)
    log.info("generating dataset: %s", gen_cfg)
    train, test, truth = data_mod.generate(gen_cfg)
    data_mod.write_dataset(train, out / "train.jsonl")
    data_mod.write_dataset(test, out / "test.jsonl")
    truth.save(out / "truth.json")
    log.info("wrote %d train rows, %d test rows", len(train), len(test))
    return 0


def build_model(resolved: dict):
    cfg = model_config(resolved)
    mode = resolved["mode"]
    seed = resolved["seed"] + 1
    if mode.startswith("noMTL"):
        task = Task.CTR if mode.endswith("ctr") else Task.CVR
        return TwoTowerModel(cfg, task, seed=seed)
    if mode == "mvke-mt":
        cfg.routing.check_multi_task()
    return MvkeModel(cfg, seed=seed)


def _load_checkpoint(args):
    """The model under ``--ckpt``, with the global precision set to the one it records."""
    model = load_model(Path(args.ckpt))
    dg.set_precision(model_precision(model))
    return model


def cmd_train(args) -> int:
    resolved = resolve_config(args.config, args)
    out = _prepare_out(resolved, args.out)
    dg.set_precision(resolved["precision"])
    train_ds, test_ds = _load_datasets(args.data)
    model = build_model(resolved)
    tcfg = train_config(resolved)
    log.info("training %s in mode %s for %d epochs", model.kind,
             resolved["mode"], tcfg.epochs)
    _, history = fit(model, train_ds, test_ds, tcfg)
    save_model(model, out / "checkpoint")
    eval_mod.write_csv(
        [{"epoch": h["epoch"], "train_loss": h["train_loss"],
          "ctr_auc": h["ctr_auc"], "cvr_auc": h["cvr_auc"]} for h in history],
        out / "history.csv",
        fieldnames=["epoch", "train_loss", "ctr_auc", "cvr_auc"])
    log.info("saved checkpoint and history")
    return 0


def cmd_eval(args) -> int:
    resolved = resolve_config(args.config, args)
    out = _prepare_out(resolved, args.out)
    _, test_ds = _load_datasets(args.data)
    model = _load_checkpoint(args)
    report = eval_mod.evaluate(model, test_ds, model_id=resolved["mode"],
                               seed=resolved["seed"])
    eval_mod.write_csv(report.rows(), out / "report.csv",
                       fieldnames=["model", "seed", "task", "auc", "n", "n_pos"])
    log.info("report: %s", report.aucs)
    return 0


def cmd_sweep(args) -> int:
    resolved = resolve_config(args.config, args)
    out = _prepare_out(resolved, args.out)
    dg.set_precision(resolved["precision"])
    train_ds, test_ds = _load_datasets(args.data)
    counts = [int(k) for k in resolved["eval"]["sweep_counts"]]
    rows = eval_mod.sensitivity_sweep(counts, train_ds, test_ds,
                                      model_config(resolved),
                                      train_config(resolved),
                                      seed=resolved["seed"] + 1)
    eval_mod.write_csv(rows, out / "sweep.csv",
                       fieldnames=["n_experts", "ctr_auc", "cvr_auc"])
    return 0


def cmd_export_attention(args) -> int:
    resolved = resolve_config(args.config, args)
    out = _prepare_out(resolved, args.out)
    model = _load_checkpoint(args)
    if model.kind != "mvke":
        raise ConfigError("gate-weight export needs a mixture checkpoint")
    rows = eval_mod.export_gate_weights(model)
    names = ["task", "tag_id"] + [f"expert_{e}" for e in range(model.cfg.routing.n_experts)]
    eval_mod.write_csv(rows, out / "weights.csv", fieldnames=names)
    return 0


def cmd_predict(args) -> int:
    resolved = resolve_config(args.config, args)
    top_n = _field(resolved, "serve", "topk", int)
    if top_n < 1:
        raise ConfigError("topk must be >= 1")
    out = _prepare_out(resolved, args.out)
    _, test_ds = _load_datasets(args.data)
    model = _load_checkpoint(args)
    if model.kind != "mvke":
        raise ConfigError("the cached prediction path needs a mixture checkpoint")
    users = data_mod.user_roster(test_ds)
    tags = list(range(model.cfg.schema.tag_vocab_size))
    caches = serve_mod.build_caches(model, users, tags)
    serve_mod.save_caches(caches, out / "caches")
    rows = []
    for task in model.tasks:
        rows.extend(serve_mod.assign_topk(caches, top_n, task).rows())
    eval_mod.write_csv(rows, out / "assignments.csv",
                       fieldnames=["user_id", "rank", "tag_id", "task", "score"])
    log.info("cached %d users, %d tags; wrote assignments", len(users), len(tags))
    return 0


def cmd_bench(args) -> int:
    resolved = resolve_config(args.config, args)
    out = _prepare_out(resolved, args.out)
    _, test_ds = _load_datasets(args.data)
    model = _load_checkpoint(args)
    if model.kind != "mvke":
        raise ConfigError("bench needs a mixture checkpoint")
    users = data_mod.user_roster(test_ds)
    tags = list(range(model.cfg.schema.tag_vocab_size))
    sizes = _field(resolved, "serve", "bench_sizes",
                   lambda pairs: [(int(u), int(t)) for u, t in pairs])
    rows = serve_mod.bench(model, users, tags, sizes)
    eval_mod.write_csv(rows, out / "bench.csv",
                       fieldnames=["n_users", "n_tags", "n_tasks",
                                   "naive_user_tower", "naive_tag_tower",
                                   "cached_user_tower", "cached_tag_tower",
                                   "naive_seconds", "cached_seconds", "speedup"])
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mvke",
                                     description="multi-task user tagging pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=False, ckpt=False):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--precision", choices=("f32", "f64"), default=None)
        if data:
            p.add_argument("--data", required=True, help="directory from gen-data")
        if ckpt:
            p.add_argument("--ckpt", required=True, help="checkpoint directory")

    p = sub.add_parser("gen-data", help="generate synthetic datasets")
    common(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model")
    common(p, data=True)
    p.add_argument("--mode", choices=MODES, default=None)
    p.add_argument("--vke-count", type=int, default=None,
                   help="override expert count with an auto split")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    common(p, data=True, ckpt=True)
    p.add_argument("--mode", choices=MODES, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="train once per expert count")
    common(p, data=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("export-attention", help="export per-tag gate weights")
    common(p, ckpt=True)
    p.set_defaults(func=cmd_export_attention)

    p = sub.add_parser("predict", help="build caches and assign top tags")
    common(p, data=True, ckpt=True)
    p.add_argument("--topk", type=int, default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("bench", help="compare naive and cached inference")
    common(p, data=True, ckpt=True)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericsError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except MvkeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        for handler in list(log.handlers):
            log.removeHandler(handler)
            handler.close()


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
