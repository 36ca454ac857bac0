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
import dataclasses
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
from .model import (ModelConfig, MvkeModel, Task, TwoTowerModel, _float, _int, _ints, _read,
                    five_expert_routing, load_model, save_model, split_routing)
from .train import TrainConfig, fit, sensitivity_sweep

log = logging.getLogger("mvke")

# CLI mode -> (training mode, task of the two-tower baseline or None for the mixture)
MODES = {
    "noMTL-ctr": ("ctr-only", Task.CTR),
    "noMTL-cvr": ("cvr-only", Task.CVR),
    "mvke-st-ctr": ("ctr-only", None),
    "mvke-st-cvr": ("cvr-only", None),
    "mvke-mt": ("multi", None),
}

PRECISIONS = ("f32", "f64")

# model fields that the data section decides, not the model section
DATA_FIELDS = ("user_fields", "tag_vocab_size")


def _defaults(cls, *fixed) -> dict:
    """The default of each field of dataclass ``cls`` but those in ``fixed``."""
    return {f.name: f.default for f in dataclasses.fields(cls) if f.name not in fixed}


def _model_fields(gen_cfg: data_mod.GeneratorConfig) -> dict:
    """``to_dict`` of the default model for the data of ``gen_cfg``."""
    return ModelConfig(data_mod.schema_for(gen_cfg), five_expert_routing()).to_dict()


# Every default comes from the dataclasses and functions that own it; the keys
# of this document are the config schema.
DEFAULT_CONFIG: dict = {
    "seed": 0,
    "precision": "f32",
    "mode": "mvke-mt",
    "data": _defaults(data_mod.GeneratorConfig, "seed"),
    "model": {key: value for key, value in _model_fields(data_mod.GeneratorConfig()).items()
              if key not in DATA_FIELDS},
    "train": _defaults(TrainConfig, "seed", "mode"),
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
    """defaults < config file < explicit flags; ConfigError for a key
    ``DEFAULT_CONFIG`` lacks, at the top level or in a section."""
    resolved = copy.deepcopy(DEFAULT_CONFIG)
    if config_path:
        path = Path(config_path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            file_cfg = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file {path} is not valid JSON: {e}") from e
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        resolved = _deep_merge(resolved, file_cfg)
    for where, given, schema in [("config", resolved, DEFAULT_CONFIG)] + [
            (f"{section} section", _object(resolved, section), fields)
            for section, fields in DEFAULT_CONFIG.items() if isinstance(fields, dict)]:
        unknown = sorted(given.keys() - schema.keys())
        if unknown:
            raise ConfigError(f"bad {where}: unknown fields {unknown}")
    if getattr(args, "seed", None) is not None:
        resolved["seed"] = args.seed
    if getattr(args, "precision", None) is not None:
        resolved["precision"] = args.precision
    if getattr(args, "mode", None) is not None:
        resolved["mode"] = args.mode
    if getattr(args, "vke_count", None) is not None:
        k = args.vke_count
        routing = split_routing(k)
        resolved["model"].update(n_experts=k, ctr_experts=list(routing.ctr_experts),
                                 cvr_experts=list(routing.cvr_experts))
    if getattr(args, "topk", None) is not None:
        resolved["serve"]["topk"] = args.topk
    for key, allowed in (("mode", list(MODES)), ("precision", list(PRECISIONS))):
        if resolved[key] not in allowed:
            raise ConfigError(f"{key} must be one of {allowed}, got {resolved[key]!r}")
    resolved["seed"] = _read(resolved, "seed", _int, "bad config: ")
    if resolved["seed"] < 0:  # numpy refuses a negative seed
        raise ConfigError(f"bad config: field 'seed': must be >= 0, got {resolved['seed']}")
    return resolved


def _field(resolved: dict, section: str, key: str, convert):
    """``convert(resolved[section][key])``; ConfigError naming the section and field."""
    return _read(resolved[section], key, convert, f"bad {section} section: ")


def _object(resolved: dict, section: str) -> dict:
    """``resolved[section]``; ConfigError naming the section unless it is an object."""
    fields = resolved.get(section)
    if not isinstance(fields, dict):
        raise ConfigError(f"bad {section} section: expected an object, got {fields!r}")
    return fields


def _section(resolved: dict, section: str, cls, **fixed):
    """``cls(**fixed, **fields)``, each field of ``section`` read by ``_field``
    as the type ``cls`` declares for it (``int`` or ``float``)."""
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    convert = {"int": _int, "float": _float}
    return cls(**fixed, **{key: _field(resolved, section, key, convert[types[key]])
                           for key in resolved[section]})


def generator_config(resolved: dict) -> data_mod.GeneratorConfig:
    return _section(resolved, "data", data_mod.GeneratorConfig, seed=resolved["seed"])


def model_config(resolved: dict) -> ModelConfig:
    """``ModelConfig.from_dict`` of the model section plus the fields the data decides."""
    derived = _model_fields(generator_config(resolved))
    try:
        return ModelConfig.from_dict({**resolved["model"],
                                      **{key: derived[key] for key in DATA_FIELDS}})
    except ConfigError as e:
        raise ConfigError(f"bad model section: {e}") from e


def train_config(resolved: dict) -> TrainConfig:
    return _section(resolved, "train", TrainConfig, seed=resolved["seed"] + 2,
                    mode=MODES[resolved["mode"]][0])


def _prepare_out(resolved: dict, out_dir: str) -> Path:
    """``out_dir``, created, holding ``resolved.json`` and the run's ``run.log``;
    ConfigError naming ``--out`` or ``MVKE_LOG_LEVEL`` if either is unusable."""
    try:
        log.setLevel(os.environ.get("MVKE_LOG_LEVEL", "INFO").upper())
    except ValueError as e:
        raise ConfigError(f"bad environment variable MVKE_LOG_LEVEL: {e}") from e
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "resolved.json").write_text(
            json.dumps(resolved, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        handler = logging.FileHandler(out / "run.log")
    except OSError as e:
        raise ConfigError(f"bad --out {out_dir}: {e}") from e
    handler.setFormatter(logging.Formatter("%(asctime)s %(levelname)s %(message)s"))
    log.addHandler(handler)
    return out


def _read_split(args, split: str) -> list:
    """The rows of ``<--data>/<split>.jsonl``; DataError naming the file if it is missing."""
    path = Path(args.data) / f"{split}.jsonl"
    if not path.exists():
        raise DataError(f"no {path.name} under {path.parent}")
    return data_mod.read_dataset(path)


def _load_mixture(args) -> MvkeModel:
    """The ``--ckpt`` model; ConfigError unless it is a mixture."""
    model = load_model(args.ckpt)
    if model.kind != "mvke":
        raise ConfigError(f"{args.command} needs a mixture checkpoint, "
                          f"got a {model.kind} one from {args.ckpt}")
    return model


# ---------------------------------------------------------------------------
# subcommands: each takes the parsed flags, the resolved config and the
# prepared output directory


def cmd_gen_data(args, resolved: dict, out: Path) -> int:
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
    train_mode, baseline = MODES[resolved["mode"]]
    seed = resolved["seed"] + 1
    if baseline is not None:
        return TwoTowerModel(cfg, baseline, seed=seed)
    if train_mode == "multi":
        cfg.routing.check_multi_task()
    return MvkeModel(cfg, seed=seed)


def cmd_train(args, resolved: dict, out: Path) -> int:
    train_ds, test_ds = _read_split(args, "train"), _read_split(args, "test")
    with dg.precision(resolved["precision"]):
        model = build_model(resolved)
        tcfg = train_config(resolved)
        log.info("training %s in mode %s for %d epochs", model.kind,
                 resolved["mode"], tcfg.epochs)
        _, history = fit(model, train_ds, test_ds, tcfg)
    save_model(model, out / "checkpoint")
    eval_mod.write_csv(history, out / "history.csv")
    log.info("saved checkpoint and history")
    return 0


def cmd_eval(args, resolved: dict, out: Path) -> int:
    test_ds = _read_split(args, "test")
    model = load_model(args.ckpt)
    report = eval_mod.evaluate(model, test_ds, model_id=resolved["mode"],
                               seed=resolved["seed"])
    eval_mod.write_csv(report.rows(), out / "report.csv")
    log.info("report: %s", report.aucs)
    return 0


def cmd_sweep(args, resolved: dict, out: Path) -> int:
    counts = _field(resolved, "eval", "sweep_counts", _ints)
    train_ds, test_ds = _read_split(args, "train"), _read_split(args, "test")
    with dg.precision(resolved["precision"]):
        rows = sensitivity_sweep(counts, train_ds, test_ds, model_config(resolved),
                                 train_config(resolved), seed=resolved["seed"] + 1)
    eval_mod.write_csv(rows, out / "sweep.csv")
    return 0


def cmd_export_attention(args, resolved: dict, out: Path) -> int:
    model = _load_mixture(args)
    eval_mod.write_csv(eval_mod.export_gate_weights(model), out / "weights.csv")
    return 0


def cmd_predict(args, resolved: dict, out: Path) -> int:
    top_n = _field(resolved, "serve", "topk", _int)
    if top_n < 1:
        raise ConfigError("topk must be >= 1")
    test_ds = _read_split(args, "test")
    model = _load_mixture(args)
    users = data_mod.user_roster(test_ds)
    tags = list(range(model.cfg.schema.tag_vocab_size))
    caches = serve_mod.build_caches(model, users, tags)
    serve_mod.save_caches(caches, out / "caches")
    rows = []
    for task in model.tasks:
        rows.extend(serve_mod.assign_topk(caches, top_n, task).rows())
    eval_mod.write_csv(rows, out / "assignments.csv")
    log.info("cached %d users, %d tags; wrote assignments", len(users), len(tags))
    return 0


def cmd_bench(args, resolved: dict, out: Path) -> int:
    sizes = _field(resolved, "serve", "bench_sizes",
                   lambda pairs: [(_int(u), _int(t)) for u, t in pairs])
    test_ds = _read_split(args, "test")
    model = _load_mixture(args)
    users = data_mod.user_roster(test_ds)
    tags = list(range(model.cfg.schema.tag_vocab_size))
    rows = serve_mod.bench(model, users, tags, sizes)
    eval_mod.write_csv(rows, out / "bench.csv")
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
        p.add_argument("--precision", choices=PRECISIONS, default=None)
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
    level = log.level
    try:
        resolved = resolve_config(args.config, args)
        return args.func(args, resolved, _prepare_out(resolved, args.out))
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
        log.setLevel(level)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
