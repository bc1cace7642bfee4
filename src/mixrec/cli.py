"""Command-line entry point: data prep, search, training, evaluation, benchmarks.

Every command resolves its configuration (built-in defaults, then an optional
``key = value`` config file, then explicit flags), archives the merged result
as ``config.resolved`` in the output directory, and derives all randomness
from the single resolved seed, so a run directory fully reproduces itself.

Exit codes: 0 success, 2 usage error, 3 data/I-O error, 4 numerical error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import numkit as nk
from .data import (DataError, ParseFormat, SequenceDataset, build_sequences,
                   filter_users, parse_interactions, synthesize_log)
from .evaluate import evaluate_split
from .model import (DataFormatError, ModelConfig, fixed_window_config, forward_hidden,
                    init_arch, init_params, load_checkpoint, save_checkpoint)
from .search import SearchConfig, SearchResult, exhaustive_oracle, run_search
from .train import TrainConfig, fit, write_trace

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

TRAIN_KEYS = ("learning_rate", "beta1", "beta2", "eps_adam", "batch_size",
              "max_epochs", "patience", "negatives_per_positive",
              "weight_decay", "seed", "eval_negatives", "eval_cutoff")

DEFAULTS = {
    # data
    "delimiter": "\t", "format": "generic", "header": False, "min_interactions": 10,
    # synthetic generator
    "users": 200, "len": 30, "vocab": 50, "kstar": 2, "noise": 0.0,
    # model (full-scale defaults; desk runs override downward)
    "max_len": 50, "dim": 128, "seq_hidden": 512, "ch_hidden": 512, "layers": 4,
    "dropout": 0.5, "activation": "gelu", "norm_axis": "channel",
    "disable_sequence_mixer": False, "disable_channel_mixer": False,
    # training
    "learning_rate": 1e-3, "beta1": 0.9, "beta2": 0.999, "eps_adam": 1e-8,
    "batch_size": 128, "max_epochs": 100, "patience": 10,
    "negatives_per_positive": 1, "weight_decay": 0.0, "seed": 0,
    "eval_negatives": 100, "eval_cutoff": 10,
    # search
    "K": "1,2,4", "arch_lr": 3e-3, "search_mode": "first_order", "k": 0,
    # sweeps / benchmarks
    "sweep_layers": "4,8,12", "sweep_dims": "32,64,128",
    "bench_lens": "64,128,256,512", "reps": 50,
}

_BOOL_KEYS = {"header", "disable_sequence_mixer", "disable_channel_mixer"}
_INT_KEYS = {"min_interactions", "users", "len", "vocab", "kstar", "max_len", "dim",
             "seq_hidden", "ch_hidden", "layers", "batch_size", "max_epochs",
             "patience", "negatives_per_positive", "seed", "eval_negatives",
             "eval_cutoff", "reps", "k"}
_FLOAT_KEYS = {"noise", "dropout", "learning_rate", "beta1", "beta2", "eps_adam",
               "weight_decay", "arch_lr"}


class UsageError(ValueError):
    pass


def _coerce(key, value):
    if key in _BOOL_KEYS:
        if isinstance(value, bool):
            return value
        if str(value).lower() in ("1", "true", "yes", "on"):
            return True
        if str(value).lower() in ("0", "false", "no", "off"):
            return False
        raise UsageError(f"config key {key}: expected a boolean, got {value!r}")
    try:
        if key in _INT_KEYS:
            return int(value)
        if key in _FLOAT_KEYS:
            return float(value)
    except ValueError:
        raise UsageError(f"config key {key}: expected a number, got {value!r}") from None
    return str(value)


def read_config_file(path):
    """Plain-text ``key = value`` pairs; ``#`` starts a comment."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in DEFAULTS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _coerce(key, value)
    return values


def resolve_config(args):
    """Defaults <- config file <- explicit CLI flags, in rising precedence."""
    merged = dict(DEFAULTS)
    if getattr(args, "config", None):
        merged.update(read_config_file(args.config))
    for key in DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = _coerce(key, flag)
    return merged


def write_resolved(outdir, cfg):
    lines = [f"{key} = {cfg[key]}" for key in sorted(cfg)]
    (outdir / "config.resolved").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _outdir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_windows(text):
    try:
        windows = tuple(int(part) for part in str(text).split(","))
    except ValueError:
        raise UsageError(f"bad window list {text!r}; expected e.g. 1,2,4") from None
    return windows


def _model_config(cfg, num_items, windows, max_len=None):
    # dataset-consuming commands pass the dataset's padded length, which is
    # authoritative over any configured default
    try:
        return ModelConfig(
            num_items=num_items, max_len=max_len or cfg["max_len"], dim=cfg["dim"],
            seq_hidden=cfg["seq_hidden"], ch_hidden=cfg["ch_hidden"],
            layers=cfg["layers"], windows=windows, dropout=cfg["dropout"],
            activation=cfg["activation"], norm_axis=cfg["norm_axis"],
            disable_sequence_mixer=cfg["disable_sequence_mixer"],
            disable_channel_mixer=cfg["disable_channel_mixer"],
        )
    except ValueError as exc:
        raise UsageError(f"model config: {exc}") from None


def _train_config(cfg):
    try:
        return TrainConfig(**{key: cfg[key] for key in TRAIN_KEYS})
    except ValueError as exc:
        raise UsageError(f"train config: {exc}") from None


def _search_config(cfg, windows, **kw):
    train = _train_config(cfg)
    try:
        return SearchConfig(windows=windows, arch_lr=cfg["arch_lr"], train=train, **kw)
    except ValueError as exc:
        raise UsageError(f"search config: {exc}") from None


def _build_sequences(log, max_len):
    try:
        return build_sequences(log, max_len)
    except ValueError as exc:  # max_len below 2
        raise UsageError(str(exc)) from None


def _load_dataset(path):
    if not Path(path).exists():
        raise DataError(f"dataset file not found: {path}")
    return SequenceDataset.load(path)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_ingest(args):
    cfg = resolve_config(args)
    out = _outdir(args)
    if not Path(args.input).exists():
        raise DataError(f"input file not found: {args.input}")
    fmt = (ParseFormat.movielens_1m() if cfg["format"] == "movielens"
           else ParseFormat(delimiter=cfg["delimiter"], header=cfg["header"]))
    log = parse_interactions(args.input, fmt)
    try:
        log = filter_users(log, cfg["min_interactions"])
    except ValueError as exc:  # min_interactions below 1
        raise UsageError(str(exc)) from None
    dataset = _build_sequences(log, cfg["max_len"])
    dataset.save(out / "dataset.jsonl")
    write_resolved(out, cfg)
    summary = {"events": len(log.events), "users": log.num_users,
               "items": log.num_items, "examples": len(dataset.examples)}
    (out / "ingest.json").write_text(json.dumps(summary, sort_keys=True) + "\n")
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_synth(args):
    cfg = resolve_config(args)
    out = _outdir(args)
    rng = np.random.default_rng(cfg["seed"])
    log = synthesize_log(cfg["users"], cfg["len"], cfg["vocab"], cfg["kstar"],
                         cfg["noise"], rng)
    dataset = _build_sequences(log, cfg["max_len"])
    dataset.save(out / "dataset.jsonl")
    write_resolved(out, cfg)
    print(json.dumps({"users": log.num_users, "items": log.num_items,
                      "examples": len(dataset.examples)}, sort_keys=True))
    return EXIT_OK


def cmd_search(args):
    cfg = resolve_config(args)
    out = _outdir(args)
    dataset = _load_dataset(args.dataset)
    windows = _parse_windows(cfg["K"])
    model_cfg = _model_config(cfg, dataset.num_items, windows, dataset.max_len)
    search_cfg = _search_config(cfg, windows, mode=cfg["search_mode"])
    result, _ = run_search(dataset, model_cfg, search_cfg)
    (out / "search_result.json").write_text(result.to_json() + "\n")
    write_trace(out / "search_trace.jsonl", result.trace)
    write_resolved(out, cfg)
    print(json.dumps({"selected_k": result.selected_k, "alpha": result.alpha,
                      "epochs": result.epochs_run}, sort_keys=True))
    return EXIT_OK


def _resolve_fixed_window(args, cfg):
    if getattr(args, "search_result", None):
        path = Path(args.search_result)
        if not path.exists():
            raise DataError(f"search result not found: {path}")
        return SearchResult.from_json(path.read_text()).selected_k
    if cfg["k"] <= 0:
        raise UsageError("train needs --k WINDOW or --search-result FILE")
    return cfg["k"]


def cmd_train(args):
    cfg = resolve_config(args)
    out = _outdir(args)
    dataset = _load_dataset(args.dataset)
    window = _resolve_fixed_window(args, cfg)
    model_cfg = _model_config(cfg, dataset.num_items, (window,), dataset.max_len)
    params = init_params(model_cfg, np.random.default_rng(cfg["seed"]))
    result = fit(dataset, params, model_cfg, _train_config(cfg))
    save_checkpoint(out / "checkpoint.bin", params, model_cfg)
    write_trace(out / "train_trace.jsonl", result.trace)
    write_resolved(out, cfg)
    print(json.dumps({"k": window, "best_epoch": result.best_epoch,
                      "best_val_mrr": result.best_val_mrr,
                      "epochs": result.epochs_run}, sort_keys=True))
    return EXIT_OK


def cmd_eval(args):
    cfg = resolve_config(args)
    out = _outdir(args)
    dataset = _load_dataset(args.dataset)
    if not Path(args.checkpoint).exists():
        raise DataError(f"checkpoint not found: {args.checkpoint}")
    params, model_cfg = load_checkpoint(args.checkpoint)
    if model_cfg.max_len != dataset.max_len:
        raise DataError(
            f"checkpoint was trained at max_len={model_cfg.max_len} but the "
            f"dataset uses max_len={dataset.max_len}")
    if model_cfg.num_items != dataset.num_items:
        raise DataError(
            f"checkpoint was trained on {model_cfg.num_items} items but the "
            f"dataset has {dataset.num_items}")
    metrics = evaluate_split(params, model_cfg, dataset, args.split,
                             num_negatives=cfg["eval_negatives"],
                             cutoff=cfg["eval_cutoff"], seed=cfg["seed"])
    record = metrics.record(args.split, cfg["seed"])
    (out / "metrics.json").write_text(json.dumps(record, sort_keys=True) + "\n")
    write_resolved(out, cfg)
    print(json.dumps(record, sort_keys=True))
    return EXIT_OK


def cmd_sweep(args):
    cfg = resolve_config(args)
    out = _outdir(args)
    dataset = _load_dataset(args.dataset)
    window = cfg["k"] if cfg["k"] > 0 else _parse_windows(cfg["K"])[0]
    records = []
    for layers in _parse_windows(cfg["sweep_layers"]):
        for dim in _parse_windows(cfg["sweep_dims"]):
            run = dict(cfg, layers=layers, dim=dim)
            model_cfg = _model_config(run, dataset.num_items, (window,), dataset.max_len)
            params = init_params(model_cfg, np.random.default_rng(cfg["seed"]))
            result = fit(dataset, params, model_cfg, _train_config(run))
            test = evaluate_split(params, model_cfg, dataset, "test",
                                  num_negatives=cfg["eval_negatives"],
                                  cutoff=cfg["eval_cutoff"], seed=cfg["seed"])
            records.append({"layers": layers, "dim": dim,
                            "val_mrr": result.best_val_mrr,
                            "test_mrr": test.mrr, "test_hr": test.hr,
                            "test_ndcg": test.ndcg})
            print(json.dumps(records[-1], sort_keys=True))
    write_trace(out / "sweep.jsonl", records)
    write_resolved(out, cfg)
    return EXIT_OK


def cmd_ablate(args):
    cfg = resolve_config(args)
    out = _outdir(args)
    dataset = _load_dataset(args.dataset)
    window = cfg["k"] if cfg["k"] > 0 else _parse_windows(cfg["K"])[0]
    selected = []
    if args.disable_sequence_mixer:
        selected.append(("no_sequence_mixer", {"disable_sequence_mixer": True}))
    if args.disable_channel_mixer:
        selected.append(("no_channel_mixer", {"disable_channel_mixer": True}))
    if not selected:  # no flag: the whole ablation table
        selected = [("no_sequence_mixer", {"disable_sequence_mixer": True}),
                    ("no_channel_mixer", {"disable_channel_mixer": True})]
    variants = [("full", {})] + selected
    records = []
    base = dict(cfg, disable_sequence_mixer=False, disable_channel_mixer=False)
    for name, flags in variants:
        run = dict(base, **flags)
        model_cfg = _model_config(run, dataset.num_items, (window,), dataset.max_len)
        params = init_params(model_cfg, np.random.default_rng(cfg["seed"]))
        result = fit(dataset, params, model_cfg, _train_config(run))
        test = evaluate_split(params, model_cfg, dataset, "test",
                              num_negatives=cfg["eval_negatives"],
                              cutoff=cfg["eval_cutoff"], seed=cfg["seed"])
        records.append({"variant": name, "val_mrr": result.best_val_mrr,
                        "test_mrr": test.mrr, "test_hr": test.hr,
                        "test_ndcg": test.ndcg})
        print(json.dumps(records[-1], sort_keys=True))
    write_trace(out / "ablate.jsonl", records)
    write_resolved(out, cfg)
    return EXIT_OK


def cmd_oracle(args):
    cfg = resolve_config(args)
    out = _outdir(args)
    dataset = _load_dataset(args.dataset)
    windows = _parse_windows(cfg["K"])
    model_cfg = _model_config(cfg, dataset.num_items, windows, dataset.max_len)
    search_cfg = _search_config(cfg, windows)
    result = exhaustive_oracle(dataset, model_cfg, search_cfg)
    record = {"best_k": result.best_k, "per_window": result.per_window,
              "wall_ms": result.wall_ms}
    (out / "oracle.json").write_text(json.dumps(record, sort_keys=True) + "\n")
    write_resolved(out, cfg)
    print(json.dumps({"best_k": result.best_k}, sort_keys=True))
    return EXIT_OK


def forward_wall_times(lens, cfg, reps, seed):
    """Median single-example forward time (ms) per padded length."""
    records = []
    for max_len in lens:
        run = dict(cfg, max_len=max_len)
        window = min(4, max_len - 1)
        model_cfg = _model_config(run, num_items=100, windows=(window,))
        params = init_params(model_cfg, np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 1)
        inputs = rng.integers(1, 101, size=(1, max_len))
        with nk.no_grad():
            forward_hidden(inputs, params, model_cfg)  # warm-up
            times = []
            for _ in range(reps):
                t0 = time.perf_counter()
                forward_hidden(inputs, params, model_cfg)
                times.append((time.perf_counter() - t0) * 1e3)
        records.append({"T": max_len, "median_ms": float(np.median(times)),
                        "reps": reps})
    return records


def fit_power_law(xs, ys):
    """Least-squares exponent of y = c * x^a in log-log space."""
    lx, ly = np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float))
    return float(np.polyfit(lx, ly, 1)[0])


def cmd_bench(args):
    cfg = resolve_config(args)
    out = _outdir(args)
    lens = _parse_windows(cfg["bench_lens"])
    records = forward_wall_times(lens, cfg, cfg["reps"], cfg["seed"])
    exponent = fit_power_law([r["T"] for r in records],
                             [r["median_ms"] for r in records])
    write_trace(out / "bench.jsonl", records)
    (out / "bench_summary.json").write_text(
        json.dumps({"exponent": exponent}, sort_keys=True) + "\n")
    write_resolved(out, cfg)
    print(json.dumps({"exponent": exponent, "points": records}, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(parser, *, needs_dataset=False):
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--seed", type=int)
    if needs_dataset:
        parser.add_argument("--dataset", required=True, help="dataset.jsonl path")


def _add_model_flags(parser):
    parser.add_argument("--max-len", dest="max_len", type=int)
    parser.add_argument("--dim", type=int)
    parser.add_argument("--seq-hidden", dest="seq_hidden", type=int)
    parser.add_argument("--ch-hidden", dest="ch_hidden", type=int)
    parser.add_argument("--layers", type=int)
    parser.add_argument("--dropout", type=float)
    parser.add_argument("--activation", choices=("gelu", "relu"))
    parser.add_argument("--norm-axis", dest="norm_axis", choices=("channel", "sequence"))
    parser.add_argument("--disable-sequence-mixer", dest="disable_sequence_mixer",
                        action="store_const", const=True)
    parser.add_argument("--disable-channel-mixer", dest="disable_channel_mixer",
                        action="store_const", const=True)


def _add_train_flags(parser):
    parser.add_argument("--learning-rate", dest="learning_rate", type=float)
    parser.add_argument("--batch-size", dest="batch_size", type=int)
    parser.add_argument("--max-epochs", dest="max_epochs", type=int)
    parser.add_argument("--patience", type=int)
    parser.add_argument("--negatives-per-positive", dest="negatives_per_positive", type=int)
    parser.add_argument("--weight-decay", dest="weight_decay", type=float)
    parser.add_argument("--eval-negatives", dest="eval_negatives", type=int)
    parser.add_argument("--eval-cutoff", dest="eval_cutoff", type=int)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mixrec",
        description="Mixer-MLP sequential recommender with automated "
                    "short-term window search")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse, filter, and split an interaction log")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("generic", "movielens"))
    p.add_argument("--delimiter")
    p.add_argument("--header", action="store_const", const=True)
    p.add_argument("--min-interactions", dest="min_interactions", type=int)
    p.add_argument("--max-len", dest="max_len", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate a planted-dependency synthetic log")
    p.add_argument("--users", type=int)
    p.add_argument("--len", type=int)
    p.add_argument("--vocab", type=int)
    p.add_argument("--kstar", type=int)
    p.add_argument("--noise", type=float)
    p.add_argument("--max-len", dest="max_len", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("search", help="differentiable short-term window search")
    p.add_argument("--K", dest="K")
    p.add_argument("--arch-lr", dest="arch_lr", type=float)
    p.add_argument("--search-mode", dest="search_mode",
                   choices=("first_order", "one_step_unrolled"))
    _add_model_flags(p)
    _add_train_flags(p)
    _add_common(p, needs_dataset=True)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("train", help="retrain with a fixed short-term window")
    p.add_argument("--k", type=int)
    p.add_argument("--search-result", dest="search_result")
    _add_model_flags(p)
    _add_train_flags(p)
    _add_common(p, needs_dataset=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="rank the held-out targets of a split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("val", "test"), default="test")
    p.add_argument("--eval-negatives", dest="eval_negatives", type=int)
    p.add_argument("--eval-cutoff", dest="eval_cutoff", type=int)
    _add_common(p, needs_dataset=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("oracle", help="exhaustive per-window training comparison")
    p.add_argument("--K", dest="K")
    _add_model_flags(p)
    _add_train_flags(p)
    _add_common(p, needs_dataset=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("sweep", help="grid over layer count and embedding size")
    p.add_argument("--k", type=int)
    p.add_argument("--sweep-layers", dest="sweep_layers")
    p.add_argument("--sweep-dims", dest="sweep_dims")
    _add_model_flags(p)
    _add_train_flags(p)
    _add_common(p, needs_dataset=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("ablate", help="train with mixers disabled per variant")
    p.add_argument("--k", type=int)
    _add_model_flags(p)
    _add_train_flags(p)
    _add_common(p, needs_dataset=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("bench", help="forward-pass wall time vs padded length")
    p.add_argument("--bench-lens", dest="bench_lens")
    p.add_argument("--reps", type=int)
    _add_model_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage problems with code 2
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, DataFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except nk.NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
