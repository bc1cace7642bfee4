"""Command-line entry point: data prep, search, training, evaluation, benchmarks.

Every command resolves its configuration (built-in defaults, then an optional
``key = value`` config file, then explicit flags), archives the merged result
as ``config.resolved`` in the output directory, and derives all randomness
from the single resolved seed, so a run directory fully reproduces itself.

Each setting is declared once: model and train settings, and their defaults,
are the fields of ``ModelConfig`` and ``TrainConfig``; ``DEFAULTS`` adds the
rest. A key's type is the type of its default, and key ``foo_bar`` is the
flag ``--foo-bar`` on each command that names it.

Exit codes: 0 success, 2 usage error, 3 data/I-O error, 4 numerical error.
Each code follows from the type of the error raised where the input is checked
(``UsageError`` 2, ``DataError`` or ``OSError`` 3, ``NumericalError`` 4);
``main`` maps types to codes and nothing else translates an error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from . import numkit as nk
from .data import (DataError, ParseFormat, SequenceDataset, UsageError, build_sequences,
                   filter_users, parse_interactions, synthesize_log)
from .evaluate import evaluate_split
from .model import ModelConfig, forward_hidden, init_params, load_checkpoint, save_checkpoint
from .search import SearchConfig, SearchResult, exhaustive_oracle, run_search
from .train import TrainConfig, fit, write_trace

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

DEFAULTS = {
    # data
    "delimiter": "\t", "format": "generic", "header": False, "min_interactions": 10,
    # synthetic generator
    "users": 200, "len": 30, "vocab": 50, "kstar": 2, "noise": 0.0,
    # padded length of the datasets ingest and synth build; others take the dataset's
    "max_len": 50,
    # search
    "K": "1,2,4", "search_mode": "first_order", "k": 0,
    # sweeps / benchmarks
    "sweep_layers": "4,8,12", "sweep_dims": "32,64,128",
    "bench_lens": "64,128,256,512", "reps": 50,
    # every model and train setting, and the architecture learning rate, at
    # its dataclass default (full scale; desk runs override downward)
    **{f.name: f.default for cls in (ModelConfig, TrainConfig, SearchConfig)
       for f in fields(cls) if f.default is not MISSING and f.name not in ("windows", "mode")},
}

# the dataset sets num_items and max_len, and --K or --k the windows
MODEL_FLAGS = tuple(f.name for f in fields(ModelConfig)
                    if f.name not in ("num_items", "max_len", "windows"))
TRAIN_FLAGS = tuple(f.name for f in fields(TrainConfig))


def _coerce(key, value):
    kind = type(DEFAULTS[key])
    if kind is bool:
        if isinstance(value, bool):
            return value
        if str(value).lower() in ("1", "true", "yes", "on"):
            return True
        if str(value).lower() in ("0", "false", "no", "off"):
            return False
        raise UsageError(f"config key {key}: expected a boolean, got {value!r}")
    try:
        return kind(value)
    except ValueError:
        raise UsageError(f"config key {key}: expected a number, got {value!r}") from None


def read_config_file(path):
    """Plain-text ``key = value`` pairs; ``#`` starts a comment."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
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
    if args.config:
        merged.update(read_config_file(args.config))
    for key in DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = _coerce(key, flag)
    if merged["seed"] < 0:  # numpy's generators take no negative seed
        raise UsageError(f"config key seed: expected an integer >= 0, got {merged['seed']}")
    return merged


def write_resolved(outdir, cfg):
    lines = [f"{key} = {cfg[key]}" for key in sorted(cfg)]
    (outdir / "config.resolved").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_windows(cfg, key):
    try:
        return tuple(int(part) for part in str(cfg[key]).split(","))
    except ValueError:
        raise UsageError(f"config key {key}: expected e.g. 1,2,4, got {cfg[key]!r}") from None


def _config(cls, cfg, **given):
    """``cls`` built from the resolved settings; ``given`` supplies the rest."""
    return cls(**{f.name: cfg[f.name] for f in fields(cls) if f.name not in given}, **given)


def _model_config(cfg, num_items, windows):
    return _config(ModelConfig, cfg, num_items=num_items, windows=windows)


def _search_config(cfg, windows):
    return _config(SearchConfig, cfg, windows=windows, mode=cfg["search_mode"],
                   train=_config(TrainConfig, cfg))


def _parse_format(cfg):
    if cfg["format"] == "movielens":
        return ParseFormat.movielens_1m()
    if cfg["format"] != "generic":
        raise UsageError(f"unknown format {cfg['format']!r}; expected generic or movielens")
    return ParseFormat(delimiter=cfg["delimiter"], header=cfg["header"])


def _load_dataset(path, cfg):
    """The dataset at ``path``; its padded length becomes ``cfg``'s, so the
    archived config holds the length that ran."""
    dataset = SequenceDataset.load(path)
    cfg["max_len"] = dataset.max_len
    return dataset


# ---------------------------------------------------------------------------
# commands: each gets the parsed flags, the resolved config and the output
# directory; ``main`` archives the config once the command succeeds
# ---------------------------------------------------------------------------


def cmd_ingest(args, cfg, out):
    log = filter_users(parse_interactions(args.input, _parse_format(cfg)),
                       cfg["min_interactions"])
    dataset = build_sequences(log, cfg["max_len"])
    dataset.save(out / "dataset.jsonl")
    summary = {"events": len(log.events), "users": log.num_users,
               "items": log.num_items, "examples": len(dataset.examples)}
    (out / "ingest.json").write_text(json.dumps(summary, sort_keys=True) + "\n")
    print(json.dumps(summary, sort_keys=True))


def cmd_synth(args, cfg, out):
    rng = np.random.default_rng(cfg["seed"])
    log = synthesize_log(cfg["users"], cfg["len"], cfg["vocab"], cfg["kstar"],
                         cfg["noise"], rng)
    dataset = build_sequences(log, cfg["max_len"])
    dataset.save(out / "dataset.jsonl")
    print(json.dumps({"users": log.num_users, "items": log.num_items,
                      "examples": len(dataset.examples)}, sort_keys=True))


def cmd_search(args, cfg, out):
    dataset = _load_dataset(args.dataset, cfg)
    windows = _parse_windows(cfg, "K")
    model_cfg = _model_config(cfg, dataset.num_items, windows)
    search_cfg = _search_config(cfg, windows)
    result, _ = run_search(dataset, model_cfg, search_cfg)
    (out / "search_result.json").write_text(result.to_json() + "\n")
    write_trace(out / "search_trace.jsonl", result.trace)
    print(json.dumps({"selected_k": result.selected_k, "alpha": result.alpha,
                      "epochs": result.epochs_run}, sort_keys=True))


def _resolve_fixed_window(args, cfg):
    """The one window to train: ``--k``, or ``train``'s ``--search-result``."""
    if getattr(args, "search_result", None):
        if cfg["k"] > 0:  # the archived k would not be the window that ran
            raise UsageError("give --k or --search-result, not both")
        return SearchResult.load(args.search_result).selected_k
    if cfg["k"] <= 0:
        other = " or --search-result FILE" if args.command == "train" else ""
        raise UsageError(f"{args.command} needs --k WINDOW{other}")
    return cfg["k"]


def cmd_train(args, cfg, out):
    dataset = _load_dataset(args.dataset, cfg)
    window = _resolve_fixed_window(args, cfg)
    model_cfg = _model_config(cfg, dataset.num_items, (window,))
    params = init_params(model_cfg, np.random.default_rng(cfg["seed"]))
    result = fit(dataset, params, model_cfg, _config(TrainConfig, cfg))
    save_checkpoint(out / "checkpoint.bin", params, model_cfg)
    write_trace(out / "train_trace.jsonl", result.trace)
    print(json.dumps({"k": window, "best_epoch": result.best_epoch,
                      "best_val_mrr": result.best_val_mrr,
                      "epochs": result.epochs_run}, sort_keys=True))


def cmd_eval(args, cfg, out):
    dataset = _load_dataset(args.dataset, cfg)
    params, model_cfg = load_checkpoint(args.checkpoint)
    if model_cfg.max_len != dataset.max_len:
        raise DataError(
            f"checkpoint was trained at max_len={model_cfg.max_len} but the "
            f"dataset uses max_len={dataset.max_len}")
    if model_cfg.num_items != dataset.num_items:
        raise DataError(
            f"checkpoint was trained on {model_cfg.num_items} items but the "
            f"dataset has {dataset.num_items}")
    if len(model_cfg.windows) != 1:
        raise DataError(
            f"checkpoint holds {len(model_cfg.windows)} candidate windows "
            f"{list(model_cfg.windows)}; eval needs a fixed-window model")
    settings = _config(TrainConfig, cfg)  # the eval settings are train settings too
    metrics = evaluate_split(params, model_cfg, dataset, args.split,
                             num_negatives=settings.eval_negatives,
                             cutoff=settings.eval_cutoff, seed=settings.seed)
    record = metrics.record(args.split, settings.seed)
    (out / "metrics.json").write_text(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(record, sort_keys=True))


def _fit_and_rank_test(dataset, run, window):
    """Fit a ``window`` model on the ``run`` settings; its val and test metrics."""
    model_cfg = _model_config(run, dataset.num_items, (window,))
    train_cfg = _config(TrainConfig, run)
    params = init_params(model_cfg, np.random.default_rng(train_cfg.seed))
    result = fit(dataset, params, model_cfg, train_cfg)
    test = evaluate_split(params, model_cfg, dataset, "test",
                          num_negatives=train_cfg.eval_negatives,
                          cutoff=train_cfg.eval_cutoff, seed=train_cfg.seed)
    return {"val_mrr": result.best_val_mrr, "test_mrr": test.mrr, "test_hr": test.hr,
            "test_ndcg": test.ndcg}


def cmd_sweep(args, cfg, out):
    dataset = _load_dataset(args.dataset, cfg)
    window = _resolve_fixed_window(args, cfg)
    records = []
    for layers in _parse_windows(cfg, "sweep_layers"):
        for dim in _parse_windows(cfg, "sweep_dims"):
            metrics = _fit_and_rank_test(dataset, dict(cfg, layers=layers, dim=dim), window)
            records.append({"layers": layers, "dim": dim, **metrics})
            print(json.dumps(records[-1], sort_keys=True))
    write_trace(out / "sweep.jsonl", records)


# each ablation variant and the model setting it switches on
ABLATIONS = (("no_sequence_mixer", "disable_sequence_mixer"),
             ("no_channel_mixer", "disable_channel_mixer"))


def cmd_ablate(args, cfg, out):
    dataset = _load_dataset(args.dataset, cfg)
    window = _resolve_fixed_window(args, cfg)
    # each flag selects its variant; no flag selects the whole table
    selected = [(name, key) for name, key in ABLATIONS if getattr(args, key)] or ABLATIONS
    base = dict(cfg, **{key: False for _, key in ABLATIONS})
    runs = [("full", base)] + [(name, dict(base, **{key: True})) for name, key in selected]
    records = []
    for name, run in runs:
        records.append({"variant": name, **_fit_and_rank_test(dataset, run, window)})
        print(json.dumps(records[-1], sort_keys=True))
    write_trace(out / "ablate.jsonl", records)


def cmd_oracle(args, cfg, out):
    dataset = _load_dataset(args.dataset, cfg)
    windows = _parse_windows(cfg, "K")
    model_cfg = _model_config(cfg, dataset.num_items, windows)
    search_cfg = _search_config(cfg, windows)
    result = exhaustive_oracle(dataset, model_cfg, search_cfg)
    record = {"best_k": result.best_k, "per_window": result.per_window,
              "wall_ms": result.wall_ms}
    (out / "oracle.json").write_text(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"best_k": result.best_k}, sort_keys=True))


def forward_wall_times(lens, cfg, reps, seed):
    """Median single-example forward time (ms) per padded length."""
    if reps < 1:
        raise UsageError(f"reps must be >= 1, got {reps}")
    records = []
    for max_len in lens:
        run = dict(cfg, max_len=max_len)
        window = min(4, max_len - 1)
        model_cfg = _model_config(run, num_items=100, windows=(window,))
        params = init_params(model_cfg, np.random.default_rng(seed))
        # constant leaves: the timed forward records no tape
        params = params.with_data({name: leaf.data for name, leaf in params.leaves()},
                                  requires_grad=False)
        rng = np.random.default_rng(seed + 1)
        inputs = rng.integers(1, 101, size=(1, max_len))
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
    """Least-squares exponent of y = c * x^a in log-log space; needs at
    least two distinct ``xs``."""
    if len(set(xs)) < 2:
        raise UsageError(f"a power law needs at least two distinct lengths, got {list(xs)}")
    lx, ly = np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float))
    return float(np.polyfit(lx, ly, 1)[0])


def cmd_bench(args, cfg, out):
    lens = _parse_windows(cfg, "bench_lens")
    records = forward_wall_times(lens, cfg, cfg["reps"], cfg["seed"])
    exponent = fit_power_law([r["T"] for r in records],
                             [r["median_ms"] for r in records])
    write_trace(out / "bench.jsonl", records)
    (out / "bench_summary.json").write_text(
        json.dumps({"exponent": exponent}, sort_keys=True) + "\n")
    print(json.dumps({"exponent": exponent, "points": records}, sort_keys=True))


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_command(sub, name, func, help, keys, *, dataset=True):
    """A subcommand whose flags are the config ``keys``: ``foo_bar`` is
    ``--foo-bar``, and a bool key is a switch that sets it true."""
    p = sub.add_parser(name, help=help)
    for key in keys:
        flag = "--" + key.replace("_", "-")
        if type(DEFAULTS[key]) is bool:
            p.add_argument(flag, dest=key, action="store_const", const=True)
        else:
            p.add_argument(flag, dest=key)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="key = value config file")
    if dataset:
        p.add_argument("--dataset", required=True, help="dataset.jsonl path")
    p.set_defaults(func=func)
    return p


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mixrec",
        description="Mixer-MLP sequential recommender with automated "
                    "short-term window search")
    sub = parser.add_subparsers(dest="command", required=True)
    fitting = MODEL_FLAGS + TRAIN_FLAGS
    _add_command(sub, "ingest", cmd_ingest, "parse, filter, and split an interaction log",
                 ("format", "delimiter", "header", "min_interactions", "max_len"),
                 dataset=False).add_argument("--input", required=True)
    _add_command(sub, "synth", cmd_synth, "generate a planted-dependency synthetic log",
                 ("users", "len", "vocab", "kstar", "noise", "max_len", "seed"), dataset=False)
    _add_command(sub, "search", cmd_search, "differentiable short-term window search",
                 ("K", "arch_lr", "search_mode") + fitting)
    _add_command(sub, "train", cmd_train, "retrain with a fixed short-term window",
                 ("k",) + fitting).add_argument("--search-result")
    p = _add_command(sub, "eval", cmd_eval, "rank the held-out targets of a split",
                     ("eval_negatives", "eval_cutoff", "seed"))
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("val", "test"), default="test")
    _add_command(sub, "oracle", cmd_oracle, "exhaustive per-window training comparison",
                 ("K",) + fitting)
    _add_command(sub, "sweep", cmd_sweep, "grid over layer count and embedding size",
                 ("k", "sweep_layers", "sweep_dims") + fitting)
    _add_command(sub, "ablate", cmd_ablate, "train with mixers disabled per variant",
                 ("k",) + fitting)
    _add_command(sub, "bench", cmd_bench, "forward-pass wall time vs padded length",
                 ("bench_lens", "reps", "seed") + MODEL_FLAGS, dataset=False)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage problems with code 2
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = resolve_config(args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with np.errstate(all="ignore"):  # every non-finite value meets a typed check
            args.func(args, cfg, out)
        write_resolved(out, cfg)
        return EXIT_OK
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except nk.NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
