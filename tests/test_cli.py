"""Command-line behavior: dispatch, config precedence, exit codes, artifacts."""

import argparse
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import mixrec
from mixrec import cli, model
from mixrec.train import TrainConfig


FAST = ["--max-len", "5", "--dim", "8", "--seq-hidden", "8", "--ch-hidden", "8",
        "--layers", "1", "--dropout", "0", "--max-epochs", "2", "--batch-size", "32",
        "--eval-negatives", "8"]


# The CLI's pinned surface: each command's option strings, the config a default
# run archives, and one checkpoint header. Changing any of them changes what
# users type or what earlier run directories hold.
_MODEL_OPTIONS = {"--max-len", "--dim", "--seq-hidden", "--ch-hidden", "--layers", "--dropout",
                  "--activation", "--norm-axis", "--disable-sequence-mixer",
                  "--disable-channel-mixer"}
_TRAIN_OPTIONS = {"--learning-rate", "--beta1", "--beta2", "--eps-adam", "--batch-size",
                  "--max-epochs", "--patience", "--negatives-per-positive", "--weight-decay",
                  "--eval-negatives", "--eval-cutoff", "--seed"}
_RUN_OPTIONS = {"--out", "--config", "--dataset"}
COMMAND_OPTIONS = {
    "ingest": {"--input", "--format", "--delimiter", "--header", "--min-interactions",
               "--max-len", "--out", "--config", "--seed"},
    "synth": {"--users", "--len", "--vocab", "--kstar", "--noise", "--max-len", "--out",
              "--config", "--seed"},
    "search": {"--K", "--arch-lr", "--search-mode"} | _MODEL_OPTIONS | _TRAIN_OPTIONS
              | _RUN_OPTIONS,
    "train": {"--k", "--search-result"} | _MODEL_OPTIONS | _TRAIN_OPTIONS | _RUN_OPTIONS,
    "eval": {"--checkpoint", "--split", "--eval-negatives", "--eval-cutoff", "--seed"}
            | _RUN_OPTIONS,
    "oracle": {"--K"} | _MODEL_OPTIONS | _TRAIN_OPTIONS | _RUN_OPTIONS,
    "sweep": {"--k", "--sweep-layers", "--sweep-dims"} | _MODEL_OPTIONS | _TRAIN_OPTIONS
             | _RUN_OPTIONS,
    "ablate": {"--k"} | _MODEL_OPTIONS | _TRAIN_OPTIONS | _RUN_OPTIONS,
    "bench": {"--bench-lens", "--reps", "--seed", "--out", "--config"} | _MODEL_OPTIONS,
}

DEFAULT_RESOLVED = """\
K = 1,2,4
activation = gelu
arch_lr = 0.003
batch_size = 128
bench_lens = 64,128,256,512
beta1 = 0.9
beta2 = 0.999
ch_hidden = 512
delimiter = \t
dim = 128
disable_channel_mixer = False
disable_sequence_mixer = False
dropout = 0.5
eps_adam = 1e-08
eval_cutoff = 10
eval_negatives = 100
format = generic
header = False
k = 0
kstar = 2
layers = 4
learning_rate = 0.001
len = 30
max_epochs = 100
max_len = 50
min_interactions = 10
negatives_per_positive = 1
noise = 0.0
norm_axis = channel
patience = 10
reps = 50
search_mode = first_order
seed = 0
seq_hidden = 512
sweep_dims = 32,64,128
sweep_layers = 4,8,12
users = 200
vocab = 50
weight_decay = 0.0
"""

CHECKPOINT_HEADER = (
    '{"arrays": [["item_embedding", 8, 3], ["long.0.seq_w1", 4, 5], ["long.0.seq_w2", 5, 4], '
    '["long.0.seq_gamma", 1, 3], ["long.0.seq_beta", 1, 3], ["long.0.ch_w3", 2, 3], '
    '["long.0.ch_w4", 3, 2], ["long.0.ch_gamma", 1, 3], ["long.0.ch_beta", 1, 3], '
    '["cand.0.0.seq_w1", 4, 1], ["cand.0.0.seq_w2", 1, 4], ["cand.0.0.seq_gamma", 1, 3], '
    '["cand.0.0.seq_beta", 1, 3], ["cand.0.0.ch_w3", 2, 3], ["cand.0.0.ch_w4", 3, 2], '
    '["cand.0.0.ch_gamma", 1, 3], ["cand.0.0.ch_beta", 1, 3], ["cand.1.0.seq_w1", 4, 3], '
    '["cand.1.0.seq_w2", 3, 4], ["cand.1.0.seq_gamma", 1, 3], ["cand.1.0.seq_beta", 1, 3], '
    '["cand.1.0.ch_w3", 2, 3], ["cand.1.0.ch_w4", 3, 2], ["cand.1.0.ch_gamma", 1, 3], '
    '["cand.1.0.ch_beta", 1, 3], ["out_w", 3, 6], ["out_b", 1, 3]], '
    '"config": {"activation": "relu", "ch_hidden": 2, "dim": 3, "disable_channel_mixer": true, '
    '"disable_sequence_mixer": false, "dropout": 0.25, "layers": 1, "max_len": 5, '
    '"norm_axis": "sequence", "num_items": 7, "seq_hidden": 4, "windows": [1, 3]}, '
    '"version": 1}')


def synth(tmp_path, name="data", **kw):
    out = tmp_path / name
    args = ["synth", "--users", "25", "--len", "12", "--vocab", "20", "--kstar", "1",
            "--max-len", "5", "--seed", "3", "--out", str(out)]
    for key, val in kw.items():
        args += [f"--{key}", str(val)]
    assert cli.main(args) == 0
    return out / "dataset.jsonl"


class TestDispatchAndExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        assert cli.main(["frobnicate"]) == 2

    def test_unknown_flag_is_usage_error(self):
        assert cli.main(["synth", "--no-such-flag", "1", "--out", "/tmp/x"]) == 2

    def test_missing_input_file_is_data_error(self, tmp_path):
        code = cli.main(["ingest", "--input", str(tmp_path / "absent.dat"),
                         "--out", str(tmp_path / "out")])
        assert code == 3

    def test_eval_without_checkpoint_is_data_error(self, tmp_path):
        dataset = synth(tmp_path)
        code = cli.main(["eval", "--dataset", str(dataset),
                         "--checkpoint", str(tmp_path / "missing.bin"),
                         "--out", str(tmp_path / "out")])
        assert code == 3

    @pytest.mark.parametrize("vocab", [50, 30])
    def test_eval_on_another_vocabulary_is_data_error(self, tmp_path, vocab):
        # the checkpoint knows 40 items; the dataset has more, then fewer
        train_out = tmp_path / "train"
        assert cli.main(["train", "--dataset", str(synth(tmp_path, vocab=40)), "--k", "2",
                         "--out", str(train_out)] + FAST) == 0
        other = synth(tmp_path, name="other", vocab=vocab)
        code = cli.main(["eval", "--dataset", str(other),
                         "--checkpoint", str(train_out / "checkpoint.bin"),
                         "--eval-negatives", "8", "--out", str(tmp_path / "out")])
        assert code == 3

    def test_train_without_window_is_usage_error(self, tmp_path):
        dataset = synth(tmp_path)
        code = cli.main(["train", "--dataset", str(dataset),
                         "--out", str(tmp_path / "out")] + FAST)
        assert code == 2

    @pytest.mark.parametrize("command, conf, flags", [
        ("train", "dim = abc\n", []),
        ("train", "learning_rate = fast\n", []),
        ("train", "", ["--k", "9"]),  # the dataset's max_len is 5
        ("train", "", ["--dim", "0"]),
        ("train", "", ["--layers", "0"]),
        ("train", "", ["--batch-size", "0"]),
        ("train", "", ["--negatives-per-positive", "-1"]),
        ("train", "", ["--eval-negatives", "-1"]),
        ("train", "", ["--max-epochs", "0"]),
        ("train", "negatives_per_positive = 0\n", []),
        ("eval", "", ["--eval-negatives", "-1"]),
        ("bench", "", ["--reps", "0"]),
        ("bench", "", ["--bench-lens", "1"]),
        ("train", "", ["--eval-cutoff", "0"]),
        ("train", "eval_cutoff = 0\n", []),
        ("eval", "", ["--eval-cutoff", "0"]),
        ("bench", "", ["--bench-lens", "8"]),
        ("bench", "", ["--bench-lens", "8,8"]),
        ("train", "", ["--dropout", "1.5"]),
        ("train", "", ["--dropout", "-0.2"]),
        ("train", "", ["--dropout", "nan"]),
        ("train", "", ["--learning-rate", "nan"]),
        ("train", "", ["--weight-decay", "nan"]),
        ("train", "", ["--weight-decay", "-1"]),
        ("train", "eps_adam = 0\n", []),
        ("train", "", ["--seed", "-1"]),
        ("train", "seed = -1\n", []),
        ("eval", "", ["--seed", "-1"]),
        ("bench", "", ["--seed", "-1"]),
    ], ids=["int-in-file", "float-in-file", "window-past-max-len", "dim-0", "layers-0",
            "batch-size-0", "negatives-per-positive--1", "eval-negatives--1", "max-epochs-0",
            "negatives-per-positive-0-in-file", "eval-eval-negatives--1", "bench-reps-0",
            "bench-lens-1", "eval-cutoff-0", "eval-cutoff-0-in-file", "eval-eval-cutoff-0",
            "bench-one-length", "bench-one-distinct-length", "dropout-1.5", "dropout--0.2",
            "dropout-nan", "learning-rate-nan", "weight-decay-nan", "weight-decay--1",
            "eps-adam-0-in-file", "seed--1", "seed--1-in-file", "eval-seed--1",
            "bench-seed--1"])
    def test_bad_config_value_is_usage_error(self, tmp_path, command, conf, flags):
        (tmp_path / "run.conf").write_text(conf)
        if command == "bench":
            argv = ["bench", "--bench-lens", "8,16", "--reps", "2", "--dim", "8",
                    "--seq-hidden", "8", "--ch-hidden", "8", "--layers", "1"]
        else:
            dataset = str(synth(tmp_path))
            argv = ["train", "--dataset", dataset, "--k", "2"] + FAST
        if command == "eval":
            assert cli.main(argv + ["--out", str(tmp_path / "train")]) == 0
            argv = ["eval", "--dataset", dataset,
                    "--checkpoint", str(tmp_path / "train" / "checkpoint.bin")]
        out = tmp_path / "out"
        code = cli.main(argv + flags + ["--config", str(tmp_path / "run.conf"),
                                        "--out", str(out)])
        assert code == 2
        assert not any(out.glob("*"))  # a failed command writes nothing

    @pytest.mark.parametrize("command, conf, message", [
        (["synth", "--max-len", "1"], "", "max_len"),
        (["ingest", "--max-len", "1"], "", "max_len"),
        (["ingest", "--min-interactions", "0"], "", "min_interactions"),
        (["search", "--config", "{conf}"], "search_mode = bogus\n", "search mode"),
        (["search", "--K", "0,1"], "", "windows must be >= 1"),
        (["ingest", "--delimiter", ""], "", "delimiter"),
        (["ingest", "--config", "{conf}"], "delimiter =\n", "delimiter"),
        (["ingest", "--config", "{conf}"], "format = bogus\n", "format"),
        (["ingest", "--format", "bogus"], "", "'bogus'"),
        (["train", "--activation", "tanh"], "", "'tanh'"),
        (["train", "--norm-axis", "diagonal"], "", "'diagonal'"),
        (["search", "--search-mode", "bogus"], "", "'bogus'"),
        (["eval", "--split", "train"], "", "'train'"),
        (["synth", "--noise", "1.5"], "", "noise_rate"),
        (["synth", "--kstar", "0"], "", "k_star"),
        (["synth", "--kstar", "40"], "", "k_star"),
        (["synth", "--len", "2"], "", "k_star"),
        (["synth", "--vocab", "2"], "", "vocab"),
        (["search", "--arch-lr", "-1"], "", "arch_lr"),
        (["search", "--arch-lr", "nan"], "", "arch_lr"),
        (["synth", "--seed", "-1"], "", "seed"),
    ], ids=["synth-max-len-1", "ingest-max-len-1", "ingest-min-interactions-0",
            "search-mode-in-file", "search-window-0", "empty-delimiter-flag",
            "empty-delimiter-in-file", "unknown-format-in-file", "format-flag",
            "activation-flag", "norm-axis-flag", "search-mode-flag", "split-flag",
            "synth-noise-1.5", "synth-kstar-0", "synth-kstar-40", "synth-len-2",
            "synth-vocab-2", "search-arch-lr--1", "search-arch-lr-nan", "synth-seed--1"])
    def test_bad_data_or_search_setting_is_usage_error(self, tmp_path, capsys, command,
                                                       conf, message):
        (tmp_path / "run.conf").write_text(conf)
        (tmp_path / "log.tsv").write_text("".join(f"u{t % 2}\ti{t}\t{t}\n" for t in range(12)))
        dataset = [] if command[0] in ("synth", "ingest") else ["--dataset", str(synth(tmp_path))]
        inputs = {"synth": [],
                  "ingest": ["--input", str(tmp_path / "log.tsv"), "--min-interactions", "3"],
                  "search": FAST, "train": ["--k", "2"] + FAST,
                  "eval": ["--checkpoint", str(tmp_path / "absent.bin")]}[command[0]]
        argv = [command[0]] + dataset + inputs + [arg.format(conf=tmp_path / "run.conf")
                                                  for arg in command[1:]]
        capsys.readouterr()
        assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err

    def test_python_dash_m_runs_the_cli(self):
        src = str(Path(mixrec.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "mixrec", "--help"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0
        assert done.stderr == ""
        assert "synth" in done.stdout


class TestConfigResolution:
    def test_file_overrides_defaults_and_flags_override_file(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("users = 11\nvocab = 30  # inline comment\n")
        out = tmp_path / "out"
        assert cli.main(["synth", "--config", str(conf), "--vocab", "25",
                         "--max-len", "5", "--out", str(out)]) == 0
        resolved = dict(
            line.split(" = ") for line in
            (out / "config.resolved").read_text().strip().splitlines())
        assert resolved["users"] == "11"     # from file
        assert resolved["vocab"] == "25"     # flag wins
        assert resolved["len"] == "30"       # built-in default
        assert resolved["seed"] == "0"

    @staticmethod
    def command_options():
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        return {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
                for name, p in sub.choices.items()}

    def test_every_command_keeps_its_options(self):
        got = self.command_options()
        assert got == COMMAND_OPTIONS
        assert {name: len(opts) for name, opts in got.items()} == {
            "ingest": 9, "synth": 9, "search": 28, "train": 27, "eval": 8, "oracle": 26,
            "sweep": 28, "ablate": 26, "bench": 15}

    def test_every_setting_a_command_resolves_is_its_flag(self):
        # the dataset sets num_items, and --K or --k the windows
        model_keys = [f.name for f in fields(model.ModelConfig)
                      if f.name not in ("num_items", "windows")]
        train_keys = [f.name for f in fields(TrainConfig)]
        reads = {command: model_keys + train_keys
                 for command in ("search", "train", "oracle", "sweep", "ablate")}
        reads["bench"] = model_keys
        reads["eval"] = ["eval_negatives", "eval_cutoff", "seed"]  # its only train settings
        got = self.command_options()
        missing = {command: [key for key in keys
                             if "--" + key.replace("_", "-") not in got[command]]
                   for command, keys in reads.items()}
        assert missing == {command: [] for command in reads}

    def test_adam_settings_are_flags(self, tmp_path):
        out = tmp_path / "train"
        assert cli.main(["train", "--dataset", str(synth(tmp_path)), "--k", "2",
                         "--beta1", "0.5", "--beta2", "0.9", "--eps-adam", "1e-6",
                         "--out", str(out)] + FAST) == 0
        resolved = set((out / "config.resolved").read_text().splitlines())
        assert {"beta1 = 0.5", "beta2 = 0.9", "eps_adam = 1e-06"} <= resolved

    def test_default_synth_run_archives_the_pinned_config(self, tmp_path):
        assert cli.main(["synth", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "config.resolved").read_text() == DEFAULT_RESOLVED

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("nonsense = 1\n")
        assert cli.main(["synth", "--config", str(conf),
                         "--out", str(tmp_path / "out")]) == 2

    def test_every_run_directory_archives_resolved_config(self, tmp_path):
        dataset = synth(tmp_path)
        for sub, extra in (
            ("search", ["search", "--K", "1,2"]),
            ("train", ["train", "--k", "2"]),
        ):
            out = tmp_path / sub
            assert cli.main(extra + ["--dataset", str(dataset),
                                     "--out", str(out)] + FAST) == 0
            assert (out / "config.resolved").exists()


class TestPipelines:
    def test_synth_then_search_records_selection(self, tmp_path):
        dataset = synth(tmp_path)
        out = tmp_path / "search"
        assert cli.main(["search", "--dataset", str(dataset), "--K", "1,2",
                         "--out", str(out)] + FAST) == 0
        result = json.loads((out / "search_result.json").read_text())
        assert result["selected_k"] in (1, 2)
        assert len(result["alpha"]) == 2
        trace = [json.loads(line) for line in
                 (out / "search_trace.jsonl").read_text().splitlines()]
        assert [r["epoch"] for r in trace] == list(range(1, len(trace) + 1))

    def test_train_eval_roundtrip(self, tmp_path):
        dataset = synth(tmp_path)
        train_out = tmp_path / "train"
        assert cli.main(["train", "--dataset", str(dataset), "--k", "2",
                         "--out", str(train_out)] + FAST) == 0
        eval_out = tmp_path / "eval"
        assert cli.main(["eval", "--dataset", str(dataset),
                         "--checkpoint", str(train_out / "checkpoint.bin"),
                         "--split", "test", "--eval-negatives", "8",
                         "--out", str(eval_out)]) == 0
        record = json.loads((eval_out / "metrics.json").read_text())
        assert record["split"] == "test"
        assert 0.0 <= record["mrr"] <= record["ndcg"] <= record["hr"] <= 1.0

    def test_ingest_reads_moviellens_layout(self, tmp_path):
        rows = []
        rng = np.random.default_rng(0)
        for user in range(1, 7):
            for t in range(12):
                rows.append(f"{user}::{rng.integers(1, 30)}::5::{1000 + t}")
        raw = tmp_path / "ratings.dat"
        raw.write_text("\n".join(rows) + "\n")
        out = tmp_path / "ingested"
        assert cli.main(["ingest", "--input", str(raw), "--format", "movielens",
                         "--min-interactions", "10", "--max-len", "6",
                         "--out", str(out)]) == 0
        summary = json.loads((out / "ingest.json").read_text())
        assert summary["users"] == 6
        assert summary["events"] == 72

    def test_ablate_runs_identity_variants(self, tmp_path):
        dataset = synth(tmp_path)
        out = tmp_path / "ablate"
        assert cli.main(["ablate", "--dataset", str(dataset), "--k", "2",
                         "--out", str(out)] + FAST) == 0
        records = [json.loads(line) for line in
                   (out / "ablate.jsonl").read_text().splitlines()]
        assert [r["variant"] for r in records] == [
            "full", "no_sequence_mixer", "no_channel_mixer"]

    def test_ablate_single_flag_selects_one_variant(self, tmp_path):
        dataset = synth(tmp_path)
        out = tmp_path / "ablate1"
        assert cli.main(["ablate", "--dataset", str(dataset), "--k", "2",
                         "--disable-sequence-mixer", "--out", str(out)] + FAST) == 0
        records = [json.loads(line) for line in
                   (out / "ablate.jsonl").read_text().splitlines()]
        assert [r["variant"] for r in records] == ["full", "no_sequence_mixer"]

    def test_oracle_reports_per_window_results(self, tmp_path):
        dataset = synth(tmp_path)
        out = tmp_path / "oracle"
        assert cli.main(["oracle", "--dataset", str(dataset), "--K", "1,2",
                         "--out", str(out)] + FAST) == 0
        record = json.loads((out / "oracle.json").read_text())
        assert record["best_k"] in (1, 2)
        assert [r["k"] for r in record["per_window"]] == [1, 2]

    def test_sweep_covers_grid(self, tmp_path):
        dataset = synth(tmp_path)
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--dataset", str(dataset), "--k", "2",
                         "--sweep-layers", "1,2", "--sweep-dims", "8",
                         "--out", str(out)] + FAST) == 0
        records = [json.loads(line) for line in
                   (out / "sweep.jsonl").read_text().splitlines()]
        assert [(r["layers"], r["dim"]) for r in records] == [(1, 8), (2, 8)]

    def test_bench_reports_exponent(self, tmp_path):
        out = tmp_path / "bench"
        assert cli.main(["bench", "--bench-lens", "8,16", "--reps", "3",
                         "--dim", "8", "--seq-hidden", "8", "--ch-hidden", "8",
                         "--layers", "1", "--dropout", "0",
                         "--out", str(out)]) == 0
        summary = json.loads((out / "bench_summary.json").read_text())
        assert "exponent" in summary

    def test_power_law_needs_two_distinct_lengths(self):
        assert cli.fit_power_law([8, 16], [1.0, 4.0]) == pytest.approx(2.0)
        for xs in ([8], [8, 8]):
            with pytest.raises(cli.UsageError, match="two distinct lengths"):
                cli.fit_power_law(xs, [1.0] * len(xs))


class TestArtifacts:
    def trained(self, tmp_path):
        dataset = synth(tmp_path)
        assert cli.main(["train", "--dataset", str(dataset), "--k", "2",
                         "--out", str(tmp_path / "train")] + FAST) == 0
        return dataset, tmp_path / "train" / "checkpoint.bin"

    def evaluate(self, tmp_path, dataset, checkpoint, name):
        code = cli.main(["eval", "--dataset", str(dataset), "--checkpoint", str(checkpoint),
                         "--eval-negatives", "8", "--out", str(tmp_path / name)])
        metrics = tmp_path / name / "metrics.json"
        return code, json.loads(metrics.read_text()) if code == 0 else None

    def test_truncated_artifacts_are_data_errors(self, tmp_path):
        dataset, checkpoint = self.trained(tmp_path)
        ds_bytes, ck_bytes = dataset.read_bytes(), checkpoint.read_bytes()
        header_end = ds_bytes.index(b"\n")
        cases = [("dataset", n) for n in (0, 40, header_end + 5, 300)]
        cases += [("checkpoint", n) for n in (40, 60, 200, len(ck_bytes) - 8)]
        for i, (kind, n) in enumerate(cases):
            raw = ds_bytes if kind == "dataset" else ck_bytes
            assert n < len(raw) and raw[n - 1:n] != b"\n", (kind, n)  # cut mid-record
            cut = tmp_path / f"cut{i}"
            cut.write_bytes(raw[:n])
            pair = (cut, checkpoint) if kind == "dataset" else (dataset, cut)
            code, _ = self.evaluate(tmp_path, *pair, name=f"eval{i}")
            assert code == 3, (kind, n)

    def test_a_nan_weight_is_a_numerical_error(self, tmp_path):
        dataset, checkpoint = self.trained(tmp_path)
        raw = checkpoint.read_bytes()
        checkpoint.write_bytes(raw[:-8] + np.array([np.nan], dtype="<f8").tobytes())
        assert self.evaluate(tmp_path, dataset, checkpoint, "eval")[0] == 4

    @pytest.mark.parametrize("corrupt, message", [
        ("item", "outside 1..20"), ("item_counts", "item_counts has 2 entries"),
        ("num_items=20.0", "num_items 20.0 is not"), ("max_len=-5", "max_len -5 is not"),
        ("max_len=1", "max_len 1 is not"), ("item_counts=-100", "item_counts -100 is not"),
        ("item_counts=19.5", "item_counts 19.5 is not"),
        ("item=2.5", "non-integer item"), ("item=true", "non-integer item"),
        ("user=2.5", "user 2.5 is not"), ("user=-1", "user -1 is not"),
        ("user=dup", "appears twice"),
    ])
    def test_a_dataset_that_contradicts_its_header_is_a_data_error(self, tmp_path, capsys,
                                                                    corrupt, message):
        dataset = synth(tmp_path)
        head, *lines = dataset.read_text().splitlines()
        header, users = json.loads(head), [json.loads(line) for line in lines]
        assert header["num_items"] == 20
        key, _, value = corrupt.partition("=")
        if key == "item":
            users[0]["items"][-1] = json.loads(value or "999")
        elif key == "user":  # another id for the second line, or the first line's
            users[1]["user"] = users[0]["user"] if value == "dup" else json.loads(value)
        elif corrupt == "item_counts":
            header["item_counts"] = header["item_counts"][:2]
        elif key == "item_counts":  # one item's count
            header[key][3] = json.loads(value)
        else:
            header[key] = json.loads(value)
        dataset.write_text("\n".join(json.dumps(rec, sort_keys=True)
                                     for rec in [header] + users) + "\n")
        code = cli.main(["train", "--dataset", str(dataset), "--k", "2",
                         "--out", str(tmp_path / "train")] + FAST)
        assert code == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["nope\n", '{"alpha": [1.0]}\n', "[1, 2]\n"])
    def test_a_malformed_search_result_is_a_data_error(self, tmp_path, text):
        result = tmp_path / "search_result.json"
        result.write_text(text)
        code = cli.main(["train", "--dataset", str(synth(tmp_path)),
                         "--search-result", str(result), "--out", str(tmp_path / "train")]
                        + FAST)
        assert code == 3

    def test_checkpoint_header_is_pinned(self, tmp_path):
        cfg = model.ModelConfig(num_items=7, max_len=5, dim=3, seq_hidden=4, ch_hidden=2,
                                layers=1, windows=(1, 3), dropout=0.25, activation="relu",
                                norm_axis="sequence", disable_channel_mixer=True)
        path = tmp_path / "checkpoint.bin"
        model.save_checkpoint(path, model.init_params(cfg, np.random.default_rng(0)), cfg)
        assert path.read_bytes().split(b"\n")[1].decode() == CHECKPOINT_HEADER
        assert model.load_checkpoint(path)[1] == cfg

    def test_a_header_missing_a_config_key_is_a_data_error(self, tmp_path):
        dataset, checkpoint = self.trained(tmp_path)
        magic, head, payload = checkpoint.read_bytes().split(b"\n", 2)
        header = json.loads(head)
        del header["config"]["norm_axis"]
        checkpoint.write_bytes(
            magic + b"\n" + json.dumps(header, sort_keys=True).encode() + b"\n" + payload)
        assert self.evaluate(tmp_path, dataset, checkpoint, "eval")[0] == 3

    def test_headers_with_empty_feature_keys_still_load(self, tmp_path):
        # earlier releases wrote "num_feature_fields": 0 into the dataset
        # header and "feature_vocabs": [] into the checkpoint config
        dataset, checkpoint = self.trained(tmp_path)
        head, rest = dataset.read_text().split("\n", 1)
        header = dict(json.loads(head), num_feature_fields=0)
        old_dataset = tmp_path / "old_dataset.jsonl"
        old_dataset.write_text(json.dumps(header, sort_keys=True) + "\n" + rest)
        magic, head, payload = checkpoint.read_bytes().split(b"\n", 2)
        header = json.loads(head)
        header["config"]["feature_vocabs"] = []
        old_checkpoint = tmp_path / "old_checkpoint.bin"
        old_checkpoint.write_bytes(
            magic + b"\n" + json.dumps(header, sort_keys=True).encode() + b"\n" + payload)
        old = self.evaluate(tmp_path, old_dataset, old_checkpoint, "old")
        assert old[0] == 0
        assert old == self.evaluate(tmp_path, dataset, checkpoint, "new")


class TestDeterminism:
    def strip_wall(self, text):
        out = []
        for line in text.splitlines():
            rec = json.loads(line)
            rec.pop("wall_ms", None)
            out.append(json.dumps(rec, sort_keys=True))
        return "\n".join(out)

    def test_identical_configs_reproduce_every_artifact(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            dataset = synth(tmp_path, name=f"data_{name}")
            train_out = tmp_path / f"train_{name}"
            assert cli.main(["train", "--dataset", str(dataset), "--k", "2",
                             "--seed", "5", "--out", str(train_out)] + FAST) == 0
            outs.append((dataset, train_out))
        (ds_a, tr_a), (ds_b, tr_b) = outs
        assert ds_a.read_bytes() == ds_b.read_bytes()
        assert (tr_a / "checkpoint.bin").read_bytes() == (tr_b / "checkpoint.bin").read_bytes()
        assert self.strip_wall((tr_a / "train_trace.jsonl").read_text()) == \
            self.strip_wall((tr_b / "train_trace.jsonl").read_text())
