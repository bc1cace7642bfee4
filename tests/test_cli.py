"""Command-line behavior: dispatch, config precedence, exit codes, artifacts."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mixrec
from mixrec import cli
from mixrec.train import TrainConfig


FAST = ["--max-len", "5", "--dim", "8", "--seq-hidden", "8", "--ch-hidden", "8",
        "--layers", "1", "--dropout", "0", "--max-epochs", "2", "--batch-size", "32",
        "--eval-negatives", "8"]


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

    @pytest.mark.parametrize("conf, flags", [
        ("dim = abc\n", []),
        ("learning_rate = fast\n", []),
        ("", ["--k", "9"]),  # the dataset's max_len is 5
        ("", ["--dim", "0"]),
        ("", ["--layers", "0"]),
        ("", ["--batch-size", "0"]),
    ], ids=["int-in-file", "float-in-file", "window-past-max-len", "dim-0", "layers-0",
            "batch-size-0"])
    def test_bad_config_value_is_usage_error(self, tmp_path, conf, flags):
        (tmp_path / "run.conf").write_text(conf)
        code = cli.main(["train", "--dataset", str(synth(tmp_path)), "--k", "2",
                         "--config", str(tmp_path / "run.conf"),
                         "--out", str(tmp_path / "out")] + FAST + flags)
        assert code == 2

    @pytest.mark.parametrize("command, message", [
        (["synth", "--max-len", "1"], "max_len"),
        (["ingest", "--max-len", "1"], "max_len"),
        (["ingest", "--min-interactions", "0"], "min_interactions"),
        (["search", "--config", "{conf}"], "search mode"),
    ], ids=["synth-max-len-1", "ingest-max-len-1", "ingest-min-interactions-0",
            "search-mode-in-file"])
    def test_bad_data_or_search_setting_is_usage_error(self, tmp_path, capsys, command,
                                                       message):
        (tmp_path / "run.conf").write_text("search_mode = bogus\n")
        (tmp_path / "log.tsv").write_text("".join(f"u{t % 2}\ti{t}\t{t}\n" for t in range(12)))
        inputs = {"synth": [],
                  "ingest": ["--input", str(tmp_path / "log.tsv"), "--min-interactions", "3"],
                  "search": ["--dataset", str(synth(tmp_path))] + FAST}[command[0]]
        argv = [command[0]] + inputs + [arg.format(conf=tmp_path / "run.conf")
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

    def test_train_keys_are_exactly_the_train_config_fields(self):
        assert set(cli.TRAIN_KEYS) == {f.name for f in dataclasses.fields(TrainConfig)}

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
