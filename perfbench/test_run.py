"""Tests for the benchmark runner: BENCHMARK.json agrees with the metrics
run.py prints, the percentile summary, failed units and unmeasured layers,
the reference check, and the refusal to run without the program's sources.

Run with ``python -m pytest perfbench/test_run.py``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
from spans import TRACED_MODULES, Tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_the_metrics_and_workloads_run_prints():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == {
        name: unit for name, (unit, _) in run.END_TO_END.items()}
    assert {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]} == {
        name: "higher" if higher else "lower" for name, (_, higher) in run.END_TO_END.items()}
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        name: unit for name, (unit, _) in run.PER_LAYER.items()}
    reference = run.read_reference()
    assert set(reference["peak_rss_mb"]) == set(run.WORKLOAD_NAMES)


def test_summary_reports_the_highest_percentile_with_ten_samples_beyond_it():
    assert run.summarize([3.0, 1.0, 2.0], higher_is_better=False) == {
        "median": 2.0, "n": 3, "tail": None, "samples": [3.0, 1.0, 2.0]}
    times = [float(i) for i in range(1, 21)]          # lower is better
    assert run.summarize(times, False)["tail"] == {"p": 50, "value": 10.0}
    rates = [float(i) for i in range(1, 12)]          # higher is better
    assert run.summarize(rates, True)["tail"] == {"p": 9, "value": 11.0}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "search_desk", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == run.EXIT_NO_PROGRAM
    assert proc.stdout == ""
    assert "no mixrec sources" in proc.stderr


class AlwaysRaises:
    name = entry = "always_raises"
    recorded = False
    setup_repeats = 1
    warmup_units = 0

    def setup(self, seed):
        return {}

    def reset(self, state):
        pass

    def run(self, state):
        raise FloatingPointError("every unit fails")

    def check(self, record, reference):
        return []


def test_units_that_all_raise_are_reported_failed_with_zero_values(capsys):
    for trace, unmeasured in ((0, {"examples_per_s"}), (1, set(run.PER_LAYER))):
        result = run.run_workload(AlwaysRaises(), 0, 0.01, trace, reference={})
        assert result["correct"] is False
        assert result["failed"] == result["attempted"] >= 1
        assert {k for k, m in result["metrics"].items() if m["value"] == 0.0} >= unmeasured
        assert all(isinstance(m["value"], float) for m in result["metrics"].values())
        detail = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert detail["failed_frac"] == 1.0


class TwoParts(AlwaysRaises):
    warmup_units = 1

    def run(self, state):
        from workloads import Unit
        return Unit(4, 4, [], parts=[(1, 0.5), (3, 0.5)])


def test_each_timed_part_is_a_sample_and_warmup_units_are_not(capsys):
    result = run.run_workload(TwoParts(), 0, 0.01, 0, reference={})
    assert result["correct"] is True
    assert result["metrics"]["examples_per_s"]["value"] == 4.0   # median of 2 and 6
    detail = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["detail"]
    assert detail["examples_per_s"]["n"] == 2 * (result["attempted"] - 1)


def test_a_layer_whose_span_never_ran_reads_zero():
    plain, traced = run.Measurement(), run.Measurement()
    plain.examples = traced.examples = traced.items = 10
    plain.walls, traced.walls = [1.0], [2.0]
    traced.layers = {"numkit.gelu.fwd": {"calls": 4, "self": 0.5, "total": 0.5},
                     "evaluate.example_rng": {"calls": 8, "self": 0.1, "total": 0.1}}
    traced.counts = {"numkit.gelu.elements": 40.0, "evaluate.example_rng.calls": 8.0}
    values = run.per_layer_values(plain, traced, {}, "train.fit")
    assert values["numkit.gelu.fwd_ms"] == 50.0
    assert values["numkit.gelu.elements"] == 4.0
    assert values["evaluate.example_rng.repeat_frac"] == 0.0   # ran, never repeated
    assert values["trace.overhead_frac"] == 0.5
    for name in ("numkit.gelu.bwd_ms", "search.approx_inner.ms", "numkit.softmax.calls",
                 "numkit.mul.const_operand_frac", "data.build_sequences.s"):
        assert values[name] == 0.0, name


def test_every_function_a_layer_metric_reads_exists_in_the_program():
    import importlib
    mods = {m: importlib.import_module(f"mixrec.{m}") for m in TRACED_MODULES}
    names = Tracer(mods).target_names()
    assert run.missing_layer_functions(names) == []
    assert run.missing_layer_functions(names - {"numkit.dropout_mask", "search.arch_step"}) == [
        "numkit.dropout_mask", "search.arch_step"]


class Recorded(AlwaysRaises):
    recorded = True

    def check(self, record, reference):
        return [] if record == reference else ["differs"]


def test_recorded_workloads_fail_every_unit_without_a_recording():
    reference = {"outputs": {Recorded.name: {"3": [1.0]}}}
    assert run.make_checker(Recorded(), reference, 3)([1.0]) == []
    assert run.make_checker(Recorded(), reference, 3)([2.0]) == ["differs"]
    assert run.make_checker(Recorded(), reference, 4)([1.0]) == [
        "no output recorded for input seed 4"]
    assert run.make_checker(AlwaysRaises(), {}, 4)([1.0]) == []
