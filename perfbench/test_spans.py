"""Tests for the benchmark's span tracer: self-time arithmetic on synthetic
span trees, and wrapping and restoring mixrec's public functions.

Run with ``python -m pytest perfbench/test_spans.py``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from spans import TRACED_MODULES, Tracer, merge_times, self_times  # noqa: E402


def test_self_time_is_duration_minus_child_spans():
    spans = [
        ("fit", 0.0, 10.0, -1),
        ("step", 1.0, 4.0, 0),
        ("step", 5.0, 9.0, 0),
        ("gelu", 6.0, 7.0, 2),
        ("eval", 12.0, 13.0, -1),
    ]
    got = self_times(spans)
    assert got["fit"] == {"calls": 1, "self": 3.0, "total": 10.0}
    assert got["step"] == {"calls": 2, "self": 6.0, "total": 7.0}
    assert got["gelu"] == {"calls": 1, "self": 1.0, "total": 1.0}
    assert got["eval"] == {"calls": 1, "self": 1.0, "total": 1.0}
    # self times partition the union of the root spans
    assert sum(r["self"] for r in got.values()) == 11.0


def test_recursion_counts_inclusive_time_once():
    spans = [("f", 0.0, 10.0, -1), ("f", 2.0, 5.0, 0), ("g", 3.0, 4.0, 1)]
    got = self_times(spans)
    assert got["f"] == {"calls": 2, "self": 9.0, "total": 10.0}
    assert got["g"]["self"] == 1.0


def test_overlapping_and_overhanging_children_are_covered_once():
    spans = [("p", 0.0, 10.0, -1), ("a", 1.0, 5.0, 0), ("b", 3.0, 8.0, 0),
             ("c", 9.0, 12.0, 0)]
    # children cover [1, 8] and [9, 10] inside the parent
    assert self_times(spans)["p"]["self"] == pytest.approx(2.0)


def test_span_lists_from_separate_takes_merge_by_name():
    ticks = iter(range(100))
    tracer = Tracer({}, clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner())
    total = {}
    for _ in range(2):
        outer()
        merge_times(total, self_times(tracer.take()[0]))
    assert total == {"outer": {"calls": 2, "self": 4.0, "total": 6.0},
                     "inner": {"calls": 2, "self": 2.0, "total": 2.0}}


def test_clock_driven_tracer_records_nested_spans():
    ticks = iter(range(100))
    tracer = Tracer({}, clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    spans, _ = tracer.take()
    assert spans == [("outer", 0.0, 3.0, -1), ("inner", 1.0, 2.0, 0)]
    assert self_times(spans)["outer"]["self"] == 2.0


def _modules():
    import importlib
    return {m: importlib.import_module(f"mixrec.{m}") for m in TRACED_MODULES}


def test_install_wraps_every_binding_and_uninstall_restores_them():
    mods = _modules()
    before = {(short, attr): obj for short, mod in mods.items()
              for attr, obj in vars(mod).items() if callable(obj)}
    zero_grad = mods["numkit"].Tensor2.zero_grad
    tracer = Tracer(mods)
    tracer.install()
    try:
        for short, attr in [("train", "forward_hidden"), ("train", "score_items"),
                            ("evaluate", "forward_hidden"), ("evaluate", "sample_negatives"),
                            ("search", "batch_loss"), ("search", "make_batches"),
                            ("model", "embed"), ("numkit", "gelu")]:
            assert getattr(mods[short], attr) is not before[(short, attr)], (short, attr)
            assert getattr(mods[short], attr).__wrapped__ is before[(short, attr)]
        assert mods["numkit"].Tensor2.zero_grad is not zero_grad
    finally:
        tracer.uninstall()
    after = {(short, attr): obj for short, mod in mods.items()
             for attr, obj in vars(mod).items() if callable(obj)}
    assert after == before
    assert mods["numkit"].Tensor2.zero_grad is zero_grad


def test_traced_training_step_times_forward_and_backward():
    mods = _modules()
    model, nk, train = mods["model"], mods["numkit"], mods["train"]
    cfg = model.ModelConfig(num_items=20, max_len=6, dim=4, seq_hidden=5, ch_hidden=5,
                            layers=1, windows=(2,), dropout=0.5)
    params = model.init_params(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    batch = train.Batch(rng.integers(0, 21, size=(3, 6)), rng.integers(1, 21, size=3),
                        rng.integers(1, 21, size=(3, 2)), "train")
    tracer = Tracer(mods)
    tracer.install()
    try:
        loss = train.batch_loss(batch, params, cfg, rng=rng)
        nk.backward(loss)
    finally:
        tracer.uninstall()
    spans, counts = tracer.take()
    got = self_times(spans)
    for name in ("train.batch_loss", "model.forward_hidden", "model.interest_forward.long",
                 "model.interest_forward.short", "numkit.gelu.fwd", "numkit.gelu.bwd",
                 "numkit.mul.fwd", "numkit.dropout_mask", "numkit.backward"):
        assert got[name]["calls"] >= 1, name
    assert got["numkit.gelu.fwd"]["calls"] == got["numkit.gelu.bwd"]["calls"] == 4
    # hidden sizes: sequence mixers (B*D) x 5 in both stacks, channel mixers
    # (B*T) x 5 over 6 positions (long) and 2 positions (short)
    assert counts["numkit.gelu.elements"] == 12 * 5 + 18 * 5 + 12 * 5 + 6 * 5
    # the dropout mask is a constant operand of each dropout mul
    assert counts["numkit.mul.const_operands"] >= 4
