"""Loss, optimizer, and training-loop tests."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import erf

from mixrec import data as d
from mixrec import evaluate
from mixrec import model as m
from mixrec import numkit as nk
from mixrec import train as tr


class TestAdam:
    def one_param(self, value):
        return [("w", nk.Tensor2([[value]], requires_grad=True))]

    def step(self, named, grad, state, cfg):
        named[0][1].grad = np.array([[grad]], dtype=float)
        tr.adam_update(named, state, cfg)

    def test_zero_gradient_keeps_params(self):
        named = self.one_param(1.5)
        self.step(named, 0.0, tr.AdamState(), tr.TrainConfig(learning_rate=0.1))
        assert named[0][1].data[0, 0] == 1.5

    def test_first_step_magnitude_is_learning_rate(self):
        named = self.one_param(1.0)
        self.step(named, 1.0, tr.AdamState(), tr.TrainConfig(learning_rate=0.1))
        assert abs(named[0][1].data[0, 0] - 0.9) <= 1e-6

    def test_deterministic(self):
        outs = []
        for _ in range(2):
            named = self.one_param(0.7)
            state = tr.AdamState()
            rng = np.random.default_rng(5)
            cfg = tr.TrainConfig(learning_rate=0.01)
            for _ in range(20):
                self.step(named, rng.normal(), state, cfg)
            outs.append(named[0][1].data.copy())
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_descends_convex_objective_with_tiny_step(self):
        # loss = w^2: one grad-checked step at lr=1e-6 must not increase it
        w = nk.Tensor2([[0.8]], requires_grad=True)
        loss = lambda: nk.sum_all(nk.mul(w, w))
        assert nk.grad_check(loss, [w]) <= 1e-8
        before = loss().item()
        nk.backward(loss())
        tr.adam_update([("w", w)], tr.AdamState(), tr.TrainConfig(learning_rate=1e-6))
        assert loss().item() <= before

    def test_bias_correction_matches_reference(self):
        # hand-rolled reference over a few steps
        g_seq = [0.4, -1.0, 2.2]
        cfg = tr.TrainConfig(learning_rate=0.05, beta1=0.9, beta2=0.999)
        named = self.one_param(0.0)
        state = tr.AdamState()
        w_ref, m_ref, v_ref = 0.0, 0.0, 0.0
        for t, g in enumerate(g_seq, start=1):
            self.step(named, g, state, cfg)
            m_ref = 0.9 * m_ref + 0.1 * g
            v_ref = 0.999 * v_ref + 0.001 * g * g
            mh = m_ref / (1 - 0.9 ** t)
            vh = v_ref / (1 - 0.999 ** t)
            w_ref -= 0.05 * mh / (math.sqrt(vh) + 1e-8)
        assert abs(named[0][1].data[0, 0] - w_ref) <= 1e-12


def planted_setup(users=40, vocab=30, seed=0, max_len=6, **model_kw):
    log = d.synthesize_log(users, 12, vocab, 2, 0.0, np.random.default_rng(seed))
    ds = d.build_sequences(log, max_len=max_len)
    base = dict(num_items=ds.num_items, max_len=max_len, dim=8, seq_hidden=8,
                ch_hidden=8, layers=1, windows=(2,), dropout=0.0)
    base.update(model_kw)
    cfg = m.ModelConfig(**base)
    return ds, cfg


class TestFit:
    def test_zero_learning_rate_changes_nothing(self):
        ds, cfg = planted_setup()
        params = m.init_params(cfg, np.random.default_rng(1))
        before = params.copy_data()
        tcfg = tr.TrainConfig(learning_rate=0.0, max_epochs=3, patience=10,
                              batch_size=64, seed=2, eval_negatives=10)
        result = tr.fit(ds, params, cfg, tcfg)
        for name, leaf in params.leaves():
            np.testing.assert_array_equal(leaf.data, before[name])
        losses = [r["train_loss"] for r in result.trace]
        assert max(losses) - min(losses) <= 1e-9

    def test_loss_decreases_on_planted_data(self):
        ds, cfg = planted_setup(users=60)
        params = m.init_params(cfg, np.random.default_rng(3))
        tcfg = tr.TrainConfig(learning_rate=3e-3, max_epochs=5, patience=10,
                              batch_size=64, seed=4, eval_negatives=10)
        result = tr.fit(ds, params, cfg, tcfg)
        losses = [r["train_loss"] for r in result.trace]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_patience_one_with_frozen_metric_stops_after_two_epochs(self, monkeypatch):
        ds, cfg = planted_setup()
        params = m.init_params(cfg, np.random.default_rng(5))
        monkeypatch.setattr(
            tr.evaluate, "evaluate_split",
            lambda *a, **k: evaluate.RankingMetrics(0.5, 0.4, 0.3, 10, 1))
        tcfg = tr.TrainConfig(learning_rate=1e-3, max_epochs=50, patience=1,
                              batch_size=64, seed=6, eval_negatives=10)
        result = tr.fit(ds, params, cfg, tcfg)
        assert result.epochs_run == 2
        assert result.best_epoch == 1

    def test_returns_best_epoch_parameters_not_last(self, monkeypatch):
        ds, cfg = planted_setup()
        params = m.init_params(cfg, np.random.default_rng(7))
        injected = iter([0.2, 0.9, 0.4, 0.1, 0.05])
        snapshots = {}
        real_copy = params.copy_data

        def fake_eval(*a, **k):
            mrr = next(injected)
            snapshots[mrr] = real_copy()
            return evaluate.RankingMetrics(mrr, mrr, mrr, 10, 1)

        monkeypatch.setattr(tr.evaluate, "evaluate_split", fake_eval)
        tcfg = tr.TrainConfig(learning_rate=1e-3, max_epochs=5, patience=3,
                              batch_size=64, seed=8, eval_negatives=10)
        result = tr.fit(ds, params, cfg, tcfg)
        assert result.best_epoch == 2
        assert result.best_val_mrr == 0.9
        for name, leaf in params.leaves():
            np.testing.assert_array_equal(leaf.data, snapshots[0.9][name])

    def test_padding_row_stays_zero_through_training(self):
        ds, cfg = planted_setup()
        params = m.init_params(cfg, np.random.default_rng(9))
        tcfg = tr.TrainConfig(learning_rate=5e-3, max_epochs=3, patience=10,
                              batch_size=32, seed=10, eval_negatives=10)
        tr.fit(ds, params, cfg, tcfg)
        np.testing.assert_array_equal(params.item_embedding.data[d.PAD], 0.0)

    def test_empty_train_split_rejected(self):
        ds, cfg = planted_setup()
        ds.examples = ds.examples[ds.examples.splits != d.SPLITS.index("train")]
        params = m.init_params(cfg, np.random.default_rng(11))
        with pytest.raises(d.DataError):
            tr.fit(ds, params, cfg, tr.TrainConfig())

    def test_deterministic_given_seed(self):
        outs = []
        for _ in range(2):
            ds, cfg = planted_setup()
            params = m.init_params(cfg, np.random.default_rng(12))
            tcfg = tr.TrainConfig(learning_rate=2e-3, max_epochs=3, patience=10,
                                  batch_size=64, seed=13, eval_negatives=10)
            cfg2 = m.ModelConfig(**{**cfg.__dict__, "dropout": 0.3})
            result = tr.fit(ds, params, cfg2, tcfg)
            outs.append((params.copy_data(), result.trace))
        for name in outs[0][0]:
            np.testing.assert_array_equal(outs[0][0][name], outs[1][0][name])
        a = [{k: v for k, v in r.items() if k != "wall_ms"} for r in outs[0][1]]
        b = [{k: v for k, v in r.items() if k != "wall_ms"} for r in outs[1][1]]
        assert a == b


def dropout_gelu_setup():
    return planted_setup(users=60, dim=16, seq_hidden=32, ch_hidden=32, layers=2,
                         dropout=0.5, activation="gelu")


class TestReleasedTape:
    """A replayed tape is freed before the next step builds its own."""

    def test_two_steps_peak_below_one_and_a_half_steps(self):
        ds, cfg = dropout_gelu_setup()
        params = m.init_params(cfg, np.random.default_rng(16))
        (batch,) = tr.make_batches(ds, ds.split_examples("train")[:32], 32, 1,
                                   d.PopularityDist(ds.item_counts),
                                   np.random.default_rng(17), "train")
        rng = np.random.default_rng(18)

        def peak_bytes(steps):
            # fit's loop: ``loss`` still names the last step while the next
            # one is built
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for _ in range(steps):
                loss = tr.batch_loss(batch, params, cfg, rng=rng)
                nk.backward(loss)
            return tracemalloc.get_traced_memory()[1] - base

        peak_bytes(1)  # first-call allocations stay out of the measurement
        tracemalloc.start()
        try:
            one, two = peak_bytes(1), peak_bytes(2)
        finally:
            tracemalloc.stop()
        # about 1.0x; with two live tapes, as before backward released
        # them, about 1.8x
        assert two < 1.5 * one

    def test_fit_trace_is_unchanged(self):
        # recorded before backward released the tape
        ds, cfg = dropout_gelu_setup()
        params = m.init_params(cfg, np.random.default_rng(21))
        tcfg = tr.TrainConfig(learning_rate=1e-2, max_epochs=2, patience=10,
                              batch_size=32, seed=22, eval_negatives=10)
        trace = tr.fit(ds, params, cfg, tcfg).trace
        assert [(r["train_loss"], r["val_mrr10"], r["val_ndcg10"], r["val_hr10"])
                for r in trace] == [
            (1.387741629570535, 0.324345238095238, 0.45859377570750154, 0.9),
            (1.3822500558093278, 0.3510780423280423, 0.48654793201162383, 0.9333333333333333),
        ]


def closed_form_gelu(a):
    """Exact GELU as one unchunked expression per pass, with plain buffers."""
    x, slot = a.data, a._slot
    cdf = 0.5 * (1.0 + erf(x * (1.0 / math.sqrt(2.0))))
    def bwd(g):
        pdf = np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))
        nk._accum(slot, g * (cdf + x * pdf))
    return nk._node(x * cdf, (slot,), bwd)


def test_gelu_fit_matches_the_closed_form_op_bit_for_bit(monkeypatch):
    ds, cfg = dropout_gelu_setup()
    tcfg = tr.TrainConfig(learning_rate=1e-2, max_epochs=3, patience=10,
                          batch_size=32, seed=14, eval_negatives=10)
    runs = []
    for op in (nk.gelu, closed_form_gelu):
        monkeypatch.setattr(nk, "gelu", op)
        params = m.init_params(cfg, np.random.default_rng(15))
        result = tr.fit(ds, params, cfg, tcfg)
        runs.append(([r["train_loss"] for r in result.trace], params.copy_data()))
    (loss_a, params_a), (loss_b, params_b) = runs
    assert loss_a == loss_b
    for name in params_a:
        assert np.array_equal(params_a[name], params_b[name]), name


class TestTrainingNegatives:
    def test_never_hits_user_history_or_padding(self):
        ds, _ = planted_setup(users=20, vocab=25)
        dist = d.PopularityDist(ds.item_counts)
        examples = ds.split_examples("train")[:64]
        sequences = dict(ds.sequences())
        draws = tr.sample_training_negatives(dist, ds.history_mask(examples.users), 3,
                                             np.random.default_rng(14))
        for row, user in zip(draws, examples.users.tolist()):
            assert not set(row.tolist()) & set(sequences[user].tolist())
            assert d.PAD not in row

    def test_batches_cover_every_example_once(self):
        ds, _ = planted_setup()
        dist = d.PopularityDist(ds.item_counts)
        examples = ds.split_examples("train")
        batches = tr.make_batches(ds, examples, 32, 1, dist, np.random.default_rng(15), "train")
        seen = sum((list(zip(map(tuple, b.inputs), b.targets)) for b in batches), [])
        expected = sorted((tuple(ex.input), ex.target) for ex in examples)
        assert sorted(seen) == expected
