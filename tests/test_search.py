"""Bilevel window-search mechanics: lookahead, disjoint updates, oracle."""

from dataclasses import replace

import numpy as np
import pytest

from mixrec import data as d
from mixrec import model as m
from mixrec import numkit as nk
from mixrec import search as se
from mixrec import train as tr


def planted(users=40, vocab=30, seed=0, max_len=6, k_star=2):
    log = d.synthesize_log(users, 12, vocab, k_star, 0.0, np.random.default_rng(seed))
    return d.build_sequences(log, max_len=max_len)


def model_cfg(ds, windows=(1, 2), **kw):
    base = dict(num_items=ds.num_items, max_len=ds.max_len, dim=8, seq_hidden=8,
                ch_hidden=8, layers=1, windows=windows, dropout=0.0)
    base.update(kw)
    return m.ModelConfig(**base)


def search_cfg(windows=(1, 2), **train_kw):
    base = dict(learning_rate=1e-3, batch_size=32, max_epochs=2, patience=10,
                seed=0, eval_negatives=10)
    base.update(train_kw)
    return se.SearchConfig(windows=windows, train=tr.TrainConfig(**base))


class TestApproxInner:
    def test_zero_rate_keeps_weights(self):
        ds = planted()
        cfg = model_cfg(ds)
        searcher = se.Searcher(ds, cfg, search_cfg())
        batch = tr.make_batches(ds, ds.split_examples("train"), 16,
                                1, searcher.dist, np.random.default_rng(0), "train")[0]
        virtual = se.approx_inner(searcher.params, searcher.alpha, batch, 0.0,
                                  cfg, np.random.default_rng(1))
        for name, leaf in searcher.params.leaves():
            np.testing.assert_array_equal(virtual[name], leaf.data)

    def test_scalar_toy_single_gradient_step(self):
        # loss w^2 at w=1 with rate 0.1 must step to 0.8
        w = nk.Tensor2([[1.0]], requires_grad=True)
        w.zero_grad()
        nk.backward(nk.sum_all(nk.mul(w, w)))
        virtual = w.data - 0.1 * w.grad
        assert virtual[0, 0] == pytest.approx(0.8, abs=1e-12)

    def test_deterministic_and_uncommitted(self):
        ds = planted()
        cfg = model_cfg(ds)
        searcher = se.Searcher(ds, cfg, search_cfg())
        batch = tr.make_batches(ds, ds.split_examples("train"), 16,
                                1, searcher.dist, np.random.default_rng(0), "train")[0]
        before = searcher.params.copy_data()
        v1 = se.approx_inner(searcher.params, searcher.alpha, batch, 0.05, cfg,
                             np.random.default_rng(1))
        v2 = se.approx_inner(searcher.params, searcher.alpha, batch, 0.05, cfg,
                             np.random.default_rng(1))
        for name in v1:
            np.testing.assert_array_equal(v1[name], v2[name])
        for name, leaf in searcher.params.leaves():
            np.testing.assert_array_equal(leaf.data, before[name])

    def test_nonfinite_gradient_names_parameter(self):
        ds = planted()
        cfg = model_cfg(ds)
        searcher = se.Searcher(ds, cfg, search_cfg())
        searcher.params.out_w.data[...] = np.inf
        batch = tr.make_batches(ds, ds.split_examples("train"), 16,
                                1, searcher.dist, np.random.default_rng(0), "train")[0]
        with np.errstate(invalid="ignore"), pytest.raises(nk.NumericalError, match="parameter"):
            se.approx_inner(searcher.params, searcher.alpha, batch, 0.05, cfg,
                            np.random.default_rng(1))


class TestSearchSteps:
    def test_arch_step_touches_alpha_only(self):
        ds = planted()
        cfg = model_cfg(ds)
        searcher = se.Searcher(ds, cfg, search_cfg())
        batches = tr.make_batches(ds, ds.split_examples("train"), 16, 1,
                                  searcher.dist, np.random.default_rng(0), "train")
        val = tr.make_batches(ds, ds.split_examples("val"), 16, 1,
                              searcher.dist, np.random.default_rng(1), "val")
        w_before = searcher.params.copy_data()
        a_before = searcher.alpha.data.copy()
        searcher.arch_step(val[0], batches[0])
        for name, leaf in searcher.params.leaves():
            np.testing.assert_array_equal(leaf.data, w_before[name])
        assert np.abs(searcher.alpha.data - a_before).max() > 0

    def test_weight_step_never_touches_alpha(self):
        ds = planted()
        cfg = model_cfg(ds)
        searcher = se.Searcher(ds, cfg, search_cfg())
        batches = tr.make_batches(ds, ds.split_examples("train"), 16, 1,
                                  searcher.dist, np.random.default_rng(0), "train")
        a_before = searcher.alpha.data.copy()
        w_before = searcher.params.copy_data()
        searcher.weight_step(batches[0])
        np.testing.assert_array_equal(searcher.alpha.data, a_before)
        changed = any(np.abs(leaf.data - w_before[name]).max() > 0
                      for name, leaf in searcher.params.leaves())
        assert changed

    def test_weight_step_rejects_a_nonfinite_loss(self):
        # the same check as fit's: before it, the step wrote non-finite weights
        ds = planted()
        searcher = se.Searcher(ds, model_cfg(ds), search_cfg())
        (batch, *_) = tr.make_batches(ds, ds.split_examples("train"), 16, 1,
                                      searcher.dist, np.random.default_rng(0), "train")
        searcher.params.out_w.data[...] = np.inf
        before = searcher.params.copy_data()
        with np.errstate(invalid="ignore"), pytest.raises(nk.NumericalError, match="non-finite"):
            searcher.weight_step(batch)
        for name, leaf in searcher.params.leaves():
            np.testing.assert_array_equal(leaf.data, before[name])

    def test_epoch_routes_splits_to_the_right_steps(self):
        ds = planted()
        cfg = model_cfg(ds)
        searcher = se.Searcher(ds, cfg, search_cfg())
        seen = {"arch": [], "weight": []}
        real_arch, real_weight = searcher.arch_step, searcher.weight_step

        def spy_arch(val_batch, inner_batch):
            seen["arch"].append((val_batch.split, inner_batch.split))
            real_arch(val_batch, inner_batch)

        def spy_weight(batch):
            seen["weight"].append(batch.split)
            real_weight(batch)

        searcher.arch_step = spy_arch
        searcher.weight_step = spy_weight
        searcher.run_epoch()
        assert seen["arch"] and seen["weight"]
        assert all(v == "val" and i == "train" for v, i in seen["arch"])
        assert all(s == "train" for s in seen["weight"])

    def test_zero_arch_rate_freezes_alpha_while_weights_train(self):
        # alpha frozen at uniform: the search degenerates to training an
        # equal-weight blend, whose validation loss still falls
        ds = planted(users=60)
        cfg = model_cfg(ds)
        scfg = search_cfg(learning_rate=5e-3)
        scfg.arch_lr = 0.0
        searcher = se.Searcher(ds, cfg, scfg)
        searcher.arch_cfg = searcher.arch_cfg.__class__(**{**searcher.arch_cfg.__dict__,
                                                           "learning_rate": 0.0})
        w_before = searcher.params.copy_data()
        losses = [searcher.run_epoch() for _ in range(4)]
        np.testing.assert_array_equal(searcher.alpha.data, 0.0)
        assert any(np.abs(leaf.data - w_before[name]).max() > 0
                   for name, leaf in searcher.params.leaves())
        assert losses[-1] < losses[0]

    def test_single_candidate_alpha_gradient_is_exact_zero(self):
        ds = planted()
        cfg = model_cfg(ds, windows=(2,))
        searcher = se.Searcher(ds, cfg, search_cfg(windows=(2,)))
        batches = tr.make_batches(ds, ds.split_examples("train"), 16, 1,
                                  searcher.dist, np.random.default_rng(0), "train")
        val = tr.make_batches(ds, ds.split_examples("val"), 16, 1,
                              searcher.dist, np.random.default_rng(1), "val")
        grad = searcher.alpha_gradient(val[0], batches[0])
        np.testing.assert_array_equal(grad, 0.0)

    def test_one_step_unrolled_mode_runs_and_differs(self):
        ds = planted()
        cfg = model_cfg(ds)
        grads = {}
        for mode in ("first_order", "one_step_unrolled"):
            scfg = search_cfg()
            scfg.mode = mode
            searcher = se.Searcher(ds, cfg, scfg)
            batches = tr.make_batches(ds, ds.split_examples("train"), 16, 1,
                                      searcher.dist, np.random.default_rng(0), "train")
            val = tr.make_batches(ds, ds.split_examples("val"), 16, 1,
                                  searcher.dist, np.random.default_rng(1), "val")
            grads[mode] = searcher.alpha_gradient(val[0], batches[0])
        assert np.abs(grads["first_order"] - grads["one_step_unrolled"]).max() > 0


def taped_alpha_gradient(searcher, val_batch, inner_batch):
    """``Searcher.alpha_gradient`` with every weight on the tape in every
    pass: the same losses, dropout draws and formulas, plus the weight
    gradients that only the unrolled validation pass reads."""
    lr = searcher.cfg.train.learning_rate
    leaves = searcher.params.leaves()

    def taped_pass(batch, weights):
        params = searcher.params.with_data(weights, True)
        searcher.alpha.zero_grad()
        loss = tr.batch_loss(batch, params, searcher.model_cfg,
                             alpha=searcher.alpha, rng=searcher.dropout_rng)
        nk.backward(loss)
        return searcher.alpha.grad.copy(), {name: leaf.grad for name, leaf in params.leaves()}

    virtual = se.approx_inner(searcher.params, searcher.alpha, inner_batch, lr,
                              searcher.model_cfg, searcher.dropout_rng)
    grad, moved = taped_pass(val_batch, virtual)
    if searcher.cfg.mode == "one_step_unrolled":
        eps = 0.01 / np.sqrt(sum(float((g * g).sum()) for g in moved.values()))
        plus, minus = (taped_pass(inner_batch, {name: leaf.data + sign * eps * moved[name]
                                                for name, leaf in leaves})[0]
                       for sign in (+1.0, -1.0))
        grad -= lr * ((plus - minus) / (2.0 * eps))
    return grad


def search_batches(ds, searcher):
    train = tr.make_batches(ds, ds.split_examples("train"), 16, 1,
                            searcher.dist, np.random.default_rng(0), "train")
    val = tr.make_batches(ds, ds.split_examples("val"), 16, 1,
                          searcher.dist, np.random.default_rng(1), "val")
    return val[0], train[0]


def mode_searcher(ds, mode, dropout=0.0):
    scfg = search_cfg(windows=(1, 2, 4))
    scfg.mode = mode
    return se.Searcher(ds, model_cfg(ds, windows=(1, 2, 4), dropout=dropout), scfg)


class TestAlphaOnlyPasses:
    """The passes that read only alpha's gradient run with the weights frozen."""

    @pytest.mark.parametrize("mode", ["first_order", "one_step_unrolled"])
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_same_bits_as_the_fully_taped_passes(self, mode, dropout):
        ds = planted()
        frozen, taped = mode_searcher(ds, mode, dropout), mode_searcher(ds, mode, dropout)
        val, inner = search_batches(ds, frozen)
        for _ in range(2):  # the second call starts from the first's dropout stream
            want = taped_alpha_gradient(taped, val, inner)
            got = frozen.alpha_gradient(val, inner)
            assert np.abs(want).max() > 0
            np.testing.assert_array_equal(got, want)
        # every pass drew the same dropout masks, in the same order
        assert frozen.dropout_rng.random() == taped.dropout_rng.random()

    def test_the_frozen_pass_leaves_carry_no_tape(self):
        ds = planted()
        searcher = mode_searcher(ds, "first_order")
        passes = []
        real = searcher._loss_at

        def spy(batch, weights, frozen):
            loss, params = real(batch, weights, frozen)
            passes.append((frozen, params))
            return loss, params

        searcher._loss_at = spy
        grad = searcher.alpha_gradient(*search_batches(ds, searcher))
        assert np.abs(grad).max() > 0
        [(frozen, params)] = passes
        assert frozen
        live = {id(leaf) for _, leaf in searcher.params.leaves()}
        for name, leaf in params.leaves():
            assert id(leaf) not in live, name
            assert not leaf.requires_grad, name
            assert leaf.grad is None, name  # a constant holds no gradient buffer

    @pytest.mark.parametrize("mode", ["first_order", "one_step_unrolled"])
    def test_leaves_are_taped_again_after_the_pass(self, mode):
        ds = planted()
        searcher = mode_searcher(ds, mode)
        searcher.alpha_gradient(*search_batches(ds, searcher))
        assert all(leaf.requires_grad for _, leaf in searcher.params.leaves())

    def test_a_pass_that_raises_leaves_the_live_leaves_as_they_were(self, monkeypatch):
        ds = planted()
        searcher = mode_searcher(ds, "first_order")
        before = [(leaf.data, leaf.data.copy()) for _, leaf in searcher.params.leaves()]
        real = se.batch_loss

        def fails_when_frozen(batch, params, cfg, **kwargs):
            if not params.out_w.requires_grad:
                raise RuntimeError("inside the frozen pass")
            return real(batch, params, cfg, **kwargs)

        monkeypatch.setattr(se, "batch_loss", fails_when_frozen)
        with pytest.raises(RuntimeError, match="frozen pass"):
            searcher.alpha_gradient(*search_batches(ds, searcher))
        for (name, leaf), (data, values) in zip(searcher.params.leaves(), before):
            assert leaf.requires_grad, name
            assert leaf.data is data, name
            np.testing.assert_array_equal(leaf.data, values)


class TestRunSearch:
    def test_probabilities_stay_normalized_every_epoch(self):
        ds = planted()
        result, _ = se.run_search(ds, model_cfg(ds), search_cfg(max_epochs=3))
        for rec in result.trace:
            assert abs(sum(rec["p"]) - 1.0) <= 1e-12

    def test_selection_consistency(self):
        ds = planted()
        result, searcher = se.run_search(ds, model_cfg(ds), search_cfg(max_epochs=3))
        assert result.selected_k == result.windows[int(np.argmax(result.alpha))]
        assert result.selected_k == searcher.selected_window()

    def test_selected_window_tracks_argmax(self):
        # the searcher takes its windows from the search config
        ds = planted()
        searcher = se.Searcher(ds, model_cfg(ds, windows=(1, 2)), search_cfg(windows=(1, 2, 4)))
        searcher.alpha.data[...] = [[0.3, 1.7, -0.2]]
        assert searcher.selected_window() == 2
        assert int(np.argmax(nk.softmax(searcher.alpha).data[0])) == 1
        searcher.alpha.data[...] = [[0.3, 1.7, 1.7]]  # a tie goes to the smaller window
        assert searcher.selected_window() == 2
        searcher.alpha.data[...] = 0.0
        assert searcher.selected_window() == 1

    def test_singleton_candidate_short_circuits(self):
        ds = planted()
        result, _ = se.run_search(ds, model_cfg(ds, windows=(2,)),
                                  search_cfg(windows=(2,), max_epochs=3))
        assert result.selected_k == 2
        assert result.alpha == [0.0]

    def test_identical_seeds_identical_traces(self):
        ds = planted()
        a, _ = se.run_search(ds, model_cfg(ds), search_cfg(max_epochs=3))
        b, _ = se.run_search(ds, model_cfg(ds), search_cfg(max_epochs=3))
        assert a.alpha == b.alpha
        for ra, rb in zip(a.trace, b.trace):
            assert ra["alpha"] == rb["alpha"]
            assert ra["val_loss"] == rb["val_loss"]

    def test_unrolled_dropout_trace_is_unchanged(self):
        # recorded before backward released the tape
        ds = planted()
        scfg = replace(search_cfg(windows=(1, 2, 4), seed=23, max_epochs=2),
                       mode="one_step_unrolled")
        result, _ = se.run_search(ds, model_cfg(ds, windows=(1, 2, 4), dropout=0.5), scfg)
        assert [(r["alpha"], r["val_loss"]) for r in result.trace] == [
            ([-0.0028386505532497306, 0.013624702089464306, -0.013555675449120218],
             1.3867300064468469),
            ([-0.006622626210832358, 0.026690312057997916, -0.022496083243570927],
             1.3868643784613297),
        ]

    def test_first_order_dropout_trace_is_unchanged(self):
        # recorded before the search's weight step became train.train_step
        ds = planted()
        scfg = search_cfg(windows=(1, 2, 4), seed=23, max_epochs=2)
        result, _ = se.run_search(ds, model_cfg(ds, windows=(1, 2, 4), dropout=0.5), scfg)
        assert scfg.mode == "first_order"
        assert [(r["alpha"], r["val_loss"]) for r in result.trace] == [
            ([-0.006000056424653264, 0.004003843776836218, -0.0006702244096908611],
             1.3874184070558069),
            ([-0.004540469216399492, 0.0035489186105870955, -0.0016206591510971083],
             1.3856002081295442),
        ]

    def test_argmax_stability_stopping(self, monkeypatch):
        ds = planted()
        cfg = model_cfg(ds)
        scfg = search_cfg(max_epochs=30, patience=2)
        scfg.arch_lr = 0.0  # argmax frozen at the first window immediately
        result, _ = se.run_search(ds, cfg, scfg)
        assert result.epochs_run <= 4

    def test_result_json_roundtrip(self):
        ds = planted()
        result, _ = se.run_search(ds, model_cfg(ds), search_cfg(max_epochs=2))
        back = se.SearchResult.from_json(result.to_json())
        assert back == result


class TestExhaustiveOracle:
    def test_singleton_is_trivial(self):
        ds = planted()
        out = se.exhaustive_oracle(ds, model_cfg(ds, windows=(2,)),
                                   search_cfg(windows=(2,), max_epochs=2))
        assert out.best_k == 2
        assert len(out.per_window) == 1

    def test_tie_breaks_toward_smaller_window(self, monkeypatch):
        ds = planted()
        cfg = model_cfg(ds)
        monkeypatch.setattr(
            se, "fit",
            lambda *a, **k: tr.FitResult(None, [], 1, 0.5, 1))
        out = se.exhaustive_oracle(ds, cfg, search_cfg(windows=(1, 2), max_epochs=1))
        assert out.best_k == 1

    def test_reports_every_candidate(self):
        ds = planted()
        out = se.exhaustive_oracle(ds, model_cfg(ds), search_cfg(max_epochs=1))
        assert [rec["k"] for rec in out.per_window] == [1, 2]
        assert all(rec["wall_ms"] > 0 for rec in out.per_window)
