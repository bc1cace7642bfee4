"""Forward-pass tests against direct formula evaluation and invariants."""

import json
import math

import numpy as np
import pytest

from mixrec import model as m
from mixrec import numkit as nk


def toy_cfg(**kw):
    base = dict(num_items=12, max_len=6, dim=4, seq_hidden=4, ch_hidden=4,
                layers=1, windows=(2, 3), dropout=0.0)
    base.update(kw)
    return m.ModelConfig(**base)


def zero_mixer_weights(params):
    for stack in [params.long_stack] + params.candidate_stacks:
        for layer in stack:
            for w in (layer.seq_w1, layer.seq_w2, layer.ch_w3, layer.ch_w4):
                w.data[...] = 0.0


# -- independent oracles ------------------------------------------------------

def _gelu(v):
    return v * 0.5 * (1.0 + np.vectorize(math.erf)(v / math.sqrt(2.0)))


def _ln_rows(x, gamma, beta, eps=m.LN_EPS):
    mu = x.mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(x.var(axis=1, keepdims=True) + eps)
    return (x - mu) * inv * gamma + beta


def seq_mixer_oracle(x_td, layer):
    """Direct per-channel evaluation of the position-mixing formula."""
    normed = _ln_rows(x_td, layer.seq_gamma.data, layer.seq_beta.data)
    out = np.array(x_td, dtype=float)
    for d in range(x_td.shape[1]):
        col = normed[:, d]
        out[:, d] += layer.seq_w2.data @ _gelu(layer.seq_w1.data @ col)
    return out


def ch_mixer_oracle(x_td, layer):
    normed = _ln_rows(x_td, layer.ch_gamma.data, layer.ch_beta.data)
    out = np.array(x_td, dtype=float)
    for t in range(x_td.shape[0]):
        out[t] += layer.ch_w4.data @ _gelu(layer.ch_w3.data @ normed[t])
    return out


class TestEmbed:
    def test_all_padding_is_zero(self):
        cfg = toy_cfg()
        params = m.init_params(cfg, np.random.default_rng(0))
        out = m.embed(np.zeros((2, cfg.max_len), dtype=int), params, cfg)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_plain_lookup(self):
        cfg = toy_cfg()
        params = m.init_params(cfg, np.random.default_rng(0))
        out = m.embed(np.array([[3, 7]]), params, cfg)
        np.testing.assert_array_equal(out.data[0], params.item_embedding.data[3])
        np.testing.assert_array_equal(out.data[1], params.item_embedding.data[7])

    def test_out_of_range_index(self):
        cfg = toy_cfg()
        params = m.init_params(cfg, np.random.default_rng(0))
        with pytest.raises(LookupError):
            m.embed(np.array([[99]]), params, cfg)


class TestSequenceMixer:
    def test_zero_inner_path_is_identity(self):
        cfg = toy_cfg()
        params = m.init_params(cfg, np.random.default_rng(1))
        zero_mixer_weights(params)
        x = nk.Tensor2(np.random.default_rng(2).normal(size=(cfg.dim, cfg.max_len)).T)
        out = m.sequence_mixer_block(x, params.long_stack[0], cfg, blocks=1)
        np.testing.assert_array_equal(out.data, x.data)

    def test_zero_second_projection_is_identity(self):
        cfg = toy_cfg()
        params = m.init_params(cfg, np.random.default_rng(1))
        params.long_stack[0].seq_w2.data[...] = 0.0
        x = nk.Tensor2(np.random.default_rng(3).normal(size=(cfg.dim, cfg.max_len)).T)
        out = m.sequence_mixer_block(x, params.long_stack[0], cfg, blocks=1)
        np.testing.assert_allclose(out.data, x.data, atol=1e-15)

    def test_matches_direct_formula(self):
        cfg = toy_cfg(max_len=3, dim=2, seq_hidden=3, windows=(2,))
        rng = np.random.default_rng(4)
        params = m.init_params(cfg, rng)
        layer = params.long_stack[0]
        layer.seq_gamma.data[...] = rng.normal(size=(1, 2))
        layer.seq_beta.data[...] = rng.normal(size=(1, 2))
        x_td = rng.normal(size=(3, 2))
        got = m.sequence_mixer_block(nk.Tensor2(x_td), layer, cfg, blocks=1).data
        np.testing.assert_allclose(got, seq_mixer_oracle(x_td, layer), atol=1e-12)

    def test_batched_equals_per_example(self):
        cfg = toy_cfg()
        rng = np.random.default_rng(5)
        params = m.init_params(cfg, rng)
        layer = params.long_stack[0]
        tables = [rng.normal(size=(cfg.max_len, cfg.dim)) for _ in range(3)]
        stacked = nk.Tensor2(np.vstack(tables))
        batched = m.sequence_mixer_block(stacked, layer, cfg, blocks=3).data
        for i, table in enumerate(tables):
            single = m.sequence_mixer_block(nk.Tensor2(table), layer, cfg, blocks=1).data
            np.testing.assert_allclose(
                batched[i * cfg.max_len:(i + 1) * cfg.max_len], single, atol=1e-12)

    def test_sequence_norm_axis_variant(self):
        cfg_ch = toy_cfg()
        cfg_seq = toy_cfg(norm_axis="sequence")
        rng = np.random.default_rng(6)
        params = m.init_params(cfg_ch, rng)
        x = nk.Tensor2(rng.normal(size=(cfg_ch.dim, cfg_ch.max_len)).T)
        a = m.sequence_mixer_block(x, params.long_stack[0], cfg_ch, blocks=1).data
        b = m.sequence_mixer_block(x, params.long_stack[0], cfg_seq, blocks=1).data
        assert np.abs(a - b).max() > 1e-8


class TestChannelMixer:
    def test_zero_weights_identity(self):
        cfg = toy_cfg()
        params = m.init_params(cfg, np.random.default_rng(1))
        zero_mixer_weights(params)
        x = nk.Tensor2(np.random.default_rng(7).normal(size=(cfg.max_len, cfg.dim)))
        out = m.channel_mixer_block(x, params.long_stack[0], cfg)
        np.testing.assert_array_equal(out.data, x.data)

    def test_matches_direct_formula(self):
        cfg = toy_cfg(max_len=2, dim=2, ch_hidden=3, windows=(1,))
        rng = np.random.default_rng(8)
        params = m.init_params(cfg, rng)
        layer = params.long_stack[0]
        x_td = rng.normal(size=(1, 2))
        got = m.channel_mixer_block(nk.Tensor2(x_td), layer, cfg).data
        np.testing.assert_allclose(got, ch_mixer_oracle(x_td, layer), atol=1e-12)

    def test_equal_positions_give_equal_rows(self):
        cfg = toy_cfg()
        rng = np.random.default_rng(9)
        params = m.init_params(cfg, rng)
        row = rng.normal(size=(1, cfg.dim))
        x = nk.Tensor2(np.vstack([row, row]))
        out = m.channel_mixer_block(x, params.long_stack[0], cfg).data
        np.testing.assert_array_equal(out[0], out[1])


class TestStack:
    def test_zero_weights_identity_any_depth(self):
        cfg = toy_cfg(layers=3)
        params = m.init_params(cfg, np.random.default_rng(1))
        zero_mixer_weights(params)
        x = nk.Tensor2(np.random.default_rng(2).normal(size=(cfg.max_len, cfg.dim)))
        out = m.stack_forward(x, params.long_stack, cfg, blocks=1)
        np.testing.assert_array_equal(out.data, x.data)

    def test_single_layer_is_sequence_then_channel(self):
        cfg = toy_cfg()
        rng = np.random.default_rng(3)
        params = m.init_params(cfg, rng)
        layer = params.long_stack[0]
        x = rng.normal(size=(cfg.max_len, cfg.dim))
        manual = m.channel_mixer_block(
            m.sequence_mixer_block(nk.Tensor2(x), layer, cfg, blocks=1), layer, cfg)
        out = m.stack_forward(nk.Tensor2(x), [layer], cfg, blocks=1)
        np.testing.assert_allclose(out.data, manual.data, atol=1e-14)

    def test_two_layers_compose(self):
        cfg = toy_cfg(layers=2)
        rng = np.random.default_rng(4)
        params = m.init_params(cfg, rng)
        x = nk.Tensor2(rng.normal(size=(cfg.max_len, cfg.dim)))
        once = m.stack_forward(x, params.long_stack[:1], cfg, blocks=1)
        twice = m.stack_forward(once, params.long_stack[1:], cfg, blocks=1)
        full = m.stack_forward(x, params.long_stack, cfg, blocks=1)
        np.testing.assert_allclose(full.data, twice.data, atol=1e-14)


class TestInterest:
    def test_window_slicing_ignores_earlier_positions(self):
        cfg = toy_cfg()
        rng = np.random.default_rng(5)
        params = m.init_params(cfg, rng)
        x1 = rng.normal(size=(cfg.max_len, cfg.dim))
        x2 = x1.copy()
        x2[: cfg.max_len - 2] += rng.normal(size=(cfg.max_len - 2, cfg.dim))
        stack = params.candidate_stacks[0]  # window 2
        out1 = m.interest_forward(nk.Tensor2(x1), 2, stack, cfg, 1, cfg.max_len)
        out2 = m.interest_forward(nk.Tensor2(x2), 2, stack, cfg, 1, cfg.max_len)
        np.testing.assert_array_equal(out1.data, out2.data)

    def test_zero_weights_return_final_embedding(self):
        cfg = toy_cfg()
        params = m.init_params(cfg, np.random.default_rng(6))
        zero_mixer_weights(params)
        x = np.random.default_rng(7).normal(size=(cfg.max_len, cfg.dim))
        out = m.interest_forward(nk.Tensor2(x), 3, params.candidate_stacks[1], cfg, 1, cfg.max_len)
        np.testing.assert_array_equal(out.data[0], x[-1])

    def test_window_too_large(self):
        cfg = toy_cfg()
        params = m.init_params(cfg, np.random.default_rng(0))
        x = nk.Tensor2(np.zeros((cfg.max_len, cfg.dim)))
        with pytest.raises(ValueError):
            m.interest_forward(x, cfg.max_len + 1, params.long_stack, cfg, 1, cfg.max_len)


def every_row_interest(x, window, stack, cfg, blocks, block_len):
    """Oracle: the whole stack over every row of the last ``window``
    positions, then each block's final row."""
    tables = x.data.reshape(blocks, block_len, -1)[:, block_len - window:]
    mixed = m.stack_forward(nk.Tensor2(tables.reshape(blocks * window, -1)), stack, cfg, blocks)
    return nk.take_rows(mixed, np.arange(1, blocks + 1) * window - 1)


class TestFinalRowPath:
    """Outside training the last layer computes only the final row."""

    @pytest.mark.parametrize("layers", [1, 3])
    @pytest.mark.parametrize("activation", ["gelu", "relu"])
    @pytest.mark.parametrize("norm_axis", ["channel", "sequence"])
    @pytest.mark.parametrize("flags", [{}, {"disable_sequence_mixer": True},
                                       {"disable_channel_mixer": True},
                                       {"disable_sequence_mixer": True,
                                        "disable_channel_mixer": True}])
    def test_matches_the_every_row_oracle(self, layers, activation, norm_axis, flags):
        cfg = toy_cfg(max_len=5, dim=3, seq_hidden=4, ch_hidden=6, layers=layers,
                      windows=(1, 3), activation=activation, norm_axis=norm_axis, **flags)
        rng = np.random.default_rng(layers)
        params = m.init_params(cfg, rng)
        blocks, t = 3, cfg.max_len
        x = nk.Tensor2(rng.normal(size=(blocks * t, cfg.dim)))
        cases = [(1, params.candidate_stacks[0]), (3, params.candidate_stacks[1]),
                 (t, params.long_stack)]
        for window, stack in cases:
            got = m.interest_forward(x, window, stack, cfg, blocks, t)
            want = every_row_interest(x, window, stack, cfg, blocks, t)
            assert got.shape == (blocks, cfg.dim)
            np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("window", [2, 4])
    def test_gradients_match_finite_differences(self, window):
        cfg = toy_cfg(max_len=4, dim=3, seq_hidden=3, ch_hidden=3, layers=2, windows=(2,))
        rng = np.random.default_rng(window)
        params = m.init_params(cfg, rng)
        stack = params.long_stack if window == cfg.max_len else params.candidate_stacks[0]
        x = nk.Tensor2(rng.normal(size=(2 * cfg.max_len, cfg.dim)), requires_grad=True)

        def loss():
            out = m.interest_forward(x, window, stack, cfg, 2, cfg.max_len)
            return nk.mean_all(nk.softplus(out))

        leaves = [x] + [leaf for li, layer in enumerate(stack)
                        for _, leaf in layer.named(str(li))]
        assert nk.grad_check(loss, leaves, h=1e-6) <= 1e-4

    def test_training_runs_gelu_on_every_row(self, monkeypatch):
        # the dropout masks, and so the generator stream, keep their shapes
        cfg = toy_cfg(dropout=0.5)
        rng = np.random.default_rng(9)
        params = m.init_params(cfg, rng)
        x = nk.Tensor2(rng.normal(size=(2 * cfg.max_len, cfg.dim)))
        sizes = []
        gelu = nk.gelu
        monkeypatch.setattr(nk, "gelu", lambda a: sizes.append(a.data.size) or gelu(a))
        stack = params.candidate_stacks[1]  # window 3
        m.interest_forward(x, 3, stack, cfg, 2, cfg.max_len, rng=rng)
        assert sizes == [2 * cfg.dim * cfg.seq_hidden, 2 * 3 * cfg.ch_hidden]
        sizes.clear()
        m.interest_forward(x, 3, stack, cfg, 2, cfg.max_len)
        assert sizes == [2 * cfg.dim * cfg.seq_hidden, 2 * cfg.ch_hidden]


class TestMixture:
    def _candidate_outputs(self, x, params, cfg):
        return [
            m.interest_forward(x, k, stack, cfg, 1, cfg.max_len).data
            for k, stack in zip(cfg.windows, params.candidate_stacks)
        ]

    def test_single_candidate_passthrough(self):
        cfg = toy_cfg(windows=(3,))
        rng = np.random.default_rng(8)
        params = m.init_params(cfg, rng)
        alpha = m.init_arch(cfg)
        x = nk.Tensor2(rng.normal(size=(cfg.max_len, cfg.dim)))
        out = m.mixture_short_term(x, alpha, params, cfg, 1, cfg.max_len)
        np.testing.assert_allclose(out.data, self._candidate_outputs(x, params, cfg)[0],
                                   atol=1e-14)

    def test_uniform_logits_average(self):
        cfg = toy_cfg()
        rng = np.random.default_rng(9)
        params = m.init_params(cfg, rng)
        alpha = m.init_arch(cfg)
        x = nk.Tensor2(rng.normal(size=(cfg.max_len, cfg.dim)))
        u, v = self._candidate_outputs(x, params, cfg)
        out = m.mixture_short_term(x, alpha, params, cfg, 1, cfg.max_len)
        np.testing.assert_allclose(out.data, (u + v) / 2.0, atol=1e-12)

    def test_log_two_logit_gives_one_third_two_thirds(self):
        cfg = toy_cfg()
        rng = np.random.default_rng(10)
        params = m.init_params(cfg, rng)
        alpha = m.init_arch(cfg)
        alpha.data[...] = [[0.0, math.log(2.0)]]
        x = nk.Tensor2(rng.normal(size=(cfg.max_len, cfg.dim)))
        u, v = self._candidate_outputs(x, params, cfg)
        out = m.mixture_short_term(x, alpha, params, cfg, 1, cfg.max_len)
        np.testing.assert_allclose(out.data, u / 3.0 + 2.0 * v / 3.0, atol=1e-12)

    def test_count_mismatch_rejected(self):
        cfg = toy_cfg()
        params = m.init_params(cfg, np.random.default_rng(0))
        alpha = nk.Tensor2(np.zeros((1, 3)))  # three logits, two candidate stacks
        x = nk.Tensor2(np.zeros((cfg.max_len, cfg.dim)))
        with pytest.raises(ValueError, match="3 logits for 2 candidate stacks"):
            m.mixture_short_term(x, alpha, params, cfg, 1, cfg.max_len)


class TestFuseOutput:
    def test_zero_weights_give_bias(self):
        cfg = toy_cfg()
        params = m.init_params(cfg, np.random.default_rng(1))
        params.out_w.data[...] = 0.0
        params.out_b.data[...] = [[1.0, 2.0, 3.0, 4.0]]
        out = m.fuse_output(nk.Tensor2(np.random.normal(size=(1, 4))),
                            nk.Tensor2(np.random.normal(size=(1, 4))), params)
        np.testing.assert_array_equal(out.data, [[1.0, 2.0, 3.0, 4.0]])

    def test_constant_concat_gives_bias(self):
        cfg = toy_cfg()
        params = m.init_params(cfg, np.random.default_rng(2))
        const = nk.Tensor2(np.full((1, 4), 3.0))
        out = m.fuse_output(const, const, params)
        np.testing.assert_allclose(out.data, params.out_b.data, atol=1e-12)

    def test_hand_projection(self):
        cfg = toy_cfg(dim=2)
        params = m.init_params(cfg, np.random.default_rng(3))
        w = np.array([[1.0, 0.0, -1.0, 2.0], [0.5, 0.5, 0.5, 0.5]])
        params.out_w.data[...] = w
        params.out_b.data[...] = [[0.1, -0.1]]
        xs, xl = np.array([[1.0, 2.0]]), np.array([[3.0, 5.0]])
        cat = np.hstack([xs, xl])[0]
        normed = (cat - cat.mean()) / np.sqrt(cat.var() + m.LN_EPS)
        expected = w @ normed + np.array([0.1, -0.1])
        out = m.fuse_output(nk.Tensor2(xs), nk.Tensor2(xl), params)
        np.testing.assert_allclose(out.data[0], expected, atol=1e-12)


class TestScoreItems:
    def test_identical_embeddings_split_evenly(self):
        cfg = toy_cfg()
        params = m.init_params(cfg, np.random.default_rng(4))
        params.item_embedding.data[2] = params.item_embedding.data[5]
        h = nk.Tensor2(np.random.default_rng(5).normal(size=(1, cfg.dim)))
        raw = m.score_items(h, [2, 5], params)
        assert raw.shape == (1, 2)
        assert raw.data[0, 0] == raw.data[0, 1]

    def test_zero_hidden_is_uniform(self):
        cfg = toy_cfg()
        params = m.init_params(cfg, np.random.default_rng(6))
        raw = m.score_items(nk.Tensor2(np.zeros((1, cfg.dim))), [1, 2, 3, 4], params)
        np.testing.assert_array_equal(raw.data, np.zeros((1, 4)))

    def test_hand_softmax(self):
        cfg = toy_cfg(dim=2)
        params = m.init_params(cfg, np.random.default_rng(7))
        params.item_embedding.data[1] = [2.0, 0.0]
        params.item_embedding.data[2] = [0.0, 5.0]
        raw = m.score_items(nk.Tensor2([[1.0, 0.0]]), [1, 2], params)
        np.testing.assert_allclose(raw.data, [[2.0, 0.0]], atol=1e-14)
        np.testing.assert_allclose(nk.softmax(raw).data, [[0.8808, 0.1192]], atol=1e-4)

    def test_empty_candidates_rejected(self):
        cfg = toy_cfg()
        params = m.init_params(cfg, np.random.default_rng(8))
        with pytest.raises(ValueError):
            m.score_items(nk.Tensor2(np.zeros((1, cfg.dim))), [], params)


class TestFullForward:
    def test_zero_network_uniform_scores(self):
        cfg = toy_cfg()
        params = m.init_params(cfg, np.random.default_rng(1))
        zero_mixer_weights(params)
        params.out_w.data[...] = 0.0
        params.out_b.data[...] = 0.0
        alpha = m.init_arch(cfg)
        h = m.forward_hidden(np.array([[0, 0, 1, 2, 3, 4]]), params, cfg, alpha)
        np.testing.assert_array_equal(h.data, 0.0)
        raw = m.score_items(h, [1, 2, 3], params)
        np.testing.assert_array_equal(raw.data, np.zeros((1, 3)))

    def test_train_mode_deterministic_given_seed(self):
        cfg = toy_cfg(dropout=0.5)
        params = m.init_params(cfg, np.random.default_rng(2))
        alpha = m.init_arch(cfg)
        inp = np.array([[0, 1, 2, 3, 4, 5]])
        a = m.forward_hidden(inp, params, cfg, alpha, rng=np.random.default_rng(11)).data
        b = m.forward_hidden(inp, params, cfg, alpha, rng=np.random.default_rng(11)).data
        np.testing.assert_array_equal(a, b)

    def test_every_leaf_and_alpha_receive_gradient(self):
        cfg = toy_cfg()
        rng = np.random.default_rng(3)
        params = m.init_params(cfg, rng)
        alpha = m.init_arch(cfg)
        inputs = np.array([[1, 2, 3, 4, 5, 6], [7, 8, 9, 10, 11, 12]])
        h = m.forward_hidden(inputs, params, cfg, alpha)
        raw = m.score_items(h, np.array([[1, 2], [3, 4]]), params)
        loss = nk.mean_all(nk.softplus(raw))
        for _, leaf in params.leaves():
            leaf.zero_grad()
        alpha.zero_grad()
        nk.backward(loss)
        for name, leaf in params.leaves():
            assert np.abs(leaf.grad).max() > 0, f"no gradient reached {name}"
        assert np.all(np.abs(alpha.grad) > 0)

    def test_disable_flags_bypass_mixers(self):
        rng = np.random.default_rng(4)
        cfg_off = toy_cfg(disable_sequence_mixer=True, disable_channel_mixer=True)
        params = m.init_params(cfg_off, rng)
        x = nk.Tensor2(rng.normal(size=(cfg_off.max_len, cfg_off.dim)))
        out = m.stack_forward(x, params.long_stack, cfg_off, blocks=1)
        np.testing.assert_array_equal(out.data, x.data)

    def test_full_model_grad_check_small(self):
        assert self.full_model_grad_error("gelu") <= 1e-4

    def test_full_relu_model_grad_check_small(self):
        assert self.full_model_grad_error("relu") <= 1e-4

    @staticmethod
    def full_model_grad_error(activation):
        cfg = toy_cfg(max_len=4, dim=3, seq_hidden=3, ch_hidden=3, windows=(1, 2),
                      activation=activation)
        rng = np.random.default_rng(5)
        params = m.init_params(cfg, rng)
        alpha = m.init_arch(cfg)
        alpha.data[...] = [[0.2, -0.1]]
        inputs = np.array([[0, 1, 2, 3], [4, 5, 6, 7]])
        pos = np.array([[8], [9]])
        neg = np.array([[10, 11], [1, 2]])

        def loss():
            h = m.forward_hidden(inputs, params, cfg, alpha)
            raw_pos = m.score_items(h, pos, params)
            raw_neg = m.score_items(h, neg, params)
            return nk.mean_all(nk.add(nk.softplus(nk.scale(raw_pos, -1.0)),
                                      nk.sum_all(nk.softplus(raw_neg))))

        leaves = [leaf for _, leaf in params.leaves()] + [alpha]
        return nk.grad_check(loss, leaves, h=1e-6)


class TestWithData:
    def test_fresh_leaves_hold_the_given_arrays(self):
        cfg = toy_cfg()
        params = m.init_params(cfg, np.random.default_rng(4))
        arrays = {name: leaf.data + 1.0 for name, leaf in params.leaves()}
        for requires_grad in (True, False):
            fresh = params.with_data(arrays, requires_grad)
            for name, leaf in fresh.leaves():
                assert leaf.data is arrays[name], name  # not a copy
                assert leaf.requires_grad is requires_grad, name

    def test_keeps_the_leaf_names_and_order(self):
        cfg = toy_cfg(layers=2)
        params = m.init_params(cfg, np.random.default_rng(4))
        fresh = params.with_data(params.copy_data(), True)
        assert [name for name, _ in fresh.leaves()] == [name for name, _ in params.leaves()]
        assert len(fresh.long_stack) == cfg.layers
        assert [len(stack) for stack in fresh.candidate_stacks] == [cfg.layers] * 2

    def test_shares_no_leaf_with_its_source(self):
        cfg = toy_cfg()
        params = m.init_params(cfg, np.random.default_rng(4))
        before = params.copy_data()
        fresh = params.with_data(params.copy_data(), True)
        source = {id(leaf) for _, leaf in params.leaves()}
        assert not any(id(leaf) in source for _, leaf in fresh.leaves())
        for _, leaf in fresh.leaves():
            leaf.data += 1.0
        for name, leaf in params.leaves():
            assert leaf.requires_grad, name
            np.testing.assert_array_equal(leaf.data, before[name])


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        cfg = toy_cfg()
        params = m.init_params(cfg, np.random.default_rng(6))
        path = tmp_path / "model.ckpt"
        m.save_checkpoint(path, params, cfg)
        loaded, cfg2 = m.load_checkpoint(path)
        assert cfg2 == cfg
        for (n1, a), (n2, b) in zip(params.leaves(), loaded.leaves()):
            assert n1 == n2
            np.testing.assert_array_equal(a.data, b.data)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOT-A-CHECKPOINT\n{}\n")
        with pytest.raises(m.DataFormatError, match="not a checkpoint file") as info:
            m.load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_truncated_payload_rejected(self, tmp_path):
        cfg = toy_cfg()
        params = m.init_params(cfg, np.random.default_rng(7))
        path = tmp_path / "model.ckpt"
        m.save_checkpoint(path, params, cfg)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(m.DataFormatError, match="truncated") as info:
            m.load_checkpoint(path)
        assert str(path) in str(info.value)

    @staticmethod
    def tampered_checkpoint(tmp_path, tamper):
        cfg = toy_cfg()
        params = m.init_params(cfg, np.random.default_rng(8))
        path = tmp_path / "model.ckpt"
        m.save_checkpoint(path, params, cfg)
        lines = path.read_bytes().split(b"\n", 2)
        header = json.loads(lines[1])
        tamper(header)
        path.write_bytes(lines[0] + b"\n" + json.dumps(header).encode() + b"\n" + lines[2])
        return path

    def test_shape_tamper_rejected(self, tmp_path):
        path = self.tampered_checkpoint(
            tmp_path, lambda h: h["arrays"][0].__setitem__(1, h["arrays"][0][1] + 1))
        with pytest.raises(m.DataFormatError, match="header says") as info:
            m.load_checkpoint(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("tamper, message", [
        (lambda h: h["arrays"].pop(), "array list does not match"),
        (lambda h: h.__setitem__("version", 99), "unsupported checkpoint version 99"),
        (lambda h: h["config"].pop("dim"), "malformed checkpoint header"),
    ], ids=["array-list", "version", "header"])
    def test_header_tamper_rejected_naming_the_file(self, tmp_path, tamper, message):
        path = self.tampered_checkpoint(tmp_path, tamper)
        with pytest.raises(m.DataFormatError, match=message) as info:
            m.load_checkpoint(path)
        assert str(path) in str(info.value)
