"""Unit and property tests for the tensor/autodiff core."""

import inspect
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from mixrec import model
from mixrec import numkit as nk


def t(data, grad=False):
    return nk.Tensor2(data, requires_grad=grad)


class TestTensor2:
    @pytest.mark.parametrize("data, ndim", [([1.0, 2.0, 3.0], 1), (np.zeros(4), 1), (5.0, 0),
                                            (np.zeros((2, 2, 2)), 3)],
                             ids=["list-1d", "array-1d", "scalar", "3d"])
    def test_data_that_is_not_2d_is_refused(self, data, ndim):
        # a row vector is written [[...]]; nothing reshapes 1-D data into one
        with pytest.raises(nk.ShapeError, match=f"requires 2-D data, got ndim={ndim}$"):
            t(data)


class TestMatmul:
    def test_identity(self):
        a = t(np.eye(2))
        b = t([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(nk.matmul(a, b).data, b.data)

    def test_hand_product(self):
        # [[1,2]] @ [[3],[4]] = [[1*3 + 2*4]]
        out = nk.matmul(t([[1.0, 2.0]]), t([[3.0], [4.0]]))
        assert out.item() == 11.0

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(nk.ShapeError, match="2x3 @ 2x3"):
            nk.matmul(t(np.zeros((2, 3))), t(np.zeros((2, 3))))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        a = t(rng.normal(size=(3, 4)), grad=True)
        b = t(rng.normal(size=(4, 2)), grad=True)
        err = nk.grad_check(lambda: nk.sum_all(nk.gelu(nk.matmul(a, b))), [a, b])
        assert err <= 1e-6


class TestLayerNorm:
    def test_constant_vector_normalizes_to_zero(self):
        x = t([[5.0, 5.0, 5.0]])
        g = t(np.ones((1, 3)))
        b = t(np.zeros((1, 3)))
        out = nk.layer_norm(x, g, b, eps=1e-12)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-5)

    def test_hand_oracle(self):
        # population var of [1,2,3] is 2/3, so normalized = +-sqrt(3/2)
        x = t([[1.0, 2.0, 3.0]])
        g = t(np.ones((1, 3)))
        b = t(np.zeros((1, 3)))
        out = nk.layer_norm(x, g, b, eps=1e-300)
        expected = math.sqrt(1.5)
        np.testing.assert_allclose(out.data, [[-expected, 0.0, expected]], atol=1e-4)

    def test_zero_gamma_returns_beta(self):
        x = t([[1.0, 2.0, 3.0]])
        out = nk.layer_norm(x, t(np.zeros((1, 3))), t(np.full((1, 3), 7.0)))
        np.testing.assert_array_equal(out.data, [[7.0, 7.0, 7.0]])

    def test_length_mismatch(self):
        with pytest.raises(nk.ShapeError):
            nk.layer_norm(t([[1.0, 2.0]]), t(np.ones((1, 3))), t(np.zeros((1, 3))))

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_standardizes_nonconstant_rows(self, values):
        x = np.array(values)
        if np.ptp(x) < 1e-3:
            return
        g = t(np.ones((1, x.size)))
        b = t(np.zeros((1, x.size)))
        out = nk.layer_norm(t(x[None, :]), g, b, eps=1e-13).data[0]
        assert abs(out.mean()) <= 1e-10
        assert abs(out.var() - 1.0) <= 1e-6

    def test_gradients_including_affine(self):
        rng = np.random.default_rng(1)
        x = t(rng.normal(size=(4, 6)), grad=True)
        g = t(rng.normal(size=(1, 6)), grad=True)
        b = t(rng.normal(size=(1, 6)), grad=True)
        err = nk.grad_check(lambda: nk.mean_all(nk.layer_norm(x, g, b)), [x, g, b])
        assert err <= 1e-6

    @pytest.mark.parametrize("shape", [(1, 1), (1, 3), (4, 7), (33, 128), (256, 5), (7, 512)])
    @pytest.mark.parametrize("scale", [1e-4, 1.0, 3e5])
    def test_equals_the_three_pass_formula_bitwise(self, shape, scale):
        # the deviations are taken once; x.var takes them again internally
        rng = np.random.default_rng(shape[0] * shape[1])
        x = rng.normal(2.0 * scale, scale, size=shape)
        g = rng.normal(size=(1, shape[1]))
        b = rng.normal(size=(1, shape[1]))
        mu = x.mean(axis=1, keepdims=True)
        y = (x - mu) * (1.0 / np.sqrt(x.var(axis=1, keepdims=True) + 1e-5))
        np.testing.assert_array_equal(nk.layer_norm(t(x)).data, y)
        np.testing.assert_array_equal(nk.layer_norm(t(x), t(g), t(b)).data, y * g + b)


class TestGelu:
    def test_zero(self):
        assert nk.gelu(t([[0.0]])).item() == 0.0

    def test_against_high_precision_cdf(self):
        import mpmath

        # independent oracle: x * ncdf(x) at 50 digits
        for x in (1.0, -0.5, 2.3, 0.1):
            expected = float(x * mpmath.ncdf(x))
            got = nk.gelu(t([[x]])).item()
            assert abs(got - expected) <= 1e-4
        assert abs(nk.gelu(t([[1.0]])).item() - 0.84134) <= 1e-4

    def test_deep_negative_tail(self):
        assert abs(nk.gelu(t([[-10.0]])).item()) < 1e-8

    def test_gradient(self):
        x = t(np.linspace(-3, 3, 13)[None, :], grad=True)
        err = nk.grad_check(lambda: nk.sum_all(nk.gelu(x)), [x])
        assert err <= 1e-6


class TestRelu:
    def test_forward(self):
        np.testing.assert_array_equal(nk.relu(t([[-1.5, 0.0, 2.0]])).data, [[0.0, 0.0, 2.0]])

    def test_gradient_away_from_the_kink(self):
        # relu has no derivative at 0: every point sits at least 0.1 from it
        rng = np.random.default_rng(3)
        x = t(rng.uniform(0.1, 2.0, size=(4, 6)) * rng.choice([-1.0, 1.0], size=(4, 6)),
              grad=True)
        w = t(rng.normal(size=(4, 6)))
        err = nk.grad_check(lambda: nk.sum_all(nk.mul(nk.relu(x), w)), [x])
        assert err <= 1e-6


def reference_gelu(x):
    """The closed-form exact GELU and its cdf, as plain numpy expressions."""
    cdf = 0.5 * (1.0 + erf(x * (1.0 / math.sqrt(2.0))))
    return x * cdf, cdf


def reference_gelu_grad(x, cdf, g):
    pdf = np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))
    return g * (cdf + x * pdf)


class TestGeluBits:
    """The chunked GELU gives the closed form's bits, not just its values."""

    EDGES = [0.0, -0.0, math.sqrt(2.0), -math.sqrt(2.0),
             np.nextafter(math.sqrt(2.0), 0.0), np.nextafter(math.sqrt(2.0), 3.0),
             np.nextafter(-math.sqrt(2.0), 0.0), np.nextafter(-math.sqrt(2.0), -3.0),
             np.inf, -np.inf, np.nan, 1e-300, -40.0, 40.0]

    @pytest.mark.parametrize("n", [1, nk._CHUNK - 1, nk._CHUNK + 1, 3 * nk._CHUNK + 7])
    def test_forward_and_gradient_equal_the_closed_form(self, n):
        rng = np.random.default_rng(n)
        # unit scale puts elements on both sides of |x| = sqrt(2)
        x = rng.normal(scale=1.5, size=n)
        x[:len(self.EDGES)] = self.EDGES[:n]
        x[-len(self.EDGES):] = self.EDGES[-n:]
        x = x.reshape(1, n)
        g = rng.normal(size=x.shape)
        with np.errstate(invalid="ignore"):
            want, cdf = reference_gelu(x)
            want_grad = reference_gelu_grad(x, cdf, g)
            a = t(x, grad=True)
            a.grad = None  # the gradient array itself, not 0 + it
            out = nk.gelu(a)
            out._backward(g)
        assert np.array_equal(out.data, want, equal_nan=True)
        assert np.array_equal(np.signbit(out.data), np.signbit(want))
        assert np.array_equal(a.grad, want_grad, equal_nan=True)
        assert np.array_equal(np.signbit(a.grad), np.signbit(want_grad))

    def test_polynomial_branch_equals_scipy_erf(self):
        # pins scipy: a scipy whose erf changes on |u| <= 1 fails here
        u = np.random.default_rng(0).uniform(-1.0, 1.0, size=10 ** 6)
        got, scratch = np.empty_like(u), np.empty_like(u)
        nk._erf_small(u, u * u, got, scratch)
        assert np.array_equal(got, erf(u))


class TestSoftmax:
    def test_uniform_on_constant(self):
        out = nk.softmax(t([[4.2, 4.2, 4.2]]))
        np.testing.assert_allclose(out.data, 1.0 / 3.0, atol=1e-15)

    def test_hand_values(self):
        out = nk.softmax(t([[0.0, math.log(2.0)]]))
        np.testing.assert_allclose(out.data, [[1.0 / 3.0, 2.0 / 3.0]], atol=1e-12)

    def test_no_overflow_on_huge_logits(self):
        out = nk.softmax(t([[1000.0, 0.0]])).data
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            nk.softmax(t(np.zeros((1, 0))))

    @given(st.lists(st.floats(-300, 300), min_size=1, max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_sums_to_one_and_shift_invariant(self, values):
        v = np.array(values)[None, :]
        p = nk.softmax(t(v)).data
        assert abs(p.sum() - 1.0) <= 1e-12
        shifted = nk.softmax(t(v + 17.25)).data
        np.testing.assert_allclose(p, shifted, atol=1e-12)

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=12, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_argmax_preserved(self, values):
        v = np.sort(np.array(values))
        if v[-1] - v[-2] < 1e-9:  # gap below exp() resolution ties the outputs
            return
        v = np.array(values)[None, :]
        assert int(np.argmax(nk.softmax(t(v)).data)) == int(np.argmax(v))

    def test_gradient(self):
        x = t(np.array([[0.3, -1.2, 2.0, 0.0]]), grad=True)
        w = t(np.array([[1.0, -2.0, 0.5, 3.0]]))
        err = nk.grad_check(lambda: nk.sum_all(nk.mul(nk.softmax(x), w)), [x])
        assert err <= 1e-6


class TestDropoutMask:
    def test_rate_zero_is_identity(self):
        m = nk.dropout_mask((3, 4), 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(m.data, 1.0)

    def test_inverted_scaling_keeps_unit_mean(self):
        m = nk.dropout_mask((200, 500), 0.5, np.random.default_rng(7))
        assert set(np.unique(m.data)) <= {0.0, 2.0}
        assert 0.98 <= m.data.mean() <= 1.02

    def test_deterministic_given_seed(self):
        a = nk.dropout_mask((10, 10), 0.3, np.random.default_rng(3))
        b = nk.dropout_mask((10, 10), 0.3, np.random.default_rng(3))
        np.testing.assert_array_equal(a.data, b.data)

    def test_rate_one_rejected(self):
        with pytest.raises(ValueError):
            nk.dropout_mask((2, 2), 1.0, np.random.default_rng(0))


class TestSoftplus:
    def test_values(self):
        assert abs(nk.softplus(t([[0.0]])).item() - math.log(2.0)) <= 1e-12

    def test_extreme_inputs_stay_finite(self):
        out = nk.softplus(t([[1000.0, -1000.0]])).data
        assert np.isfinite(out).all()
        assert out[0, 0] == 1000.0
        assert out[0, 1] == 0.0

    def test_gradient(self):
        x = t(np.array([[-3.0, 0.0, 2.5, 30.0]]), grad=True)
        err = nk.grad_check(lambda: nk.sum_all(nk.softplus(x)), [x])
        assert err <= 1e-6


class TestStackingOps:
    def test_batch_transpose_roundtrip(self):
        rng = np.random.default_rng(2)
        x = t(rng.normal(size=(6, 4)), grad=True)  # 3 blocks of 2x4
        back = nk.batch_transpose(nk.batch_transpose(x, 3), 3)
        np.testing.assert_array_equal(back.data, x.data)

    def test_batch_transpose_single_block_is_transpose(self):
        x = t(np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(nk.batch_transpose(x, 1).data, x.data.T)

    def test_take_rows_and_gradient(self):
        x = t(np.arange(12.0).reshape(4, 3), grad=True)
        out = nk.take_rows(x, [3, 1, 1])
        np.testing.assert_array_equal(out.data, x.data[[3, 1, 1]])
        nk.backward(nk.sum_all(out))
        np.testing.assert_array_equal(x.grad[:, 0], [0.0, 2.0, 0.0, 1.0])

    def test_take_rows_out_of_range(self):
        with pytest.raises(LookupError):
            nk.take_rows(t(np.zeros((2, 2))), [2])

    def test_repeat_concat_slice_row_dot_grads(self):
        rng = np.random.default_rng(3)
        a = t(rng.normal(size=(3, 4)), grad=True)
        b = t(rng.normal(size=(3, 4)), grad=True)

        def f():
            rep = nk.repeat_rows(a, 2)  # 6x4
            cat = nk.concat_cols(rep, nk.repeat_rows(b, 2))  # 6x8
            sl = nk.slice_cols(cat, 2, 6)  # 6x4
            return nk.mean_all(nk.row_dot(sl, nk.repeat_rows(b, 2)))

        assert nk.grad_check(f, [a, b]) <= 1e-6

    def test_batch_transpose_gradient(self):
        rng = np.random.default_rng(4)
        x = t(rng.normal(size=(6, 5)), grad=True)
        w = t(rng.normal(size=(6, 5)))

        def f():
            y = nk.batch_transpose(x, 2)  # 2 blocks: (2*5) x 3
            y = nk.batch_transpose(y, 2)
            return nk.sum_all(nk.mul(y, w))

        assert nk.grad_check(f, [x]) <= 1e-8


class TestAutodiffCore:
    def test_untouched_leaf_keeps_exact_zero_grad(self):
        a = t([[1.0, 2.0]], grad=True)
        b = t([[3.0, 4.0]], grad=True)
        nk.backward(nk.sum_all(nk.mul(a, a)))
        np.testing.assert_array_equal(b.grad, 0.0)
        np.testing.assert_array_equal(a.grad, [[2.0, 4.0]])

    def test_a_second_backward_leaves_only_its_own_gradient(self):
        a = t([[1.0, 2.0]], grad=True)
        nk.backward(nk.sum_all(nk.mul(a, a)))  # d/da = 2a
        nk.backward(nk.sum_all(nk.scale(a, 3.0)))  # another graph: d/da = 3
        np.testing.assert_array_equal(a.grad, [[3.0, 3.0]])

    def test_a_leaf_the_graph_does_not_reach_keeps_its_buffer(self):
        a = t([[1.0, 2.0]], grad=True)
        b = t([[3.0, 4.0]], grad=True)
        nk.backward(nk.sum_all(nk.mul(a, b)))
        kept = b.grad
        nk.backward(nk.sum_all(nk.scale(a, 3.0)))  # reaches a only
        assert b.grad is kept
        np.testing.assert_array_equal(b.grad, [[1.0, 2.0]])
        np.testing.assert_array_equal(a.grad, [[3.0, 3.0]])

    def test_reused_node_accumulates(self):
        a = t([[2.0]], grad=True)
        y = nk.add(nk.mul(a, a), nk.mul(a, a))  # 2a^2, dy/da = 4a
        nk.backward(y)
        assert a.grad[0, 0] == 8.0

    def test_an_op_on_constant_operands_records_no_node(self):
        a, b = t([[1.0, 2.0]]), t([[3.0, 4.0]])
        for out in (nk.mul(a, b), nk.gelu(nk.matmul(nk.transpose(a), b))):
            assert out._backward is None and out._parents == ()
            assert not out.requires_grad and out.grad is None
        taped = nk.mul(a, t([[5.0, 6.0]], grad=True))
        assert taped.requires_grad and taped._backward is not None

    def test_broadcast_add_bias(self):
        x = t(np.ones((3, 2)), grad=True)
        bias = t([[1.0, -1.0]], grad=True)
        nk.backward(nk.sum_all(nk.add(x, bias)))
        np.testing.assert_array_equal(bias.grad, [[3.0, 3.0]])

    def test_broadcast_scalar_mul(self):
        x = t(np.ones((2, 3)), grad=True)
        s = t([[2.0]], grad=True)
        nk.backward(nk.sum_all(nk.mul(x, s)))
        assert s.grad[0, 0] == 6.0
        np.testing.assert_array_equal(x.grad, np.full((2, 3), 2.0))


class TestGradientBuffers:
    """The first contribution becomes the gradient buffer; none may alias."""

    def test_zero_grad_gives_only_a_taped_tensor_a_buffer(self):
        c, x = t([[1.0, 2.0]]), t([[1.0, 2.0]], grad=True)
        x.grad += 3.0
        c.zero_grad()
        x.zero_grad()
        assert c.grad is None
        assert np.array_equal(x.grad, [[0.0, 0.0]])

    def test_mul_by_constant_skips_the_constant(self):
        rng = np.random.default_rng(0)
        x = t(rng.normal(size=(3, 4)), grad=True)
        c = t(rng.normal(size=(3, 4)))
        g = t(rng.normal(size=(3, 4)))
        nk.backward(nk.sum_all(nk.mul(nk.mul(x, c), g)))
        assert c.grad is None and g.grad is None
        assert np.array_equal(x.grad, g.data * c.data)

    @pytest.mark.parametrize("op, shapes", [
        (nk.matmul, ((4, 3), (3, 5))),
        (nk.row_dot, ((4, 3), (4, 3))),
    ], ids=["matmul", "row_dot"])
    @pytest.mark.parametrize("constant", [0, 1], ids=["left-constant", "right-constant"])
    def test_constant_operand_skips_its_product(self, op, shapes, constant):
        rng = np.random.default_rng(3)
        arrays = [rng.normal(size=shape) for shape in shapes]
        up = rng.normal(size=op(t(arrays[0]), t(arrays[1])).shape)

        def grads(taped):
            operands = [t(a, grad=g) for a, g in zip(arrays, taped)]
            nk.backward(nk.sum_all(nk.mul(op(*operands), t(up))))
            return [o.grad for o in operands]

        both = grads((True, True))
        one = grads(tuple(i != constant for i in range(2)))
        assert one[constant] is None
        assert np.array_equal(one[1 - constant], both[1 - constant])

    def test_node_feeding_both_add_operands_gets_its_own_buffer(self):
        rng = np.random.default_rng(1)
        x = t(rng.normal(size=(2, 3)), grad=True)
        up = t(rng.normal(size=(2, 3)))
        h = nk.scale(x, 2.0)
        y = nk.add(h, h)
        seen = {}

        def spy(name, node):
            inner = node._backward

            def record(g):
                seen[name] = g
                inner(g)
            node._backward = record

        spy("h", h)
        spy("y", y)
        nk.backward(nk.sum_all(nk.mul(y, up)))
        assert seen["h"] is not seen["y"]
        assert np.array_equal(seen["y"], up.data)
        assert np.array_equal(seen["h"], 2.0 * up.data)
        seen["h"][...] = 7.0
        assert np.array_equal(seen["y"], up.data)
        assert np.array_equal(x.grad, 4.0 * up.data)

    def test_adopted_matmul_gradient_adds_a_second_contribution(self):
        rng = np.random.default_rng(2)
        # small integers keep every product and sum exact
        x = t(rng.integers(-3, 4, size=(4, 3)), grad=True)
        w = t(rng.integers(-3, 4, size=(3, 5)))
        v1 = t(rng.integers(-3, 4, size=(5, 2)), grad=True)
        v2 = t(rng.integers(-3, 4, size=(5, 2)), grad=True)
        up = t(rng.integers(-3, 4, size=(4, 2)))
        h = nk.matmul(x, w)
        y = nk.add(nk.matmul(h, v1), nk.matmul(h, v2))
        nk.backward(nk.sum_all(nk.mul(y, up)))
        dh = up.data @ v1.data.T + up.data @ v2.data.T
        assert np.array_equal(x.grad, dh @ w.data.T)
        assert np.array_equal(v1.grad, h.data.T @ up.data)
        assert np.array_equal(v2.grad, h.data.T @ up.data)

    def test_a_leaf_takes_its_first_contribution_as_its_buffer(self):
        # the leaf's data and one gradient-sized buffer at a time: backward
        # drops the leaf's old buffer and adopts sum_all's gradient, with no
        # zeroed buffer to add it into
        tracemalloc.start()
        try:
            x = t(np.ones((1000, 1000)), grad=True)
            loss = nk.sum_all(x)
            tracemalloc.reset_peak()
            nk.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(x.grad, np.ones((1000, 1000)))
        assert peak < 2.5 * x.data.nbytes


class TestReleasedTape:
    """``backward`` frees each node's saved tensors once its closure has run."""

    def dropout_gelu_graph(self):
        """sum(gelu(x @ w) * mask), with weakrefs to the derivative the GELU
        node saved and to the dropout mask's array."""
        rng = np.random.default_rng(4)
        x = t(rng.normal(size=(6, 4)), grad=True)
        w = t(rng.normal(size=(4, 8)), grad=True)
        pre = nk.matmul(x, w)
        h = nk.gelu(pre)
        mask = nk.dropout_mask(h.shape, 0.5, rng)
        dropped = nk.mul(h, mask)
        loss = nk.sum_all(dropped)
        saved = dict(zip(h._backward.__code__.co_freevars,
                         (cell.cell_contents for cell in h._backward.__closure__)))
        refs = [weakref.ref(saved["deriv"]), weakref.ref(mask.data)]
        return (x, w), [pre, h, dropped, loss], refs

    def test_backward_frees_saved_tensors_and_parent_links(self):
        _, interior, refs = self.dropout_gelu_graph()
        assert all(ref() is not None for ref in refs)
        nk.backward(interior[-1])
        assert all(ref() is None for ref in refs)
        for node in interior:
            assert node._parents == () and node._backward is nk._replayed

    def test_second_backward_on_the_same_root_raises(self):
        leaves, interior, _ = self.dropout_gelu_graph()
        nk.backward(interior[-1])
        grads = [leaf.grad.copy() for leaf in leaves]
        with pytest.raises(nk.GraphReleasedError):
            nk.backward(interior[-1])
        for leaf, g in zip(leaves, grads):
            assert np.array_equal(leaf.grad, g)

    def test_replayed_interior_node_in_a_new_graph_raises(self):
        leaves, interior, _ = self.dropout_gelu_graph()
        nk.backward(interior[-1])
        reused = nk.sum_all(nk.scale(interior[1], 2.0))
        with pytest.raises(RuntimeError):
            nk.backward(reused)
        assert issubclass(nk.GraphReleasedError, RuntimeError)


class TestTapeSize:
    """An op saves only the arrays its backward reads, never a tensor."""

    def test_a_mixer_mlp_keeps_three_arrays_per_hidden_element(self, monkeypatch):
        rows_n, dim, hidden = 1024, 32, 64
        cfg = model.ModelConfig(num_items=5, max_len=4, dim=dim, seq_hidden=hidden,
                                ch_hidden=hidden, layers=1, windows=(1,), dropout=0.5)
        rng = np.random.default_rng(0)
        rows = t(rng.normal(size=(rows_n, dim)), grad=True)
        w_in = t(rng.normal(scale=0.2, size=(hidden, dim)), grad=True)
        w_out = t(rng.normal(scale=0.2, size=(dim, hidden)), grad=True)
        values = []  # weakrefs to the pre-activation and the GELU output
        gelu = nk.gelu

        def spy(a):
            out = gelu(a)
            values.extend([weakref.ref(a.data), weakref.ref(out.data)])
            return out
        monkeypatch.setattr(nk, "gelu", spy)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = model._mixer_mlp(rows, w_in, w_out, cfg, np.random.default_rng(1))
            kept = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
        finally:
            tracemalloc.stop()
        # GELU's derivative, the float dropout mask and the masked product:
        # 24 bytes, plus the transposed weights and the nodes themselves
        assert kept <= 25 * rows_n * hidden
        assert len(values) == 2 and all(ref() is None for ref in values)

        up = rng.normal(size=out.shape)
        nk.backward(nk.sum_all(nk.mul(out, t(up))))
        # the same values and gradients, op for op, as plain numpy
        w_in_t, w_out_t = np.ascontiguousarray(w_in.data.T), np.ascontiguousarray(w_out.data.T)
        pre = rows.data @ w_in_t
        h, cdf = reference_gelu(pre)
        mask = (np.random.default_rng(1).random(pre.shape) >= 0.5) / 0.5
        dropped = h * mask
        assert np.array_equal(out.data, dropped @ w_out_t)
        d_pre = reference_gelu_grad(pre, cdf, (up @ w_out_t.T) * mask)
        assert np.array_equal(w_out.grad, (dropped.T @ up).T)
        assert np.array_equal(w_in.grad, (rows.data.T @ d_pre).T)
        assert np.array_equal(rows.grad, d_pre @ w_in_t.T)

    # every public numkit function, as a taped op on operands of its shapes,
    # or listed as one that records no node
    TAPED_OPS = {
        "add": (lambda a, b: nk.add(a, b), [(3, 4), (1, 4)]),
        "mul": (lambda a, b: nk.mul(a, b), [(3, 4), (3, 4)]),
        "scale": (lambda a: nk.scale(a, 2.0), [(3, 4)]),
        "matmul": (lambda a, b: nk.matmul(a, b), [(3, 4), (4, 2)]),
        "transpose": (lambda a: nk.transpose(a), [(3, 4)]),
        "batch_transpose": (lambda a: nk.batch_transpose(a, 2), [(4, 3)]),
        "take_rows": (lambda a: nk.take_rows(a, [2, 0, 2]), [(3, 4)]),
        "repeat_rows": (lambda a: nk.repeat_rows(a, 2), [(3, 4)]),
        "concat_cols": (lambda a, b: nk.concat_cols(a, b), [(3, 4), (3, 2)]),
        "slice_cols": (lambda a: nk.slice_cols(a, 1, 3), [(3, 4)]),
        "row_dot": (lambda a, b: nk.row_dot(a, b), [(3, 4), (3, 4)]),
        "sum_all": (lambda a: nk.sum_all(a), [(3, 4)]),
        "sum_cols": (lambda a: nk.sum_cols(a), [(3, 4)]),
        "mean_all": (lambda a: nk.mean_all(a), [(3, 4)]),
        "gelu": (lambda a: nk.gelu(a), [(3, 4)]),
        "relu": (lambda a: nk.relu(a), [(3, 4)]),
        "softplus": (lambda a: nk.softplus(a), [(3, 4)]),
        "softmax": (lambda a: nk.softmax(a), [(3, 4)]),
        "layer_norm": (lambda a, g, b: nk.layer_norm(a, g, b), [(3, 4), (1, 4), (1, 4)]),
    }
    NOT_OPS = {"backward", "grad_check", "dropout_mask", "sigmoid_values"}

    def test_every_public_function_is_listed(self):
        public = {name for name, f in vars(nk).items()
                  if inspect.isfunction(f) and f.__module__ == nk.__name__
                  and not name.startswith("_")}
        assert public == set(self.TAPED_OPS) | self.NOT_OPS

    @pytest.mark.parametrize("name", sorted(TAPED_OPS))
    def test_no_backward_closure_holds_a_tensor(self, name):
        op, shapes = self.TAPED_OPS[name]
        rng = np.random.default_rng(0)
        # every operand taped, then each one constant in turn
        for constant in [None] + list(range(len(shapes)) if len(shapes) > 1 else []):
            operands = [t(rng.normal(size=shape), grad=i != constant)
                        for i, shape in enumerate(shapes)]
            out = op(*operands)
            assert out._backward is not None, name
            held = [cell.cell_contents for cell in out._backward.__closure__ or ()]
            assert not any(isinstance(v, nk.Tensor2) for v in held), name
            assert all(type(p) is nk._Slot for p in out._parents), name


class TestGradCheckHarness:
    def test_sum_of_squares_closed_form(self):
        theta = t([[1.0, 2.0]], grad=True)
        err = nk.grad_check(lambda: nk.sum_all(nk.mul(theta, theta)), [theta])
        theta.zero_grad()
        nk.backward(nk.sum_all(nk.mul(theta, theta)))
        np.testing.assert_allclose(theta.grad, [[2.0, 4.0]], atol=1e-12)
        assert err <= 1e-8

    def test_constant_function_reports_zero_error(self):
        theta = t([[1.0, -2.0]], grad=True)
        c = t([[5.0]])
        assert nk.grad_check(lambda: nk.sum_all(c), [theta]) == 0.0

    def test_nonfinite_objective_raises(self):
        theta = t([[np.inf]], grad=True)
        with pytest.raises(nk.NumericalError):
            nk.grad_check(lambda: nk.sum_all(nk.mul(theta, theta)), [theta])


class TestHeapThresholds:
    # each round allocates ``count`` arrays of ``mb`` MB and frees them last
    # first, as ``backward`` frees a tape; prints the minor faults of the
    # later rounds
    CHURN = textwrap.dedent("""
        import resource
        import sys
        import numpy as np
        from mixrec import numkit

        def churn(count):
            arrays = [np.ones(mb << 17) for _ in range(count)]
            while arrays:
                arrays.pop()

        count, rounds, mb = map(int, sys.argv[1:])
        churn(count)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(rounds):
            churn(count)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)

    def faults(self, count, rounds, mb=12):
        src = str(Path(nk.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = [sys.executable, "-c", self.CHURN, str(count), str(rounds), str(mb)]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return int(done.stdout)

    @pytest.mark.skipif(not nk.HEAP_THRESHOLDS_SET, reason="C library has no mallopt")
    def test_freed_arrays_are_reused_without_page_faults(self):
        # three arrays: with glibc's adaptive thresholds the first free sets
        # the trim threshold to 24 MB, and every later round hands its 36 MB
        # back to the kernel and faults it in again. Kept in the heap: 0
        # faults; re-faulted each round: 15k on a 2-vCPU glibc 2.36 host, and
        # at least 180 even if every page were huge
        assert self.faults(3, 10) < 50

    @pytest.mark.skipif(not nk.HEAP_THRESHOLDS_SET, reason="C library has no mallopt")
    def test_a_released_tape_is_reused_without_page_faults(self):
        # eight arrays, 96 MB: the free top of the heap grows past 64 MB.
        # Kept in the heap: 0 faults; with a 64 MB trim threshold each round
        # trims the top off and faults it in again: 15k faults in five rounds
        # on a 2-vCPU glibc 2.36 host, and at least 180 even if every page of
        # the 72 MB past the threshold were huge
        assert self.faults(8, 5) < 50

    @pytest.mark.skipif(not nk.HEAP_THRESHOLDS_SET, reason="C library has no mallopt")
    def test_arrays_past_the_mmap_threshold_are_reused_without_page_faults(self):
        # six 32 MB arrays, the size of a paper-default hidden array from
        # B=64 on and glibc's largest mmap threshold on 64-bit. With an mmap
        # limit of 0 they come from the heap: 0 faults; mmapped, each round
        # faults them in afresh: 15.8k faults in five rounds on a 2-vCPU
        # glibc 2.36 host, and at least 480 even if every page were huge
        assert self.faults(6, 5, mb=32) < 50
