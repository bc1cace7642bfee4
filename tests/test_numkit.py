"""Unit and property tests for the tensor/autodiff core."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from mixrec import numkit as nk


def t(data, grad=False):
    return nk.Tensor2(data, requires_grad=grad)


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

    def test_reused_node_accumulates(self):
        a = t([[2.0]], grad=True)
        y = nk.add(nk.mul(a, a), nk.mul(a, a))  # 2a^2, dy/da = 4a
        nk.backward(y)
        assert a.grad[0, 0] == 8.0

    def test_no_grad_blocks_recording(self):
        a = t([[1.0]], grad=True)
        with nk.no_grad():
            out = nk.mul(a, a)
        assert out._backward is None and not out.requires_grad

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

    def test_mul_by_constant_skips_the_constant(self):
        rng = np.random.default_rng(0)
        x = t(rng.normal(size=(3, 4)), grad=True)
        c = t(rng.normal(size=(3, 4)))
        g = t(rng.normal(size=(3, 4)))
        nk.backward(nk.sum_all(nk.mul(nk.mul(x, c), g)))
        assert c.grad is None and g.grad is None
        assert np.array_equal(x.grad, g.data * c.data)

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
