"""Dense 2-D tensors with reverse-mode automatic differentiation.

Everything is float64 and strictly two-dimensional. Vectors are 1 x n
tensors; mini-batches are row-stacked blocks (see ``batch_transpose``).
Each operation records a backward closure on the output node; calling
``backward`` on a scalar result replays the recorded graph in reverse
topological order and accumulates gradients into the leaves.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np
from scipy.special import erf

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class NumericalError(ArithmeticError):
    """A forward or backward value became non-finite."""


_grad_enabled = [True]


@contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation-only passes)."""
    _grad_enabled.append(False)
    try:
        yield
    finally:
        _grad_enabled.pop()


class Tensor2:
    """A rows x cols float64 matrix, optionally a node in an autodiff graph.

    Leaves created with ``requires_grad=True`` start with an all-zero
    ``grad`` buffer, so parameters untouched by a forward pass report an
    exact zero gradient after ``backward``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise ShapeError(f"Tensor2 requires 2-D data, got ndim={arr.ndim}")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(arr) if requires_grad else None
        self._parents = ()
        self._backward = None

    @property
    def rows(self):
        return self.data.shape[0]

    @property
    def cols(self):
        return self.data.shape[1]

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        if self.data.size != 1:
            raise ShapeError(f"item() on non-scalar tensor {self.data.shape}")
        return float(self.data[0, 0])

    def zero_grad(self):
        self.grad = np.zeros_like(self.data)

    def __repr__(self):
        return f"Tensor2({self.rows}x{self.cols}, requires_grad={self.requires_grad})"

    # operator sugar; all math lives in the module-level functions
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def _node(data, parents, backward_fn):
    """Create a graph node; skips recording when grads are off or unneeded."""
    out = Tensor2(data)
    if _grad_enabled[-1] and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _accum(t, g):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def backward(root):
    """Reverse-replay the graph below ``root``, accumulating leaf gradients."""
    topo = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited and parent._backward is not None:
                stack.append((parent, False))
            elif id(parent) not in visited and parent.requires_grad:
                visited.add(id(parent))  # leaf: nothing to expand
    if root.grad is None:
        root.grad = np.zeros_like(root.data)
    root.grad += np.ones_like(root.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)
            node.grad = None  # interior buffers are single-use


def _unbroadcast(g, shape):
    """Reduce gradient ``g`` back to ``shape`` after numpy broadcasting."""
    if g.shape == shape:
        return g
    out = g
    if shape[0] == 1 and g.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    return out


def _check_broadcast(a, b, opname):
    for da, db in zip(a.shape, b.shape):
        if da != db and da != 1 and db != 1:
            raise ShapeError(f"{opname}: {a.rows}x{a.cols} vs {b.rows}x{b.cols}")


def add(a, b):
    _check_broadcast(a, b, "add")
    def bwd(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))
    return _node(a.data + b.data, (a, b), bwd)


def sub(a, b):
    _check_broadcast(a, b, "sub")
    def bwd(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, -_unbroadcast(g, b.data.shape))
    return _node(a.data - b.data, (a, b), bwd)


def mul(a, b):
    _check_broadcast(a, b, "mul")
    def bwd(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))
    return _node(a.data * b.data, (a, b), bwd)


def scale(a, s):
    def bwd(g):
        _accum(a, g * s)
    return _node(a.data * s, (a,), bwd)


def matmul(a, b):
    if a.cols != b.rows:
        raise ShapeError(f"matmul: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    def bwd(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)
    return _node(a.data @ b.data, (a, b), bwd)


def transpose(a):
    def bwd(g):
        _accum(a, g.T)
    return _node(a.data.T, (a,), bwd)


def batch_transpose(a, blocks):
    """Transpose each of ``blocks`` stacked (rows/blocks) x cols sub-matrices.

    (B*R) x C  ->  (B*C) x R, block by block. Inverse of itself with the
    same block count.
    """
    if a.rows % blocks != 0:
        raise ShapeError(f"batch_transpose: {a.rows} rows not divisible by {blocks} blocks")
    r = a.rows // blocks
    c = a.cols
    out = a.data.reshape(blocks, r, c).transpose(0, 2, 1).reshape(blocks * c, r)
    def bwd(g):
        _accum(a, g.reshape(blocks, c, r).transpose(0, 2, 1).reshape(blocks * r, c))
    return _node(out, (a,), bwd)


def take_rows(a, indices):
    """Select rows by index (duplicates allowed); backward scatter-adds."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= a.rows):
        raise LookupError(f"row index out of range [0, {a.rows}) : {int(idx.min())}..{int(idx.max())}")
    def bwd(g):
        if a.requires_grad:
            buf = np.zeros_like(a.data)
            np.add.at(buf, idx, g)
            _accum(a, buf)
    return _node(a.data[idx], (a,), bwd)


def repeat_rows(a, times):
    """Repeat each row ``times`` consecutive times."""
    def bwd(g):
        _accum(a, g.reshape(a.rows, times, a.cols).sum(axis=1))
    return _node(np.repeat(a.data, times, axis=0), (a,), bwd)


def concat_cols(a, b):
    if a.rows != b.rows:
        raise ShapeError(f"concat_cols: {a.rows}x{a.cols} vs {b.rows}x{b.cols}")
    ca = a.cols
    def bwd(g):
        _accum(a, g[:, :ca])
        _accum(b, g[:, ca:])
    return _node(np.concatenate([a.data, b.data], axis=1), (a, b), bwd)


def slice_cols(a, start, stop):
    def bwd(g):
        if a.requires_grad:
            buf = np.zeros_like(a.data)
            buf[:, start:stop] = g
            _accum(a, buf)
    return _node(a.data[:, start:stop].copy(), (a,), bwd)


def row_dot(a, b):
    """Per-row dot product: (n x c, n x c) -> n x 1."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"row_dot: {a.rows}x{a.cols} vs {b.rows}x{b.cols}")
    def bwd(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)
    return _node((a.data * b.data).sum(axis=1, keepdims=True), (a, b), bwd)


def sum_all(a):
    def bwd(g):
        _accum(a, np.full_like(a.data, g[0, 0]))
    return _node(np.array([[a.data.sum()]]), (a,), bwd)


def sum_cols(a):
    """Row-wise sum: n x c -> n x 1."""
    def bwd(g):
        _accum(a, np.broadcast_to(g, a.data.shape))
    return _node(a.data.sum(axis=1, keepdims=True), (a,), bwd)


def mean_all(a):
    n = a.data.size
    def bwd(g):
        _accum(a, np.full_like(a.data, g[0, 0] / n))
    return _node(np.array([[a.data.mean()]]), (a,), bwd)


def gelu(a):
    """x * Phi(x) with Phi the exact (erf-based) standard normal CDF."""
    x = a.data
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    def bwd(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
        _accum(a, g * (cdf + x * pdf))
    return _node(x * cdf, (a,), bwd)


def relu(a):
    def bwd(g):
        _accum(a, g * (a.data > 0))
    return _node(np.maximum(a.data, 0.0), (a,), bwd)


def sigmoid_values(x):
    """Numerically stable elementwise sigmoid of a raw ndarray."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus(a):
    """log(1 + e^x), overflow-free for any float64 input."""
    x = a.data
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    def bwd(g):
        _accum(a, g * sigmoid_values(x))
    return _node(out, (a,), bwd)


def softmax(a):
    """Row-wise stable softmax; rows sum to 1."""
    if a.data.size == 0:
        raise ValueError("softmax: empty input")
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)
    def bwd(g):
        dot = (g * p).sum(axis=1, keepdims=True)
        _accum(a, p * (g - dot))
    return _node(p, (a,), bwd)


def layer_norm(x, gamma=None, beta=None, eps=1e-5):
    """Row-wise layer normalization with population (1/n) variance.

    ``gamma``/``beta`` are 1 x cols tensors or None for the affine-free form.
    """
    if eps <= 0:
        raise ValueError(f"layer_norm: eps must be positive, got {eps}")
    for name, p in (("gamma", gamma), ("beta", beta)):
        if p is not None and p.data.shape != (1, x.cols):
            raise ShapeError(f"layer_norm: {name} {p.rows}x{p.cols} vs input {x.rows}x{x.cols}")
    n = x.cols
    mu = x.data.mean(axis=1, keepdims=True)
    var = x.data.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = (x.data - mu) * inv
    parents = [x]
    if gamma is not None:
        parents.append(gamma)
    if beta is not None:
        parents.append(beta)

    def bwd(g):
        gy = g * gamma.data if gamma is not None else g
        if gamma is not None:
            _accum(gamma, (g * y).sum(axis=0, keepdims=True))
        if beta is not None:
            _accum(beta, g.sum(axis=0, keepdims=True))
        m1 = gy.mean(axis=1, keepdims=True)
        m2 = (gy * y).mean(axis=1, keepdims=True)
        _accum(x, (gy - m1 - y * m2) * inv)

    out = y * gamma.data if gamma is not None else y
    if beta is not None:
        out = out + beta.data
    return _node(out, parents, bwd)


def dropout_mask(shape, rate, rng):
    """Inverted-dropout mask: entries 0 or 1/(1-rate), expectation 1."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    rows, cols = shape
    if rate == 0.0:
        return Tensor2(np.ones((rows, cols)))
    keep = rng.random((rows, cols)) >= rate
    return Tensor2(keep / (1.0 - rate))


def grad_check(f, params, h=1e-5, denom_floor=1e-8):
    """Max relative error between tape gradients and central differences.

    ``f`` rebuilds a scalar loss from the current ``params`` leaf data on
    every call; the finite-difference probe perturbs one entry at a time.
    """
    if h <= 0:
        raise ValueError(f"grad_check: step must be positive, got {h}")
    for p in params:
        p.zero_grad()
    out = f()
    if not np.isfinite(out.data).all():
        raise NumericalError("grad_check: objective is not finite at the given parameters")
    backward(out)
    analytic = [p.grad.copy() for p in params]

    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            with no_grad():
                flat[i] = orig + h
                fp = f().item()
                flat[i] = orig - h
                fm = f().item()
            flat[i] = orig
            if not (math.isfinite(fp) and math.isfinite(fm)):
                raise NumericalError("grad_check: objective is not finite at a probe point")
            fd = (fp - fm) / (2.0 * h)
            ga = a.reshape(-1)[i]
            rel = abs(ga - fd) / max(abs(ga), abs(fd), denom_floor)
            if rel > worst:
                worst = rel
    return worst
