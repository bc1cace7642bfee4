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

# scipy's erf (cephes ndtr.c) computes u * T(z) / U(z), z = u*u, for |u| <= 1,
# with T by Horner and U monic; ``_erf_small`` repeats it operation by operation.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
# elements per chunk of the elementwise GELU passes: each float64 scratch
# buffer (128 KB) stays in cache across the dozen passes over it
_CHUNK = 1 << 14


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


def _accum(t, g, owned=False):
    """Add ``g`` into ``t.grad``; the first contribution sets it.

    ``owned`` marks an array the calling op has just created and holds no
    other reference to; it becomes the buffer as is. Any other ``g`` (a view
    of the upstream gradient, or one array handed to two parents) is copied
    into a fresh C-ordered buffer, ``g + 0.0``, which like ``0 + g`` turns
    -0.0 into +0.0.
    """
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g if owned else np.add(g, 0.0, order="C")
    else:
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
        _accum(b, -_unbroadcast(g, b.data.shape), owned=True)
    return _node(a.data - b.data, (a, b), bwd)


def mul(a, b):
    _check_broadcast(a, b, "mul")
    def bwd(g):
        # a constant operand (a dropout or padding mask) gets no product
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape), owned=True)
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape), owned=True)
    return _node(a.data * b.data, (a, b), bwd)


def scale(a, s):
    def bwd(g):
        _accum(a, g * s, owned=True)
    return _node(a.data * s, (a,), bwd)


def matmul(a, b):
    if a.cols != b.rows:
        raise ShapeError(f"matmul: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    def bwd(g):
        _accum(a, g @ b.data.T, owned=True)
        _accum(b, a.data.T @ g, owned=True)
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
            _accum(a, buf, owned=True)
    return _node(a.data[idx], (a,), bwd)


def repeat_rows(a, times):
    """Repeat each row ``times`` consecutive times."""
    def bwd(g):
        _accum(a, g.reshape(a.rows, times, a.cols).sum(axis=1), owned=True)
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
            _accum(a, buf, owned=True)
    return _node(a.data[:, start:stop].copy(), (a,), bwd)


def row_dot(a, b):
    """Per-row dot product: (n x c, n x c) -> n x 1."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"row_dot: {a.rows}x{a.cols} vs {b.rows}x{b.cols}")
    def bwd(g):
        _accum(a, g * b.data, owned=True)
        _accum(b, g * a.data, owned=True)
    return _node((a.data * b.data).sum(axis=1, keepdims=True), (a, b), bwd)


def sum_all(a):
    def bwd(g):
        _accum(a, np.full_like(a.data, g[0, 0]), owned=True)
    return _node(np.array([[a.data.sum()]]), (a,), bwd)


def sum_cols(a):
    """Row-wise sum: n x c -> n x 1."""
    def bwd(g):
        _accum(a, np.broadcast_to(g, a.data.shape))
    return _node(a.data.sum(axis=1, keepdims=True), (a,), bwd)


def mean_all(a):
    n = a.data.size
    def bwd(g):
        _accum(a, np.full_like(a.data, g[0, 0] / n), owned=True)
    return _node(np.array([[a.data.mean()]]), (a,), bwd)


def _chunks(n):
    for lo in range(0, n, _CHUNK):
        yield slice(lo, min(lo + _CHUNK, n))


def _erf_small(u, z, p, q):
    """Write into ``p`` scipy's erf of ``u``, bit for bit where ``z = u*u <= 1``.

    ``q`` is scratch. Elements with z > 1 (or NaN) come out meaningless; the
    caller replaces them.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # only where z > 1
        np.multiply(z, _ERF_T[0], out=p)
        p += _ERF_T[1]
        for c in _ERF_T[2:]:
            p *= z
            p += c
        np.add(z, _ERF_U[0], out=q)
        for c in _ERF_U[1:]:
            q *= z
            q += c
        p *= u
        p /= q


def gelu(a):
    """x * Phi(x) with Phi the exact (erf-based) standard normal CDF.

    Bit for bit ``x * (0.5 * (1 + scipy.special.erf(x / sqrt(2))))``: where
    |x| <= sqrt(2) scipy's own polynomial runs in numpy (``_erf_small``), a
    cache-sized chunk at a time; the rest, with NaN and +-inf, calls scipy.
    """
    x = a.data
    xf = x.reshape(-1)
    cdf = np.empty_like(x)
    out = np.empty_like(x)
    cf, of = cdf.reshape(-1), out.reshape(-1)
    n = min(xf.size, _CHUNK)
    u, z, q = np.empty(n), np.empty(n), np.empty(n)
    for sl in _chunks(xf.size):
        m = sl.stop - sl.start
        uc, zc, qc, ec = u[:m], z[:m], q[:m], cf[sl]
        np.multiply(xf[sl], _INV_SQRT2, out=uc)
        np.multiply(uc, uc, out=zc)
        _erf_small(uc, zc, ec, qc)
        far = np.flatnonzero(~(zc <= 1.0))  # NaN included
        ec[far] = erf(uc[far])
        ec += 1.0
        ec *= 0.5
        np.multiply(xf[sl], ec, out=of[sl])

    def bwd(g):
        # g * (cdf + x * (exp((-0.5 * x) * x) * 1/sqrt(2 pi))), in this order
        d = np.empty_like(x)
        df, gf = d.reshape(-1), g.reshape(-1)
        for sl in _chunks(xf.size):
            xc, dc = xf[sl], df[sl]
            np.multiply(xc, -0.5, out=dc)
            dc *= xc
            np.exp(dc, out=dc)
            dc *= _INV_SQRT2PI
            dc *= xc
            dc += cf[sl]
            dc *= gf[sl]
        _accum(a, d, owned=True)
    return _node(out, (a,), bwd)


def relu(a):
    def bwd(g):
        _accum(a, g * (a.data > 0), owned=True)
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
        _accum(a, g * sigmoid_values(x), owned=True)
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
        _accum(a, p * (g - dot), owned=True)
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
            _accum(gamma, (g * y).sum(axis=0, keepdims=True), owned=True)
        if beta is not None:
            _accum(beta, g.sum(axis=0, keepdims=True), owned=True)
        m1 = gy.mean(axis=1, keepdims=True)
        m2 = (gy * y).mean(axis=1, keepdims=True)
        _accum(x, (gy - m1 - y * m2) * inv, owned=True)

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
