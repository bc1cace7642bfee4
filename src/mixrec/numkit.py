"""Dense 2-D tensors with reverse-mode automatic differentiation.

Everything is float64 and strictly two-dimensional. Vectors are 1 x n
tensors; mini-batches are row-stacked blocks (see ``batch_transpose``).
An operation records a node exactly when one of its operands requires grad;
on constant operands it computes the value alone. There is no global
recording mode: a pass that needs no tape runs on constant leaves. Calling
``backward`` on a scalar result replays the recorded graph in reverse
topological order into the leaves it reaches.

The tape holds slots, not values. A taped tensor's slot (``_Slot``) holds its
gradient, its taped operands' slots and its backward closure; the closure
captures those slots and only the arrays its backward reads, never a
``Tensor2``. So an op's output value lives only as long as the forward code
or a later op's saved array needs it. What each op saves:

- ``mul``, ``matmul``, ``row_dot``: an operand only when the other one is
  taped (a dropout ``mul`` saves the mask, not the activation);
- ``gelu``: its derivative, computed in the forward pass; ``relu``: a
  boolean ``x > 0``; ``softplus``: its input; ``softmax``: its output;
- ``layer_norm``: the normalized rows, the inverse deviations and gamma;
- every other op: shapes and indices alone.
"""

from __future__ import annotations

import ctypes
import math

import numpy as np
from scipy.special import erf

# glibc mallopt parameter numbers
_M_TRIM_THRESHOLD, _M_MMAP_MAX = -1, -4


def _keep_freed_arrays_in_heap():
    """Take every array from the heap and switch heap trimming off.

    Every op allocates its output and its backward temporaries afresh, a
    few MB each, and frees them a moment later. With glibc's adaptive
    thresholds, whether freed memory stays in the heap for the next step or
    goes back to the kernel, to be faulted in again page by page, depends
    on where long-lived objects happened to land at start-up: on 2 vCPU,
    one search epoch took 0.9M or 2.4M minor faults from run to run of the
    same input, and 16 s or 23 s. An mmap limit of 0 takes every array
    from the heap, whatever its size, so glibc never consults its mmap
    threshold: each paper-default hidden array is 32 MB from B=64 on,
    glibc's largest threshold on 64-bit, and a B=64 fit took 117k-121k
    minor faults with those mmapped, 356-642 without.
    ``backward`` frees a tape from its last node to its first, so the free
    space at the top of the heap grows by the whole tape (about 0.9 GB on
    the paper-default model at B=32); any trim threshold below that hands
    it to the kernel, and the next forward faults it back in. Measured on
    that model (2 vCPU, glibc 2.36), per two-epoch fit after the first:
    9k-29k minor faults and about 0.3 s more per fit with 64 MB kept, up
    to 14k faults with 256 MB, and 0-750 with trimming off. A C library
    without ``mallopt`` is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # a trim threshold of -1 means never trim
    return bool(mallopt(_M_TRIM_THRESHOLD, -1) and mallopt(_M_MMAP_MAX, 0))


HEAP_THRESHOLDS_SET = _keep_freed_arrays_in_heap()

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


class GraphReleasedError(RuntimeError):
    """``backward`` reached a node of a graph that an earlier ``backward``
    already replayed and freed."""


def _replayed(g):
    """The backward closure of every node ``backward`` has run: raises."""
    raise GraphReleasedError("this graph was already replayed by backward; run the forward again")


class _Slot:
    """A taped tensor's place on the tape.

    It holds the gradient buffer, the slots of the taped operands
    (``parents``) and the closure that sends this node's gradient to them
    (``backward``; None on a leaf). A slot never refers to a ``Tensor2``,
    so the tape keeps only what the closures saved, and an op's output
    value is freed as soon as the forward code drops it.
    """

    __slots__ = ("grad", "parents", "backward")

    def __init__(self, grad, parents=(), backward=None):
        self.grad = grad
        self.parents = parents
        self.backward = backward


class Tensor2:
    """A rows x cols float64 matrix, optionally a node in an autodiff graph.

    A taped tensor (a leaf created with ``requires_grad=True``, or the output
    of an op on a taped operand) holds its gradient and its graph links in a
    slot (``_Slot``); a constant holds none. A leaf starts with an all-zero
    ``grad`` buffer. After ``backward(root)``, a leaf that root's graph
    reaches holds d root / d leaf alone; one it does not reach keeps its
    buffer, all zeros if no graph has reached it.
    """

    __slots__ = ("data", "_slot")

    def __init__(self, data, requires_grad=False):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        if self.data.ndim != 2:  # the input's ndim: ascontiguousarray lifts 0-D to 1-D
            raise ShapeError(f"Tensor2 requires 2-D data, got ndim={np.ndim(data)}")
        self._slot = _Slot(np.zeros_like(self.data)) if requires_grad else None

    @property
    def requires_grad(self):
        return self._slot is not None

    @property
    def grad(self):
        return None if self._slot is None else self._slot.grad

    @grad.setter
    def grad(self, value):
        if self._slot is None:
            raise AttributeError("a constant tensor holds no gradient")
        self._slot.grad = value

    @property
    def _parents(self):
        """The slots of the taped operands this node was computed from."""
        return () if self._slot is None else self._slot.parents

    @property
    def _backward(self):
        return None if self._slot is None else self._slot.backward

    @_backward.setter
    def _backward(self, fn):
        self._slot.backward = fn

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
        if self._slot is not None:
            self._slot.grad = np.zeros_like(self.data)

    def __repr__(self):
        return f"Tensor2({self.rows}x{self.cols}, requires_grad={self.requires_grad})"


def _node(data, operands, backward_fn):
    """Create a graph node from the operands' slots (None for a constant);
    records it only when one of them is taped. ``backward_fn`` captures the
    taped operands' slots and only the arrays it reads."""
    out = Tensor2(data)
    parents = tuple(s for s in operands if s is not None)
    if parents:
        out._slot = _Slot(None, parents, backward_fn)
    return out


def _accum(slot, g, owned=False):
    """Add ``g`` into ``slot.grad``; the first contribution sets it. A
    constant operand (``slot`` None) takes nothing.

    ``owned`` marks an array the calling op has just created and holds no
    other reference to; it becomes the buffer as is. Any other ``g`` (a view
    of the upstream gradient, or one array handed to two parents) is copied
    into a fresh C-ordered buffer, ``g + 0.0``, which like ``0 + g`` turns
    -0.0 into +0.0.
    """
    if slot is None:
        return
    if slot.grad is None:
        slot.grad = g if owned else np.add(g, 0.0, order="C")
    else:
        slot.grad += g


def backward(root):
    """Reverse-replay the graph below ``root`` into its leaves' gradients.

    Each leaf the graph reaches drops its buffer (``grad`` None) before the
    first closure runs, so, like an interior slot, it takes its first
    contribution as its buffer (see ``_accum``) and ends up holding
    d root / d leaf alone; a leaf the graph does not reach keeps its buffer.
    A constant ``root`` has no graph and reaches no leaf.

    Each interior slot is released as soon as its closure has run: the
    closure, with the arrays it saved, and the links to its parents are
    dropped, so the tape shrinks as the replay goes down it and no tape
    outlives its backward. A released slot cannot be replayed again:
    reaching one raises ``GraphReleasedError`` before any gradient moves.
    """
    top = root._slot
    if top is None:
        return
    topo = []
    visited = set()
    stack = [(top, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        if node.backward is _replayed:
            _replayed(None)  # before any gradient moves
        visited.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    for node in topo:
        if node.backward is None:  # a leaf
            node.grad = None
    top.grad = np.ones(root.data.shape)
    while topo:
        node = topo.pop()
        if node.backward is not None:
            node.backward(node.grad)
            node.grad = None  # interior buffers are single-use
            node.parents, node.backward = (), _replayed


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
    sa, sb, shape_a, shape_b = a._slot, b._slot, a.shape, b.shape
    def bwd(g):
        _accum(sa, _unbroadcast(g, shape_a))
        _accum(sb, _unbroadcast(g, shape_b))
    return _node(a.data + b.data, (sa, sb), bwd)


def _saved_for(slot, t):
    """``t.data`` if the operand behind ``slot`` will need it for its
    gradient, else None: an op saves an operand only for its taped partner."""
    return None if slot is None else t.data


def mul(a, b):
    _check_broadcast(a, b, "mul")
    sa, sb, shape_a, shape_b = a._slot, b._slot, a.shape, b.shape
    ad, bd = _saved_for(sb, a), _saved_for(sa, b)
    def bwd(g):
        # a constant operand (a dropout or padding mask) gets no product
        if sa is not None:
            _accum(sa, _unbroadcast(g * bd, shape_a), owned=True)
        if sb is not None:
            _accum(sb, _unbroadcast(g * ad, shape_b), owned=True)
    return _node(a.data * b.data, (sa, sb), bwd)


def scale(a, s):
    sa = a._slot
    def bwd(g):
        _accum(sa, g * s, owned=True)
    return _node(a.data * s, (sa,), bwd)


def matmul(a, b):
    if a.cols != b.rows:
        raise ShapeError(f"matmul: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    sa, sb = a._slot, b._slot
    ad, bd = _saved_for(sb, a), _saved_for(sa, b)
    def bwd(g):
        # a constant operand (a frozen weight) gets no product
        if sa is not None:
            _accum(sa, g @ bd.T, owned=True)
        if sb is not None:
            _accum(sb, ad.T @ g, owned=True)
    return _node(a.data @ b.data, (sa, sb), bwd)


def transpose(a):
    sa = a._slot
    def bwd(g):
        _accum(sa, g.T)
    return _node(a.data.T, (sa,), bwd)


def batch_transpose(a, blocks):
    """Transpose each of ``blocks`` stacked (rows/blocks) x cols sub-matrices.

    (B*R) x C  ->  (B*C) x R, block by block. Inverse of itself with the
    same block count.
    """
    if a.rows % blocks != 0:
        raise ShapeError(f"batch_transpose: {a.rows} rows not divisible by {blocks} blocks")
    sa, r, c = a._slot, a.rows // blocks, a.cols
    out = a.data.reshape(blocks, r, c).transpose(0, 2, 1).reshape(blocks * c, r)
    def bwd(g):
        _accum(sa, g.reshape(blocks, c, r).transpose(0, 2, 1).reshape(blocks * r, c))
    return _node(out, (sa,), bwd)


def take_rows(a, indices):
    """Select rows by index (duplicates allowed); backward scatter-adds."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= a.rows):
        raise LookupError(f"row index out of range [0, {a.rows}) : {int(idx.min())}..{int(idx.max())}")
    sa, shape = a._slot, a.shape
    def bwd(g):
        buf = np.zeros(shape)
        np.add.at(buf, idx, g)
        _accum(sa, buf, owned=True)
    return _node(a.data[idx], (sa,), bwd)


def repeat_rows(a, times):
    """Repeat each row ``times`` consecutive times."""
    sa, rows, cols = a._slot, a.rows, a.cols
    def bwd(g):
        _accum(sa, g.reshape(rows, times, cols).sum(axis=1), owned=True)
    return _node(np.repeat(a.data, times, axis=0), (sa,), bwd)


def concat_cols(a, b):
    if a.rows != b.rows:
        raise ShapeError(f"concat_cols: {a.rows}x{a.cols} vs {b.rows}x{b.cols}")
    sa, sb, ca = a._slot, b._slot, a.cols
    def bwd(g):
        _accum(sa, g[:, :ca])
        _accum(sb, g[:, ca:])
    return _node(np.concatenate([a.data, b.data], axis=1), (sa, sb), bwd)


def slice_cols(a, start, stop):
    sa, shape = a._slot, a.shape
    def bwd(g):
        buf = np.zeros(shape)
        buf[:, start:stop] = g
        _accum(sa, buf, owned=True)
    return _node(a.data[:, start:stop].copy(), (sa,), bwd)


def row_dot(a, b):
    """Per-row dot product: (n x c, n x c) -> n x 1."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"row_dot: {a.rows}x{a.cols} vs {b.rows}x{b.cols}")
    sa, sb = a._slot, b._slot
    ad, bd = _saved_for(sb, a), _saved_for(sa, b)
    def bwd(g):
        if sa is not None:
            _accum(sa, g * bd, owned=True)
        if sb is not None:
            _accum(sb, g * ad, owned=True)
    return _node((a.data * b.data).sum(axis=1, keepdims=True), (sa, sb), bwd)


def sum_all(a):
    sa, shape = a._slot, a.shape
    def bwd(g):
        _accum(sa, np.full(shape, g[0, 0]), owned=True)
    return _node(np.array([[a.data.sum()]]), (sa,), bwd)


def sum_cols(a):
    """Row-wise sum: n x c -> n x 1."""
    sa, shape = a._slot, a.shape
    def bwd(g):
        _accum(sa, np.broadcast_to(g, shape))
    return _node(a.data.sum(axis=1, keepdims=True), (sa,), bwd)


def mean_all(a):
    sa, shape, n = a._slot, a.shape, a.data.size
    def bwd(g):
        _accum(sa, np.full(shape, g[0, 0] / n), owned=True)
    return _node(np.array([[a.data.mean()]]), (sa,), bwd)


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

    Bit for bit ``x * (0.5 * (1 + scipy.special.erf(x * (1 / sqrt(2)))))``
    (``x / sqrt(2)`` rounds differently and changes 4% of N(0, 1.5^2) outputs): where
    |x| <= sqrt(2) scipy's own polynomial runs in numpy (``_erf_small``), a
    cache-sized chunk at a time; the rest, with NaN and +-inf, calls scipy.
    On a taped input the same chunk pass also computes the derivative
    ``Phi(x) + x * phi(x)``, and that is all the node saves: neither the
    input nor the output stays on the tape.
    """
    x, sa = a.data, a._slot
    xf = x.reshape(-1)
    out = np.empty_like(x)
    of = out.reshape(-1)
    deriv = None if sa is None else np.empty_like(x)
    n = min(xf.size, _CHUNK)
    u, z, q, cdf = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
    for sl in _chunks(xf.size):
        m = sl.stop - sl.start
        xc, uc, zc, qc, ec = xf[sl], u[:m], z[:m], q[:m], cdf[:m]
        np.multiply(xc, _INV_SQRT2, out=uc)
        np.multiply(uc, uc, out=zc)
        _erf_small(uc, zc, ec, qc)
        far = np.flatnonzero(~(zc <= 1.0))  # NaN included
        ec[far] = erf(uc[far])
        ec += 1.0
        ec *= 0.5
        np.multiply(xc, ec, out=of[sl])
        if deriv is not None:
            # cdf + x * (exp((-0.5 * x) * x) * 1/sqrt(2 pi)), in this order
            dc = deriv.reshape(-1)[sl]
            np.multiply(xc, -0.5, out=dc)
            dc *= xc
            np.exp(dc, out=dc)
            dc *= _INV_SQRT2PI
            dc *= xc
            dc += ec

    def bwd(g):
        np.multiply(deriv, g, out=deriv)  # used once: the gradient takes its place
        _accum(sa, deriv, owned=True)
    return _node(out, (sa,), bwd)


def relu(a):
    sa = a._slot
    positive = None if sa is None else a.data > 0
    def bwd(g):
        _accum(sa, g * positive, owned=True)
    return _node(np.maximum(a.data, 0.0), (sa,), bwd)


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
    x, sa = a.data, a._slot
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    def bwd(g):
        _accum(sa, g * sigmoid_values(x), owned=True)
    return _node(out, (sa,), bwd)


def softmax(a):
    """Row-wise stable softmax; rows sum to 1."""
    if a.data.size == 0:
        raise ValueError("softmax: empty input")
    sa = a._slot
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)
    def bwd(g):
        dot = (g * p).sum(axis=1, keepdims=True)
        _accum(sa, p * (g - dot), owned=True)
    return _node(p, (sa,), bwd)


def layer_norm(x, gamma=None, beta=None, eps=1e-5):
    """Row-wise layer normalization with population (1/n) variance.

    ``gamma``/``beta`` are 1 x cols tensors or None for the affine-free form.
    The node saves the normalized rows, the inverse deviations and gamma's
    values.
    """
    if eps <= 0:
        raise ValueError(f"layer_norm: eps must be positive, got {eps}")
    for name, p in (("gamma", gamma), ("beta", beta)):
        if p is not None and p.data.shape != (1, x.cols):
            raise ShapeError(f"layer_norm: {name} {p.rows}x{p.cols} vs input {x.rows}x{x.cols}")
    d = x.data - x.data.mean(axis=1, keepdims=True)
    var = (d * d).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = d * inv
    gd = None if gamma is None else gamma.data
    sx = x._slot
    sg = None if gamma is None else gamma._slot
    sb = None if beta is None else beta._slot

    def bwd(g):
        gy = g if gd is None else g * gd
        if sg is not None:
            _accum(sg, (g * y).sum(axis=0, keepdims=True), owned=True)
        if sb is not None:
            _accum(sb, g.sum(axis=0, keepdims=True), owned=True)
        if sx is not None:
            m1 = gy.mean(axis=1, keepdims=True)
            m2 = (gy * y).mean(axis=1, keepdims=True)
            _accum(sx, (gy - m1 - y * m2) * inv, owned=True)

    out = y if gd is None else y * gd
    if beta is not None:
        out = out + beta.data
    return _node(out, (sx, sg, sb), bwd)


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
    Each probe's tape is dropped unreplayed once its value is read.
    """
    if h <= 0:
        raise ValueError(f"grad_check: step must be positive, got {h}")
    for p in params:  # backward resets only the leaves ``f`` reaches
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
