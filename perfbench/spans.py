"""In-memory span tracer that wraps mixrec's public functions from outside.

A traced run replaces every public function (and every public method of a
class) defined in the traced modules with a wrapper that records a span:
its name, start, end and the index of the span that was open when it began.
Each replacement is made in every traced module namespace that binds the
function by name (``train.forward_hidden`` as well as
``model.forward_hidden``), so calls made through an imported name are traced
too. Each ``numkit`` op output that carries a backward closure gets that
closure wrapped as well, which times the op's backward pass.

``uninstall`` puts every original back. Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

TRACED_MODULES = ("numkit", "model", "train", "search", "evaluate", "data")

# numkit ops whose backward closures are timed as ``numkit.<op>.bwd``
NUMKIT_OPS = frozenset({
    "add", "sub", "mul", "scale", "matmul", "transpose", "batch_transpose",
    "take_rows", "repeat_rows", "concat_cols", "slice_cols", "row_dot",
    "sum_all", "sum_cols", "mean_all", "gelu", "relu", "softplus", "softmax",
    "layer_norm",
})


def _interest_forward_span(signature):
    """Span name for ``model.interest_forward``: the long-term module runs
    over the whole window (window == block_len), a short-term candidate over
    its last k positions."""
    def name(args, kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        kind = "long" if bound["window"] == bound["block_len"] else "short"
        return f"model.interest_forward.{kind}"
    return name


def self_times(spans):
    """Aggregate a span list into per-name totals.

    ``spans`` is a sequence of ``(name, start, end, parent)`` where ``parent``
    is the index of the enclosing span or -1. A span's self time is its
    duration minus the part of its interval that its child spans cover.
    Inclusive time counts a span only when no ancestor has the same name, so
    recursion is not counted twice.

    Returns ``{name: {"calls", "self", "total"}}`` in the clock's unit.
    """
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = defaultdict(lambda: {"calls": 0, "self": 0.0, "total": 0.0})
    for i, (name, start, end, parent) in enumerate(spans):
        covered = _union_length(
            [(max(spans[c][1], start), min(spans[c][2], end)) for c in children.get(i, ())])
        rec = out[name]
        rec["calls"] += 1
        rec["self"] += (end - start) - covered
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            rec["total"] += end - start
    return dict(out)


def merge_times(into, stats):
    """Add one ``self_times`` result into a running total of the same shape.
    Span lists from separate ``take`` calls index their parents separately,
    so they are aggregated one list at a time and then merged."""
    for name, rec in stats.items():
        dst = into.setdefault(name, {"calls": 0, "self": 0.0, "total": 0.0})
        for key, value in rec.items():
            dst[key] += value
    return into


def _union_length(intervals):
    total = 0.0
    cur_start = cur_end = None
    for lo, hi in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_end is None or lo > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = lo, hi
        else:
            cur_end = max(cur_end, hi)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    """Records spans and counters while installed over a set of modules."""

    def __init__(self, modules, clock=time.perf_counter):
        self.modules = dict(modules)     # short name -> module object
        self.clock = clock
        self.spans = []                  # [name, start, end, parent]
        self.counts = defaultdict(float)
        self.seen_draws = set()          # (seed, user, split) keys given to example_rng
                                         # since install: repeats within one unit
        self._stack = []
        self._patches = []               # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, self.clock(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def wrap(self, name, fn, after=None):
        """Return ``fn`` wrapped in a span; ``after(args, kwargs, result)``
        runs inside the span once ``fn`` has returned. ``name`` is a string
        or a function of ``(args, kwargs)`` that returns one."""
        def traced(*args, **kwargs):
            idx = self._open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                self._close(idx)
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def take(self):
        """Return the recorded spans, as tuples, and the counters, and start
        afresh."""
        if self._stack:
            raise RuntimeError("take() called while spans are open")
        spans, counts = [tuple(s) for s in self.spans], dict(self.counts)
        self.spans = []
        self.counts.clear()
        return spans, counts

    # -- hooks for counters --------------------------------------------------

    def _numkit_after(self, op):
        counts = self.counts
        wrap = self.wrap
        tensor_type = self.modules["numkit"].Tensor2

        def after(args, kwargs, out):
            if not isinstance(out, tensor_type):
                return
            counts["numkit.nodes"] += 1
            counts["numkit.node_bytes"] += out.data.nbytes
            if op == "gelu":
                counts["numkit.gelu.elements"] += out.data.size
            elif op == "softmax":
                counts["numkit.softmax.calls"] += 1
            if op in NUMKIT_OPS and out._backward is not None:
                if op == "mul":
                    counts["numkit.mul.operands"] += 2
                    counts["numkit.mul.const_operands"] += sum(
                        not a.requires_grad for a in args[:2])
                out._backward = wrap(f"numkit.{op}.bwd", out._backward)
        return after

    def _example_rng_after(self, args, kwargs, result):
        key = tuple(args[:3])
        self.counts["evaluate.example_rng.calls"] += 1
        if key in self.seen_draws:
            self.counts["evaluate.example_rng.repeats"] += 1
        else:
            self.seen_draws.add(key)

    # -- installation --------------------------------------------------------

    def _targets(self):
        """(span name, owner, attribute, function) for every public function
        and method defined in the traced modules."""
        found = []
        for short, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    found.append((f"{short}.{attr}", mod, attr, obj))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for meth, fn in vars(obj).items():
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            found.append((f"{short}.{meth}", obj, meth, fn))
        names = [t[0] for t in found]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise RuntimeError(f"span names are not unique: {sorted(dupes)}")
        return found

    def target_names(self):
        """Span names of every function and method that ``install`` wraps."""
        return {name for name, _, _, _ in self._targets()}

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.seen_draws.clear()
        wrappers = {}
        for name, owner, attr, fn in self._targets():
            short, _, fname = name.partition(".")
            after = None
            if short == "numkit" and owner is self.modules["numkit"]:
                after = self._numkit_after(fname)
            elif name == "evaluate.example_rng":
                after = self._example_rng_after
            span = name
            if short == "numkit" and fname in NUMKIT_OPS:
                span = f"{name}.fwd"
            elif name == "model.interest_forward":
                span = _interest_forward_span(inspect.signature(fn))
            wrappers[id(fn)] = (fn, self.wrap(span, fn, after))
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, wrappers[id(fn)][1])
        # rebind names imported with ``from .x import f`` in the other modules
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        """Restore every original binding, most recent patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
