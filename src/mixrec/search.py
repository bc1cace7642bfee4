"""Differentiable short-term window search and its exhaustive counterpart.

The search trains two coupled problems: ordinary model weights descend the
training loss, while the architecture logits descend the validation loss
evaluated at a one-step lookahead of the weights (a single virtual gradient
step). Keeping the two gradient sources on disjoint splits is what guards
the logits against overfitting the training set. The logits are one 1 x M
leaf, ``Searcher.alpha``; the candidate windows are those of the searcher's
``ModelConfig``, which takes them from ``SearchConfig.windows``. The
exhaustive oracle instead trains one fixed-window model per candidate and
compares validation MRR directly.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import numkit as nk
from .data import DataError, UsageError
from .model import init_arch, init_params
from .train import (AdamState, TrainConfig, adam_update, backprop, batch_loss, fit,
                    make_batches, train_step)

ALPHA_KEY = "arch_alpha"

# perfbench's tracer test wraps search.batch_loss; every pass reaches it via train.backprop
__all__ = ["ALPHA_KEY", "OracleResult", "SearchConfig", "SearchResult", "Searcher",
           "approx_inner", "batch_loss", "exhaustive_oracle", "run_search"]


@dataclass
class SearchConfig:
    windows: tuple
    arch_lr: float = 3e-3
    mode: str = "first_order"  # or "one_step_unrolled"
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        self.windows = tuple(int(k) for k in self.windows)
        if not self.windows:
            raise UsageError("search needs at least one candidate window")
        if any(b <= a for a, b in zip(self.windows, self.windows[1:])):
            raise UsageError(f"windows must be strictly increasing, got {self.windows}")
        if self.mode not in ("first_order", "one_step_unrolled"):
            raise UsageError(f"unknown search mode {self.mode!r}")
        if not (self.arch_lr >= 0 and math.isfinite(self.arch_lr)):  # NaN fails too
            raise UsageError(f"arch_lr must be finite and >= 0, got {self.arch_lr}")


@dataclass
class SearchResult:
    windows: tuple
    alpha: list
    selected_k: int
    trace: list
    wall_ms: float
    epochs_run: int
    mode: str

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def load(cls, path):
        """Read a saved result: each window and ``selected_k`` must be a
        JSON integer >= 1, and ``selected_k`` one of the windows. A malformed
        file raises ``DataError`` naming ``path``."""
        with open(path, "rb") as fh:  # bytes, so a non-UTF-8 file fails in json.loads
            raw = fh.read()
        # a truncated or corrupt file surfaces as a JSON, key, type or decode error
        try:
            d = json.loads(raw)
            windows, k = tuple(d["windows"]), d["selected_k"]
            for w in windows + (k,):
                if type(w) is not int or w < 1:  # a JSON true or 2.0 is no window
                    raise DataError(f"{path}: window {w!r} is not an integer >= 1")
            if k not in windows:
                raise DataError(f"{path}: selected_k {k} is not one of the "
                                f"windows {list(windows)}")
            return cls(**dict(d, windows=windows))
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: malformed search result: {exc!r}") from None


def approx_inner(params, alpha, batch, lr, model_cfg, rng):
    """Virtual one-step weights W' = W - lr * grad(training loss), uncommitted."""
    backprop(batch, params, model_cfg, rng=rng, alpha=alpha)
    virtual = {}
    for name, leaf in params.leaves():
        if not np.isfinite(leaf.grad).all():
            raise nk.NumericalError(f"non-finite training gradient for parameter {name!r}")
        virtual[name] = leaf.data - lr * leaf.grad
    return virtual


class Searcher:
    """Joint optimization of model weights and window logits (one run)."""

    def __init__(self, dataset, model_cfg, cfg):
        if tuple(model_cfg.windows) != cfg.windows:
            model_cfg = replace(model_cfg, windows=cfg.windows)
        self.dataset = dataset
        self.model_cfg = model_cfg
        self.cfg = cfg
        ss = np.random.SeedSequence(cfg.train.seed)
        init_seed, batch_seed, drop_seed = ss.spawn(3)
        self.params = init_params(model_cfg, np.random.default_rng(init_seed))
        self.alpha = init_arch(model_cfg)
        self.batch_rng = np.random.default_rng(batch_seed)
        self.dropout_rng = np.random.default_rng(drop_seed)
        self.w_state = AdamState()
        self.a_state = AdamState()
        self.arch_cfg = replace(cfg.train, learning_rate=cfg.arch_lr, weight_decay=0.0)

    def _loss_at(self, batch, weights, frozen):
        """``train.backprop`` on fresh leaves that hold ``weights``; returns the
        loss and those leaves. With ``frozen`` the leaves are constants: no op
        that reads only weights records a node, so backward replays just the
        part of the graph that depends on alpha. The forward values are the
        same either way, and the live weights are never touched."""
        params = self.params.with_data(weights, requires_grad=not frozen)
        return backprop(batch, params, self.model_cfg, rng=self.dropout_rng,
                        alpha=self.alpha), params

    def alpha_gradient(self, val_batch, inner_batch):
        """d(validation loss)/d(alpha) at the one-step lookahead weights, and
        that validation loss.

        The first-order pass reads only alpha's gradient, so it runs with the
        weights frozen; the unrolled mode also needs the validation gradient
        of the weights, so its validation pass keeps the whole tape.
        """
        lr = self.cfg.train.learning_rate
        virtual = approx_inner(self.params, self.alpha, inner_batch, lr,
                               self.model_cfg, self.dropout_rng)
        unrolled = self.cfg.mode == "one_step_unrolled"
        val_loss, at_virtual = self._loss_at(val_batch, virtual, frozen=not unrolled)
        grad = self.alpha.grad.copy()
        if unrolled:
            moved = {name: leaf.grad for name, leaf in at_virtual.leaves()}
            grad -= lr * self._alpha_hessian_vector(inner_batch, moved)
        return grad, val_loss

    def _alpha_hessian_vector(self, inner_batch, direction):
        """Finite-difference d/d(alpha) of <grad_W L_train, direction>.

        This is the chain-rule term from differentiating through the virtual
        step; the probe radius follows the usual 0.01/|d| scaling. Each probe
        reads only alpha's gradient, so it runs with the weights frozen.
        """
        norm = np.sqrt(sum(float((g * g).sum()) for g in direction.values()))
        if norm == 0.0:
            return np.zeros_like(self.alpha.data)
        eps = 0.01 / norm
        leaves = self.params.leaves()

        def alpha_grad_at(sign):
            shifted = {name: leaf.data + sign * eps * direction[name]
                       for name, leaf in leaves}
            self._loss_at(inner_batch, shifted, frozen=True)
            return self.alpha.grad.copy()

        return (alpha_grad_at(+1.0) - alpha_grad_at(-1.0)) / (2.0 * eps)

    def arch_step(self, val_batch, inner_batch):
        """Update the window logits from a validation mini-batch only;
        returns the validation loss."""
        self.alpha.grad, val_loss = self.alpha_gradient(val_batch, inner_batch)
        adam_update([(ALPHA_KEY, self.alpha)], self.a_state, self.arch_cfg)
        return val_loss

    def weight_step(self, train_batch):
        """Update the model weights from a training mini-batch only."""
        train_step(train_batch, self.params, self.model_cfg, self.cfg.train, self.w_state,
                   alpha=self.alpha, rng=self.dropout_rng)

    def run_epoch(self):
        """One pass: each iteration consumes one validation batch and two
        training batches (lookahead gradient, then the committed step)."""
        t = self.cfg.train
        train_batches, val_batches = (
            make_batches(self.dataset, self.dataset.split_examples(split), t.batch_size,
                         t.negatives_per_positive, self.batch_rng, split)
            for split in ("train", "val"))
        if not train_batches or not val_batches:
            raise DataError("search requires non-empty train and val splits")
        val_losses = []
        pairs = range(0, max(len(train_batches) - 1, 1), 2)
        for vi, ti in enumerate(pairs):
            val_batch = val_batches[vi % len(val_batches)]
            inner = train_batches[ti]
            step_batch = train_batches[min(ti + 1, len(train_batches) - 1)]
            val_losses.append(self.arch_step(val_batch, inner))
            self.weight_step(step_batch)
        return float(np.mean(val_losses))

    def selected_window(self):
        """The window of the largest logit; a tie goes to the smaller window."""
        return self.model_cfg.windows[int(np.argmax(self.alpha.data[0]))]


def run_search(dataset, model_cfg, cfg):
    """Run the window search to argmax-stability or the epoch cap."""
    searcher = Searcher(dataset, model_cfg, cfg)
    t0 = time.perf_counter()
    trace = []
    stable = 0
    prev_choice = None
    for epoch in range(1, cfg.train.max_epochs + 1):
        et0 = time.perf_counter()
        val_loss = searcher.run_epoch()
        trace.append({
            "epoch": epoch, "alpha": searcher.alpha.data[0].tolist(),
            "p": nk.softmax(searcher.alpha).data[0].tolist(),
            "val_loss": val_loss, "wall_ms": (time.perf_counter() - et0) * 1e3,
        })
        choice = searcher.selected_window()
        if choice == prev_choice:
            stable += 1
            if stable >= cfg.train.patience:
                break
        else:
            stable = 0
            prev_choice = choice
    result = SearchResult(
        windows=cfg.windows,
        alpha=searcher.alpha.data[0].tolist(),
        selected_k=searcher.selected_window(),
        trace=trace,
        wall_ms=(time.perf_counter() - t0) * 1e3,
        epochs_run=len(trace),
        mode=cfg.mode,
    )
    return result, searcher


@dataclass
class OracleResult:
    best_k: int
    per_window: list  # {"k", "val_mrr", "wall_ms", "epochs"}
    wall_ms: float


def exhaustive_oracle(dataset, model_cfg, cfg):
    """Train one fixed-window model per candidate; pick the best val MRR.

    Ties break toward the smaller window. Each run gets an independent
    seed stream derived from the shared training seed.
    """
    t0 = time.perf_counter()
    per_window = []
    best_k, best_mrr = None, -np.inf
    seeds = np.random.SeedSequence(cfg.train.seed).spawn(len(cfg.windows))
    for k, seed in zip(cfg.windows, seeds):
        kt0 = time.perf_counter()
        k_cfg = replace(model_cfg, windows=(k,))
        params = init_params(k_cfg, np.random.default_rng(seed))
        run_cfg = replace(cfg.train, seed=int(seed.generate_state(1)[0]) % (2 ** 31))
        result = fit(dataset, params, k_cfg, run_cfg)
        per_window.append({
            "k": int(k), "val_mrr": result.best_val_mrr,
            "wall_ms": (time.perf_counter() - kt0) * 1e3,
            "epochs": result.epochs_run,
        })
        if result.best_val_mrr > best_mrr:
            best_k, best_mrr = int(k), result.best_val_mrr
    return OracleResult(best_k, per_window, (time.perf_counter() - t0) * 1e3)
