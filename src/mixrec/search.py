"""Differentiable short-term window search and its exhaustive counterpart.

The search trains two coupled problems: ordinary model weights descend the
training loss, while the architecture logits descend the validation loss
evaluated at a one-step lookahead of the weights (a single virtual gradient
step). Keeping the two gradient sources on disjoint splits is what guards
the logits against overfitting the training set. The exhaustive oracle
instead trains one fixed-window model per candidate and compares validation
MRR directly.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from . import numkit as nk
from .data import DataError, PopularityDist
from .model import fixed_window_config, init_arch, init_params
from .train import AdamState, TrainConfig, adam_update, batch_loss, fit, freeze_padding_rows, make_batches

ALPHA_KEY = "arch_alpha"


@dataclass
class SearchConfig:
    windows: tuple
    arch_lr: float = 3e-3
    mode: str = "first_order"  # or "one_step_unrolled"
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        self.windows = tuple(int(k) for k in self.windows)
        if not self.windows:
            raise ValueError("search needs at least one candidate window")
        if any(b <= a for a, b in zip(self.windows, self.windows[1:])):
            raise ValueError(f"windows must be strictly increasing, got {self.windows}")
        if self.mode not in ("first_order", "one_step_unrolled"):
            raise ValueError(f"unknown search mode {self.mode!r}")


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
        return json.dumps({
            "windows": list(self.windows), "alpha": self.alpha,
            "selected_k": self.selected_k, "trace": self.trace,
            "wall_ms": self.wall_ms, "epochs_run": self.epochs_run,
            "mode": self.mode,
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        d = json.loads(text)
        return cls(tuple(d["windows"]), d["alpha"], d["selected_k"], d["trace"],
                   d["wall_ms"], d["epochs_run"], d["mode"])


@contextmanager
def swapped_weights(params, virtual, frozen=False):
    """Temporarily point every leaf at the virtual weight arrays.

    With ``frozen`` the leaves are also constants for the duration: no op
    that reads only weights records a node, so a backward pass replays just
    the part of the graph that depends on the architecture logits, and the
    weights' ``grad`` buffers are left as they were. The forward values are
    the same either way.
    """
    leaves = params.leaves()
    saved = [(leaf.data, leaf.requires_grad) for _, leaf in leaves]
    for name, leaf in leaves:
        leaf.data = virtual[name]
        if frozen:
            leaf.requires_grad = False
    try:
        yield
    finally:
        for (_, leaf), (data, requires_grad) in zip(leaves, saved):
            leaf.data = data
            leaf.requires_grad = requires_grad


def weight_gradients(batch, params, arch, model_cfg, rng):
    """Gradients of the training loss w.r.t. every model weight (not alpha)."""
    leaves = params.leaves()
    for _, leaf in leaves:
        leaf.zero_grad()
    arch.alpha.zero_grad()
    loss = batch_loss(batch, params, model_cfg, arch=arch, train_mode=True, rng=rng)
    nk.backward(loss)
    return {name: leaf.grad.copy() for name, leaf in leaves}, loss.item()


def approx_inner(params, arch, batch, lr, model_cfg, rng):
    """Virtual one-step weights W' = W - lr * grad(training loss), uncommitted."""
    grads, _ = weight_gradients(batch, params, arch, model_cfg, rng)
    virtual = {}
    for name, leaf in params.leaves():
        g = grads[name]
        if not np.isfinite(g).all():
            raise nk.NumericalError(f"non-finite training gradient for parameter {name!r}")
        virtual[name] = leaf.data - lr * g
    return virtual


class Searcher:
    """Joint optimization of model weights and window logits (one run)."""

    def __init__(self, dataset, model_cfg, cfg):
        if len(model_cfg.windows) != len(cfg.windows) or tuple(model_cfg.windows) != cfg.windows:
            model_cfg = replace(model_cfg, windows=cfg.windows)
        self.dataset = dataset
        self.model_cfg = model_cfg
        self.cfg = cfg
        ss = np.random.SeedSequence(cfg.train.seed)
        init_seed, batch_seed, drop_seed = ss.spawn(3)
        self.params = init_params(model_cfg, np.random.default_rng(init_seed))
        self.arch = init_arch(model_cfg)
        self.batch_rng = np.random.default_rng(batch_seed)
        self.dropout_rng = np.random.default_rng(drop_seed)
        self.w_state = AdamState()
        self.a_state = AdamState()
        self.arch_cfg = replace(cfg.train, learning_rate=cfg.arch_lr, weight_decay=0.0)
        self.dist = PopularityDist(dataset.item_counts)
        self.last_val_loss = None

    def _loss_at(self, batch, weights, frozen):
        """Zero every gradient, then run and replay ``batch``'s training-mode
        loss at ``weights``; returns the loss. With ``frozen`` only alpha
        gets a gradient (the weight grads stay zero)."""
        leaves = self.params.leaves()
        with swapped_weights(self.params, weights, frozen=frozen):
            for _, leaf in leaves:
                leaf.zero_grad()
            self.arch.alpha.zero_grad()
            loss = batch_loss(batch, self.params, self.model_cfg, arch=self.arch,
                              train_mode=True, rng=self.dropout_rng)
            nk.backward(loss)
        return loss

    def alpha_gradient(self, val_batch, inner_batch):
        """d(validation loss)/d(alpha) at the one-step lookahead weights.

        The first-order pass reads only alpha's gradient, so it runs with the
        weights frozen; the unrolled mode also needs the validation gradient
        of the weights, so its validation pass keeps the whole tape.
        """
        lr = self.cfg.train.learning_rate
        virtual = approx_inner(self.params, self.arch, inner_batch, lr,
                               self.model_cfg, self.dropout_rng)
        unrolled = self.cfg.mode == "one_step_unrolled"
        self.last_val_loss = self._loss_at(val_batch, virtual, frozen=not unrolled).item()
        grad = self.arch.alpha.grad.copy()
        if unrolled:
            moved = {name: leaf.grad.copy() for name, leaf in self.params.leaves()}
            grad -= lr * self._alpha_hessian_vector(inner_batch, moved)
        return grad

    def _alpha_hessian_vector(self, inner_batch, direction):
        """Finite-difference d/d(alpha) of <grad_W L_train, direction>.

        This is the chain-rule term from differentiating through the virtual
        step; the probe radius follows the usual 0.01/|d| scaling. Each probe
        reads only alpha's gradient, so it runs with the weights frozen.
        """
        norm = np.sqrt(sum(float((g * g).sum()) for g in direction.values()))
        if norm == 0.0:
            return np.zeros_like(self.arch.alpha.data)
        eps = 0.01 / norm
        leaves = self.params.leaves()

        def alpha_grad_at(sign):
            shifted = {name: leaf.data + sign * eps * direction[name]
                       for name, leaf in leaves}
            self._loss_at(inner_batch, shifted, frozen=True)
            return self.arch.alpha.grad.copy()

        return (alpha_grad_at(+1.0) - alpha_grad_at(-1.0)) / (2.0 * eps)

    def arch_step(self, val_batch, inner_batch):
        """Update the window logits from a validation mini-batch only."""
        grad = self.alpha_gradient(val_batch, inner_batch)
        adam_update([(ALPHA_KEY, self.arch.alpha)], {ALPHA_KEY: grad},
                    self.a_state, self.arch_cfg)

    def weight_step(self, train_batch):
        """Update the model weights from a training mini-batch only."""
        grads, _ = weight_gradients(train_batch, self.params, self.arch,
                                    self.model_cfg, self.dropout_rng)
        adam_update(self.params.leaves(), grads, self.w_state, self.cfg.train)
        freeze_padding_rows(self.params)

    def run_epoch(self):
        """One pass: each iteration consumes one validation batch and two
        training batches (lookahead gradient, then the committed step)."""
        t = self.cfg.train
        train_batches = make_batches(self.dataset, self.dataset.split_examples("train"),
                                     t.batch_size, t.negatives_per_positive,
                                     self.dist, self.batch_rng, "train")
        val_batches = make_batches(self.dataset, self.dataset.split_examples("val"),
                                   t.batch_size, t.negatives_per_positive,
                                   self.dist, self.batch_rng, "val")
        if not train_batches or not val_batches:
            raise DataError("search requires non-empty train and val splits")
        val_losses = []
        pairs = range(0, max(len(train_batches) - 1, 1), 2)
        for vi, ti in enumerate(pairs):
            val_batch = val_batches[vi % len(val_batches)]
            inner = train_batches[ti]
            step_batch = train_batches[min(ti + 1, len(train_batches) - 1)]
            self.arch_step(val_batch, inner)
            val_losses.append(self.last_val_loss)
            self.weight_step(step_batch)
        return float(np.mean(val_losses))


def run_search(dataset, model_cfg, cfg):
    """Run the window search to argmax-stability or the epoch cap."""
    searcher = Searcher(dataset, model_cfg, cfg)
    t0 = time.perf_counter()
    trace = []
    stable = 0
    prev_choice = None
    epochs_run = 0
    for epoch in range(1, cfg.train.max_epochs + 1):
        epochs_run = epoch
        et0 = time.perf_counter()
        val_loss = searcher.run_epoch()
        alpha = searcher.arch.alpha.data[0]
        probs = searcher.arch.probabilities().data[0]
        trace.append({
            "epoch": epoch, "alpha": alpha.tolist(), "p": probs.tolist(),
            "val_loss": val_loss, "wall_ms": (time.perf_counter() - et0) * 1e3,
        })
        choice = searcher.arch.selected_window()
        if choice == prev_choice:
            stable += 1
            if stable >= cfg.train.patience:
                break
        else:
            stable = 0
            prev_choice = choice
    result = SearchResult(
        windows=cfg.windows,
        alpha=searcher.arch.alpha.data[0].tolist(),
        selected_k=searcher.arch.selected_window(),
        trace=trace,
        wall_ms=(time.perf_counter() - t0) * 1e3,
        epochs_run=epochs_run,
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
        k_cfg = fixed_window_config(model_cfg, k)
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
