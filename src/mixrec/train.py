"""Loss, Adam, mini-batch training with early stopping on validation MRR."""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from . import evaluate, numkit as nk
from .data import PAD, TRAINING_REJECTION_ROUNDS, DataError, SamplingError, UsageError
from .model import forward_hidden, score_items


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps_adam: float = 1e-8
    batch_size: int = 128
    max_epochs: int = 100
    patience: int = 10
    negatives_per_positive: int = 1
    weight_decay: float = 0.0
    seed: int = 0
    eval_negatives: int = 100
    eval_cutoff: int = 10

    def __post_init__(self):
        for name in ("learning_rate", "weight_decay"):
            value = getattr(self, name)
            if not (value >= 0 and math.isfinite(value)):  # NaN fails too
                raise UsageError(f"{name} must be finite and >= 0, got {value}")
        if not (self.eps_adam > 0 and math.isfinite(self.eps_adam)):
            raise UsageError(f"eps_adam must be finite and > 0, got {self.eps_adam}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise UsageError(f"betas must lie in [0, 1), got {self.beta1}, {self.beta2}")
        # with no negative every rank is 1 and every metric 1.0, and with
        # cutoff 0 every metric is 0: either way early stopping never improves
        for name in ("batch_size", "max_epochs", "patience", "negatives_per_positive",
                     "eval_negatives", "eval_cutoff"):
            if getattr(self, name) < 1:
                raise UsageError(f"{name} must be >= 1, got {getattr(self, name)}")


class AdamState:
    """First/second-moment accumulators keyed by parameter name."""

    def __init__(self):
        self.m = {}
        self.v = {}
        self.t = 0


def adam_update(named_params, state, cfg):
    """One Adam step with bias correction over (name, leaf) pairs, each leaf
    moved along the gradient in its ``grad``."""
    state.t += 1
    b1, b2 = cfg.beta1, cfg.beta2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for name, p in named_params:
        g = p.grad
        if cfg.weight_decay:
            g = g + cfg.weight_decay * p.data
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p.data -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps_adam)


@dataclass
class Batch:
    inputs: np.ndarray     # (B, T) item indices, np.intp
    targets: np.ndarray    # (B,), np.intp
    negatives: np.ndarray  # (B, n_neg)
    split: str


def sample_training_negatives(dist, owned, n_neg, rng):
    """Popularity-weighted negatives per example, excluding the items that
    row i of the B x (V+1) boolean mask ``owned`` marks.

    Draws with replacement across examples (training only); redraws entries
    colliding with the owner's history until clean.
    """
    n = len(owned)
    rows = np.arange(n)[:, None]
    draws = dist.lookup(rng.random((n, n_neg)))
    for _ in range(TRAINING_REJECTION_ROUNDS):
        bad = owned[rows, draws]
        hits = int(bad.sum())
        if hits == 0:
            return draws
        draws[bad] = dist.lookup(rng.random(hits))
    raise SamplingError("could not draw training negatives outside user histories")


def make_batches(dataset, examples, batch_size, n_neg, rng, split):
    """Shuffle an example table and pack it with freshly drawn negatives."""
    order = rng.permutation(len(examples))
    batches = []
    for start in range(0, len(order), batch_size):
        chunk = examples[order[start:start + batch_size]]
        owned = dataset.history_mask(chunk.users)
        negatives = sample_training_negatives(dataset.popularity, owned, n_neg, rng)
        batches.append(Batch(chunk.inputs(), chunk.targets.astype(np.intp), negatives, split))
    return batches


def batch_loss(batch, params, cfg, *, rng, alpha=None):
    """Mean training-mode cross-entropy over the batch: positive target vs
    drawn negatives. ``rng`` draws the dropout masks."""
    hidden = forward_hidden(batch.inputs, params, cfg, alpha=alpha, rng=rng)
    raw_pos = score_items(hidden, batch.targets[:, None], params)
    raw_neg = score_items(hidden, batch.negatives, params)
    per_example = nk.add(nk.softplus(nk.scale(raw_pos, -1.0)),
                         nk.sum_cols(nk.softplus(raw_neg)))
    return nk.mean_all(per_example)


def backprop(batch, params, cfg, *, rng, alpha=None):
    """Run and replay ``batch``'s loss, the one gradient pass of training and
    of the window search; returns its value. A non-finite loss raises
    ``NumericalError`` naming ``batch.split`` before any replay."""
    loss = batch_loss(batch, params, cfg, alpha=alpha, rng=rng)
    value = loss.item()
    if not math.isfinite(value):
        raise nk.NumericalError(f"{batch.split} loss became non-finite: {value}")
    nk.backward(loss)
    return value


def train_step(batch, params, cfg, train_cfg, state, *, rng, alpha=None):
    """One committed weight step: ``backprop``, then Adam on every weight
    (``alpha``, if given, stays as it is). Returns the loss value."""
    value = backprop(batch, params, cfg, rng=rng, alpha=alpha)
    adam_update(params.leaves(), state, train_cfg)
    params.item_embedding.data[PAD] = 0.0  # the padding slot stays zero
    return value


@dataclass
class FitResult:
    params: object
    trace: list
    best_epoch: int
    best_val_mrr: float
    epochs_run: int


def fit(dataset, params, model_cfg, cfg, eval_seed=0):
    """Mini-batch training with early stopping on validation MRR@cutoff.
    Returns the parameters of the best validation epoch."""
    train_examples = dataset.split_examples("train")
    if not train_examples:
        raise DataError("training split is empty")
    ss = np.random.SeedSequence(cfg.seed)
    batch_rng, dropout_rng = (np.random.default_rng(s) for s in ss.spawn(2))

    state = AdamState()
    best = {"epoch": 0, "mrr": -math.inf, "snapshot": params.copy_data()}
    stale = 0
    trace = []
    # one fixed batch plan per seed: keeps the loss trace a pure function of
    # the parameters (constant at lr=0) and pairs negatives across epochs
    batches = make_batches(dataset, train_examples, cfg.batch_size,
                           cfg.negatives_per_positive, batch_rng, "train")
    for epoch in range(1, cfg.max_epochs + 1):
        t0 = time.perf_counter()
        total = 0.0
        for batch in batches:
            value = train_step(batch, params, model_cfg, cfg, state, rng=dropout_rng)
            total += value * len(batch.targets)
        train_loss = total / len(train_examples)

        val = evaluate.evaluate_split(params, model_cfg, dataset, "val",
                                      num_negatives=cfg.eval_negatives,
                                      cutoff=cfg.eval_cutoff, seed=eval_seed)
        trace.append({
            "epoch": epoch, "train_loss": train_loss, "val_mrr10": val.mrr,
            "val_ndcg10": val.ndcg, "val_hr10": val.hr,
            "wall_ms": (time.perf_counter() - t0) * 1e3,
        })
        if val.mrr > best["mrr"]:
            best = {"epoch": epoch, "mrr": val.mrr, "snapshot": params.copy_data()}
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break

    params.load_data(best["snapshot"])
    return FitResult(params, trace, best["epoch"], best["mrr"], len(trace))


def write_trace(path, records):
    """Line-delimited JSON, one record per epoch."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
