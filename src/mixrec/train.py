"""Loss, Adam, mini-batch training with early stopping on validation MRR."""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from . import evaluate, numkit as nk
from .data import PAD, DataError, PopularityDist, SamplingError
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
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError(f"betas must lie in [0, 1), got {self.beta1}, {self.beta2}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")


class AdamState:
    """First/second-moment accumulators keyed by parameter name."""

    def __init__(self):
        self.m = {}
        self.v = {}
        self.t = 0


def adam_update(named_params, grads, state, cfg):
    """One Adam step with bias correction over (name, tensor) pairs."""
    state.t += 1
    b1, b2 = cfg.beta1, cfg.beta2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for name, p in named_params:
        g = grads[name]
        if g.shape != p.data.shape:
            raise nk.ShapeError(
                f"adam_update {name}: grad {g.shape} vs param {p.data.shape}")
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


def freeze_padding_rows(params):
    """Row 0 of the item embedding is the padding slot and stays zero."""
    params.item_embedding.data[PAD] = 0.0


@dataclass
class Batch:
    inputs: np.ndarray     # (B, T) item indices
    targets: np.ndarray    # (B,)
    negatives: np.ndarray  # (B, n_neg)
    split: str


def sample_training_negatives(dist, user_sets, n_neg, rng, max_rounds=200):
    """Popularity-weighted negatives per example, excluding each user's items.

    Draws with replacement across examples (training only); redraws entries
    colliding with the owner's history until clean.
    """
    n = len(user_sets)
    draws = np.searchsorted(dist.cumulative, rng.random((n, n_neg)), side="right")
    for _ in range(max_rounds):
        bad = np.array([[item in user_sets[i] for item in row] for i, row in enumerate(draws)])
        hits = int(bad.sum())
        if hits == 0:
            return draws
        draws[bad] = np.searchsorted(dist.cumulative, rng.random(hits), side="right")
    raise SamplingError("could not draw training negatives outside user histories")


def make_batches(dataset, examples, batch_size, n_neg, dist, rng, split):
    """Shuffle an example table and pack it with freshly drawn negatives."""
    order = rng.permutation(len(examples))
    batches = []
    for start in range(0, len(order), batch_size):
        chunk = examples[order[start:start + batch_size]]
        user_sets = [dataset.user_items(user) for user in chunk.users.tolist()]
        negatives = sample_training_negatives(dist, user_sets, n_neg, rng)
        batches.append(Batch(chunk.inputs(), chunk.targets, negatives, split))
    return batches


def batch_loss(batch, params, cfg, arch=None, train_mode=True, rng=None):
    """Mean cross-entropy over the batch: positive target vs drawn negatives."""
    hidden = forward_hidden(batch.inputs, params, cfg, arch=arch,
                            train_mode=train_mode, rng=rng)
    raw_pos = score_items(hidden, batch.targets[:, None], params)
    raw_neg = score_items(hidden, batch.negatives, params)
    per_example = nk.add(nk.softplus(nk.scale(raw_pos, -1.0)),
                         nk.sum_cols(nk.softplus(raw_neg)))
    return nk.mean_all(per_example)


@dataclass
class FitResult:
    params: object
    trace: list
    best_epoch: int
    best_val_mrr: float
    epochs_run: int


def fit(dataset, params, model_cfg, cfg, arch=None, eval_seed=0):
    """Mini-batch training with early stopping on validation MRR@cutoff.

    ``arch=None`` trains the single-window (retrained) model; passing
    architecture weights trains through the frozen candidate blend.
    Returns the parameters of the best validation epoch.
    """
    train_examples = dataset.split_examples("train")
    if not train_examples:
        raise DataError("training split is empty")
    dist = PopularityDist(dataset.item_counts)
    ss = np.random.SeedSequence(cfg.seed)
    batch_rng, dropout_rng = (np.random.default_rng(s) for s in ss.spawn(2))

    leaves = params.leaves()
    state = AdamState()
    best = {"epoch": 0, "mrr": -math.inf, "snapshot": params.copy_data()}
    stale = 0
    trace = []
    epochs_run = 0
    # one fixed batch plan per seed: keeps the loss trace a pure function of
    # the parameters (constant at lr=0) and pairs negatives across epochs
    batches = make_batches(dataset, train_examples, cfg.batch_size,
                           cfg.negatives_per_positive, dist, batch_rng, "train")
    for epoch in range(1, cfg.max_epochs + 1):
        epochs_run = epoch
        t0 = time.perf_counter()
        total = 0.0
        for batch in batches:
            loss = batch_loss(batch, params, model_cfg, arch=arch,
                              train_mode=True, rng=dropout_rng)
            value = loss.item()
            if not math.isfinite(value):
                raise nk.NumericalError(f"training loss became non-finite at epoch {epoch}")
            total += value * len(batch.targets)
            for _, leaf in leaves:
                leaf.zero_grad()
            nk.backward(loss)
            adam_update(leaves, {n: l.grad for n, l in leaves}, state, cfg)
            freeze_padding_rows(params)
        train_loss = total / len(train_examples)

        val = evaluate.evaluate_split(params, model_cfg, dataset, "val",
                                      num_negatives=cfg.eval_negatives,
                                      cutoff=cfg.eval_cutoff, seed=eval_seed, arch=arch)
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
    return FitResult(params, trace, best["epoch"], best["mrr"], epochs_run)


def write_trace(path, records):
    """Line-delimited JSON, one record per epoch."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
