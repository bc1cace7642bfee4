"""Leave-one-out ranking evaluation with popularity-sampled negatives."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import numkit as nk
from .data import DataError, PopularityDist, sample_negatives
from .model import forward_hidden, score_items


@dataclass
class RankingMetrics:
    hr: float
    ndcg: float
    mrr: float
    n: int
    count: int

    def record(self, split, seed):
        return {"split": split, "n": self.n, "hr": self.hr, "ndcg": self.ndcg,
                "mrr": self.mrr, "count": self.count, "seed": seed}


def rank_of_target(scores, target_position):
    """1-based rank of one candidate; ties rank it after every tied rival.

    Given a B×C matrix, ranks the candidate at ``target_position`` in every
    row at once and returns the B ranks. A NaN target score ranks 0.
    """
    scores = np.asarray(scores, dtype=np.float64)
    rows = scores if scores.ndim == 2 else scores.reshape(1, -1)
    if not 0 <= target_position < rows.shape[1]:
        raise ValueError(
            f"target position {target_position} outside 0..{rows.shape[1] - 1}")
    t = rows[:, target_position, None]
    ranks = (rows > t).sum(axis=1) + (rows == t).sum(axis=1)
    return ranks if scores.ndim == 2 else int(ranks[0])


def metrics_at_n(ranks, n):
    """HR/NDCG/MRR at cutoff ``n`` averaged over 1-based ranks."""
    ranks = list(ranks)
    if not ranks:
        raise ValueError("metrics_at_n: empty rank list")
    if any(r < 1 for r in ranks):
        raise ValueError("ranks must be >= 1")
    hr = ndcg = mrr = 0.0
    for r in ranks:
        if r <= n:
            hr += 1.0
            ndcg += 1.0 / np.log2(r + 1.0)
            mrr += 1.0 / r
    count = len(ranks)
    # np.log2 and numpy ranks yield numpy scalars; records hold plain floats
    return RankingMetrics(hr / count, float(ndcg / count), float(mrr / count), n, count)


# per-split tags of the example seed; hashed once, here, not per example
_SPLIT_TAGS = {split: int(hashlib.sha256(split.encode()).hexdigest()[:8], 16)
               for split in ("train", "val", "test")}


def example_rng(seed, user, split):
    """Per-example generator fixed by (seed, user, split): parallel or
    repeated evaluation order can never change the drawn negatives."""
    return np.random.default_rng(np.random.SeedSequence((seed, user, _SPLIT_TAGS[split])))


def evaluate_split(params, cfg, dataset, split, num_negatives=100, cutoff=10,
                   seed=0, batch_size=256):
    """Rank each example's target against popularity-sampled negatives.

    Negatives exclude the user's own interacted items and are redrawn
    identically for a given (seed, user, split), so per-epoch validation
    comparisons are paired. A non-finite score raises ``NumericalError``.
    """
    examples = dataset.split_examples(split)
    if not examples:
        raise DataError(f"split {split!r} has no examples")
    dist = PopularityDist(dataset.item_counts)

    # constant leaves over the live arrays: no op records a node
    frozen = params.with_data({name: leaf.data for name, leaf in params.leaves()},
                              requires_grad=False)
    ranks = []
    for start in range(0, len(examples), batch_size):
        chunk = examples[start:start + batch_size]
        cands = np.empty((len(chunk), 1 + num_negatives), dtype=np.intp)
        cands[:, 0] = chunk.targets
        cands[:, 1:] = sample_negatives(
            dist, dataset.history_mask(chunk.users), num_negatives,
            [example_rng(seed, u, split) for u in chunk.users.tolist()])
        hidden = forward_hidden(chunk.inputs(), frozen, cfg)
        raw = score_items(hidden, cands, frozen)
        if not np.isfinite(raw.data).all():
            raise nk.NumericalError(f"non-finite ranking score on split {split!r}")
        ranks.extend(rank_of_target(raw.data, 0).tolist())
    return metrics_at_n(ranks, cutoff)
