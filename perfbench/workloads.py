"""The benchmark's workloads: inputs made from a seed, one unit of work
through a public mixrec entry point, and the checks on its output.

Each workload object has
  ``entry``        the span name of the public entry point a unit calls;
  ``recorded``     whether each unit's output is compared with the output
                   recorded for its seed in reference.json;
  ``setup_repeats`` set-ups per run, whose median is ``setup_s``: more
                   where one set-up is short;
  ``warmup_units`` untimed units run before the timed ones;
  ``setup(seed)``  generate and build the dataset and initialise parameters;
                   this is what ``setup_s`` times;
  ``reset(state)`` undo what the previous unit changed (untimed);
  ``run(state)``   one unit of work; returns a ``Unit``;
  ``check(record, reference)`` the problems found in one unit's output.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from mixrec import data, evaluate, model, search, train

ML1M_USERS = 6040
ML1M_ITEMS = 3706


@dataclass
class Unit:
    examples: int   # examples fitted, consumed or ranked
    items: int      # work items: training steps, search iterations or ranked examples
    record: list    # the output that ``check`` compares against a reference
    # (examples, seconds) of each part timed inside the unit, one sample
    # each; None makes the whole unit one sample
    parts: list = None


def seed_streams(seed, n):
    """``n`` independent integer seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def zipf_log(lengths, vocab, exponent, rng):
    """An interaction log with one user per entry of ``lengths``.

    Each user interacts with distinct items, drawn with probability
    proportional to ``rank ** -exponent`` over a random popularity order of
    the ``vocab`` items. Every item of the vocabulary is indexed, seen or not.
    """
    weights = np.arange(1, vocab + 1, dtype=np.float64) ** -exponent
    probs = weights / weights.sum()
    by_rank = rng.permutation(vocab) + 1
    events = []
    for u, n in enumerate(lengths, start=1):
        picks = by_rank[rng.choice(vocab, size=int(n), replace=False, p=probs)]
        events.extend((f"u{u}", str(i), t, None) for t, i in enumerate(picks.tolist(), start=1))
    users = [None] + [f"u{u}" for u in range(1, len(lengths) + 1)]
    items = [None] + [str(i) for i in range(1, vocab + 1)]
    return data.InteractionLog(
        events, {u: k for k, u in enumerate(users) if u is not None},
        {i: k for k, i in enumerate(items) if i is not None}, users, items)


def ml1m_lengths(rng, users=ML1M_USERS):
    """Heavy-tailed per-user history lengths of at least 20, capped at 2,314
    (MovieLens-1M: minimum 20, median about 96, maximum 2,314)."""
    tail = np.floor(rng.lognormal(mean=math.log(70.0), sigma=1.1, size=users))
    return np.minimum(20 + tail.astype(np.int64), 2314)


def _close(a, b, rel):
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


def _compare(record, reference, rel):
    if reference is None:
        return []
    if len(record) != len(reference):
        return [f"output has {len(record)} entries, reference has {len(reference)}"]
    return [f"entry {i}: {a!r} differs from reference {b!r}"
            for i, (a, b) in enumerate(zip(record, reference)) if not _close(a, b, rel)]


def _nonfinite(values, what):
    return [f"{what} is not finite: {values!r}"] if not all(map(math.isfinite, values)) else []


class TrainPaper:
    """``train.fit`` on the paper-default model (D=128, hidden 512, 4 layers,
    T=50, k=4, dropout 0.5, exact GELU; batch 32, lr 1e-3)."""

    name = "train_paper"
    entry = "train.fit"
    recorded = True
    setup_repeats = 25
    # the first fit touches its 1.7 GB of tensors for the first time and
    # runs about 10% slower than the rest
    warmup_units = 1
    # 20 users of 6 events give 60 train examples: two steps of B=32 per
    # epoch, so one fit of two epochs takes a few seconds and a run holds
    # several; the second epoch repeats the first epoch's val draws
    users, length, epochs = 20, 6, 2
    rel_tol = 1e-6

    def setup(self, seed):
        gen, init, fit_seed, eval_seed = seed_streams(seed, 4)
        log = zipf_log([self.length] * self.users, ML1M_ITEMS, 0.0,
                       np.random.default_rng(gen))
        dataset = data.build_sequences(log, max_len=50)
        cfg = model.ModelConfig(num_items=log.num_items, max_len=50, dim=128,
                                seq_hidden=512, ch_hidden=512, layers=4,
                                windows=(4,), dropout=0.5, activation="gelu")
        params = model.init_params(cfg, np.random.default_rng(init))
        tcfg = train.TrainConfig(learning_rate=1e-3, batch_size=32,
                                 max_epochs=self.epochs, patience=self.epochs + 1,
                                 seed=fit_seed, eval_negatives=100, eval_cutoff=10)
        return {"dataset": dataset, "cfg": cfg, "params": params, "tcfg": tcfg,
                "eval_seed": eval_seed, "initial": None,
                "n_train": len(dataset.split_examples("train"))}

    def reset(self, state):
        if state["initial"] is None:
            state["initial"] = state["params"].copy_data()
        state["params"].load_data(state["initial"])

    def run(self, state):
        result = train.fit(state["dataset"], state["params"], state["cfg"], state["tcfg"],
                           eval_seed=state["eval_seed"])
        n = state["n_train"]
        steps = math.ceil(n / state["tcfg"].batch_size)
        record = [v for rec in result.trace
                  for v in (rec["train_loss"], rec["val_mrr10"], rec["val_ndcg10"], rec["val_hr10"])]
        return Unit(n * result.epochs_run, steps * result.epochs_run, record)

    def check(self, record, reference):
        return _nonfinite(record, "loss trace") or _compare(record, reference, self.rel_tol)


class SearchDesk:
    """First-order ``search.run_search`` over K=1,2,4 on a planted log shaped
    like acceptance dataset B (D=32, hidden 64, 1 layer, dropout 0, batch 256)."""

    name = "search_desk"
    entry = "search.run_search"
    recorded = False
    setup_repeats = 9
    # one unit is a 26 s epoch, which dwarfs its first-touch costs
    warmup_units = 0
    epochs = 1

    def setup(self, seed):
        gen, fit_seed = seed_streams(seed, 2)
        log = data.synthesize_log(1000, 30, 140, 2, 0.2, np.random.default_rng(gen))
        dataset = data.build_sequences(log, max_len=8)
        cfg = model.ModelConfig(num_items=log.num_items, max_len=8, dim=32,
                                seq_hidden=64, ch_hidden=64, layers=1,
                                windows=(1, 2, 4), dropout=0.0)
        scfg = search.SearchConfig(
            windows=(1, 2, 4), arch_lr=3e-3, mode="first_order",
            train=train.TrainConfig(learning_rate=3e-3, batch_size=256,
                                    max_epochs=self.epochs, patience=self.epochs + 1,
                                    seed=fit_seed))
        return {"dataset": dataset, "cfg": cfg, "scfg": scfg,
                "n_train": len(dataset.split_examples("train"))}

    def reset(self, state):
        pass  # run_search initialises its own parameters from the config seed

    def run(self, state):
        result, _ = search.run_search(state["dataset"], state["cfg"], state["scfg"])
        n = state["n_train"]
        batches = math.ceil(n / state["scfg"].train.batch_size)
        iterations = len(range(0, max(batches - 1, 1), 2))
        record = list(result.alpha) + [rec["val_loss"] for rec in result.trace]
        return Unit(n * result.epochs_run, iterations * result.epochs_run, record)

    def check(self, record, reference):
        return _nonfinite(record, "alpha or validation loss")


class EvalMl1m:
    """``evaluate.evaluate_split`` over the val split of a MovieLens-1M-shaped
    log (6,040 users, 3,706 items, Zipf popularity, T=50; D=32, hidden 64,
    1 layer), 100 sampled negatives, cutoff 10.

    One unit is one pass over the val split, made as one ``evaluate_split``
    call per slice of ``slice_examples`` consecutive examples, each timed as
    a sample, so that a run holds about thirty samples rather than three.
    A slice is three of ``evaluate_split``'s 256-example batches, so every
    batch, and so every score, is the one a whole-split call makes; the
    negatives depend only on (seed, user, split). The pass's metrics, pooled
    over the slices, are checked against the whole-split recording."""

    name = "eval_ml1m"
    entry = "evaluate.evaluate_split"
    recorded = True
    setup_repeats = 3
    warmup_units = 0
    slice_examples = 3 * 256

    def setup(self, seed):
        gen, init, eval_seed = seed_streams(seed, 3)
        rng = np.random.default_rng(gen)
        log = zipf_log(ml1m_lengths(rng), ML1M_ITEMS, 1.0, rng)
        dataset = data.build_sequences(log, max_len=50)
        cfg = model.ModelConfig(num_items=log.num_items, max_len=50, dim=32,
                                seq_hidden=64, ch_hidden=64, layers=1,
                                windows=(4,), dropout=0.5)
        params = model.init_params(cfg, np.random.default_rng(init))
        return {"dataset": dataset, "cfg": cfg, "params": params, "eval_seed": eval_seed}

    def reset(self, state):
        # evaluation changes no state; the slices are made once, untimed
        if "slices" not in state:
            val, n = state["dataset"].split_examples("val"), self.slice_examples
            state["slices"] = [replace(state["dataset"], examples=val[i:i + n])
                               for i in range(0, len(val), n)]

    def run(self, state):
        parts, sums = [], [0.0, 0.0, 0.0]
        for part in state["slices"]:
            t0 = time.perf_counter()
            m = evaluate.evaluate_split(state["params"], state["cfg"], part, "val",
                                        num_negatives=100, cutoff=10, seed=state["eval_seed"])
            parts.append((m.count, time.perf_counter() - t0))
            for k, v in enumerate((m.hr, m.ndcg, m.mrr)):
                sums[k] += v * m.count
        count = sum(n for n, _ in parts)
        return Unit(count, count, [v / count for v in sums] + [float(count)], parts)

    def check(self, record, reference):
        return _nonfinite(record, "ranking metrics") or _compare(record, reference, 1e-12)


WORKLOADS = {w.name: w for w in (TrainPaper(), SearchDesk(), EvalMl1m())}
