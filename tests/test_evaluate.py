"""Ranking metric oracles and evaluation protocol tests."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixrec import data as d
from mixrec import evaluate as ev
from mixrec import model as m
from mixrec import train as tr


class TestRankOfTarget:
    def test_unique_max_ranks_first(self):
        assert ev.rank_of_target([0.2, 0.9, 0.1], 1) == 1

    def test_pessimistic_ties(self):
        assert ev.rank_of_target([0.5, 0.5, 0.5], 0) == 3

    def test_hand_count(self):
        assert ev.rank_of_target([0.1, 0.9, 0.5], 2) == 2

    def test_invalid_position(self):
        with pytest.raises(ValueError):
            ev.rank_of_target([0.1, 0.2], 5)

    def test_matrix_ranks_every_row_as_the_one_row_form_does(self):
        # integer-valued scores make ties common; a NaN target ranks 0
        rng = np.random.default_rng(7)
        scores = rng.integers(0, 4, size=(40, 9)).astype(np.float64)
        scores[5, 2] = np.nan
        for target in (0, 2, 8):
            ranks = ev.rank_of_target(scores, target)
            assert ranks.shape == (40,)
            assert ranks.tolist() == [ev.rank_of_target(row, target) for row in scores]
        assert ev.rank_of_target(scores, 2)[5] == 0
        with pytest.raises(ValueError):
            ev.rank_of_target(scores, 9)


class TestMetricsAtN:
    def test_all_first_ranks(self):
        out = ev.metrics_at_n([1, 1, 1], 10)
        assert out.hr == out.ndcg == out.mrr == 1.0

    def test_rank_three_oracle(self):
        out = ev.metrics_at_n([3], 10)
        assert out.hr == 1.0
        assert abs(out.ndcg - 0.5) <= 1e-12  # 1/log2(4)
        assert abs(out.mrr - 1.0 / 3.0) <= 1e-12
        assert type(out.hr) is type(out.ndcg) is type(out.mrr) is float

    def test_rank_past_cutoff_scores_zero(self):
        out = ev.metrics_at_n([11], 10)
        assert out.hr == out.ndcg == out.mrr == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ev.metrics_at_n([], 10)

    @given(st.lists(st.integers(1, 40), min_size=1, max_size=60),
           st.integers(1, 20))
    @settings(max_examples=100, deadline=None)
    def test_hr_dominates_ndcg_dominates_mrr(self, ranks, n):
        out = ev.metrics_at_n(ranks, n)
        assert out.hr >= out.ndcg - 1e-12
        assert out.ndcg >= out.mrr - 1e-12

    def test_matches_bruteforce_aggregation(self):
        rng = np.random.default_rng(0)
        ranks = list(rng.integers(1, 30, size=200))
        n = 10
        hr = np.mean([r <= n for r in ranks])
        ndcg = np.mean([1 / math.log2(r + 1) if r <= n else 0.0 for r in ranks])
        mrr = np.mean([1 / r if r <= n else 0.0 for r in ranks])
        out = ev.metrics_at_n(ranks, n)
        assert abs(out.hr - hr) <= 1e-12
        assert abs(out.ndcg - ndcg) <= 1e-12
        assert abs(out.mrr - mrr) <= 1e-12
        assert type(out.ndcg) is type(out.mrr) is float  # numpy ranks in, floats out


def planted_dataset(users=30, vocab=40, seed=0, max_len=6):
    log = d.synthesize_log(users, 12, vocab, 1, 0.0, np.random.default_rng(seed))
    return d.build_sequences(log, max_len=max_len)


def tiny_model(ds, **kw):
    base = dict(num_items=ds.num_items, max_len=ds.max_len, dim=8, seq_hidden=8,
                ch_hidden=8, layers=1, windows=(2,), dropout=0.0)
    base.update(kw)
    cfg = m.ModelConfig(**base)
    return cfg, m.init_params(cfg, np.random.default_rng(42))


class TestEvaluateSplit:
    def test_oracle_model_scores_perfectly(self):
        # zero the network so h = out_b = e1, then lift the lone test
        # target far above every other item along that axis
        ds = planted_dataset(users=1)
        ds.item_counts = np.maximum(ds.item_counts, 1)  # widen the negative pool
        ds.item_counts[d.PAD] = 0
        cfg, params = tiny_model(ds)
        for stack in [params.long_stack] + params.candidate_stacks:
            for layer in stack:
                for w in (layer.seq_w1, layer.seq_w2, layer.ch_w3, layer.ch_w4):
                    w.data[...] = 0.0
        params.out_w.data[...] = 0.0
        params.out_b.data[...] = 0.0
        params.out_b.data[0, 0] = 1.0
        (test_ex,) = ds.split_examples("test")
        params.item_embedding.data[test_ex.target, 0] = 1000.0
        out = ev.evaluate_split(params, cfg, ds, "test", num_negatives=10, cutoff=10, seed=0)
        assert out.hr == out.ndcg == out.mrr == 1.0

    def test_deterministic_given_seed(self):
        ds = planted_dataset()
        cfg, params = tiny_model(ds)
        a = ev.evaluate_split(params, cfg, ds, "val", num_negatives=15, cutoff=10, seed=3)
        b = ev.evaluate_split(params, cfg, ds, "val", num_negatives=15, cutoff=10, seed=3)
        assert (a.hr, a.ndcg, a.mrr, a.count) == (b.hr, b.ndcg, b.mrr, b.count)

    def test_batch_boundaries_do_not_change_results(self):
        ds = planted_dataset()
        cfg, params = tiny_model(ds)
        a = ev.evaluate_split(params, cfg, ds, "val", num_negatives=15, seed=3, batch_size=7)
        b = ev.evaluate_split(params, cfg, ds, "val", num_negatives=15, seed=3, batch_size=256)
        assert (a.hr, a.ndcg, a.mrr) == (b.hr, b.ndcg, b.mrr)

    def test_does_not_mutate_parameters(self):
        ds = planted_dataset()
        cfg, params = tiny_model(ds)
        digest_before = hashlib.sha256(
            b"".join(leaf.data.tobytes() for _, leaf in params.leaves())).hexdigest()
        ev.evaluate_split(params, cfg, ds, "test", num_negatives=10, seed=0)
        digest_after = hashlib.sha256(
            b"".join(leaf.data.tobytes() for _, leaf in params.leaves())).hexdigest()
        assert digest_before == digest_after

    def test_ranks_invariant_under_monotone_score_transforms(self):
        # the softmax applied for inference never reorders candidates, nor
        # does any strictly increasing transform
        rng = np.random.default_rng(4)
        for _ in range(50):
            scores = rng.normal(size=12)
            target = int(rng.integers(12))
            base = ev.rank_of_target(scores, target)
            probs = np.exp(scores - scores.max())
            probs /= probs.sum()
            assert ev.rank_of_target(probs, target) == base
            assert ev.rank_of_target(3.0 * scores + 7.0, target) == base
            assert ev.rank_of_target(np.tanh(scores), target) == base

    def test_empty_split_rejected(self):
        ds = planted_dataset()
        ds.examples = ds.examples[ds.examples.splits != d.SPLITS.index("test")]
        cfg, params = tiny_model(ds)
        with pytest.raises(d.DataError):
            ev.evaluate_split(params, cfg, ds, "test", num_negatives=5, seed=0)

    def test_slices_pool_to_the_whole_split(self, monkeypatch):
        # the benchmark's eval_ml1m ranks the val split in 768-example slices
        # of replace(ds, examples=...) and pools them, weighted by count
        ds = planted_dataset(users=1700)
        cfg, params = tiny_model(ds)
        seen = []
        metrics_at_n = ev.metrics_at_n
        monkeypatch.setattr(ev, "metrics_at_n",
                            lambda ranks, n: seen.append(list(ranks)) or metrics_at_n(ranks, n))
        whole = ev.evaluate_split(params, cfg, ds, "val", num_negatives=10, seed=4)
        val = ds.split_examples("val")
        sums, count = [0.0, 0.0, 0.0], 0
        for i in range(0, len(val), 768):
            part = ev.evaluate_split(params, cfg, replace(ds, examples=val[i:i + 768]), "val",
                                     num_negatives=10, seed=4)
            count += part.count
            for k, v in enumerate((part.hr, part.ndcg, part.mrr)):
                sums[k] += v * part.count
        assert len(seen) == 4 and [len(r) for r in seen[1:]] == [768, 768, 164]
        assert sum(seen[1:], []) == seen[0]  # every example ranks the same
        assert count == whole.count == 1700
        pooled = [v / count for v in sums]
        assert pooled == pytest.approx([whole.hr, whole.ndcg, whole.mrr], rel=1e-12, abs=0)


class TestMakeBatches:
    def test_pinned_first_batch(self):
        # recorded from the list-of-Example implementation: the table must
        # give the same shuffle, inputs, targets and negatives
        ds = planted_dataset()
        batches = tr.make_batches(ds, ds.split_examples("train"), 5, 2,
                                  d.PopularityDist(ds.item_counts),
                                  np.random.default_rng(22), "train")
        assert len(batches) == 54
        first = batches[0]
        assert first.inputs.dtype == first.targets.dtype == np.intp
        assert first.inputs.tolist() == [[31, 23, 7, 15, 31, 23], [0, 13, 27, 15, 31, 23],
                                         [0, 0, 0, 0, 0, 30], [0, 0, 0, 0, 0, 39],
                                         [11, 23, 7, 15, 31, 23]]
        assert first.targets.tolist() == [7, 7, 21, 39, 7]
        assert first.negatives.tolist() == [[8, 17], [3, 22], [5, 26], [31, 5], [39, 3]]
        assert first.split == "train"
