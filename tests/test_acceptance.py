"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The planted-data experiments are seeded batches; model and budget
choices are desk-scale.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from mixrec import cli
from mixrec import data as d
from mixrec import evaluate as ev
from mixrec import model as m
from mixrec import numkit as nk
from mixrec import search as se
from mixrec import train as tr

# --- desk-scale experiment configurations -----------------------------------

# planted dataset A: the pinned search-recovery setting
PLANTED_A = dict(users=200, seq_len=30, vocab=50, k_star=2, noise=0.0, gen_seed=0)
A_MODEL = dict(dim=16, seq_hidden=16, ch_hidden=16, layers=1, dropout=0.5)
A_MAX_LEN = 8
A_TRAIN = dict(learning_rate=5e-3, batch_size=128, eval_negatives=20)
A_SEARCH_EPOCHS = 20
A_ORACLE_EPOCHS = 10
A_ARCH_LR = 3e-3

# planted dataset B: large enough vocabulary for the 100-negative protocol
PLANTED_B = dict(users=1000, seq_len=30, vocab=140, k_star=2, noise=0.0, gen_seed=42)
B_MAX_LEN = 8
B_MODEL = dict(dim=32, seq_hidden=64, ch_hidden=64, layers=1, dropout=0.0)
B_TRAIN = dict(learning_rate=3e-3, batch_size=256, eval_negatives=100,
               max_epochs=22, patience=25)

# ablation setting (criterion 8)
ABL_MODEL = dict(dim=16, seq_hidden=16, ch_hidden=16, layers=1, dropout=0.0)
ABL_MAX_LEN = 8
ABL_TRAIN = dict(learning_rate=5e-3, batch_size=128, max_epochs=8, patience=10,
                 eval_negatives=20)


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def make_planted(gen, max_len):
    log = d.synthesize_log(gen["users"], gen["seq_len"], gen["vocab"],
                           gen["k_star"], gen["noise"],
                           np.random.default_rng(gen["gen_seed"]))
    return d.build_sequences(log, max_len=max_len)


@pytest.fixture(scope="module")
def planted_a():
    return make_planted(PLANTED_A, A_MAX_LEN)


@pytest.fixture(scope="module")
def planted_b():
    return make_planted(PLANTED_B, B_MAX_LEN)


@pytest.fixture(scope="module")
def planted_abl():
    return make_planted(PLANTED_A, ABL_MAX_LEN)


def a_model_cfg(windows, max_len=A_MAX_LEN, **overrides):
    kw = dict(A_MODEL, **overrides)
    return m.ModelConfig(num_items=PLANTED_A["vocab"], max_len=max_len,
                         windows=windows, **kw)


class TestCriterion1GradientCorrectness:
    def test_full_model_gradients_match_finite_differences(self):
        t0 = time.perf_counter()
        cfg = m.ModelConfig(num_items=12, max_len=6, dim=8, seq_hidden=8,
                            ch_hidden=8, layers=1, windows=(2, 3), dropout=0.0)
        rng = np.random.default_rng(0)
        params = m.init_params(cfg, rng)
        alpha = m.init_arch(cfg)
        alpha.data[...] = [[0.3, -0.2]]
        inputs = np.array([[0, 1, 2, 3, 4, 5], [6, 7, 8, 9, 10, 11],
                           [0, 0, 12, 1, 7, 3]])
        pos = np.array([[6], [2], [9]])
        neg = np.array([[10, 4], [11, 8], [5, 1]])

        def loss():
            h = m.forward_hidden(inputs, params, cfg, alpha)
            rp = m.score_items(h, pos, params)
            rn = m.score_items(h, neg, params)
            return nk.mean_all(nk.add(nk.softplus(nk.scale(rp, -1.0)),
                                      nk.sum_cols(nk.softplus(rn))))

        leaves = [leaf for _, leaf in params.leaves()] + [alpha]
        err = nk.grad_check(loss, leaves, h=1e-6)
        elapsed = time.perf_counter() - t0
        ok = err <= 1e-4 and elapsed < 60.0
        assert report(1, ok, f"max rel err {err:.3e} (tol 1e-4), {elapsed:.1f}s (< 60s)")


class TestCriterion2IdentityInvariants:
    def test_identities_and_softmax_properties(self):
        cfg = m.ModelConfig(num_items=20, max_len=6, dim=8, seq_hidden=8,
                            ch_hidden=8, layers=2, windows=(2, 3), dropout=0.0)
        rng = np.random.default_rng(1)
        params = m.init_params(cfg, rng)
        for stack in [params.long_stack] + params.candidate_stacks:
            for layer in stack:
                for w in (layer.seq_w1, layer.seq_w2, layer.ch_w3, layer.ch_w4):
                    w.data[...] = 0.0
        x = nk.Tensor2(rng.normal(size=(cfg.max_len, cfg.dim)))
        stack_identity = np.array_equal(
            m.stack_forward(x, params.long_stack, cfg, blocks=1).data, x.data)

        params.out_w.data[...] = 0.0
        params.out_b.data[...] = rng.normal(size=(1, cfg.dim))
        h = m.fuse_output(nk.Tensor2(rng.normal(size=(1, cfg.dim))),
                          nk.Tensor2(rng.normal(size=(1, cfg.dim))), params)
        bias_identity = np.array_equal(h.data, params.out_b.data)

        v = rng.normal(size=(1, 9)) * 40
        p = nk.softmax(nk.Tensor2(v)).data
        soft_sum = abs(p.sum() - 1.0) <= 1e-12
        shifted = nk.softmax(nk.Tensor2(v + 123.456)).data
        soft_shift = np.abs(p - shifted).max() <= 1e-12
        soft_argmax = int(np.argmax(p)) == int(np.argmax(v))

        ok = all([stack_identity, bias_identity, soft_sum, soft_shift, soft_argmax])
        assert report(2, ok, "zero-weight stack identity, W^o=0 bias passthrough, "
                             "softmax sum/shift/argmax all hold")


@pytest.fixture(scope="module")
def recovery_runs(planted_a):
    """10-seed search + oracle batch on the pinned planted dataset."""
    t0 = time.perf_counter()
    searches, oracles = [], []
    for seed in range(10):
        train_cfg = tr.TrainConfig(max_epochs=A_SEARCH_EPOCHS, patience=50,
                                   seed=seed, **A_TRAIN)
        scfg = se.SearchConfig(windows=(1, 2, 4), arch_lr=A_ARCH_LR, train=train_cfg)
        result, _ = se.run_search(planted_a, a_model_cfg((1, 2, 4)), scfg)
        searches.append(result.selected_k)

        oracle_cfg = se.SearchConfig(
            windows=(1, 2, 4),
            train=tr.TrainConfig(max_epochs=A_ORACLE_EPOCHS, patience=50,
                                 seed=seed, **A_TRAIN))
        oracle = se.exhaustive_oracle(planted_a, a_model_cfg((1, 2, 4)), oracle_cfg)
        oracles.append(oracle.best_k)
    return searches, oracles, time.perf_counter() - t0


@pytest.mark.slow
class TestCriterion3PlantedRecovery:
    def test_search_recovers_planted_window(self, recovery_runs):
        searches, oracles, elapsed = recovery_runs
        hits = searches.count(2)
        oracle_hits = oracles.count(2)
        agree = sum(s == o for s, o in zip(searches, oracles))
        ok = (hits >= 7 and oracle_hits >= 7 and agree >= 7 and elapsed < 900.0)
        assert report(3, ok,
                      f"search picked k=2 in {hits}/10 {searches}, oracle in "
                      f"{oracle_hits}/10 {oracles}, agreement {agree}/10, "
                      f"{elapsed:.0f}s (< 900s)")


@pytest.mark.slow
class TestSupplementaryNoisyRecovery:
    """Not a numbered criterion: demonstrates that the planted window is
    recovered once it is statistically identifiable. At noise 0 the chain is
    deterministic, so any consecutive pair predicts the target and wider
    windows are not worse; with noise, extra positions carry corrupted
    content and the minimal sufficient window genuinely wins."""

    def test_noise_makes_the_planted_window_identifiable(self):
        log = d.synthesize_log(200, 30, 50, 2, 0.2, np.random.default_rng(0))
        ds = d.build_sequences(log, max_len=8)
        oracle_picks, search_picks = [], []
        for seed in range(5):
            cfg = m.ModelConfig(num_items=50, max_len=8, dim=16, seq_hidden=16,
                                ch_hidden=16, layers=1, windows=(1, 2, 4),
                                dropout=0.0)
            ocfg = se.SearchConfig(
                windows=(1, 2, 4),
                train=tr.TrainConfig(learning_rate=5e-3, batch_size=128,
                                     max_epochs=8, patience=50, seed=seed,
                                     eval_negatives=20))
            oracle_picks.append(se.exhaustive_oracle(ds, cfg, ocfg).best_k)

            drop_cfg = m.ModelConfig(num_items=50, max_len=8, dim=16,
                                     seq_hidden=16, ch_hidden=16, layers=1,
                                     windows=(1, 2, 4), dropout=0.2)
            scfg = se.SearchConfig(
                windows=(1, 2, 4), arch_lr=3e-3,
                train=tr.TrainConfig(learning_rate=5e-3, batch_size=128,
                                     max_epochs=25, patience=50, seed=seed,
                                     eval_negatives=20))
            result, _ = se.run_search(ds, drop_cfg, scfg)
            search_picks.append(result.selected_k)
        ok = oracle_picks.count(2) >= 4 and search_picks.count(2) >= 3
        assert report("3-supplementary", ok,
                      f"noise 0.2: oracle picked k=2 in {oracle_picks.count(2)}/5 "
                      f"{oracle_picks}, search in {search_picks.count(2)}/5 "
                      f"{search_picks}")


@pytest.mark.slow
class TestCriterion4SearchEfficiencyShape:
    def test_oracle_scales_linearly_search_sublinearly(self):
        log = d.synthesize_log(100, 20, 50, 2, 0.0, np.random.default_rng(5))
        ds = d.build_sequences(log, max_len=128)
        window_sets = [(1, 2), (1, 2, 3, 4), (1, 2, 3, 4, 5, 6, 7, 8)]

        def configs(windows):
            cfg = m.ModelConfig(num_items=50, max_len=128, dim=32, seq_hidden=32,
                                ch_hidden=32, layers=1, windows=windows, dropout=0.0)
            train_cfg = tr.TrainConfig(learning_rate=1e-3, batch_size=128,
                                       max_epochs=1, patience=50, seed=0,
                                       eval_negatives=10)
            return cfg, se.SearchConfig(windows=windows, train=train_cfg)

        # untimed warm-up at the |K|=2 shape: the first fit in a process at
        # this shape runs far slower than the rest and would bend the slope
        cfg, scfg = configs(window_sets[0])
        se.exhaustive_oracle(ds, cfg, scfg)
        se.run_search(ds, cfg, scfg)
        oracle_times, search_times = [], []
        for windows in window_sets:
            cfg, scfg = configs(windows)
            t0 = time.perf_counter()
            se.exhaustive_oracle(ds, cfg, scfg)
            oracle_times.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            se.run_search(ds, cfg, scfg)
            search_times.append(time.perf_counter() - t0)
        sizes = [len(w) for w in window_sets]
        oracle_slope = cli.fit_power_law(sizes, oracle_times)
        search_slope = cli.fit_power_law(sizes, search_times)
        ok = oracle_slope >= 0.8 and search_slope <= 0.5
        assert report(4, ok,
                      f"log-log slope vs |K|: exhaustive {oracle_slope:.2f} (>= 0.8), "
                      f"search {search_slope:.2f} (<= 0.5); "
                      f"times {[round(t, 2) for t in oracle_times]} vs "
                      f"{[round(t, 2) for t in search_times]}")


class TestCriterion5ComplexityScaling:
    def test_forward_time_near_linear_in_length(self):
        lens = (64, 128, 256, 512)
        cfg = dict(cli.DEFAULTS, dim=32, seq_hidden=32, ch_hidden=32, layers=1,
                   dropout=0.0)
        records = cli.forward_wall_times(lens, cfg, reps=50, seed=0)
        exponent = cli.fit_power_law([r["T"] for r in records],
                                     [r["median_ms"] for r in records])
        ok = exponent <= 1.5
        assert report(5, ok,
                      f"power-law exponent {exponent:.2f} (<= 1.5) over T={lens}, "
                      f"medians {[round(r['median_ms'], 3) for r in records]} ms")


class TestCriterion6MetricOracles:
    def test_hand_values_and_null_distribution(self, planted_b):
        hand = ev.metrics_at_n([3], 10)
        hand_ok = (hand.hr == 1.0 and abs(hand.ndcg - 0.5) <= 1e-12
                   and abs(hand.mrr - 1.0 / 3.0) <= 1e-12)

        cfg = m.ModelConfig(num_items=PLANTED_B["vocab"], max_len=B_MAX_LEN,
                            windows=(2,), **B_MODEL)
        params = m.init_params(cfg, np.random.default_rng(123))
        null = ev.evaluate_split(params, cfg, planted_b, "test",
                                 num_negatives=100, cutoff=10, seed=9)
        null_ok = 0.05 <= null.hr <= 0.15 and null.count >= 500
        ok = hand_ok and null_ok
        assert report(6, ok,
                      f"rank-3 oracle NDCG=0.5 MRR=1/3 ok={hand_ok}; untrained "
                      f"HR@10={null.hr:.4f} in [0.05, 0.15] over {null.count} examples")


@pytest.fixture(scope="module")
def trained_b(planted_b):
    cfg = m.ModelConfig(num_items=PLANTED_B["vocab"], max_len=B_MAX_LEN,
                        windows=(2,), **B_MODEL)
    params = m.init_params(cfg, np.random.default_rng(1))
    result = tr.fit(planted_b, params, cfg, tr.TrainConfig(seed=1, **B_TRAIN))
    return cfg, params, result


@pytest.mark.slow
class TestCriterion7LearningSignal:
    def test_trained_model_beats_null_five_fold(self, planted_b, trained_b):
        cfg, params, result = trained_b
        untrained = m.init_params(cfg, np.random.default_rng(123))
        null = ev.evaluate_split(untrained, cfg, planted_b, "test",
                                 num_negatives=100, cutoff=10, seed=9)
        test = ev.evaluate_split(params, cfg, planted_b, "test",
                                 num_negatives=100, cutoff=10, seed=9)
        ratio = test.hr / max(null.hr, 1e-9)
        losses = [rec["train_loss"] for rec in result.trace]
        window = 5
        moving = [np.mean(losses[i - window:i])
                  for i in range(window, min(len(losses), 20) + 1)]
        decreasing = all(b < a for a, b in zip(moving, moving[1:]))
        ok = ratio >= 5.0 and decreasing and len(losses) >= 20
        assert report(7, ok,
                      f"trained HR@10={test.hr:.3f} vs null {null.hr:.3f} "
                      f"({ratio:.1f}x >= 5x); 5-epoch moving-average loss strictly "
                      f"decreasing over first 20 epochs: {decreasing}")


@pytest.fixture(scope="module")
def ablation_runs(planted_abl):
    variants = {
        "full": {},
        "no_seq": {"disable_sequence_mixer": True},
        "no_ch": {"disable_channel_mixer": True},
    }
    results = {name: [] for name in variants}
    for seed in range(10):
        for name, flags in variants.items():
            kw = dict(ABL_MODEL, **flags)
            cfg = m.ModelConfig(num_items=PLANTED_A["vocab"], max_len=ABL_MAX_LEN,
                                windows=(2,), **kw)
            params = m.init_params(cfg, np.random.default_rng(seed))
            tr.fit(planted_abl, params, cfg, tr.TrainConfig(seed=seed, **ABL_TRAIN))
            test = ev.evaluate_split(params, cfg, planted_abl, "test",
                                     num_negatives=20, cutoff=10, seed=77)
            results[name].append(test.hr)
    return results


@pytest.mark.slow
class TestCriterion8AblationDirection:
    def test_sequence_mixer_matters_most(self, ablation_runs):
        full = np.array(ablation_runs["full"])
        no_seq = np.array(ablation_runs["no_seq"])
        no_ch = np.array(ablation_runs["no_ch"])
        seq_wins = int((no_seq < full).sum())
        seq_drop = float(np.median(full - no_seq))
        ch_drop = float(np.median(full - no_ch))
        ok = seq_wins >= 8 and seq_drop > ch_drop
        assert report(8, ok,
                      f"sequence-mixer removal lowered test HR in {seq_wins}/10 "
                      f"seeds; median drops: seq {seq_drop:.3f} > chan {ch_drop:.3f}")


class TestCriterion9MovieLensCounts:
    def test_movielens_1m_table_counts(self):
        path = os.environ.get("MIXREC_ML1M_PATH")
        if not path or not os.path.exists(path):
            pytest.skip("MIXREC_ML1M_PATH not set; MovieLens-1M file unavailable "
                        "in this environment (criterion 9 is optional/network-"
                        "dependent)")
        logs = [d.parse_interactions(path, d.ParseFormat.movielens_1m())
                for _ in range(2)]
        counts_ok = (len(logs[0].events) == 1_000_209
                     and logs[0].num_users == 6_040)
        filtered = [d.filter_users(log, 10) for log in logs]
        stable = (len(filtered[0].events) == len(filtered[1].events)
                  and filtered[0].num_users == filtered[1].num_users)
        ok = counts_ok and stable
        assert report(9, ok,
                      f"events={len(logs[0].events)} users={logs[0].num_users}; "
                      f"min-10 filtering stable across runs: {stable}")


class TestCriterion10Determinism:
    def strip_wall(self, path):
        out = []
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            rec.pop("wall_ms", None)
            out.append(json.dumps(rec, sort_keys=True))
        return "\n".join(out)

    def test_cli_runs_reproduce_bitwise(self, tmp_path):
        fast = ["--dim", "8", "--seq-hidden", "8",
                "--ch-hidden", "8", "--layers", "1", "--dropout", "0",
                "--max-epochs", "3", "--batch-size", "32",
                "--eval-negatives", "10", "--seed", "11"]
        arts = []
        for tag in ("a", "b"):
            root = tmp_path / tag
            assert cli.main(["synth", "--users", "40", "--len", "12", "--vocab",
                             "25", "--kstar", "2", "--max-len", "6", "--seed",
                             "11", "--out", str(root / "data")]) == 0
            dataset = str(root / "data" / "dataset.jsonl")
            assert cli.main(["search", "--dataset", dataset, "--K", "1,2",
                             "--arch-lr", "0.01", "--out", str(root / "search")]
                            + fast) == 0
            assert cli.main(["train", "--dataset", dataset, "--k", "2",
                             "--out", str(root / "train")] + fast) == 0
            assert cli.main(["eval", "--dataset", dataset,
                             "--checkpoint", str(root / "train" / "checkpoint.bin"),
                             "--eval-negatives", "10", "--seed", "11",
                             "--out", str(root / "eval")]) == 0
            arts.append(root)
        a, b = arts
        same_dataset = ((a / "data" / "dataset.jsonl").read_bytes()
                        == (b / "data" / "dataset.jsonl").read_bytes())
        same_ckpt = ((a / "train" / "checkpoint.bin").read_bytes()
                     == (b / "train" / "checkpoint.bin").read_bytes())
        same_metrics = ((a / "eval" / "metrics.json").read_bytes()
                        == (b / "eval" / "metrics.json").read_bytes())
        same_trace = (self.strip_wall(a / "train" / "train_trace.jsonl")
                      == self.strip_wall(b / "train" / "train_trace.jsonl"))
        ra = json.loads((a / "search" / "search_result.json").read_text())
        rb = json.loads((b / "search" / "search_result.json").read_text())
        for rec in (ra, rb):
            rec.pop("wall_ms")
            for step in rec["trace"]:
                step.pop("wall_ms")
        same_search = ra == rb
        ok = all([same_dataset, same_ckpt, same_metrics, same_trace, same_search])
        assert report(10, ok,
                      f"dataset={same_dataset} checkpoint={same_ckpt} "
                      f"metrics={same_metrics} trace={same_trace} "
                      f"search={same_search} (wall-clock fields excluded)")
