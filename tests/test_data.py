"""Tests for log parsing, splitting, negative sampling, and synthetic logs."""

import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixrec import data as d


def log_from_rows(rows):
    text = "\n".join("\t".join(str(c) for c in row) for row in rows) + "\n"
    return d.parse_interactions(io.StringIO(text))


class TestParsing:
    def test_counts_users_items_events(self):
        log = log_from_rows([("a", "x", 1), ("a", "y", 2), ("b", "x", 3)])
        assert len(log.events) == 3
        assert log.num_users == 2
        assert log.num_items == 2

    def test_index_maps_start_at_one_in_first_appearance_order(self):
        log = log_from_rows([("b", "y", 1), ("a", "x", 2)])
        assert log.user_index == {"b": 1, "a": 2}
        assert log.item_index == {"y": 1, "x": 2}
        assert log.items[0] is None  # index 0 reserved for padding

    def test_movielens_layout(self):
        text = "1::1193::5::978300760\n1::661::3::978302109\n2::1193::4::978298413\n"
        log = d.parse_interactions(io.BytesIO(text.encode()), d.ParseFormat.movielens_1m())
        assert len(log.events) == 3
        assert log.num_users == 2
        assert log.num_items == 2
        assert log.events[0][2] == 978300760

    def test_malformed_row_reports_line_number(self):
        text = "1::2::3::4\na::b\n"
        with pytest.raises(d.ParseError, match="line 2"):
            d.parse_interactions(io.StringIO(text), d.ParseFormat.movielens_1m())

    def test_bad_timestamp_reports_line_number(self):
        with pytest.raises(d.ParseError, match="line 1"):
            log_from_rows([("a", "x", "noon")])

    def test_empty_input_gives_empty_log(self):
        log = d.parse_interactions(io.StringIO(""))
        assert log.events == [] and log.num_users == 0


class TestFilterUsers:
    def make(self, counts):
        rows = []
        ts = 0
        for u, c in counts.items():
            for k in range(c):
                rows.append((u, f"i{u}_{k}", ts))
                ts += 1
        return log_from_rows(rows)

    def test_boundary_below(self):
        log = self.make({"a": 9, "b": 10})
        out = d.filter_users(log, 10)
        assert set(out.user_index) == {"b"}

    def test_boundary_at(self):
        log = self.make({"a": 10})
        out = d.filter_users(log, 10)
        assert set(out.user_index) == {"a"}

    def test_all_below_threshold_gives_empty_log(self):
        out = d.filter_users(self.make({"a": 2, "b": 3}), 10)
        assert out.events == [] and out.num_items == 0

    def test_item_index_rebuilt_over_survivors(self):
        log = log_from_rows([("a", "x", 1), ("b", "y", 2), ("b", "z", 3)])
        out = d.filter_users(log, 2)
        assert set(out.item_index) == {"y", "z"}
        assert out.item_index["y"] == 1

    def test_retained_users_satisfy_minimum(self):
        rng = np.random.default_rng(0)
        rows = [(f"u{rng.integers(6)}", f"i{rng.integers(20)}", t) for t in range(120)]
        out = d.filter_users(log_from_rows(rows), 15)
        per_user = {}
        for u, _, _, _ in out.events:
            per_user[u] = per_user.get(u, 0) + 1
        assert all(c >= 15 for c in per_user.values())
        assert len(out.events) >= 15 * len(per_user)


class TestBuildSequences:
    def test_hand_split(self):
        rows = [("u", item, t) for t, item in enumerate("abcde")]
        ds = d.build_sequences(log_from_rows(rows), max_len=4)
        # items a..e got indices 1..5
        by_split = {s: [(ex.input, ex.target) for ex in ds.split_examples(s)]
                    for s in ("train", "val", "test")}
        assert by_split["test"] == [((1, 2, 3, 4), 5)]
        assert by_split["val"] == [((0, 1, 2, 3), 4)]
        assert by_split["train"] == [((0, 0, 0, 1), 2), ((0, 0, 1, 2), 3)]

    def test_two_item_user_contributes_nothing(self):
        rows = [("u", "a", 1), ("u", "b", 2)]
        ds = d.build_sequences(log_from_rows(rows), max_len=4)
        assert list(ds.examples) == []

    def test_truncation_keeps_most_recent(self):
        rows = [("u", item, t) for t, item in enumerate("abcdef")]
        ds = d.build_sequences(log_from_rows(rows), max_len=3)
        test = ds.split_examples("test")[0]
        assert test.input == (3, 4, 5)  # c, d, e
        assert test.target == 6

    def test_example_counts_per_user(self):
        rows = [("u", f"i{t}", t) for t in range(10)]
        ds = d.build_sequences(log_from_rows(rows), max_len=5)
        assert len(ds.split_examples("train")) == 7
        assert len(ds.split_examples("val")) == 1
        assert len(ds.split_examples("test")) == 1

    def test_timestamp_ties_broken_by_file_order(self):
        rows = [("u", "a", 5), ("u", "b", 5), ("u", "c", 5)]
        ds = d.build_sequences(log_from_rows(rows), max_len=3)
        assert ds.user_sequences[1] == [1, 2, 3]

    def test_no_input_contains_target_or_later_items(self):
        rng = np.random.default_rng(1)
        rows = []
        for u in range(8):
            for t in range(int(rng.integers(3, 15))):
                rows.append((f"u{u}", f"i{rng.integers(30)}", t))
        ds = d.build_sequences(log_from_rows(rows), max_len=6)
        for ex in ds.examples:
            seq = ds.user_sequences[ex.user]
            real = [i for i in ex.input if i != d.PAD]
            # the input must be exactly the window just before the target position
            pos = {"test": len(seq) - 1, "val": len(seq) - 2}.get(ex.split)
            if pos is None:
                pos = next(
                    t for t in range(1, len(seq) - 2)
                    if seq[t] == ex.target and tuple(real) == tuple(seq[:t][-6:])
                )
            assert seq[pos] == ex.target
            assert real == seq[:pos][-6:]

    def test_max_len_validation(self):
        with pytest.raises(ValueError):
            d.build_sequences(log_from_rows([("u", "a", 1)]), max_len=1)

    def test_roundtrip_serialization(self, tmp_path):
        rng = np.random.default_rng(2)
        rows = [(f"u{rng.integers(5)}", f"i{rng.integers(12)}", t) for t in range(60)]
        ds = d.build_sequences(log_from_rows(rows), max_len=4)
        path = tmp_path / "ds.jsonl"
        ds.save(path)
        back = d.SequenceDataset.load(path)
        assert list(back.examples) == list(ds.examples)
        assert back.user_sequences == ds.user_sequences
        np.testing.assert_array_equal(back.item_counts, ds.item_counts)
        # and a second save is byte-identical
        path2 = tmp_path / "ds2.jsonl"
        back.save(path2)
        assert path.read_bytes() == path2.read_bytes()

    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 9), st.integers(0, 4)),
                    max_size=80),
           st.integers(2, 7))
    @settings(max_examples=200, deadline=None)
    def test_matches_list_based_builder(self, rows, max_len):
        # few timestamps make ties common; few events leave some users below 3
        log = log_from_rows([(f"u{u}", f"i{i}", ts) for u, i, ts in rows])
        want, counts, sequences = list_build_sequences(log, max_len)
        ds = d.build_sequences(log, max_len)
        assert list(ds.examples) == want
        np.testing.assert_array_equal(ds.item_counts, counts)
        assert ds.item_counts.dtype == counts.dtype
        assert ds.user_sequences == sequences
        for split in d.SPLITS:
            chosen = [ex for ex in want if ex.split == split]
            table = ds.split_examples(split)
            assert list(table) == chosen
            np.testing.assert_array_equal(
                table.inputs(), np.array([ex.input for ex in chosen], dtype=np.intp)
                .reshape(len(chosen), max_len))
        with tempfile.TemporaryDirectory() as tmp:
            ds.save(Path(tmp) / "ds.jsonl")
            back = d.SequenceDataset.load(Path(tmp) / "ds.jsonl")
        assert list(back.examples) == want
        np.testing.assert_array_equal(back.item_counts, counts)

    def test_table_rows_and_selections(self):
        rows = [("u", item, t) for t, item in enumerate("abcdef")]
        ds = d.build_sequences(log_from_rows(rows), max_len=3)
        table = ds.examples
        assert len(table) == 5
        assert table[-1] == d.Example(1, (3, 4, 5), 6, "test")
        assert type(table[0].target) is int and type(table[0].input[0]) is int
        for part in (table[1:3], table[np.array([4, 0])], table[table.targets > 4]):
            assert part.padded is table.padded
        assert [ex.target for ex in table[np.array([4, 0])]] == [6, 2]
        with pytest.raises(IndexError):
            table[5]


def pad_left(items, max_len):
    items = items[-max_len:]
    return tuple([d.PAD] * (max_len - len(items)) + list(items))


def list_build_sequences(log, max_len):
    """The builder as it was before examples became columns: a per-user sort
    of (timestamp, file order, item) rows, then one padded tuple and one
    ``Example`` per prefix. Returns the examples, the item counts and the
    retained sequences."""
    per_user = {}
    for order, (user, item, ts, _) in enumerate(log.events):
        u, i = log.user_index[user], log.item_index[item]
        per_user.setdefault(u, []).append((ts, order, i))
    sequences = {}
    for u, rows in per_user.items():
        rows.sort(key=lambda r: (r[0], r[1]))  # timestamp, ties by file order
        sequences[u] = [i for _, _, i in rows]
    counts = np.zeros(log.num_items + 1, dtype=np.int64)
    for seq in sequences.values():
        for i in seq:
            counts[i] += 1
    retained = {u: seq for u, seq in sequences.items() if len(seq) >= 3}
    examples = []
    for user in sorted(retained):
        seq = retained[user]
        n = len(seq)
        for t in range(1, n - 2):
            examples.append(d.Example(user, pad_left(seq[:t], max_len), seq[t], "train"))
        examples.append(d.Example(user, pad_left(seq[:n - 2], max_len), seq[n - 2], "val"))
        examples.append(d.Example(user, pad_left(seq[:n - 1], max_len), seq[n - 1], "test"))
    return examples, counts, retained


class TestSampleNegatives:
    def test_forced_complement(self):
        counts = np.zeros(102)
        counts[1:102] = 1
        dist = d.PopularityDist(counts)
        out = d.sample_negatives(dist, {50}, 100, np.random.default_rng(0))
        assert sorted(out) == [i for i in range(1, 102) if i != 50]

    def test_popularity_proportional(self):
        dist = d.PopularityDist([0, 90, 5, 5])
        rng = np.random.default_rng(123)
        hits = sum(d.sample_negatives(dist, set(), 1, rng)[0] == 1 for _ in range(10_000))
        assert 0.87 <= hits / 10_000 <= 0.93

    def test_exhausted_pool_raises(self):
        dist = d.PopularityDist([0, 3, 2, 1])
        with pytest.raises(d.SamplingError, match="pool has 0"):
            d.sample_negatives(dist, {1, 2, 3}, 1, np.random.default_rng(0))

    def test_never_returns_excluded_or_padding(self):
        dist = d.PopularityDist([0, 5, 5, 5, 5, 5, 5])
        rng = np.random.default_rng(9)
        for _ in range(200):
            out = d.sample_negatives(dist, {2, 4}, 3, rng)
            assert len(set(out)) == 3
            assert not {2, 4, d.PAD} & set(out)

    def test_deterministic_given_seed(self):
        counts = np.arange(50.0)
        out1 = d.sample_negatives(d.PopularityDist(counts), {3}, 20, np.random.default_rng(5))
        out2 = d.sample_negatives(d.PopularityDist(counts), {3}, 20, np.random.default_rng(5))
        assert out1 == out2

    # Literal draws: evaluation negatives are part of the seed contract, so
    # no rewrite of the sampler may change them.

    def test_pinned_draws_rejection_path(self):
        out = d.sample_negatives(d.PopularityDist(np.arange(40)), {3, 7, 11, 99}, 8,
                                 np.random.default_rng(11))
        assert out == [14, 28, 31, 15, 38, 10, 24, 32]

    def test_pinned_draws_direct_fallback(self):
        # 7 candidates, n*3 > 7: only the exact renormalised draw runs;
        # -1 and 50 lie outside the vocabulary and exclude nothing
        counts = [0, 5, 1, 3, 0, 2, 8, 4, 6, 1, 2]
        out = d.sample_negatives(d.PopularityDist(counts), {2, 6, -1, 50}, 4,
                                 np.random.default_rng(12))
        assert out == [3, 10, 1, 7]

    def test_pinned_draws_after_rejection_rounds_run_out(self):
        # item 1 takes nearly all the mass, so 40 rounds find only it and
        # the exact draw picks the other eight
        counts = [0, 10**9] + [1] * 29
        out = d.sample_negatives(d.PopularityDist(counts), {0, 30}, 9,
                                 np.random.default_rng(13))
        assert out == [1, 27, 17, 16, 9, 22, 15, 10, 11]

    @given(st.lists(st.integers(0, 50), min_size=2, max_size=40),
           st.sets(st.integers(-5, 50), max_size=30),
           st.integers(1, 45), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_list_based_oracle(self, counts, exclude, n, seed):
        counts[1] += 1  # a distribution needs one observed interaction
        dist = d.PopularityDist(counts)
        try:
            want = list_pool_sample_negatives(dist, exclude, n, np.random.default_rng(seed))
        except d.SamplingError:
            with pytest.raises(d.SamplingError):
                d.sample_negatives(dist, exclude, n, np.random.default_rng(seed))
            return
        assert d.sample_negatives(dist, exclude, n, np.random.default_rng(seed)) == want


def list_pool_sample_negatives(dist, exclude, n, rng):
    """The sampler as it was before its pool became a boolean mask: a
    rejection pass by popularity, then an exact renormalised draw."""
    positive = np.nonzero(dist.counts > 0)[0]
    excluded = set(exclude)
    excluded.add(d.PAD)
    pool = [int(i) for i in positive if i not in excluded]
    if len(pool) < n:
        raise d.SamplingError(f"need {n} negatives but candidate pool has {len(pool)} items")
    chosen = []
    if n * 3 <= len(pool):
        seen = set(excluded)
        for _ in range(40):
            draws = np.searchsorted(dist.cumulative, rng.random(2 * (n - len(chosen))), side="right")
            for item in draws:
                item = int(item)
                if item not in seen:
                    seen.add(item)
                    chosen.append(item)
                    if len(chosen) == n:
                        return chosen
    remaining = [i for i in pool if i not in set(chosen)]
    weights = dist.counts[remaining]
    extra = rng.choice(len(remaining), size=n - len(chosen), replace=False, p=weights / weights.sum())
    chosen.extend(int(remaining[k]) for k in extra)
    return chosen


class TestSyntheticLog:
    def test_rule_collapse_for_window_one(self):
        log = d.synthesize_log(5, 20, 16, 1, 0.0, np.random.default_rng(0))
        ds = d.build_sequences(log, max_len=4)
        for seq in ds.user_sequences.values():
            for t in range(1, len(seq)):
                assert seq[t] == (2 * seq[t - 1]) % 16 + 1

    def test_noise_free_transitions_satisfy_rule(self):
        log = d.synthesize_log(10, 30, 50, 2, 0.0, np.random.default_rng(1))
        ds = d.build_sequences(log, max_len=8)
        for seq in ds.user_sequences.values():
            for t in range(2, len(seq)):
                assert seq[t] == d.planted_next(seq[t - 1], seq[t - 2], 50)

    def test_noise_rate_controls_violations(self):
        k, vocab = 2, 50
        log = d.synthesize_log(400, 27, vocab, k, 0.2, np.random.default_rng(2))
        ds = d.build_sequences(log, max_len=8)
        total = violations = 0
        for seq in ds.user_sequences.values():
            for t in range(k, len(seq)):
                total += 1
                violations += seq[t] != d.planted_next(seq[t - 1], seq[t - k], vocab)
        assert total >= 10_000
        assert 0.15 <= violations / total <= 0.25

    def test_timestamps_strictly_increase_per_user(self):
        log = d.synthesize_log(3, 10, 8, 1, 0.5, np.random.default_rng(3))
        per_user = {}
        for u, _, ts, _ in log.events:
            per_user.setdefault(u, []).append(ts)
        for stamps in per_user.values():
            assert all(b > a for a, b in zip(stamps, stamps[1:]))

    def test_item_indices_are_identity_over_vocab(self):
        log = d.synthesize_log(2, 5, 10, 1, 0.0, np.random.default_rng(4))
        assert log.num_items == 10
        assert all(log.item_index[str(i)] == i for i in range(1, 11))

    def test_parameter_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            d.synthesize_log(1, 5, 10, 5, 0.0, rng)
        with pytest.raises(ValueError):
            d.synthesize_log(1, 5, 3, 1, 0.0, rng)
        with pytest.raises(ValueError):
            d.synthesize_log(1, 5, 10, 1, 1.0, rng)
