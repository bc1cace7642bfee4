"""Tests for log parsing, splitting, negative sampling, and synthetic logs."""

import ast
import io
import json
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixrec import data as d
from mixrec import model as m
from mixrec import search as se
from mixrec import train as tr


def log_from_rows(rows):
    text = "\n".join("\t".join(str(c) for c in row) for row in rows) + "\n"
    return d.parse_interactions(io.StringIO(text))


def user_sequences(ds):
    """Each user's items as a list, keyed by user id."""
    return {user: items.tolist() for user, items in ds.sequences()}


def mask_of(excludes, width):
    """The B x ``width`` boolean mask of each row's items; items outside
    0..width-1 mark nothing."""
    mask = np.zeros((len(excludes), width), dtype=bool)
    for row, items in zip(mask, excludes):
        row[[i for i in items if 0 <= i < width]] = True
    return mask


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

    def test_timestamps_span_the_signed_64_bit_range(self):
        rows = [("u", "a", 2 ** 63 - 1), ("u", "b", -2 ** 63), ("u", "c", 2 ** 63 - 2),
                ("u", "d", 0)]
        log = log_from_rows(rows)
        assert [ev[2] for ev in log.events] == [r[2] for r in rows]
        ds = d.build_sequences(log, max_len=3)
        assert user_sequences(ds) == {1: [2, 4, 3, 1]}  # b, d, c, a

    @pytest.mark.parametrize("stamp", [2 ** 63, -2 ** 63 - 1, 2 ** 64])
    def test_a_timestamp_outside_64_bits_is_refused(self, stamp):
        # numpy would read such a stamp as a float or an object, not in order
        with pytest.raises(d.ParseError, match=f"line 2: timestamp {stamp} is outside"):
            log_from_rows([("u", "a", 2 ** 63 - 1), ("u", "c", stamp)])

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
        assert user_sequences(ds) == {1: [1, 2, 3]}

    def test_no_input_contains_target_or_later_items(self):
        rng = np.random.default_rng(1)
        rows = []
        for u in range(8):
            for t in range(int(rng.integers(3, 15))):
                rows.append((f"u{u}", f"i{rng.integers(30)}", t))
        ds = d.build_sequences(log_from_rows(rows), max_len=6)
        sequences = user_sequences(ds)
        for ex in ds.examples:
            seq = sequences[ex.user]
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
        assert user_sequences(back) == user_sequences(ds)
        np.testing.assert_array_equal(back.item_counts, ds.item_counts)
        # and a second save is byte-identical
        path2 = tmp_path / "ds2.jsonl"
        back.save(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_short_users_and_sparse_ids_save_back_byte_identical(self, tmp_path):
        # users of fewer than 3 items give no example but stay in the file
        path = tmp_path / "ds.jsonl"
        header = {"item_counts": [0, 3, 3, 2, 1], "max_len": 3, "num_items": 4}
        users = [{"user": 0, "items": [1, 2, 3, 4]}, {"user": 7, "items": [2]},
                 {"user": 40, "items": []}, {"user": 10**9, "items": [3, 1, 2]},
                 {"user": 10**9 + 1, "items": [1, 2]}]
        path.write_text("".join(json.dumps(rec) + "\n" for rec in [header] + users))
        ds = d.SequenceDataset.load(path)
        assert user_sequences(ds) == {rec["user"]: rec["items"] for rec in users}
        assert sorted(set(ds.examples.users.tolist())) == [0, 10**9]
        ds.save(tmp_path / "again.jsonl")
        assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()
        # a dataset over a slice of the examples reads the same histories
        part = replace(ds, examples=ds.split_examples("val"))
        assert user_sequences(part) == user_sequences(ds)
        np.testing.assert_array_equal(
            part.history_mask(np.array([10**9 + 1, 7, 10**9, 40])),
            mask_of([[1, 2], [2], [3, 1, 2], []], 5))

    @staticmethod
    def memory_log():
        """300 users of 3 to 400 events over 2,000 items."""
        rng = np.random.default_rng(0)
        events = [(f"u{u}", str(i), t, None)
                  for u, n in enumerate(rng.integers(3, 400, size=300).tolist())
                  for t, i in enumerate(rng.integers(1, 2000, size=n).tolist())]
        return d._indexed_log(events)

    @staticmethod
    def traced(fn):
        """``fn()``, and the bytes it kept and the peak it reached above
        what was allocated before it, under ``tracemalloc``."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = fn()
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return out, kept - before, peak - before

    def test_the_build_keeps_under_24_bytes_per_event(self):
        # padded holds each item once (4 B) and the example columns take
        # 13 B (three int32, one int8); 8 B columns kept about 42 B per event
        log = self.memory_log()
        ds, kept, _ = self.traced(lambda: d.build_sequences(log, max_len=50))
        assert len(ds.examples) == len(log.events) - 300
        assert kept / len(log.events) < 24

    def test_the_build_peaks_under_48_bytes_per_event(self):
        # three typed columns of the log and the sort order, freed as they
        # fall out of use; per-event lists and int64 columns peaked near 98 B
        log = self.memory_log()
        _, _, peak = self.traced(lambda: d.build_sequences(log, max_len=50))
        assert peak / len(log.events) < 48

    def test_load_peaks_under_51_bytes_per_event(self, tmp_path):
        # each line's items become an int32 array once checked; a dict of
        # Python-int lists peaked near 102 B per event
        log = self.memory_log()
        d.build_sequences(log, max_len=50).save(tmp_path / "ds.jsonl")
        ds, _, peak = self.traced(lambda: d.SequenceDataset.load(tmp_path / "ds.jsonl"))
        assert len(ds.examples) == len(log.events) - 300
        assert peak / len(log.events) < 51

    def saved_lines(self, tmp_path):
        rows = [(f"u{u}", f"i{(u * 7 + t) % 9}", t) for u in range(4) for t in range(5)]
        path = tmp_path / "ds.jsonl"
        d.build_sequences(log_from_rows(rows), max_len=4).save(path)
        head, *users = path.read_text().splitlines()
        return path, json.loads(head), [json.loads(line) for line in users]

    @staticmethod
    def write_lines(path, header, users):
        path.write_text("\n".join(json.dumps(rec, sort_keys=True)
                                  for rec in [header] + users) + "\n")

    @pytest.mark.parametrize("item", [0, -1, 10, 999, 2.5, True])
    def test_load_rejects_an_item_outside_the_vocabulary(self, tmp_path, item):
        path, header, users = self.saved_lines(tmp_path)
        assert header["num_items"] == 9
        users[1]["items"][2] = item
        self.write_lines(path, header, users)
        with pytest.raises(d.DataError, match=r"outside 1\.\.9"):
            d.SequenceDataset.load(path)

    @pytest.mark.parametrize("user, message", [
        (2.5, "user 2.5 is not an integer >= 0"), (True, "user True is not"),
        (-1, "user -1 is not"), (None, "appears twice"),
        (2 ** 31, "user 2147483648 is not an integer >= 0 and < 2"),
    ], ids=str)
    def test_load_rejects_a_bad_or_repeated_user(self, tmp_path, user, message):
        path, header, users = self.saved_lines(tmp_path)
        users[2]["user"] = users[1]["user"] if user is None else user  # None: a repeat
        self.write_lines(path, header, users)
        with pytest.raises(d.DataError, match=message):
            d.SequenceDataset.load(path)

    def test_load_refuses_a_padded_array_of_2_to_the_31_entries(self, tmp_path):
        path, header, users = self.saved_lines(tmp_path)
        events = sum(len(rec["items"]) for rec in users)
        assert (2 ** 31 - events) % len(users) == 0
        header["max_len"] = (2 ** 31 - events) // len(users)  # exactly 2^31 entries
        self.write_lines(path, header, users)
        with pytest.raises(d.DataError, match=f"need {2 ** 31} padded entries") as info:
            d.SequenceDataset.load(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_the_largest_user_id_loads(self, tmp_path):
        path, header, users = self.saved_lines(tmp_path)
        users[-1]["user"] = 2 ** 31 - 1
        self.write_lines(path, header, users)
        ds = d.SequenceDataset.load(path)
        assert ds.examples.users[-1] == 2 ** 31 - 1
        assert ds.user_ids[-1] == 2 ** 31 - 1

    @pytest.mark.parametrize("size", [2, 9, 11])
    def test_load_rejects_item_counts_of_the_wrong_length(self, tmp_path, size):
        path, header, users = self.saved_lines(tmp_path)
        header["item_counts"] = (header["item_counts"] * 2)[:size]
        self.write_lines(path, header, users)
        with pytest.raises(d.DataError, match=f"item_counts has {size} entries"):
            d.SequenceDataset.load(path)

    @pytest.mark.parametrize("key, value, message", [
        ("num_items", 9.0, "num_items 9.0 is not an integer >= 0"),
        ("max_len", -5, "max_len -5 is not an integer >= 2"),
        ("max_len", 1, "max_len 1 is not"), ("max_len", True, "max_len True is not"),
        ("item_counts", -100, "item_counts -100 is not an integer >= 0"),
        ("item_counts", 19.5, "item_counts 19.5 is not"),
        ("item_counts", True, "item_counts True is not"), ("item_counts", 2 ** 70, "OverflowError"),
    ], ids=str)
    def test_load_rejects_a_malformed_header_value(self, tmp_path, key, value, message):
        path, header, users = self.saved_lines(tmp_path)
        if key == "item_counts":
            header[key][3] = value
        else:
            header[key] = value
        self.write_lines(path, header, users)
        with pytest.raises(d.DataError, match=message):
            d.SequenceDataset.load(path)

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
        table = ds.examples
        for column in (table.users, table.targets, table.starts, table.padded):
            assert column.dtype == np.int32
        assert table.splits.dtype == np.int8
        assert table.inputs().dtype == np.intp
        assert user_sequences(ds) == sequences
        users = np.array(sorted(sequences), dtype=np.intp)[::-1]
        np.testing.assert_array_equal(ds.history_mask(users),
                                      mask_of([sequences[u] for u in users], counts.size))
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
        (out,) = d.sample_negatives(dist, mask_of([{50}], 102), 100, [np.random.default_rng(0)])
        assert sorted(out) == [i for i in range(1, 102) if i != 50]

    def test_popularity_proportional(self):
        dist = d.PopularityDist([0, 90, 5, 5])
        rng = np.random.default_rng(123)
        none = mask_of([set()], 4)
        hits = sum(d.sample_negatives(dist, none, 1, [rng])[0, 0] == 1 for _ in range(10_000))
        assert 0.87 <= hits / 10_000 <= 0.93

    def test_exhausted_pool_raises(self):
        dist = d.PopularityDist([0, 3, 2, 1])
        with pytest.raises(d.SamplingError, match="pool has 0"):
            d.sample_negatives(dist, mask_of([{1, 2, 3}], 4), 1, [np.random.default_rng(0)])

    def test_never_returns_excluded_or_padding(self):
        dist = d.PopularityDist([0, 5, 5, 5, 5, 5, 5])
        rng = np.random.default_rng(9)
        for _ in range(200):
            (out,) = d.sample_negatives(dist, mask_of([{2, 4}], 7), 3, [rng])
            assert len(set(out)) == 3
            assert not {2, 4, d.PAD} & set(out)

    def test_deterministic_given_seed(self):
        counts = np.arange(50.0)
        excluded = mask_of([{3}], 50)
        out1 = d.sample_negatives(d.PopularityDist(counts), excluded, 20, [np.random.default_rng(5)])
        out2 = d.sample_negatives(d.PopularityDist(counts), excluded, 20, [np.random.default_rng(5)])
        assert out1.tolist() == out2.tolist()

    # Literal draws: evaluation negatives are part of the seed contract, so
    # no rewrite of the sampler may change them.

    def test_pinned_draws_rejection_path(self):
        out = d.sample_negatives(d.PopularityDist(np.arange(40)), mask_of([{3, 7, 11, 99}], 40), 8,
                                 [np.random.default_rng(11)])
        assert out.tolist() == [[14, 28, 31, 15, 38, 10, 24, 32]]

    def test_pinned_draws_direct_fallback(self):
        # 7 candidates, n*3 > 7: only the exact renormalised draw runs;
        # -1 and 50 lie outside the vocabulary and exclude nothing
        counts = [0, 5, 1, 3, 0, 2, 8, 4, 6, 1, 2]
        out = d.sample_negatives(d.PopularityDist(counts), mask_of([{2, 6, -1, 50}], 11), 4,
                                 [np.random.default_rng(12)])
        assert out.tolist() == [[3, 10, 1, 7]]

    def test_pinned_draws_after_rejection_rounds_run_out(self):
        # item 1 takes nearly all the mass, so 40 rounds find only it and
        # the exact draw picks the other eight
        counts = [0, 10**9] + [1] * 29
        out = d.sample_negatives(d.PopularityDist(counts), mask_of([{0, 30}], 31), 9,
                                 [np.random.default_rng(13)])
        assert out.tolist() == [[1, 27, 17, 16, 9, 22, 15, 10, 11]]

    @given(st.lists(st.integers(0, 50), min_size=2, max_size=40),
           st.sets(st.integers(-5, 50), max_size=30),
           st.integers(1, 45), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_list_based_oracle(self, counts, exclude, n, seed):
        counts[1] += 1  # a distribution needs one observed interaction
        dist = d.PopularityDist(counts)
        excluded = mask_of([exclude], len(counts))
        try:
            want = list_pool_sample_negatives(dist, exclude, n, np.random.default_rng(seed))
        except d.SamplingError:
            with pytest.raises(d.SamplingError):
                d.sample_negatives(dist, excluded, n, [np.random.default_rng(seed)])
            return
        assert d.sample_negatives(dist, excluded, n, [np.random.default_rng(seed)]).tolist() == [want]

    @given(st.lists(st.integers(0, 50), min_size=2, max_size=40),
           st.lists(st.tuples(st.lists(st.integers(-5, 50), max_size=30),
                              st.integers(0, 2**32 - 1)), min_size=1, max_size=6),
           st.integers(1, 45))
    @settings(max_examples=300, deadline=None)
    def test_each_row_of_a_batch_matches_the_oracle(self, counts, rows, n):
        counts[1] += 1
        dist = d.PopularityDist(counts)
        excluded = mask_of([exclude for exclude, _ in rows], len(counts))
        rngs = [np.random.default_rng(seed) for _, seed in rows]
        try:
            want = [list_pool_sample_negatives(dist, exclude, n, np.random.default_rng(seed))
                    for exclude, seed in rows]
        except d.SamplingError:
            with pytest.raises(d.SamplingError):
                d.sample_negatives(dist, excluded, n, rngs)
            return
        out = d.sample_negatives(dist, excluded, n, rngs)
        assert out.shape == (len(rows), n)
        assert out.tolist() == want

    def test_one_batch_mixes_all_three_paths(self, monkeypatch):
        # items 1-20 carry nearly all the mass, items 21-60 almost none
        dist = d.PopularityDist([0] + [10**6] * 20 + [1] * 40)
        excludes = [[],                  # 60 candidates: the first round fills it
                    list(range(1, 20)),  # item 20 alone is heavy: the rounds run out
                    list(range(1, 41)),  # 20 candidates < 3n: exact draw only
                    [5, 5, 7, 99]]       # duplicates and an outside index
        seeds = [31, 32, 33, 34]
        finished = []
        finish_row = d._finish_row
        monkeypatch.setattr(d, "_finish_row", lambda *a: finished.append(a[-1]) or finish_row(*a))
        out = d.sample_negatives(dist, mask_of(excludes, 61), 9,
                                 [np.random.default_rng(s) for s in seeds])
        assert finished == [39, 0]
        assert out.tolist() == [list_pool_sample_negatives(dist, e, 9, np.random.default_rng(s))
                                for e, s in zip(excludes, seeds)]
        with pytest.raises(d.SamplingError, match="pool has 5"):
            d.sample_negatives(dist, mask_of(excludes + [range(1, 56)], 61), 9,
                               [np.random.default_rng(s) for s in seeds + [35]])

    def test_a_draw_past_the_float_sum_gets_a_real_item(self):
        # the cumulative sum of these probabilities ends below 1.0
        counts = [0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0]
        dist = d.PopularityDist(counts)
        assert dist.cumulative[-1] == 1.0
        top = StubGenerator(np.nextafter(1.0, 0.0))
        assert d.sample_negatives(dist, mask_of([[]], 12), 1, [top]).tolist() == [[10]]
        owned = mask_of([[1, 2]], 12)
        assert tr.sample_training_negatives(dist, owned, 2, top).tolist() == [[10, 10]]

    @given(st.lists(st.integers(0, 1000), min_size=2, max_size=60),
           st.floats(0.0, 1.0, exclude_max=True))
    @settings(max_examples=300, deadline=None)
    def test_every_draw_inside_the_float_sum_keeps_its_item(self, counts, u):
        # u is a draw of Generator.random, in [0, 1)
        counts[1] += 1
        dist = d.PopularityDist(counts)
        plain = np.cumsum(dist.probs)
        if u < plain[-1]:
            assert (np.searchsorted(dist.cumulative, u, side="right")
                    == np.searchsorted(plain, u, side="right"))


class TestPopularityLookup:
    """``PopularityDist.lookup`` is the binary search of the cumulative sum."""

    COUNTS = st.one_of(
        # zeros anywhere, item 1 observed
        st.lists(st.integers(0, 1000), min_size=2, max_size=60)
        .map(lambda c: [c[0], c[1] + 1, *c[2:]]),
        # a single observed item
        st.tuples(st.integers(1, 300), st.integers(0, 300))
        .map(lambda t: [0] * t[0] + [1] + [0] * t[1]),
        # Zipf popularity; the tail rounds down to zero counts
        st.tuples(st.integers(1, 4000), st.floats(0.5, 2.0))
        .map(lambda t: [0, *np.floor(1e6 * np.arange(1.0, t[0] + 1) ** -t[1]).tolist()]),
        # one heavy item, then thousands of tiny ones in the last bucket
        st.tuples(st.integers(1000, 5000), st.integers(10**6, 10**12))
        .map(lambda t: [0, t[1]] + [1] * t[0]),
    )

    @staticmethod
    def edge_draws():
        """0.0, every bucket edge k/M and its neighbours, and the largest
        double below 1.0."""
        edges = np.arange(d._GUIDE_BUCKETS) / d._GUIDE_BUCKETS
        return np.concatenate([edges, np.nextafter(edges, 1.0), np.nextafter(edges[1:], 0.0),
                               [np.nextafter(1.0, 0.0)]])

    @given(COUNTS, st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_binary_search(self, counts, draws):
        dist = d.PopularityDist(counts)
        u = np.concatenate([self.edge_draws(), draws])
        want = np.searchsorted(dist.cumulative, u, side="right")
        np.testing.assert_array_equal(dist.lookup(u), want)
        np.testing.assert_array_equal(dist.lookup(u[:12].reshape(3, 4)), want[:12].reshape(3, 4))

    def test_only_popularity_dist_searches_the_cumulative_sum(self):
        # every draw by popularity goes through PopularityDist.lookup
        found = []
        for path in sorted(Path(d.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            inside = {id(node) for cls in ast.walk(tree)
                      if isinstance(cls, ast.ClassDef) and cls.name == "PopularityDist"
                      for node in ast.walk(cls)}
            found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "searchsorted" and id(node) not in inside
                      and "cumulative" in ast.unparse(node)]
        assert found == []


class StubGenerator:
    """Stands in for a numpy generator whose ``random`` always returns ``value``."""

    def __init__(self, value):
        self.value = value

    def random(self, size=None):
        return np.full(size, self.value)


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
        for seq in user_sequences(ds).values():
            for t in range(1, len(seq)):
                assert seq[t] == (2 * seq[t - 1]) % 16 + 1

    def test_noise_free_transitions_satisfy_rule(self):
        log = d.synthesize_log(10, 30, 50, 2, 0.0, np.random.default_rng(1))
        ds = d.build_sequences(log, max_len=8)
        for seq in user_sequences(ds).values():
            for t in range(2, len(seq)):
                assert seq[t] == d.planted_next(seq[t - 1], seq[t - 2], 50)

    def test_noise_rate_controls_violations(self):
        k, vocab = 2, 50
        log = d.synthesize_log(400, 27, vocab, k, 0.2, np.random.default_rng(2))
        ds = d.build_sequences(log, max_len=8)
        total = violations = 0
        for seq in user_sequences(ds).values():
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


def _log():
    return log_from_rows([("u", "a", 1), ("u", "b", 2), ("u", "c", 3)])


# (the function whose check refuses the setting, a call with the bad setting)
SETTING_CHECKS = {
    "model-dim-0": ("__post_init__", lambda: m.ModelConfig(10, 5, dim=0)),
    "model-no-window": ("__post_init__", lambda: m.ModelConfig(10, 5, windows=())),
    "model-window-0": ("__post_init__", lambda: m.ModelConfig(10, 5, windows=(0, 1))),
    "model-windows-decreasing": ("__post_init__", lambda: m.ModelConfig(10, 5, windows=(2, 1))),
    "model-window-at-max-len": ("__post_init__", lambda: m.ModelConfig(10, 5, windows=(5,))),
    "model-dropout-1.5": ("__post_init__", lambda: m.ModelConfig(10, 5, dropout=1.5)),
    "model-activation": ("__post_init__", lambda: m.ModelConfig(10, 5, activation="tanh")),
    "model-norm-axis": ("__post_init__", lambda: m.ModelConfig(10, 5, norm_axis="diagonal")),
    "train-learning-rate-nan": ("__post_init__", lambda: tr.TrainConfig(learning_rate=np.nan)),
    "train-eps-adam-0": ("__post_init__", lambda: tr.TrainConfig(eps_adam=0.0)),
    "train-beta1-1": ("__post_init__", lambda: tr.TrainConfig(beta1=1.0)),
    "train-batch-size-0": ("__post_init__", lambda: tr.TrainConfig(batch_size=0)),
    "train-eval-negatives-0": ("__post_init__", lambda: tr.TrainConfig(eval_negatives=0)),
    "train-eval-cutoff-0": ("__post_init__", lambda: tr.TrainConfig(eval_cutoff=0)),
    "search-no-window": ("__post_init__", lambda: se.SearchConfig(windows=())),
    "search-windows-decreasing": ("__post_init__", lambda: se.SearchConfig(windows=(2, 1))),
    "search-mode": ("__post_init__", lambda: se.SearchConfig(windows=(1,), mode="bogus")),
    "search-arch-lr--1": ("__post_init__", lambda: se.SearchConfig(windows=(1,), arch_lr=-1.0)),
    "format-empty-delimiter": ("__post_init__", lambda: d.ParseFormat(delimiter="")),
    "format-no-timestamp": ("parse_interactions", lambda: d.parse_interactions(
        io.StringIO(""), d.ParseFormat(columns=("user", "item")))),
    "min-interactions-0": ("filter_users", lambda: d.filter_users(_log(), 0)),
    "max-len-1": ("build_sequences", lambda: d.build_sequences(_log(), 1)),
    "kstar-0": ("synthesize_log", lambda: d.synthesize_log(1, 5, 10, 0, 0.0, None)),
    "vocab-3": ("synthesize_log", lambda: d.synthesize_log(1, 5, 3, 1, 0.0, None)),
    "noise-1": ("synthesize_log", lambda: d.synthesize_log(1, 5, 10, 1, 1.0, None)),
}


@pytest.mark.parametrize("name", SETTING_CHECKS)
def test_a_bad_setting_raises_usage_error_from_its_own_check(name):
    check, call = SETTING_CHECKS[name]
    with pytest.raises(d.UsageError) as info:
        call()
    assert info.traceback[-1].name == check
