"""Interaction logs, chronological splits, negative sampling, synthetic logs.

The leave-one-out convention: per user with n >= 3 retained events, the last
item is the test target, the second-last the validation target, and every
earlier position from the second item on becomes one training target over
its own prefix. Inputs are left-padded with item index 0 to a fixed length,
so the most recent item always sits in the final slot. The examples are kept
as columns (``ExampleTable``), built in time linear in the number of events.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

PAD = 0  # reserved item index, never assigned to a real item


class DataError(RuntimeError):
    """Input data cannot support the requested operation."""


class ParseError(DataError):
    def __init__(self, message, line_number):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class SamplingError(DataError):
    """Not enough candidate items to draw the requested sample."""


@dataclass
class ParseFormat:
    """Layout of a one-event-per-line interaction file."""

    delimiter: str = "\t"
    columns: tuple[str, ...] = ("user", "item", "timestamp")
    header: bool = False

    @classmethod
    def movielens_1m(cls):
        # UserID::MovieID::Rating::Timestamp, rating ignored
        return cls(delimiter="::", columns=("user", "item", "rating", "timestamp"))


@dataclass
class InteractionLog:
    """Raw events plus bijective id <-> dense index maps (indices start at 1)."""

    events: list  # (user_id, item_id, timestamp, None)
    user_index: dict
    item_index: dict
    users: list  # users[idx] = id, users[0] is None
    items: list

    @property
    def num_users(self):
        return len(self.users) - 1

    @property
    def num_items(self):
        return len(self.items) - 1


def parse_interactions(source, fmt=None):
    """Read an interaction log from a path, text stream, or byte stream."""
    fmt = fmt or ParseFormat()
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            return parse_interactions(fh, fmt)

    col = {name: i for i, name in enumerate(fmt.columns)}
    for required in ("user", "item", "timestamp"):
        if required not in col:
            raise ValueError(f"format is missing a {required!r} column")
    ncols = len(fmt.columns)

    events = []
    user_index, item_index = {}, {}
    users, items = [None], [None]
    for lineno, raw in enumerate(source, start=1):
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")
        line = raw.rstrip("\r\n")
        if fmt.header and lineno == 1:
            continue
        if not line:
            continue
        parts = line.split(fmt.delimiter)
        if len(parts) != ncols:
            raise ParseError(f"expected {ncols} fields, got {len(parts)}", lineno)
        try:
            ts = int(parts[col["timestamp"]])
        except ValueError:
            raise ParseError(f"non-integer timestamp {parts[col['timestamp']]!r}", lineno) from None
        user, item = parts[col["user"]], parts[col["item"]]
        if user not in user_index:
            user_index[user] = len(users)
            users.append(user)
        if item not in item_index:
            item_index[item] = len(items)
            items.append(item)
        events.append((user, item, ts, None))
    return InteractionLog(events, user_index, item_index, users, items)


def filter_users(log, min_interactions):
    """Keep users with at least ``min_interactions`` events; reindex survivors."""
    if min_interactions < 1:
        raise ValueError(f"min_interactions must be >= 1, got {min_interactions}")
    counts = {}
    for user, _, _, _ in log.events:
        counts[user] = counts.get(user, 0) + 1
    keep = {u for u, c in counts.items() if c >= min_interactions}

    events = [ev for ev in log.events if ev[0] in keep]
    user_index, item_index = {}, {}
    users, items = [None], [None]
    for user, item, _, _ in events:
        if user not in user_index:
            user_index[user] = len(users)
            users.append(user)
        if item not in item_index:
            item_index[item] = len(items)
            items.append(item)
    return InteractionLog(events, user_index, item_index, users, items)


SPLITS = ("train", "val", "test")  # an example's split code indexes this


@dataclass
class Example:
    user: int
    input: tuple  # item indices, length T, left-padded with PAD
    target: int
    split: str  # train | val | test


@dataclass(eq=False)
class ExampleTable:
    """Leave-one-out examples as aligned columns over one shared item array.

    ``padded`` holds each retained user's items, oldest first, after
    ``max_len`` PADs, so row r's input is the window
    ``padded[starts[r]:starts[r] + max_len]``. Slices, integer arrays and
    boolean masks select rows into a table that shares ``padded``; an int
    index, like iteration, yields one ``Example``.
    """

    users: np.ndarray    # user index per example
    targets: np.ndarray  # target item index per example
    splits: np.ndarray   # code into SPLITS per example
    starts: np.ndarray   # where each example's input window begins in padded
    padded: np.ndarray
    max_len: int

    def __len__(self):
        return len(self.users)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            start = int(self.starts[index])
            return Example(int(self.users[index]),
                           tuple(self.padded[start:start + self.max_len].tolist()),
                           int(self.targets[index]), SPLITS[self.splits[index]])
        return ExampleTable(self.users[index], self.targets[index], self.splits[index],
                            self.starts[index], self.padded, self.max_len)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def inputs(self):
        """The B×T matrix of input windows, in one gather."""
        return self.padded[self.starts[:, None] + np.arange(self.max_len)]


@dataclass
class SequenceDataset:
    """Per-user chronological sequences with leave-one-out examples."""

    max_len: int
    num_items: int
    user_sequences: dict  # user idx -> list of item indices, oldest first
    examples: ExampleTable
    item_counts: np.ndarray  # index -> interaction count, item_counts[PAD] == 0

    def split_examples(self, split):
        """The examples of one split, in dataset order."""
        code = SPLITS.index(split) if split in SPLITS else -1
        return self.examples[self.examples.splits == code]

    def user_items(self, user):
        return set(self.user_sequences[user])

    def save(self, path):
        """Write user sequences; examples are rebuilt deterministically on load."""
        with open(path, "w", encoding="utf-8") as fh:
            header = {
                "max_len": self.max_len,
                "num_items": self.num_items,
                "item_counts": self.item_counts.tolist(),
            }
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for user in sorted(self.user_sequences):
                fh.write(json.dumps({"user": user, "items": self.user_sequences[user]}) + "\n")

    @classmethod
    def load(cls, path):
        # a truncated or corrupt file surfaces as a JSON, key, type or value error
        with open(path, "r", encoding="utf-8") as fh:
            try:
                header = json.loads(fh.readline())
                max_len, num_items = header["max_len"], header["num_items"]
                item_counts = np.asarray(header["item_counts"], dtype=np.int64)
                sequences = {}
                for line in fh:
                    rec = json.loads(line)
                    sequences[rec["user"]] = list(rec["items"])
                return _dataset_from_sequences(sequences, max_len, num_items, item_counts)
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(f"{path}: malformed dataset file: {exc!r}") from None


def _run_starts(lengths):
    """Offset of each run when runs of these lengths are laid end to end."""
    return np.cumsum(lengths) - lengths


def _dataset_from_sequences(sequences, max_len, num_items, item_counts):
    """A user with n >= 3 items gives n - 1 examples, users in index order:
    the prefixes before seq[1] .. seq[n-3] (train), seq[n-2] (val) and
    seq[n-1] (test). Linear in the number of items."""
    kept = [u for u in sorted(sequences) if len(sequences[u]) >= 3]
    lens = np.array([len(sequences[u]) for u in kept], dtype=np.intp)
    padded = np.fromiter(chain.from_iterable(chain([PAD] * max_len, sequences[u]) for u in kept),
                         dtype=np.intp)
    blocks = _run_starts(max_len + lens)  # where each user's PADs begin in padded

    per_user = lens - 1
    prefix = np.arange(per_user.sum()) - np.repeat(_run_starts(per_user), per_user) + 1
    starts = np.repeat(blocks, per_user) + prefix  # the window ends right before seq[prefix]
    splits = np.maximum(prefix - np.repeat(lens - 3, per_user), 0)  # train 0, val 1, test 2
    examples = ExampleTable(np.repeat(np.array(kept, dtype=np.intp), per_user),
                            padded[starts + max_len], splits, starts, padded, max_len)
    return SequenceDataset(max_len, num_items, sequences, examples, item_counts)


def build_sequences(log, max_len):
    """Chronological leave-one-out split with left-padded fixed-length inputs."""
    if max_len < 2:
        raise ValueError(f"max_len must be >= 2, got {max_len}")
    ui, ii = log.user_index, log.item_index
    users = np.array([ui[ev[0]] for ev in log.events], dtype=np.intp)
    items = np.array([ii[ev[1]] for ev in log.events], dtype=np.intp)
    stamps = np.array([ev[2] for ev in log.events])
    # by user, then timestamp; lexsort is stable, so ties keep file order
    flat = items[np.lexsort((stamps, users))].tolist()
    lengths = np.bincount(users, minlength=log.num_users + 1).tolist()
    ends = np.cumsum(lengths).tolist()
    retained = {u: flat[ends[u] - n:ends[u]] for u, n in enumerate(lengths) if n >= 3}
    counts = np.bincount(items, minlength=log.num_items + 1)
    return _dataset_from_sequences(retained, max_len, log.num_items, counts)


class PopularityDist:
    """Popularity-proportional sampler over real item indices."""

    def __init__(self, item_counts):
        counts = np.asarray(item_counts, dtype=np.float64)
        counts = counts.copy()
        counts[PAD] = 0.0
        total = counts.sum()
        if total <= 0:
            raise DataError("popularity distribution has no observed interactions")
        self.counts = counts
        self.probs = counts / total
        self.cumulative = np.cumsum(self.probs)
        self.observed = counts > 0  # candidate mask; PAD is never observed


def sample_negatives(dist, exclude, n, rng):
    """Draw ``n`` distinct items, popularity-weighted, outside ``exclude``.

    Rejection draws by popularity come first; whatever is still missing
    comes from one exact draw, renormalised over the remaining candidates.
    Exclusions outside the vocabulary are ignored.
    """
    pool = dist.observed.copy()
    idx = np.fromiter(exclude, dtype=np.intp)
    pool[idx[(idx >= 0) & (idx < pool.size)]] = False
    size = int(pool.sum())
    if size < n:
        raise SamplingError(f"need {n} negatives but candidate pool has {size} items")

    chosen = []
    # rejection sampling is fast while the pool dwarfs the request
    if n * 3 <= size:
        seen = set(exclude)
        seen.add(PAD)
        for _ in range(40):
            draws = np.searchsorted(dist.cumulative, rng.random(2 * (n - len(chosen))), side="right")
            for item in draws.tolist():
                if item not in seen:
                    seen.add(item)
                    chosen.append(item)
                    if len(chosen) == n:
                        return chosen

    # exact renormalized draws over the remaining candidates, in index order
    pool[chosen] = False
    remaining = np.flatnonzero(pool)
    weights = dist.counts[remaining]
    extra = rng.choice(len(remaining), size=n - len(chosen), replace=False, p=weights / weights.sum())
    chosen.extend(remaining[extra].tolist())
    return chosen


def synthesize_log(num_users, seq_len, vocab, k_star, noise_rate, rng):
    """Generate sequences whose next item is a fixed function of the last
    ``k_star`` items: after a random seed prefix, each transition follows
    next = ((a + b) mod vocab) + 1 where a is the previous item and b the
    item ``k_star`` steps back, each replaced by a uniform random item with
    probability ``noise_rate``.

    Item ids are the dense indices themselves, so the planted rule can be
    checked directly on indexed sequences.
    """
    if not 1 <= k_star < seq_len:
        raise ValueError(f"k_star must be in [1, seq_len), got {k_star}")
    if vocab < 4:
        raise ValueError(f"vocab must be >= 4, got {vocab}")
    if not 0.0 <= noise_rate < 1.0:
        raise ValueError(f"noise_rate must be in [0, 1), got {noise_rate}")

    events = []
    for u in range(1, num_users + 1):
        seq = list(rng.integers(1, vocab + 1, size=k_star))
        while len(seq) < seq_len:
            nxt = planted_next(seq[-1], seq[-k_star], vocab)
            if noise_rate > 0.0 and rng.random() < noise_rate:
                nxt = int(rng.integers(1, vocab + 1))
            seq.append(nxt)
        user_id = f"u{u}"
        for t, item in enumerate(seq, start=1):
            events.append((user_id, str(item), t, None))

    user_index = {f"u{u}": u for u in range(1, num_users + 1)}
    users = [None] + [f"u{u}" for u in range(1, num_users + 1)]
    item_index = {str(i): i for i in range(1, vocab + 1)}
    items = [None] + [str(i) for i in range(1, vocab + 1)]
    return InteractionLog(events, user_index, item_index, users, items)


def planted_next(prev_item, lookback_item, vocab):
    """The planted transition rule on 1-based item indices."""
    return (prev_item + lookback_item) % vocab + 1
