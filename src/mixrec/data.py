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
from functools import cached_property
from operator import itemgetter
from pathlib import Path

import numpy as np

PAD = 0  # reserved item index, never assigned to a real item


class UsageError(ValueError):
    """A setting is out of range or unknown; the command line exits 2."""


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

    def __post_init__(self):
        if not self.delimiter:
            raise UsageError("delimiter must not be empty")

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
            raise UsageError(f"format is missing a {required!r} column")
    ncols = len(fmt.columns)

    events = []
    for lineno, raw in enumerate(source, start=1):
        if isinstance(raw, bytes):
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}",
                                 lineno) from None
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
        if not -2 ** 63 <= ts < 2 ** 63:
            raise ParseError(f"timestamp {ts} is outside the signed 64-bit range", lineno)
        events.append((parts[col["user"]], parts[col["item"]], ts, None))
    return _indexed_log(events)


def filter_users(log, min_interactions):
    """Keep users with at least ``min_interactions`` events; reindex survivors."""
    if min_interactions < 1:
        raise UsageError(f"min_interactions must be >= 1, got {min_interactions}")
    counts = {}
    for user, _, _, _ in log.events:
        counts[user] = counts.get(user, 0) + 1
    keep = {u for u, c in counts.items() if c >= min_interactions}

    return _indexed_log([ev for ev in log.events if ev[0] in keep])


def _indexed_log(events):
    """The log of ``events``, users and items indexed from 1 in order of
    first appearance."""
    user_index, item_index = {}, {}
    for user, item, _, _ in events:
        user_index.setdefault(user, len(user_index) + 1)
        item_index.setdefault(item, len(item_index) + 1)
    return InteractionLog(events, user_index, item_index, [None, *user_index], [None, *item_index])


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

    ``padded`` holds each user's items, oldest first, after ``max_len``
    PADs, so row r's input is the window
    ``padded[starts[r]:starts[r] + max_len]``. Slices, integer arrays and
    boolean masks select rows into a table that shares ``padded``; an int
    index, like iteration, yields one ``Example``.
    """

    users: np.ndarray    # user index per example, int32
    targets: np.ndarray  # target item index per example, int32
    splits: np.ndarray   # code into SPLITS per example, int8
    starts: np.ndarray   # where each example's input window begins in padded, int32
    padded: np.ndarray   # int32
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
        """The B×T matrix of input windows, in one gather, as ``np.intp``."""
        return self.padded[self.starts[:, None] + np.arange(self.max_len)].astype(np.intp)


@dataclass
class SequenceDataset:
    """Per-user chronological sequences with leave-one-out examples.

    Each user's items, oldest first, are held once, as a slice of
    ``examples.padded``: user ``user_ids[k]`` has ``user_lengths[k]`` items
    from ``user_starts[k]`` on. ``user_ids`` ascends and also lists the users
    of fewer than 3 items, which give no example.
    """

    max_len: int
    num_items: int
    examples: ExampleTable
    item_counts: np.ndarray  # index -> interaction count, item_counts[PAD] == 0
    user_ids: np.ndarray
    user_starts: np.ndarray
    user_lengths: np.ndarray

    def split_examples(self, split):
        """The examples of one split, in dataset order."""
        code = SPLITS.index(split) if split in SPLITS else -1
        return self.examples[self.examples.splits == code]

    def sequences(self):
        """Each user's id and items, oldest first, in id order; the items are
        a view of ``examples.padded``."""
        padded = self.examples.padded
        for user, start, n in zip(self.user_ids.tolist(), self.user_starts.tolist(),
                                  self.user_lengths.tolist()):
            yield user, padded[start:start + n]

    @cached_property
    def popularity(self):
        """The distribution of every negative drawn for this dataset, built
        on first use: an empty log loads, and only a draw refuses it."""
        return PopularityDist(self.item_counts)

    def history_mask(self, users):
        """len(users) x (num_items + 1) boolean mask whose row i marks the
        items of user ``users[i]``: one gather from ``padded``, one scatter."""
        k = np.searchsorted(self.user_ids, users)
        lengths = self.user_lengths[k]
        at = np.arange(lengths.sum()) + np.repeat(self.user_starts[k] - _run_starts(lengths),
                                                  lengths)
        mask = np.zeros((len(k), self.num_items + 1), dtype=bool)
        mask[np.repeat(np.arange(len(k)), lengths), self.examples.padded[at]] = True
        return mask

    def save(self, path):
        """Write user sequences; examples are rebuilt deterministically on load."""
        with open(path, "w", encoding="utf-8") as fh:
            header = {
                "max_len": self.max_len,
                "num_items": self.num_items,
                "item_counts": self.item_counts.tolist(),
            }
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for user, items in self.sequences():
                fh.write(json.dumps({"user": user, "items": items.tolist()}) + "\n")

    @classmethod
    def load(cls, path):
        # a truncated or corrupt file surfaces as a JSON, key, type or value error
        with open(path, "r", encoding="utf-8") as fh:
            try:
                header = json.loads(fh.readline())
                max_len, num_items = header["max_len"], header["num_items"]
                # an empty log saves num_items 0; build_sequences needs max_len >= 2
                bounds = [("num_items", num_items, 0), ("max_len", max_len, 2)]
                bounds += [("item_counts", count, 0) for count in header["item_counts"]]
                for name, value, low in bounds:
                    if type(value) is not int or value < low:  # a JSON bool is no count
                        raise DataError(f"{path}: {name} {value!r} is not an integer >= {low}")
                item_counts = np.asarray(header["item_counts"], dtype=np.int64)
                if len(item_counts) != num_items + 1:
                    raise DataError(f"{path}: item_counts has {len(item_counts)} entries "
                                    f"for {num_items} items; expected {num_items + 1}")
                sequences = {}  # user -> items, each line's checked list as an int32 array
                for line in fh:
                    rec = json.loads(line)
                    user, items = rec["user"], rec["items"]
                    if type(user) is not int or not 0 <= user < 2 ** 31 or user in sequences:
                        raise DataError(f"{path}: user {user!r} is not an integer >= 0 "
                                        f"and < 2^31, or appears twice")
                    if not all(type(i) is int and 1 <= i <= num_items for i in items):
                        raise DataError(f"{path}: user {user} has a non-integer item "
                                        f"or one outside 1..{num_items}")
                    sequences[user] = np.fromiter(items, dtype=np.int32, count=len(items))
                users = sorted(sequences)
                lengths = np.array([len(sequences[u]) for u in users], dtype=np.intp)
                # popped, so no user's array outlives the one concatenation
                items = np.concatenate([np.empty(0, np.int32), *map(sequences.pop, users)])
                try:
                    return _dataset(np.array(users, dtype=np.intp), lengths, items,
                                    max_len, num_items, item_counts)
                except DataError as exc:  # the size refusal, which does not know the file
                    raise DataError(f"{path}: {exc}") from None
            except (KeyError, OverflowError, TypeError, ValueError) as exc:
                raise DataError(f"{path}: malformed dataset file: {exc!r}") from None


def _run_starts(lengths):
    """Offset of each run when runs of these lengths are laid end to end."""
    return np.cumsum(lengths) - lengths


def _dataset(user_ids, lengths, items, max_len, num_items, item_counts):
    """The dataset of the users ``user_ids`` (ascending, each < 2^31) whose
    int32 items, oldest first, are the consecutive runs of ``items`` of these
    ``lengths``.

    Each user's run goes into ``padded`` after ``max_len`` PADs. A user with
    n >= 3 items gives n - 1 examples, users in id order: the prefixes before
    seq[1] .. seq[n-3] (train), seq[n-2] (val) and seq[n-1] (test). Linear in
    the number of items; every example column is int32 but ``splits`` (int8).
    """
    size = len(items) + max_len * len(lengths)
    if size >= 2 ** 31:
        raise DataError(f"{len(items)} items and {len(lengths)} users of max_len {max_len} "
                        f"need {size} padded entries, past the int32 limit of 2^31 - 1")
    runs = _run_starts(lengths)
    padded = np.insert(items, np.repeat(runs, max_len), PAD)
    blocks = runs + max_len * np.arange(len(lengths))  # where each user's PADs begin in padded

    per_user = np.where(lengths >= 3, lengths - 1, 0)
    # a user's j-th example (from 0) ends its window right before seq[j + 1]
    starts = np.repeat((blocks - _run_starts(per_user) + 1).astype(np.int32), per_user)
    starts += np.arange(len(starts), dtype=np.int32)
    ends = np.cumsum(per_user)[per_user > 0]
    splits = np.zeros(len(starts), dtype=np.int8)  # train 0; each user's last two val 1, test 2
    splits[ends - 2], splits[ends - 1] = 1, 2
    examples = ExampleTable(np.repeat(user_ids.astype(np.int32), per_user),
                            padded[max_len:][starts], splits, starts, padded, max_len)
    return SequenceDataset(max_len, num_items, examples, item_counts,
                           user_ids, blocks + max_len, lengths)


def build_sequences(log, max_len):
    """Chronological leave-one-out split with left-padded fixed-length inputs;
    users with fewer than 3 events are dropped."""
    if max_len < 2:
        raise UsageError(f"max_len must be >= 2, got {max_len}")
    events, n = log.events, len(log.events)
    users = np.fromiter(map(log.user_index.__getitem__, map(itemgetter(0), events)),
                        dtype=np.int32, count=n)
    items = np.fromiter(map(log.item_index.__getitem__, map(itemgetter(1), events)),
                        dtype=np.int32, count=n)
    stamps = np.fromiter(map(itemgetter(2), events), dtype=np.int64, count=n)
    counts = np.bincount(items, minlength=log.num_items + 1)
    lengths = np.bincount(users, minlength=log.num_users + 1)
    # by user, then timestamp; lexsort is stable, so ties keep file order
    by_user = items[np.lexsort((stamps, users))]
    del users, items, stamps  # each column is past its last use
    kept = lengths >= 3
    return _dataset(np.flatnonzero(kept), lengths[kept], by_user[np.repeat(kept, lengths)],
                    max_len, log.num_items, counts)


_GUIDE_BUCKETS = 2 ** 14  # a power of two, so u * _GUIDE_BUCKETS is exact
_GUIDE_STEPS = 4  # linear steps from a bucket's guide before a binary search


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
        # the float sum can end just below 1, and a draw past its end would
        # map to an index beyond the vocabulary: the last observed item
        # takes that sliver, and every other draw keeps its item
        self.cumulative[np.flatnonzero(counts)[-1]:] = 1.0
        self.observed = counts > 0  # candidate mask; PAD is never observed
        # guide table (Chen & Asau, 1974): guide[j] is the item of the draw
        # j / M, so no draw in [j / M, (j + 1) / M) maps below it
        self.guide = np.searchsorted(self.cumulative,
                                     np.arange(_GUIDE_BUCKETS) / _GUIDE_BUCKETS, side="right")

    def lookup(self, u):
        """The item of each draw in ``u`` (an array of floats in [0, 1)),
        ``np.searchsorted(cumulative, u, side="right")`` exactly.

        Each draw starts at its bucket's guide and steps up while the
        cumulative sum at its item is <= the draw; the few draws still
        unresolved after ``_GUIDE_STEPS`` steps take a binary search.
        """
        u = np.asarray(u, dtype=np.float64)
        flat = u.reshape(-1)
        items = self.guide[(flat * _GUIDE_BUCKETS).astype(np.intp)]
        todo = np.flatnonzero(self.cumulative[items] <= flat)
        for _ in range(_GUIDE_STEPS):
            if not todo.size:
                break
            items[todo] += 1
            todo = todo[self.cumulative[items[todo]] <= flat[todo]]
        if todo.size:
            items[todo] = np.searchsorted(self.cumulative, flat[todo], side="right")
        return items.reshape(u.shape)


_REJECTION_ROUNDS = 40  # per row of sample_negatives, before its exact draw
TRAINING_REJECTION_ROUNDS = 200  # of train.sample_training_negatives, before it gives up


def _rejection_round(dist, free, rngs, need):
    """Each row draws ``2 * need`` items by popularity on its own generator
    and keeps, in draw order, each draw that ``free`` allows and that is new
    to the row, up to ``need``. Returns the draws and the kept mask."""
    b = len(rngs)
    u = np.array([rng.random(2 * need) for rng in rngs]).reshape(b, 2 * need)
    draws = dist.lookup(u)
    # first occurrences: a stable sort groups equal (row, item) keys in draw order
    keys = (np.arange(b)[:, None] * free.shape[1] + draws).reshape(-1)
    order = np.argsort(keys, kind="stable")
    first = np.ones(keys.size, dtype=bool)
    first[order[1:]] = keys[order[1:]] != keys[order[:-1]]
    kept = first.reshape(draws.shape) & free[np.arange(b)[:, None], draws]
    kept &= np.cumsum(kept, axis=1) <= need
    return draws, kept


def _finish_row(dist, free, chosen, n, rng, rounds):
    """Complete one row's ``chosen`` on its own: up to ``rounds`` more
    rejection rounds, then one exact draw renormalised over the candidates
    that remain, in index order. ``free`` is the row's candidate mask."""
    free[chosen] = False
    for _ in range(rounds):
        if len(chosen) == n:
            return chosen
        draws, kept = _rejection_round(dist, free[None], [rng], n - len(chosen))
        new = draws[kept]
        free[new] = False
        chosen.extend(new.tolist())
    if len(chosen) < n:
        remaining = np.flatnonzero(free)
        weights = dist.counts[remaining]
        extra = rng.choice(len(remaining), size=n - len(chosen), replace=False,
                           p=weights / weights.sum())
        chosen.extend(remaining[extra].tolist())
    return chosen


def sample_negatives(dist, excluded, n, rngs):
    """Draw ``n`` distinct items per row, popularity-weighted, outside the
    items that row i of the B x (V+1) boolean mask ``excluded`` marks and
    with its own generator ``rngs[i]``; returns a B x n array.

    A row's draws depend on its generator and exclusions alone. Rejection
    draws by popularity come first, up to 40 rounds of ``2 * (n - chosen)``
    draws; whatever is still missing comes from one exact draw,
    renormalised over the remaining candidates. The first round runs for
    every row at once; rows it leaves short go on alone.
    """
    free = dist.observed & ~excluded
    sizes = free.sum(axis=1)
    too_small = np.flatnonzero(sizes < n)
    if too_small.size:
        raise SamplingError(
            f"need {n} negatives but candidate pool has {sizes[too_small[0]]} items")

    out = np.empty((len(rngs), n), dtype=np.intp)
    # rejection sampling is fast while the pool dwarfs the request
    rejecting = np.flatnonzero(n * 3 <= sizes)
    draws, kept = _rejection_round(dist, free[rejecting], [rngs[i] for i in rejecting], n)
    done = kept.sum(axis=1) == n
    out[rejecting[done]] = draws[done][kept[done]].reshape(done.sum(), n)
    for i, row, row_kept in zip(rejecting[~done], draws[~done], kept[~done]):
        out[i] = _finish_row(dist, free[i], row[row_kept].tolist(), n, rngs[i],
                             _REJECTION_ROUNDS - 1)
    for i in np.flatnonzero(n * 3 > sizes):
        out[i] = _finish_row(dist, free[i], [], n, rngs[i], 0)
    return out


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
        raise UsageError(f"k_star must be in [1, seq_len), got {k_star}")
    if vocab < 4:
        raise UsageError(f"vocab must be >= 4, got {vocab}")
    if not 0.0 <= noise_rate < 1.0:
        raise UsageError(f"noise_rate must be in [0, 1), got {noise_rate}")

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
