"""Dataset ingestion, preprocessing, splits, and negative sampling."""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

log = logging.getLogger(__name__)

GENERIC_TSV = "generic-tsv"
MOVIELENS_100K = "movielens-100k"

# rating >= this threshold counts as a positive label for movielens-100k
MOVIELENS_POSITIVE_THRESHOLD = 4


@dataclass
class InteractionRecord:
    user: str
    item: str
    label: int | None = None
    timestamp: int | None = None


@dataclass
class ListRecord:
    items: list


class Vocabulary:
    """Bijective raw-id <-> contiguous-index map, first-seen order, frozen after build."""

    def __init__(self, ids=()):
        self._to_index = {}
        self._to_id = []
        self._frozen = False
        for raw in ids:
            self.add(raw)

    def add(self, raw: str) -> int:
        if raw in self._to_index:
            return self._to_index[raw]
        if self._frozen:
            raise KeyError(f"vocabulary is frozen; unknown id {raw!r}")
        idx = len(self._to_id)
        self._to_index[raw] = idx
        self._to_id.append(raw)
        return idx

    def freeze(self):
        self._frozen = True
        return self

    def index(self, raw: str) -> int:
        return self._to_index[raw]

    def raw(self, idx: int) -> str:
        return self._to_id[idx]

    def __len__(self) -> int:
        return len(self._to_id)


@dataclass
class SplitDataset:
    train: list
    validation: list
    test: list


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def read_lines(path, error=DataError):
    """(line number, line) for each line of a UTF-8 text file, split as open(newline="") splits.

    Bytes that are not UTF-8 raise ``error`` naming the file and the line.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            # surrogateescape decodes each byte that is not UTF-8 to U+DC80..U+DCFF, never ASCII
            if not line.isascii() and re.search("[\udc80-\udcff]", line):
                raise error(f"{path}: line {lineno}: not valid UTF-8")
            yield lineno, line


def load_interactions(path, fmt: str = GENERIC_TSV) -> list:
    """Parse an interaction file.

    generic-tsv lines: user <TAB> item [<TAB> label [<TAB> timestamp]]
    movielens-100k lines: user <TAB> item <TAB> rating <TAB> timestamp,
    with the rating binarized at >= MOVIELENS_POSITIVE_THRESHOLD.
    """
    if fmt not in (GENERIC_TSV, MOVIELENS_100K):
        raise DataError(f"unknown interaction format {fmt!r}")
    records = []
    for lineno, line in read_lines(path):
        line = line.rstrip("\r\n")
        if not line:
            continue
        fields = line.split("\t")
        try:
            if fmt == GENERIC_TSV:
                if not 2 <= len(fields) <= 4:
                    raise ValueError(f"expected 2-4 tab-separated fields, got {len(fields)}")
                user, item = fields[0], fields[1]
                label = None
                ts = None
                if len(fields) >= 3 and fields[2] != "":
                    label = int(fields[2])
                    if label not in (0, 1):
                        raise ValueError(f"label must be 0 or 1, got {label}")
                if len(fields) == 4 and fields[3] != "":
                    ts = int(fields[3])
            else:
                if len(fields) != 4:
                    raise ValueError(f"expected 4 tab-separated fields, got {len(fields)}")
                user, item = fields[0], fields[1]
                rating = int(fields[2])
                label = 1 if rating >= MOVIELENS_POSITIVE_THRESHOLD else 0
                ts = int(fields[3])
            if not user or not item:
                raise ValueError("empty user or item id")
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from exc
        records.append(InteractionRecord(user=user, item=item, label=label, timestamp=ts))
    if not records:
        raise DataError(f"{path}: no interaction records")
    return records


def load_lists(path) -> list:
    """One whitespace-separated item list per line; empty lines are skipped."""
    lists = []
    skipped = 0
    for _, line in read_lines(path):
        items = line.split()
        if not items:
            skipped += 1
            continue
        lists.append(ListRecord(items=items))
    if skipped:
        log.warning("%s: skipped %d empty line(s)", path, skipped)
    return lists


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------


def preprocess_lists(lists, min_freq: int, min_len: int, max_len: int) -> list:
    """Iterate frequency filtering and length trimming to a fixed point.

    Each pass drops items whose global frequency is below min_freq, truncates
    lists longer than max_len (keeping the prefix), and drops lists shorter
    than min_len.  The item multiset shrinks monotonically, so this
    terminates.
    """
    if min_freq < 1:
        raise ValueError("min_freq must be >= 1")
    if not 1 <= min_len <= max_len:
        raise ValueError("need 1 <= min_len <= max_len")
    current = [list(rec.items) if isinstance(rec, ListRecord) else list(rec) for rec in lists]
    while True:
        freq = {}
        for items in current:
            for it in items:
                freq[it] = freq.get(it, 0) + 1
        filtered = [[it for it in items if freq[it] >= min_freq] for items in current]
        trimmed = [items[:max_len] for items in filtered]
        kept = [items for items in trimmed if len(items) >= min_len]
        if kept == current:
            return [ListRecord(items=items) for items in kept]
        current = kept


def split_list(items) -> tuple:
    """Divide a list into (input, target) halves; the input gets the extra item."""
    items = list(items.items) if isinstance(items, ListRecord) else list(items)
    if len(items) < 2:
        raise ValueError(f"cannot split a list of length {len(items)}")
    cut = (len(items) + 1) // 2
    return items[:cut], items[cut:]


def partition_lists(records, rng) -> SplitDataset:
    """Seeded shuffle then a contiguous 80/10/10 cut (floor for val/test)."""
    records = list(records)
    if not records:
        raise ValueError("nothing to partition")
    gen = rng.stream("partition") if hasattr(rng, "stream") else rng
    order = gen.permutation(len(records))
    shuffled = [records[i] for i in order]
    n_val = n_test = len(records) // 10
    n_train = len(records) - n_val - n_test
    return SplitDataset(
        train=shuffled[:n_train],
        validation=shuffled[n_train:n_train + n_val],
        test=shuffled[n_train + n_val:],
    )


def leave_one_out(interactions) -> SplitDataset:
    """Per-user holdout: last positive to test, second-last to validation.

    Positives are records whose label is 1 or absent.  Ordering is by
    timestamp when present, with file order breaking ties.  Users with fewer
    than 3 positives contribute everything to train.  Negative-labelled
    records always stay in train.
    """
    by_user = {}
    for pos_in_file, rec in enumerate(interactions):
        by_user.setdefault(rec.user, []).append((pos_in_file, rec))
    train, val, test = [], [], []
    for user in by_user:
        entries = by_user[user]
        positives = [(i, r) for i, r in entries if r.label is None or r.label == 1]
        negatives = [r for _, r in entries if r.label == 0]
        train.extend(negatives)
        if len(positives) < 3:
            train.extend(r for _, r in positives)
            continue
        positives.sort(key=lambda ir: (ir[1].timestamp if ir[1].timestamp is not None else 0, ir[0]))
        train.extend(r for _, r in positives[:-2])
        val.append(positives[-2][1])
        test.append(positives[-1][1])
    return SplitDataset(train=train, validation=val, test=test)


def sample_negatives(user, n: int, vocab_size: int, positives, rng: np.random.Generator) -> list:
    """n distinct uniform draws from the items outside the user's positive set.

    Rejection sampling in bulk rounds: each round draws as many values as
    items are still missing and scans them in order.  A draw accepts at most
    one item, so no round draws past the value where one-at-a-time sampling
    would stop; the result and the generator's final state equal those of n
    accepted scalar ``rng.integers(0, vocab_size)`` calls.
    """
    seen = set(positives)
    eligible = vocab_size - len(seen)
    if eligible < n:
        raise DataError(f"user {user!r}: only {eligible} non-positive items, need {n}")
    chosen = []
    while len(chosen) < n:
        for draw in rng.integers(0, vocab_size, size=n - len(chosen)).tolist():
            if draw not in seen:
                seen.add(draw)
                chosen.append(draw)
    return chosen
