"""Dataset ingestion (interaction files as columns), preprocessing, splits, and negative sampling."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .rng import SeededRng

log = logging.getLogger(__name__)

GENERIC_TSV = "generic-tsv"
MOVIELENS_100K = "movielens-100k"

# rating >= this threshold counts as a positive label for movielens-100k
MOVIELENS_POSITIVE_THRESHOLD = 4


@dataclass
class InteractionColumns:
    """An interaction file as columns: entry r of each column is the file's r-th record."""

    users: list                  # raw user id
    items: list                  # raw item id
    labels: np.ndarray           # int64: 0 a negative, 1 a positive
    timestamps: list             # int of any size, or None where the field is missing or empty


class Vocabulary:
    """Bijective raw-id <-> contiguous-index map in first-seen order; an unknown id raises KeyError."""

    def __init__(self, ids=()):
        self.ids = list(dict.fromkeys(ids))  # the raw id of each index
        self._to_index = dict(zip(self.ids, range(len(self.ids))))

    def indices(self, raws) -> np.ndarray:
        """The index of each raw id of a sequence, as an int64 array."""
        return np.fromiter(map(self._to_index.__getitem__, raws), np.int64, len(raws))

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class SplitDataset:
    train: list                  # leave_one_out gives row-index arrays, partition_lists lists of records
    validation: list
    test: list


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def _read_text(path) -> tuple:
    """(data, bad): a file's bytes with each line ending made "\n", up to its first line that is not UTF-8.

    Lines end as open(newline="") ends them, at "\r\n", "\r" or "\n".  bad
    is the number of the first line holding bytes that are not UTF-8, or
    None; data then holds only the lines before it.
    """
    with open(path, "rb") as fh:
        data = fh.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return data[:data.rfind(b"\n", 0, exc.start) + 1], data.count(b"\n", 0, exc.start) + 1
    return data, None


def read_lines(path, error=DataError):
    """(line number, line) for each line of a UTF-8 text file, split as open(newline="") splits.

    Lines come without their terminators.  Bytes that are not UTF-8 raise
    ``error`` naming the file and the line, once every line before it has
    been yielded.
    """
    data, bad = _read_text(path)
    lines = data.decode("utf-8").split("\n")
    if lines[-1] == "":  # the text after the last terminator, or an empty file
        lines.pop()
    yield from enumerate(lines, start=1)
    if bad is not None:
        raise error(f"{path}: line {bad}: not valid UTF-8")


def _tab_columns(data: bytes, n: int) -> tuple:
    """(line numbers, field counts, columns) of the non-blank lines of UTF-8 text split at "\n".

    The columns are lists of the first n tab-separated fields of those
    lines; a missing field reads as "".
    """
    # every field of the text in one list: a line's fields follow those of the lines before it
    fields = data.decode("utf-8").replace("\n", "\t").split("\t")
    fields.append("")
    codes = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero(codes == ord("\n"))
    if not data.endswith(b"\n"):
        ends = np.append(ends, len(data))  # the last line has no terminator
    widths = np.bincount(np.searchsorted(ends, np.flatnonzero(codes == ord("\t"))), minlength=len(ends)) + 1
    first = np.cumsum(widths) - widths
    kept = np.diff(ends, prepend=-1) > 1
    widths, first = widths[kept], first[kept]
    columns = [list(map(fields.__getitem__, np.where(widths > k, first + k, len(fields) - 1).tolist()))
               for k in range(n)]
    return np.flatnonzero(kept) + 1, widths, columns


def _generic_label(text: str) -> int:
    if text == "":
        return 1
    label = int(text)
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label}")
    return label


def _rating_label(text: str) -> int:
    return 1 if int(text) >= MOVIELENS_POSITIVE_THRESHOLD else 0


def _optional_int(text: str):
    return None if text == "" else int(text)


# per format: the allowed field counts, and the parsers of the third and fourth fields
_FORMATS = {
    GENERIC_TSV: ((2, 4), "2-4", _generic_label, _optional_int),
    MOVIELENS_100K: ((4, 4), "4", _rating_label, int),
}


def _parse_column(column, parse) -> tuple:
    """parse() of each distinct string of a column: (value table, (first failing row, message) or None)."""
    values, failed = {}, {}
    for text in set(column):
        try:
            values[text] = parse(text)
        except ValueError as exc:
            failed[text] = str(exc)
    if not failed:
        return values, None
    row = next(r for r, text in enumerate(column) if text in failed)
    return values, (row, failed[column[row]])


def load_interactions(path, fmt: str = GENERIC_TSV) -> InteractionColumns:
    """Parse an interaction file into columns, one entry per non-blank line in file order.

    generic-tsv lines: user <TAB> item [<TAB> label [<TAB> timestamp]]; no label is 1.
    movielens-100k lines: user <TAB> item <TAB> rating <TAB> timestamp,
    with the rating binarized at >= MOVIELENS_POSITIVE_THRESHOLD.

    Each line is checked in this order: UTF-8, field count, label (or
    rating), timestamp, then non-empty ids; the error names the first line
    failing a check and that line's first failing check.  Each distinct
    label, rating and timestamp string is parsed once, with Python ``int()``.
    """
    if fmt not in _FORMATS:
        raise DataError(f"unknown interaction format {fmt!r}")
    (low, high), counts, parse_label, parse_time = _FORMATS[fmt]
    data, bad = _read_text(path)
    numbers, widths, (users, items, label_texts, time_texts) = _tab_columns(data, 4)

    # each check's first failing row, or None, in the order the checks run on a line
    wrong = np.flatnonzero((widths < low) | (widths > high))
    width_failure = None
    if wrong.size:
        width_failure = int(wrong[0]), f"expected {counts} tab-separated fields, got {widths[wrong[0]]}"
    label_of, label_failure = _parse_column(label_texts, parse_label)
    time_of, time_failure = _parse_column(time_texts, parse_time)
    empty = [ids.index("") for ids in (users, items) if "" in ids]
    id_failure = (min(empty), "empty user or item id") if empty else None
    failures = [f for f in (width_failure, label_failure, time_failure, id_failure) if f is not None]
    if failures:
        row, message = min(failures, key=lambda f: f[0])  # min keeps the earlier check of a row
        raise DataError(f"{path}: line {numbers[row]}: {message}")
    if bad is not None:
        raise DataError(f"{path}: line {bad}: not valid UTF-8")
    if not users:
        raise DataError(f"{path}: no interaction records")
    labels = np.fromiter(map(label_of.__getitem__, label_texts), np.int64, len(users))
    return InteractionColumns(users, items, labels, list(map(time_of.__getitem__, time_texts)))


def load_lists(path) -> list:
    """One whitespace-separated item list per line, as a list of raw ids; empty lines are skipped."""
    lists = []
    skipped = 0
    for _, line in read_lines(path):
        items = line.split()
        if not items:
            skipped += 1
            continue
        lists.append(items)
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
    current = [list(items) for items in lists]
    while True:
        freq = {}
        for items in current:
            for it in items:
                freq[it] = freq.get(it, 0) + 1
        filtered = [[it for it in items if freq[it] >= min_freq] for items in current]
        trimmed = [items[:max_len] for items in filtered]
        kept = [items for items in trimmed if len(items) >= min_len]
        if kept == current:
            return kept
        current = kept


def split_list(items) -> tuple:
    """Divide a list into (input, target) halves; the input gets the extra item."""
    if len(items) < 2:
        raise ValueError(f"cannot split a list of length {len(items)}")
    cut = (len(items) + 1) // 2
    return items[:cut], items[cut:]


def partition_lists(records, rng: SeededRng) -> SplitDataset:
    """Seeded shuffle then a contiguous 80/10/10 cut (floor for val/test)."""
    records = list(records)
    if not records:
        raise ValueError("nothing to partition")
    order = rng.stream("partition").permutation(len(records))
    shuffled = [records[i] for i in order]
    n_val = n_test = len(records) // 10
    n_train = len(records) - n_val - n_test
    return SplitDataset(
        train=shuffled[:n_train],
        validation=shuffled[n_train:n_train + n_val],
        test=shuffled[n_train + n_val:],
    )


def leave_one_out(users: np.ndarray, labels: np.ndarray, timestamps) -> SplitDataset:
    """Per-user holdout over columns: last positive to test, second-last to validation.

    ``users`` holds each row's user index, numbered in first-seen order as
    Vocabulary numbers them; a row is a negative if its label is 0 and a
    positive otherwise; a timestamp is an int of any size or None, which
    sorts as 0.  Returns the split as arrays of row indices.  Train takes
    the users in index order: each user's negatives in row order, then its
    positives sorted by (timestamp, row), all but the last two, which go to
    validation and test.  A user with fewer than 3 positives keeps them all
    in train, in row order.
    """
    # rank the distinct timestamps, so that any int sorts exactly as Python compares it
    keys = {t: 0 if t is None else t for t in set(timestamps)}
    rank = {key: r for r, key in enumerate(sorted(set(keys.values())))}
    rank = {t: rank[key] for t, key in keys.items()}
    times = np.fromiter(map(rank.__getitem__, timestamps), np.int64, len(timestamps))
    positive = labels != 0
    n_positives = np.bincount(users, weights=positive)
    timed = positive & (n_positives[users] >= 3)  # only their positives are ordered by time
    order = np.lexsort((np.where(timed, times, 0), positive, users))  # stable: ties keep row order
    by_user = users[order]
    last = np.flatnonzero(np.diff(by_user, append=-1))  # each user's last row, a positive if it has one
    last = last[n_positives[by_user[last]] >= 3]
    keep = np.ones(len(users), dtype=bool)
    keep[last] = keep[last - 1] = False
    return SplitDataset(train=order[keep], validation=order[last - 1], test=order[last])


def sample_negatives(excluded, n: int, n_items: int, rng: np.random.Generator) -> list:
    """n distinct uniform items of [0, n_items) outside each row's excluded set, as one flat list.

    excluded holds one set of items per row; row r's items are at
    [r * n, (r + 1) * n).  Rejection sampling in bulk rounds over all rows:
    each round draws as many values as slots are still open and scans them
    in order, and a draw fills at most one slot.  So no round draws past the
    value where one-at-a-time sampling would stop: the items, and the
    generator's final state, are those of scalar ``rng.integers(0, n_items)``
    calls made row after row.  A row with fewer than n items outside its
    set raises DataError before anything is drawn.
    """
    excluded = list(excluded)
    for row, seen in enumerate(excluded):
        if n_items - len(seen) < n:
            raise DataError(f"row {row}: only {n_items - len(seen)} non-positive items, need {n}")
    total = n * len(excluded)
    chosen = []
    row, end, seen = 0, n, None
    while len(chosen) < total:
        for draw in rng.integers(0, n_items, size=total - len(chosen)).tolist():
            if seen is None:  # the row's first draw; with n == 1 its set gets no additions, so it is not copied
                seen = excluded[row] if n == 1 else set(excluded[row])
            if draw in seen:
                continue
            chosen.append(draw)
            if len(chosen) == end:
                row, end, seen = row + 1, end + n, None
            else:
                seen.add(draw)
    return chosen
