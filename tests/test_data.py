import random
import re
from dataclasses import dataclass

import numpy as np
import pytest

from treequant.config import config_from_dict
from treequant.data import (Vocabulary, leave_one_out, load_interactions, load_lists, partition_lists,
                            preprocess_lists, read_lines, sample_negatives, split_list)
from treequant.errors import DataError
from treequant.rng import SeededRng
from treequant.train import prepare_interactions

from oracles import CountingGen

_DRAW_LIMIT = 300_000  # values one sampler test may draw; the most any test draws is about 212,000


class TestLoadInteractions:
    def test_single_generic_line(self, tmp_path):
        p = tmp_path / "i.tsv"
        p.write_text("u1\ti9\t1\n")
        cols = load_interactions(p, "generic-tsv")
        assert _records(cols) == [("u1", "i9", 1, None)]
        # no label field, or an empty one, loads as label 1; a blank line is skipped
        p.write_text("u1\ti9\n\nu2\ti8\t\t4\n")
        assert _records(load_interactions(p, "generic-tsv")) == [("u1", "i9", 1, None), ("u2", "i8", 1, 4)]

    def test_movielens_binarization(self, tmp_path):
        p = tmp_path / "u.data"
        p.write_text("196\t242\t3\t881250949\n186\t302\t4\t891717742\n")
        cols = load_interactions(p, "movielens-100k")
        assert cols.labels[0] == 0  # rating 3 < threshold 4
        assert cols.labels[1] == 1
        assert cols.timestamps[0] == 881250949

    def test_malformed_line_names_line_number(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("lonely\n")
        with pytest.raises(DataError, match="line 1"):
            load_interactions(p, "generic-tsv")
        for fmt, text, why in [
                ("movielens-100k", "1\t2\t5\t9\n1\t2\t5\n", "expected 4 tab-separated fields, got 3"),
                ("generic-tsv", "u1\ti1\n\ti2\t1\n", "empty user or item id")]:
            p.write_text(text)
            with pytest.raises(DataError, match=rf"bad\.tsv: line 2: {why}$"):
                load_interactions(p, fmt)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.tsv"
        p.write_text("")
        with pytest.raises(DataError):
            load_interactions(p, "generic-tsv")

    def test_crlf_tolerated(self, tmp_path):
        p = tmp_path / "crlf.tsv"
        p.write_bytes(b"u1\ti1\t1\t5\r\nu2\ti2\t0\t6\r\n")
        cols = load_interactions(p, "generic-tsv")
        assert len(cols.users) == 2
        assert cols.timestamps[1] == 6

    def test_unknown_format_rejected(self, tmp_path):
        p = tmp_path / "i.csv"
        p.write_text("u1,i1\n")
        with pytest.raises(DataError, match="unknown interaction format 'csv'"):
            load_interactions(p, "csv")

    def test_bad_label_rejected(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("u1\ti1\t7\n")
        with pytest.raises(DataError, match="line 1"):
            load_interactions(p, "generic-tsv")

    def test_non_utf8_names_file_and_line(self, tmp_path):
        # the bad byte sits past the text layer's first 8 KiB decode chunk
        p = tmp_path / "latin1.tsv"
        p.write_bytes(b"u1\ti1\n" * 3000 + b"u2\ti\xe92\n" + b"u3\ti3\n")
        with pytest.raises(DataError, match=r"latin1\.tsv: line 3001: not valid UTF-8"):
            load_interactions(p, "generic-tsv")


class TestLoadLists:
    def test_single_line(self, tmp_path):
        p = tmp_path / "l.txt"
        p.write_text("a b c\n")
        lists = load_lists(p)
        assert lists == [["a", "b", "c"]]

    def test_order_preserved(self, tmp_path):
        p = tmp_path / "l.txt"
        p.write_text("x y\nz\n")
        lists = load_lists(p)
        assert lists == [["x", "y"], ["z"]]

    def test_empty_lines_skipped(self, tmp_path):
        p = tmp_path / "l.txt"
        p.write_text("a b\n\n c d \n")
        lists = load_lists(p)
        assert lists == [["a", "b"], ["c", "d"]]

    def test_non_utf8_names_file_and_line(self, tmp_path):
        p = tmp_path / "l.txt"
        p.write_bytes(b"a b\r\nc d\rx \xff y\n")
        with pytest.raises(DataError, match=r"l\.txt: line 3: not valid UTF-8"):
            load_lists(p)

    def test_round_trip(self, tmp_path):
        gen = np.random.default_rng(3)
        original = [[f"i{gen.integers(100)}" for _ in range(int(gen.integers(1, 8)))] for _ in range(10)]
        p = tmp_path / "rt.txt"
        p.write_text("".join(" ".join(items) + "\n" for items in original))
        assert load_lists(p) == original


class TestPreprocessLists:
    def test_noop_when_all_pass(self):
        lists = [["a", "b"], ["a", "c"], ["b", "c"]]
        out = preprocess_lists(lists, min_freq=1, min_len=2, max_len=10)
        assert out == lists

    def test_hand_traced_cascade_to_empty(self):
        lists = [["1", "2"], ["2", "3"], ["3"]]
        out = preprocess_lists(lists, min_freq=2, min_len=2, max_len=10)
        assert out == []

    def test_output_is_fixed_point(self):
        gen = np.random.default_rng(17)
        for _ in range(20)        :
            lists = [[str(gen.integers(12)) for _ in range(int(gen.integers(1, 15)))]
                     for _ in range(int(gen.integers(1, 30)))]
            out = preprocess_lists(lists, min_freq=3, min_len=2, max_len=6)
            again = preprocess_lists(out, min_freq=3, min_len=2, max_len=6)
            assert again == out

    def test_truncation_keeps_prefix(self):
        lists = [["a", "b", "c", "d"]] * 3
        out = preprocess_lists(lists, min_freq=1, min_len=1, max_len=2)
        assert all(l == ["a", "b"] for l in out)


class TestSplitList:
    def test_even(self):
        first, second = split_list(list(range(10)))
        assert len(first) == 5 and len(second) == 5

    def test_odd_gives_input_the_extra(self):
        first, second = split_list(list(range(9)))
        assert len(first) == 5 and len(second) == 4
        assert first + second == list(range(9))

    def test_minimum(self):
        assert split_list([1, 2]) == ([1], [2])

    def test_too_short(self):
        with pytest.raises(ValueError):
            split_list([1])


class TestPartition:
    def test_exact_ratio(self):
        ds = partition_lists(list(range(10)), SeededRng(0))
        assert (len(ds.train), len(ds.validation), len(ds.test)) == (8, 1, 1)

    def test_floor_rule(self):
        ds = partition_lists(list(range(12)), SeededRng(0))
        assert (len(ds.train), len(ds.validation), len(ds.test)) == (10, 1, 1)

    def test_deterministic(self):
        a = partition_lists(list(range(50)), SeededRng(9))
        b = partition_lists(list(range(50)), SeededRng(9))
        assert a.train == b.train and a.validation == b.validation and a.test == b.test

    def test_is_a_partition(self):
        ds = partition_lists(list(range(37)), SeededRng(2))
        combined = sorted(ds.train + ds.validation + ds.test)
        assert combined == list(range(37))


class TestLeaveOneOut:
    def _split(self, rows):
        """leave_one_out over (user, item, ts, label) rows; the items of train, validation and test."""
        users, items, stamps, labels = zip(*rows)
        ds = leave_one_out(Vocabulary(users).indices(users), np.array(labels), list(stamps))
        return [[items[r] for r in part] for part in (ds.train, ds.validation, ds.test)]

    def test_three_positives(self):
        train, val, test = self._split([("u", f"i{k}", k, 1) for k in range(3)])
        assert train == ["i0"]
        assert val == ["i1"]
        assert test == ["i2"]

    def test_two_positives_all_train(self):
        train, val, test = self._split([("u", "a", None, 1), ("u", "b", None, 1)])
        assert len(train) == 2 and not val and not test

    def test_timestamp_ties_use_file_order(self):
        rows = [("u", f"i{k}", 7, 1) for k in range(4)]
        a, b = self._split(rows), self._split(rows)
        assert a[2] == b[2] == ["i3"]
        assert a[1] == ["i2"]

    def test_negatives_stay_in_train(self):
        rows = [("u", f"i{k}", k, 1) for k in range(3)] + [("u", "neg", 99, 0)]
        train, _, test = self._split(rows)
        assert "neg" in train
        assert test == ["i2"]


def _bounded(gen):
    """A seed's generator, or gen, behind a draw count: a sampler that never terminates fails the test
    instead of hanging the suite."""
    return CountingGen(np.random.default_rng(gen) if isinstance(gen, int) else gen, limit=_DRAW_LIMIT)


class TestSampleNegatives:
    def test_forced_choice(self):
        gen = _bounded(0)
        assert sample_negatives([{0, 1, 2, 3}], 1, 5, gen) == [4]

    def test_deterministic_under_seed(self):
        a = sample_negatives([{3}, {4}], 5, 100, _bounded(42))
        b = sample_negatives([{3}, {4}], 5, 100, _bounded(42))
        assert a == b

    def test_never_returns_positives(self):
        gen = _bounded(1)
        positives = set(range(0, 50, 2))
        sampled = sample_negatives([positives] * 100, 10, 50, gen)
        assert len(sampled) == 1000
        for row in range(100):
            items = sampled[row * 10:(row + 1) * 10]
            assert not set(items) & positives
            assert len(set(items)) == 10

    def test_insufficient_pool(self):
        with pytest.raises(ValueError):
            sample_negatives([{0, 1, 2}], 3, 5, _bounded(0))

    def test_uniformity(self):
        gen = _bounded(7)
        counts = np.bincount(sample_negatives([set()] * 10000, 1, 10, gen), minlength=10)
        # each ~ Binomial(10000, 0.1): 3 sigma ~ 90
        assert np.all(np.abs(counts - 1000) < 3 * np.sqrt(10000 * 0.1 * 0.9))


class TestVocabulary:
    def test_round_trip_identity(self):
        v = Vocabulary(["b", "a", "c", "a"])
        assert len(v) == 3
        assert v.indices(v.ids).tolist() == list(range(len(v)))

    def test_first_seen_order(self):
        v = Vocabulary(["z", "m", "a"])
        assert v.ids == ["z", "m", "a"]
        assert v.indices(("a", "z", "a")).tolist() == [2, 0, 2]

    def test_unknown_id_raises_key_error(self):
        v = Vocabulary(["a"])
        with pytest.raises(KeyError):
            v.indices(["a", "b"])


def test_sample_negatives_shortage_is_data_error():
    with pytest.raises(DataError, match="only 2 non-positive items, need 3"):
        sample_negatives([{0, 1, 2}], 3, 5, _bounded(0))


def scalar_sample_negatives(user, n, vocab_size, positives, rng):
    """One scalar draw per iteration: the loop bulk sampling must reproduce."""
    positives = set(positives)
    eligible = vocab_size - len(positives)
    if eligible < n:
        raise DataError(f"user {user!r}: only {eligible} non-positive items, need {n}")
    chosen = []
    seen = set(positives)
    while len(chosen) < n:
        draw = int(rng.integers(0, vocab_size))
        if draw in seen:
            continue
        seen.add(draw)
        chosen.append(draw)
    return chosen


def _sampler_cases(seed):
    """(n, vocab_size, positives) cases drawn from one seed."""
    gen = np.random.default_rng(10_000 + seed)
    heavy = set(gen.choice(200, size=180, replace=False).tolist())
    exact = set(gen.choice(30, size=20, replace=False).tolist())
    return [
        (1, 50, set(range(10))),                                # n = 1
        (10, 30, exact),                                        # eligible == n
        (15, 200, heavy),                                       # heavy positive set
        (20, 200, heavy),                                       # heavy and eligible == n
        (2, 3, {1}),                                            # tiny vocabulary
        (1, 2, set()),
        (99, 3000, set(gen.choice(3000, size=40, replace=False).tolist())),
        (99, 2**32, {0, 2**32 - 1}),                            # full 32-bit range
        (99, 2**32 + 1, {2**32}),
        (99, 2**33 + 5, {0, 7, 2**33 + 4}),                     # vocab_size > 2**32
        (0, 10, {1}),
    ]


def scalar_rows(excluded, n, vocab_size, rng):
    """scalar_sample_negatives row after row on one generator, flattened as sample_negatives returns them."""
    return [item for row, positives in enumerate(excluded)
            for item in scalar_sample_negatives(row, n, vocab_size, positives, rng)]


def _mixed_rows(seed, n, vocab_size):
    """Excluded sets that mix empty, sparse, heavy and exactly-n-eligible rows, in a seeded order."""
    gen = np.random.default_rng(30_000 + seed)
    kinds = [set(), {0}, {vocab_size - 1},
             set(gen.choice(min(vocab_size, 10**6), size=min(40, vocab_size - n), replace=False).tolist()),
             set(range(vocab_size - n)) if vocab_size <= 10**4 else {5}]
    return [kinds[k] for k in gen.integers(0, len(kinds), size=int(gen.integers(1, 30))).tolist()]


class TestBulkSamplingOracle:
    """sample_negatives draws in bulk; the values and the generator state stay those of the scalar loop."""

    @pytest.mark.parametrize("seed", range(40))
    def test_each_case_matches_scalar_loop(self, seed):
        for n, vocab_size, positives in _sampler_cases(seed):
            got_gen, want_gen = _bounded(seed), np.random.default_rng(seed)
            got = sample_negatives([positives], n, vocab_size, got_gen)
            want = scalar_sample_negatives("u", n, vocab_size, positives, want_gen)
            assert got == want, (n, vocab_size)
            assert got_gen.bit_generator.state == want_gen.bit_generator.state, (n, vocab_size)

    @pytest.mark.parametrize("seed", range(20))
    def test_consecutive_calls_share_one_generator(self, seed):
        got_gen, want_gen = _bounded(seed), np.random.default_rng(seed)
        for case, (n, vocab_size, positives) in enumerate(_sampler_cases(seed) * 2):
            got = sample_negatives([positives], n, vocab_size, got_gen)
            want = scalar_sample_negatives("u", n, vocab_size, positives, want_gen)
            assert got == want
            if case % 3 == 0:  # other consumers draw from the same generator in between
                assert got_gen.integers(0, 7) == want_gen.integers(0, 7)
                assert got_gen.random() == want_gen.random()
        assert got_gen.bit_generator.state == want_gen.bit_generator.state

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("n, vocab_size", [(1, 40), (3, 40), (99, 130), (99, 3000), (2, 2**33 + 5)])
    def test_rows_with_mixed_sets_match_scalar_rows(self, seed, n, vocab_size):
        excluded = _mixed_rows(seed, n, vocab_size)
        got_gen, want_gen = _bounded(seed), np.random.default_rng(seed)
        got = sample_negatives(excluded, n, vocab_size, got_gen)
        assert got == scalar_rows(excluded, n, vocab_size, want_gen)
        assert got_gen.bit_generator.state == want_gen.bit_generator.state

    def test_project_stream_matches_scalar_loop(self):
        got_gen, want_gen = _bounded(SeededRng(5).stream("eval-negatives")), SeededRng(5).stream("eval-negatives")
        excluded = [set(range(user, 3000, 97)) for user in range(50)]
        assert sample_negatives(excluded, 99, 3000, got_gen) == scalar_rows(excluded, 99, 3000, want_gen)
        assert got_gen.bit_generator.state == want_gen.bit_generator.state

    def test_shortage_draws_nothing(self):
        gen = _bounded(0)
        before = gen.bit_generator.state
        with pytest.raises(DataError, match=re.escape("row 2: only 2 non-positive items, need 3")):
            sample_negatives([set(), {4}, {0, 1, 2}, set()], 3, 5, gen)
        assert gen.bit_generator.state == before

    def test_positive_set_not_mutated(self):
        positives = {0, 1}
        for n in (1, 3):  # n == 1 reads a row's own set
            sample_negatives([positives, positives], n, 6, _bounded(0))
        assert positives == {0, 1}


_DRAW_BOUNDS = [2, 3, 7, 100, 3000, 2**31 - 1, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**33]


class TestBufferedDraws:
    """One sample_negatives call draws all of its rows in bulk rounds; at every bound its values are those
    of direct and of scalar rng.integers calls, however the rows are split into calls."""

    @pytest.mark.parametrize("high", _DRAW_BOUNDS)
    def test_equals_direct_calls(self, high):
        # with nothing excluded and one item per row, a call of k rows is one integers(0, high, size=k)
        sizes_gen = np.random.default_rng(high % 1000)
        sizes = [4095, 1, 2, 0, 3 * 4096, 4094, 3, 4097] + sizes_gen.integers(0, 2 * 4096 + 2, size=40).tolist()
        got_gen, want_gen = _bounded(high), np.random.default_rng(high)
        for size in sizes:
            assert sample_negatives([()] * size, 1, high, got_gen) == want_gen.integers(0, high, size=size).tolist()
        assert got_gen.bit_generator.state == want_gen.bit_generator.state

    @pytest.mark.parametrize("high", _DRAW_BOUNDS)
    def test_equals_scalar_calls(self, high):
        # rows that reject the bound's first or last value, split into calls of 1, 40, 2 and 3 rows
        rows = [set(), {0}, {high - 1}] * 16
        got_gen, want_gen = _bounded(7), np.random.default_rng(7)
        got = [v for start, stop in ((0, 1), (1, 41), (41, 43), (43, 46))
               for v in sample_negatives(rows[start:stop], 1, high, got_gen)]
        assert got == scalar_rows(rows[:46], 1, high, want_gen)
        assert got_gen.bit_generator.state == want_gen.bit_generator.state

    def test_sampler_over_a_source_equals_the_scalar_loop(self):
        got_gen, want_gen = _bounded(SeededRng(5).stream("eval-negatives")), SeededRng(5).stream("eval-negatives")
        excluded = [set(range(user, 3000, 41 + user)) for user in range(50)]
        got = sample_negatives(excluded[:20], 99, 3000, got_gen) + sample_negatives(excluded[20:], 99, 3000, got_gen)
        assert got == scalar_rows(excluded, 99, 3000, want_gen)
        assert got_gen.bit_generator.state == want_gen.bit_generator.state

    @pytest.mark.parametrize("bounds", [(3, 5), (1, 3), (99, 100), (2, 2)])
    def test_other_bounds_raise(self, bounds):
        # (n, bound) with a row that has n - 1 items outside its set, at the end of the call
        n, high = bounds
        gen = _bounded(0)
        before = gen.bit_generator.state
        with pytest.raises(DataError, match=re.escape(f"row 2: only {n - 1} non-positive items, need {n}")):
            sample_negatives([set(), set(), set(range(high - n + 1))], n, high, gen)
        assert gen.bit_generator.state == before


def _records(cols) -> list:
    """(user, item, label, timestamp) per loaded row, with Python ints."""
    return list(zip(cols.users, cols.items, cols.labels.tolist(), cols.timestamps))


# ---------------------------------------------------------------------------
# The record-per-line loader and split that the columnar ones replaced, kept
# as their oracle: a streamed line reader, one record per line, one Python
# sort per user.
# ---------------------------------------------------------------------------


@dataclass
class _Record:
    user: str
    item: str
    label: int
    timestamp: int | None


def oracle_read_lines(path, error=DataError):
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii() and re.search("[\udc80-\udcff]", line):
                raise error(f"{path}: line {lineno}: not valid UTF-8")
            yield lineno, line


def oracle_load_interactions(path, fmt):
    records = []
    for lineno, line in oracle_read_lines(path):
        line = line.rstrip("\r\n")
        if not line:
            continue
        fields = line.split("\t")
        try:
            if fmt == "generic-tsv":
                if not 2 <= len(fields) <= 4:
                    raise ValueError(f"expected 2-4 tab-separated fields, got {len(fields)}")
                user, item = fields[0], fields[1]
                label, ts = 1, None
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
                label = 1 if int(fields[2]) >= 4 else 0
                ts = int(fields[3])
            if not user or not item:
                raise ValueError("empty user or item id")
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from exc
        records.append(_Record(user, item, label, ts))
    if not records:
        raise DataError(f"{path}: no interaction records")
    return records


def oracle_leave_one_out(records):
    by_user = {}
    for pos_in_file, rec in enumerate(records):
        by_user.setdefault(rec.user, []).append((pos_in_file, rec))
    train, val, test = [], [], []
    for entries in by_user.values():
        positives = [(i, r) for i, r in entries if r.label != 0]
        train.extend(r for _, r in entries if r.label == 0)
        if len(positives) < 3:
            train.extend(r for _, r in positives)
            continue
        positives.sort(key=lambda ir: (ir[1].timestamp if ir[1].timestamp is not None else 0, ir[0]))
        train.extend(r for _, r in positives[:-2])
        val.append(positives[-2][1])
        test.append(positives[-1][1])
    return train, val, test


def oracle_prepare(path, fmt) -> dict:
    records = oracle_load_interactions(path, fmt)
    users = list(dict.fromkeys(r.user for r in records))
    items = list(dict.fromkeys(r.item for r in records))
    user_index = {u: k for k, u in enumerate(users)}
    item_index = {i: k for k, i in enumerate(items)}
    train, val, test = oracle_leave_one_out(records)
    train = [(user_index[r.user], item_index[r.item], r.label) for r in train]
    val = [(user_index[r.user], item_index[r.item]) for r in val]
    test = [(user_index[r.user], item_index[r.item]) for r in test]
    positives = {}
    for user, item in [(u, i) for u, i, label in train if label != 0] + val + test:
        positives.setdefault(user, set()).add(item)
    return {"records": [(r.user, r.item, r.label, r.timestamp) for r in records], "users": users,
            "items": items, "train": train, "val": val, "test": test, "positives": positives}


def _config(path, fmt):
    return config_from_dict({"task": "cf", "data": {"path": str(path), "format": fmt}, "model": {}})


def _prepare(path, fmt) -> dict:
    """prepare_interactions' dataset in the oracle's shape, with every value a Python int."""
    ds = prepare_interactions(_config(path, fmt))
    assert ds.train.dtype == np.int64 and ds.train.shape == (len(ds.train), 3)
    for pairs in (ds.val_pairs, ds.test_pairs):
        assert all(type(v) is int for pair in pairs for v in pair)
    assert all(type(u) is int and all(type(i) is int for i in s) for u, s in ds.positives_by_user.items())
    return {"records": _records(load_interactions(path, fmt)), "users": ds.user_vocab.ids,
            "items": ds.item_vocab.ids, "train": [tuple(row) for row in ds.train.tolist()],
            "val": ds.val_pairs, "test": ds.test_pairs, "positives": ds.positives_by_user}


_STAMPS = ["0", "1", "2", "2", "5", "-3", "-1", str(2 ** 63), str(2 ** 63 + 1), str(2 ** 64), str(2 ** 70),
           str(-2 ** 70), "007", "+4"]


def _random_file(gen: random.Random, fmt: str) -> bytes:
    """A valid file: up to 9 rows per user, labels and users interleaved, blank lines, mixed line endings."""
    rows = []
    n_items = gen.randint(1, 12)
    timed = gen.random() < 0.8
    for user in range(gen.randint(1, 8)):
        for k in range(gen.choice([0, 1, 2, 3, 3, 4, 6]) + gen.randint(0, 3)):
            rows.append([f"u{user}", f"i{gen.randrange(n_items)}", k])
    gen.shuffle(rows)
    lines = []
    for user, item, _ in rows:
        stamp = gen.choice(_STAMPS)
        if fmt == "movielens-100k":
            lines.append(f"{user}\t{item}\t{gen.randint(1, 5)}\t{stamp}")
            continue
        label = gen.choice(["0", "1", "1", "", None])
        if not timed or label is None:
            lines.append(f"{user}\t{item}" + ("" if label is None else f"\t{label}"))
        else:
            stamp = gen.choice([stamp, stamp, ""])
            lines.append(f"{user}\t{item}\t{label}" + (f"\t{stamp}" if stamp or gen.random() < 0.5 else ""))
    if not lines:
        lines.append("u0\ti0")
    out = []
    for line in lines:
        if gen.random() < 0.1:
            out.append(gen.choice(["", "\r", "\n", "\r\n"]))
        out.append(line + gen.choice(["\n", "\n", "\r\n", "\r"]))
    if gen.random() < 0.3:
        out[-1] = out[-1].rstrip("\r\n")
    return "".join(out).encode()


class TestColumnarOracle:
    """load_interactions, leave_one_out and prepare_interactions against the record-per-line path."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_files_match_oracle(self, tmp_path, seed):
        gen = random.Random(8100 + seed)
        path = tmp_path / "d.tsv"
        for case in range(20):
            fmt = "generic-tsv" if case % 3 else "movielens-100k"
            path.write_bytes(_random_file(gen, fmt))
            want = oracle_prepare(path, fmt)
            got = _prepare(path, fmt)
            for key in want:
                assert got[key] == want[key], (case, key, path.read_bytes())

    def test_random_defects_match_oracle(self, tmp_path):
        """Files with defects on several lines raise the oracle's error, naming the same line."""
        gen = random.Random(8200)
        path = tmp_path / "d.tsv"
        defects = ["\t", "\t\t\t\t\t", "x\t", "\tx", "a\tb\t2", "a\tb\tx", "a\tb\t1\t1.5", "a\tb\t-1",
                   "a\tb\t0\t" + "9" * 5000, "a\tb\t\t", "a\tb\t1\t", "a\t\t1\t3", "a\xe9b\tc",
                   "a\tb\t1\t\xff", "a\tb\t\t\t", "a b\tc\t1\t1\t", "a\tb\t3\t"]
        raised = 0
        for case in range(200):
            fmt = "generic-tsv" if case % 3 else "movielens-100k"
            lines = _random_file(gen, fmt).splitlines(keepends=True)
            for _ in range(gen.randint(1, 3)):
                lines.insert(gen.randint(0, len(lines)), gen.choice(defects).encode("latin-1") + b"\n")
            path.write_bytes(b"".join(lines))
            try:
                want = oracle_prepare(path, fmt)
            except DataError as exc:
                raised += 1
                with pytest.raises(DataError) as got:
                    _prepare(path, fmt)
                assert str(got.value) == str(exc), (case, path.read_bytes())
            else:
                assert _prepare(path, fmt) == want, case
        assert raised > 150

    @pytest.mark.parametrize("text, error", [
        # line 3's field count is checked before line 2's ids on a line, but line 2 comes first
        ("u1\ti1\n\ti2\t1\nu3\ti3\t1\t1\t1\n", "line 2: empty user or item id"),
        ("u1\ti1\t1\tx\nu2\ti2\t1\t1\t9\n", r"line 1: invalid literal for int\(\) with base 10: 'x'"),
        ("u1\ti1\t1\t5\nu2\ti2\t7\nu3\n", "line 2: label must be 0 or 1, got 7"),
        ("u1\ti1\nu2\ti2\t1\t1\t0\nu\xe93\ti3\n", "line 2: expected 2-4 tab-separated fields, got 5"),
        ("u1\ti1\nu\xe92\ti2\nu3\ti3\t1\t1\t0\n", "line 2: not valid UTF-8"),
        # on one line the field count is checked first
        ("u1\ti1\n\t\t9\t1\t1\n", "line 2: expected 2-4 tab-separated fields, got 5"),
    ])
    def test_earliest_defect_wins(self, tmp_path, text, error):
        path = tmp_path / "two.tsv"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(DataError, match=rf"two\.tsv: {error}$"):
            load_interactions(path, "generic-tsv")
        with pytest.raises(DataError, match=rf"two\.tsv: {error}$"):
            oracle_load_interactions(path, "generic-tsv")

    def test_timestamps_past_int64(self, tmp_path):
        path = tmp_path / "big.tsv"
        path.write_text(f"u\ta\t1\t{2 ** 70}\nu\tb\t1\t5\nu\tc\t1\t{2 ** 70 + 1}\nu\td\t1\t-1\n"
                        f"u\te\t0\t{2 ** 71}\nu\tf\t1\t{2 ** 70}\nv\ta\t1\t{-2 ** 70}\n")
        cols = load_interactions(path, "generic-tsv")
        assert cols.timestamps == [2 ** 70, 5, 2 ** 70 + 1, -1, 2 ** 71, 2 ** 70, -2 ** 70]
        ds = prepare_interactions(_config(path, "generic-tsv"))
        items = ds.item_vocab.ids
        # u: the negative e, then its positives by time: d (-1), b (5), a and f (2**70, in file order), c
        assert [(u, items[i], label) for u, i, label in ds.train.tolist()] == [
            (0, "e", 0), (0, "d", 1), (0, "b", 1), (0, "a", 1), (1, "a", 1)]
        assert [(u, items[i]) for u, i in ds.val_pairs] == [(0, "f")]
        assert [(u, items[i]) for u, i in ds.test_pairs] == [(0, "c")]
        assert _prepare(path, "generic-tsv") == oracle_prepare(path, "generic-tsv")


class TestReadLines:
    @pytest.mark.parametrize("data", [b"", b"a\n", b"a", b"a\r\nb\rc\n\n", b"\r\r\n\n", b"a\rb\r",
                                      "x\x0by\x1cz\x85\u2028w\u2029\n".encode()])
    def test_lines_split_as_the_text_reader(self, tmp_path, data):
        path = tmp_path / "t.txt"
        path.write_bytes(data)
        assert list(read_lines(path)) == [(n, line.rstrip("\r\n")) for n, line in oracle_read_lines(path)]

    def test_non_utf8_line_follows_the_lines_before_it(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"a\r\nb\rc\xff\nd\n")
        got = []
        with pytest.raises(DataError, match=r"t\.txt: line 3: not valid UTF-8"):
            for numbered in read_lines(path):
                got.append(numbered)
        assert got == [(1, "a"), (2, "b")]
