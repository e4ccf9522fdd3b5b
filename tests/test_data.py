import numpy as np
import pytest

from treequant.data import (InteractionRecord, Vocabulary,
                            leave_one_out, load_interactions, load_lists,
                            partition_lists, preprocess_lists,
                            sample_negatives, split_list)
from treequant.errors import DataError
from treequant.rng import SeededRng


class TestLoadInteractions:
    def test_single_generic_line(self, tmp_path):
        p = tmp_path / "i.tsv"
        p.write_text("u1\ti9\t1\n")
        recs = load_interactions(p, "generic-tsv")
        assert recs == [InteractionRecord(user="u1", item="i9", label=1, timestamp=None)]
        # no label field, or an empty one, loads as label 1; a blank line is skipped
        p.write_text("u1\ti9\n\nu2\ti8\t\t4\n")
        assert load_interactions(p, "generic-tsv") == [InteractionRecord("u1", "i9", 1, None),
                                                       InteractionRecord("u2", "i8", 1, 4)]

    def test_movielens_binarization(self, tmp_path):
        p = tmp_path / "u.data"
        p.write_text("196\t242\t3\t881250949\n186\t302\t4\t891717742\n")
        recs = load_interactions(p, "movielens-100k")
        assert recs[0].label == 0  # rating 3 < threshold 4
        assert recs[1].label == 1
        assert recs[0].timestamp == 881250949

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
        recs = load_interactions(p, "generic-tsv")
        assert len(recs) == 2
        assert recs[1].timestamp == 6

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
    def _rec(self, user, item, ts=None, label=None):
        return InteractionRecord(user=user, item=item, label=label, timestamp=ts)

    def test_three_positives(self):
        recs = [self._rec("u", f"i{k}", ts=k) for k in range(3)]
        ds = leave_one_out(recs)
        assert [r.item for r in ds.train] == ["i0"]
        assert [r.item for r in ds.validation] == ["i1"]
        assert [r.item for r in ds.test] == ["i2"]

    def test_two_positives_all_train(self):
        recs = [self._rec("u", "a"), self._rec("u", "b")]
        ds = leave_one_out(recs)
        assert len(ds.train) == 2 and not ds.validation and not ds.test

    def test_timestamp_ties_use_file_order(self):
        recs = [self._rec("u", f"i{k}", ts=7) for k in range(4)]
        a, b = leave_one_out(recs), leave_one_out(recs)
        assert [r.item for r in a.test] == [r.item for r in b.test] == ["i3"]
        assert [r.item for r in a.validation] == ["i2"]

    def test_negatives_stay_in_train(self):
        recs = [self._rec("u", f"i{k}", ts=k, label=1) for k in range(3)]
        recs.append(self._rec("u", "neg", ts=99, label=0))
        ds = leave_one_out(recs)
        assert any(r.item == "neg" for r in ds.train)
        assert [r.item for r in ds.test] == ["i2"]


class TestSampleNegatives:
    def test_forced_choice(self):
        gen = np.random.default_rng(0)
        assert sample_negatives("u", 1, 5, {0, 1, 2, 3}, gen) == [4]

    def test_deterministic_under_seed(self):
        a = sample_negatives("u", 5, 100, {3}, np.random.default_rng(42))
        b = sample_negatives("u", 5, 100, {3}, np.random.default_rng(42))
        assert a == b

    def test_never_returns_positives(self):
        gen = np.random.default_rng(1)
        positives = set(range(0, 50, 2))
        for _ in range(100):
            sampled = sample_negatives("u", 10, 50, positives, gen)
            assert not set(sampled) & positives
            assert len(set(sampled)) == 10

    def test_insufficient_pool(self):
        with pytest.raises(ValueError):
            sample_negatives("u", 3, 5, {0, 1, 2}, np.random.default_rng(0))

    def test_uniformity(self):
        gen = np.random.default_rng(7)
        counts = np.zeros(10)
        for _ in range(10000):
            counts[sample_negatives("u", 1, 10, set(), gen)[0]] += 1
        # each ~ Binomial(10000, 0.1): 3 sigma ~ 90
        assert np.all(np.abs(counts - 1000) < 3 * np.sqrt(10000 * 0.1 * 0.9))


class TestVocabulary:
    def test_round_trip_identity(self):
        v = Vocabulary(["b", "a", "c", "a"])
        assert len(v) == 3
        for i in range(len(v)):
            assert v.index(v.raw(i)) == i

    def test_first_seen_order(self):
        v = Vocabulary(["z", "m", "a"])
        assert [v.raw(i) for i in range(3)] == ["z", "m", "a"]

    def test_unknown_id_raises_key_error(self):
        v = Vocabulary(["a"])
        with pytest.raises(KeyError):
            v.index("b")


def test_sample_negatives_shortage_is_data_error():
    with pytest.raises(DataError, match="only 2 non-positive items, need 3"):
        sample_negatives(0, 3, 5, {0, 1, 2}, np.random.default_rng(0))


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


class TestBulkSamplingOracle:
    """sample_negatives draws in bulk; the values and the generator state stay those of the scalar loop."""

    @pytest.mark.parametrize("seed", range(40))
    def test_each_case_matches_scalar_loop(self, seed):
        for n, vocab_size, positives in _sampler_cases(seed):
            got_gen, want_gen = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sample_negatives("u", n, vocab_size, positives, got_gen)
            want = scalar_sample_negatives("u", n, vocab_size, positives, want_gen)
            assert got == want, (n, vocab_size)
            assert got_gen.bit_generator.state == want_gen.bit_generator.state, (n, vocab_size)

    @pytest.mark.parametrize("seed", range(20))
    def test_consecutive_calls_share_one_generator(self, seed):
        got_gen, want_gen = np.random.default_rng(seed), np.random.default_rng(seed)
        for case, (n, vocab_size, positives) in enumerate(_sampler_cases(seed) * 2):
            got = sample_negatives("u", n, vocab_size, positives, got_gen)
            want = scalar_sample_negatives("u", n, vocab_size, positives, want_gen)
            assert got == want
            if case % 3 == 0:  # other consumers draw from the same generator in between
                assert got_gen.integers(0, 7) == want_gen.integers(0, 7)
                assert got_gen.random() == want_gen.random()
        assert got_gen.bit_generator.state == want_gen.bit_generator.state

    def test_project_stream_matches_scalar_loop(self):
        got_gen, want_gen = SeededRng(5).stream("eval-negatives"), SeededRng(5).stream("eval-negatives")
        for user in range(50):
            positives = set(range(user, 3000, 97))
            assert (sample_negatives(user, 99, 3000, positives, got_gen)
                    == scalar_sample_negatives(user, 99, 3000, positives, want_gen))
        assert got_gen.bit_generator.state == want_gen.bit_generator.state

    def test_shortage_draws_nothing(self):
        gen = np.random.default_rng(0)
        before = gen.bit_generator.state
        with pytest.raises(DataError):
            sample_negatives("u", 3, 5, {0, 1, 2}, gen)
        assert gen.bit_generator.state == before

    def test_positive_set_not_mutated(self):
        positives = {0, 1}
        sample_negatives("u", 3, 6, positives, np.random.default_rng(0))
        assert positives == {0, 1}
