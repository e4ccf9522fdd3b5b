import contextlib
import math

import numpy as np
import pytest

from treequant.errors import DataError
from treequant.metrics import (MetricReport, evaluate_completion, evaluate_ranking,
                               hr_at_k, ndcg_at_k)
from treequant.rng import SeededRng

from test_data import scalar_sample_negatives
from test_models import _frozen_model


class TestNdcg:
    def test_single_relevant_at_rank_one(self):
        ranking, relevant = [7, 1, 2], {7}
        assert ndcg_at_k(ranking, relevant, 3) == pytest.approx(1.0)

    def test_single_relevant_at_rank_two(self):
        ranking, relevant = [1, 7, 2], {7}
        assert ndcg_at_k(ranking, relevant, 3) == pytest.approx(1.0 / math.log2(3), abs=1e-4)
        assert ndcg_at_k(ranking, relevant, 3) == pytest.approx(0.6309, abs=1e-4)

    def test_single_relevant_at_rank_three(self):
        ranking, relevant = [1, 2, 7], {7}
        assert ndcg_at_k(ranking, relevant, 3) == pytest.approx(0.5, abs=1e-4)

    def test_relevant_outside_top_k(self):
        ranking, relevant = [1, 2, 3, 7], {7}
        assert ndcg_at_k(ranking, relevant, 3) == 0.0

    def test_perfect_multi_relevant(self):
        ranking, relevant = [1, 2, 3, 4], {1, 2}
        assert ndcg_at_k(ranking, relevant, 4) == pytest.approx(1.0)

    def test_idcg_truncates_at_k(self):
        # 5 relevant items but k=2: ideal DCG only counts 2 positions
        ranking, relevant = [1, 2], {1, 2, 3, 4, 5}
        assert ndcg_at_k(ranking, relevant, 2) == pytest.approx(1.0)

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError):
            ndcg_at_k([1], set(), 1)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            ndcg_at_k([1], {1}, 0)

    def test_bounded_in_unit_interval(self):
        gen = np.random.default_rng(0)
        for _ in range(200):
            n = int(gen.integers(1, 20))
            ranking = list(gen.permutation(n))
            relevant = set(gen.choice(n, size=int(gen.integers(1, n + 1)), replace=False).tolist())
            v = ndcg_at_k(ranking, relevant, int(gen.integers(1, 25)))
            assert 0.0 <= v <= 1.0 + 1e-12


class TestHr:
    def test_single_hit(self):
        ranking, relevant = [3, 1, 2], {1}
        assert hr_at_k(ranking, relevant, 2) == 1.0

    def test_single_miss(self):
        ranking, relevant = [3, 1, 2], {2}
        assert hr_at_k(ranking, relevant, 2) == 0.0

    def test_multi_two_of_four(self):
        # 4 relevant, 2 in the top-10 -> 2/4
        ranking, relevant = [1, 2] + list(range(100, 108)), {1, 2, 50, 51}
        assert hr_at_k(ranking, relevant, 10) == pytest.approx(0.5)

    def test_multi_denominator_is_min_k_relevant(self):
        # 8 relevant, k=4, all top-4 relevant -> 4/min(4,8) = 1
        ranking, relevant = [1, 2, 3, 4], set(range(1, 9))
        assert hr_at_k(ranking, relevant, 4) == pytest.approx(1.0)

    def test_one_relevant_item_is_a_hit_indicator(self):
        # the sampled protocol's units: distinct candidates, one relevant item
        gen = np.random.default_rng(15)
        for _ in range(500):
            ranking = gen.choice(40, size=int(gen.integers(1, 30)), replace=False).tolist()
            item = int(gen.integers(0, 40))
            k = int(gen.integers(1, 35))
            want = 1.0 if item in ranking[:k] else 0.0
            got = hr_at_k(ranking, {item}, k)
            assert type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes()


class _RandomScorer:
    """Scores every (user, item) pair with an i.i.d. draw fixed at construction."""

    def __init__(self, n_users, n_items, seed=0):
        self.n_items = n_items
        self.scores = np.random.default_rng(seed).normal(size=(n_users, n_items))

    def frozen(self):
        return contextlib.nullcontext()

    def predict_topk(self, user, candidates, k):
        cand = np.asarray(candidates)
        s = self.scores[user, cand]
        order = np.lexsort((cand, -s))
        return cand[order][:k].tolist()


class _OracleScorer(_RandomScorer):
    """Deterministic scores so the expected report is hand-computable."""

    def __init__(self, n_items):
        self.n_items = n_items

    def predict_topk(self, user, candidates, k):
        # always ranks by ascending item index
        return sorted(candidates)[:k]


class TestEvaluateRanking:
    def test_untrained_hr_matches_chance(self):
        # positive vs 99 negatives with random scores: P(top-10) = 10/100
        model = _RandomScorer(400, 500, seed=3)
        split = [(u, u % 500) for u in range(400)]
        report = evaluate_ranking(model, split, n_negatives=99, ks=[10],
                                  rng=SeededRng(5).stream("eval-negatives"))
        assert report.count == 400
        assert report.values["hr@10"] == pytest.approx(0.1, abs=0.05)

    def test_item_zero_always_wins_with_index_oracle(self):
        model = _OracleScorer(50)
        split = [(0, 0)] * 20
        report = evaluate_ranking(model, split, n_negatives=10, ks=[1],
                                  rng=SeededRng(1).stream("eval-negatives"))
        assert report.values["hr@1"] == 1.0
        assert report.values["ndcg@1"] == 1.0

    def test_deterministic_under_seed(self):
        model = _RandomScorer(30, 60, seed=9)
        split = [(u, 2 * u) for u in range(30)]
        a = evaluate_ranking(model, split, 20, [5, 10], SeededRng(4).stream("eval-negatives"))
        b = evaluate_ranking(model, split, 20, [5, 10], SeededRng(4).stream("eval-negatives"))
        assert a.values == b.values

    def test_held_out_positives_excluded_from_negatives(self):
        model = _OracleScorer(6)
        # user 0's full positive set blocks items 0..4, so the only possible
        # negative is item 5; positive is item 4 and the oracle ranks item 4
        # above item 5, so hr@1 must be exactly 1.
        split = [(0, 4)] * 10
        report = evaluate_ranking(model, split, n_negatives=1, ks=[1],
                                  rng=SeededRng(0).stream("eval-negatives"),
                                  positives_by_user={0: {0, 1, 2, 3, 4}})
        assert report.values["hr@1"] == 1.0

    def test_own_positive_never_a_negative(self):
        # user 0's set lacks the held-out item 4, which is excluded all the same: the
        # 4 negatives of each unit are exactly items 0, 2, 3 and 5, and 5 are more than there are
        model = _frozen_model("cf", n_users=2, n_items=6, dim=8)
        ranked, predict_topk = [], model.predict_topk

        def recorded(user, candidates, k):
            ranked.append(sorted(candidates))
            return predict_topk(user, candidates, k)

        model.predict_topk = recorded
        report = evaluate_ranking(model, [(0, 4)] * 10, 4, [5], SeededRng(0).stream("eval-negatives"),
                                  positives_by_user={0: {1}})
        assert ranked == [[0, 2, 3, 4, 5]] * 10
        assert all(0.0 < value <= 1.0 for value in report.values.values())
        assert report.values["hr@5"] == 1.0
        with pytest.raises(DataError, match="only 4 non-positive items, need 5"):
            evaluate_ranking(model, [(0, 4)], 5, [6], SeededRng(0).stream("eval-negatives"),
                             positives_by_user={0: {1}})

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError):
            evaluate_ranking(_OracleScorer(5), [], 2, [1], SeededRng(0).stream("eval-negatives"))


def reference_evaluate_ranking(model, split, n_negatives, ks, rng, positives_by_user):
    """The sampled-candidates pass as one generator drawn scalar by scalar per user, each unit ranking
    every candidate and scored by the public ndcg_at_k and a hit indicator: (metric values, unit count)."""
    sums = {f"{m}@{k}": 0.0 for m in ("ndcg", "hr") for k in ks}
    with model.frozen():
        for user, pos_item in split:
            positives = positives_by_user[user]
            candidates = [pos_item] + scalar_sample_negatives(user, n_negatives, model.n_items, positives, rng)
            ranking = model.predict_topk(user, candidates, k=len(candidates))
            for k in dict.fromkeys(ks):
                sums[f"ndcg@{k}"] += ndcg_at_k(ranking, {pos_item}, k)
                sums[f"hr@{k}"] += 1.0 if pos_item in ranking[:k] else 0.0
    return {name: value / len(split) for name, value in sums.items()}, len(split)


class TestEvaluateRankingOracle:
    """evaluate_ranking equals the reference pass bit for bit, in every value and the count."""

    N_ITEMS = 130

    @classmethod
    def _model(cls, kind):
        if kind == "random":
            return _RandomScorer(24, cls.N_ITEMS, seed=11)
        return _frozen_model(kind, n_users=24, n_items=cls.N_ITEMS, dim=8)

    @classmethod
    def _split(cls, seed):
        """One held-out item per user, and full positive sets of up to 30 items."""
        gen = np.random.default_rng(seed)
        positives_by_user = {u: set(gen.choice(cls.N_ITEMS, size=int(gen.integers(1, 31)), replace=False).tolist())
                             for u in range(24)}
        split = [(u, min(positives_by_user[u])) for u in range(24)] * 2
        return split, positives_by_user

    @pytest.mark.parametrize("ks", [[1, 5, 10], [10, 5, 5], [150]], ids=["1-5-10", "10-5-5", "150"])
    @pytest.mark.parametrize("kind", ["random", "cf", "ctr"])
    def test_equals_reference_pass(self, kind, ks):
        model = self._model(kind)
        split, positives_by_user = self._split(len(ks))
        for n_negatives in (1, 2, 3, 10, 37, 64, 98, 99):
            seed = 100 + n_negatives
            report = evaluate_ranking(model, split, n_negatives, ks, SeededRng(seed).stream("eval"),
                                      positives_by_user=positives_by_user)
            values, count = reference_evaluate_ranking(model, split, n_negatives, ks,
                                                       SeededRng(seed).stream("eval"), positives_by_user)
            assert report.count == count == len(split)
            assert list(report.values) == list(values)
            assert [v.hex() for v in report.values.values()] == [v.hex() for v in values.values()], n_negatives

    @pytest.mark.parametrize("kind", ["random", "cf", "ctr"])
    def test_passes_on_one_generator_draw_one_stream(self, kind):
        # two passes on one generator equal the reference over split + split on one scalar generator
        model = self._model(kind)
        split, positives_by_user = self._split(7)
        got_gen, want_gen = SeededRng(7).stream("eval"), SeededRng(7).stream("eval")
        for _ in range(2):
            report = evaluate_ranking(model, split, 37, [1, 5, 10], got_gen, positives_by_user=positives_by_user)
            values, _ = reference_evaluate_ranking(model, split, 37, [1, 5, 10], want_gen, positives_by_user)
            assert [v.hex() for v in report.values.values()] == [v.hex() for v in values.values()]
        assert got_gen.bit_generator.state == want_gen.bit_generator.state

    @pytest.mark.parametrize("n_negatives", range(1, 100))
    def test_every_negative_count(self, n_negatives):
        model = self._model("random")
        split, positives_by_user = self._split(n_negatives)
        report = evaluate_ranking(model, split[:6], n_negatives, [1, 5, 10], SeededRng(n_negatives).stream("eval"),
                                  positives_by_user=positives_by_user)
        values, _ = reference_evaluate_ranking(model, split[:6], n_negatives, [1, 5, 10],
                                               SeededRng(n_negatives).stream("eval"), positives_by_user)
        assert report.values == values


class _CompletionOracle:
    def __init__(self, n_items, scores):
        self.n_items = n_items
        self.scores = np.asarray(scores, dtype=float)

    def frozen(self):
        return contextlib.nullcontext()

    def predict_completion(self, prefix, k, exclude=()):
        s = self.scores.copy()
        for idx in exclude:
            s[idx] = -np.inf
        order = np.lexsort((np.arange(self.n_items), -s))
        return order[:k].tolist()


class TestEvaluateCompletion:
    def test_hand_computed_report(self):
        model = _CompletionOracle(6, [5.0, 4.0, 3.0, 2.0, 1.0, 0.0])
        # prefix [0] excluded; ranking is [1, 2, 3, ...]; targets {1, 4}
        report = evaluate_completion(model, [([0], [1, 4])], ks=[2])
        assert report.values["hr@2"] == pytest.approx(0.5)
        assert report.values["ndcg@2"] == pytest.approx(1.0 / (1.0 + 1.0 / math.log2(3)))

    def test_prefix_never_ranked(self):
        model = _CompletionOracle(4, [9.0, 1.0, 2.0, 3.0])
        report = evaluate_completion(model, [([0], [3])], ks=[1])
        assert report.values["hr@1"] == 1.0

    def test_mean_over_units(self):
        model = _CompletionOracle(4, [3.0, 2.0, 1.0, 0.0])
        split = [([3], [0]), ([3], [2])]  # hr@1: 1 and 0
        report = evaluate_completion(model, split, ks=[1])
        assert report.values["hr@1"] == pytest.approx(0.5)
        assert report.count == 2


def reference_evaluate_completion(model, split, ks):
    """The completion pass unit by unit, each unit ranking every item outside its prefix and scored by the
    public ndcg_at_k and hr_at_k: (metric values, unit count)."""
    sums = {f"{m}@{k}": 0.0 for m in ("ndcg", "hr") for k in ks}
    with model.frozen():
        for prefix, targets in split:
            exclude = set(prefix)
            ranking = model.predict_completion(prefix, k=model.n_items - len(exclude), exclude=exclude)
            for k in dict.fromkeys(ks):
                sums[f"ndcg@{k}"] += ndcg_at_k(ranking, set(targets), k)
                sums[f"hr@{k}"] += hr_at_k(ranking, set(targets), k)
    return {name: value / len(split) for name, value in sums.items()}, len(split)


class TestEvaluateCompletionOracle:
    """evaluate_completion equals the reference pass bit for bit, in every value and the count."""

    N_ITEMS = 40

    @classmethod
    def _model(cls, kind):
        if kind == "tied":  # five distinct scores over 40 items: most rankings break ties by index
            return _CompletionOracle(cls.N_ITEMS, np.random.default_rng(5).integers(0, 5, cls.N_ITEMS))
        return _frozen_model("seq", n_items=cls.N_ITEMS, dim=8)

    @classmethod
    def _split(cls, seed):
        """Prefixes of 1-4 items and 1-6 targets drawn with replacement, so some repeat or sit in the prefix."""
        gen = np.random.default_rng(seed)
        split = [(gen.choice(cls.N_ITEMS, size=int(gen.integers(1, 5)), replace=False).tolist(),
                  gen.integers(0, cls.N_ITEMS, size=int(gen.integers(1, 7))).tolist()) for _ in range(40)]
        return split + [([3, 4], [5, 5, 3]), ([7], [7]), ([0], [1, 2, 6, 8, 9, 10])]

    @pytest.mark.parametrize("ks", [[1, 5, 10], [10, 5, 5]], ids=["1-5-10", "10-5-5"])
    @pytest.mark.parametrize("kind", ["tied", "seq"])
    def test_equals_reference_pass(self, kind, ks):
        model = self._model(kind)
        for seed in range(4):
            split = self._split(seed)
            report = evaluate_completion(model, split, ks)
            values, count = reference_evaluate_completion(model, split, ks)
            assert report.count == count == len(split)
            assert list(report.values) == list(values)
            assert [v.hex() for v in report.values.values()] == [v.hex() for v in values.values()], seed


def test_metric_report_to_dict_sorted():
    r = MetricReport(values={"ndcg@10": 0.5, "hr@5": 0.25}, count=3)
    d = r.to_dict()
    assert list(d["metrics"]) == ["hr@5", "ndcg@10"]
    assert d["count"] == 3


class TestRepeatedK:
    """A k listed twice in ks is one metric: the report equals the one for ks without the repeat."""

    def test_ranking(self):
        model = _RandomScorer(30, 60, seed=9)
        split = [(u, 2 * u) for u in range(30)]
        once = evaluate_ranking(model, split, 20, [2], SeededRng(4).stream("eval-negatives"))
        twice = evaluate_ranking(model, split, 20, [2, 2], SeededRng(4).stream("eval-negatives"))
        assert twice.to_dict() == once.to_dict()
        assert 0.0 < once.values["hr@2"] <= 1.0

    def test_completion(self):
        model = _CompletionOracle(6, [5.0, 4.0, 3.0, 2.0, 1.0, 0.0])
        split = [([0], [1, 4]), ([1], [2])]
        once = evaluate_completion(model, split, ks=[2])
        assert evaluate_completion(model, split, ks=[2, 2]).to_dict() == once.to_dict()
        assert evaluate_completion(model, split, ks=[2, 5, 2]).values["hr@2"] == once.values["hr@2"]
