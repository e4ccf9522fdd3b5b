import math

import numpy as np
import pytest

from treequant.metrics import (MetricReport, RankedResult, evaluate_completion,
                               evaluate_ranking, hr_at_k, ndcg_at_k)
from treequant.rng import SeededRng


class TestNdcg:
    def test_single_relevant_at_rank_one(self):
        r = RankedResult(ranking=[7, 1, 2], relevant={7})
        assert ndcg_at_k(r, 3) == pytest.approx(1.0)

    def test_single_relevant_at_rank_two(self):
        r = RankedResult(ranking=[1, 7, 2], relevant={7})
        assert ndcg_at_k(r, 3) == pytest.approx(1.0 / math.log2(3), abs=1e-4)
        assert ndcg_at_k(r, 3) == pytest.approx(0.6309, abs=1e-4)

    def test_single_relevant_at_rank_three(self):
        r = RankedResult(ranking=[1, 2, 7], relevant={7})
        assert ndcg_at_k(r, 3) == pytest.approx(0.5, abs=1e-4)

    def test_relevant_outside_top_k(self):
        r = RankedResult(ranking=[1, 2, 3, 7], relevant={7})
        assert ndcg_at_k(r, 3) == 0.0

    def test_perfect_multi_relevant(self):
        r = RankedResult(ranking=[1, 2, 3, 4], relevant={1, 2})
        assert ndcg_at_k(r, 4) == pytest.approx(1.0)

    def test_idcg_truncates_at_k(self):
        # 5 relevant items but k=2: ideal DCG only counts 2 positions
        r = RankedResult(ranking=[1, 2], relevant={1, 2, 3, 4, 5})
        assert ndcg_at_k(r, 2) == pytest.approx(1.0)

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError):
            ndcg_at_k(RankedResult(ranking=[1], relevant=set()), 1)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            ndcg_at_k(RankedResult(ranking=[1], relevant={1}), 0)

    def test_bounded_in_unit_interval(self):
        gen = np.random.default_rng(0)
        for _ in range(200):
            n = int(gen.integers(1, 20))
            ranking = list(gen.permutation(n))
            relevant = set(gen.choice(n, size=int(gen.integers(1, n + 1)), replace=False).tolist())
            v = ndcg_at_k(RankedResult(ranking=ranking, relevant=relevant), int(gen.integers(1, 25)))
            assert 0.0 <= v <= 1.0 + 1e-12


class TestHr:
    def test_single_hit(self):
        r = RankedResult(ranking=[3, 1, 2], relevant={1})
        assert hr_at_k(r, 2, mode="single") == 1.0

    def test_single_miss(self):
        r = RankedResult(ranking=[3, 1, 2], relevant={2})
        assert hr_at_k(r, 2, mode="single") == 0.0

    def test_multi_two_of_four(self):
        # 4 relevant, 2 in the top-10 -> 2/4
        ranking = [1, 2] + list(range(100, 108))
        r = RankedResult(ranking=ranking, relevant={1, 2, 50, 51})
        assert hr_at_k(r, 10, mode="multi") == pytest.approx(0.5)

    def test_multi_denominator_is_min_k_relevant(self):
        # 8 relevant, k=4, all top-4 relevant -> 4/min(4,8) = 1
        r = RankedResult(ranking=[1, 2, 3, 4], relevant=set(range(1, 9)))
        assert hr_at_k(r, 4, mode="multi") == pytest.approx(1.0)

    def test_multi_raw_count(self):
        r = RankedResult(ranking=[1, 2, 3], relevant={1, 3, 9})
        assert hr_at_k(r, 3, mode="multi", normalize=False) == 2.0

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            hr_at_k(RankedResult(ranking=[1], relevant={1}), 1, mode="triple")


class _RandomScorer:
    """Scores every (user, item) pair with an i.i.d. draw fixed at construction."""

    def __init__(self, n_users, n_items, seed=0):
        self.n_items = n_items
        self.scores = np.random.default_rng(seed).normal(size=(n_users, n_items))

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
                                  rng=SeededRng(5))
        assert report.count == 400
        assert report.values["hr@10"] == pytest.approx(0.1, abs=0.05)

    def test_item_zero_always_wins_with_index_oracle(self):
        model = _OracleScorer(50)
        split = [(0, 0)] * 20
        report = evaluate_ranking(model, split, n_negatives=10, ks=[1],
                                  rng=SeededRng(1))
        assert report.values["hr@1"] == 1.0
        assert report.values["ndcg@1"] == 1.0

    def test_deterministic_under_seed(self):
        model = _RandomScorer(30, 60, seed=9)
        split = [(u, 2 * u) for u in range(30)]
        a = evaluate_ranking(model, split, 20, [5, 10], SeededRng(4))
        b = evaluate_ranking(model, split, 20, [5, 10], SeededRng(4))
        assert a.values == b.values

    def test_held_out_positives_excluded_from_negatives(self):
        model = _OracleScorer(6)
        # user 0's full positive set blocks items 0..4, so the only possible
        # negative is item 5; positive is item 4 and the oracle ranks item 4
        # above item 5, so hr@1 must be exactly 1.
        split = [(0, 4)] * 10
        report = evaluate_ranking(model, split, n_negatives=1, ks=[1],
                                  rng=SeededRng(0),
                                  positives_by_user={0: {0, 1, 2, 3, 4}})
        assert report.values["hr@1"] == 1.0

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError):
            evaluate_ranking(_OracleScorer(5), [], 2, [1], SeededRng(0))


class _CompletionOracle:
    def __init__(self, n_items, scores):
        self.n_items = n_items
        self.scores = np.asarray(scores, dtype=float)

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
        once = evaluate_ranking(model, split, 20, [2], SeededRng(4))
        twice = evaluate_ranking(model, split, 20, [2, 2], SeededRng(4))
        assert twice.to_dict() == once.to_dict()
        assert 0.0 < once.values["hr@2"] <= 1.0

    def test_completion(self):
        model = _CompletionOracle(6, [5.0, 4.0, 3.0, 2.0, 1.0, 0.0])
        split = [([0], [1, 4]), ([1], [2])]
        once = evaluate_completion(model, split, ks=[2])
        assert evaluate_completion(model, split, ks=[2, 2]).to_dict() == once.to_dict()
        assert evaluate_completion(model, split, ks=[2, 5, 2]).values["hr@2"] == once.values["hr@2"]
