"""Ranking metrics and the sampled-candidates evaluation protocols."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .data import sample_negatives


@dataclass
class MetricReport:
    values: dict        # "ndcg@5" -> mean value
    count: int          # number of evaluation units

    def to_dict(self) -> dict:
        return {"count": self.count, "metrics": dict(sorted(self.values.items()))}


def _check(relevant, k: int):
    if k < 1:
        raise ValueError("k must be >= 1")
    if not relevant:
        raise ValueError("relevant set is empty")


def ndcg_at_k(ranking, relevant, k: int) -> float:
    """Binary-relevance NDCG over the top-k of ranking (candidate items, best first)."""
    _check(relevant, k)
    dcg = 0.0
    for pos, item in enumerate(ranking[:k], start=1):
        if item in relevant:
            dcg += 1.0 / math.log2(pos + 1)
    ideal = sum(1.0 / math.log2(p + 1) for p in range(1, min(k, len(relevant)) + 1))
    return dcg / ideal


def hr_at_k(ranking, relevant, k: int) -> float:
    """Hit ratio over the top-k of ranking: hits / min(k, |relevant|).

    With one relevant item among distinct candidates it is 1.0 on a hit and
    0.0 otherwise.
    """
    _check(relevant, k)
    hits = sum(1 for item in ranking[:k] if item in relevant)
    return hits / min(k, len(relevant))


def _evaluate(model, split, ks, rank_unit) -> MetricReport:
    """Mean NDCG@k and HR@k over the units of split; rank_unit(*unit) gives (ranking, relevant set)."""
    split = list(split)
    if not split:
        raise ValueError("empty evaluation split")
    sums = {f"{m}@{k}": 0.0 for m in ("ndcg", "hr") for k in ks}
    names = [(k, f"ndcg@{k}", f"hr@{k}") for k in dict.fromkeys(ks)]  # a repeated k is counted once
    with model.frozen():
        for unit in split:
            ranking, relevant = rank_unit(*unit)
            for k, ndcg, hr in names:
                sums[ndcg] += ndcg_at_k(ranking, relevant, k)
                sums[hr] += hr_at_k(ranking, relevant, k)
    n = len(split)
    return MetricReport(values={name: s / n for name, s in sums.items()}, count=n)


def evaluate_ranking(model, split, n_negatives: int, ks, rng, positives_by_user=None) -> MetricReport:
    """Sampled-candidates protocol: each held-out positive is ranked against
    n_negatives sampled non-positives of the same user.

    split is an iterable of (user index, positive item index) pairs.
    positives_by_user maps user index -> full positive set (all splits), used
    to keep held-out items out of the negative pool; a unit's own positive is
    never a negative, whether or not its user's set holds it.  rng is the numpy
    Generator the negatives are drawn from, in one sample_negatives call for
    the pass: the negatives and the generator's final state are those of
    scalar draws unit after unit, so passes that share a generator draw one
    continuous stream.  Each unit's ranking holds its top max(ks)
    candidates, all the metrics read.
    """
    split = list(split)
    excluded = []
    for user, pos in split:  # a user's set is shared, not copied, when it holds the positive
        positives = positives_by_user.get(user, set()) if positives_by_user else set()
        excluded.append(positives if pos in positives else positives | {pos})
    negatives = sample_negatives(excluded, n_negatives, model.n_items, rng)
    units = [(user, pos, negatives[i * n_negatives:(i + 1) * n_negatives]) for i, (user, pos) in enumerate(split)]
    k = max(ks)

    def rank(user, pos_item, sampled):
        return model.predict_topk(user, [pos_item] + sampled, k=k), {pos_item}

    return _evaluate(model, units, ks, rank)


def evaluate_completion(model, split, ks) -> MetricReport:
    """Whole-vocabulary ranking for list completion.

    split is an iterable of (input item indices, target item indices) pairs;
    input items are excluded from the candidate pool and the targets form the
    relevant set.
    """
    k = max(ks)

    def rank(prefix, targets):
        return model.predict_completion(prefix, k=k, exclude=set(prefix)), set(targets)

    return _evaluate(model, split, ks, rank)
