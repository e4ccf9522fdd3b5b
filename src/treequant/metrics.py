"""Ranking metrics and the sampled-candidates evaluation protocols."""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

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


def _gains(n: int) -> list:
    """The DCG gain 1 / log2(p + 1) of each rank p = 1..n."""
    return [1.0 / math.log2(p + 1) for p in range(1, n + 1)]


def _unit_metrics(ranking, relevant, ks, gains, ideals) -> list:
    """[NDCG@k for each k of ks] + [HR@k for each k] from the 1-based ranks of ranking's relevant items;
    gains reaches rank min(k, len(ranking)) and ideals[m] = sum(gains[:m]) for each m = min(k, |relevant|)."""
    positions = [p for p, item in enumerate(ranking[:len(gains)], start=1) if item in relevant]
    dcg = list(itertools.accumulate((gains[p - 1] for p in positions), initial=0.0))
    hits = [(bisect.bisect_right(positions, k), min(k, len(relevant))) for k in ks]
    return [dcg[h] / ideals[m] for h, m in hits] + [h / m for h, m in hits]


def _at_k(ranking, relevant, k: int) -> list:
    _check(relevant, k)
    m = min(k, len(relevant))
    gains = _gains(max(m, min(k, len(ranking))))
    return _unit_metrics(ranking, relevant, [k], gains, {m: sum(gains[:m])})


def ndcg_at_k(ranking, relevant, k: int) -> float:
    """Binary-relevance NDCG over the top-k of ranking (candidate items, best first)."""
    return _at_k(ranking, relevant, k)[0]


def hr_at_k(ranking, relevant, k: int) -> float:
    """Hit ratio over the top-k of ranking: hits / min(k, |relevant|).

    With one relevant item among distinct candidates it is 1.0 on a hit and
    0.0 otherwise.
    """
    return _at_k(ranking, relevant, k)[1]


def _evaluate(model, split, ks, rank_unit) -> MetricReport:
    """Mean NDCG@k and HR@k over the units of split; rank_unit(*unit) gives (ranking, relevant set)."""
    split = list(split)
    if not split:
        raise ValueError("empty evaluation split")
    ks = list(dict.fromkeys(ks))  # a repeated k is counted once
    names = [f"{m}@{k}" for m in ("ndcg", "hr") for k in ks]
    gains = _gains(max(ks))  # the gains and ideal DCGs are computed once per pass
    ideals = [sum(gains[:m]) for m in range(len(gains) + 1)]
    k_min, sums = min(ks), [0.0] * len(names)
    with model.frozen():
        for unit in split:
            ranking, relevant = rank_unit(*unit)
            _check(relevant, k_min)
            for i, value in enumerate(_unit_metrics(ranking, relevant, ks, gains, ideals)):
                sums[i] += value
    return MetricReport(values={name: s / len(split) for name, s in zip(names, sums)}, count=len(split))


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
    continuous stream.  Unit i ranks row i of one candidate matrix, its
    positive and then its negatives in drawn order, and keeps the top
    max(ks), all the metrics read.
    """
    split = list(split)
    excluded = []
    for user, pos in split:  # a user's set is shared, not copied, when it holds the positive
        positives = positives_by_user.get(user, set()) if positives_by_user else set()
        excluded.append(positives if pos in positives else positives | {pos})
    candidates = np.empty((len(split), 1 + n_negatives), dtype=np.int64)
    candidates[:, 0] = [pos for _, pos in split]
    negatives = sample_negatives(excluded, n_negatives, model.n_items, rng)
    candidates[:, 1:] = np.fromiter(negatives, np.int64, len(negatives)).reshape(len(split), n_negatives)
    k = max(ks)

    def rank(user, pos_item, row):
        return model.predict_topk(user, row, k=k), {pos_item}

    return _evaluate(model, [(user, pos, row) for (user, pos), row in zip(split, candidates)], ks, rank)


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
