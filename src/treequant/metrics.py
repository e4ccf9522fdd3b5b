"""Ranking metrics and the sampled-candidates evaluation protocols."""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

from .data import sample_negatives


@dataclass
class RankedResult:
    ranking: list       # candidate items, best first
    relevant: set


@dataclass
class MetricReport:
    values: dict        # "ndcg@5" -> mean value
    count: int          # number of evaluation units

    def to_dict(self) -> dict:
        return {"count": self.count, "metrics": dict(sorted(self.values.items()))}


def _check(result: RankedResult, k: int):
    if k < 1:
        raise ValueError("k must be >= 1")
    if not result.relevant:
        raise ValueError("relevant set is empty")


def ndcg_at_k(result: RankedResult, k: int) -> float:
    """Binary-relevance NDCG over the top-k ranked candidates."""
    _check(result, k)
    dcg = 0.0
    for pos, item in enumerate(result.ranking[:k], start=1):
        if item in result.relevant:
            dcg += 1.0 / math.log2(pos + 1)
    ideal = sum(1.0 / math.log2(p + 1) for p in range(1, min(k, len(result.relevant)) + 1))
    return dcg / ideal


def hr_at_k(result: RankedResult, k: int, mode: str = "single") -> float:
    """Hit ratio over the top-k.

    single mode: 1 if any relevant item appears in the top-k.
    multi mode: hits / min(k, |relevant|).
    """
    _check(result, k)
    hits = sum(1 for item in result.ranking[:k] if item in result.relevant)
    if mode == "single":
        return 1.0 if hits > 0 else 0.0
    if mode != "multi":
        raise ValueError(f"unknown HR mode {mode!r}")
    return hits / min(k, len(result.relevant))


def _frozen(model):
    """The model's frozen-weight scope; scorers without one run as they are."""
    return getattr(model, "frozen", contextlib.nullcontext)()


def _evaluate(model, split, ks, rank_unit, hr_mode: str) -> MetricReport:
    """Mean NDCG@k and HR@k over the units of split, each ranked by rank_unit(*unit)."""
    split = list(split)
    if not split:
        raise ValueError("empty evaluation split")
    sums = {f"{m}@{k}": 0.0 for m in ("ndcg", "hr") for k in ks}
    with _frozen(model):
        for unit in split:
            result = rank_unit(*unit)
            for k in dict.fromkeys(ks):  # a repeated k is counted once
                sums[f"ndcg@{k}"] += ndcg_at_k(result, k)
                sums[f"hr@{k}"] += hr_at_k(result, k, mode=hr_mode)
    n = len(split)
    return MetricReport(values={name: s / n for name, s in sums.items()}, count=n)


def evaluate_ranking(model, split, n_negatives: int, ks, rng, positives_by_user=None) -> MetricReport:
    """Sampled-candidates protocol: each held-out positive is ranked against
    n_negatives sampled non-positives of the same user.

    split is an iterable of (user index, positive item index) pairs.
    positives_by_user maps user index -> full positive set (all splits), used
    to keep held-out items out of the negative pool.
    """
    gen = rng.stream("eval-negatives") if hasattr(rng, "stream") else rng

    def rank(user, pos_item):
        positives = positives_by_user.get(user, {pos_item}) if positives_by_user else {pos_item}
        candidates = [pos_item] + sample_negatives(user, n_negatives, model.n_items, positives, gen)
        ranking = model.predict_topk(user, candidates, k=len(candidates))
        return RankedResult(ranking=list(ranking), relevant={pos_item})

    return _evaluate(model, split, ks, rank, "single")


def evaluate_completion(model, split, ks) -> MetricReport:
    """Whole-vocabulary ranking for list completion.

    split is an iterable of (input item indices, target item indices) pairs;
    input items are excluded from the candidate pool and the targets form the
    relevant set (multi-relevant HR).
    """
    def rank(prefix, targets):
        ranking = model.predict_completion(prefix, k=max(ks), exclude=set(prefix))
        return RankedResult(ranking=list(ranking), relevant=set(targets))

    return _evaluate(model, split, ks, rank, "multi")
