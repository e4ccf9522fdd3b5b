"""Seeded synthetic inputs with planted categories.

Items are split into categories; every user (or list) draws most of its items
from one category and the rest from the others.  The same seed always writes
the same bytes, and the program under test only ever sees the written files.
"""

from __future__ import annotations

import numpy as np


def _draw(gen, item_category, category, count, in_category):
    """``count`` distinct items, ``in_category`` of them from ``category``, shuffled."""
    inside = np.flatnonzero(item_category == category)
    outside = np.flatnonzero(item_category != category)
    n_in = min(int(round(in_category * count)), inside.size)
    picks = np.concatenate([
        gen.choice(inside, size=n_in, replace=False),
        gen.choice(outside, size=count - n_in, replace=False),
    ])
    gen.shuffle(picks)  # so the held-out tail is not biased toward one category
    return picks


def write_interactions(path, seed, n_users, n_items, n_categories=8,
                       per_user=(30, 48), in_category=0.9) -> dict:
    """Implicit-feedback TSV (``user<TAB>item``); file order is time order per user."""
    gen = np.random.default_rng(seed)
    item_category = gen.permutation(n_items) % n_categories
    lines = []
    for user in range(n_users):
        count = int(gen.integers(per_user[0], per_user[1] + 1))
        picks = _draw(gen, item_category, int(gen.integers(n_categories)), count, in_category)
        lines.extend(f"u{user}\ti{item}" for item in picks)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return {"users": n_users, "items": n_items, "categories": n_categories,
            "interactions": len(lines)}


def write_lists(path, seed, n_lists, n_items, n_categories=8,
                length=(10, 20), in_category=0.9) -> dict:
    """One whitespace-separated item list per line."""
    gen = np.random.default_rng(seed)
    item_category = gen.permutation(n_items) % n_categories
    lines = []
    total = 0
    for _ in range(n_lists):
        count = int(gen.integers(length[0], length[1] + 1))
        picks = _draw(gen, item_category, int(gen.integers(n_categories)), count, in_category)
        lines.append(" ".join(f"i{item}" for item in picks))
        total += count
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return {"lists": n_lists, "items": n_items, "categories": n_categories,
            "list_items": total}
