"""Category-tree serialization: JSON schema and DOT digraph."""

from __future__ import annotations

import json

import numpy as np

from .quantizer import CategoryTree


def validate_tree(tree: CategoryTree) -> None:
    """Check the structural invariants; raises ValueError on violation."""
    h = tree.depth
    if h < 1:
        raise ValueError("tree must have at least one level")
    sizes = tree.level_sizes
    if any(a <= b for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"level sizes must be strictly decreasing, got {sizes}")
    if tree.paths.ndim != 2 or tree.paths.shape[1] != h:
        raise ValueError("every entity needs exactly one index per level")
    for level in range(h):
        col = tree.paths[:, level]
        if col.size and (col.min() < 0 or col.max() >= sizes[level]):
            raise ValueError(f"entity path index out of range at level {level + 1}")
    if len(tree.parents) != h - 1:
        raise ValueError(f"expected {h - 1} parent maps, got {len(tree.parents)}")
    for level, parents in enumerate(tree.parents):
        if parents.shape != (sizes[level],):
            raise ValueError(f"parent map at level {level + 1} must cover all {sizes[level]} codes")
        if parents.size and (parents.min() < 0 or parents.max() >= sizes[level + 1]):
            raise ValueError(f"parent index out of range at level {level + 1}")


def tree_to_dict(tree: CategoryTree) -> dict:
    validate_tree(tree)
    return {
        "level_sizes": [int(v) for v in tree.level_sizes],
        "paths": tree.paths.tolist(),
        "parents": [p.tolist() for p in tree.parents],
    }


def tree_from_dict(doc: dict) -> CategoryTree:
    """The tree of a document; other keys, such as the code snapshot older files hold, are ignored."""
    tree = CategoryTree(
        level_sizes=[int(v) for v in doc["level_sizes"]],
        paths=np.asarray(doc["paths"], dtype=np.int64).reshape(len(doc["paths"]), len(doc["level_sizes"])),
        parents=[np.asarray(p, dtype=np.int64) for p in doc["parents"]],
    )
    validate_tree(tree)
    return tree


def write_tree_json(tree: CategoryTree, path) -> None:
    """One json.dumps, then one write: json.dump to a file encodes chunk by chunk in Python."""
    text = json.dumps(tree_to_dict(tree), sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_tree_json(path) -> CategoryTree:
    with open(path, "r", encoding="utf-8") as fh:
        return tree_from_dict(json.load(fh))


def write_tree_dot(tree: CategoryTree, path) -> None:
    """Digraph with child -> parent edges; nodes L<level>_<index> and E_<entity>."""
    validate_tree(tree)
    lines = ["digraph category_tree {"]
    for level, size in enumerate(tree.level_sizes, start=1):
        for idx in range(size):
            lines.append(f'  L{level}_{idx} [shape=box];')
    for entity, code in enumerate(tree.paths[:, 0].tolist()):
        lines.append(f"  E_{entity};")
        lines.append(f"  E_{entity} -> L1_{code};")
    for level, parents in enumerate(tree.parents, start=1):
        for child, parent in enumerate(parents.tolist()):
            lines.append(f"  L{level}_{child} -> L{level + 1}_{parent};")
    lines.append("}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
