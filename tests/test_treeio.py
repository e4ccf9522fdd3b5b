import json

import numpy as np
import pytest

from treequant.quantizer import (CategoryTree, extract_tree, make_quantizer,
                                 quantize_batch)
from treequant.rng import SeededRng
from treequant.treeio import (read_tree_json, tree_from_dict, tree_to_dict,
                              validate_tree, write_tree_dot, write_tree_json)


def _star_tree(n_entities=3):
    # one level, one code: every entity maps to code 0
    return CategoryTree(
        level_sizes=[1],
        paths=np.zeros((n_entities, 1), dtype=np.int64),
        parents=[],
    )


def _two_level_tree():
    return CategoryTree(
        level_sizes=[3, 2],
        paths=np.array([[0, 0], [1, 1], [2, 1], [0, 0]], dtype=np.int64),
        parents=[np.array([0, 1, 1], dtype=np.int64)],
    )


def _per_scalar_dot(tree) -> str:
    """The DOT text as formatted from one numpy scalar per entity path and parent entry."""
    lines = ["digraph category_tree {"]
    for level, size in enumerate(tree.level_sizes, start=1):
        for idx in range(size):
            lines.append(f'  L{level}_{idx} [shape=box];')
    for entity in range(tree.n_entities):
        lines.append(f"  E_{entity};")
        lines.append(f"  E_{entity} -> L1_{tree.paths[entity, 0]};")
    for level, parents in enumerate(tree.parents, start=1):
        for child, parent in enumerate(parents):
            lines.append(f"  L{level}_{child} -> L{level + 1}_{parent};")
    lines.append("}")
    return "\n".join(lines) + "\n"


class TestValidate:
    def test_valid_trees_pass(self):
        validate_tree(_star_tree())
        validate_tree(_two_level_tree())

    def test_non_decreasing_sizes_rejected(self):
        t = _two_level_tree()
        t.level_sizes = [2, 2]
        with pytest.raises(ValueError):
            validate_tree(t)

    def test_path_out_of_range(self):
        t = _two_level_tree()
        t.paths[0, 0] = 5
        with pytest.raises(ValueError):
            validate_tree(t)

    def test_parent_out_of_range(self):
        t = _two_level_tree()
        t.parents[0][0] = 9
        with pytest.raises(ValueError):
            validate_tree(t)

    def test_missing_parent_map(self):
        t = _two_level_tree()
        t.parents = []
        with pytest.raises(ValueError):
            validate_tree(t)


class TestJson:
    def test_round_trip_preserves_everything(self, tmp_path):
        t = _two_level_tree()
        p = tmp_path / "tree.json"
        write_tree_json(t, p)
        back = read_tree_json(p)
        assert back.level_sizes == t.level_sizes
        assert np.array_equal(back.paths, t.paths)
        assert all(np.array_equal(a, b) for a, b in zip(back.parents, t.parents))
        assert sorted(json.loads(p.read_text())) == ["level_sizes", "parents", "paths"]

    def test_file_with_a_code_snapshot_loads(self, tmp_path):
        # files written before the snapshot was dropped hold a "codes" key
        doc = tree_to_dict(_two_level_tree())
        doc["codes"] = [[[0.0, 0.0]] * 3, [[0.0, 0.0]] * 2]
        p = tmp_path / "tree.json"
        p.write_text(json.dumps(doc))
        assert tree_to_dict(read_tree_json(p)) == tree_to_dict(_two_level_tree())

    def test_round_trip_validates(self, tmp_path):
        p = tmp_path / "tree.json"
        write_tree_json(_star_tree(), p)
        validate_tree(read_tree_json(p))

    def test_invalid_dict_rejected(self):
        doc = tree_to_dict(_two_level_tree())
        doc["parents"] = []
        with pytest.raises(ValueError):
            tree_from_dict(doc)

    def test_extracted_tree_round_trips(self, tmp_path):
        rng = SeededRng(3)
        q = make_quantizer(rng, 4, [5, 2], init_std=0.5)
        emb = rng.stream("emb").normal(size=(20, 4)).astype(np.float32)
        tree = extract_tree(q, emb)
        p = tmp_path / "tree.json"
        write_tree_json(tree, p)
        back = read_tree_json(p)
        assert np.array_equal(back.paths, tree.paths)

    def test_paths_match_recomputed_cascade(self, tmp_path):
        # the exported paths must equal the quantizer's per-entity indices
        rng = SeededRng(8)
        q = make_quantizer(rng, 6, [7, 3], init_std=0.5)
        emb = rng.stream("emb").normal(size=(30, 6)).astype(np.float32)
        tree = extract_tree(q, emb)
        trace = quantize_batch(q, emb)
        recomputed = np.stack(trace.indices, axis=1)
        assert np.array_equal(tree.paths, recomputed)


class TestDot:
    def test_star_has_four_nodes_three_edges(self, tmp_path):
        p = tmp_path / "tree.dot"
        write_tree_dot(_star_tree(3), p)
        text = p.read_text()
        assert text.startswith("digraph")
        node_lines = [l for l in text.splitlines()
                      if l.strip().endswith(";") and "->" not in l and "[" not in l or "[shape=box]" in l]
        edges = [l for l in text.splitlines() if "->" in l]
        assert len(edges) == 3
        # nodes: 1 code + 3 entities
        assert "L1_0" in text
        assert all(f"E_{e}" in text for e in range(3))

    def test_two_level_edges(self, tmp_path):
        p = tmp_path / "tree.dot"
        write_tree_dot(_two_level_tree(), p)
        text = p.read_text()
        # 4 entity->level1 edges plus 3 level1->level2 edges
        assert sum("->" in l for l in text.splitlines()) == 7
        assert "L1_1 -> L2_1;" in text

    def test_bytes_equal_the_per_scalar_writer(self, tmp_path):
        """The writer formats Python ints; the bytes are those of formatting each numpy scalar."""
        gen = np.random.default_rng(3000)
        sizes = [256, 32, 8]
        tree = CategoryTree(level_sizes=sizes, paths=gen.integers(0, sizes, size=(3000, 3)),
                            parents=[gen.integers(0, high, size=low) for low, high in zip(sizes, sizes[1:])])
        p = tmp_path / "tree.dot"
        write_tree_dot(tree, p)
        assert p.read_bytes() == _per_scalar_dot(tree).encode("utf-8")

    def test_invalid_tree_not_written(self, tmp_path):
        t = _two_level_tree()
        t.parents = []
        p = tmp_path / "tree.dot"
        with pytest.raises(ValueError):
            write_tree_dot(t, p)
        assert not p.exists()
