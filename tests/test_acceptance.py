"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL/SKIP
line (bypassing pytest's capture) so the run log shows the verdicts at a
glance.
"""

import json
import math
import os
import sys
import time

import numpy as np
import pytest

from treequant.config import config_from_dict
from treequant.checkpoint import load_checkpoint, save_checkpoint
from treequant.data import preprocess_lists
from treequant.metrics import RankedResult, evaluate_ranking, ndcg_at_k
from treequant.models import CfModel, CtrModel, EmbeddingTable, cf_bpr_step
from treequant.quantizer import (CascadedQuantizer, Codebook, make_quantizer,
                                 quantize_batch, ste_backward_batch)
from treequant.rng import SeededRng
from treequant.train import model_from_checkpoint, run_train
from treequant.treeio import read_tree_json, validate_tree, write_tree_json
from treequant.core import Parameter


VERDICTS: list = []


def _report(criterion: int, verdict: str, detail: str):
    line = f"[criterion {criterion}] {verdict}: {detail}"
    VERDICTS.append((criterion, line))
    print(line, flush=True)


# ---------------------------------------------------------------------------
# 1. Nearest-code oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_1_nearest_search_oracle():
    started = time.monotonic()
    gen = np.random.default_rng(11)
    try:
        for trial in range(1000):
            d = int(gen.integers(1, 65))
            k = int(gen.integers(1, 1001))
            entries = gen.normal(size=(k, d)).astype(np.float32)
            query = gen.normal(size=d).astype(np.float32)
            if trial % 7 == 0 and k >= 2:
                entries[1] = entries[0]  # force an exact tie
                query = entries[0] + np.float32(0.5)
            book = Codebook(level=1, entries=Parameter(entries, name="cb"))
            j = int(quantize_batch(CascadedQuantizer(codebooks=[book]), query[None, :]).indices[0, 0])

            # independent oracle: per-row float64 squared distance, first minimum
            q64 = query.astype(np.float64)
            best_j, best_d = 0, float("inf")
            for row in range(k):
                dist = float(((entries[row].astype(np.float64) - q64) ** 2).sum())
                if dist < best_d:
                    best_j, best_d = row, dist
            assert j == best_j, f"trial {trial}: got {j}, oracle {best_j}"
        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s"
    except AssertionError as exc:
        _report(1, "FAIL", str(exc))
        raise
    _report(1, "PASS", f"1000 pairs match the exhaustive oracle in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Straight-through identity on the task path
# ---------------------------------------------------------------------------


def test_criterion_2_ste_identity():
    gen = np.random.default_rng(22)
    try:
        for trial in range(200):
            h = int(gen.integers(1, 4))
            d = int(gen.choice([4, 64]))
            alpha = float(gen.uniform(0.0, 2.0))
            sizes = sorted(gen.choice(np.arange(2, 40), size=h, replace=False).tolist(), reverse=True)
            rng = SeededRng(trial)
            q = make_quantizer(rng, d, sizes, alpha=alpha, beta=1.0, init_std=0.5)
            e = gen.normal(size=d).astype(np.float32)
            trace = quantize_batch(q, e[None, :])
            grad_z = gen.normal(size=d).astype(np.float32)
            grad_e, code_grads, _ = ste_backward_batch(q, trace, grad_z[None, :], weight_cage=0.0)
            expected = (np.float32(1.0) + np.float32(alpha)) * grad_z
            assert np.max(np.abs(grad_e[0] - expected)) < 1e-6, f"trial {trial}"
            assert np.max(np.abs(code_grads)) == 0.0, f"trial {trial}: task path leaked into a codebook"
    except AssertionError as exc:
        _report(2, "FAIL", str(exc))
        raise
    _report(2, "PASS", "200 instances: grad to input equals (1+alpha)*grad_z within 1e-6")


# ---------------------------------------------------------------------------
# 3. Analytic vs central finite differences
# ---------------------------------------------------------------------------


def _central_diff(f, x, h=1e-3):
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp, xm = x.copy(), x.copy()
        xp[idx] += h
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2 * h)
        it.iternext()
    return g


def test_criterion_3_finite_difference_gradients():
    started = time.monotonic()
    gen = np.random.default_rng(33)
    try:
        for trial in range(100):
            h_levels = int(gen.integers(1, 4))
            d = int(gen.integers(2, 8))
            sizes = sorted(gen.choice(np.arange(2, 12), size=h_levels, replace=False).tolist(),
                           reverse=True)
            q = make_quantizer(SeededRng(trial), d, sizes, alpha=1.0,
                               beta=float(gen.uniform(0.2, 2.0)), init_std=0.5)
            e = gen.normal(size=d).astype(np.float32)
            trace = quantize_batch(q, e[None, :])
            grad_e, code_grads, _ = ste_backward_batch(q, trace, np.zeros((1, d), dtype=np.float32),
                                                       weight_cage=1.0)
            grad_e, codes = grad_e[0], trace.codes[:, 0]

            # Commitment gradient w.r.t. e: differentiate the straight-through
            # surrogate, freezing each level's offset at the base point.
            offsets = []
            prev = e.astype(np.float64)
            for c in codes:
                offsets.append(c.astype(np.float64) - prev)
                prev = c.astype(np.float64)

            def commit_surrogate(e64):
                # a perturbation of e rides the straight-through chain, so
                # every level input shifts by the same delta while the
                # per-level offsets stay frozen at the base point
                delta = e64 - e.astype(np.float64)
                return float(sum(((delta - off) ** 2).sum() for off in offsets))

            fd_commit = _central_diff(commit_surrogate, e.astype(np.float64), h=1e-3)
            expected = q.beta * fd_commit  # ste_backward_batch applies weight_cage * beta
            denom = np.maximum(np.abs(expected), 1e-3)
            rel = np.max(np.abs(grad_e.astype(np.float64) - expected) / denom)
            assert rel < 1e-4, f"trial {trial}: commit rel {rel:.2e}"

            # Quantization gradient w.r.t. each selected codebook row, other
            # levels' selections and inputs frozen at the base point.
            level_inputs = [e] + [c for c in codes[:-1]]
            for level in range(h_levels):
                base_in = level_inputs[level].astype(np.float64)

                def quant_at_row(c64):
                    return float(((base_in - c64) ** 2).sum())

                fd_row = _central_diff(quant_at_row, codes[level].astype(np.float64), h=1e-3)
                analytic_row = code_grads[level, 0].astype(np.float64)
                denom = np.maximum(np.abs(fd_row), 1e-3)
                rel = np.max(np.abs(analytic_row - fd_row) / denom)
                assert rel < 1e-4, f"trial {trial} level {level + 1}: quant rel {rel:.2e}"
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"took {elapsed:.2f}s"
    except AssertionError as exc:
        _report(3, "FAIL", str(exc))
        raise
    _report(3, "PASS", f"100 commit + 100 quant instances within rel 1e-4 in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 4. Forward loss identity
# ---------------------------------------------------------------------------


def penalties(trace, i):
    """(l_quant, l_commit) of row i of a BatchTrace, in float64.

    l_quant sums the distances the search returned; l_commit recomputes each
    level's squared offset from its input (the row, then the code above) to
    its code, so the two agree only if the search reports true distances.
    """
    l_quant = float(trace.sq_dists[:, i].sum())
    l_commit, prev = 0.0, trace.input[i].astype(np.float64)
    for c in trace.codes[:, i].astype(np.float64):
        l_commit += float(((prev - c) ** 2).sum())
        prev = c
    return l_quant, l_commit


def test_criterion_4_forward_loss_identity():
    gen = np.random.default_rng(44)
    try:
        checked = 0
        while checked < 10000:
            h = int(gen.integers(1, 4))
            d = int(gen.integers(2, 16))
            sizes = sorted(gen.choice(np.arange(2, 20), size=h, replace=False).tolist(),
                           reverse=True)
            q = make_quantizer(SeededRng(checked), d, sizes, init_std=0.5)
            batch = min(200, 10000 - checked)
            x = gen.normal(size=(batch, d)).astype(np.float32)
            trace = quantize_batch(q, x)
            for i in range(batch):
                l_quant, l_commit = penalties(trace, i)
                assert abs(l_quant - l_commit) < 1e-6, f"trace {checked + i}: {l_quant} vs {l_commit}"
            checked += batch
    except AssertionError as exc:
        _report(4, "FAIL", str(exc))
        raise
    _report(4, "PASS", "l_quant == l_commit within 1e-6 on 10000 fuzzed traces")


# ---------------------------------------------------------------------------
# 5. Ablation bit-identity
# ---------------------------------------------------------------------------


def _write_synthetic_interactions(path, n=1000, n_users=100, n_items=80, seed=5):
    gen = np.random.default_rng(seed)
    lines = []
    per_user = n // n_users
    for u in range(n_users):
        items = gen.choice(n_items, size=per_user, replace=False)
        for t, i in enumerate(items):
            lines.append(f"u{u}\ti{i}\t1\t{t}")
    path.write_text("\n".join(lines) + "\n")


def _write_synthetic_lists(path, n_lists=125, n_items=80, length=8, seed=5):
    # 125 lists x 8 items = 1000 interactions
    gen = np.random.default_rng(seed)
    lines = []
    for _ in range(n_lists):
        items = gen.choice(n_items, size=length, replace=False)
        lines.append(" ".join(f"i{i}" for i in items))
    path.write_text("\n".join(lines) + "\n")


def _ablation_config(path, task, with_cage):
    doc = {
        "task": task,
        "data": {"path": str(path),
                 "format": "lists" if task == "list-completion" else "generic-tsv",
                 "min_freq": 1},
        "cage": ({"item_enabled": True, "user_enabled": task != "list-completion",
                  "levels": [4, 2], "alpha": 0.0, "omega_q": 0.0, "omega_c": 0.0}
                 if with_cage else {}),
        "model": {"dim": 8, "hidden": [8], "lr": 0.01, "batch_size": 64,
                  "epochs": 3, "seed": 12},
        "eval": {"ks": [5], "n_negatives": 10},
    }
    return config_from_dict(doc)


def test_criterion_5_ablation_bit_identity(tmp_path):
    inter = tmp_path / "interactions.tsv"
    lists = tmp_path / "lists.txt"
    _write_synthetic_interactions(inter)
    _write_synthetic_lists(lists)
    try:
        for task in ("cf", "ctr", "list-completion"):
            data = lists if task == "list-completion" else inter
            plain = run_train(_ablation_config(data, task, with_cage=False))
            ablated = run_train(_ablation_config(data, task, with_cage=True))
            assert len(plain.step_losses) == len(ablated.step_losses) > 0
            for step, (a, b) in enumerate(zip(plain.step_losses, ablated.step_losses)):
                assert a["l_rec"] == b["l_rec"], f"{task} step {step}: {a['l_rec']} != {b['l_rec']}"
                assert a["l_total"] == b["l_total"], f"{task} step {step} (total)"
            for name, p in plain.model.named_parameters().items():
                q = ablated.model.named_parameters()[name]
                assert np.array_equal(p.value, q.value), f"{task}: {name} diverged"
    except AssertionError as exc:
        _report(5, "FAIL", str(exc))
        raise
    _report(5, "PASS", "cf/ctr/list-completion losses bit-identical with quantizers disabled")


# ---------------------------------------------------------------------------
# 6. Synthetic categorization
# ---------------------------------------------------------------------------

_C6_ITEMS, _C6_USERS, _C6_PER_USER = 2000, 500, 30


def _c6_dataset(seed):
    gen = np.random.default_rng(seed)
    item_cat = np.repeat(np.arange(4), _C6_ITEMS // 4)
    user_cat = gen.integers(0, 4, size=_C6_USERS)
    users, items = [], []
    n_in = int(round(_C6_PER_USER * 0.9))
    for u in range(_C6_USERS):
        in_cat = np.flatnonzero(item_cat == user_cat[u])
        out_cat = np.flatnonzero(item_cat != user_cat[u])
        chosen = np.concatenate([
            gen.choice(in_cat, size=n_in, replace=False),
            gen.choice(out_cat, size=_C6_PER_USER - n_in, replace=False),
        ])
        users.extend([u] * _C6_PER_USER)
        items.extend(chosen.tolist())
    return np.asarray(users), np.asarray(items), item_cat


def _purity(codes, cats):
    total = 0
    for c in np.unique(codes):
        total += np.bincount(cats[codes == c], minlength=4).max()
    return total / len(cats)


def _kmeans_purity(emb, cats, seed, iters=50):
    gen = np.random.default_rng(seed)
    x = emb.astype(np.float64)
    centers = x[gen.choice(len(x), 4, replace=False)]
    assign = np.zeros(len(x), dtype=np.int64)
    for _ in range(iters):
        d = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = d.argmin(axis=1)
        for k in range(4):
            if (assign == k).any():
                centers[k] = x[assign == k].mean(axis=0)
    return _purity(assign, cats)


def _c6_run(seed, dim=16, lr=0.03, epochs=20, batch=256):
    users_arr, items_arr, item_cat = _c6_dataset(1000 + seed)
    rng = SeededRng(seed)
    model = CfModel(
        users=EmbeddingTable.create(rng, _C6_USERS, dim, "user", 0.01),
        items=EmbeddingTable.create(rng, _C6_ITEMS, dim, "item", 0.01),
        item_cage=make_quantizer(rng, dim, [4], alpha=1.0, beta=1.0,
                                 name="item_cage", init_std=0.01),
        omega_q=1.0, lr=lr,
    )
    cage = model.item_cage
    table = model.items.rows
    init_purity = _purity(np.asarray(quantize_batch(cage, table.value).indices[0]), item_cat)

    pos_by_user = {}
    for u, i in zip(users_arr, items_arr):
        pos_by_user.setdefault(int(u), set()).add(int(i))
    shuffle, neg_gen = rng.stream("shuffle"), rng.stream("negative-sampling")
    n = len(users_arr)
    for _ in range(epochs):
        order = shuffle.permutation(n)
        for s in range(0, n, batch):
            idx = order[s:s + batch]
            u, p = users_arr[idx], items_arr[idx]
            negs = np.empty(len(idx), dtype=np.int64)
            for r, uu in enumerate(u):
                while True:
                    cand = int(neg_gen.integers(0, _C6_ITEMS))
                    if cand not in pos_by_user[int(uu)]:
                        negs[r] = cand
                        break
            cf_bpr_step(model, u, p, negs)
    final_purity = _purity(np.asarray(quantize_batch(cage, table.value).indices[0]), item_cat)
    km_purity = _kmeans_purity(table.value, item_cat, seed)
    return init_purity, final_purity, km_purity


def test_criterion_6_synthetic_categorization():
    started = time.monotonic()
    try:
        results = [_c6_run(seed) for seed in (0, 1, 2)]
        elapsed = time.monotonic() - started
        passing = [f for i, f, _ in results if f >= 0.70]
        details = ", ".join(f"init {i:.3f} -> {f:.3f} (kmeans {k:.3f})" for i, f, k in results)
        assert len(passing) >= 2, f"purity >= 0.70 in only {len(passing)}/3 seeds: {details}"
        assert all(f > i for i, f, _ in results), f"purity did not exceed initialization: {details}"
        # the k-means oracle confirms the embedding space supports the threshold
        assert sum(k >= 0.70 for _, _, k in results) >= 2, f"k-means oracle disagrees: {details}"
        assert elapsed < 300.0, f"took {elapsed:.1f}s"
    except AssertionError as exc:
        _report(6, "FAIL", str(exc))
        raise
    _report(6, "PASS", f"{details}; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. Directional check on MovieLens-100K
# ---------------------------------------------------------------------------

_ML100K_CANDIDATES = [
    os.environ.get("TREEQUANT_ML100K", ""),
    "/root/pkg/data/ml-100k/u.data",
    "/root/data/ml-100k/u.data",
]


def _find_ml100k():
    for path in _ML100K_CANDIDATES:
        if path and os.path.exists(path):
            return path
    return None


def test_criterion_7_movielens_directional(tmp_path):
    data_path = _find_ml100k()
    if data_path is None:
        _report(7, "SKIP", "MovieLens-100K not present locally and the sandbox has no "
                           "network access to fetch it; set TREEQUANT_ML100K to run")
        pytest.skip("MovieLens-100K data unavailable in this environment")

    def cfg(seed, with_cage):
        return config_from_dict({
            "task": "ctr",
            "data": {"path": data_path, "format": "movielens-100k"},
            "cage": ({"user_enabled": True, "item_enabled": True, "levels": [32, 8]}
                     if with_cage else {}),
            "model": {"dim": 64, "hidden": [64], "lr": 0.001, "batch_size": 5000,
                      "epochs": 5, "seed": seed},
            "eval": {"ks": [5], "n_negatives": 99},
        })

    started = time.monotonic()
    base_scores, cage_scores = [], []
    try:
        for seed in (0, 1, 2):
            base = run_train(cfg(seed, False))
            cage = run_train(cfg(seed, True))
            base_scores.append(base.epoch_metrics[-1].values["ndcg@5"])
            cage_scores.append(cage.epoch_metrics[-1].values["ndcg@5"])
        elapsed = time.monotonic() - started
        assert np.mean(cage_scores) >= np.mean(base_scores), \
            f"cage {np.mean(cage_scores):.4f} < baseline {np.mean(base_scores):.4f}"
        assert elapsed < 900.0, f"took {elapsed:.1f}s"
    except AssertionError as exc:
        _report(7, "FAIL", str(exc))
        raise
    _report(7, "PASS", f"mean NDCG@5 {np.mean(base_scores):.4f} -> {np.mean(cage_scores):.4f} "
                       f"in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 8. Metric closed forms and the random-rank null
# ---------------------------------------------------------------------------


def test_criterion_8_metric_closed_forms():
    try:
        closed = []
        for rank, expected in ((1, 1.0), (2, 0.6309), (3, 0.5)):
            ranking = list(range(10))
            r = RankedResult(ranking=ranking, relevant={ranking[rank - 1]})
            value = ndcg_at_k(r, 5)
            closed.append(value)
            assert abs(value - expected) < 1e-4, f"rank {rank}: {value}"

        n_units = 2000
        n_items = 3000
        model = CfModel(
            users=EmbeddingTable.create(SeededRng(88), n_units, 8, "user", 0.01),
            items=EmbeddingTable.create(SeededRng(88), n_items, 8, "item", 0.01),
            omega_q=0.0, lr=0.01,
        )
        gen = np.random.default_rng(8)
        split = [(u, int(gen.integers(0, n_items))) for u in range(n_units)]
        report = evaluate_ranking(model, split, n_negatives=99, ks=[10], rng=SeededRng(9).stream("eval-negatives"))
        hr = report.values["hr@10"]
        assert abs(hr - 0.1) <= 0.02, f"untrained HR@10 {hr:.4f} outside 0.1 +/- 0.02"
    except AssertionError as exc:
        _report(8, "FAIL", str(exc))
        raise
    _report(8, "PASS", f"NDCG@5 closed forms {[f'{v:.4f}' for v in closed]}, "
                       f"untrained HR@10 = {hr:.4f}")


# ---------------------------------------------------------------------------
# 9. Tree integrity + bit-exact persistence
# ---------------------------------------------------------------------------


def test_criterion_9_tree_and_persistence(tmp_path):
    from treequant.quantizer import extract_tree

    data = tmp_path / "interactions.tsv"
    _write_synthetic_interactions(data, seed=9)
    cfg_doc = {
        "task": "cf",
        "data": {"path": str(data), "format": "generic-tsv", "min_freq": 1},
        "cage": {"item_enabled": True, "levels": [6, 3]},
        "model": {"dim": 8, "hidden": [8], "lr": 0.01, "batch_size": 64,
                  "epochs": 2, "seed": 99},
        "eval": {"ks": [5], "n_negatives": 10},
    }
    try:
        artifacts = []
        for run_dir in ("run_a", "run_b"):
            out = tmp_path / run_dir
            result = run_train(config_from_dict(cfg_doc), out_dir=str(out))
            ckpt = load_checkpoint(result.checkpoint_path)
            model, _ = model_from_checkpoint(ckpt)
            tree = extract_tree(model.item_cage, model.items.rows.value)
            validate_tree(tree)
            tree_path = out / "tree.json"
            write_tree_json(tree, tree_path)
            back = read_tree_json(tree_path)
            validate_tree(back)
            assert np.array_equal(back.paths, tree.paths)
            for name, p in model.named_parameters().items():
                assert np.array_equal(p.value, ckpt.tensors[name]), f"{name} not bit-exact"
            artifacts.append((
                (out / "model.ckpt").read_bytes(),
                (out / "train_log.jsonl").read_bytes(),
                tree_path.read_bytes(),
            ))
        assert artifacts[0][0] == artifacts[1][0], "checkpoints differ between identical runs"
        assert artifacts[0][1] == artifacts[1][1], "logs differ between identical runs"
        assert artifacts[0][2] == artifacts[1][2], "trees differ between identical runs"
    except AssertionError as exc:
        _report(9, "FAIL", str(exc))
        raise
    _report(9, "PASS", "tree invariants hold; checkpoints, logs, and trees are "
                       "bit-identical across two identical seeded runs")


# ---------------------------------------------------------------------------
# 10. Preprocessing fixed point
# ---------------------------------------------------------------------------


def test_criterion_10_preprocessing_fixed_point():
    try:
        # hand-traced cascade: mutual elimination empties the corpus
        out = preprocess_lists([["1", "2"], ["2", "3"], ["3"]], min_freq=2, min_len=2, max_len=10)
        assert out == [], f"hand-traced cascade gave {out}"

        gen = np.random.default_rng(1010)
        for trial in range(100):
            n_lists = int(gen.integers(1, 40))
            corpus = [[str(gen.integers(0, 15)) for _ in range(int(gen.integers(1, 12)))]
                      for _ in range(n_lists)]
            min_freq = int(gen.integers(1, 5))
            max_len = int(gen.integers(2, 10))
            first = preprocess_lists(corpus, min_freq=min_freq, min_len=2, max_len=max_len)
            again = preprocess_lists(first, min_freq=min_freq, min_len=2, max_len=max_len)
            assert again == first, f"corpus {trial}"
    except AssertionError as exc:
        _report(10, "FAIL", str(exc))
        raise
    _report(10, "PASS", "100 fuzzed corpora reach a fixed point; hand-traced cascade exact")
