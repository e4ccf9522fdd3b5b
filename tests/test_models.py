import contextlib
import copy
import math

import numpy as np
import pytest

from treequant.errors import DimensionError, DivergenceError
from treequant.metrics import evaluate_completion, evaluate_ranking
from treequant.models import (CfModel, CtrModel, EmbeddingTable, SeqModel,
                              cf_bpr_step, ctr_step, make_mlp_params,
                              make_tree_heads, seq_step)
from treequant.quantizer import make_quantizer, quantize_batch
from treequant.rng import SeededRng

from oracles import finite_diff_gradient


def _tables(rng, n_users=8, n_items=12, dim=4, std=0.1):
    users = EmbeddingTable.create(rng, n_users, dim, "user", init_std=std)
    items = EmbeddingTable.create(rng, n_items, dim, "item", init_std=std)
    return users, items


def _cf(seed=0, with_cage=False, omega_q=1.0, alpha=1.0, lr=0.01, dim=4):
    rng = SeededRng(seed)
    users, items = _tables(rng, dim=dim)
    cage = make_quantizer(rng, dim, [4, 2], alpha=alpha, name="item_cage") if with_cage else None
    return CfModel(users, items, item_cage=cage, omega_q=omega_q, lr=lr)


class TestCfModel:
    def test_symmetric_triple_gives_ln2(self):
        model = _cf(omega_q=0.0)
        # identical positive and negative embeddings -> zero margin
        model.items.rows.value[3] = model.items.rows.value[5]
        losses = cf_bpr_step(model, [0], [3], [5])
        assert losses["l_rec"] == pytest.approx(math.log(2), rel=1e-6)

    def test_margin_two_closed_form(self):
        model = _cf(omega_q=0.0)
        # engineer a margin of exactly 2
        model.users.rows.value[0] = np.array([1, 0, 0, 0], dtype=np.float32)
        model.items.rows.value[3] = np.array([2, 0, 0, 0], dtype=np.float32)
        model.items.rows.value[5] = np.zeros(4, dtype=np.float32)
        losses = cf_bpr_step(model, [0], [3], [5])
        assert losses["l_rec"] == pytest.approx(-math.log(1 / (1 + math.exp(-2))), rel=1e-5)
        assert losses["l_rec"] == pytest.approx(0.126928, abs=1e-5)

    def test_pos_equal_neg_rejected(self):
        model = _cf()
        with pytest.raises(ValueError):
            cf_bpr_step(model, [0], [3], [3])

    def test_index_out_of_range(self):
        model = _cf()
        with pytest.raises(IndexError):
            cf_bpr_step(model, [99], [0], [1])

    def test_loss_components_nonnegative(self):
        model = _cf(with_cage=True)
        losses = cf_bpr_step(model, [0, 1], [2, 3], [4, 5])
        assert losses["l_rec"] >= 0.0
        assert losses["l_cage"] >= 0.0
        assert losses["l_total"] == pytest.approx(
            losses["l_rec"] + model.omega_q * losses["l_cage"], rel=1e-6)

    def test_step_changes_parameters(self):
        model = _cf(with_cage=True)
        before = model.items.rows.value.copy()
        cf_bpr_step(model, [0], [2], [4])
        assert not np.array_equal(before, model.items.rows.value)

    def test_cage_dim_mismatch_rejected(self):
        rng = SeededRng(0)
        users, items = _tables(rng, dim=4)
        bad = make_quantizer(rng, 8, [3, 2])
        with pytest.raises(DimensionError):
            CfModel(users, items, item_cage=bad, omega_q=1.0, lr=0.01)

    def test_task_gradient_matches_finite_differences(self):
        # quantizer selections frozen: perturb one user row, compare l_rec FD
        model = _cf(omega_q=0.0, with_cage=True, alpha=0.5)
        u, p, n = [0, 1], [2, 3], [4, 5]
        cage = model.item_cage

        def f(user_rows):
            z_u = user_rows[np.array(u)].astype(np.float64)
            z_p = quantize_batch(cage, model.items.rows.value[np.array(p)]).fused.astype(np.float64)
            z_n = quantize_batch(cage, model.items.rows.value[np.array(n)]).fused.astype(np.float64)
            margin = (z_u * z_p).sum(axis=1) - (z_u * z_n).sum(axis=1)
            return float(np.mean(np.logaddexp(0.0, -margin)))

        fd = finite_diff_gradient(f, model.users.rows.value.astype(np.float64), h=1e-3)
        zero_lr = CfModel(model.users, model.items, item_cage=cage, omega_q=0.0, lr=0.0)
        # capture the gradient before Adam zeroes it
        grads = {}
        original = zero_lr.optimizer.step
        zero_lr.optimizer.step = lambda: grads.update(user=model.users.rows.grad.copy()) or original()
        cf_bpr_step(zero_lr, u, p, n)
        denom = np.maximum(np.abs(fd), 1e-2)
        assert np.max(np.abs(grads["user"] - fd) / denom) < 1e-3


class TestCfAblation:
    def test_disabled_cage_bit_identical_to_plain(self):
        plain = _cf(seed=5, with_cage=False, lr=0.01)
        ablated = _cf(seed=5, with_cage=True, omega_q=0.0, alpha=0.0, lr=0.01)
        gen = np.random.default_rng(0)
        for _ in range(5):
            u = gen.integers(0, 8, size=4)
            p = gen.integers(0, 12, size=4)
            n = (p + 1 + gen.integers(0, 11, size=4)) % 12
            la = cf_bpr_step(plain, u, p, n)
            lb = cf_bpr_step(ablated, u, p, n)
            assert la["l_rec"] == lb["l_rec"]
        assert np.array_equal(plain.users.rows.value, ablated.users.rows.value)
        assert np.array_equal(plain.items.rows.value, ablated.items.rows.value)


def _ctr(seed=0, with_cage=False, omega_q=1.0, alpha=1.0, lr=0.001, dim=4, hidden=(6,)):
    rng = SeededRng(seed)
    users, items = _tables(rng, dim=dim)
    cage = make_quantizer(rng, dim, [4, 2], alpha=alpha, name="item_cage") if with_cage else None
    mlp = make_mlp_params(rng, [2 * dim, *hidden, 1], name="scorer")
    return CtrModel(users, items, mlp, item_cage=cage, omega_q=omega_q, lr=lr)


class TestCtrModel:
    def test_zero_final_layer_gives_ln2(self):
        for label in (0, 1):
            model = _ctr(omega_q=0.0)
            w, b = model.layers[-1]
            w.value[...] = 0.0
            b.value[...] = 0.0
            logits, _, _, _ = model.score(np.array([0]), np.array([1]))
            assert logits[0] == 0.0
            losses = ctr_step(model, [0], [1], [label])
            assert losses["l_rec"] == pytest.approx(math.log(2), rel=1e-6)

    def test_mlp_width_validated(self):
        rng = SeededRng(0)
        users, items = _tables(rng, dim=4)
        bad = make_mlp_params(rng, [5, 1], name="scorer")
        with pytest.raises(DimensionError):
            CtrModel(users, items, bad, omega_q=1.0, lr=0.001)

    def test_disable_path_matches_plain(self):
        plain = _ctr(seed=9, with_cage=False)
        ablated = _ctr(seed=9, with_cage=True, omega_q=0.0, alpha=0.0)
        gen = np.random.default_rng(1)
        for _ in range(5):
            u = gen.integers(0, 8, size=6)
            i = gen.integers(0, 12, size=6)
            y = gen.integers(0, 2, size=6)
            la = ctr_step(plain, u, i, y)
            lb = ctr_step(ablated, u, i, y)
            assert la["l_rec"] == lb["l_rec"]
        assert np.array_equal(plain.users.rows.value, ablated.users.rows.value)

    def test_user_gradient_matches_finite_differences(self):
        model = _ctr(seed=2, with_cage=True, omega_q=0.0, alpha=0.7, lr=0.0)
        u, i, y = [0, 1, 2], [3, 4, 5], [1, 0, 1]
        cage = model.item_cage
        layers = [(w.value.copy(), b.value.copy()) for w, b in model.layers]

        def f(user_rows):
            z_u = user_rows[np.array(u)].astype(np.float64)
            z_i = quantize_batch(cage, model.items.rows.value[np.array(i)]).fused.astype(np.float64)
            h = np.concatenate([z_u, z_i], axis=1)
            for li, (w, b) in enumerate(layers):
                h = h @ w.astype(np.float64) + b.astype(np.float64)
                if li < len(layers) - 1:
                    h = np.maximum(h, 0.0)
            x = h[:, 0]
            yy = np.asarray(y, dtype=np.float64)
            loss = np.maximum(x, 0.0) - x * yy + np.log1p(np.exp(-np.abs(x)))
            return float(loss.mean())

        fd = finite_diff_gradient(f, model.users.rows.value.astype(np.float64), h=1e-3)
        grads = {}
        original = model.optimizer.step
        model.optimizer.step = lambda: grads.update(user=model.users.rows.grad.copy()) or original()
        ctr_step(model, u, i, y)
        denom = np.maximum(np.abs(fd), 1e-2)
        assert np.max(np.abs(grads["user"] - fd) / denom) < 1e-3

    def test_loss_components_nonnegative(self):
        model = _ctr(with_cage=True)
        losses = ctr_step(model, [0, 1], [2, 3], [1, 0])
        assert losses["l_rec"] >= 0.0 and losses["l_cage"] >= 0.0

    def test_label_outside_0_1_rejected_before_any_update(self):
        model = _ctr(with_cage=True)
        before = {name: p.value.copy() for name, p in model.named_parameters().items()}
        with pytest.raises(ValueError, match="label must be 0 or 1"):
            ctr_step(model, [0, 1], [0, 1], [2, 1])
        for name, p in model.named_parameters().items():
            assert np.array_equal(p.value, before[name]) and not p.grad.any()


def _seq(seed=0, n_items=12, dim=4, with_cage=True, sizes=(4, 2),
         omega_c=1.0, omega_q=1.0, alpha=1.0, lr=0.001, hidden=(6,)):
    rng = SeededRng(seed)
    items = EmbeddingTable.create(rng, n_items, dim, "item", init_std=0.1)
    cage = make_quantizer(rng, dim, list(sizes), alpha=alpha, name="item_cage") if with_cage else None
    heads = make_tree_heads(rng, dim, sizes) if with_cage else None
    enc = make_mlp_params(rng, [dim, *hidden, dim], name="encoder")
    return SeqModel(items, enc, item_cage=cage, tree_heads=heads,
                    omega_c=omega_c, omega_q=omega_q, lr=lr)


class TestSeqModel:
    def test_two_item_symmetric_logits_give_ln2(self):
        model = _seq(n_items=2, with_cage=False)
        model.items.rows.value[...] = 1.0  # identical rows -> symmetric logits
        losses = seq_step(model, [[0]], [1])
        assert losses["l_item"] == pytest.approx(math.log(2), rel=1e-5)

    def test_uniform_head_gives_ln4(self):
        model = _seq(sizes=(4,), omega_q=0.0)
        w, b = model.tree_heads[0]
        w.value[...] = 0.0
        b.value[...] = 0.0
        losses = seq_step(model, [[0, 1]], [2])
        assert losses["l_tree"] == pytest.approx(math.log(4), rel=1e-5)

    def test_empty_prefix_rejected(self):
        model = _seq()
        with pytest.raises(ValueError):
            seq_step(model, [[]], [0])
        with pytest.raises(ValueError, match="nonempty"):
            model.predict_completion([], k=1)

    def test_head_width_validated(self):
        rng = SeededRng(0)
        items = EmbeddingTable.create(rng, 6, 4, "item", init_std=0.1)
        cage = make_quantizer(rng, 4, [4, 2])
        heads = make_tree_heads(rng, 4, [4, 3])  # wrong width at level 2
        enc = make_mlp_params(rng, [4, 4], name="encoder")
        with pytest.raises(DimensionError):
            SeqModel(items, enc, item_cage=cage, tree_heads=heads, omega_c=1.0, omega_q=1.0, lr=0.001)

    def test_full_ablation_matches_plain(self):
        plain = _seq(seed=4, with_cage=False)
        ablated = _seq(seed=4, with_cage=True, omega_c=0.0, omega_q=0.0, alpha=0.0)
        gen = np.random.default_rng(2)
        for _ in range(5):
            prefixes = [list(gen.integers(0, 12, size=int(gen.integers(1, 4)))) for _ in range(3)]
            targets = gen.integers(0, 12, size=3)
            la = seq_step(plain, prefixes, targets)
            lb = seq_step(ablated, prefixes, targets)
            assert la["l_item"] == lb["l_item"]
        assert np.array_equal(plain.items.rows.value, ablated.items.rows.value)

    def test_loss_composition(self):
        model = _seq(omega_c=0.5, omega_q=2.0)
        losses = seq_step(model, [[0, 1], [2]], [3, 4])
        assert losses["l_rec"] == pytest.approx(losses["l_item"] + 0.5 * losses["l_tree"], rel=1e-6)
        assert losses["l_total"] == pytest.approx(losses["l_rec"] + 2.0 * losses["l_cage"], rel=1e-6)


class TestPredictTopk:
    def test_single_candidate(self):
        model = _cf()
        assert model.predict_topk(0, [7], k=1) == [7]

    def test_sorted_by_engineered_scores(self):
        model = _cf(dim=4)
        model.users.rows.value[0] = np.array([1, 0, 0, 0], dtype=np.float32)
        for item, s in ((7, 0.9), (8, 0.1), (9, 0.5)):
            model.items.rows.value[item] = np.array([s, 0, 0, 0], dtype=np.float32)
        assert model.predict_topk(0, [7, 8, 9], k=2) == [7, 9]

    def test_equal_scores_ascending_index(self):
        model = _cf()
        model.users.rows.value[0] = 0.0  # all scores zero
        assert model.predict_topk(0, [9, 3, 6], k=3) == [3, 6, 9]

    def test_no_duplicates_and_length(self):
        model = _ctr(with_cage=True)
        out = model.predict_topk(1, list(range(12)), k=5)
        assert len(out) == 5 and len(set(out)) == 5

    def test_deterministic(self):
        model = _cf(with_cage=True)
        a = model.predict_topk(2, list(range(12)), k=6)
        assert a == model.predict_topk(2, list(range(12)), k=6)

    @pytest.mark.parametrize("user", [-1, -8, 8, 99])
    @pytest.mark.parametrize("with_cage", [False, True], ids=["plain", "cage"])
    @pytest.mark.parametrize("kind", ["cf", "ctr"])
    def test_user_out_of_range_raises(self, kind, with_cage, user):
        # a negative user indexed from the end of the 8-row table and ranked for another user
        model = {"cf": _cf, "ctr": _ctr}[kind](with_cage=with_cage)
        for scope in (contextlib.nullcontext(), model.frozen()):
            with scope, pytest.raises(IndexError, match=r"user index out of range \[0, 8\)"):
                model.predict_topk(user, [1, 2, 3], k=2)


class TestPredictCompletion:
    def test_forced_choice(self):
        model = _seq(n_items=3, with_cage=False)
        out = model.predict_completion([0, 1], k=1, exclude={0, 1})
        assert out == [2]

    def test_exclusion_removes_argmax(self):
        model = _seq(n_items=4, with_cage=False, hidden=(4,))
        full = model.predict_completion([0], k=4)
        best = full[0]
        out = model.predict_completion([0], k=1, exclude={best})
        assert out == [full[1]]

    def test_k_exceeds_remaining(self):
        model = _seq(n_items=3, with_cage=False)
        with pytest.raises(ValueError):
            model.predict_completion([0], k=3, exclude={0})

    @pytest.mark.parametrize("exclude", [{1, 2, 99, 100}, {1, -1}, {20}, [2, 20, 2]])
    def test_out_of_range_exclude_raises(self, exclude):
        # an id outside [0, 20) excludes nothing, so it must not shrink the rankable count either
        model = _seq(n_items=20, with_cage=False)
        with pytest.raises(IndexError, match=r"item index out of range \[0, 20\)"):
            model.predict_completion([0], k=17, exclude=exclude)
        assert len(model.predict_completion([0], k=18, exclude={1, 2})) == 18

    def test_deterministic(self):
        model = _seq(with_cage=True)
        a = model.predict_completion([1, 2, 3], k=5)
        assert a == model.predict_completion([1, 2, 3], k=5)


class TestNonFiniteScores:
    @pytest.mark.parametrize("kind", ["cf", "ctr", "seq"])
    def test_nan_table_row_raises(self, kind):
        model = {"cf": _cf, "ctr": _ctr, "seq": _seq}[kind](with_cage=True)
        model.items.rows.value[5] = np.nan
        with pytest.raises(DivergenceError, match="non-finite ranking score"):
            if kind == "seq":
                model.predict_completion([1, 2], k=3, exclude={1, 2, 5})  # an excluded item's score is checked too
            else:
                model.predict_topk(0, [2, 5, 7], k=2)


class TestEmbeddingTable:
    def test_same_seed_same_rows(self):
        a = EmbeddingTable.create(SeededRng(1), 5, 3, "user")
        b = EmbeddingTable.create(SeededRng(1), 5, 3, "user")
        assert np.array_equal(a.rows.value, b.rows.value)

    def test_roles_draw_independent_streams(self):
        rng = SeededRng(1)
        u = EmbeddingTable.create(rng, 5, 3, "user")
        i = EmbeddingTable.create(rng, 5, 3, "item")
        assert not np.array_equal(u.rows.value, i.rows.value)


# ---------------------------------------------------------------------------
# Frozen evaluation scope: one whole-table quantize per side, same results
# ---------------------------------------------------------------------------


class _PerCall:
    """A model's scorer without the frozen scope: every call runs the cascade."""

    def __init__(self, model):
        self.model = model
        self.n_items = model.n_items

    def frozen(self):
        return contextlib.nullcontext()

    def predict_topk(self, user, candidates, k):
        return self.model.predict_topk(user, candidates, k)

    def predict_completion(self, prefix, k, exclude=()):
        return self.model.predict_completion(prefix, k, exclude)


def _frozen_model(task, seed=3, n_users=30, n_items=40, dim=32, sizes=(6, 3)):
    rng = SeededRng(seed)

    def cage(name):
        return make_quantizer(rng, dim, list(sizes), alpha=0.8, name=name, init_std=0.3)

    items = EmbeddingTable.create(rng, n_items, dim, "item", init_std=0.3)
    if task == "seq":
        enc = make_mlp_params(rng, [dim, 6, dim], name="encoder")
        return SeqModel(items, enc, item_cage=cage("item_cage"),
                        tree_heads=make_tree_heads(rng, dim, sizes), omega_c=1.0, omega_q=1.0, lr=0.05)
    users = EmbeddingTable.create(rng, n_users, dim, "user", init_std=0.3)
    if task == "cf":
        return CfModel(users, items, user_cage=cage("user_cage"), item_cage=cage("item_cage"), omega_q=1.0, lr=0.05)
    mlp = make_mlp_params(rng, [2 * dim, 6, 1], name="scorer")
    return CtrModel(users, items, mlp, user_cage=cage("user_cage"), item_cage=cage("item_cage"),
                    omega_q=1.0, lr=0.001)


def _completion_split(n_items=40, n_units=25, seed=0):
    gen = np.random.default_rng(seed)
    split = []
    for _ in range(n_units):
        chosen = gen.choice(n_items, size=int(gen.integers(3, 9)), replace=False).tolist()
        cut = (len(chosen) + 1) // 2
        split.append((chosen[:cut], chosen[cut:]))
    return split


@pytest.fixture
def count_quantize(monkeypatch):
    """Count the rows of every quantize_batch call made from treequant.models."""
    import treequant.models as models_module

    calls = []
    real = models_module.quantize_batch

    def counted(q, x):
        calls.append(len(x))
        return real(q, x)

    monkeypatch.setattr(models_module, "quantize_batch", counted)
    return calls


class TestFrozenScope:
    @pytest.mark.parametrize("task", ["cf", "ctr"])
    def test_ranking_report_equals_per_call(self, task, count_quantize):
        model = _frozen_model(task)
        split = [(u, (3 * u) % 40) for u in range(30)]
        frozen = evaluate_ranking(model, split, 20, [1, 5, 10], SeededRng(4).stream("eval-negatives"))
        n_frozen = len(count_quantize)
        reference = evaluate_ranking(_PerCall(model), split, 20, [1, 5, 10], SeededRng(4).stream("eval-negatives"))
        assert frozen == reference
        # one whole-table pass per quantized side instead of two cascades per unit
        assert count_quantize[:n_frozen] == [30, 40]
        assert len(count_quantize) == 2 + 2 * len(split)

    def test_completion_report_equals_per_call(self, count_quantize):
        model = _frozen_model("seq")
        split = _completion_split()
        frozen = evaluate_completion(model, split, [1, 5, 10])
        assert count_quantize == [40]
        reference = evaluate_completion(_PerCall(model), split, [1, 5, 10])
        assert frozen == reference

    def test_fused_rows_equal_quantize_batch(self):
        model = _frozen_model("cf")
        gen = np.random.default_rng(0)
        with model.frozen():
            # the 1-row cases guard row-count independence: a row's result must not depend on its call's size
            for n in (1, 1, 1, 2, 3, 17, 40, 59):
                for cage, table in ((model.user_cage, model.users), (model.item_cage, model.items)):
                    idx = gen.integers(0, table.count, size=n)
                    (got, trace), = model._fused_parts(cage, table, [idx])
                    want = quantize_batch(cage, table.rows.value[idx])
                    assert np.array_equal(got, want.fused)
                    assert trace is None

    def test_ctr_and_seq_forward_unchanged_inside_scope(self):
        ctr = _frozen_model("ctr")
        u, i = np.arange(30) % 30, (7 * np.arange(30)) % 40
        outside = ctr.score(u, i)[0]
        with ctr.frozen():
            assert np.array_equal(ctr.score(u, i)[0], outside)
        seq = _frozen_model("seq")
        prefixes = [p for p, _ in _completion_split(n_units=8)]
        outside = seq.encode(prefixes)[0]
        with seq.frozen():
            assert np.array_equal(seq.encode(prefixes)[0], outside)

    @pytest.mark.parametrize("fail", [False, True])
    def test_tables_dropped_on_exit(self, fail):
        model = _frozen_model("cf")
        candidates = list(range(40))
        with pytest.raises(RuntimeError) if fail else contextlib.nullcontext():
            with model.frozen():
                (stale_items, _), = model._fused_parts(model.item_cage, model.items, [candidates])
                model.predict_topk(0, candidates, k=40)
                if fail:
                    raise RuntimeError("boom")
        for _ in range(3):
            cf_bpr_step(model, [0, 1, 2], [1, 2, 3], [4, 5, 6])
        z_u = quantize_batch(model.user_cage, model.users.rows.value[[0]]).fused[0]
        z_c = quantize_batch(model.item_cage, model.items.rows.value[candidates]).fused
        assert not np.array_equal(z_c, stale_items)
        scores = (z_c @ z_u).astype(np.float64)
        want = [int(c) for c in np.lexsort((np.array(candidates), -scores))]
        assert model.predict_topk(0, candidates, k=40) == want
        with model.frozen():
            assert model.predict_topk(0, candidates, k=40) == want


class TestSkeleton:
    """The checks and the parameter order that the three models share."""

    @pytest.mark.parametrize("make", [_cf, _ctr, _seq])
    def test_negative_omega_q_rejected(self, make):
        with pytest.raises(ValueError, match="omega_q must be >= 0"):
            make(omega_q=-1.0)

    @pytest.mark.parametrize("task, side", [("ctr", "user"), ("ctr", "item"), ("seq", "item")])
    def test_quantizer_dim_mismatch_rejected(self, task, side):
        rng = SeededRng(0)
        users, items = _tables(rng, dim=4)
        bad = {f"{side}_cage": make_quantizer(rng, 8, [3, 2], name=f"{side}_cage")}
        with pytest.raises(DimensionError, match="quantizer dim"):
            if task == "ctr":
                CtrModel(users, items, make_mlp_params(rng, [8, 6, 1], name="mlp"), **bad, omega_q=1.0, lr=0.001)
            else:
                SeqModel(items, make_mlp_params(rng, [4, 6, 4], name="encoder"),
                         tree_heads=make_tree_heads(rng, 4, [3, 2]), **bad, omega_c=1.0, omega_q=1.0, lr=0.001)

    @pytest.mark.parametrize("task, names", [
        ("cf",
         ["user_table", "item_table",
          "user_cage.codebook1", "user_cage.codebook2", "item_cage.codebook1", "item_cage.codebook2"]),
        ("ctr",
         ["user_table", "item_table",
          "scorer.layer0.weight", "scorer.layer0.bias", "scorer.layer1.weight", "scorer.layer1.bias",
          "user_cage.codebook1", "user_cage.codebook2", "item_cage.codebook1", "item_cage.codebook2"]),
        ("seq",
         ["item_table",
          "encoder.layer0.weight", "encoder.layer0.bias", "encoder.layer1.weight", "encoder.layer1.bias",
          "tree_head1.weight", "tree_head1.bias", "tree_head2.weight", "tree_head2.bias",
          "item_cage.codebook1", "item_cage.codebook2"]),
    ])
    def test_parameter_order(self, task, names):
        """Checkpoints store their tensors in this order, and Adam keeps one slot per name."""
        model = _frozen_model(task)
        assert list(model.named_parameters()) == names
        assert [p.name for p, _ in model.optimizer.slots] == names


# ---------------------------------------------------------------------------
# Training steps: one cascade per distinct row, exact flat scatters
# ---------------------------------------------------------------------------


def _per_occurrence(model):
    """The model with one cascade per index occurrence, fused per call: the oracle."""

    def fused_parts(cage, table, parts):
        out = []
        for idx in parts:
            rows = table.rows.value[np.asarray(idx)]
            if cage is None:
                out.append((rows, None))
            else:
                trace = quantize_batch(cage, rows)
                out.append((trace.fused, trace))
        return out

    model._fused_parts = fused_parts
    return model


def _record_grads(model):
    """Keep a copy of every gradient as the optimizer sees it, before it zeroes them."""
    seen = []
    step = model.optimizer.step

    def recording_step():
        seen.append({p.name: p.grad.copy() for p in model.parameters()})
        step()

    model.optimizer.step = recording_step
    return seen


def _dup_batches(task, n_steps=4, batch=48, seed=5):
    """Batches drawn from a few users and items, so most indices repeat."""
    gen = np.random.default_rng(seed)
    for _ in range(n_steps):
        users = gen.integers(0, 5, size=batch)
        items = gen.integers(0, 9, size=batch)
        if task == "cf":
            yield users, items, (items + gen.integers(1, 9, size=batch)) % 9
        elif task == "ctr":
            yield users, items, gen.integers(0, 2, size=batch).astype(np.float32)
        else:
            prefixes = [gen.integers(0, 9, size=int(gen.integers(1, 9))).tolist() for _ in range(batch)]
            yield prefixes, items


def _distinct_rows(task, args):
    if task == "cf":
        users, pos, neg = args
        return [np.unique(users).size, np.unique(np.concatenate([pos, neg])).size]
    if task == "ctr":
        users, items, _ = args
        return [np.unique(users).size, np.unique(items).size]
    prefixes, targets = args  # one cascade serves the prefix items and the targets
    return [np.unique(np.concatenate([*prefixes, targets])).size]


_STEPS = {"cf": cf_bpr_step, "ctr": ctr_step, "seq": seq_step}


def _assert_steps_match_oracle(model, task, count_quantize, monkeypatch):
    import treequant.models as models_module

    oracle = _per_occurrence(copy.deepcopy(model))
    got_grads, want_grads = _record_grads(model), _record_grads(oracle)
    step = _STEPS[task]
    for args in _dup_batches(task):
        del count_quantize[:]
        got = step(model, *args)
        # one call per quantized side; a side without a quantizer makes none
        want_rows = [n for n, (_, cage) in zip(_distinct_rows(task, args), model.sides, strict=True) if cage is not None]
        assert count_quantize == want_rows
        with monkeypatch.context() as m:
            m.setattr(models_module, "_scatter_rows", np.add.at)  # the 2-D scatter
            want = step(oracle, *args)
        assert got == want
    for got_step, want_step in zip(got_grads, want_grads, strict=True):
        assert got_step.keys() == want_step.keys()
        for name in got_step:
            assert np.array_equal(got_step[name], want_step[name]), name
    for (p, (m, v)), (q, (oracle_m, oracle_v)) in zip(model.optimizer.slots, oracle.optimizer.slots, strict=True):
        assert p.name == q.name
        for a, b in ((p.value, q.value), (m, oracle_m), (v, oracle_v)):
            assert np.array_equal(a, b), p.name
    assert model.optimizer.t == oracle.optimizer.t


class TestStepEqualsPerOccurrence:
    @pytest.mark.parametrize("omega_q", [0.0, 0.7])
    @pytest.mark.parametrize("task", ["cf", "ctr", "seq"])
    def test_bit_identical_to_oracle(self, task, omega_q, count_quantize, monkeypatch):
        model = _frozen_model(task)
        model.omega_q = omega_q
        _assert_steps_match_oracle(model, task, count_quantize, monkeypatch)

    @pytest.mark.parametrize("task", ["cf", "ctr"])
    def test_quantizer_free_side(self, task, count_quantize, monkeypatch):
        model = _frozen_model(task)
        model.omega_q = 0.7
        model.user_cage = None  # the user side scatters grad_z straight into its table
        _assert_steps_match_oracle(model, task, count_quantize, monkeypatch)

    def test_duplicates_share_one_cascade_row(self, count_quantize):
        model = _frozen_model("cf")
        cf_bpr_step(model, [3, 3, 3, 3], [1, 2, 1, 2], [2, 1, 2, 1])
        assert count_quantize == [1, 2]


class TestScatterRows:
    """The single flat scatter adds exactly what the 2-D np.add.at adds."""

    @staticmethod
    def _check(n_rows, idx, values):
        from treequant.models import _scatter_rows

        gen = np.random.default_rng(n_rows + idx.size)
        base = (gen.standard_normal((n_rows, values.shape[1])) * 10.0 ** gen.integers(-6, 7, size=(n_rows, 1))).astype(np.float32)
        got, want = base.copy(), base.copy()
        _scatter_rows(got, idx, values)
        np.add.at(want, idx, values)
        assert np.array_equal(got.view(np.int32), want.view(np.int32))  # -0.0 and +0.0 differ here

    @pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 2049])
    def test_chunk_boundaries(self, n):
        gen = np.random.default_rng(n)
        idx = gen.integers(0, 37, size=n).astype(np.int64)
        mags = 10.0 ** gen.integers(-6, 7, size=(n, 1))
        self._check(37, idx, (gen.standard_normal((n, 8)) * mags).astype(np.float32))

    @pytest.mark.parametrize("seed", range(5))
    def test_repeats_signed_zeros_and_wide_magnitudes(self, seed):
        gen = np.random.default_rng(seed)
        n = 600
        idx = np.repeat(gen.integers(0, 5, size=n // 20), 20).astype(np.int64)
        gen.shuffle(idx)
        values = (gen.standard_normal((n, 6)) * 10.0 ** gen.integers(-6, 7, size=(n, 6))).astype(np.float32)
        values[gen.random((n, 6)) < 0.1] = -0.0
        values[gen.random((n, 6)) < 0.1] = 0.0
        self._check(5, idx, values)

    def test_negative_zero_into_negative_zero(self):
        from treequant.models import _scatter_rows

        got = np.full((2, 3), -0.0, dtype=np.float32)
        want = got.copy()
        idx = np.array([1, 1, 0], dtype=np.int64)
        values = np.full((3, 3), -0.0, dtype=np.float32)
        _scatter_rows(got, idx, values)
        np.add.at(want, idx, values)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_non_contiguous_values(self):
        gen = np.random.default_rng(9)
        grad_x = gen.standard_normal((300, 16)).astype(np.float32)
        idx = gen.integers(0, 11, size=300).astype(np.int64)
        for values in (grad_x[:, :8], grad_x[:, 8:]):  # ctr_step's user and item halves
            assert not values.flags.c_contiguous
            self._check(11, idx, values)

    def test_non_contiguous_gradient_rejected(self):
        from treequant.models import _scatter_rows

        grad = np.zeros((4, 6), dtype=np.float32).T
        with pytest.raises(ValueError):
            _scatter_rows(grad, np.array([0], dtype=np.int64), np.ones((1, 4), dtype=np.float32))
