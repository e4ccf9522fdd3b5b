import math
import tracemalloc

import numpy as np
import pytest

from treequant.core import Parameter, finite_diff_gradient
from treequant.errors import ConfigError, DimensionError
from treequant.models import EmbeddingTable, _route
from treequant.quantizer import (_BLOCK, AVERAGE, CONCAT_PROJECT, CascadedQuantizer,
                                 Codebook, cage_loss, code_purity,
                                 codebook_utilization, extract_tree,
                                 fuse_codes, make_quantizer, nearest_code,
                                 quantize_batch, quantize_cascade,
                                 ste_backward, ste_backward_batch, _nearest)
from treequant.rng import SeededRng


def book(rows, level=1, name="cb"):
    return Codebook(level=level, entries=Parameter(np.array(rows, dtype=np.float32), name=name))


def quantizer(levels, alpha=1.0, beta=1.0, fusion_mode=AVERAGE, projection=None):
    books = [book(rows, level=i + 1, name=f"cb{i + 1}") for i, rows in enumerate(levels)]
    return CascadedQuantizer(codebooks=books, alpha=alpha, beta=beta,
                             fusion_mode=fusion_mode, projection=projection)


def oracle_nearest(entries, e):
    """Independent exhaustive scan: explicit loops, float64 sums, first minimum."""
    best_j, best_d = -1, None
    for j in range(entries.shape[0]):
        d = 0.0
        for k in range(entries.shape[1]):
            diff = float(e[k]) - float(entries[j, k])
            d += diff * diff
        if best_d is None or d < best_d:
            best_j, best_d = j, d
    return best_j, best_d


class TestNearestCode:
    def test_single_entry(self):
        cb = book([[5.0, 5.0]])
        j, code, _ = nearest_code(cb, np.array([0.0, 0.0]))
        assert j == 0
        assert np.allclose(code, [5.0, 5.0])

    def test_exact_match(self):
        cb = book([[0, 0], [1, 0], [2, 0], [3, 3], [4, 0]])
        j, _, dist = nearest_code(cb, np.array([3.0, 3.0]))
        assert j == 3
        assert dist == 0.0

    def test_derived_instance(self):
        cb = book([[0, 0], [1, 0], [0, 2]])
        j, _, dist = nearest_code(cb, np.array([0.9, 0.1]))
        assert j == 1
        assert dist == pytest.approx(0.02, rel=1e-6)

    def test_tie_breaks_to_lowest_index(self):
        cb = book([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]])
        j, _, _ = nearest_code(cb, np.array([0.0, 0.0]))
        assert j == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            nearest_code(book([[0, 0]]), np.array([1.0, 2.0, 3.0]))

    def test_agrees_with_exhaustive_oracle(self):
        gen = np.random.default_rng(42)
        for _ in range(200):
            k = int(gen.integers(1, 50))
            d = int(gen.integers(1, 16))
            entries = gen.normal(size=(k, d)).astype(np.float32)
            e = gen.normal(size=d).astype(np.float32)
            j, _, _ = nearest_code(book(entries), e)
            assert j == oracle_nearest(entries, e)[0]


def direct_nearest(entries, x):
    """The direct search formula: a float64 difference per (row, code) pair,
    squares summed over d by einsum, then the first minimum of each row."""
    out = np.empty((x.shape[0], entries.shape[0]), dtype=np.float64)
    rows = max(1, (1 << 21) // (8 * entries.size))  # 2 MiB difference blocks
    for start in range(0, x.shape[0], rows):
        block = x[start:start + rows]
        diff = block[:, None, :].astype(np.float64) - entries[None, :, :].astype(np.float64)
        out[start:start + rows] = np.einsum("nkd,nkd->nk", diff, diff)
    j = out.argmin(axis=1)
    return j, out[np.arange(x.shape[0]), j]


def assert_same_search(entries, x):
    """_nearest equals the direct formula bit for bit: indices and distances."""
    entries = np.asarray(entries, dtype=np.float32)
    x = np.asarray(x, dtype=np.float32)
    j, d2 = _nearest(entries, x)
    want_j, want_d2 = direct_nearest(entries, x)
    assert j.dtype == np.int64 and d2.dtype == np.float64
    assert np.array_equal(j, want_j)
    assert np.array_equal(d2.view(np.uint64), want_d2.view(np.uint64))


def _adversarial_rows(gen, entries, n, kind):
    k, d = entries.shape
    picks = gen.integers(0, k, n)
    if kind == "random":
        return gen.normal(size=(n, d)).astype(np.float32) * entries.std()
    if kind == "equal":  # rows equal to codes: distance exactly 0
        return entries[picks].copy()
    if kind == "ulp":  # one ulp away from a code
        away = np.where(gen.random((n, d)) < 0.5, -np.inf, np.inf).astype(np.float32)
        return np.nextafter(entries[picks], away)
    # midpoints of two codes, nudged by one ulp: near-ties between two codes
    mid = ((entries[picks] + entries[gen.integers(0, k, n)]) / np.float32(2)).astype(np.float32)
    return np.nextafter(mid, np.where(gen.random((n, d)) < 0.5, -np.inf, np.inf).astype(np.float32))


class TestSearchEquivalence:
    """The GEMM search with a certified argmin equals the direct formula exactly."""

    @pytest.mark.parametrize("k", [3, 8, 32, 256])
    @pytest.mark.parametrize("d", [1, 3, 64])
    def test_adversarial_inputs(self, k, d):
        gen = np.random.default_rng(1000 * k + d)
        for case, n in enumerate([1, 7, _BLOCK, _BLOCK + 1, 3000]):
            scale = [1e-3, 1.0, 1e3][case % 3]
            entries = (gen.normal(size=(k, d)) * scale).astype(np.float32)
            entries[gen.integers(0, k, k // 3)] = entries[0]  # duplicated codes: exact ties
            entries[-1] = np.nextafter(entries[1], np.float32(np.inf))  # two codes one ulp apart
            for kind in ("random", "equal", "ulp", "midpoint"):
                assert_same_search(entries, _adversarial_rows(gen, entries, n, kind))

    @pytest.mark.parametrize("scale", [1e-3, 1e-1, 1.0, 1e1, 1e3])
    def test_scales(self, scale):
        gen = np.random.default_rng(int(scale * 1000))
        entries = (gen.normal(size=(32, 16)) * scale).astype(np.float32)
        x = (gen.normal(size=(200, 16)) * scale).astype(np.float32)
        assert_same_search(entries, x)
        assert_same_search(entries, x + np.float32(100 * scale))  # far from every code

    def test_exact_ties_go_to_lowest_index(self):
        entries = np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=np.float32)
        x = np.array([[0, 0], [1, 0], [0, 1], [0.5, 0.5]], dtype=np.float32)
        assert_same_search(entries, x)
        assert _nearest(entries, x)[0].tolist() == [0, 0, 1, 0]

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row(self, bad):
        gen = np.random.default_rng(3)
        entries = gen.normal(size=(8, 3)).astype(np.float32)
        x = gen.normal(size=(7, 3)).astype(np.float32)
        x[2, 1] = bad
        x[5] = bad
        assert_same_search(entries, x)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_codebook(self, bad):
        gen = np.random.default_rng(4)
        entries = gen.normal(size=(8, 3)).astype(np.float32)
        entries[3, 0] = bad
        x = gen.normal(size=(7, 3)).astype(np.float32)
        x[6, 0] = np.inf
        assert_same_search(entries, x)

    def test_nearest_code_and_quantize_batch_use_the_search(self):
        q = make_quantizer(SeededRng(31), 8, [16, 4])
        x = np.random.default_rng(31).normal(size=(50, 8)).astype(np.float32) * 0.01
        trace = quantize_batch(q, x)
        want_j, want_d2 = direct_nearest(q.codebooks[0].entries.value, x)
        assert np.array_equal(trace.indices[0], want_j)
        assert np.array_equal(trace.sq_dists[0], want_d2)
        want_j, want_d2 = direct_nearest(q.codebooks[1].entries.value, trace.codes[0])
        assert np.array_equal(trace.indices[1], want_j)
        assert np.array_equal(trace.sq_dists[1], want_d2)
        j, _, dist = nearest_code(q.codebooks[0], x[0])
        assert (j, dist) == (int(trace.indices[0, 0]), float(trace.sq_dists[0, 0]))

    def test_extract_tree_parents_equal_direct_argmin(self):
        q = make_quantizer(SeededRng(32), 64, [256, 32, 8])
        coarse = q.codebooks[1].entries.value
        coarse[5] = coarse[2]  # duplicated parents: ties go to the lowest index
        fine = q.codebooks[0].entries.value
        fine[:4] = coarse[2]  # children sitting exactly on a duplicated parent
        tree = extract_tree(q, np.random.default_rng(32).normal(size=(40, 64)).astype(np.float32))
        for i in range(q.depth - 1):
            want, _ = direct_nearest(q.codebooks[i + 1].entries.value, q.codebooks[i].entries.value)
            assert np.array_equal(tree.parents[i], want)
        assert tree.parents[0][:4].tolist() == [2, 2, 2, 2]

    def test_quantize_batch_memory_is_bounded(self):
        q = make_quantizer(SeededRng(33), 64, [256, 32, 8])
        x = np.random.default_rng(33).normal(size=(2048, 64)).astype(np.float32) * 0.01
        tracemalloc.start()
        try:
            quantize_batch(q, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20


class TestQuantizeCascade:
    def test_single_level_equals_nearest_code(self):
        q = quantizer([[[0, 0], [1, 1]]])
        e = np.array([0.9, 0.8], dtype=np.float32)
        trace = quantize_cascade(q, e)
        j, code, dist = nearest_code(q.codebooks[0], e)
        assert trace.indices == [j]
        assert np.array_equal(trace.codes[0], code)
        assert trace.sq_dists[0] == pytest.approx(dist)

    def test_level_two_searches_with_level_one_code(self):
        # e is closest to (5,5) at level 2, but the cascade feeds the
        # level-1 code (1,0) into the level-2 search
        q = quantizer([
            [[1.0, 0.0], [4.0, 4.0], [9.0, 9.0]],
            [[1.0, 0.0], [5.0, 5.0]],
        ], alpha=0.0)
        e = np.array([2.0, 1.0], dtype=np.float32)
        trace = quantize_cascade(q, e)
        assert trace.indices[0] == 0
        assert trace.indices[1] == 0

    def test_deterministic(self):
        q = make_quantizer(SeededRng(1), 8, [6, 3])
        e = np.linspace(-1, 1, 8).astype(np.float32)
        t1 = quantize_cascade(q, e)
        t2 = quantize_cascade(q, e)
        assert t1.indices == t2.indices
        assert np.array_equal(t1.fused, t2.fused)

    def test_batch_matches_single(self):
        q = make_quantizer(SeededRng(2), 4, [5, 2], alpha=0.7)
        gen = np.random.default_rng(0)
        x = gen.normal(size=(10, 4)).astype(np.float32)
        bt = quantize_batch(q, x)
        for i in range(10):
            single = quantize_cascade(q, x[i])
            assert list(bt.indices[:, i]) == single.indices
            assert np.array_equal(bt.fused[i], single.fused)


class TestFuseCodes:
    def test_alpha_zero_returns_input(self):
        q = make_quantizer(SeededRng(3), 4, [3], alpha=0.0)
        e = np.array([0.5, -0.5, 1.0, 2.0], dtype=np.float32)
        trace = quantize_cascade(q, e)
        assert np.array_equal(trace.fused, e)

    def test_average_mode_arithmetic(self):
        q = quantizer([
            [[0.0, 2.0], [9.0, 9.0]],
            [[2.0, 0.0]],
        ], alpha=1.0)
        e = np.array([1.0, 1.0], dtype=np.float32)
        trace = quantize_cascade(q, e)
        assert np.allclose(trace.pooled, [1.0, 1.0])
        assert np.allclose(trace.fused, [2.0, 2.0])

    def test_self_code_scaling(self):
        e = np.array([1.0, -2.0], dtype=np.float32)
        for alpha in (0.0, 0.5, 1.5):
            q = quantizer([[e.tolist()]], alpha=alpha)
            trace = quantize_cascade(q, e)
            assert np.allclose(trace.fused, (1 + alpha) * e)

    def test_missing_projection_rejected(self):
        with pytest.raises(ConfigError):
            quantizer([[[0.0, 0.0]]], fusion_mode=CONCAT_PROJECT)

    def test_concat_identity_projection_matches_average_at_h1(self):
        proj = Parameter(np.eye(2, dtype=np.float32), name="proj")
        qa = quantizer([[[0.3, 0.4], [2.0, 2.0]]], alpha=0.8)
        qc = quantizer([[[0.3, 0.4], [2.0, 2.0]]], alpha=0.8,
                       fusion_mode=CONCAT_PROJECT, projection=proj)
        e = np.array([0.2, 0.5], dtype=np.float32)
        assert np.allclose(quantize_cascade(qa, e).fused, quantize_cascade(qc, e).fused, atol=1e-7)

    def test_fuse_codes_recomputes_trace_fusion(self):
        q = make_quantizer(SeededRng(4), 4, [4, 2], alpha=1.3)
        e = np.arange(4, dtype=np.float32) / 4
        trace = quantize_cascade(q, e)
        z = fuse_codes(trace, q)
        assert np.allclose(z, trace.fused, atol=1e-7)


class TestCageLoss:
    def test_fixed_point_is_zero(self):
        e = [1.0, 2.0]
        q = quantizer([[e]], beta=0.5)
        loss = cage_loss(quantize_cascade(q, np.array(e, dtype=np.float32)), beta=0.5)
        assert loss.l_quant == 0.0 and loss.l_commit == 0.0 and loss.l_cage == 0.0

    def test_single_level_arithmetic(self):
        q = quantizer([[[0.0, 0.0]]], beta=0.5)
        loss = cage_loss(quantize_cascade(q, np.array([1.0, 0.0], dtype=np.float32)), beta=0.5)
        assert loss.l_quant == pytest.approx(1.0)
        assert loss.l_commit == pytest.approx(1.0)
        assert loss.l_cage == pytest.approx(1.5)

    def test_forward_value_identity(self):
        gen = np.random.default_rng(7)
        for _ in range(200):
            h = int(gen.integers(1, 4))
            sizes = sorted(gen.choice(np.arange(2, 30), size=h, replace=False), reverse=True)
            q = make_quantizer(SeededRng(int(gen.integers(1 << 30))), 6, [int(s) for s in sizes])
            e = gen.normal(size=6).astype(np.float32)
            loss = cage_loss(quantize_cascade(q, e), beta=1.0)
            assert abs(loss.l_quant - loss.l_commit) < 1e-6


def commit_surrogate(trace, weight):
    """Straight-through surrogate of the commitment penalty as a function of e.

    The per-level offsets captured at the base point are constants; the
    perturbation of e rides the chain into every level input.
    """
    base = trace.input.astype(np.float64)
    codes = [c.astype(np.float64) for c in trace.codes]

    def f(e64):
        shift = e64.reshape(-1) - base
        total = 0.0
        prev = base + shift
        for c in codes:
            total += float(((prev - c) ** 2).sum())
            prev = c + shift
        return weight * total

    return f


def reference_ste_backward(trace, q, grad_z, weight_cage):
    """The single-row routing loop: (grad_e, {(level, row): code grad}, grad_projection)."""
    grad_z = np.asarray(grad_z, dtype=np.float32).reshape(-1)
    h = q.depth
    alpha = np.float32(q.alpha)
    code_grads = {}
    grad_proj = None
    if q.fusion_mode == AVERAGE:
        grad_e = (np.float32(1.0) + alpha) * grad_z
    else:
        concat = np.concatenate(trace.codes)
        grad_proj = alpha * np.outer(concat, grad_z).astype(np.float32)
        chunks = (alpha * (q.projection.value @ grad_z)).reshape(h, q.dim)
        grad_e = grad_z + chunks.sum(axis=0)
    w = np.float32(weight_cage)
    wb = np.float32(weight_cage * q.beta)
    prev = trace.input
    for i in range(h):
        c = trace.codes[i]
        key = (i + 1, trace.indices[i])
        code_grads[key] = code_grads.get(key, 0.0) + w * np.float32(2.0) * (c - prev)
        grad_e = grad_e + wb * np.float32(2.0) * (prev - c)
        prev = c
    return grad_e, code_grads, grad_proj


class TestSteBackward:
    def test_task_path_identity_average(self):
        q = quantizer([[[0.0, 0.0], [3.0, 3.0]]], alpha=1.0, beta=0.0)
        trace = quantize_cascade(q, np.array([5.0, 5.0], dtype=np.float32))
        grad_e, code_grads, _ = ste_backward(trace, q, np.array([1.0, 2.0]), weight_cage=0.0)
        assert np.allclose(grad_e, [2.0, 4.0])
        assert all(not np.any(g) for g in code_grads.values())

    def test_quant_and_commit_routing_single_level(self):
        q = quantizer([[[0.0, 0.0]]], alpha=0.0, beta=1.0)
        trace = quantize_cascade(q, np.array([1.0, 0.0], dtype=np.float32))
        grad_e, code_grads, _ = ste_backward(trace, q, np.zeros(2), weight_cage=1.0)
        assert np.allclose(code_grads[(1, 0)], [-2.0, 0.0])
        assert np.allclose(grad_e, [2.0, 0.0])

    def test_disabled_cage_passes_gradient_through(self):
        q = quantizer([[[0.5, 0.5], [2.0, 2.0]]], alpha=0.0)
        trace = quantize_cascade(q, np.array([0.4, 0.4], dtype=np.float32))
        grad_z = np.array([0.3, -0.7], dtype=np.float32)
        grad_e, code_grads, _ = ste_backward(trace, q, grad_z, weight_cage=0.0)
        assert np.array_equal(grad_e, grad_z)
        assert all(not np.any(g) for g in code_grads.values())

    @pytest.mark.parametrize("trial", range(30))
    def test_ste_identity_random(self, trial):
        gen = np.random.default_rng(trial)
        h = int(gen.integers(1, 4))
        d = int(gen.choice([4, 64]))
        alpha = float(gen.uniform(0, 2))
        sizes = sorted(gen.choice(np.arange(2, 40), size=h, replace=False), reverse=True)
        q = make_quantizer(SeededRng(trial), d, [int(s) for s in sizes], alpha=alpha)
        e = gen.normal(size=d).astype(np.float32)
        grad_z = gen.normal(size=d).astype(np.float32)
        trace = quantize_cascade(q, e)
        grad_e, _, _ = ste_backward(trace, q, grad_z, weight_cage=0.0)
        q.beta = 0.0
        grad_e_no_losses, _, _ = ste_backward(trace, q, grad_z, weight_cage=0.0)
        assert np.allclose(grad_e_no_losses, (1 + alpha) * grad_z, atol=1e-6)
        assert np.allclose(grad_e, grad_e_no_losses, atol=1e-6)

    @pytest.mark.parametrize("trial", range(20))
    def test_commitment_gradient_matches_surrogate_fd(self, trial):
        gen = np.random.default_rng(200 + trial)
        h = int(gen.integers(1, 4))
        d = int(gen.integers(2, 8))
        beta = float(gen.uniform(0.1, 2.0))
        omega_q = float(gen.uniform(0.1, 2.0))
        sizes = sorted(gen.choice(np.arange(2, 20), size=h, replace=False), reverse=True)
        q = make_quantizer(SeededRng(trial), d, [int(s) for s in sizes], alpha=0.0, beta=beta)
        e = gen.normal(size=d).astype(np.float32)
        trace = quantize_cascade(q, e)
        grad_e, _, _ = ste_backward(trace, q, np.zeros(d), weight_cage=omega_q)
        # remove the quantization term's absence: grad_e here is commit-only
        fd = finite_diff_gradient(commit_surrogate(trace, omega_q * beta),
                                  e.astype(np.float64), h=1e-3).reshape(-1)
        denom = np.maximum(np.abs(fd), 1e-3)
        assert np.max(np.abs(grad_e - fd) / denom) < 1e-4

    @pytest.mark.parametrize("trial", range(20))
    def test_quantization_gradient_matches_fd(self, trial):
        gen = np.random.default_rng(300 + trial)
        h = int(gen.integers(1, 4))
        d = int(gen.integers(2, 8))
        omega_q = float(gen.uniform(0.1, 2.0))
        sizes = sorted(gen.choice(np.arange(2, 20), size=h, replace=False), reverse=True)
        q = make_quantizer(SeededRng(trial), d, [int(s) for s in sizes], beta=0.0)
        q.beta = 0.0
        e = gen.normal(size=d).astype(np.float32)
        trace = quantize_cascade(q, e)
        _, code_grads, _ = ste_backward(trace, q, np.zeros(d), weight_cage=omega_q)
        inputs = [trace.input.astype(np.float64)] + [c.astype(np.float64) for c in trace.codes[:-1]]
        for level in range(1, h + 1):
            prev = inputs[level - 1]
            code = trace.codes[level - 1].astype(np.float64)
            fd = finite_diff_gradient(lambda c64, prev=prev: omega_q * float(((prev - c64.reshape(-1)) ** 2).sum()),
                                      code, h=1e-3).reshape(-1)
            analytic = code_grads[(level, trace.indices[level - 1])]
            denom = np.maximum(np.abs(fd), 1e-3)
            assert np.max(np.abs(analytic - fd) / denom) < 1e-4

    def test_unselected_rows_get_zero_gradient(self):
        q = make_quantizer(SeededRng(11), 4, [8, 3], alpha=1.0, beta=1.0)
        gen = np.random.default_rng(11)
        x = gen.normal(size=(16, 4)).astype(np.float32)
        bt = quantize_batch(q, x)
        table = EmbeddingTable(count=16, dim=4, rows=Parameter(x, name="item_table"), role="item")
        _route(q, table, np.arange(16), bt, gen.normal(size=(16, 4)).astype(np.float32), 1.0)
        for level, cb in enumerate(q.codebooks):
            selected = set(int(j) for j in bt.indices[level])
            for row in range(cb.size):
                if row not in selected:
                    assert not cb.entries.grad[row].any()

    def test_batch_routing_matches_single(self):
        for fusion_mode in (AVERAGE, CONCAT_PROJECT):
            q = make_quantizer(SeededRng(12), 4, [6, 2], alpha=0.9, beta=0.7, fusion_mode=fusion_mode)
            gen = np.random.default_rng(12)
            x = gen.normal(size=(5, 4)).astype(np.float32)
            gz = gen.normal(size=(5, 4)).astype(np.float32)
            bt = quantize_batch(q, x)
            grad_e_batch, code_grads, grad_proj = ste_backward_batch(q, bt, gz, weight_cage=0.4)
            proj_sum = 0.0
            for i in range(5):
                single, single_codes, single_proj = reference_ste_backward(bt.row(i), q, gz[i], 0.4)
                assert np.allclose(grad_e_batch[i], single, atol=1e-6)
                for level in range(q.depth):
                    key = (level + 1, int(bt.indices[level, i]))
                    assert np.allclose(code_grads[level, i], single_codes[key], atol=1e-6)
                if single_proj is not None:
                    proj_sum = proj_sum + single_proj
            assert (grad_proj is None) == (fusion_mode == AVERAGE)
            if grad_proj is not None:
                assert np.allclose(grad_proj, proj_sum, atol=1e-6)

    def test_concat_projection_gradient(self):
        d, h = 3, 2
        gen = np.random.default_rng(9)
        proj = Parameter(gen.normal(size=(h * d, d)).astype(np.float32), name="proj")
        q = quantizer([
            gen.normal(size=(4, d)).tolist(),
            gen.normal(size=(2, d)).tolist(),
        ], alpha=0.6, beta=0.0, fusion_mode=CONCAT_PROJECT, projection=proj)
        e = gen.normal(size=d).astype(np.float32)
        trace = quantize_cascade(q, e)
        grad_z = gen.normal(size=d).astype(np.float32)
        q.beta = 0.0
        grad_e, _, grad_proj = ste_backward(trace, q, grad_z, weight_cage=0.0)

        concat = np.concatenate(trace.codes).astype(np.float64)

        def fused_surrogate(p64):
            # z as a function of the projection, selections frozen
            return float(np.dot(concat @ p64, grad_z.astype(np.float64))) * 0.6

        fd = finite_diff_gradient(lambda p: fused_surrogate(p) / 0.6 * 0.6,
                                  proj.value.astype(np.float64), h=1e-3)
        assert np.max(np.abs(grad_proj - fd)) < 1e-3

        # task gradient to e: direct residual plus one chunk per level
        chunks = (0.6 * (proj.value.astype(np.float64) @ grad_z)).reshape(h, d)
        expected = grad_z + chunks.sum(axis=0)
        assert np.allclose(grad_e, expected, atol=1e-5)


class TestExtractTree:
    def test_star_tree(self):
        q = quantizer([[[0.0, 0.0]]])
        emb = np.array([[1, 0], [0, 1], [-1, 0]], dtype=np.float32)
        tree = extract_tree(q, emb)
        assert tree.level_sizes == [1]
        assert np.array_equal(tree.paths, [[0], [0], [0]])
        assert tree.parents == []

    def test_exact_match_leaves(self):
        pts = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
        q = quantizer([pts])
        tree = extract_tree(q, np.array(pts, dtype=np.float32))
        assert sorted(int(p[0]) for p in tree.paths) == [0, 1, 2, 3]

    def test_parent_links_are_nearest_codes(self):
        q = make_quantizer(SeededRng(21), 4, [6, 2])
        emb = np.random.default_rng(21).normal(size=(9, 4)).astype(np.float32)
        tree = extract_tree(q, emb)
        for child in range(6):
            j, _, _ = nearest_code(q.codebooks[1], q.codebooks[0].entries.value[child])
            assert tree.parents[0][child] == j

    def test_pure_function(self):
        q = make_quantizer(SeededRng(22), 4, [5, 2])
        emb = np.random.default_rng(1).normal(size=(7, 4)).astype(np.float32)
        t1 = extract_tree(q, emb)
        t2 = extract_tree(q, emb)
        assert np.array_equal(t1.paths, t2.paths)
        assert all(np.array_equal(a, b) for a, b in zip(t1.parents, t2.parents))

    def test_empty_embeddings_rejected(self):
        q = make_quantizer(SeededRng(23), 4, [3])
        with pytest.raises(ValueError):
            extract_tree(q, np.zeros((0, 4), dtype=np.float32))


class TestDiagnostics:
    def test_collapse_gives_one_over_v(self):
        q = quantizer([[[0.0, 0.0], [100.0, 100.0], [200.0, 200.0], [300.0, 300.0]]])
        x = np.random.default_rng(0).normal(size=(20, 2)).astype(np.float32)
        bt = quantize_batch(q, x)
        assert codebook_utilization(bt, q) == [0.25]

    def test_full_utilization(self):
        pts = [[10.0, 0.0], [-10.0, 0.0], [0.0, 10.0], [0.0, -10.0]]
        q = quantizer([pts])
        bt = quantize_batch(q, np.array(pts, dtype=np.float32))
        assert codebook_utilization(bt, q) == [1.0]

    def test_single_trace(self):
        q = quantizer([[[0.0, 0.0], [5.0, 5.0]]])
        t = quantize_batch(q, np.array([[0.1, 0.1]], dtype=np.float32))
        assert codebook_utilization(t, q) == [0.5]

    def test_purity_perfect_alignment(self):
        report = code_purity([0, 0, 1, 1], ["A", "A", "B", "B"])
        assert report.spans == {"A": 1, "B": 1}
        assert report.exclusive == 2
        assert report.total == 2

    def test_purity_spread(self):
        report = code_purity([0, 1, 2, 3], ["A", "A", "A", "B"])
        assert report.spans["A"] == 3
        assert report.exclusive == 1
        assert report.under_10 == 2

    def test_purity_length_mismatch(self):
        with pytest.raises(ValueError):
            code_purity([0, 1], ["A"])


class TestConstruction:
    def test_sizes_must_strictly_decrease(self):
        with pytest.raises(ConfigError):
            make_quantizer(SeededRng(1), 4, [4, 4])
        with pytest.raises(ConfigError):
            make_quantizer(SeededRng(1), 4, [2, 5])

    def test_negative_weights_rejected(self):
        with pytest.raises(ConfigError):
            make_quantizer(SeededRng(1), 4, [3], alpha=-0.1)
