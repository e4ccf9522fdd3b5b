import math
import tracemalloc

import numpy as np
import pytest

from treequant.core import Parameter
from treequant.errors import ConfigError, DimensionError
from treequant.models import EmbeddingTable, _route
from treequant.quantizer import (_BLOCK, CascadedQuantizer,
                                 batch_cage_loss_sum, codebook_utilization,
                                 extract_tree, label_nmi, make_quantizer,
                                 quantize_batch, ste_backward_batch, _nearest)
from treequant.rng import SeededRng

from oracles import finite_diff_gradient, nmi_oracle, trace_codes
from test_acceptance import penalties


def book(rows, name="cb"):
    return Parameter(np.array(rows, dtype=np.float32), name=name)


def quantizer(levels, alpha=1.0, beta=1.0):
    books = [book(rows, name=f"cb{i + 1}") for i, rows in enumerate(levels)]
    return CascadedQuantizer(codebooks=books, alpha=alpha, beta=beta)


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


def nearest_row(cb, e):
    """One row through a one-codebook cascade: (index, code, squared distance)."""
    q = CascadedQuantizer(codebooks=[cb])
    trace = quantize_batch(q, np.asarray(e, dtype=np.float32)[None, :])
    return int(trace.indices[0, 0]), trace_codes(q, trace)[0, 0], float(trace.sq_dists[0, 0])


class TestNearestCode:
    def test_single_entry(self):
        cb = book([[5.0, 5.0]])
        j, code, _ = nearest_row(cb, np.array([0.0, 0.0]))
        assert j == 0
        assert np.allclose(code, [5.0, 5.0])

    def test_exact_match(self):
        cb = book([[0, 0], [1, 0], [2, 0], [3, 3], [4, 0]])
        j, _, dist = nearest_row(cb, np.array([3.0, 3.0]))
        assert j == 3
        assert dist == 0.0

    def test_derived_instance(self):
        cb = book([[0, 0], [1, 0], [0, 2]])
        j, _, dist = nearest_row(cb, np.array([0.9, 0.1]))
        assert j == 1
        assert dist == pytest.approx(0.02, rel=1e-6)

    def test_tie_breaks_to_lowest_index(self):
        cb = book([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]])
        j, _, _ = nearest_row(cb, np.array([0.0, 0.0]))
        assert j == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError, match="input dim 3 != quantizer dim 2"):
            quantize_batch(quantizer([[[0, 0]]]), np.array([[1.0, 2.0, 3.0]]))

    def test_agrees_with_exhaustive_oracle(self):
        gen = np.random.default_rng(42)
        for _ in range(200):
            k = int(gen.integers(1, 50))
            d = int(gen.integers(1, 16))
            entries = gen.normal(size=(k, d)).astype(np.float32)
            e = gen.normal(size=d).astype(np.float32)
            j, _, _ = nearest_row(book(entries), e)
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


def _hazard_codes(gen, k, d, scale):
    """k codes at scale with exact duplicates (exact ties) and two codes one ulp apart."""
    entries = (gen.normal(size=(k, d)) * scale).astype(np.float32)
    entries[gen.integers(0, k, k // 3)] = entries[0]
    entries[-1] = np.nextafter(entries[1], np.float32(np.inf))
    return entries


def _hazard_rows(gen, entries, n):
    """n rows equal to, one ulp from and between codes, in a seeded order."""
    kinds = ("equal", "ulp", "midpoint")
    rows = np.concatenate([_adversarial_rows(gen, entries, n, kind) for kind in kinds])
    return rows[gen.permutation(rows.shape[0])[:n]]


def _overflow_case(gen, k, d):
    """k codes of norm up to 1.7e19, so |c|^2 stays finite in float32, and three trap rows of norm 1.5e19.

    Codes 2-7 are three pairs (a, b), one per trap row x: b is nearer to x, but -2 x.a overflows
    float32 while |a|^2 and -2 x.b do not, so a float32 ranking alone puts a first.
    """
    entries = _hazard_codes(gen, k, d, 1.0)
    entries *= (gen.uniform(0.02, 1.0, size=(k, 1)) * 1.7e19 / np.linalg.norm(entries, axis=1, keepdims=True)
                ).astype(np.float32)
    x_norm, traps = 1.5e19, []
    for pair in range(3):
        e, f = np.linalg.qr(gen.normal(size=(d, 2)))[0].T
        a1 = 2e38 / x_norm  # x.a = 2e38, |a|^2 = 2.8e38
        entries[2 + 2 * pair] = a1 * e + np.sqrt(2.8e38 - a1 ** 2) * f
        entries[3 + 2 * pair] = 1.5e38 / x_norm * e  # x.b = 1.5e38: |b|^2 - 2 x.b < |a|^2 - 2 x.a
        traps.append(x_norm * e)
    return entries, np.array(traps, dtype=np.float32)


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
            entries = _hazard_codes(gen, k, d, [1e-3, 1.0, 1e3][case % 3])
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

    # float32 hazards of the ranking: each case below fails against a search that drops the
    # absolute subnormal term of the bound or the fallback for rows whose float32 sums can overflow

    @pytest.mark.parametrize("scale", [1e19, 3e19, 1e20])
    @pytest.mark.parametrize("d", [2, 3, 16, 64])
    def test_float32_overflow_scales(self, scale, d):
        # float32 ranks a code +inf, -inf or NaN whatever its distance once 2 x.c overflows
        gen = np.random.default_rng(int(scale / 1e18) + d)
        entries, traps = _overflow_case(gen, 24, d)
        rows = (gen.normal(size=(40, d)) * scale).astype(np.float32)
        along = entries[gen.integers(0, 24, 20)] * np.float32(scale / 1e19)  # far out along a code
        assert_same_search(entries, np.concatenate([rows, along, _hazard_rows(gen, entries, 40), traps]))

    @pytest.mark.parametrize("scale", [1e-21, 1e-22, 1e-23])
    @pytest.mark.parametrize("d", [8, 16, 64])
    def test_float32_subnormal_scales(self, scale, d):
        # every product x_i c_i falls below float32's normal range, where rounding has no relative bound
        gen = np.random.default_rng(int(-np.log10(scale)) * 100 + d)
        entries = _hazard_codes(gen, 32, d, scale)
        rows = (gen.normal(size=(150, d)) * scale).astype(np.float32)
        assert_same_search(entries, np.concatenate([rows, _hazard_rows(gen, entries, 150)]))

    @pytest.mark.parametrize("kind", ["subnormal", "overflow"])
    @pytest.mark.parametrize("d", [3, 16, 64])
    def test_rows_mixing_huge_and_tiny_values(self, kind, d):
        gen = np.random.default_rng(50 + d)
        if kind == "overflow":
            entries, traps = _overflow_case(gen, 24, d)
        else:
            entries, traps = _hazard_codes(gen, 24, d, 1e-22), np.empty((0, d), dtype=np.float32)
        rows = _hazard_rows(gen, entries, 60)
        # within a row: coordinates at scale 1e19 beside ones at scale 1e-25
        mixed = rows.copy()
        mixed[:, ::2] = (gen.normal(size=mixed[:, ::2].shape) * 1e19).astype(np.float32)
        mixed[1::2, 1::2] = (gen.normal(size=mixed[1::2, 1::2].shape) * 1e-25).astype(np.float32)
        # within a call: huge and tiny rows between rows at the codes' scale
        huge = (gen.normal(size=(20, d)) * 1e20).astype(np.float32)
        tiny = (gen.normal(size=(20, d)) * 1e-25).astype(np.float32)
        x = np.concatenate([rows, mixed, huge, tiny, traps])
        assert_same_search(entries, x[gen.permutation(x.shape[0])])

    @pytest.mark.parametrize("kind", ["subnormal", "overflow"])
    @pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
    def test_calls_straddling_blocks(self, kind, n):
        gen = np.random.default_rng(n)
        if kind == "overflow":
            entries, traps = _overflow_case(gen, 16, 8)
            x = (gen.normal(size=(n, 8)) * 1e19).astype(np.float32)
        else:
            entries, traps = _hazard_codes(gen, 16, 8, 1e-22), np.empty((0, 8), dtype=np.float32)
            x = (gen.normal(size=(n, 8)) * 1e-22).astype(np.float32)
        # rows on, one ulp from and between codes, and the traps, on both sides of every block edge
        for edge in list(range(0, n, _BLOCK)) + [n]:
            lo, hi = max(edge - 4, 0), min(edge + 4, n)
            edge_rows = np.concatenate([traps, _hazard_rows(gen, entries, hi - lo)])
            x[lo:hi] = edge_rows[gen.permutation(edge_rows.shape[0])[:hi - lo]]
        assert_same_search(entries, x)

    def test_quantize_batch_uses_the_search(self):
        q = make_quantizer(SeededRng(31), 8, [16, 4])
        x = np.random.default_rng(31).normal(size=(50, 8)).astype(np.float32) * 0.01
        trace = quantize_batch(q, x)
        want_j, want_d2 = direct_nearest(q.codebooks[0].value, x)
        assert np.array_equal(trace.indices[0], want_j)
        assert np.array_equal(trace.sq_dists[0], want_d2)
        want_j, want_d2 = direct_nearest(q.codebooks[1].value, trace_codes(q, trace)[0])
        assert np.array_equal(trace.indices[1], want_j)
        assert np.array_equal(trace.sq_dists[1], want_d2)
        one = quantize_batch(q, x[:1])
        assert np.array_equal(one.indices[:, 0], trace.indices[:, 0])
        assert np.array_equal(one.sq_dists[:, 0], trace.sq_dists[:, 0])

    def test_extract_tree_parents_equal_direct_argmin(self):
        q = make_quantizer(SeededRng(32), 64, [256, 32, 8])
        coarse = q.codebooks[1].value
        coarse[5] = coarse[2]  # duplicated parents: ties go to the lowest index
        fine = q.codebooks[0].value
        fine[:4] = coarse[2]  # children sitting exactly on a duplicated parent
        tree = extract_tree(q, np.random.default_rng(32).normal(size=(40, 64)).astype(np.float32))
        for i in range(q.depth - 1):
            want, _ = direct_nearest(q.codebooks[i + 1].value, q.codebooks[i].value)
            assert np.array_equal(tree.parents[i], want)
        assert tree.parents[0][:4].tolist() == [2, 2, 2, 2]

    def test_quantize_batch_memory_is_bounded(self):
        # at 8,192 rows the bound is one (H, n, d) float32 array: a trace's (n, d) rows and
        # (H, n) indices and distances fit under it, a per-row copy of every chosen code does not
        q = make_quantizer(SeededRng(33), 64, [256, 32, 8])
        for n, bound in ((2048, 32 * 2 ** 20), (8192, q.depth * 8192 * 64 * 4)):
            x = np.random.default_rng(33).normal(size=(n, 64)).astype(np.float32) * 0.01
            tracemalloc.start()
            try:
                quantize_batch(q, x)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < bound, f"{n} rows: peak {peak / 2 ** 20:.2f} MiB"


class TestQuantizeCascade:
    def test_single_level_equals_nearest(self):
        q = quantizer([[[0, 0], [1, 1]]])
        e = np.array([0.9, 0.8], dtype=np.float32)
        trace = quantize_batch(q, e[None, :])
        j, dist = _nearest(q.codebooks[0].value, e[None, :])
        assert trace.indices.tolist() == [[j[0]]]
        assert np.array_equal(trace_codes(q, trace)[0, 0], q.codebooks[0].value[j[0]])
        assert trace.sq_dists[0, 0] == dist[0]

    def test_level_two_searches_with_level_one_code(self):
        # e is closest to (5,5) at level 2, but the cascade feeds the
        # level-1 code (1,0) into the level-2 search
        q = quantizer([
            [[1.0, 0.0], [4.0, 4.0], [9.0, 9.0]],
            [[1.0, 0.0], [5.0, 5.0]],
        ], alpha=0.0)
        trace = quantize_batch(q, np.array([[2.0, 1.0]], dtype=np.float32))
        assert trace.indices.tolist() == [[0], [0]]

    def test_deterministic(self):
        q = make_quantizer(SeededRng(1), 8, [6, 3])
        e = np.linspace(-1, 1, 8).astype(np.float32)[None, :]
        t1 = quantize_batch(q, e)
        t2 = quantize_batch(q, e)
        assert np.array_equal(t1.indices, t2.indices)
        assert np.array_equal(t1.fused, t2.fused)

    def test_batch_matches_single(self):
        q = make_quantizer(SeededRng(2), 4, [5, 2], alpha=0.7)
        gen = np.random.default_rng(0)
        x = gen.normal(size=(10, 4)).astype(np.float32)
        bt = quantize_batch(q, x)
        for i in range(10):
            single = quantize_batch(q, x[i:i + 1])
            assert np.array_equal(bt.indices[:, i], single.indices[:, 0])
            assert np.array_equal(bt.fused[i], single.fused[0])


class TestFuseCodes:
    def test_alpha_zero_returns_input(self):
        q = make_quantizer(SeededRng(3), 4, [3], alpha=0.0)
        e = np.array([[0.5, -0.5, 1.0, 2.0]], dtype=np.float32)
        assert np.array_equal(quantize_batch(q, e).fused, e)

    def test_average_mode_arithmetic(self):
        q = quantizer([
            [[0.0, 2.0], [9.0, 9.0]],
            [[2.0, 0.0]],
        ], alpha=1.0)
        trace = quantize_batch(q, np.array([[1.0, 1.0]], dtype=np.float32))
        assert np.allclose(trace.fused, [[2.0, 2.0]])

    def test_self_code_scaling(self):
        e = np.array([1.0, -2.0], dtype=np.float32)
        for alpha in (0.0, 0.5, 1.5):
            q = quantizer([[e.tolist()]], alpha=alpha)
            trace = quantize_batch(q, e[None, :])
            assert np.allclose(trace.fused[0], (1 + alpha) * e)

    def test_fusion_recomputed_from_codes(self):
        q = make_quantizer(SeededRng(4), 4, [4, 2], alpha=1.3)
        e = (np.arange(4, dtype=np.float32) / 4)[None, :]
        trace = quantize_batch(q, e)
        assert np.allclose(trace.fused, e + np.float32(1.3) * trace_codes(q, trace).mean(axis=0), atol=1e-7)


class TestCagePenalties:
    def test_fixed_point_is_zero(self):
        e = [1.0, 2.0]
        q = quantizer([[e]], beta=0.5)
        trace = quantize_batch(q, np.array([e], dtype=np.float32))
        assert penalties(q, trace, 0) == (0.0, 0.0)
        assert batch_cage_loss_sum(trace, [0], beta=0.5) == 0.0

    def test_single_level_arithmetic(self):
        q = quantizer([[[0.0, 0.0]]], beta=0.5)
        trace = quantize_batch(q, np.array([[1.0, 0.0]], dtype=np.float32))
        l_quant, l_commit = penalties(q, trace, 0)
        assert l_quant == pytest.approx(1.0)
        assert l_commit == pytest.approx(1.0)
        assert batch_cage_loss_sum(trace, [0], beta=0.5) == pytest.approx(1.5)

    def test_forward_value_identity(self):
        gen = np.random.default_rng(7)
        for _ in range(200):
            h = int(gen.integers(1, 4))
            sizes = sorted(gen.choice(np.arange(2, 30), size=h, replace=False), reverse=True)
            q = make_quantizer(SeededRng(int(gen.integers(1 << 30))), 6, [int(s) for s in sizes])
            e = gen.normal(size=(1, 6)).astype(np.float32)
            l_quant, l_commit = penalties(q, quantize_batch(q, e), 0)
            assert abs(l_quant - l_commit) < 1e-6


def commit_surrogate(q, trace, weight):
    """Straight-through surrogate of the commitment penalty of a 1-row trace as a function of e.

    The per-level offsets captured at the base point are constants; the
    perturbation of e rides the chain into every level input.
    """
    base = trace.input[0].astype(np.float64)
    codes = trace_codes(q, trace)[:, 0].astype(np.float64)

    def f(e64):
        shift = e64.reshape(-1) - base
        total = 0.0
        prev = base + shift
        for c in codes:
            total += float(((prev - c) ** 2).sum())
            prev = c + shift
        return weight * total

    return f


def reference_ste_backward(trace, i, q, grad_z, weight_cage):
    """The routing loop over row i of a trace: (grad_e, {(level, row): code grad})."""
    grad_z = np.asarray(grad_z, dtype=np.float32).reshape(-1)
    codes = trace_codes(q, trace)[:, i]
    code_grads = {}
    grad_e = (np.float32(1.0) + np.float32(q.alpha)) * grad_z
    w = np.float32(weight_cage)
    wb = np.float32(weight_cage * q.beta)
    prev = trace.input[i]
    for level in range(q.depth):
        c = codes[level]
        key = (level + 1, int(trace.indices[level, i]))
        code_grads[key] = code_grads.get(key, 0.0) + w * np.float32(2.0) * (c - prev)
        grad_e = grad_e + wb * np.float32(2.0) * (prev - c)
        prev = c
    return grad_e, code_grads


class TestSteBackward:
    def test_task_path_identity_average(self):
        q = quantizer([[[0.0, 0.0], [3.0, 3.0]]], alpha=1.0, beta=0.0)
        trace = quantize_batch(q, np.array([[5.0, 5.0]], dtype=np.float32))
        grad_e, code_grads = ste_backward_batch(q, trace, np.array([[1.0, 2.0]]), [0], weight_cage=0.0)
        assert np.allclose(grad_e, [[2.0, 4.0]])
        assert not np.any(code_grads)

    def test_quant_and_commit_routing_single_level(self):
        q = quantizer([[[0.0, 0.0]]], alpha=0.0, beta=1.0)
        trace = quantize_batch(q, np.array([[1.0, 0.0]], dtype=np.float32))
        grad_e, code_grads = ste_backward_batch(q, trace, np.zeros((1, 2)), [0], weight_cage=1.0)
        assert trace.indices.tolist() == [[0]]
        assert np.allclose(code_grads[0, 0], [-2.0, 0.0])
        assert np.allclose(grad_e, [[2.0, 0.0]])

    def test_disabled_cage_passes_gradient_through(self):
        q = quantizer([[[0.5, 0.5], [2.0, 2.0]]], alpha=0.0)
        trace = quantize_batch(q, np.array([[0.4, 0.4]], dtype=np.float32))
        grad_z = np.array([[0.3, -0.7]], dtype=np.float32)
        grad_e, code_grads = ste_backward_batch(q, trace, grad_z, [0], weight_cage=0.0)
        assert np.array_equal(grad_e, grad_z)
        assert not np.any(code_grads)

    @pytest.mark.parametrize("trial", range(30))
    def test_ste_identity_random(self, trial):
        gen = np.random.default_rng(trial)
        h = int(gen.integers(1, 4))
        d = int(gen.choice([4, 64]))
        alpha = float(gen.uniform(0, 2))
        sizes = sorted(gen.choice(np.arange(2, 40), size=h, replace=False), reverse=True)
        q = make_quantizer(SeededRng(trial), d, [int(s) for s in sizes], alpha=alpha)
        e = gen.normal(size=(1, d)).astype(np.float32)
        grad_z = gen.normal(size=(1, d)).astype(np.float32)
        trace = quantize_batch(q, e)
        grad_e, _ = ste_backward_batch(q, trace, grad_z, [0], weight_cage=0.0)
        q.beta = 0.0
        grad_e_no_losses, _ = ste_backward_batch(q, trace, grad_z, [0], weight_cage=0.0)
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
        trace = quantize_batch(q, e[None, :])
        grad_e, _ = ste_backward_batch(q, trace, np.zeros((1, d)), [0], weight_cage=omega_q)
        # remove the quantization term's absence: grad_e here is commit-only
        fd = finite_diff_gradient(commit_surrogate(q, trace, omega_q * beta),
                                  e.astype(np.float64), h=1e-3).reshape(-1)
        denom = np.maximum(np.abs(fd), 1e-3)
        assert np.max(np.abs(grad_e[0] - fd) / denom) < 1e-4

    @pytest.mark.parametrize("trial", range(20))
    def test_quantization_gradient_matches_fd(self, trial):
        gen = np.random.default_rng(300 + trial)
        h = int(gen.integers(1, 4))
        d = int(gen.integers(2, 8))
        omega_q = float(gen.uniform(0.1, 2.0))
        sizes = sorted(gen.choice(np.arange(2, 20), size=h, replace=False), reverse=True)
        q = make_quantizer(SeededRng(trial), d, [int(s) for s in sizes], beta=0.0)
        q.beta = 0.0
        e = gen.normal(size=(1, d)).astype(np.float32)
        trace = quantize_batch(q, e)
        _, code_grads = ste_backward_batch(q, trace, np.zeros((1, d)), [0], weight_cage=omega_q)
        codes = trace_codes(q, trace)[:, 0].astype(np.float64)
        inputs = [e[0].astype(np.float64)] + list(codes[:-1])
        for level in range(1, h + 1):
            prev = inputs[level - 1]
            code = codes[level - 1]
            fd = finite_diff_gradient(lambda c64, prev=prev: omega_q * float(((prev - c64.reshape(-1)) ** 2).sum()),
                                      code, h=1e-3).reshape(-1)
            analytic = code_grads[level - 1, 0]
            denom = np.maximum(np.abs(fd), 1e-3)
            assert np.max(np.abs(analytic - fd) / denom) < 1e-4

    @pytest.mark.parametrize("trial", range(10))
    def test_commitment_terms_telescope_to_the_coarsest_code(self, trial):
        # level i adds 2 wb (c_{i-1} - c_i) with c_0 = x, so the terms sum to 2 wb (x - c_H)
        gen = np.random.default_rng(400 + trial)
        h, d = int(gen.integers(1, 4)), int(gen.integers(2, 17))
        sizes = sorted(gen.choice(np.arange(2, 30), size=h, replace=False), reverse=True)
        alpha, beta, w = (float(v) for v in gen.uniform(0.1, 2.0, size=3))
        q = make_quantizer(SeededRng(trial), d, [int(s) for s in sizes], alpha=alpha, beta=beta, init_std=0.5)
        trace = quantize_batch(q, gen.normal(size=(12, d)).astype(np.float32))
        rows = gen.integers(0, 12, size=20)  # repeated rows included
        grad_z = gen.normal(size=(20, d)).astype(np.float32)
        grad_e, _ = ste_backward_batch(q, trace, grad_z, rows, weight_cage=w)
        task = (np.float32(1.0) + np.float32(alpha)) * grad_z
        wb = np.float32(w * beta)
        telescoped = (2.0 * wb * (trace.input - trace_codes(q, trace)[-1].astype(np.float64)))[rows]
        inputs = np.concatenate([trace.input[None], trace_codes(q, trace)]).astype(np.float64)
        scale = np.abs(task) + (2.0 * wb * np.abs(np.diff(inputs, axis=0)).sum(axis=0))[rows]
        assert np.all(np.abs(grad_e - task - telescoped) <= (h + 3) * 2.0 ** -23 * scale)

    def test_unselected_rows_get_zero_gradient(self):
        q = make_quantizer(SeededRng(11), 4, [8, 3], alpha=1.0, beta=1.0)
        gen = np.random.default_rng(11)
        x = gen.normal(size=(16, 4)).astype(np.float32)
        bt = quantize_batch(q, x)
        table = EmbeddingTable(rows=Parameter(x, name="item_table"), role="item")
        _route(q, table, bt, [(np.arange(16), np.arange(16), gen.normal(size=(16, 4)).astype(np.float32))], 1.0)
        for level, cb in enumerate(q.codebooks):
            selected = set(int(j) for j in bt.indices[level])
            for row in range(cb.value.shape[0]):
                if row not in selected:
                    assert not cb.grad[row].any()

    def test_batch_routing_matches_single(self):
        q = make_quantizer(SeededRng(12), 4, [6, 2], alpha=0.9, beta=0.7)
        gen = np.random.default_rng(12)
        x = gen.normal(size=(5, 4)).astype(np.float32)
        gz = gen.normal(size=(5, 4)).astype(np.float32)
        bt = quantize_batch(q, x)
        grad_e_batch, code_grads = ste_backward_batch(q, bt, gz, np.arange(5), weight_cage=0.4)
        for i in range(5):
            single, single_codes = reference_ste_backward(bt, i, q, gz[i], 0.4)
            assert np.allclose(grad_e_batch[i], single, atol=1e-6)
            for level in range(q.depth):
                key = (level + 1, int(bt.indices[level, i]))
                assert np.allclose(code_grads[level, i], single_codes[key], atol=1e-6)


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

    def test_parent_links_are_nearest_coarse_rows(self):
        q = make_quantizer(SeededRng(21), 4, [6, 2])
        emb = np.random.default_rng(21).normal(size=(9, 4)).astype(np.float32)
        tree = extract_tree(q, emb)
        for child in range(6):
            j, _ = _nearest(q.codebooks[1].value, q.codebooks[0].value[child][None, :])
            assert tree.parents[0][child] == j[0]

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


def assert_tree_is_the_cascade(q, emb):
    """Each parent map links consecutive path levels, and the paths are quantize_batch's."""
    tree = extract_tree(q, emb)
    assert np.array_equal(tree.paths, quantize_batch(q, emb).indices.T)
    assert len(tree.parents) == q.depth - 1
    for i, parent in enumerate(tree.parents):
        assert np.array_equal(parent[tree.paths[:, i]], tree.paths[:, i + 1])
    return tree


class TestTreeIsTheCascade:
    def test_duplicated_codes(self):
        q = make_quantizer(SeededRng(34), 16, [64, 8, 2])
        coarse, fine = q.codebooks[1].value, q.codebooks[0].value
        coarse[5] = coarse[2]
        fine[:6] = coarse[2]  # children on a duplicated parent: ties go to the lowest index
        fine[10:13] = fine[9]  # duplicated level-1 codes
        emb = np.random.default_rng(34).normal(size=(200, 16)).astype(np.float32) * 0.01
        emb[:20] = fine[9]  # entities sitting exactly on a duplicated code
        tree = assert_tree_is_the_cascade(q, emb)
        assert np.all(tree.paths[:20, 0] == 9)
        assert tree.parents[0][:6].tolist() == [2] * 6

    def test_single_level(self):
        q = make_quantizer(SeededRng(35), 8, [5])
        emb = np.random.default_rng(35).normal(size=(30, 8)).astype(np.float32) * 0.01
        assert assert_tree_is_the_cascade(q, emb).parents == []

    def test_random_codebooks(self):
        q = make_quantizer(SeededRng(36), 8, [12, 5, 2], init_std=0.5)
        emb = np.random.default_rng(36).normal(size=(50, 8)).astype(np.float32)
        assert_tree_is_the_cascade(q, emb)


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

    @staticmethod
    def _partitions(seed):
        """Seeded codes and string labels: sizes 1 to 300, up to 20 codes and 10 labels, some labels copied from codes."""
        gen = np.random.default_rng(seed)
        n = int(gen.integers(1, 301))
        codes = gen.integers(0, int(gen.integers(1, 21)), size=n)
        labels = gen.integers(0, int(gen.integers(1, 11)), size=n)
        copied = gen.random(n) < gen.random()
        labels[copied] = codes[copied] % 10
        return codes, [f"cat{v}" for v in labels]

    def test_nmi_matches_dict_count_oracle(self):
        for seed in range(200):
            codes, labels = self._partitions(seed)
            expected = min(max(nmi_oracle(codes.tolist(), labels), 0.0), 1.0)
            assert abs(label_nmi(codes, labels) - expected) <= 1e-12, f"seed {seed}"

    def test_nmi_relabelled_identical_partition(self):
        assert label_nmi([0, 0, 1, 1, 2, 7], ["b", "b", "a", "a", "z", "c"]) == 1.0
        assert label_nmi([3, 3, 3], ["A", "A", "A"]) == 1.0  # two constant partitions
        codes, _ = self._partitions(7)
        assert label_nmi(codes, [f"x{c * 37 % 101}" for c in codes]) == 1.0

    def test_nmi_independent_partitions_is_zero(self):
        assert label_nmi([0, 0, 1, 1], ["A", "B", "A", "B"]) == 0.0
        assert label_nmi([5, 5, 5, 5], ["A", "B", "A", "B"]) == 0.0  # one constant side

    def test_nmi_is_symmetric(self):
        for seed in range(50):
            codes, labels = self._partitions(seed)
            assert label_nmi(codes, labels) == label_nmi(labels, codes), f"seed {seed}"

    def test_nmi_rejects_empty_and_mismatched(self):
        for codes, labels in [([], []), ([0, 1], ["A"]), ([0], ["A", "B"]), ([[0, 1]], [["A", "B"]])]:
            with pytest.raises(ValueError):
                label_nmi(codes, labels)


class TestConstruction:
    def test_sizes_must_strictly_decrease(self):
        with pytest.raises(ConfigError):
            make_quantizer(SeededRng(1), 4, [4, 4])
        with pytest.raises(ConfigError):
            make_quantizer(SeededRng(1), 4, [2, 5])

    def test_negative_weights_rejected(self):
        with pytest.raises(ConfigError):
            make_quantizer(SeededRng(1), 4, [3], alpha=-0.1)
