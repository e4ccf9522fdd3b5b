import math
import tracemalloc
import zlib

import numpy as np
import pytest

from treequant import core
from treequant.core import Adam, Parameter, bce_with_logits_batch, mlp_apply, mlp_backward, softmax_xent_batch
from treequant.errors import DimensionError, DivergenceError
from treequant.rng import SeededRng, normal_draw, rng_normal_init

from oracles import OracleError, finite_diff_gradient


class TestNormalInit:
    def test_rejects_zero_std(self):
        with pytest.raises(ValueError):
            rng_normal_init(SeededRng(1), 2, 2, 0.0)

    def test_rejects_zero_dimension(self):
        with pytest.raises(DimensionError):
            rng_normal_init(SeededRng(1), 0, 2, 0.01)

    def test_same_seed_bit_identical(self):
        a = rng_normal_init(SeededRng(7), 4, 8, 0.01)
        b = rng_normal_init(SeededRng(7), 4, 8, 0.01)
        assert a.dtype == np.float32
        assert np.array_equal(a, b)

    def test_sample_statistics(self):
        m = rng_normal_init(SeededRng(7), 1000, 64, 0.01)
        assert abs(float(m.mean())) < 0.002
        assert abs(float(m.std()) - 0.01) < 0.002

    def test_named_streams_independent(self):
        rng = SeededRng(3)
        a = rng_normal_init(rng, 4, 4, 0.1, name="a")
        b = rng_normal_init(rng, 4, 4, 0.1, name="b")
        assert not np.array_equal(a, b)
        assert np.array_equal(a, rng_normal_init(SeededRng(3), 4, 4, 0.1, name="a"))


class TestSeededRng:
    def test_seeds_past_64_bits_are_not_folded(self):
        # 2**64 + 5 once lost its high bits and drew the streams of seed 5
        five = rng_normal_init(SeededRng(5), 4, 8, 0.01, name="init/item_table")
        assert not np.array_equal(five, rng_normal_init(SeededRng(2 ** 64 + 5), 4, 8, 0.01, name="init/item_table"))
        assert SeededRng(2 ** 64 + 5).seed == 2 ** 64 + 5

    @pytest.mark.parametrize("seed", [0, 5, 2 ** 63, 2 ** 64 - 1])
    def test_seeds_below_2_64_keep_their_streams(self, seed):
        tag = zlib.crc32(b"init/item_table")
        expected = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, tag]))).normal(size=6)
        assert np.array_equal(SeededRng(seed).stream("init/item_table").normal(size=6), expected)


class TestAdam:
    def _param(self, value, name="p"):
        return Parameter(np.array(value, dtype=np.float32), name=name)

    def test_zero_gradient_keeps_value(self):
        p = self._param([[1.0, -2.0]])
        opt = Adam([p], lr=0.1)
        opt.step()
        assert opt.t == 1
        assert np.array_equal(p.value, np.array([[1.0, -2.0]], dtype=np.float32))

    def test_hand_evaluated_first_step(self):
        # m_hat = v_hat = 1 after bias correction, so the step is ~ -lr
        p = self._param([[1.0]])
        opt = Adam([p], lr=0.001)
        p.grad[...] = 1.0
        opt.step()
        assert p.value[0, 0] == pytest.approx(1.0 - 0.001, abs=1e-6)

    def test_two_identical_steps_monotone(self):
        p = self._param([[0.5]])
        opt = Adam([p], lr=0.001)
        values = [0.5]
        for _ in range(2):
            p.grad[...] = 1.0
            opt.step()
            values.append(float(p.value[0, 0]))
        assert values[0] - values[1] == pytest.approx(0.001, abs=1e-5)
        assert values[1] - values[2] == pytest.approx(0.001, abs=1e-5)

    def test_nonfinite_gradient_names_parameter(self):
        p = Parameter(np.ones((2, 2), dtype=np.float32), name="item_table")
        opt = Adam([p], lr=0.01)
        p.grad[0, 0] = np.nan
        with pytest.raises(DivergenceError, match="item_table"):
            opt.step()

    def test_grad_zeroed_after_step(self):
        p = self._param([[1.0, 2.0]])
        opt = Adam([p], lr=0.01)
        p.grad[...] = 3.0
        opt.step()
        assert not p.grad.any()

    def test_signed_zero_gradient_is_untouched(self):
        p = self._param([[1.0, -2.0, 3.0]])
        opt = Adam([p], lr=0.1)
        p.grad[...] = [[-0.0, 0.0, -0.0]]
        opt.step()
        (_, (m, v)), = opt.slots
        assert opt.t == 1 and not m.any() and not v.any()
        assert np.array_equal(p.value, np.array([[1.0, -2.0, 3.0]], dtype=np.float32))

    @pytest.mark.parametrize("touched", [-1.0, 1.0])
    def test_one_signed_entry_is_an_update(self, touched):
        """The other entries are 0, so max or min alone is 0: the update still equals the reference's."""
        got, want = self._param([[1.0, -2.0, 3.0]]), self._param([[1.0, -2.0, 3.0]])
        opt = Adam([got], lr=0.1)
        want_m, want_v = np.zeros_like(want.value), np.zeros_like(want.value)
        got.grad[0, 1] = want.grad[0, 1] = touched
        opt.step()
        reference_adam_step(want, want_m, want_v, 1, 0.1)
        assert got.value.tobytes() == want.value.tobytes() != self._param([[1.0, -2.0, 3.0]]).value.tobytes()
        assert opt.slots[0][1][0].tobytes() == want_m.tobytes()

    def test_empty_parameter_counts_the_step(self):
        p = Parameter(np.zeros((0, 4), dtype=np.float32), name="p")
        opt = Adam([p], lr=0.1)
        opt.step()
        assert opt.t == 1 and p.value.shape == (0, 4)

    def test_zero_gradient_parameter_beside_a_moving_one(self):
        """One step counts once for every parameter; only the one with a gradient moves."""
        gen = np.random.default_rng(5)
        value = gen.normal(size=(7, 3)).astype(np.float32)
        still, moving, want = self._param(np.ones((2, 3)), "still"), self._param(value), self._param(value)
        opt = Adam([still, moving], lr=0.05)
        want_m, want_v = np.zeros_like(value), np.zeros_like(value)
        for t in (1, 2):
            moving.grad[...] = want.grad[...] = gen.normal(size=value.shape)
            opt.step()
            reference_adam_step(want, want_m, want_v, t, 0.05)
            assert opt.t == t
            (_, (still_m, still_v)), (_, (m, v)) = opt.slots
            assert not still_m.any() and not still_v.any()
            assert np.array_equal(still.value, np.ones((2, 3), dtype=np.float32))
            assert moving.value.tobytes() == want.value.tobytes()
            assert m.tobytes() == want_m.tobytes() and v.tobytes() == want_v.tobytes()


def reference_adam_step(param, m, v, t, lr, eps=1e-8):
    """Step t of the whole-array Adam expression that the in-place update must reproduce bit for bit."""
    g = param.grad
    if not np.all(np.isfinite(g)):
        raise DivergenceError(f"non-finite gradient in parameter '{param.name}'")
    if not g.any():
        return
    b1, b2 = np.float32(0.9), np.float32(0.999)
    m[...] = b1 * m + (np.float32(1.0) - b1) * g
    v[...] = b2 * v + (np.float32(1.0) - b2) * (g * g)
    m_hat = m / np.float32(1.0 - 0.9 ** t)
    v_hat = v / np.float32(1.0 - 0.999 ** t)
    param.value[...] = param.value - np.float32(lr) * m_hat / (np.sqrt(v_hat) + np.float32(eps))
    param.grad[...] = 0.0


class TestAdamOracle:
    @pytest.mark.parametrize("lr, eps", [(0.01, 1e-8), (0.3, 1e-3)])
    @pytest.mark.parametrize("seed", range(4))
    def test_bit_equal_to_reference_over_five_steps(self, lr, eps, seed, monkeypatch):
        # eps is a module constant; 1e-3 moves the bits, so it checks where eps enters the update
        monkeypatch.setattr(core, "EPS", eps)
        gen = np.random.default_rng(seed)
        value = gen.normal(0.0, 0.1, size=(300, 16)).astype(np.float32)
        got, want = Parameter(value.copy(), name="p"), Parameter(value.copy(), name="p")
        opt = Adam([got], lr=lr)
        (_, (got_m, got_v)), = opt.slots
        want_m, want_v = np.zeros_like(value), np.zeros_like(value)
        for step in range(5):
            grad = np.zeros_like(value)
            if step != 2:  # step 2 is an all-zero gradient
                rows = gen.choice(300, size=int(gen.integers(1, 40)), replace=False)
                grad[rows] = gen.normal(0.0, 10.0 ** gen.integers(-6, 2), size=(rows.size, 16))
            got.grad[...] = grad
            want.grad[...] = grad
            opt.step()
            reference_adam_step(want, want_m, want_v, step + 1, lr, eps)
            assert got.value.tobytes() == want.value.tobytes()
            assert got_m.tobytes() == want_m.tobytes()
            assert got_v.tobytes() == want_v.tobytes()
            assert opt.t == step + 1
            assert not got.grad.any()

    def test_one_step_peaks_under_two_parameters(self):
        p = Parameter(np.random.default_rng(0).normal(size=(3000, 64)).astype(np.float32), name="p")
        opt = Adam([p], lr=0.01)
        p.grad[...] = np.random.default_rng(1).normal(size=p.value.shape)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            opt.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * p.value.nbytes, peak

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_gradient_leaves_state_alone(self, bad):
        """The finite gradient before the bad one is not applied either: a step that raises changes nothing."""
        ok, p = (Parameter(np.ones((4, 3), dtype=np.float32), name=name) for name in ("ok", "w"))
        opt = Adam([ok, p], lr=0.01)
        ok.grad[...] = 1.0
        p.grad[...] = np.float32(3.0e38)  # finite, and its float32 sum would overflow
        p.grad[2, 1] = bad
        with pytest.raises(DivergenceError, match="'w'"):
            opt.step()
        assert opt.t == 0 and not any(mv.any() for _, moments in opt.slots for mv in moments)
        assert np.array_equal(ok.value, np.ones((4, 3), dtype=np.float32)) and ok.grad.all()
        assert np.array_equal(p.value, np.ones((4, 3), dtype=np.float32))

    def test_large_finite_gradient_is_accepted(self):
        got, want = (Parameter(np.ones((4, 3), dtype=np.float32), name="w") for _ in range(2))
        opt = Adam([got], lr=0.01)
        want_m, want_v = np.zeros_like(want.value), np.zeros_like(want.value)
        got.grad[...] = want.grad[...] = np.float32(3.0e38)
        with np.errstate(over="ignore"):  # g*g overflows to inf in both
            opt.step()
            reference_adam_step(want, want_m, want_v, 1, 0.01)
        assert opt.t == 1
        assert got.value.tobytes() == want.value.tobytes()
        assert opt.slots[0][1][1].tobytes() == want_v.tobytes()


class TestMlp:
    def test_identity_single_layer(self):
        w = np.eye(2, dtype=np.float32)
        b = np.zeros(2, dtype=np.float32)
        out, _ = mlp_apply([(w, b)], np.array([[1.0, 2.0]], dtype=np.float32))
        assert np.allclose(out, [[1.0, 2.0]])

    def test_relu_clamps_between_layers(self):
        # (x1, x2) -> relu(x1 - x2) -> scalar
        w1 = np.array([[1.0], [-1.0]], dtype=np.float32)
        w2 = np.array([[1.0]], dtype=np.float32)
        zeros1 = np.zeros(1, dtype=np.float32)
        out, _ = mlp_apply([(w1, zeros1), (w2, zeros1)], np.array([[3.0, 5.0]], dtype=np.float32))
        assert out[0, 0] == 0.0

    def test_dimension_error_names_layer(self):
        w = np.ones((3, 2), dtype=np.float32)
        b = np.zeros(2, dtype=np.float32)
        with pytest.raises(DimensionError, match="layer 0"):
            mlp_apply([(w, b)], np.ones((1, 2), dtype=np.float32))

    @staticmethod
    def _oracle_forward(layers, x):
        # independent float64 forward: affine + relu between layers
        h = x.astype(np.float64)
        for li, (w, b) in enumerate(layers):
            h = h @ w.astype(np.float64) + b.astype(np.float64)
            if li < len(layers) - 1:
                h = np.maximum(h, 0.0)
        return float(h.sum())

    @pytest.mark.parametrize("trial", range(20))
    def test_weight_gradients_match_finite_differences(self, trial):
        gen = np.random.default_rng(100 + trial)
        sizes = [int(gen.integers(2, 5)) for _ in range(int(gen.integers(2, 4)))]
        # the Kaiming-normal weights and zero biases that models.make_layers makes
        layers = [(normal_draw(gen, float(np.sqrt(2.0 / fan_in)), fan_in, fan_out), np.zeros(fan_out, dtype=np.float32))
                  for fan_in, fan_out in zip(sizes, sizes[1:])]
        x = gen.normal(size=(3, sizes[0])).astype(np.float32)

        out, tape = mlp_apply(layers, x)
        param_grads, grad_in = mlp_backward(tape, np.ones_like(out))

        for li in range(len(layers)):
            def f(w64, li=li):
                trial_layers = [(w, b) for w, b in layers]
                trial_layers[li] = (w64, trial_layers[li][1])
                return self._oracle_forward(trial_layers, x)

            fd = finite_diff_gradient(f, layers[li][0].astype(np.float64), h=1e-3)
            analytic = param_grads[li][0]
            denom = np.maximum(np.abs(fd), 1.0)
            assert np.max(np.abs(analytic - fd) / denom) < 1e-4

        fd_in = finite_diff_gradient(lambda x64: self._oracle_forward(layers, x64),
                                     x.astype(np.float64), h=1e-3)
        denom = np.maximum(np.abs(fd_in), 1.0)
        assert np.max(np.abs(grad_in - fd_in) / denom) < 1e-4


def softmax(logits: np.ndarray) -> np.ndarray:
    """The oracle of softmax_xent_batch's gradient, which is softmax(logits) - onehot."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def xent_row(logits, true_class):
    """softmax_xent_batch on a 1-row batch: (loss, logit gradient) of that row."""
    losses, grads = softmax_xent_batch(np.asarray(logits, dtype=np.float32)[None, :], np.array([true_class]))
    return float(losses[0]), grads[0]


def bce_row(logit, label):
    """bce_with_logits_batch on a 1-row batch: (loss, logit gradient) of that row."""
    losses, grads = bce_with_logits_batch(np.array([logit]), np.array([label]))
    return float(losses[0]), float(grads[0])


class TestCrossEntropy:
    def test_uniform_logits(self):
        for n in (2, 5, 11):
            loss, _ = xent_row(np.zeros(n), 0)
            assert loss == pytest.approx(math.log(n), rel=1e-6)

    def test_closed_form_two_classes(self):
        loss, _ = xent_row([2.0, 0.0], 0)
        assert loss == pytest.approx(math.log(1 + math.exp(-2)), rel=1e-5)

    def test_large_logits_no_overflow(self):
        loss, grad = xent_row([1000.0, 0.0], 0)
        assert loss == pytest.approx(0.0, abs=1e-6)
        assert np.all(np.isfinite(grad))

    def test_out_of_range_class(self):
        with pytest.raises(IndexError):
            xent_row(np.zeros(3), 3)

    def test_softmax_sums_to_one(self):
        gen = np.random.default_rng(5)
        for _ in range(50):
            logits = gen.normal(scale=10.0, size=int(gen.integers(2, 30))).astype(np.float32)
            assert float(softmax(logits).sum()) == pytest.approx(1.0, abs=1e-6)

    def test_gradient_is_softmax_minus_onehot(self):
        logits = np.array([1.0, -1.0, 0.5], dtype=np.float32)
        _, grad = xent_row(logits, 1)
        expected = softmax(logits)
        expected[1] -= 1.0
        assert np.allclose(grad, expected, atol=1e-6)


class TestBce:
    def test_symmetry_point(self):
        loss, grad = bce_row(0.0, 1)
        assert loss == pytest.approx(math.log(2), rel=1e-6)
        assert grad == pytest.approx(-0.5, abs=1e-7)

    def test_closed_form(self):
        loss, _ = bce_row(2.0, 1)
        assert loss == pytest.approx(math.log(1 + math.exp(-2)), rel=1e-6)

    def test_stability_limit(self):
        loss, grad = bce_row(-1000.0, 0)
        assert loss == pytest.approx(0.0, abs=1e-9)
        assert math.isfinite(grad)

    def test_label_domain(self):
        with pytest.raises(ValueError):
            bce_row(0.0, 2)

    def test_batch_label_domain(self):
        with pytest.raises(ValueError, match="label must be 0 or 1, got 2"):
            bce_with_logits_batch(np.zeros(3), np.array([0, 2, 1]))

    @pytest.mark.parametrize("trial", range(50))
    def test_gradient_matches_finite_differences(self, trial):
        gen = np.random.default_rng(trial)
        logit = float(gen.normal(scale=3.0))
        label = int(gen.integers(0, 2))
        _, grad = bce_row(logit, label)
        fd = finite_diff_gradient(lambda x: bce_row(float(x[0, 0]), label)[0],
                                  np.array([[logit]]), h=1e-4)
        assert grad == pytest.approx(float(fd[0, 0]), rel=1e-4, abs=1e-6)


class TestFiniteDiff:
    def test_linear_function(self):
        x = np.array([[1.0, -3.0], [2.0, 0.5]])
        fd = finite_diff_gradient(lambda m: float(m.sum()), x, h=1e-3)
        assert np.allclose(fd, 1.0, atol=1e-8)

    def test_quadratic_closed_form(self):
        fd = finite_diff_gradient(lambda m: float((m ** 2).sum()), np.array([[1.0, 2.0]]), h=1e-3)
        assert np.allclose(fd, [[2.0, 4.0]], atol=1e-6)

    def test_constant_function(self):
        fd = finite_diff_gradient(lambda m: 5.0, np.ones((3, 2)), h=1e-3)
        assert not fd.any()

    def test_nonfinite_value_raises(self):
        with pytest.raises(OracleError):
            finite_diff_gradient(lambda m: float("nan"), np.ones((1, 1)), h=1e-3)


def test_adam_wrapper_steps_all_parameters():
    params = [Parameter(np.ones((2, 2), dtype=np.float32), name=f"p{i}") for i in range(3)]
    opt = Adam(params, lr=0.5)
    for p in params:
        p.grad[...] = 1.0
    opt.step()
    for p in params:
        assert np.all(p.value < 1.0)
        assert not p.grad.any()
