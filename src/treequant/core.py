"""Dense float32 numerics: parameters, Adam, a small MLP, loss primitives.

Everything here is plain numpy with explicit backward passes.  Matrices are
row-major float32 arrays; loss reductions accumulate in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DivergenceError, OracleError
from .rng import normal_draw


@dataclass
class Parameter:
    """A learnable tensor with an accumulated gradient."""

    value: np.ndarray
    name: str
    grad: np.ndarray = field(init=False)

    def __post_init__(self):
        self.value = np.asarray(self.value, dtype=np.float32)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self):
        self.grad[...] = 0.0


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_param(cls, param: Parameter, lr: float, eps: float = 1e-8):
        if eps <= 0:
            raise ValueError("eps must be > 0")
        return cls(m=np.zeros_like(param.value), v=np.zeros_like(param.value), t=0, lr=lr, eps=eps)


def adam_step(param: Parameter, state: AdamState) -> None:
    """One Adam update with bias correction; zeroes the gradient afterwards.

    In place, with one parameter-sized temporary and the gradient buffer as
    scratch, the float32 operations and their order are those of
        m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*(g*g)
        value = value - lr*m_hat / (sqrt(v_hat) + eps)
    with m_hat = m / (1 - b1**t) and v_hat = v / (1 - b2**t).
    """
    g = param.grad
    if g.shape != param.value.shape:
        raise DimensionError(f"{param.name}: grad shape mismatch")
    # a float64 sum of finite float32 values cannot overflow; NaN and inf propagate
    if not math.isfinite(g.sum(dtype=np.float64)):
        raise DivergenceError(f"non-finite gradient in parameter '{param.name}'")
    state.t += 1
    if not g.any():
        # untouched parameter: no update, no moment decay
        return
    b1, b2 = np.float32(state.beta1), np.float32(state.beta2)
    m, v, tmp = state.m, state.v, np.empty_like(param.value)
    np.multiply(np.float32(1.0) - b1, g, out=tmp)
    m *= b1
    m += tmp
    np.multiply(g, g, out=tmp)
    tmp *= np.float32(1.0) - b2
    v *= b2
    v += tmp
    np.divide(m, np.float32(1.0 - state.beta1 ** state.t), out=tmp)
    tmp *= np.float32(state.lr)
    np.divide(v, np.float32(1.0 - state.beta2 ** state.t), out=g)
    np.sqrt(g, out=g)
    g += np.float32(state.eps)
    tmp /= g
    param.value -= tmp
    param.zero_grad()


class Adam:
    """Convenience wrapper holding one AdamState per parameter."""

    def __init__(self, params, lr: float):
        self.slots = [(p, AdamState.for_param(p, lr)) for p in params]

    def step(self):
        for p, s in self.slots:
            adam_step(p, s)


# ---------------------------------------------------------------------------
# MLP with an explicit tape
# ---------------------------------------------------------------------------


@dataclass
class MlpTape:
    inputs: list          # input to each layer, shape (n, fan_in)
    pre_acts: list        # pre-activation output of each layer
    layers: list          # the (W, b) pairs the forward used


def mlp_apply(layers, x: np.ndarray):
    """Forward through affine layers with ReLU between them (none after the last).

    ``layers`` is a list of float32 (weight, bias) arrays; weight is
    (fan_in, fan_out), bias is (fan_out,).  x is (n, fan_in).  Returns
    (output, tape).
    """
    x = np.asarray(x, dtype=np.float32)
    inputs, pre_acts = [], []
    h = x
    for li, (w, b) in enumerate(layers):
        if h.shape[1] != w.shape[0]:
            raise DimensionError(f"layer {li}: input width {h.shape[1]} != weight fan-in {w.shape[0]}")
        inputs.append(h)
        z = h @ w + b
        pre_acts.append(z)
        h = np.maximum(z, 0.0) if li < len(layers) - 1 else z
    return h, MlpTape(inputs=inputs, pre_acts=pre_acts, layers=list(layers))


def mlp_backward(tape: MlpTape, grad_out: np.ndarray):
    """Exact gradients for every weight, bias, and the input.

    Returns (param_grads, grad_input) where param_grads is a list of (gW, gb)
    aligned with the forward's layers.
    """
    grad = np.asarray(grad_out, dtype=np.float32)
    param_grads = [None] * len(tape.layers)
    for li in range(len(tape.layers) - 1, -1, -1):
        w, _ = tape.layers[li]
        if li < len(tape.layers) - 1:
            grad = grad * (tape.pre_acts[li] > 0)
        gw = tape.inputs[li].T @ grad
        gb = grad.sum(axis=0)
        param_grads[li] = (gw, gb)
        grad = grad @ w.T
    return param_grads, grad


def mlp_init(rng_stream: np.random.Generator, sizes) -> list:
    """Kaiming-style scaled-normal weights, zero biases, for layer widths ``sizes``."""
    layers = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        std = float(np.sqrt(2.0 / fan_in))
        w = normal_draw(rng_stream, std, fan_in, fan_out)
        b = np.zeros(fan_out, dtype=np.float32)
        layers.append((w, b))
    return layers


# ---------------------------------------------------------------------------
# Loss primitives
# ---------------------------------------------------------------------------


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_xent_batch(logits: np.ndarray, targets: np.ndarray):
    """Row-wise cross entropy; returns (per-row float64 losses, unscaled grads)."""
    z = logits.astype(np.float64)
    z = z - z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    rows = np.arange(z.shape[0])
    losses = lse - z[rows, targets]
    grads = np.exp(z - lse[:, None]).astype(np.float32)
    grads[rows, targets] -= 1.0
    return losses, grads


def bce_with_logits_batch(logits: np.ndarray, labels: np.ndarray):
    """Row-wise stable binary cross entropy; returns (float64 losses, float32 logit grads)."""
    x = logits.astype(np.float64).reshape(-1)
    y = labels.astype(np.float64).reshape(-1)
    bad = (y != 0.0) & (y != 1.0)
    if bad.any():
        raise ValueError(f"label must be 0 or 1, got {y[bad][0]:g}")
    losses = np.maximum(x, 0.0) - x * y + np.log1p(np.exp(-np.abs(x)))
    sig = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    return losses, (sig - y).astype(np.float32)


def finite_diff_gradient(f, x: np.ndarray, h: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of a scalar function, entry by entry."""
    if h <= 0:
        raise ValueError("h must be > 0")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += h
        xm[idx] -= h
        fp, fm = f(xp), f(xm)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise OracleError(f"non-finite function value near index {idx}")
        grad[idx] = (fp - fm) / (2.0 * h)
        it.iternext()
    return grad
