"""Dense float32 numerics: parameters, Adam, a small MLP, loss primitives.

Everything here is plain numpy with explicit backward passes.  Matrices are
row-major float32 arrays; loss reductions accumulate in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, DivergenceError


@dataclass
class Parameter:
    """A learnable tensor with an accumulated gradient."""

    value: np.ndarray
    name: str
    grad: np.ndarray = field(init=False)

    def __post_init__(self):
        self.value = np.asarray(self.value, dtype=np.float32)
        self.grad = np.zeros_like(self.value)

    @classmethod
    def made(cls, name: str, shape: tuple, draw, stored: dict | None = None) -> Parameter:
        """The one maker of a model parameter: draw() when stored is None, else stored[name].

        A loaded parameter holds the stored array itself, not a copy, when it
        is float32 (load_checkpoint's tensors are), so training it changes the
        checkpoint's tensor.  The stored tensor must exist and have shape, with
        no empty dimension; nothing of the configured shape is allocated before
        these checks pass.
        """
        if stored is None:
            return cls(draw(), name)
        if name not in stored:
            raise ConfigError(f"checkpoint is missing tensor '{name}'")
        got = stored[name].shape
        if got != shape:
            raise ConfigError(f"tensor '{name}' has shape {got}, model expects {shape}")
        if not all(got):
            raise ConfigError(f"tensor '{name}' has shape {got}, with no elements")
        return cls(stored[name], name)


# Adam's moment decays and denominator offset
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction over a list of parameters, at one learning rate.

    slots pairs each parameter with its (m, v) moments; t counts the steps.
    """

    def __init__(self, params, lr: float):
        self.lr = lr
        self.t = 0
        self.slots = [(p, (np.zeros_like(p.value), np.zeros_like(p.value))) for p in params]

    def step(self):
        """One update of every parameter whose gradient is not all zero; zeroes the gradients.

        Every gradient is checked finite before anything changes.  A square
        past float32 sets its v entry to inf without a warning: that entry
        never moves again, and run_train reports it as divergence.  An all-zero
        gradient (+-0 only) leaves its parameter and moments untouched.  In
        place, with one parameter-sized temporary and the gradient buffer as
        scratch, the float32 operations and their order are those of
            m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*(g*g)
            value = value - lr*m_hat / (sqrt(v_hat) + eps)
        with m_hat = m / (1 - b1**t) and v_hat = v / (1 - b2**t).
        """
        touched = []
        for p, _ in self.slots:
            g = p.grad
            # NaN and inf propagate through max and min; a gradient of only +-0 is untouched
            high, low = (g.max(), g.min()) if g.size else (0.0, 0.0)
            if not (math.isfinite(high) and math.isfinite(low)):
                raise DivergenceError(f"non-finite gradient in parameter '{p.name}'")
            touched.append(not high == low == 0)
        self.t += 1
        b1, b2 = np.float32(BETA1), np.float32(BETA2)
        for (p, (m, v)), moved in zip(self.slots, touched):
            if not moved:
                continue
            g, tmp = p.grad, np.empty_like(p.value)
            np.multiply(np.float32(1.0) - b1, g, out=tmp)
            m *= b1
            m += tmp
            with np.errstate(over="ignore"):
                np.multiply(g, g, out=tmp)
            tmp *= np.float32(1.0) - b2
            v *= b2
            v += tmp
            np.divide(m, np.float32(1.0 - BETA1 ** self.t), out=tmp)
            tmp *= np.float32(self.lr)
            np.divide(v, np.float32(1.0 - BETA2 ** self.t), out=g)
            np.sqrt(g, out=g)
            g += np.float32(EPS)
            tmp /= g
            p.value -= tmp
            g[...] = 0.0


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


# ---------------------------------------------------------------------------
# Loss primitives
# ---------------------------------------------------------------------------


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
