"""Numerical oracles shared by the gradient tests."""

import numpy as np


class OracleError(RuntimeError):
    """A test oracle hit a non-finite function value."""


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
