"""Numerical oracles shared by the gradient tests, a trace's codes, a dict-count NMI, a draw-counting
stand-in for a numpy Generator, and a rewriter of a saved checkpoint's metadata and payload."""

import json
import math
import struct
from collections import Counter
from pathlib import Path

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


def trace_codes(q, trace) -> np.ndarray:
    """A quantize_batch trace's chosen codes (H, n, d): row r's level-i code is q.codebooks[i].value[trace.indices[i, r]]."""
    return np.stack([cb.value[rows] for cb, rows in zip(q.codebooks, trace.indices)])


def nmi_oracle(codes, labels) -> float:
    """2 I / (H(codes) + H(labels)) from Counter counts and math.log, one term at a time; 1.0 for two constant partitions."""
    n = len(codes)
    joint, a, b = Counter(zip(codes, labels)), Counter(codes), Counter(labels)
    mi = sum(k / n * math.log(k * n / (a[c] * b[lab])) for (c, lab), k in joint.items())
    h = -sum(k / n * math.log(k / n) for counts in (a, b) for k in counts.values())
    return 1.0 if h == 0 else 2.0 * mi / h


class CountingGen:
    """Stands in for a numpy Generator; fails the test instead of looping forever.

    integers counts the values it draws and fails once they pass limit.  The
    values come from gen, and so do bit_generator and random; without gen,
    every value is the bound's last one.
    """

    def __init__(self, gen=None, limit=1000):
        self.gen = gen
        self.draws = 0
        self.limit = limit

    def integers(self, low, high, size=None):
        self.draws += 1 if size is None else size
        assert self.draws <= self.limit, "negative sampling does not terminate"
        if self.gen is not None:
            return self.gen.integers(low, high, size=size)
        return np.int64(high - 1) if size is None else np.full(size, high - 1, dtype=np.int64)

    @property
    def bit_generator(self):
        return self.gen.bit_generator

    def random(self):
        return self.gen.random()


def rewrite_checkpoint(path, edit, payload=None):
    """Apply edit(meta) to a saved checkpoint's metadata and, given payload, replace its payload with
    payload(old payload); the magic and version stay, and the metadata length is rewritten."""
    path = Path(path)
    blob = path.read_bytes()
    (meta_len,) = struct.unpack_from("<Q", blob, 12)
    meta = json.loads(blob[20:20 + meta_len].decode("utf-8"))
    edit(meta)
    body = blob[20 + meta_len:]
    new_meta = json.dumps(meta, sort_keys=True).encode("utf-8")
    path.write_bytes(blob[:12] + struct.pack("<Q", len(new_meta)) + new_meta
                     + (body if payload is None else payload(body)))
