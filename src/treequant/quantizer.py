"""Cascaded vector quantization with straight-through gradient routing.

A stack of fine-to-coarse codebooks turns an entity embedding into a path of
code indices (one per level).  The chosen codes are fused back into the
embedding x as x + alpha * mean(codes), and two quadratic penalties keep codes
and embeddings attached to each other.  After training, the frozen
nearest-neighbour assignments form a category tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Parameter
from .errors import ConfigError, DimensionError
from .rng import SeededRng, rng_normal_init

_BLOCK = 1024  # rows per nearest-code search block; memory is O(block x codes)
_PAIRS = 4096  # (row, code) pairs per direct recomputation chunk
_F64_ROUNDOFF = 2.0 ** -53
_F32_ROUNDOFF = 2.0 ** -24
_ETA = 2.0 ** -150  # half float32's smallest subnormal: a product's absolute error when it underflows
_F32_SAFE = 2.0 ** 126  # (|x| + max |c|)^2 up to which no float32 value of the ranking overflows


@dataclass
class CascadedQuantizer:
    codebooks: list  # level i+1's (size x dim) code vectors at position i, sizes decreasing
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if not self.codebooks:
            raise ConfigError("need at least one codebook")
        sizes = self.level_sizes
        if any(a <= b for a, b in zip(sizes, sizes[1:])):
            raise ConfigError(f"codebook sizes must be strictly decreasing, got {sizes}")
        if self.alpha < 0 or self.beta < 0:
            raise ConfigError("alpha and beta must be >= 0")

    @property
    def depth(self) -> int:
        return len(self.codebooks)

    @property
    def dim(self) -> int:
        return self.codebooks[0].value.shape[1]

    @property
    def level_sizes(self) -> list:
        return [cb.value.shape[0] for cb in self.codebooks]


def make_quantizer(rng: SeededRng, dim: int, sizes, alpha: float = 1.0, beta: float = 1.0,
                   name: str = "cage", init_std: float = 0.01, stored: dict | None = None) -> CascadedQuantizer:
    """Build a quantizer with normally initialized codebooks; see Parameter.made for stored."""
    books = [Parameter.made(f"{name}.codebook{i}", (v, dim),
                            lambda: rng_normal_init(rng, v, dim, init_std, f"init/{name}/codebook{i}"), stored)
             for i, v in enumerate(sizes, start=1)]
    return CascadedQuantizer(codebooks=books, alpha=alpha, beta=beta)


# ---------------------------------------------------------------------------
# Nearest-code search
# ---------------------------------------------------------------------------


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The direct formula, sum((a - b)^2) per row: float64 differences, einsum over d."""
    diff = np.subtract(a, b, dtype=np.float64)
    return np.einsum("nd,nd->n", diff, diff)


def _direct_sq_dists(x: np.ndarray, entries: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """_sq_dists of x[r] and entries[c] per (r, c) pair, in chunks of _PAIRS pairs."""
    out = np.empty(rows.shape[0], dtype=np.float64)
    for start in range(0, rows.shape[0], _PAIRS):
        out[start:start + _PAIRS] = _sq_dists(x[rows[start:start + _PAIRS]], entries[cols[start:start + _PAIRS]])
    return out


def _gamma(m: int, u: float) -> float:
    """Higham's gamma_m = m u / (1 - m u): the relative error bound of m roundings at unit roundoff u."""
    return m * u / (1.0 - m * u)


def _nearest(entries: np.ndarray, x: np.ndarray):
    """Nearest code for every row of x: (int64 indices, float64 squared distances).

    The result equals, bit for bit, the first minimum over codes of the
    direct formula sum((x - c)^2), float64 differences summed by einsum; a
    float32 ranking picks the codes that formula is evaluated for.  The
    bound below follows Higham, Accuracy and Stability of Numerical
    Algorithms, 3.1, with u = 2^-24 for float32 and u = 2^-53 for float64.

    * Ranking: R = |c|^2 - 2 x.c, one float32 GEMM per block of rows
      (|x|^2 is the same for every code of a row).  With B = (|x| + max |c|)^2,
      a computed R lies within gamma_{d+1} B + 3 d eta of the exact value:
      gamma_d for each dot product and one rounding for their sum.  eta =
      2^-150 is the absolute error of a product that falls into float32's
      subnormals, where rounding has no relative bound.  |x| and max |c| are
      bounded from above from their float32 sums of squares, which carry the
      same two terms.
    * Direct formula: float64 squares of float32 differences neither overflow
      nor underflow, so it lies within gamma_{d+2} B of the exact distance.
    * Candidates: every code the direct formula could rank first lies within
      2 (gamma_{d+1} + gamma_{d+2}) B + 6 d eta, twice both bounds, of the
      row's float32 minimum m.  The slack S = rel B + 8 d eta has gamma_{d+6}
      (float32) and gamma_{d+4} (float64) in rel instead.  The float64
      surplus, >= 4 2^-53 B, covers the float64 rounding of B, S and m + S.
      Rounding the threshold m + S to the nearest float32 moves it by at most
      2^-24 |m + S| + eta, the eta only where it is subnormal.  As |R| <= B,
      |m| + S <= (1 + gamma_{d+1} + rel) B + 11 d eta < 2 B + 11 d eta for d
      below 4 million.  The float32 surplus, 2 (gamma_{d+6} - gamma_{d+1}) B
      >= 10 2^-24 B, and the absolute one, 2 d eta >= eta + 11 2^-24 d eta,
      cover that: no candidate's R exceeds the rounded threshold.
    * Fallback: a row whose B is not finite (an inf or NaN in the row or the
      codebook), or exceeds 2^126, recomputes every code.  Below 2^126 no
      float32 product, partial sum or threshold exceeds 2 B < float32's
      largest value; above it, 2 x.c can overflow to +-inf or NaN and rank
      the nearest code anywhere.

    Among a row's candidates the first NaN wins if there is one, else the
    first minimum, as argmin decides.
    """
    k, d = entries.shape
    with np.errstate(invalid="ignore", over="ignore"):
        c_sq = np.einsum("kd,kd->k", entries, entries)  # float32, within gamma_d |c|^2 + 2 d eta of |c|^2
        minus_2c = np.float32(-2.0) * entries  # exact: scaling by -2 does not round
    grow = 1.0 / (1.0 - _gamma(d, _F32_ROUNDOFF))  # |v|^2 <= (float32 sum of squares + 2 d eta) * grow
    # an overflowed or NaN sum gives every row a non-finite B
    c_norm = np.sqrt((float(c_sq.max()) + 2 * d * _ETA) * grow)
    rel = 2.0 * (_gamma(d + 6, _F32_ROUNDOFF) + _gamma(d + 4, _F64_ROUNDOFF))
    n = x.shape[0]
    indices = np.empty(n, dtype=np.int64)
    dists = np.empty(n, dtype=np.float64)
    for start in range(0, n, _BLOCK):
        block = x[start:start + _BLOCK]
        rows = np.arange(block.shape[0])
        with np.errstate(invalid="ignore", over="ignore"):
            x_sq = np.einsum("nd,nd->n", block, block).astype(np.float64)
            bound = (np.sqrt((x_sq + 2 * d * _ETA) * grow) + c_norm) ** 2
            ranked = block @ minus_2c.T
            ranked += c_sq
            cols = ranked.argmin(axis=1)
            threshold = (ranked[rows, cols] + (rel * bound + 8 * d * _ETA)).astype(np.float32)
            cand = ranked <= threshold[:, None]
        full = ~(bound <= _F32_SAFE)  # also catches a NaN bound
        if full.any():
            cand[full] = True
        if np.count_nonzero(cand) == rows.shape[0]:  # each row keeps only its float32 minimum
            direct = _sq_dists(block, entries[cols])
        else:
            rows, cols = np.divmod(np.flatnonzero(cand), k)
            direct = _direct_sq_dists(block, entries, rows, cols)
            firsts = np.flatnonzero(np.diff(rows, prepend=-1))  # each row has at least one candidate
            best = np.minimum.reduceat(direct, firsts)  # NaN if the row has a NaN
            hit = np.flatnonzero((direct == best[rows]) | np.isnan(direct))
            hit = hit[np.diff(rows[hit], prepend=-1) != 0]  # each row's first minimum, or first NaN
            cols, direct = cols[hit], direct[hit]
        indices[start:start + _BLOCK], dists[start:start + _BLOCK] = cols, direct
    return indices, dists


# ---------------------------------------------------------------------------
# Cascade forward
# ---------------------------------------------------------------------------


@dataclass
class BatchTrace:
    """Vectorized trace over a batch of embeddings; row r's level-i code is q.codebooks[i].value[indices[i, r]]."""

    input: np.ndarray    # (n, d)
    indices: np.ndarray  # (H, n) int64
    sq_dists: np.ndarray  # (H, n) float64
    fused: np.ndarray    # (n, d)


def _code_paths(q: CascadedQuantizer):
    """Per level-1 code: its path (H, k1), its level-2+ squared distances (H-1, k1), the parent maps.

    Level i+1 searches with a row of codebook i, so all three are functions of the level-1 code.
    """
    k1, h = q.level_sizes[0], q.depth
    paths, dists, parents = np.empty((h, k1), dtype=np.int64), np.empty((h - 1, k1), dtype=np.float64), []
    paths[0] = np.arange(k1)
    for i in range(h - 1):
        parent, d2 = _nearest(q.codebooks[i + 1].value, q.codebooks[i].value)
        paths[i + 1], dists[i] = parent[paths[i]], d2[paths[i]]
        parents.append(parent)
    return paths, dists, parents


def _level1(q: CascadedQuantizer, x: np.ndarray):
    """The level-1 search of float32 rows x: (code indices, squared distances)."""
    if x.shape[1] != q.dim:
        raise DimensionError(f"input dim {x.shape[1]} != quantizer dim {q.dim}")
    return _nearest(q.codebooks[0].value, x)


def quantize_batch(q: CascadedQuantizer, x: np.ndarray) -> BatchTrace:
    """Run the cascade for every row of x; level i>1 searches with the level-(i-1) code.

    Rows are searched at level 1; the rest is gathered from per-code tables,
    so no row's result depends on the other rows of the call.
    """
    x = np.asarray(x, dtype=np.float32)
    j1, d1 = _level1(q, x)
    paths, dists, _ = _code_paths(q)
    codes = np.stack([cb.value[row] for cb, row in zip(q.codebooks, paths)])  # (H, k1, d)
    return BatchTrace(input=x, indices=np.take(paths, j1, axis=1),
                      sq_dists=np.concatenate([d1[None, :], np.take(dists, j1, axis=1)]),
                      fused=x + np.float32(q.alpha) * codes.mean(axis=0)[j1])


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def batch_cage_loss_sum(trace: BatchTrace, rows: np.ndarray, beta: float) -> float:
    """Sum of per-occurrence l_cage = l_quant + beta * l_commit (float64); occurrence k is trace row rows[k].

    Both penalties are sums of the same per-level squared distances; they
    differ only in which side the gradient reaches (see ste_backward_batch).
    The (H, n) distances of the occurrences are summed in C order.
    """
    return float(np.take(trace.sq_dists, rows, axis=1).sum()) * (1.0 + beta)


# ---------------------------------------------------------------------------
# Straight-through backward
# ---------------------------------------------------------------------------


def ste_backward_batch(q: CascadedQuantizer, trace: BatchTrace, grad_z: np.ndarray, rows: np.ndarray,
                       weight_cage: float = 1.0):
    """Straight-through routing for a batch; pure, the caller scatters the results.

    Occurrence k has gradient grad_z[k] and trace row rows[k], so a row that
    occurs several times is routed once.  Returns (grad_e (n, d), code_grads
    (H, n_trace, d)): each occurrence's input gradient and each trace row's
    selected codebook row gradient per level.  Routing:

    * task path: fused = x + alpha * mean(codes), and each code term passes
      straight through to the input, so the input gets (1 + alpha) * grad_z;
      codebook rows get nothing from it.
    * quantization penalty (x weight_cage): each selected row is pulled
      toward its (detached) level input.
    * commitment penalty (x weight_cage * beta): each level input is pulled
      toward its (detached) code, and that pull rides the straight-through
      chain down to the input embedding, added level by level.

    The commitment terms telescope: level i adds 2 wb (c_{i-1} - c_i), with
    c_0 = x and wb = weight_cage * beta, so they sum to 2 wb (x - c_H) and
    grad_e = (1 + alpha) grad_z + 2 wb (x - c_H) up to float32 rounding.
    The commitment pulls an embedding toward its coarsest code, not its
    nearest one.
    """
    grad_z = np.asarray(grad_z, dtype=np.float32)
    grad_e = (np.float32(1.0) + np.float32(q.alpha)) * grad_z

    w = np.float32(weight_cage)
    wb = np.float32(weight_cage * q.beta)
    code_grads = np.empty((q.depth,) + trace.input.shape, dtype=np.float32)
    prev = trace.input
    for i in range(q.depth):
        c = q.codebooks[i].value[trace.indices[i]]
        code_grads[i] = w * np.float32(2.0) * (c - prev)
        grad_e += (wb * np.float32(2.0) * (prev - c))[rows]
        prev = c
    return grad_e, code_grads


# ---------------------------------------------------------------------------
# Tree extraction and diagnostics
# ---------------------------------------------------------------------------


@dataclass
class CategoryTree:
    """Frozen post-training assignments: entity paths plus level-to-level parents."""

    level_sizes: list            # [v1, ..., vH]
    paths: np.ndarray            # (n_entities, H) int64
    parents: list                # parents[i][a] = parent at level i+2 of code a at level i+1

    @property
    def depth(self) -> int:
        return len(self.level_sizes)

    @property
    def n_entities(self) -> int:
        return self.paths.shape[0]


def extract_tree(q: CascadedQuantizer, embeddings: np.ndarray) -> CategoryTree:
    """Freeze the current nearest-code assignments into a tree.

    An entity's path is its level-1 code's path in the per-code table, as in
    quantize_batch, and the parent maps come from the same table.
    """
    embeddings = np.asarray(embeddings, dtype=np.float32)
    if embeddings.ndim != 2 or embeddings.shape[0] == 0:
        raise ValueError("need a nonempty (n, d) embedding matrix")
    j1, _ = _level1(q, embeddings)
    paths, _, parents = _code_paths(q)
    return CategoryTree(level_sizes=q.level_sizes, paths=paths[:, j1].T, parents=parents)


def codebook_utilization(trace: BatchTrace, q: CascadedQuantizer) -> list:
    """Per level, the fraction of codes selected at least once in the batch."""
    if trace.indices.shape[1] == 0:
        raise ValueError("empty batch")
    per_level = [np.unique(trace.indices[i]).size for i in range(q.depth)]
    return [used / size for used, size in zip(per_level, q.level_sizes)]


def label_nmi(codes, labels) -> float:
    """Normalized mutual information 2 I / (H(codes) + H(labels)) of two partitions of the same entities.

    Only which entries are equal matters, so relabelling either side keeps the value.  Float64 terms
    from one contingency table, each sum correctly rounded (math.fsum), so the value is symmetric and
    a relabelled identical partition gives exactly 1.0; two constant partitions give 1.0, and the
    result is clipped to [0, 1].
    """
    codes, labels = np.asarray(codes), np.asarray(labels)
    if codes.ndim != 1 or codes.shape != labels.shape or codes.size == 0:
        raise ValueError(f"need two nonempty 1-D sequences of one length, got {codes.shape} and {labels.shape}")
    a, b = (np.unique(v, return_inverse=True)[1] for v in (codes, labels))
    n, a_n, b_n = a.size, np.bincount(a), np.bincount(b)
    cells, joint = np.unique(a * b_n.size + b, return_counts=True)
    mi = math.fsum(joint / n * np.log(n * joint / (a_n[cells // b_n.size] * b_n[cells % b_n.size])))
    h = math.fsum(a_n / n * np.log(n / a_n)) + math.fsum(b_n / n * np.log(n / b_n))
    return 1.0 if h == 0 else min(max(2.0 * mi / h, 0.0), 1.0)
