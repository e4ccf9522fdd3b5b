"""Cascaded vector quantization with straight-through gradient routing.

A stack of fine-to-coarse codebooks turns an entity embedding into a path of
code indices (one per level).  The chosen codes are fused back into the
embedding through a weighted residual, and two quadratic penalties keep codes
and embeddings attached to each other.  After training, the frozen
nearest-neighbour assignments form a category tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Parameter
from .errors import ConfigError, DimensionError
from .rng import SeededRng, rng_normal_init

AVERAGE = "average"
CONCAT_PROJECT = "concat-project"

_BLOCK = 1024  # rows per nearest-code search block; memory is O(block x codes)
_PAIRS = 4096  # (row, code) pairs per direct recomputation chunk
_UNIT_ROUNDOFF = 2.0 ** -53


@dataclass
class Codebook:
    """One tree level: a (size x dim) matrix of learnable code vectors."""

    level: int
    entries: Parameter

    @property
    def size(self) -> int:
        return self.entries.value.shape[0]

    @property
    def dim(self) -> int:
        return self.entries.value.shape[1]


@dataclass
class CascadedQuantizer:
    codebooks: list
    alpha: float = 1.0
    beta: float = 1.0
    fusion_mode: str = AVERAGE
    projection: Parameter | None = None

    def __post_init__(self):
        if not self.codebooks:
            raise ConfigError("need at least one codebook")
        sizes = [cb.size for cb in self.codebooks]
        if any(a <= b for a, b in zip(sizes, sizes[1:])):
            raise ConfigError(f"codebook sizes must be strictly decreasing, got {sizes}")
        if self.alpha < 0 or self.beta < 0:
            raise ConfigError("alpha and beta must be >= 0")
        if self.fusion_mode not in (AVERAGE, CONCAT_PROJECT):
            raise ConfigError(f"unknown fusion mode {self.fusion_mode!r}")
        if self.fusion_mode == CONCAT_PROJECT:
            if self.projection is None:
                raise ConfigError("concat-project fusion requires a projection parameter")
            d = self.codebooks[0].dim
            want = (len(self.codebooks) * d, d)
            if self.projection.value.shape != want:
                raise DimensionError(f"projection shape {self.projection.value.shape} != {want}")

    @property
    def depth(self) -> int:
        return len(self.codebooks)

    @property
    def dim(self) -> int:
        return self.codebooks[0].dim

    @property
    def level_sizes(self) -> list:
        return [cb.size for cb in self.codebooks]

    def parameters(self) -> list:
        params = [cb.entries for cb in self.codebooks]
        if self.projection is not None:
            params.append(self.projection)
        return params


def make_quantizer(rng: SeededRng, dim: int, sizes, alpha: float = 1.0, beta: float = 1.0,
                   fusion_mode: str = AVERAGE, name: str = "cage", init_std: float = 0.01) -> CascadedQuantizer:
    """Build a quantizer with normally initialized codebooks."""
    books = []
    for i, v in enumerate(sizes, start=1):
        entries = Parameter(rng_normal_init(rng, v, dim, init_std, name=f"init/{name}/codebook{i}"),
                            name=f"{name}.codebook{i}")
        books.append(Codebook(level=i, entries=entries))
    proj = None
    if fusion_mode == CONCAT_PROJECT:
        h = len(sizes)
        std = float(np.sqrt(2.0 / (h * dim)))
        proj = Parameter(rng_normal_init(rng, h * dim, dim, std, name=f"init/{name}/projection"),
                         name=f"{name}.projection")
    return CascadedQuantizer(codebooks=books, alpha=alpha, beta=beta, fusion_mode=fusion_mode, projection=proj)


# ---------------------------------------------------------------------------
# Nearest-code search
# ---------------------------------------------------------------------------


def _direct_sq_dists(x: np.ndarray, entries: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """sum((x[r] - entries[c])^2) per (r, c) pair: float64 differences, einsum over d."""
    out = np.empty(rows.shape[0], dtype=np.float64)
    for start in range(0, rows.shape[0], _PAIRS):
        diff = x[rows[start:start + _PAIRS]] - entries[cols[start:start + _PAIRS]]
        out[start:start + _PAIRS] = np.einsum("nd,nd->n", diff, diff)
    return out


def _nearest(entries: np.ndarray, x: np.ndarray):
    """Nearest code for every row of x: (int64 indices, float64 squared distances).

    Codes are ranked by |c|^2 - 2 x.c, one float64 GEMM per block of rows
    (|x|^2 is the same for every code of a row).  Up to that row constant,
    the GEMM value and the direct formula sum((x - c)^2) each lie within
    gamma_{d+2} (|x| + |c|)^2 of the exact squared distance (Higham, Accuracy
    and Stability of Numerical Algorithms, 3.1), so every code the direct
    formula could rank first lies within twice their sum of the row's GEMM
    minimum.  Those codes are recomputed with the direct formula and the
    lowest value wins, ties going to the lowest index; the returned distance
    is that direct value, so the result equals the argmin over the direct
    formula bit for bit.  A row whose bound is not finite (an inf or NaN in
    the row or the codebook) recomputes every code.  Inputs are float32, so
    no product of finite inputs overflows or underflows in float64.
    """
    c64 = entries.astype(np.float64)
    k, d = c64.shape
    c_sq = np.einsum("kd,kd->k", c64, c64)
    c_norm = np.sqrt(c_sq.max())
    m = d + 4  # gamma_{d+4} rather than gamma_{d+2} covers the rounding of the bound itself
    gamma = m * _UNIT_ROUNDOFF / (1.0 - m * _UNIT_ROUNDOFF)
    n = x.shape[0]
    indices = np.empty(n, dtype=np.int64)
    dists = np.empty(n, dtype=np.float64)
    for start in range(0, n, _BLOCK):
        block = x[start:start + _BLOCK].astype(np.float64)
        slack = 4.0 * gamma * (np.sqrt(np.einsum("nd,nd->n", block, block)) + c_norm) ** 2
        with np.errstate(invalid="ignore", over="ignore"):
            ranked = block @ c64.T
            ranked *= -2.0
            ranked += c_sq
            cand = ranked <= (ranked.min(axis=1) + slack)[:, None]
        cand[~np.isfinite(slack)] = True
        rows, cols = np.divmod(np.flatnonzero(cand), k)
        direct = ranked  # reuse the block's buffer; codes outside the bound stay +inf
        direct.fill(np.inf)
        direct[rows, cols] = _direct_sq_dists(block, c64, rows, cols)
        j = direct.argmin(axis=1)  # argmin returns the first minimum
        indices[start:start + _BLOCK] = j
        dists[start:start + _BLOCK] = direct[np.arange(j.shape[0]), j]
    return indices, dists


def nearest_code(codebook: Codebook, e: np.ndarray):
    """Exhaustive argmin over squared L2 distance; ties go to the lowest index."""
    e = np.asarray(e, dtype=np.float32).reshape(-1)
    if e.shape[0] != codebook.dim:
        raise DimensionError(f"query dim {e.shape[0]} != codebook dim {codebook.dim}")
    j, d2 = _nearest(codebook.entries.value, e[None, :])
    j = int(j[0])
    return j, codebook.entries.value[j].copy(), float(d2[0])


# ---------------------------------------------------------------------------
# Cascade forward
# ---------------------------------------------------------------------------


@dataclass
class QuantizationTrace:
    """Everything one embedding produced in a single cascade pass."""

    input: np.ndarray           # c^(0) = e
    indices: list               # chosen index per level
    codes: list                 # chosen code vector per level
    sq_dists: list              # squared distance per level
    pooled: np.ndarray = None   # average of the chosen codes
    fused: np.ndarray = None    # z


@dataclass
class BatchTrace:
    """Vectorized trace over a batch of embeddings."""

    input: np.ndarray    # (n, d)
    indices: np.ndarray  # (H, n) int64
    codes: np.ndarray    # (H, n, d)
    sq_dists: np.ndarray  # (H, n) float64
    pooled: np.ndarray = None
    fused: np.ndarray = None

    def row(self, i: int) -> QuantizationTrace:
        return QuantizationTrace(
            input=self.input[i],
            indices=[int(j) for j in self.indices[:, i]],
            codes=[self.codes[h, i] for h in range(self.codes.shape[0])],
            sq_dists=[float(d) for d in self.sq_dists[:, i]],
            pooled=None if self.pooled is None else self.pooled[i],
            fused=None if self.fused is None else self.fused[i],
        )


def quantize_batch(q: CascadedQuantizer, x: np.ndarray) -> BatchTrace:
    """Run the cascade for every row of x; level i>1 searches with the level-(i-1) code."""
    x = np.asarray(x, dtype=np.float32)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != q.dim:
        raise DimensionError(f"input dim {x.shape[1]} != quantizer dim {q.dim}")
    n, h = x.shape[0], q.depth
    indices = np.empty((h, n), dtype=np.int64)
    codes = np.empty((h, n, q.dim), dtype=np.float32)
    dists = np.empty((h, n), dtype=np.float64)
    cur = x
    for i, cb in enumerate(q.codebooks):
        indices[i], dists[i] = _nearest(cb.entries.value, cur)
        codes[i] = cb.entries.value[indices[i]]
        cur = codes[i]
    trace = BatchTrace(input=x, indices=indices, codes=codes, sq_dists=dists)
    _fuse_batch(trace, q)
    return trace


def quantize_cascade(q: CascadedQuantizer, e: np.ndarray) -> QuantizationTrace:
    """Single-embedding cascade pass (including fusion)."""
    return quantize_batch(q, np.asarray(e, dtype=np.float32)[None, :]).row(0)


def _fuse_batch(trace: BatchTrace, q: CascadedQuantizer) -> None:
    trace.pooled = trace.codes.mean(axis=0)
    if q.fusion_mode == AVERAGE:
        trace.fused = trace.input + np.float32(q.alpha) * trace.pooled
    else:
        if q.projection is None:
            raise ConfigError("concat-project fusion requires a projection parameter")
        n = trace.input.shape[0]
        concat = trace.codes.transpose(1, 0, 2).reshape(n, -1)  # (n, H*d)
        trace.fused = trace.input + np.float32(q.alpha) * (concat @ q.projection.value)


def _one_row(trace: QuantizationTrace, q: CascadedQuantizer) -> BatchTrace:
    """A QuantizationTrace as a 1-row BatchTrace, for the single-row views."""
    if len(trace.codes) != q.depth:
        raise DimensionError("trace is incomplete for this quantizer")
    return BatchTrace(input=np.asarray(trace.input, dtype=np.float32)[None, :],
                      indices=np.asarray(trace.indices, dtype=np.int64)[:, None],
                      codes=np.stack(trace.codes).astype(np.float32)[:, None, :],
                      sq_dists=np.asarray(trace.sq_dists, dtype=np.float64)[:, None])


def fuse_codes(trace: QuantizationTrace, q: CascadedQuantizer) -> np.ndarray:
    """Combine the multi-level codes and add them residually to the input."""
    batch = _one_row(trace, q)
    _fuse_batch(batch, q)
    trace.pooled, trace.fused = batch.pooled[0], batch.fused[0]
    return trace.fused


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


@dataclass
class CageLoss:
    l_quant: float
    l_commit: float
    l_cage: float


def cage_loss(trace: QuantizationTrace, beta: float) -> CageLoss:
    """Quantization and commitment penalties for one trace.

    Both are sums of the same per-level squared distances; they differ only in
    which side the gradient reaches (see ste_backward).
    """
    l_quant = float(np.sum(np.asarray(trace.sq_dists, dtype=np.float64)))
    l_commit = 0.0
    prev = trace.input.astype(np.float64)
    for c in trace.codes:
        c = c.astype(np.float64)
        l_commit += float(((prev - c) ** 2).sum())
        prev = c
    return CageLoss(l_quant=l_quant, l_commit=l_commit, l_cage=l_quant + beta * l_commit)


def batch_cage_loss_sum(trace: BatchTrace, beta: float) -> float:
    """Sum of per-row l_cage over a batch (float64)."""
    total = float(trace.sq_dists.sum())
    return total * (1.0 + beta)


# ---------------------------------------------------------------------------
# Straight-through backward
# ---------------------------------------------------------------------------


def ste_backward(trace: QuantizationTrace, q: CascadedQuantizer, grad_z: np.ndarray,
                 weight_cage: float = 1.0):
    """Gradient routing for one trace: ste_backward_batch on a 1-row batch.

    Returns (grad_e, code_grads, grad_projection) where code_grads maps
    (level, row index) to the gradient for that codebook row.
    """
    grad_z = np.asarray(grad_z, dtype=np.float32).reshape(-1)
    if grad_z.shape[0] != q.dim:
        raise DimensionError("grad_z dim mismatch")
    grad_e, code_grads, grad_proj = ste_backward_batch(q, _one_row(trace, q), grad_z[None, :], weight_cage)
    return grad_e[0], {(i + 1, int(j)): code_grads[i, 0] for i, j in enumerate(trace.indices)}, grad_proj


def ste_backward_batch(q: CascadedQuantizer, trace: BatchTrace, grad_z: np.ndarray,
                       weight_cage: float = 1.0):
    """Straight-through routing for a batch; pure, the caller scatters the results.

    Returns (grad_e (n, d), code_grads (H, n, d), grad_projection or None):
    the input gradient, each selected codebook row's gradient per level and
    row, and in concat-project mode the projection's gradient.  Routing:

    * task path: the residual plus the straight-through pass of every code
      term reaches the input; codebook rows get nothing from it.  In
      concat-project mode the projection gets its exact gradient.
    * quantization penalty (x weight_cage): each selected row is pulled
      toward its (detached) level input.
    * commitment penalty (x weight_cage * beta): each level input is pulled
      toward its (detached) code, and that pull rides the straight-through
      chain down to the input embedding.
    """
    grad_z = np.asarray(grad_z, dtype=np.float32)
    n, h = trace.input.shape[0], q.depth
    alpha = np.float32(q.alpha)
    grad_proj = None

    if q.fusion_mode == AVERAGE:
        grad_e = (np.float32(1.0) + alpha) * grad_z
    else:
        concat = trace.codes.transpose(1, 0, 2).reshape(n, -1)
        grad_proj = alpha * (concat.T @ grad_z)
        chunks = (alpha * (grad_z @ q.projection.value.T)).reshape(n, h, q.dim)
        grad_e = grad_z + chunks.sum(axis=1)

    w = np.float32(weight_cage)
    wb = np.float32(weight_cage * q.beta)
    code_grads = np.empty_like(trace.codes)
    prev = trace.input
    for i in range(h):
        c = trace.codes[i]
        code_grads[i] = w * np.float32(2.0) * (c - prev)
        grad_e = grad_e + wb * np.float32(2.0) * (prev - c)
        prev = c
    return grad_e, code_grads, grad_proj


# ---------------------------------------------------------------------------
# Tree extraction and diagnostics
# ---------------------------------------------------------------------------


@dataclass
class CategoryTree:
    """Frozen post-training assignments: entity paths plus level-to-level parents."""

    level_sizes: list            # [v1, ..., vH]
    paths: np.ndarray            # (n_entities, H) int64
    parents: list                # parents[i][a] = parent at level i+2 of code a at level i+1
    codes: list | None = None    # optional snapshot of the code vectors

    @property
    def depth(self) -> int:
        return len(self.level_sizes)

    @property
    def n_entities(self) -> int:
        return self.paths.shape[0]


def extract_tree(q: CascadedQuantizer, embeddings: np.ndarray) -> CategoryTree:
    """Freeze the current nearest-code assignments into a tree."""
    embeddings = np.asarray(embeddings, dtype=np.float32)
    if embeddings.ndim != 2 or embeddings.shape[0] == 0:
        raise ValueError("need a nonempty (n, d) embedding matrix")
    trace = quantize_batch(q, embeddings)
    paths = trace.indices.T.copy()
    parents = []
    for i in range(q.depth - 1):
        parents.append(_nearest(q.codebooks[i + 1].entries.value, q.codebooks[i].entries.value)[0])
    codes = [cb.entries.value.copy() for cb in q.codebooks]
    return CategoryTree(level_sizes=q.level_sizes, paths=paths, parents=parents, codes=codes)


def codebook_utilization(trace: BatchTrace, q: CascadedQuantizer) -> list:
    """Per level, the fraction of codes selected at least once in the batch."""
    if trace.indices.shape[1] == 0:
        raise ValueError("empty batch")
    per_level = [np.unique(trace.indices[i]).size for i in range(q.depth)]
    return [used / cb.size for used, cb in zip(per_level, q.codebooks)]


@dataclass
class PurityReport:
    spans: dict         # category label -> number of distinct level-1 codes it touches
    exclusive: int      # categories on exactly one code
    under_10: int
    under_20: int
    under_100: int
    total: int


def code_purity(level1_indices, labels) -> PurityReport:
    """How concentrated each true category is over the learned level-1 codes."""
    level1_indices = list(level1_indices)
    labels = list(labels)
    if len(level1_indices) != len(labels):
        raise ValueError(f"{len(level1_indices)} paths vs {len(labels)} labels")
    per_cat = {}
    for code, lab in zip(level1_indices, labels):
        per_cat.setdefault(lab, set()).add(int(code))
    spans = {lab: len(codes) for lab, codes in per_cat.items()}
    vals = list(spans.values())
    return PurityReport(
        spans=spans,
        exclusive=sum(1 for v in vals if v == 1),
        under_10=sum(1 for v in vals if v < 10),
        under_20=sum(1 for v in vals if v < 20),
        under_100=sum(1 for v in vals if v < 100),
        total=len(vals),
    )
