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

# Bytes of float64 differences per distance block (2 MiB).  On a Xeon with
# 2 MiB of L2 cache per core, at 256 codes x 64 dims, such blocks cost about
# 35 us per row, while 2048-row blocks (268 MB) cost 60-80 us, so one pass
# over a whole table costs no more per row than many small batches.  Rows
# never interact, so the block size leaves every distance bit-identical.
_BLOCK_BYTES = 1 << 21


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


def _sq_dists(entries: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Exact squared L2 distances, float64-accumulated; x is (n, d)."""
    out = np.empty((x.shape[0], entries.shape[0]), dtype=np.float64)
    rows = max(1, _BLOCK_BYTES // (8 * entries.size))
    for start in range(0, x.shape[0], rows):
        block = x[start:start + rows]
        diff = block[:, None, :].astype(np.float64) - entries[None, :, :].astype(np.float64)
        out[start:start + rows] = np.einsum("nkd,nkd->nk", diff, diff)
    return out


def nearest_code(codebook: Codebook, e: np.ndarray):
    """Exhaustive argmin over squared L2 distance; ties go to the lowest index."""
    e = np.asarray(e, dtype=np.float32).reshape(-1)
    if e.shape[0] != codebook.dim:
        raise DimensionError(f"query dim {e.shape[0]} != codebook dim {codebook.dim}")
    d2 = _sq_dists(codebook.entries.value, e[None, :])[0]
    j = int(np.argmin(d2))  # argmin returns the first minimum
    return j, codebook.entries.value[j].copy(), float(d2[j])


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
        d2 = _sq_dists(cb.entries.value, cur)
        j = d2.argmin(axis=1)
        indices[i] = j
        codes[i] = cb.entries.value[j]
        dists[i] = d2[np.arange(n), j]
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


def fuse_codes(trace: QuantizationTrace, q: CascadedQuantizer) -> np.ndarray:
    """Combine the multi-level codes and add them residually to the input."""
    if len(trace.codes) != q.depth:
        raise DimensionError("trace is incomplete for this quantizer")
    pooled = np.mean(np.stack(trace.codes), axis=0)
    trace.pooled = pooled.astype(np.float32)
    if q.fusion_mode == AVERAGE:
        z = trace.input + np.float32(q.alpha) * trace.pooled
    else:
        if q.projection is None:
            raise ConfigError("concat-project fusion requires a projection parameter")
        concat = np.concatenate(trace.codes)
        z = trace.input + np.float32(q.alpha) * (concat @ q.projection.value)
    trace.fused = z.astype(np.float32)
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
    """Gradient routing for one trace.

    Returns (grad_e, code_grads, grad_projection) where code_grads maps
    (level, row index) to the gradient for that codebook row.  Routing:

    * task path: the residual plus the straight-through pass of every code
      term reaches the input; codebook rows get nothing from it.  In
      concat-project mode the projection gets its exact gradient.
    * quantization penalty (x weight_cage): each selected row is pulled
      toward its (detached) level input.
    * commitment penalty (x weight_cage * beta): each level input is pulled
      toward its (detached) code, and that pull rides the straight-through
      chain down to the input embedding.
    """
    grad_z = np.asarray(grad_z, dtype=np.float32).reshape(-1)
    if grad_z.shape[0] != q.dim:
        raise DimensionError("grad_z dim mismatch")
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
        g = w * np.float32(2.0) * (c - prev)
        code_grads[key] = code_grads.get(key, 0.0) + g
        grad_e = grad_e + wb * np.float32(2.0) * (prev - c)
        prev = c
    return grad_e, code_grads, grad_proj


def ste_backward_batch(q: CascadedQuantizer, trace: BatchTrace, grad_z: np.ndarray,
                       weight_cage: float = 1.0, accumulate: bool = True) -> np.ndarray:
    """Batched routing; accumulates codebook/projection grads in place.

    Returns the gradient w.r.t. the input embeddings, shape (n, d).
    """
    grad_z = np.asarray(grad_z, dtype=np.float32)
    n, h = trace.input.shape[0], q.depth
    alpha = np.float32(q.alpha)

    if q.fusion_mode == AVERAGE:
        grad_e = (np.float32(1.0) + alpha) * grad_z
    else:
        concat = trace.codes.transpose(1, 0, 2).reshape(n, -1)
        if accumulate:
            q.projection.grad += alpha * (concat.T @ grad_z)
        chunks = (alpha * (grad_z @ q.projection.value.T)).reshape(n, h, q.dim)
        grad_e = grad_z + chunks.sum(axis=1)

    w = np.float32(weight_cage)
    wb = np.float32(weight_cage * q.beta)
    prev = trace.input
    for i, cb in enumerate(q.codebooks):
        c = trace.codes[i]
        if accumulate and weight_cage != 0.0:
            np.add.at(cb.entries.grad, trace.indices[i], w * np.float32(2.0) * (c - prev))
        grad_e = grad_e + wb * np.float32(2.0) * (prev - c)
        prev = c
    return grad_e


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


def extract_tree(q: CascadedQuantizer, embeddings: np.ndarray, keep_codes: bool = True) -> CategoryTree:
    """Freeze the current nearest-code assignments into a tree."""
    embeddings = np.asarray(embeddings, dtype=np.float32)
    if embeddings.ndim != 2 or embeddings.shape[0] == 0:
        raise ValueError("need a nonempty (n, d) embedding matrix")
    trace = quantize_batch(q, embeddings)
    paths = trace.indices.T.copy()
    parents = []
    for i in range(q.depth - 1):
        lower = q.codebooks[i].entries.value
        d2 = _sq_dists(q.codebooks[i + 1].entries.value, lower)
        parents.append(d2.argmin(axis=1).astype(np.int64))
    codes = [cb.entries.value.copy() for cb in q.codebooks] if keep_codes else None
    return CategoryTree(level_sizes=q.level_sizes, paths=paths, parents=parents, codes=codes)


def codebook_utilization(traces, q: CascadedQuantizer) -> list:
    """Per level, the fraction of codes selected at least once in the batch."""
    if isinstance(traces, BatchTrace):
        per_level = [np.unique(traces.indices[i]).size for i in range(q.depth)]
        if traces.indices.shape[1] == 0:
            raise ValueError("empty batch")
    else:
        traces = list(traces)
        if not traces:
            raise ValueError("empty batch")
        per_level = [len({t.indices[i] for t in traces}) for i in range(q.depth)]
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
