"""Three ID-only recommenders with optional cascaded-quantizer integration.

* CfModel: pairwise-ranking matrix factorization (BPR).
* CtrModel: pointwise MLP scorer over concatenated user/item vectors.
* SeqModel: mean-pool next-item predictor with per-level tree-classification
  heads driven by the quantizer's code indices as pseudo-labels.

Each ``*_step`` function runs forward + backward over a mini-batch and applies
the model's Adam optimizer.  With the quantizers absent (or alpha, omega_q,
omega_c all zero) every model degrades bit-exactly to its plain backbone.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .core import (Adam, Parameter, bce_with_logits_batch, mlp_apply,
                   mlp_backward, mlp_init, softmax_xent_batch)
from .errors import DimensionError
from .quantizer import (BatchTrace, CascadedQuantizer, _fuse_batch, batch_cage_loss_sum,
                        quantize_batch, ste_backward_batch)
from .rng import SeededRng, rng_normal_init


@dataclass
class EmbeddingTable:
    count: int
    dim: int
    rows: Parameter
    role: str

    @classmethod
    def create(cls, rng: SeededRng, count: int, dim: int, role: str, init_std: float = 0.01):
        values = rng_normal_init(rng, count, dim, init_std, name=f"init/{role}_table")
        return cls(count=count, dim=dim, rows=Parameter(values, name=f"{role}_table"), role=role)


def _check_indices(idx: np.ndarray, limit: int, what: str):
    idx = np.asarray(idx)
    if idx.size and (idx.min() < 0 or idx.max() >= limit):
        raise IndexError(f"{what} index out of range [0, {limit})")
    return idx.astype(np.int64).reshape(-1)


def _gather_rows(cage: CascadedQuantizer, full: BatchTrace, idx: np.ndarray):
    """Rows idx of a trace, fused exactly as quantize_batch fuses them.

    The search is row-independent, so its results can be gathered from a pass
    over any superset of the rows.  Fusion is redone on the gathered rows
    because concat-project fusion is a GEMM whose last bits depend on the
    number of rows.
    """
    # np.take keeps the C layout that whole-trace reductions such as
    # batch_cage_loss_sum sum in; full.sq_dists[:, idx] would come out F-ordered
    trace = BatchTrace(input=full.input[idx], indices=np.take(full.indices, idx, axis=1),
                       codes=np.take(full.codes, idx, axis=1), sq_dists=np.take(full.sq_dists, idx, axis=1))
    _fuse_batch(trace, cage)
    return trace.fused, trace


def _check_topk(candidates, n_items: int, k: int) -> np.ndarray:
    candidates = _check_indices(np.asarray(candidates), n_items, "item")
    if candidates.size == 0:
        raise ValueError("candidates must be nonempty")
    if k < 1:
        raise ValueError("k must be >= 1")
    return candidates


_SCATTER_ROWS = 256  # rows per flat scatter chunk; bounds the flat index array


def _scatter_rows(grad: np.ndarray, idx: np.ndarray, values: np.ndarray) -> None:
    """grad[idx[r]] += values[r] for every r in order, repeats included.

    A 1-D np.add.at on flat element indices, _SCATTER_ROWS rows at a time.
    Each element receives its contributions in the same row order as the 2-D
    np.add.at(grad, idx, values), so the sums are bit-identical.
    """
    if not grad.flags.c_contiguous:
        raise ValueError("gradient buffer must be C-contiguous")  # else reshape would copy
    d = grad.shape[1]
    flat = grad.reshape(-1)
    cols = np.arange(d, dtype=np.int64)
    for start in range(0, idx.shape[0], _SCATTER_ROWS):
        rows = idx[start:start + _SCATTER_ROWS]
        np.add.at(flat, (rows[:, None] * d + cols).reshape(-1),
                  values[start:start + _SCATTER_ROWS].reshape(-1))


def _route(cage: CascadedQuantizer | None, table: EmbeddingTable, idx: np.ndarray,
           trace: BatchTrace | None, grad_z: np.ndarray, scale: float) -> float:
    """Scatter one side's gradient into its parameters; returns the side's summed l_cage.

    With a quantizer, grad_z is first routed by ste_backward_batch, its
    penalties weighted by scale.  trace holds one row per occurrence in idx,
    so each occurrence contributes once, in order.  Every gradient scatter of
    a step is here.
    """
    if cage is None:
        _scatter_rows(table.rows.grad, idx, grad_z)
        return 0.0
    grad_e, code_grads, grad_proj = ste_backward_batch(cage, trace, grad_z, weight_cage=scale)
    _scatter_rows(table.rows.grad, idx, grad_e)
    if grad_proj is not None:
        cage.projection.grad += grad_proj
    if scale != 0.0:
        for cb, rows, grad in zip(cage.codebooks, trace.indices, code_grads):
            _scatter_rows(cb.entries.grad, rows, grad)
    return batch_cage_loss_sum(trace, cage.beta)


def _values(layers) -> list:
    """(weight, bias) arrays of (weight, bias) Parameter pairs, as mlp_apply takes them."""
    return [(w.value, b.value) for w, b in layers]


def _rank(candidates: np.ndarray, scores: np.ndarray, k: int):
    """Descending score, ties by ascending candidate index."""
    order = np.lexsort((candidates, -scores.astype(np.float64)))
    return [int(c) for c in candidates[order[:k]]]


class _Model:
    """ID tables, each with an optional quantizer, plus the backbone's own layers.

    A subclass sets its tables and quantizers, then calls this constructor,
    which checks them and builds the Adam optimizer over parameters().
    """

    _frozen = None  # table role -> whole-table BatchTrace, only inside frozen()

    def __init__(self, omega_q: float, lr: float):
        if omega_q < 0:
            raise ValueError("omega_q must be >= 0")
        for table, cage in self.sides:
            if cage is not None and cage.dim != table.dim:
                raise DimensionError("quantizer dim does not match embedding dim")
        self.omega_q = float(omega_q)
        self.optimizer = Adam(self.parameters(), lr=lr)

    @property
    def sides(self) -> list:
        """(table, quantizer or None) for each ID table, users before items."""
        return [(self.users, self.user_cage), (self.items, self.item_cage)]

    def _layer_params(self) -> list:
        """(weight, bias) Parameter pairs of the backbone's own layers."""
        return []

    @property
    def n_items(self) -> int:
        return self.items.count

    def parameters(self) -> list:
        """Table rows, then the layers, then each quantizer's: the checkpoint payload order."""
        params = [table.rows for table, _ in self.sides]
        for w, b in self._layer_params():
            params.extend([w, b])
        for _, cage in self.sides:
            if cage is not None:
                params.extend(cage.parameters())
        return params

    def named_parameters(self) -> dict:
        return {p.name: p for p in self.parameters()}

    @contextlib.contextmanager
    def frozen(self):
        """Scope in which each quantized table is quantized once, on first use.

        Fused rows are sliced from that whole-table pass instead of running
        the cascade per call; results are bit-identical.  The weights must not
        change while the scope is open.  The tables are dropped on exit.
        """
        self._frozen = {}
        try:
            yield self
        finally:
            self._frozen = None

    def _fused_parts(self, cage: CascadedQuantizer | None, table: EmbeddingTable, parts):
        """(fused rows, trace) of table for each index array in parts.

        One cascade serves every part: inside frozen() a whole-table pass,
        outside it a pass over the distinct indices of all the parts.  Each
        part is gathered from it, one trace row per index, and fused at its
        own row count.
        """
        parts = [np.asarray(idx) for idx in parts]
        if cage is None:
            return [(table.rows.value[idx], None) for idx in parts]
        if self._frozen is None:
            uniq, inv = np.unique(np.concatenate(parts), return_inverse=True)
            full = quantize_batch(cage, table.rows.value[uniq])
            parts = np.split(inv, np.cumsum([idx.size for idx in parts])[:-1])
        else:
            if table.role not in self._frozen:
                self._frozen[table.role] = quantize_batch(cage, table.rows.value)
            full = self._frozen[table.role]
        return [_gather_rows(cage, full, idx) for idx in parts]

    def _fused_rows(self, cage: CascadedQuantizer | None, table: EmbeddingTable, idx):
        return self._fused_parts(cage, table, [idx])[0]

    def _update(self, routes, batch: int, layer_grads=()) -> float:
        """The tail of every step: apply the gradients and take one Adam step.

        layer_grads pairs each (weight, bias) of a layer with its gradients.
        routes holds one (quantizer, table, indices, trace, grad_z) per index
        array to route, in scatter order.  Returns the step's l_cage: the
        summed quantizer penalty divided by batch.
        """
        for (w, b), (gw, gb) in layer_grads:
            w.grad += gw
            b.grad += gb
        scale = self.omega_q / batch
        l_cage = sum(_route(*route, scale) for route in routes) / batch
        self.optimizer.step()
        return l_cage


# ---------------------------------------------------------------------------
# Collaborative filtering (BPR)
# ---------------------------------------------------------------------------


class CfModel(_Model):
    def __init__(self, users: EmbeddingTable, items: EmbeddingTable,
                 user_cage: CascadedQuantizer | None = None,
                 item_cage: CascadedQuantizer | None = None,
                 omega_q: float = 1.0, lr: float = 0.01):
        self.users = users
        self.items = items
        self.user_cage = user_cage
        self.item_cage = item_cage
        super().__init__(omega_q, lr)

    def fused_user(self, user_idx):
        return self._fused_rows(self.user_cage, self.users, user_idx)

    def fused_item(self, item_idx):
        return self._fused_rows(self.item_cage, self.items, item_idx)

    def predict_topk(self, user: int, candidates, k: int):
        candidates = _check_topk(candidates, self.n_items, k)
        z_u, _ = self.fused_user([user])
        z_c, _ = self.fused_item(candidates)
        scores = z_c @ z_u[0]
        return _rank(candidates, scores, k)


def cf_bpr_step(model: CfModel, users, pos_items, neg_items) -> dict:
    """One BPR step over a batch of (user, positive, negative) triples."""
    u = _check_indices(users, model.users.count, "user")
    p = _check_indices(pos_items, model.n_items, "item")
    n = _check_indices(neg_items, model.n_items, "item")
    if not (u.shape == p.shape == n.shape):
        raise DimensionError("triple arrays must have equal length")
    if np.any(p == n):
        raise ValueError("positive and negative item must differ")
    batch = u.shape[0]

    z_u, tr_u = model.fused_user(u)
    (z_p, tr_p), (z_n, tr_n) = model._fused_parts(model.item_cage, model.items, [p, n])

    margin = ((z_u * z_p).sum(axis=1) - (z_u * z_n).sum(axis=1)).astype(np.float64)
    l_rec = float(np.mean(np.logaddexp(0.0, -margin)))
    # d l_rec / d margin, including the 1/B of the mean
    dm = ((1.0 / (1.0 + np.exp(-margin)) - 1.0) / batch).astype(np.float32)[:, None]
    l_cage = model._update([(model.user_cage, model.users, u, tr_u, dm * (z_p - z_n)),
                            (model.item_cage, model.items, p, tr_p, dm * z_u),
                            (model.item_cage, model.items, n, tr_n, -dm * z_u)], batch)
    return {"l_rec": l_rec, "l_cage": l_cage, "l_total": l_rec + model.omega_q * l_cage}


# ---------------------------------------------------------------------------
# CTR prediction (pointwise MLP)
# ---------------------------------------------------------------------------


class CtrModel(_Model):
    def __init__(self, users: EmbeddingTable, items: EmbeddingTable, mlp_params: list,
                 user_cage: CascadedQuantizer | None = None,
                 item_cage: CascadedQuantizer | None = None,
                 omega_q: float = 1.0, lr: float = 0.001):
        if mlp_params[0][0].value.shape[0] != 2 * items.dim:
            raise DimensionError("MLP input width must be 2 * embedding dim")
        self.users = users
        self.items = items
        self.mlp_params = mlp_params  # list of (Parameter W, Parameter b)
        self.user_cage = user_cage
        self.item_cage = item_cage
        super().__init__(omega_q, lr)

    def _layer_params(self) -> list:
        return self.mlp_params

    def score(self, user_idx, item_idx):
        """Logits for aligned (user, item) index arrays, plus traces and tape."""
        z_u, tr_u = self._fused_rows(self.user_cage, self.users, user_idx)
        z_i, tr_i = self._fused_rows(self.item_cage, self.items, item_idx)
        x = np.concatenate([z_u, z_i], axis=1)
        logits, tape = mlp_apply(_values(self.mlp_params), x)
        return logits[:, 0], tr_u, tr_i, tape

    def predict_topk(self, user: int, candidates, k: int):
        candidates = _check_topk(candidates, self.n_items, k)
        users = np.full(candidates.shape, user, dtype=np.int64)
        scores, _, _, _ = self.score(users, candidates)
        return _rank(candidates, scores, k)


def ctr_step(model: CtrModel, users, items, labels) -> dict:
    """One pointwise BCE step over a batch of labelled (user, item) pairs."""
    u = _check_indices(users, model.users.count, "user")
    i = _check_indices(items, model.n_items, "item")
    y = np.asarray(labels).reshape(-1)
    if not (u.shape == i.shape == y.shape):
        raise DimensionError("batch arrays must have equal length")
    batch = u.shape[0]

    logits, tr_u, tr_i, tape = model.score(u, i)
    losses, grad_logit = bce_with_logits_batch(logits, y)
    l_rec = float(losses.mean())
    grad_out = (grad_logit / batch)[:, None]

    param_grads, grad_x = mlp_backward(tape, grad_out)
    d = model.items.dim
    l_cage = model._update([(model.user_cage, model.users, u, tr_u, grad_x[:, :d]),
                            (model.item_cage, model.items, i, tr_i, grad_x[:, d:])],
                           batch, zip(model.mlp_params, param_grads))
    return {"l_rec": l_rec, "l_cage": l_cage, "l_total": l_rec + model.omega_q * l_cage}


# ---------------------------------------------------------------------------
# List completion (mean-pool next-item predictor)
# ---------------------------------------------------------------------------


class SeqModel(_Model):
    def __init__(self, items: EmbeddingTable, encoder_params: list,
                 item_cage: CascadedQuantizer | None = None,
                 tree_heads: list | None = None,
                 omega_c: float = 1.0, omega_q: float = 1.0, lr: float = 0.001):
        self.items = items
        self.encoder_params = encoder_params
        self.item_cage = item_cage
        self.tree_heads = tree_heads or []
        if item_cage is not None:
            if len(self.tree_heads) != item_cage.depth:
                raise DimensionError("need one tree head per quantizer level")
            for (w, _), size in zip(self.tree_heads, item_cage.level_sizes):
                if w.value.shape != (items.dim, size):
                    raise DimensionError(f"tree head width {w.value.shape[1]} != codebook size {size}")
        self.omega_c = float(omega_c)
        super().__init__(omega_q, lr)

    @property
    def sides(self) -> list:
        return [(self.items, self.item_cage)]

    def _layer_params(self) -> list:
        return self.encoder_params + self.tree_heads

    def encode(self, prefixes):
        """Mean-pooled fused prefix embeddings through the encoder MLP.

        Returns (prediction vectors (B, d), flat item index array, segment
        lengths, flat batch trace or None, encoder tape).
        """
        if any(len(p) == 0 for p in prefixes):
            raise ValueError("prefixes must be nonempty")
        lens = np.array([len(p) for p in prefixes], dtype=np.int64)
        flat = _check_indices(np.concatenate([np.asarray(p) for p in prefixes]), self.n_items, "item")
        z_all, trace = self._fused_rows(self.item_cage, self.items, flat)
        starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
        pooled = np.add.reduceat(z_all.astype(np.float64), starts, axis=0) / lens[:, None]
        z_bar, tape = mlp_apply(_values(self.encoder_params), pooled.astype(np.float32))
        return z_bar, flat, lens, trace, tape

    def predict_completion(self, prefix, k: int, exclude=()):
        if len(prefix) == 0:
            raise ValueError("prefix must be nonempty")
        exclude = set(int(e) for e in exclude)
        if k > self.n_items - len(exclude):
            raise ValueError(f"k={k} exceeds the {self.n_items - len(exclude)} rankable items")
        z_bar, _, _, _, _ = self.encode([list(prefix)])
        scores = (z_bar[0] @ self.items.rows.value.T).astype(np.float64)
        if exclude:
            scores[list(exclude)] = -np.inf
        return _rank(np.arange(self.n_items, dtype=np.int64), scores, k)


def seq_step(model: SeqModel, prefixes, targets) -> dict:
    """One step of next-item prediction with auxiliary tree classification.

    The target's code indices (recomputed from its current raw embedding,
    detached) act as per-level classification labels.
    """
    t = _check_indices(targets, model.n_items, "item")
    if len(prefixes) != t.shape[0]:
        raise DimensionError("prefixes and targets must align")
    batch = t.shape[0]

    z_bar, flat, lens, trace_pref, tape = model.encode(prefixes)
    table = model.items.rows.value

    logits = z_bar @ table.T
    item_losses, grad_logits = softmax_xent_batch(logits, t)
    l_item = float(item_losses.mean())
    grad_logits /= np.float32(batch)
    grad_zbar = grad_logits @ table
    model.items.rows.grad += grad_logits.T @ z_bar  # tied output projection

    l_tree = 0.0
    trace_t = None
    if model.item_cage is not None:
        _, trace_t = model._fused_rows(model.item_cage, model.items, t)
        h = model.item_cage.depth
        head_scale = np.float32(model.omega_c / (h * batch))
        tree_total = 0.0
        for level, (w, b) in enumerate(model.tree_heads):
            head_logits = z_bar @ w.value + b.value[None, :]
            losses, grads = softmax_xent_batch(head_logits, trace_t.indices[level])
            tree_total += float(losses.sum())
            grads = grads * head_scale
            w.grad += z_bar.T @ grads
            b.grad += grads.sum(axis=0)
            grad_zbar = grad_zbar + grads @ w.value.T
        l_tree = tree_total / (h * batch)

    param_grads, grad_x = mlp_backward(tape, grad_zbar)
    grad_pref = np.repeat(grad_x / lens[:, None].astype(np.float32), lens, axis=0)
    routes = [(model.item_cage, model.items, flat, trace_pref, grad_pref)]
    if model.item_cage is not None:
        # target trace: quantizer penalties only, no task gradient
        routes.append((model.item_cage, model.items, t, trace_t, np.zeros_like(trace_t.input)))
    l_cage = model._update(routes, batch, zip(model.encoder_params, param_grads))
    l_rec = l_item + model.omega_c * l_tree
    return {"l_item": l_item, "l_tree": l_tree, "l_rec": l_rec, "l_cage": l_cage,
            "l_total": l_rec + model.omega_q * l_cage}


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def make_tree_heads(rng: SeededRng, dim: int, sizes) -> list:
    heads = []
    gen = rng.stream("init/tree_heads")
    for i, v in enumerate(sizes, start=1):
        std = float(np.sqrt(2.0 / dim))
        w = Parameter(gen.normal(0.0, std, size=(dim, v)).astype(np.float32), name=f"tree_head{i}.weight")
        b = Parameter(np.zeros(v, dtype=np.float32), name=f"tree_head{i}.bias")
        heads.append((w, b))
    return heads


def make_mlp_params(rng: SeededRng, sizes, name: str) -> list:
    layers = mlp_init(rng.stream(f"init/{name}"), sizes)
    return [
        (Parameter(w, name=f"{name}.layer{i}.weight"), Parameter(b, name=f"{name}.layer{i}.bias"))
        for i, (w, b) in enumerate(layers)
    ]
