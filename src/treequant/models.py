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
                   mlp_backward, softmax_xent_batch)
from .errors import DimensionError, DivergenceError
from .quantizer import (BatchTrace, CascadedQuantizer, batch_cage_loss_sum, quantize_batch,
                        ste_backward_batch)
from .rng import SeededRng, normal_draw, rng_normal_init


@dataclass
class EmbeddingTable:
    rows: Parameter
    role: str

    @property
    def count(self) -> int:
        return self.rows.value.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.value.shape[1]

    @classmethod
    def create(cls, rng: SeededRng, count: int, dim: int, role: str, init_std: float = 0.01,
               stored: dict | None = None):
        """A drawn table, or the stored one."""
        name = f"{role}_table"
        rows = Parameter.made(name, (count, dim), lambda: rng_normal_init(rng, count, dim, init_std, f"init/{name}"),
                              stored)
        return cls(rows=rows, role=role)


def _check_indices(idx: np.ndarray, limit: int, what: str):
    idx = np.asarray(idx)
    if idx.size and idx.dtype.kind not in "iu":  # a float or bool id would be truncated, not refused
        raise IndexError(f"{what} indices must be integers, got {idx.dtype}")
    if idx.size and (idx.min() < 0 or idx.max() >= limit):
        raise IndexError(f"{what} index out of range [0, {limit})")
    return idx.astype(np.int64, copy=False).reshape(-1)


def _scatter_rows(grad: np.ndarray, idx: np.ndarray, values: np.ndarray) -> None:
    """grad[idx[r]] += values[r] for every r in order, repeats included.

    One 1-D np.add.at on flat element indices.  Each element receives its
    contributions in the same row order as the 2-D np.add.at(grad, idx,
    values), so the sums are bit-identical.  An even-width float32 row is
    added as complex64 pairs: half the elements, and a complex addition is
    one float32 addition per half, with the same rounding and signed zeros.
    """
    if not grad.flags.c_contiguous:
        raise ValueError("gradient buffer must be C-contiguous")  # else reshape would copy
    flat, values = grad.reshape(-1), np.ascontiguousarray(values, dtype=np.float32)
    if grad.shape[1] % 2 == 0:
        flat, values = flat.view(np.complex64), values.view(np.complex64)
    d = values.shape[1]
    flat_idx = (idx[:, None] * d + np.arange(d, dtype=np.int64)).reshape(-1)
    np.add.at(flat, flat_idx, values.reshape(-1))


def _joined(arrays: list) -> np.ndarray:
    """The arrays concatenated in order; a single array is returned as is, not copied."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _route(cage: CascadedQuantizer | None, table: EmbeddingTable, trace: BatchTrace | None, parts,
           scale: float) -> list:
    """Scatter one table's gradients into its parameters; returns each part's summed l_cage.

    parts holds one (indices, trace rows, grad_z) per index array, in order;
    their rows are joined, so each parameter takes one scatter in which every
    occurrence contributes once, in order.  With a quantizer, grad_z is first
    routed by ste_backward_batch over the distinct rows of trace, its
    penalties weighted by scale.  Every gradient scatter of a step is here.
    """
    idx, grad_z = _joined([part[0] for part in parts]), _joined([part[2] for part in parts])
    if cage is None:
        _scatter_rows(table.rows.grad, idx, grad_z)
        return []
    rows = _joined([part[1] for part in parts])
    grad_e, code_grads = ste_backward_batch(cage, trace, grad_z, rows, weight_cage=scale)
    _scatter_rows(table.rows.grad, idx, grad_e)
    if scale != 0.0:
        for cb, codes, grad in zip(cage.codebooks, trace.indices, code_grads):
            _scatter_rows(cb.grad, codes[rows], grad[rows])
    return [batch_cage_loss_sum(trace, part[1], cage.beta) for part in parts]


def _values(layers) -> list:
    """(weight, bias) arrays of (weight, bias) Parameter pairs, as mlp_apply takes them."""
    return [(w.value, b.value) for w, b in layers]


def _rank(candidates: np.ndarray, scores: np.ndarray, k: int):
    """Descending score, ties by ascending candidate index; a score that is not finite raises."""
    if not np.isfinite(scores).all():
        raise DivergenceError("non-finite ranking score; the model has diverged")
    order = np.lexsort((candidates, -scores))  # negation is exact, so the order is the scores' own
    return candidates[order[:k]].tolist()


class _Model:
    """ID tables, each with an optional quantizer, plus the backbone's own layers.

    The constructor takes the user table (None for the list model), the item
    table, both quantizers and the backbone's (weight, bias) layer pairs in
    checkpoint order, checks them and builds Adam over parameters().
    """

    _frozen = None  # table role -> whole-table fused rows, only inside frozen()

    def __init__(self, users: EmbeddingTable | None, items: EmbeddingTable, user_cage: CascadedQuantizer | None,
                 item_cage: CascadedQuantizer | None, layers: list, omega_q: float, lr: float):
        if omega_q < 0:
            raise ValueError("omega_q must be >= 0")
        self.users, self.items, self.user_cage, self.item_cage = users, items, user_cage, item_cage
        self.layers = layers
        for table, cage in self.sides:
            if cage is not None and cage.dim != table.dim:
                raise DimensionError("quantizer dim does not match embedding dim")
        self.omega_q = float(omega_q)
        self.optimizer = Adam(self.parameters(), lr=lr)

    @property
    def sides(self) -> list:
        """(table, quantizer or None) for each ID table, users before items."""
        return [(table, cage) for table, cage in ((self.users, self.user_cage), (self.items, self.item_cage))
                if table is not None]

    @property
    def n_items(self) -> int:
        return self.items.count

    def parameters(self) -> list:
        """Table rows, then the layers, then each quantizer's: the checkpoint payload order."""
        params = [table.rows for table, _ in self.sides]
        for w, b in self.layers:
            params.extend([w, b])
        for _, cage in self.sides:
            if cage is not None:
                params.extend(cage.codebooks)
        return params

    def named_parameters(self) -> dict:
        return {p.name: p for p in self.parameters()}

    @contextlib.contextmanager
    def frozen(self):
        """Scope in which each side is one fused table, built on entry.

        A quantized side's table is one quantize_batch pass over all its rows,
        a plain side's its own rows.  Rows are sliced from it without a trace,
        bit-identical to a per-call cascade.  The weights must not change while
        the scope is open.  The tables are dropped on exit.
        """
        self._frozen = {table.role: table.rows.value if cage is None else
                        quantize_batch(cage, table.rows.value).fused for table, cage in self.sides}
        try:
            yield self
        finally:
            self._frozen = None

    def _fused_parts(self, cage: CascadedQuantizer | None, table: EmbeddingTable, parts):
        """(trace, then (fused rows, trace rows) per index array of parts) of table.

        Outside frozen() one cascade over the distinct indices of all the
        parts serves every part: trace holds one row per distinct index, and
        index k of a part is trace row rows[k].  Inside frozen() each part is
        sliced from the side's fused table, and a plain side's from its rows,
        with trace and rows None.
        """
        if self._frozen is not None:
            return (None, *((self._frozen[table.role].take(idx, axis=0), None) for idx in parts))
        parts = [np.asarray(idx) for idx in parts]
        if cage is None:
            return (None, *((table.rows.value[idx], None) for idx in parts))
        uniq, inv = np.unique(np.concatenate(parts), return_inverse=True)
        trace = quantize_batch(cage, table.rows.value[uniq])
        rows = np.split(inv, np.cumsum([idx.size for idx in parts])[:-1])
        return (trace, *((trace.fused[r], r) for r in rows))

    def _update(self, routes, batch: int, layer_grads=()) -> float:
        """The tail of every step: apply the gradients and take one Adam step.

        layer_grads pairs each (weight, bias) of a layer with its gradients.
        routes holds one (quantizer, table, trace, parts) per table, parts
        one (indices, trace rows, grad_z) per index array, in scatter order.
        Returns the step's l_cage: the quantizer penalty summed part by part
        in route order, divided by batch.
        """
        for (w, b), (gw, gb) in layer_grads:
            w.grad += gw
            b.grad += gb
        scale = self.omega_q / batch
        l_cage = sum(loss for route in routes for loss in _route(*route, scale)) / batch
        self.optimizer.step()
        return l_cage


class _PairModel(_Model):
    """A user-item model; _candidate_scores(z_u (d,), z_c (n, d)) gives each candidate's score."""

    def predict_topk(self, user: int, candidates, k: int):
        candidates = _check_indices(candidates, self.n_items, "item")
        if candidates.size == 0:
            raise ValueError("candidates must be nonempty")
        if k < 1:
            raise ValueError("k must be >= 1")
        _, (z_u, _) = self._fused_parts(self.user_cage, self.users, [_check_indices(user, self.users.count, "user")])
        _, (z_c, _) = self._fused_parts(self.item_cage, self.items, [candidates])
        return _rank(candidates, self._candidate_scores(z_u[0], z_c), k)


# ---------------------------------------------------------------------------
# Collaborative filtering (BPR)
# ---------------------------------------------------------------------------


class CfModel(_PairModel):
    def __init__(self, users: EmbeddingTable, items: EmbeddingTable, user_cage: CascadedQuantizer | None = None,
                 item_cage: CascadedQuantizer | None = None, *, omega_q: float, lr: float):
        super().__init__(users, items, user_cage, item_cage, [], omega_q, lr)

    def _candidate_scores(self, z_u, z_c):
        return z_c @ z_u


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

    tr_u, (z_u, r_u) = model._fused_parts(model.user_cage, model.users, [u])
    tr_i, (z_p, r_p), (z_n, r_n) = model._fused_parts(model.item_cage, model.items, [p, n])

    margin = ((z_u * z_p).sum(axis=1) - (z_u * z_n).sum(axis=1)).astype(np.float64)
    l_rec = float(np.mean(np.logaddexp(0.0, -margin)))
    # d l_rec / d margin, including the 1/B of the mean
    dm = ((1.0 / (1.0 + np.exp(-margin)) - 1.0) / batch).astype(np.float32)[:, None]
    l_cage = model._update([(model.user_cage, model.users, tr_u, [(u, r_u, dm * (z_p - z_n))]),
                            (model.item_cage, model.items, tr_i, [(p, r_p, dm * z_u), (n, r_n, -dm * z_u)])],
                           batch)
    return {"l_rec": l_rec, "l_cage": l_cage, "l_total": l_rec + model.omega_q * l_cage}


# ---------------------------------------------------------------------------
# CTR prediction (pointwise MLP)
# ---------------------------------------------------------------------------


class CtrModel(_PairModel):
    def __init__(self, users: EmbeddingTable, items: EmbeddingTable, mlp_params: list,
                 user_cage: CascadedQuantizer | None = None,
                 item_cage: CascadedQuantizer | None = None, *, omega_q: float, lr: float):
        if mlp_params[0][0].value.shape[0] != 2 * items.dim:
            raise DimensionError("MLP input width must be 2 * embedding dim")
        super().__init__(users, items, user_cage, item_cage, mlp_params, omega_q, lr)

    def score(self, user_idx, item_idx):
        """Logits for aligned (user, item) index arrays, (trace, trace rows) of each side, and the tape."""
        tr_u, (z_u, r_u) = self._fused_parts(self.user_cage, self.users, [user_idx])
        tr_i, (z_i, r_i) = self._fused_parts(self.item_cage, self.items, [item_idx])
        logits, tape = mlp_apply(_values(self.layers), np.concatenate([z_u, z_i], axis=1))
        return logits[:, 0], (tr_u, r_u), (tr_i, r_i), tape

    def _candidate_scores(self, z_u, z_c):
        n, d = z_c.shape
        x = np.empty((n, 2 * d), dtype=np.float32)
        x[:, :d], x[:, d:] = z_u, z_c  # the user row beside each candidate row
        return mlp_apply(_values(self.layers), x)[0][:, 0]


def ctr_step(model: CtrModel, users, items, labels) -> dict:
    """One pointwise BCE step over a batch of labelled (user, item) pairs."""
    u = _check_indices(users, model.users.count, "user")
    i = _check_indices(items, model.n_items, "item")
    y = np.asarray(labels).reshape(-1)
    if not (u.shape == i.shape == y.shape):
        raise DimensionError("batch arrays must have equal length")
    batch = u.shape[0]

    logits, (tr_u, r_u), (tr_i, r_i), tape = model.score(u, i)
    losses, grad_logit = bce_with_logits_batch(logits, y)
    l_rec = float(losses.mean())
    grad_out = (grad_logit / batch)[:, None]

    param_grads, grad_x = mlp_backward(tape, grad_out)
    d = model.items.dim
    l_cage = model._update([(model.user_cage, model.users, tr_u, [(u, r_u, grad_x[:, :d])]),
                            (model.item_cage, model.items, tr_i, [(i, r_i, grad_x[:, d:])])],
                           batch, zip(model.layers, param_grads))
    return {"l_rec": l_rec, "l_cage": l_cage, "l_total": l_rec + model.omega_q * l_cage}


# ---------------------------------------------------------------------------
# List completion (mean-pool next-item predictor)
# ---------------------------------------------------------------------------


class SeqModel(_Model):
    def __init__(self, items: EmbeddingTable, encoder_params: list, item_cage: CascadedQuantizer | None = None,
                 tree_heads: list | None = None, *, omega_c: float, omega_q: float, lr: float):
        self.encoder_params = encoder_params
        self.tree_heads = tree_heads or []
        if item_cage is not None:
            if len(self.tree_heads) != item_cage.depth:
                raise DimensionError("need one tree head per quantizer level")
            for (w, _), size in zip(self.tree_heads, item_cage.level_sizes):
                if w.value.shape != (items.dim, size):
                    raise DimensionError(f"tree head width {w.value.shape[1]} != codebook size {size}")
        self.omega_c = float(omega_c)
        super().__init__(None, items, None, item_cage, encoder_params + self.tree_heads, omega_q, lr)

    def _flatten(self, prefixes):
        """(flat item index array, segment lengths) of a batch of nonempty prefixes."""
        if any(len(p) == 0 for p in prefixes):
            raise ValueError("prefixes must be nonempty")
        lens = np.array([len(p) for p in prefixes], dtype=np.int64)
        return _check_indices(np.concatenate(prefixes), self.n_items, "item"), lens

    def _pool(self, z_all: np.ndarray, lens: np.ndarray):
        """(prediction vectors (B, d), encoder tape): each prefix's mean fused row through the encoder MLP."""
        starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
        pooled = np.add.reduceat(z_all.astype(np.float64), starts, axis=0) / lens[:, None]
        return mlp_apply(_values(self.encoder_params), pooled.astype(np.float32))

    def encode(self, prefixes):
        """Prediction vectors (B, d) and encoder tape of a batch of prefixes."""
        flat, lens = self._flatten(prefixes)
        _, (z_all, _) = self._fused_parts(self.item_cage, self.items, [flat])
        return self._pool(z_all, lens)

    def predict_completion(self, prefix, k: int, exclude=()):
        exclude = set(_check_indices(list(exclude), self.n_items, "item").tolist())
        if k > self.n_items - len(exclude):
            raise ValueError(f"k={k} exceeds the {self.n_items - len(exclude)} rankable items")
        z_bar, _ = self.encode([list(prefix)])
        scores = (z_bar[0] @ self.items.rows.value.T).astype(np.float64)
        # every item is ranked, so every score is checked; the excluded ones are dropped after
        ranking = _rank(np.arange(self.n_items, dtype=np.int64), scores, k + len(exclude))
        return [c for c in ranking if c not in exclude][:k]


def seq_step(model: SeqModel, prefixes, targets) -> dict:
    """One step of next-item prediction with auxiliary tree classification.

    The target's code indices (recomputed from its current raw embedding,
    detached) act as per-level classification labels.  The prefix items and
    the targets share one cascade.
    """
    t = _check_indices(targets, model.n_items, "item")
    if len(prefixes) != t.shape[0]:
        raise DimensionError("prefixes and targets must align")
    batch = t.shape[0]

    flat, lens = model._flatten(prefixes)
    trace, (z_all, r_pref), (_, r_t) = model._fused_parts(model.item_cage, model.items, [flat, t])
    z_bar, tape = model._pool(z_all, lens)
    table = model.items.rows.value

    logits = z_bar @ table.T
    item_losses, grad_logits = softmax_xent_batch(logits, t)
    l_item = float(item_losses.mean())
    grad_logits /= np.float32(batch)
    grad_zbar = grad_logits @ table
    model.items.rows.grad += grad_logits.T @ z_bar  # tied output projection

    l_tree, head_grads = 0.0, []
    if model.item_cage is not None:
        h = model.item_cage.depth
        head_scale = np.float32(model.omega_c / (h * batch))
        tree_total = 0.0
        for level, (w, b) in enumerate(model.tree_heads):
            head_logits = z_bar @ w.value + b.value[None, :]
            losses, grads = softmax_xent_batch(head_logits, trace.indices[level][r_t])
            tree_total += float(losses.sum())
            grads = grads * head_scale
            head_grads.append((z_bar.T @ grads, grads.sum(axis=0)))
            grad_zbar = grad_zbar + grads @ w.value.T
        l_tree = tree_total / (h * batch)

    param_grads, grad_x = mlp_backward(tape, grad_zbar)
    grad_pref = np.repeat(grad_x / lens[:, None].astype(np.float32), lens, axis=0)
    parts = [(flat, r_pref, grad_pref)]
    if model.item_cage is not None:
        # the targets: quantizer penalties only, no task gradient
        parts.append((t, r_t, np.zeros((batch, model.items.dim), dtype=np.float32)))
    # the layers are the encoder's, then the tree heads'
    l_cage = model._update([(model.item_cage, model.items, trace, parts)], batch,
                           zip(model.layers, param_grads + head_grads))
    l_rec = l_item + model.omega_c * l_tree
    return {"l_item": l_item, "l_tree": l_tree, "l_rec": l_rec, "l_cage": l_cage,
            "l_total": l_rec + model.omega_q * l_cage}


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def make_layers(rng: SeededRng, stream: str, layers, stored: dict | None = None) -> list:
    """(weight, bias) Parameter pairs, one per (name, fan_in, fan_out) of layers.

    Weights are Kaiming-normal, drawn in order from the one named stream, and
    biases are zero; see Parameter.made for stored.
    """
    gen = rng.stream(stream)
    return [(Parameter.made(f"{name}.weight", (fan_in, fan_out),
                            lambda: normal_draw(gen, float(np.sqrt(2.0 / fan_in)), fan_in, fan_out), stored),
             Parameter.made(f"{name}.bias", (fan_out,), lambda: np.zeros(fan_out, dtype=np.float32), stored))
            for name, fan_in, fan_out in layers]


def make_tree_heads(rng: SeededRng, dim: int, sizes, stored: dict | None = None) -> list:
    return make_layers(rng, "init/tree_heads", [(f"tree_head{i}", dim, v) for i, v in enumerate(sizes, start=1)],
                       stored)


def make_mlp_params(rng: SeededRng, sizes, name: str, stored: dict | None = None) -> list:
    return make_layers(rng, f"init/{name}", [(f"{name}.layer{i}", fan_in, fan_out)
                                             for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:]))], stored)
