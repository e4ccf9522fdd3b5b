"""End-to-end training and evaluation runs.

A run is fully described by a TrainConfig.  Everything random draws from
named sub-streams of the run seed, so two runs with the same config produce
bit-identical checkpoints, logs, and trees.
"""

from __future__ import annotations

import ctypes
import functools
import json
import logging
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import data as D
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import TASKS, TrainConfig, config_from_dict
from .errors import ConfigError, DataError, DivergenceError
from .metrics import MetricReport, evaluate_completion, evaluate_ranking
from .models import (CfModel, CtrModel, EmbeddingTable, SeqModel, cf_bpr_step,
                     ctr_step, make_mlp_params, make_tree_heads, seq_step)
from .quantizer import make_quantizer
from .rng import SeededRng

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Dataset assembly
# ---------------------------------------------------------------------------


@dataclass
class InteractionData:
    """Index-mapped interactions with a leave-one-out split."""

    user_vocab: D.Vocabulary
    item_vocab: D.Vocabulary
    train: list                  # (user, item, label) triples; label None = implicit positive
    val_pairs: list              # (user, positive item)
    test_pairs: list
    positives_by_user: dict      # user -> set of positive items over all splits


@dataclass
class ListData:
    item_vocab: D.Vocabulary
    train_pairs: list            # (prefix indices, target indices)
    val_pairs: list
    test_pairs: list


def prepare_interactions(cfg: TrainConfig) -> InteractionData:
    records = D.load_interactions(cfg.data.path, cfg.data.format)
    user_vocab = D.Vocabulary(rec.user for rec in records).freeze()
    item_vocab = D.Vocabulary(rec.item for rec in records).freeze()
    split = D.leave_one_out(records)
    to_triple = lambda r: (user_vocab.index(r.user), item_vocab.index(r.item), r.label)
    train = [to_triple(r) for r in split.train]
    val_pairs = [(user_vocab.index(r.user), item_vocab.index(r.item)) for r in split.validation]
    test_pairs = [(user_vocab.index(r.user), item_vocab.index(r.item)) for r in split.test]
    positives = {}
    for rec in records:
        if rec.label is None or rec.label == 1:
            positives.setdefault(user_vocab.index(rec.user), set()).add(item_vocab.index(rec.item))
    return InteractionData(user_vocab, item_vocab, train, val_pairs, test_pairs, positives)


def prepare_lists(cfg: TrainConfig, rng: SeededRng) -> ListData:
    lists = D.load_lists(cfg.data.path)
    lists = D.preprocess_lists(lists, cfg.data.min_freq, max(cfg.data.min_len, 2), cfg.data.max_len)
    if not lists:
        raise ConfigError("preprocessing removed every list")
    vocab = D.Vocabulary(it for rec in lists for it in rec.items).freeze()
    pairs = []
    for rec in lists:
        prefix, target = D.split_list(rec)
        pairs.append(([vocab.index(i) for i in prefix], [vocab.index(i) for i in target]))
    split = D.partition_lists(pairs, rng)
    return ListData(vocab, split.train, split.validation, split.test)


# ---------------------------------------------------------------------------
# Model assembly
# ---------------------------------------------------------------------------


def _maybe_quantizer(cfg: TrainConfig, rng: SeededRng, enabled: bool, name: str):
    if not enabled:
        return None
    return make_quantizer(
        rng, cfg.model.dim, cfg.cage.levels,
        alpha=cfg.cage.alpha, beta=cfg.cage.beta, fusion_mode=cfg.cage.fusion_mode,
        name=name, init_std=cfg.model.init_std,
    )


def build_model(cfg: TrainConfig, n_users: int, n_items: int):
    """The task's model; each initializer draws from its own named stream, so build order is free."""
    if cfg.task not in TASKS:
        raise ConfigError(f"unknown task {cfg.task!r}")
    rng = SeededRng(cfg.model.seed)
    m = cfg.model
    items = EmbeddingTable.create(rng, n_items, m.dim, "item", m.init_std)
    item_cage = _maybe_quantizer(cfg, rng, cfg.cage.item_enabled, "item_cage")
    if cfg.task == "list-completion":
        heads = make_tree_heads(rng, m.dim, cfg.cage.levels) if item_cage is not None else []
        return SeqModel(items, make_mlp_params(rng, [m.dim, *m.hidden, m.dim], "encoder"),
                        item_cage, heads, omega_c=cfg.cage.omega_c, omega_q=cfg.cage.omega_q, lr=m.lr)
    users = EmbeddingTable.create(rng, n_users, m.dim, "user", m.init_std)
    user_cage = _maybe_quantizer(cfg, rng, cfg.cage.user_enabled, "user_cage")
    if cfg.task == "cf":
        return CfModel(users, items, user_cage, item_cage, omega_q=cfg.cage.omega_q, lr=m.lr)
    return CtrModel(users, items, make_mlp_params(rng, [2 * m.dim, *m.hidden, 1], "mlp"),
                    user_cage, item_cage, omega_q=cfg.cage.omega_q, lr=m.lr)


def _check_sizes(cfg: TrainConfig, tensors: dict):
    """The config's sizes must give the stored shapes; checked before build_model allocates anything."""
    d, seq = cfg.model.dim, cfg.task == "list-completion"
    want = {name: None for name in (["item_table"] if seq else ["user_table", "item_table"])}
    if cfg.task != "cf":
        sizes = [d if seq else 2 * d, *cfg.model.hidden]
        layers = "encoder" if seq else "mlp"
        want.update({f"{layers}.layer{i}.weight": shape for i, shape in enumerate(zip(sizes, sizes[1:]))})
    for cage, enabled in (("user_cage", cfg.cage.user_enabled), ("item_cage", cfg.cage.item_enabled)):
        if enabled:
            want.update({f"{cage}.codebook{i}": (v, d) for i, v in enumerate(cfg.cage.levels, start=1)})
    for name, shape in want.items():
        if name not in tensors:
            raise ConfigError(f"checkpoint is missing tensor '{name}'")
        got = tensors[name].shape
        shape = shape or (*got[:1], d)  # a table may have any number of rows
        if got != shape:
            raise ConfigError(f"tensor '{name}' has shape {got}, but the config gives {shape}")


def model_from_checkpoint(ckpt: Checkpoint):
    """Rebuild the model purely from the checkpoint (no data files needed)."""
    cfg = config_from_dict(ckpt.config)
    _check_sizes(cfg, ckpt.tensors)
    n_items = ckpt.tensors["item_table"].shape[0]
    n_users = ckpt.tensors["user_table"].shape[0] if cfg.task != "list-completion" else 1
    model = build_model(cfg, n_users, n_items)
    named = model.named_parameters()
    for name, param in named.items():
        if name not in ckpt.tensors:
            raise ConfigError(f"checkpoint is missing tensor '{name}'")
        tensor = ckpt.tensors[name]
        if tensor.shape != param.value.shape:
            raise ConfigError(
                f"tensor '{name}' has shape {tensor.shape}, model expects {param.value.shape}")
        param.value[...] = tensor
    extra = set(ckpt.tensors) - set(named)
    if extra:
        raise ConfigError(f"checkpoint has unexpected tensor(s): {sorted(extra)}")
    return model, cfg


# ---------------------------------------------------------------------------
# Training loops
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    model: object
    config: TrainConfig
    step_losses: list            # per-step loss dicts, in order
    epoch_metrics: list          # per-epoch MetricReport on the validation split
    checkpoint_path: str | None = None
    log_path: str | None = None
    dataset: object = None


def _raw_ids(ds) -> dict:
    """Raw ids in row order per side: the vocabulary a checkpoint stores."""
    vocabs = {"items": ds.item_vocab}
    if isinstance(ds, InteractionData):
        vocabs = {"users": ds.user_vocab, **vocabs}
    return {side: [v.raw(i) for i in range(len(v))] for side, v in vocabs.items()}


def _check_vocab(ckpt: Checkpoint, ds, path):
    """The data file must map raw ids to the rows the checkpoint was trained with."""
    if ckpt.vocab is None:
        return
    for side, ids in _raw_ids(ds).items():
        if ckpt.vocab.get(side) != ids:
            raise DataError(f"{path}: the {side} vocabulary differs from the one the checkpoint "
                            "was trained with (ids added, removed or reordered)")


def _check_finite(loss: dict, epoch: int, step: int):
    for key, value in loss.items():
        if not math.isfinite(value):
            raise DivergenceError(f"non-finite {key} at epoch {epoch}, batch {step}")


def _run_batches(cfg: TrainConfig, result: TrainResult, epoch: int, order: np.ndarray, step) -> list:
    """step(batch indices) over each batch of order; returns the epoch's loss dicts."""
    epoch_losses = []
    for i, start in enumerate(range(0, len(order), cfg.model.batch_size)):
        loss = step(order[start:start + cfg.model.batch_size])
        _check_finite(loss, epoch, i)
        epoch_losses.append(loss)
        result.step_losses.append(loss)
    return epoch_losses


def _bpr_negatives(users: np.ndarray, positives_by_user: dict, n_items: int,
                   gen: np.random.Generator) -> np.ndarray:
    """One uniform non-positive item per row, drawn in bulk rounds.

    Row r takes the first draw, after row r-1's accepted one, outside its
    user's positive set.  Each round draws one value per row still open and a
    draw accepts at most one row, so the draws and the generator's final state
    equal those of scalar ``gen.integers(0, n_items)`` calls row by row.
    """
    users = users.tolist()
    pos_sets = [positives_by_user.get(user, ()) for user in users]
    stop = next((row for row, pos in enumerate(pos_sets) if len(pos) >= n_items), len(users))
    chosen = []
    while len(chosen) < stop:
        for cand in gen.integers(0, n_items, size=stop - len(chosen)).tolist():
            if cand not in pos_sets[len(chosen)]:
                chosen.append(cand)
    if stop < len(users):
        raise DataError(f"user index {users[stop]} is positive on all {n_items} items; "
                        "no negative item can be sampled")
    return np.array(chosen, dtype=np.int64)


def _check_eval_units(cfg: TrainConfig, ds, pairs, split: str):
    """Every unit of pairs must be rankable as evaluation ranks it; checked before training or ranking.

    A user needs eval.n_negatives non-positive items; a list needs max(eval.ks)
    items outside its input.
    """
    n_items = len(ds.item_vocab)
    if isinstance(ds, ListData):
        k = max(cfg.eval.ks)
        for i, (prefix, _) in enumerate(pairs):
            rankable = n_items - len(set(prefix))
            if rankable < k:
                raise DataError(f"{split} list {i}: only {rankable} of {n_items} items are outside "
                                f"its input; eval.ks needs {k}")
        return
    for user, _ in pairs:
        n_pos = len(ds.positives_by_user.get(user, ()))
        if n_items - n_pos < cfg.eval.n_negatives:
            held = f"all {n_items}" if n_pos >= n_items else f"{n_pos} of {n_items}"
            raise DataError(f"user index {user} is positive on {held} items; evaluation needs "
                            f"{cfg.eval.n_negatives} sampled negatives (only {n_items - n_pos} "
                            f"non-positive items, need {cfg.eval.n_negatives})")


def _train_interactions(cfg: TrainConfig, model, ds: InteractionData, result: TrainResult,
                        rng: SeededRng, log_fh):
    shuffle_gen = rng.stream("shuffle")
    neg_gen = rng.stream("negative-sampling")
    positives = np.array([(u, i) for u, i, lbl in ds.train if lbl is None or lbl == 1], dtype=np.int64)
    explicit_neg = np.array([(u, i) for u, i, lbl in ds.train if lbl == 0], dtype=np.int64).reshape(-1, 2)
    implicit = all(lbl is None for _, _, lbl in ds.train)

    def cf_step(batch_idx):
        users = positives[batch_idx, 0]
        neg = _bpr_negatives(users, ds.positives_by_user, model.n_items, neg_gen)
        return cf_bpr_step(model, users, positives[batch_idx, 1], neg)

    for epoch in range(1, cfg.model.epochs + 1):
        if cfg.task == "cf":
            epoch_losses = _run_batches(cfg, result, epoch, shuffle_gen.permutation(positives.shape[0]), cf_step)
        else:  # ctr
            if implicit:
                neg_items = _bpr_negatives(positives[:, 0], ds.positives_by_user, model.n_items, neg_gen)
                neg_rows = np.stack([positives[:, 0], neg_items], axis=1)
            else:
                neg_rows = explicit_neg
            samples = np.concatenate([
                np.column_stack([positives, np.ones(len(positives), dtype=np.int64)]),
                np.column_stack([neg_rows, np.zeros(len(neg_rows), dtype=np.int64)]),
            ])
            epoch_losses = _run_batches(
                cfg, result, epoch, shuffle_gen.permutation(samples.shape[0]),
                lambda b: ctr_step(model, samples[b, 0], samples[b, 1], samples[b, 2]))
        _finish_epoch(cfg, model, ds, result, log_fh, epoch, epoch_losses)


def _train_lists(cfg: TrainConfig, model: SeqModel, ds: ListData, result: TrainResult,
                 rng: SeededRng, log_fh):
    shuffle_gen = rng.stream("shuffle")
    # one training example per target item
    examples = [(prefix, target_item) for prefix, targets in ds.train_pairs for target_item in targets]

    def step(batch_idx):
        batch = [examples[i] for i in batch_idx]
        return seq_step(model, [b[0] for b in batch], np.array([b[1] for b in batch], dtype=np.int64))

    for epoch in range(1, cfg.model.epochs + 1):
        epoch_losses = _run_batches(cfg, result, epoch, shuffle_gen.permutation(len(examples)), step)
        _finish_epoch(cfg, model, ds, result, log_fh, epoch, epoch_losses)


def _evaluate(cfg: TrainConfig, model, ds, pairs, stream: str) -> MetricReport:
    """Whole-vocabulary completion metrics, or ranking against negatives drawn from the eval stream."""
    if isinstance(ds, ListData):
        return evaluate_completion(model, pairs, cfg.eval.ks)
    seed = cfg.eval.seed if cfg.eval.seed is not None else cfg.model.seed
    return evaluate_ranking(model, pairs, cfg.eval.n_negatives, cfg.eval.ks,
                            SeededRng(seed).stream(stream), positives_by_user=ds.positives_by_user)


def _write_log(log_fh, lines):
    """Append JSON lines to the run's train_log.jsonl (if any) and flush them to disk."""
    if log_fh is None:
        return
    log_fh.write("".join(json.dumps(line, sort_keys=True) + "\n" for line in lines))
    log_fh.flush()


def _finish_epoch(cfg, model, ds, result, log_fh, epoch, epoch_losses):
    mean_loss = float(np.mean([l["l_total"] for l in epoch_losses])) if epoch_losses else 0.0
    log_lines = [{"epoch": epoch, "split": "train", "metric": "loss", "value": mean_loss}]
    report = _evaluate(cfg, model, ds, ds.val_pairs, f"eval/epoch{epoch}") if ds.val_pairs else None
    if report is not None:
        result.epoch_metrics.append(report)
        for name, value in sorted(report.values.items()):
            log_lines.append({"epoch": epoch, "split": "val", "metric": name, "value": value})
    _write_log(log_fh, log_lines)
    log.info("epoch %d: train loss %.6f%s", epoch, mean_loss,
             "" if report is None else " " + json.dumps(report.to_dict()["metrics"]))


def _prepare(cfg: TrainConfig):
    """The run's dataset: list pairs for list-completion, interactions otherwise."""
    if cfg.task == "list-completion":
        return prepare_lists(cfg, SeededRng(cfg.model.seed))
    return prepare_interactions(cfg)


@functools.cache
def _keep_freed_heap():
    """Keep freed heap memory in the process (glibc only), once per process.

    Each training step allocates megabytes of short-lived arrays.  By default
    glibc gives the freed heap top back to the OS and the next step faults it
    in again.  Fixing the mmap threshold at 8 MiB keeps those arrays on the
    heap, and a 32 MiB trim threshold keeps the freed heap for the next step.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc, or no C library handle
        return
    mallopt(-3, 8 << 20)   # M_MMAP_THRESHOLD
    mallopt(-1, 32 << 20)  # M_TRIM_THRESHOLD


def run_train(cfg: TrainConfig, out_dir: str | None = None) -> TrainResult:
    _keep_freed_heap()
    cfg.validate()
    rng = SeededRng(cfg.model.seed)
    ds = _prepare(cfg)
    n_users = 1
    if isinstance(ds, InteractionData):
        if not any(lbl is None or lbl == 1 for _, _, lbl in ds.train):
            raise DataError(f"{cfg.data.path}: the training split has no positive interaction "
                            "(label 1 or unlabelled)")
        n_users = len(ds.user_vocab)
    _check_eval_units(cfg, ds, ds.val_pairs, "val")
    model = build_model(cfg, n_users=n_users, n_items=len(ds.item_vocab))

    result = TrainResult(model=model, config=cfg, step_losses=[], epoch_metrics=[], dataset=ds)
    train = _train_lists if cfg.task == "list-completion" else _train_interactions
    if out_dir is None:
        train(cfg, model, ds, result, rng, None)
        return result

    # the log is written as the run goes, so a diverged run leaves its finished epochs
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "train_log.jsonl")
    with open(log_path, "w", encoding="utf-8") as log_fh:
        _write_log(log_fh, [{"config": cfg.to_dict()}])
        train(cfg, model, ds, result, rng, log_fh)
    ckpt_path = os.path.join(out_dir, "model.ckpt")
    tensors = {name: p.value for name, p in model.named_parameters().items()}
    save_checkpoint(ckpt_path, cfg.to_dict(), cfg.model.epochs, {"seed": cfg.model.seed},
                    tensors, vocab=_raw_ids(ds))
    result.checkpoint_path = ckpt_path
    result.log_path = log_path
    return result


# ---------------------------------------------------------------------------
# Evaluation from a checkpoint
# ---------------------------------------------------------------------------


def run_evaluate(checkpoint_path, split: str = "test", overrides: dict | None = None) -> MetricReport:
    """Frozen-weight evaluation of a saved run on the validation or test split."""
    if split not in ("val", "test"):
        raise ConfigError(f"split must be 'val' or 'test', got {split!r}")
    ckpt = load_checkpoint(checkpoint_path)
    model, cfg = model_from_checkpoint(ckpt)
    if overrides:
        doc = cfg.to_dict()
        doc["eval"].update(overrides)
        cfg = config_from_dict(doc)

    ds = _prepare(cfg)
    _check_vocab(ckpt, ds, cfg.data.path)
    pairs = ds.val_pairs if split == "val" else ds.test_pairs
    if not pairs:
        raise ConfigError(f"{split} split is empty")
    _check_eval_units(cfg, ds, pairs, split)
    stream = "eval/final" if split == "test" else f"eval/epoch{cfg.model.epochs}"
    return _evaluate(cfg, model, ds, pairs, stream)
