"""End-to-end training and evaluation runs.

A run is fully described by a TrainConfig.  Everything random draws from
named sub-streams of the run seed, so two runs with the same config produce
bit-identical checkpoints, logs, and trees.
"""

from __future__ import annotations

import json
import logging
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import data as D
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import TrainConfig, config_from_dict
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
    user_vocab, item_vocab = D.Vocabulary(), D.Vocabulary()
    for rec in records:
        user_vocab.add(rec.user)
        item_vocab.add(rec.item)
    user_vocab.freeze()
    item_vocab.freeze()
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
    vocab = D.Vocabulary()
    for rec in lists:
        for it in rec.items:
            vocab.add(it)
    vocab.freeze()
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
        rng, cfg.model.dim, [int(v) for v in cfg.cage.levels],
        alpha=cfg.cage.alpha, beta=cfg.cage.beta, fusion_mode=cfg.cage.fusion_mode,
        name=name, init_std=cfg.model.init_std,
    )


def build_model(cfg: TrainConfig, n_users: int, n_items: int):
    rng = SeededRng(cfg.model.seed)
    m = cfg.model
    if cfg.task == "cf":
        return CfModel(
            users=EmbeddingTable.create(rng, n_users, m.dim, "user", m.init_std),
            items=EmbeddingTable.create(rng, n_items, m.dim, "item", m.init_std),
            user_cage=_maybe_quantizer(cfg, rng, cfg.cage.user_enabled, "user_cage"),
            item_cage=_maybe_quantizer(cfg, rng, cfg.cage.item_enabled, "item_cage"),
            omega_q=cfg.cage.omega_q, lr=m.lr,
        )
    if cfg.task == "ctr":
        sizes = [2 * m.dim] + [int(h) for h in m.hidden] + [1]
        return CtrModel(
            users=EmbeddingTable.create(rng, n_users, m.dim, "user", m.init_std),
            items=EmbeddingTable.create(rng, n_items, m.dim, "item", m.init_std),
            mlp_params=make_mlp_params(rng, sizes, "mlp"),
            user_cage=_maybe_quantizer(cfg, rng, cfg.cage.user_enabled, "user_cage"),
            item_cage=_maybe_quantizer(cfg, rng, cfg.cage.item_enabled, "item_cage"),
            omega_q=cfg.cage.omega_q, lr=m.lr,
        )
    if cfg.task == "list-completion":
        cage = _maybe_quantizer(cfg, rng, cfg.cage.item_enabled, "item_cage")
        heads = make_tree_heads(rng, m.dim, cfg.cage.levels) if cage is not None else []
        sizes = [m.dim] + [int(h) for h in m.hidden] + [m.dim]
        return SeqModel(
            items=EmbeddingTable.create(rng, n_items, m.dim, "item", m.init_std),
            encoder_params=make_mlp_params(rng, sizes, "encoder"),
            item_cage=cage, tree_heads=heads,
            omega_c=cfg.cage.omega_c, omega_q=cfg.cage.omega_q, lr=m.lr,
        )
    raise ConfigError(f"unknown task {cfg.task!r}")


def model_from_checkpoint(ckpt: Checkpoint):
    """Rebuild the model purely from the checkpoint (no data files needed)."""
    cfg = config_from_dict(ckpt.config)
    if cfg.task == "list-completion":
        n_items = ckpt.tensors["item_table"].shape[0]
        n_users = 1
    else:
        n_users = ckpt.tensors["user_table"].shape[0]
        n_items = ckpt.tensors["item_table"].shape[0]
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


def _batches(n: int, batch_size: int, order: np.ndarray):
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def _bpr_negatives(users: np.ndarray, positives_by_user: dict, n_items: int,
                   gen: np.random.Generator) -> np.ndarray:
    out = np.empty(users.shape[0], dtype=np.int64)
    for row, user in enumerate(users):
        pos = positives_by_user.get(int(user), set())
        if len(pos) >= n_items:
            raise DataError(f"user index {int(user)} is positive on all {n_items} items; "
                            "no negative item can be sampled")
        while True:
            cand = int(gen.integers(0, n_items))
            if cand not in pos:
                out[row] = cand
                break
    return out


def _check_eval_negatives(ds: InteractionData, n_negatives: int):
    """Every validated user needs n_negatives non-positive items; check before any training step."""
    n_items = len(ds.item_vocab)
    for user, _ in ds.val_pairs:
        n_pos = len(ds.positives_by_user.get(user, ()))
        if n_items - n_pos < n_negatives:
            held = f"all {n_items}" if n_pos >= n_items else f"{n_pos} of {n_items}"
            raise DataError(f"user index {user} is positive on {held} items; "
                            f"evaluation needs {n_negatives} non-positive items")


def _train_interactions(cfg: TrainConfig, model, ds: InteractionData, result: TrainResult,
                        rng: SeededRng, log_lines: list):
    shuffle_gen = rng.stream("shuffle")
    neg_gen = rng.stream("negative-sampling")
    positives = np.array([(u, i) for u, i, lbl in ds.train if lbl is None or lbl == 1], dtype=np.int64)
    explicit_neg = np.array([(u, i) for u, i, lbl in ds.train if lbl == 0], dtype=np.int64)
    implicit = all(lbl is None for _, _, lbl in ds.train)

    for epoch in range(1, cfg.model.epochs + 1):
        if cfg.task == "cf":
            order = shuffle_gen.permutation(positives.shape[0])
            epoch_losses = []
            for step, batch_idx in enumerate(_batches(len(order), cfg.model.batch_size, order)):
                users = positives[batch_idx, 0]
                pos = positives[batch_idx, 1]
                neg = _bpr_negatives(users, ds.positives_by_user, model.n_items, neg_gen)
                loss = cf_bpr_step(model, users, pos, neg)
                _check_finite(loss, epoch, step)
                epoch_losses.append(loss)
                result.step_losses.append(loss)
        else:  # ctr
            if implicit:
                neg_items = _bpr_negatives(positives[:, 0], ds.positives_by_user, model.n_items, neg_gen)
                neg_rows = np.stack([positives[:, 0], neg_items], axis=1)
            else:
                neg_rows = explicit_neg
            samples = np.concatenate([
                np.column_stack([positives, np.ones(len(positives), dtype=np.int64)]),
                np.column_stack([neg_rows, np.zeros(len(neg_rows), dtype=np.int64)]),
            ]) if len(neg_rows) else np.column_stack([positives, np.ones(len(positives), dtype=np.int64)])
            order = shuffle_gen.permutation(samples.shape[0])
            epoch_losses = []
            for step, batch_idx in enumerate(_batches(len(order), cfg.model.batch_size, order)):
                rows = samples[batch_idx]
                loss = ctr_step(model, rows[:, 0], rows[:, 1], rows[:, 2])
                _check_finite(loss, epoch, step)
                epoch_losses.append(loss)
                result.step_losses.append(loss)
        _finish_epoch(cfg, model, ds, result, rng, log_lines, epoch, epoch_losses)


def _train_lists(cfg: TrainConfig, model: SeqModel, ds: ListData, result: TrainResult,
                 rng: SeededRng, log_lines: list):
    shuffle_gen = rng.stream("shuffle")
    # one training example per target item
    examples = [(prefix, target_item) for prefix, targets in ds.train_pairs for target_item in targets]
    for epoch in range(1, cfg.model.epochs + 1):
        order = shuffle_gen.permutation(len(examples))
        epoch_losses = []
        for step, batch_idx in enumerate(_batches(len(order), cfg.model.batch_size, order)):
            batch = [examples[i] for i in batch_idx]
            prefixes = [b[0] for b in batch]
            targets = np.array([b[1] for b in batch], dtype=np.int64)
            loss = seq_step(model, prefixes, targets)
            _check_finite(loss, epoch, step)
            epoch_losses.append(loss)
            result.step_losses.append(loss)
        _finish_epoch(cfg, model, ds, result, rng, log_lines, epoch, epoch_losses)


def _validate(cfg: TrainConfig, model, ds, rng_name: str, seed: int) -> MetricReport | None:
    eval_rng = SeededRng(seed)
    if isinstance(ds, ListData):
        if not ds.val_pairs:
            return None
        return evaluate_completion(model, ds.val_pairs, cfg.eval.ks)
    if not ds.val_pairs:
        return None
    return evaluate_ranking(model, ds.val_pairs, cfg.eval.n_negatives, cfg.eval.ks,
                            eval_rng.stream(rng_name), positives_by_user=ds.positives_by_user)


def _finish_epoch(cfg, model, ds, result, rng, log_lines, epoch, epoch_losses):
    mean_loss = float(np.mean([l["l_total"] for l in epoch_losses])) if epoch_losses else 0.0
    log_lines.append({"epoch": epoch, "split": "train", "metric": "loss", "value": mean_loss})
    eval_seed = cfg.eval.seed if cfg.eval.seed is not None else cfg.model.seed
    report = _validate(cfg, model, ds, f"eval/epoch{epoch}", eval_seed)
    if report is not None:
        result.epoch_metrics.append(report)
        for name, value in sorted(report.values.items()):
            log_lines.append({"epoch": epoch, "split": "val", "metric": name, "value": value})
    log.info("epoch %d: train loss %.6f%s", epoch, mean_loss,
             "" if report is None else " " + json.dumps(report.to_dict()["metrics"]))


def run_train(cfg: TrainConfig, out_dir: str | None = None) -> TrainResult:
    cfg.validate()
    rng = SeededRng(cfg.model.seed)
    if cfg.task == "list-completion":
        ds = prepare_lists(cfg, rng)
        model = build_model(cfg, n_users=1, n_items=len(ds.item_vocab))
    else:
        ds = prepare_interactions(cfg)
        _check_eval_negatives(ds, cfg.eval.n_negatives)
        model = build_model(cfg, n_users=len(ds.user_vocab), n_items=len(ds.item_vocab))

    result = TrainResult(model=model, config=cfg, step_losses=[], epoch_metrics=[], dataset=ds)
    log_lines = [{"config": cfg.to_dict()}]
    if cfg.task == "list-completion":
        _train_lists(cfg, model, ds, result, rng, log_lines)
    else:
        _train_interactions(cfg, model, ds, result, rng, log_lines)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        ckpt_path = os.path.join(out_dir, "model.ckpt")
        log_path = os.path.join(out_dir, "train_log.jsonl")
        tensors = {name: p.value for name, p in model.named_parameters().items()}
        save_checkpoint(ckpt_path, cfg.to_dict(), cfg.model.epochs, {"seed": cfg.model.seed},
                        tensors, vocab=_raw_ids(ds))
        with open(log_path, "w", encoding="utf-8") as fh:
            for line in log_lines:
                fh.write(json.dumps(line, sort_keys=True) + "\n")
        result.checkpoint_path = ckpt_path
        result.log_path = log_path
    return result


# ---------------------------------------------------------------------------
# Evaluation from a checkpoint
# ---------------------------------------------------------------------------

_EVAL_OVERRIDES = {"ks", "n_negatives", "seed"}


def run_evaluate(checkpoint_path, split: str = "test", overrides: dict | None = None) -> MetricReport:
    """Frozen-weight evaluation of a saved run on the validation or test split."""
    if split not in ("val", "test"):
        raise ConfigError(f"split must be 'val' or 'test', got {split!r}")
    ckpt = load_checkpoint(checkpoint_path)
    model, cfg = model_from_checkpoint(ckpt)
    if overrides:
        unknown = set(overrides) - _EVAL_OVERRIDES
        if unknown:
            raise ConfigError(f"only eval settings may be overridden, got {sorted(unknown)}")
        for key, value in overrides.items():
            setattr(cfg.eval, key, value)
        cfg.validate()

    eval_seed = cfg.eval.seed if cfg.eval.seed is not None else cfg.model.seed
    eval_rng = SeededRng(eval_seed)
    if cfg.task == "list-completion":
        ds = prepare_lists(cfg, SeededRng(cfg.model.seed))
    else:
        ds = prepare_interactions(cfg)
    _check_vocab(ckpt, ds, cfg.data.path)
    pairs = ds.val_pairs if split == "val" else ds.test_pairs
    if not pairs:
        raise ConfigError(f"{split} split is empty")
    if cfg.task == "list-completion":
        return evaluate_completion(model, pairs, cfg.eval.ks)
    stream = "eval/final" if split == "test" else f"eval/epoch{cfg.model.epochs}"
    return evaluate_ranking(model, pairs, cfg.eval.n_negatives, cfg.eval.ks,
                            eval_rng.stream(stream), positives_by_user=ds.positives_by_user)
