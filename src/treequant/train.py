"""End-to-end training and evaluation runs.

A run is fully described by a TrainConfig.  Everything random draws from
named sub-streams of the run seed, so two runs with the same config produce
bit-identical checkpoints, logs, and trees.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import json
import logging
import math
import os
from dataclasses import dataclass

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
    train: np.ndarray            # (n, 3) int64 rows (user, item, label); label 0 is a negative, 1 a positive
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
    columns = D.load_interactions(cfg.data.path, cfg.data.format)
    user_vocab, item_vocab = D.Vocabulary(columns.users), D.Vocabulary(columns.items)
    users, items = user_vocab.indices(columns.users), item_vocab.indices(columns.items)
    split = D.leave_one_out(users, columns.labels, columns.timestamps)
    rows = np.column_stack([users, items, columns.labels])
    val_pairs, test_pairs = (list(map(tuple, rows[held, :2].tolist()))
                             for held in (split.validation, split.test))
    positives = {}  # every positive row is in exactly one split
    for user, item in rows[columns.labels != 0, :2].tolist():
        positives.setdefault(user, set()).add(item)
    return InteractionData(user_vocab, item_vocab, rows[split.train], val_pairs, test_pairs, positives)


def prepare_lists(cfg: TrainConfig, rng: SeededRng) -> ListData:
    lists = D.load_lists(cfg.data.path)
    lists = D.preprocess_lists(lists, cfg.data.min_freq, max(cfg.data.min_len, 2), cfg.data.max_len)
    if not lists:
        raise ConfigError("preprocessing removed every list")
    flat = [it for items in lists for it in items]
    vocab = D.Vocabulary(flat)
    ids = vocab.indices(flat).tolist()  # one call for all lists: a call per list costs more than its lookups
    ends = itertools.accumulate(map(len, lists))
    pairs = [D.split_list(ids[end - len(items):end]) for items, end in zip(lists, ends)]
    split = D.partition_lists(pairs, rng)
    return ListData(vocab, split.train, split.validation, split.test)


# ---------------------------------------------------------------------------
# Model assembly
# ---------------------------------------------------------------------------


def build_model(cfg: TrainConfig, n_users: int, n_items: int, stored: dict | None = None):
    """The task's model: drawn when stored is None, else made of the checkpoint tensors in stored.

    Each initializer draws from its own named stream, so build order is free;
    users come before items, so a defect of both tables names the user table.
    """
    if cfg.task not in TASKS:
        raise ConfigError(f"unknown task {cfg.task!r}")
    rng = SeededRng(cfg.model.seed)
    m, c = cfg.model, cfg.cage

    def side(role: str, count: int, quantized: bool):
        table = EmbeddingTable.create(rng, count, m.dim, role, m.init_std, stored)
        cage = make_quantizer(rng, m.dim, c.levels, alpha=c.alpha, beta=c.beta, name=f"{role}_cage",
                              init_std=m.init_std, stored=stored) if quantized else None
        return table, cage

    if cfg.task == "list-completion":
        items, item_cage = side("item", n_items, c.item_enabled)
        heads = make_tree_heads(rng, m.dim, c.levels, stored) if item_cage is not None else []
        return SeqModel(items, make_mlp_params(rng, [m.dim, *m.hidden, m.dim], "encoder", stored),
                        item_cage, heads, omega_c=c.omega_c, omega_q=c.omega_q, lr=m.lr)
    users, user_cage = side("user", n_users, c.user_enabled)
    items, item_cage = side("item", n_items, c.item_enabled)
    if cfg.task == "cf":
        return CfModel(users, items, user_cage, item_cage, omega_q=c.omega_q, lr=m.lr)
    return CtrModel(users, items, make_mlp_params(rng, [2 * m.dim, *m.hidden, 1], "mlp", stored),
                    user_cage, item_cage, omega_q=c.omega_q, lr=m.lr)


def model_from_checkpoint(ckpt: Checkpoint):
    """Rebuild the model purely from the checkpoint (no data files needed); nothing is drawn.

    Each vocabulary side fixes its table's row count; a missing side counts 0 rows.
    """
    cfg = config_from_dict(ckpt.config)
    n_users, n_items = (len(ckpt.vocab.get(side, ())) for side in ("users", "items"))
    model = build_model(cfg, n_users, n_items, stored=ckpt.tensors)
    extra = set(ckpt.tensors) - set(model.named_parameters())
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
    return {side: v.ids for side, v in vocabs.items()}


def _check_vocab(ckpt: Checkpoint, ds, path):
    """The data file must map raw ids to the rows the checkpoint was trained with."""
    for side, ids in _raw_ids(ds).items():
        if ckpt.vocab.get(side) != ids:
            raise DataError(f"{path}: the {side} vocabulary differs from the one the checkpoint "
                            "was trained with (ids added, removed or reordered)")


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


def _task_examples(cfg: TrainConfig, model, ds, rng: SeededRng):
    """A function that, at the start of each epoch, gives its example count and step(batch indices).

    cf: the positive pairs, each batch drawing its BPR negatives.  ctr: the
    positives, then the split's label-0 rows, or, when it has none, one
    negative sampled per positive for the epoch.  list-completion: one
    example per target item.
    """
    if cfg.task == "list-completion":
        # one int64 array per list, shared by the examples of its targets
        arrays = [np.array(prefix, dtype=np.int64) for prefix, _ in ds.train_pairs]
        prefixes = [prefix for prefix, (_, targets) in zip(arrays, ds.train_pairs) for _ in targets]
        targets = np.array([t for _, targets in ds.train_pairs for t in targets], dtype=np.int64)

        def seq(b):
            return seq_step(model, [prefixes[i] for i in b], targets[b])
        return lambda: (len(prefixes), seq)
    neg_gen = rng.stream("negative-sampling")
    positives, negatives = ds.train[ds.train[:, 2] != 0], ds.train[ds.train[:, 2] == 0]
    if cfg.task == "cf" or not len(negatives):  # a negative is drawn for every user with a positive
        full = [user for user, items in sorted(ds.positives_by_user.items()) if len(items) >= model.n_items]
        if full:
            raise DataError(f"user index {full[0]} is positive on all {model.n_items} items; "
                            "no negative item can be sampled")

    def negatives_for(users):
        """One uniform non-positive item per user of an array."""
        excluded = [ds.positives_by_user.get(user, ()) for user in users.tolist()]
        return np.array(D.sample_negatives(excluded, 1, model.n_items, neg_gen), dtype=np.int64)

    if cfg.task == "cf":
        def cf(b):
            users = positives[b, 0]
            return cf_bpr_step(model, users, positives[b, 1], negatives_for(users))
        return lambda: (len(positives), cf)

    def ctr_epoch():
        sampled = negatives
        if not len(negatives):
            neg_items = negatives_for(positives[:, 0])
            sampled = np.column_stack([positives[:, 0], neg_items, np.zeros_like(neg_items)])
        samples = np.concatenate([positives, sampled])
        return len(samples), lambda b: ctr_step(model, samples[b, 0], samples[b, 1], samples[b, 2])
    return ctr_epoch


def _train(cfg: TrainConfig, model, ds, result: TrainResult, rng: SeededRng, log_fh):
    """Every task's epochs: shuffle the epoch's examples, run and check each batch, then validate."""
    shuffle_gen = rng.stream("shuffle")
    epoch_examples = _task_examples(cfg, model, ds, rng)
    for epoch in range(1, cfg.model.epochs + 1):
        n, step = epoch_examples()
        order = shuffle_gen.permutation(n)
        epoch_losses = []
        for i, start in enumerate(range(0, n, cfg.model.batch_size)):
            loss = step(order[start:start + cfg.model.batch_size])
            for key, value in loss.items():
                if not math.isfinite(value):
                    raise DivergenceError(f"non-finite {key} at epoch {epoch}, batch {i}")
            epoch_losses.append(loss)
            result.step_losses.append(loss)
        _finish_epoch(cfg, model, ds, result, log_fh, epoch, epoch_losses)
    # the last Adam update follows the last checked loss, and a run without a validation split ranks nothing
    diverged = [name for name, p in model.named_parameters().items() if not np.isfinite(p.value).all()]
    if diverged:
        raise DivergenceError(f"non-finite parameters after training: {', '.join(diverged)}")
    # an inf second moment freezes its weight entry while the loss stays finite
    stalled = [p.name for p, (_, v) in model.optimizer.slots if not np.isfinite(v).all()]
    if stalled:
        raise DivergenceError(f"non-finite Adam second moment after training: {', '.join(stalled)}")


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
        if not ds.positives_by_user:  # a user with a positive keeps one in the training split
            raise DataError(f"{cfg.data.path}: the training split has no positive interaction "
                            "(label 1 or unlabelled)")
        n_users = len(ds.user_vocab)
    _check_eval_units(cfg, ds, ds.val_pairs, "val")
    model = build_model(cfg, n_users=n_users, n_items=len(ds.item_vocab))

    result = TrainResult(model=model, config=cfg, step_losses=[], epoch_metrics=[], dataset=ds)
    if out_dir is None:
        _train(cfg, model, ds, result, rng, None)
        return result

    # the log is written as the run goes, so a diverged run leaves its finished epochs
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "train_log.jsonl")
    with open(log_path, "w", encoding="utf-8") as log_fh:
        _write_log(log_fh, [{"config": cfg.to_dict()}])
        _train(cfg, model, ds, result, rng, log_fh)
    ckpt_path = os.path.join(out_dir, "model.ckpt")
    tensors = {name: p.value for name, p in model.named_parameters().items()}
    save_checkpoint(ckpt_path, cfg.to_dict(), tensors, _raw_ids(ds))
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
