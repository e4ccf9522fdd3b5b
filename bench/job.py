"""Workloads, the job each run repeats, its correctness checks, and the wrap points.

A job is what a user of the command line does end to end: train with the
per-epoch validation pass and checkpoint save (``train.run_train``),
evaluate the saved checkpoint (``train.run_evaluate``), and export the
category tree (``cli.main(["export-tree", ...])``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
from dataclasses import dataclass

import numpy as np

import treequant.checkpoint as CK
import treequant.cli as CLI
import treequant.core as C
import treequant.data as D
import treequant.metrics as ME
import treequant.models as M
import treequant.quantizer as Q
import treequant.train as T
import treequant.treeio as TIO
from treequant.config import config_from_dict
from treequant.rng import SeededRng

import datagen

LEVELS = [256, 32, 8]


@dataclass(frozen=True)
class Workload:
    task: str
    lists: bool           # list-completion data instead of user-item interactions
    size: dict            # generator arguments
    cage: dict            # the config's "cage" section

    def generate(self, path, seed) -> dict:
        write = datagen.write_lists if self.lists else datagen.write_interactions
        return write(path, seed, **self.size)

    def config(self, path, seed):
        return config_from_dict({
            "task": self.task,
            "data": {"path": str(path), "format": "lists" if self.lists else "generic-tsv"},
            "cage": self.cage,
            "model": {"dim": 64, "batch_size": 256, "seed": seed},
        })

    @property
    def quantized(self) -> bool:
        return bool(self.cage)


# Why these three: see BENCHMARK.json and bench/README.md.  The interaction
# workloads share one data shape; the list workload keeps the M scale's item
# density (about 25 occurrences per item), so the default frequency filter
# keeps most items.
_INTERACTIONS = {"n_users": 200, "n_items": 3000}
WORKLOADS = {
    "cf-cage": Workload("cf", False, _INTERACTIONS,
                        {"user_enabled": True, "item_enabled": True, "levels": LEVELS}),
    "ctr-plain": Workload("ctr", False, _INTERACTIONS, {}),
    "lists-cage": Workload("list-completion", True, {"n_lists": 600, "n_items": 360},
                           {"item_enabled": True, "levels": LEVELS}),
}


# ---------------------------------------------------------------------------
# Wrap points: (owner, attribute, span name[, count]).  Each function is
# replaced at the name its caller resolves.
# ---------------------------------------------------------------------------

def _units(report, *args, **kwargs):
    return {"units": report.count}


def _tree_bytes(result, tree, path, *args, **kwargs):
    return {"bytes": os.path.getsize(path)}


def _save_bytes(result, path, *args, **kwargs):
    return {"bytes": os.path.getsize(path)}


def _quantized_rows(trace, q, *args, **kwargs):
    rows = trace.indices.shape[1]
    return {"rows": rows, "dist_evals": rows * sum(q.level_sizes)}


def _examples(result, model, batch, *args, **kwargs):
    return {"examples": len(batch)}


def _adam_elements(result, optimizer, *args, **kwargs):
    return {"elements": sum(p.value.size for p, _ in optimizer.slots)}


def _negatives(result, *args, **kwargs):
    return {"negatives": len(result)}


# Phase boundaries: a handful of calls per job, installed in every run.
PHASES = [
    (T, "run_train", "train.run_train"),
    (T, "run_evaluate", "train.run_evaluate"),
    (T, "prepare_interactions", "train.prepare"),
    (T, "prepare_lists", "train.prepare"),
    (T, "build_model", "train.build_model"),
    (T, "evaluate_ranking", "metrics.evaluate", _units),
    (T, "evaluate_completion", "metrics.evaluate", _units),
    (T, "save_checkpoint", "checkpoint.save", _save_bytes),
]

# Layer spans: installed only for traced jobs.
LAYERS = [
    (D, "load_interactions", "data.load"),
    (D, "load_lists", "data.load"),
    (D, "leave_one_out", "data.split"),
    (D, "partition_lists", "data.split"),
    (D, "preprocess_lists", "data.preprocess"),
    (ME, "sample_negatives", "data.sample_negatives", _negatives),
    (T, "cf_bpr_step", "models.step", _examples),
    (T, "ctr_step", "models.step", _examples),
    (T, "seq_step", "models.step", _examples),
    (M.CfModel, "predict_topk", "models.predict"),
    (M.CtrModel, "predict_topk", "models.predict"),
    (M.SeqModel, "predict_completion", "models.predict"),
    (M, "quantize_batch", "quantizer.quantize_batch", _quantized_rows),
    (Q, "quantize_batch", "quantizer.quantize_batch", _quantized_rows),
    (M, "ste_backward_batch", "quantizer.ste_backward"),
    (CLI, "extract_tree", "quantizer.extract_tree"),
    (C.Adam, "step", "core.adam", _adam_elements),
    (M, "mlp_apply", "core.mlp"),
    (M, "mlp_backward", "core.mlp"),
    (M, "softmax_xent_batch", "core.softmax_xent"),
    (T, "load_checkpoint", "checkpoint.load"),
    (CLI, "load_checkpoint", "checkpoint.load"),
    (CLI, "write_tree_json", "treeio.write", _tree_bytes),
    (CLI, "write_tree_dot", "treeio.write", _tree_bytes),
]

# Spans that name a layer of the package rather than orchestration.
LAYER_PREFIXES = ("data.", "models.", "quantizer.", "core.", "metrics.", "checkpoint.", "treeio.")


# ---------------------------------------------------------------------------
# The job
# ---------------------------------------------------------------------------

def setup_once(cfg):
    """Load, build vocabularies, split and build the model, as run_train does."""
    if cfg.task == "list-completion":
        ds = T.prepare_lists(cfg, SeededRng(cfg.model.seed))
        return T.build_model(cfg, n_users=1, n_items=len(ds.item_vocab))
    ds = T.prepare_interactions(cfg)
    return T.build_model(cfg, n_users=len(ds.user_vocab), n_items=len(ds.item_vocab))


def train_examples(cfg, ds) -> int:
    """Training examples of a run: BPR triples, CTR rows or list targets."""
    if cfg.task == "list-completion":
        per_epoch = sum(len(targets) for _, targets in ds.train_pairs)
    else:
        positives = sum(1 for *_, label in ds.train if label in (None, 1))
        per_epoch = 2 * positives if cfg.task == "ctr" else positives
    return per_epoch * cfg.model.epochs


def run_job(rec, job_id, wl: Workload, cfg, out_dir):
    """Train, evaluate and export once; returns (facts, failed check names)."""
    tree_json = os.path.join(out_dir, "tree.json")
    tree_dot = os.path.join(out_dir, "tree.dot")
    rec.job = job_id
    try:
        with rec.span("bench.job"):
            result = T.run_train(cfg, out_dir=out_dir)
            report = T.run_evaluate(result.checkpoint_path, "val")
            with rec.span("bench.export"), contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = CLI.main(["export-tree", "--checkpoint", result.checkpoint_path,
                                 "--json", tree_json, "--dot", tree_dot])
    finally:
        rec.job = None

    with open(result.checkpoint_path, "rb") as fh:
        ckpt_bytes = fh.read()
    final = result.epoch_metrics[-1]
    facts = {
        "examples": train_examples(cfg, result.dataset),
        "steps": len(result.step_losses),
        "eval_units": report.count,
        "val": dict(sorted(report.values.items())),
        "checkpoint_bytes": len(ckpt_bytes),
        "checkpoint_sha256": hashlib.sha256(ckpt_bytes).hexdigest(),
    }
    failed = []
    if not all(math.isfinite(v) for loss in result.step_losses for v in loss.values()):
        failed.append("finite_losses")
    if final.values != report.values or final.count != report.count:
        failed.append("val_equals_run_evaluate")
    if not all(0.0 <= v <= 1.0 for v in report.values.values()):
        failed.append("metric_range")
    # export-tree writes a tree when there is a quantizer and refuses (exit 2) otherwise
    if code != (0 if wl.quantized else 2):
        failed.append("export_exit_code")
    elif wl.quantized and not _tree_matches(result.checkpoint_path, tree_json, tree_dot):
        failed.append("tree_paths")
    return facts, failed


def _tree_matches(ckpt_path, tree_json, tree_dot) -> bool:
    """The written tree is valid and its paths are the reloaded table's cascade."""
    tree = TIO.read_tree_json(tree_json)
    TIO.validate_tree(tree)
    model, _ = T.model_from_checkpoint(CK.load_checkpoint(ckpt_path))
    # export-tree picks the item side when there is one
    if getattr(model, "item_cage", None) is not None:
        cage, table = model.item_cage, model.items.rows.value
    else:
        cage, table = model.user_cage, model.users.rows.value
    paths = Q.quantize_batch(cage, table).indices.T
    with open(tree_dot, encoding="utf-8") as fh:
        dot_ok = fh.readline().startswith("digraph")
    return dot_ok and tree.level_sizes == LEVELS and np.array_equal(tree.paths, paths)
