"""Command-line surface: train, evaluate, export-tree, inspect-codes."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time

from .checkpoint import load_checkpoint
from .config import load_config
from .data import read_lines
from .errors import (CheckpointError, ConfigError, DataError, DimensionError,
                     DivergenceError)
from .quantizer import codebook_utilization, extract_tree, label_nmi, quantize_batch
from .train import model_from_checkpoint, run_evaluate, run_train
from .treeio import write_tree_dot, write_tree_json

log = logging.getLogger("treequant")


def _setup_logging():
    level = os.environ.get("TREEQUANT_LOG", "info").upper()
    logging.basicConfig(level=getattr(logging, level, logging.INFO),
                        format="%(levelname)s %(name)s: %(message)s")


def _quantizer_side(args):
    """Load args.checkpoint, rebuild its model and pick args.side: (checkpoint, side, quantizer, table rows)."""
    ckpt = load_checkpoint(args.checkpoint)
    model, _ = model_from_checkpoint(ckpt)
    sides = {table.role: (cage, table.rows.value) for table, cage in model.sides if cage is not None}
    if not sides:
        raise ConfigError("checkpoint contains no quantizer")
    side = args.side or ("item" if "item" in sides else "user")
    if side not in sides:
        raise ConfigError(f"checkpoint has no {side}-side quantizer")
    return ckpt, side, *sides[side]


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    started = time.monotonic()
    result = run_train(cfg, out_dir=args.out)
    print(f"wrote {result.checkpoint_path} and {result.log_path} "
          f"({(time.monotonic() - started) * 1000.0:.0f} ms)")
    if result.epoch_metrics:
        print(json.dumps(result.epoch_metrics[-1].to_dict(), sort_keys=True))
    return 0


def cmd_evaluate(args) -> int:
    overrides = {}
    if args.n_negatives is not None:
        overrides["n_negatives"] = args.n_negatives
    if args.eval_seed is not None:
        overrides["seed"] = args.eval_seed
    report = run_evaluate(args.checkpoint, split=args.split, overrides=overrides or None)
    print(json.dumps(report.to_dict(), sort_keys=True))
    return 0


def cmd_export_tree(args) -> int:
    _, side, quantizer, embeddings = _quantizer_side(args)
    tree = extract_tree(quantizer, embeddings)
    write_tree_json(tree, args.json)
    write_tree_dot(tree, args.dot)
    print(f"exported {side} tree: {tree.n_entities} entities over levels {tree.level_sizes}")
    return 0


def cmd_inspect_codes(args) -> int:
    ckpt, side, quantizer, embeddings = _quantizer_side(args)
    trace = quantize_batch(quantizer, embeddings)
    utilization = codebook_utilization(trace, quantizer)
    for level, (size, frac) in enumerate(zip(quantizer.level_sizes, utilization), start=1):
        print(f"level {level}: {size} codes, utilization {frac:.4f}")

    if args.labels:
        id_to_row = {raw: row for row, raw in enumerate(ckpt.vocab[f"{side}s"])}
        first_line, labelled, skipped = {}, {}, 0  # raw id -> its line; table row -> category
        for lineno, line in read_lines(args.labels, ConfigError):
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ConfigError(f"{args.labels}: line {lineno}: expected 'id<TAB>category'")
            raw, category = parts
            if raw in first_line:
                raise ConfigError(f"{args.labels}: line {lineno}: entity {raw!r} already labelled on line "
                                  f"{first_line[raw]}")
            first_line[raw] = lineno
            if raw not in id_to_row:
                skipped += 1
                log.warning("label line %d: unknown entity %r, skipped", lineno, raw)
                continue
            labelled[id_to_row[raw]] = category
        if skipped:
            print(f"skipped {skipped} label(s) for unknown entities")
        rows, categories = list(labelled), list(labelled.values())
        if not rows:
            print(f"0 categories: no labelled {side} to compare codes with")
            return 0
        nmi = ", ".join(f"level {level} NMI {label_nmi(codes[rows], categories):.4f}"
                        for level, codes in enumerate(trace.indices, start=1))
        print(f"{len(set(categories))} categories: {len(rows)} {side}s, {nmi}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="treequant",
                                     description="Train recommenders that learn category trees.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="run", help="output directory for checkpoint and log")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a held-out split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=["val", "test"], default="test")
    p.add_argument("--n-negatives", type=int, default=None)
    p.add_argument("--eval-seed", type=int, default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("export-tree", help="write the learned category tree as JSON and DOT")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--json", required=True)
    p.add_argument("--dot", required=True)
    p.add_argument("--side", choices=["user", "item"], default=None)
    p.set_defaults(func=cmd_export_tree)

    p = sub.add_parser("inspect-codes", help="codebook utilization and optional label NMI")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--labels", default=None, help="TSV file: entity raw id, category label")
    p.add_argument("--side", choices=["user", "item"], default=None)
    p.set_defaults(func=cmd_inspect_codes)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError, CheckpointError, DimensionError, DivergenceError,
            OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
