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
from .quantizer import code_purity, codebook_utilization, extract_tree, quantize_batch
from .train import model_from_checkpoint, run_evaluate, run_train
from .treeio import write_tree_dot, write_tree_json

log = logging.getLogger("treequant")


def _setup_logging():
    level = os.environ.get("TREEQUANT_LOG", "info").upper()
    logging.basicConfig(level=getattr(logging, level, logging.INFO),
                        format="%(levelname)s %(name)s: %(message)s")


def _quantizer_side(model, side: str | None):
    sides = {table.role: (cage, table.rows.value) for table, cage in model.sides if cage is not None}
    if not sides:
        raise ConfigError("checkpoint contains no quantizer")
    if side is None:
        side = "item" if "item" in sides else "user"
    if side not in sides:
        raise ConfigError(f"checkpoint has no {side}-side quantizer")
    return side, *sides[side]


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
    ckpt = load_checkpoint(args.checkpoint)
    model, _ = model_from_checkpoint(ckpt)
    side, quantizer, embeddings = _quantizer_side(model, args.side)
    tree = extract_tree(quantizer, embeddings)
    write_tree_json(tree, args.json)
    write_tree_dot(tree, args.dot)
    print(f"exported {side} tree: {tree.n_entities} entities over levels {tree.level_sizes}")
    return 0


def cmd_inspect_codes(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    model, _ = model_from_checkpoint(ckpt)
    side, quantizer, embeddings = _quantizer_side(model, args.side)
    trace = quantize_batch(quantizer, embeddings)
    utilization = codebook_utilization(trace, quantizer)
    for level, (size, frac) in enumerate(zip(quantizer.level_sizes, utilization), start=1):
        print(f"level {level}: {size} codes, utilization {frac:.4f}")

    if args.labels:
        raw_ids = (ckpt.vocab or {}).get("items" if side == "item" else f"{side}s", [])
        id_to_row = {raw: row for row, raw in enumerate(raw_ids)}
        level1 = trace.indices[0]
        codes, labels, skipped = [], [], 0
        for lineno, line in read_lines(args.labels, ConfigError):
            line = line.rstrip("\r\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ConfigError(f"{args.labels}: line {lineno}: expected 'id<TAB>category'")
            raw, category = parts
            if raw not in id_to_row:
                skipped += 1
                log.warning("label line %d: unknown entity %r, skipped", lineno, raw)
                continue
            codes.append(int(level1[id_to_row[raw]]))
            labels.append(category)
        if skipped:
            print(f"skipped {skipped} label(s) for unknown entities")
        report = code_purity(codes, labels)
        print(f"{report.total} categories: {report.exclusive} on one code, "
              f"{report.under_10} under 10, {report.under_20} under 20, "
              f"{report.under_100} under 100 codes")
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

    p = sub.add_parser("inspect-codes", help="codebook utilization and optional label purity")
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
