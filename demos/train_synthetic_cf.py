"""Train a small matrix-factorization model with an item-side quantizer on a
synthetic dataset with planted categories, then export the learned tree.

Run with: python3 demos/train_synthetic_cf.py
Artifacts land in demos/out/.
"""

import json
import os

import numpy as np

from treequant.checkpoint import load_checkpoint
from treequant.config import config_from_dict
from treequant.quantizer import codebook_utilization, extract_tree, label_nmi, quantize_batch
from treequant.train import model_from_checkpoint, run_evaluate, run_train
from treequant.treeio import write_tree_dot, write_tree_json

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

# --- synthetic data: 400 items in 4 planted categories, 100 users ----------
gen = np.random.default_rng(42)
n_items, n_users, per_user = 400, 100, 20
item_cat = np.repeat(np.arange(4), n_items // 4)
lines = []
for u in range(n_users):
    liked = u % 4
    in_cat = np.flatnonzero(item_cat == liked)
    out_cat = np.flatnonzero(item_cat != liked)
    picks = np.concatenate([gen.choice(in_cat, 18, replace=False),
                            gen.choice(out_cat, per_user - 18, replace=False)])
    gen.shuffle(picks)  # so the leave-one-out holdout isn't biased off-category
    for t, i in enumerate(picks):
        lines.append(f"u{u}\ti{i}\t1\t{t}")
data_path = os.path.join(OUT, "interactions.tsv")
with open(data_path, "w") as fh:
    fh.write("\n".join(lines) + "\n")

# --- train ------------------------------------------------------------------
cfg = config_from_dict({
    "task": "cf",
    "data": {"path": data_path, "format": "generic-tsv"},
    "cage": {"item_enabled": True, "levels": [4], "alpha": 1.0, "beta": 1.0, "omega_q": 1.0},
    "model": {"dim": 16, "lr": 0.03, "batch_size": 256, "epochs": 40, "seed": 0},
    "eval": {"ks": [5, 10], "n_negatives": 50},
})
result = run_train(cfg, out_dir=OUT)
print("final validation metrics:", json.dumps(result.epoch_metrics[-1].to_dict()["metrics"]))

# --- evaluate the saved checkpoint on the held-out test split ---------------
report = run_evaluate(result.checkpoint_path, split="test")
print("test metrics:", json.dumps(report.to_dict()["metrics"]))

# --- inspect what the quantizer learned -------------------------------------
ckpt = load_checkpoint(result.checkpoint_path)
model, _ = model_from_checkpoint(ckpt)
trace = quantize_batch(model.item_cage, model.items.rows.value)
print("codebook utilization:", codebook_utilization(trace, model.item_cage))

# our planted categories act as labels; the raw ids preserve the item index.  The labels file
# feeds the command line: treequant inspect-codes --checkpoint demos/out/model.ckpt --labels demos/out/labels.tsv
labels = [f"cat{item_cat[int(raw[1:])]}" for raw in ckpt.vocab["items"]]
with open(os.path.join(OUT, "labels.tsv"), "w") as fh:
    fh.write("".join(f"{raw}\t{label}\n" for raw, label in zip(ckpt.vocab["items"], labels)))
print("label NMI per level:", [round(label_nmi(codes, labels), 4) for codes in trace.indices])

tree = extract_tree(model.item_cage, model.items.rows.value)
write_tree_json(tree, os.path.join(OUT, "tree.json"))
write_tree_dot(tree, os.path.join(OUT, "tree.dot"))
print("wrote", os.path.join(OUT, "tree.json"), "and tree.dot")
