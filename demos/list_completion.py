"""List completion with auxiliary tree-classification heads.

Builds synthetic themed lists, trains the mean-pool next-item model with an
item-side quantizer, and shows top-k completions for a fresh prefix.

Run with: python3 demos/list_completion.py
"""

import os

import numpy as np

from treequant.config import config_from_dict
from treequant.train import run_train

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

# Lists mostly stay within one of 3 themes of 30 items each.
gen = np.random.default_rng(7)
themes = [list(range(t * 30, (t + 1) * 30)) for t in range(3)]
lines = []
for _ in range(150):
    theme = themes[int(gen.integers(0, 3))]
    items = gen.choice(theme, size=8, replace=False)
    lines.append(" ".join(f"i{i}" for i in items))
data_path = os.path.join(OUT, "lists.txt")
with open(data_path, "w") as fh:
    fh.write("\n".join(lines) + "\n")

cfg = config_from_dict({
    "task": "list-completion",
    "data": {"path": data_path, "format": "lists", "min_freq": 2},
    "cage": {"item_enabled": True, "levels": [6, 3], "omega_c": 1.0},
    "model": {"dim": 16, "hidden": [16], "lr": 0.01, "batch_size": 128,
              "epochs": 10, "seed": 3},
    "eval": {"ks": [5, 10], "n_negatives": 20},
})
result = run_train(cfg)
model, ds = result.model, result.dataset

print("validation metrics by epoch:")
for epoch, report in enumerate(result.epoch_metrics, start=1):
    values = ", ".join(f"{k}={v:.3f}" for k, v in sorted(report.values.items()))
    print(f"  epoch {epoch}: {values}")

# complete a held-out prefix
prefix, targets = ds.test_pairs[0]
completion = model.predict_completion(prefix, k=5, exclude=set(prefix))
readable = lambda idx_list: [ds.item_vocab.ids[i] for i in idx_list]
print("\nprefix:", readable(prefix))
print("true continuation:", readable(targets))
print("predicted top-5:", readable(completion))
