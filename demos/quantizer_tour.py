"""A guided tour of the cascaded quantizer on a tiny hand-made example.

Run with: python3 demos/quantizer_tour.py
"""

import numpy as np

from treequant.quantizer import (batch_cage_loss_sum, extract_tree,
                                 make_quantizer, quantize_batch,
                                 ste_backward_batch)
from treequant.rng import SeededRng

rng = SeededRng(7)

# Two levels: 4 fine codes feeding into 2 coarse codes.
q = make_quantizer(rng, dim=2, sizes=[4, 2], alpha=1.0, beta=1.0, init_std=1.0)

print("codebook sizes:", q.level_sizes)
for level, book in enumerate(q.codebooks, start=1):
    print(f"  level {level}:\n{book.value}")

# Quantize one embedding, a batch of one row: level 1 searches with e, level 2
# searches with the level-1 winner, producing a fine-to-coarse path of indices.
# The trace holds the indices; each chosen code is a row of its level's codebook.
e = np.array([0.4, -0.3], dtype=np.float32)
trace = quantize_batch(q, e[None, :])
codes = np.stack([book.value[j] for book, j in zip(q.codebooks, trace.indices[:, 0])])  # (levels, dim)
print("\ninput e:", e)
print("chosen path (fine -> coarse):", trace.indices[:, 0].tolist())
print("chosen codes:", [c.round(3) for c in codes])
print("fused z = e + alpha * mean(codes):", trace.fused[0].round(3))

# The two penalties are numerically equal in the forward pass; they only
# differ in which side the gradient reaches.  l_quant sums the distances the
# search returned; l_commit recomputes them from e and the chosen codes.
l_quant = float(trace.sq_dists.sum())
level_inputs = np.concatenate([e[None, :], codes[:-1]]).astype(np.float64)
l_commit = float(((level_inputs - codes.astype(np.float64)) ** 2).sum())
print(f"\nl_quant = {l_quant:.6f}")
print(f"l_commit = {l_commit:.6f}  (same number, different gradient route)")
print(f"l_cage = l_quant + beta * l_commit = {batch_cage_loss_sum(trace, [0], q.beta):.6f}")

# Straight-through routing: the task gradient reaches e scaled by (1 + alpha)
# and never touches the codebooks; the penalties move codes toward inputs and
# inputs toward codes.
grad_z = np.array([1.0, 0.0], dtype=np.float32)
grad_e, code_grads = ste_backward_batch(q, trace, grad_z[None, :], [0], weight_cage=1.0)
print("\ngrad_z:", grad_z, "-> grad_e:", grad_e[0].round(3))
for level, (idx, g) in enumerate(zip(trace.indices[:, 0], code_grads[:, 0]), start=1):
    print(f"  codebook level {level}, row {idx} gets {g.round(3)}")

# Freezing the quantizer turns the assignments into an explicit category tree.
entities = rng.stream("demo-entities").normal(size=(8, 2)).astype(np.float32)
tree = extract_tree(q, entities)
print("\ntree over 8 entities:")
print("  per-entity paths:\n", tree.paths)
print("  level-1 -> level-2 parents:", tree.parents[0])
