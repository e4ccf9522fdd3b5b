"""Seeded randomness with named, independent sub-streams.

Every source of randomness in a run (parameter init, negative sampling,
shuffling, ...) draws from its own stream derived from the run seed and a
purpose string.  Adding or removing one consumer therefore never shifts the
draws seen by another, which is what makes ablations bit-comparable.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import DimensionError


class SeededRng:
    """Root of all randomness for one run.

    ``stream(name)`` returns a fresh ``numpy.random.Generator`` whose state
    depends only on ``(seed, name)``.  Calling it twice with the same name
    gives two generators that produce identical sequences.
    """

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF

    def stream(self, name: str) -> np.random.Generator:
        tag = zlib.crc32(name.encode("utf-8"))
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence([self.seed, tag])))


def rng_normal_init(rng: SeededRng, rows: int, cols: int, std: float, name: str = "init") -> np.ndarray:
    """Draw a rows x cols float32 matrix from N(0, std^2) out of rng's stream ``name``."""
    if rows < 1 or cols < 1:
        raise DimensionError(f"matrix dimensions must be >= 1, got {rows}x{cols}")
    if std <= 0:
        raise ValueError(f"std must be > 0, got {std}")
    return rng.stream(name).normal(0.0, std, size=(rows, cols)).astype(np.float32)
