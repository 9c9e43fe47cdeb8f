"""Deterministic seed splitting.

One 64-bit master seed per experiment; every consumer (data, teacher,
noise, test points, ...) gets its own substream derived from the master
seed and a small integer path. Substreams are independent of worker
count and of the order in which they are drawn.
"""

from __future__ import annotations

import numpy as np

# Consumer tags. Stable; changing them changes every derived stream.
DATA = 1
TEACHER = 2
NOISE = 3
TEST = 4


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Generator for the substream at ``(master_seed, *path)``.

    Uses ``SeedSequence(entropy=master_seed, spawn_key=path)``, so the same
    (seed, path) pair always yields the same stream regardless of how many
    other streams were derived.
    """
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(p) for p in path))
    return np.random.default_rng(ss)
