"""Deterministic, splittable random-number streams.

Every stochastic routine in the package draws from a stream derived from a
user seed plus an integer path, so that parallel replications are
reproducible independently of scheduling or worker count.
"""

from __future__ import annotations

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

__all__ = ["substream"]


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the PCG64 generator for ``(seed, *path)``.

    The same ``(seed, path)`` always yields the same stream; distinct paths
    yield statistically independent streams (numpy ``SeedSequence`` spawning).
    """
    ss = SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return Generator(PCG64(ss))
