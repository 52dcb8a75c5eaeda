"""Counter-based random streams.

Every random draw in the lab comes from a Philox generator keyed by
(master seed, trial key, stream role). Streams for distinct keys are
independent regardless of the order they are consumed in, so trials can run
in parallel, or in any order, without changing a single draw.
"""
from __future__ import annotations

from enum import IntEnum

import numpy as np

from ..errors import BadParam


class Role(IntEnum):
    """Reserved stream roles inside a single trial."""

    LATENT = 0           # train-side latent factors
    LATENT_TEST = 1      # test-side latent factors
    LATENT_TEST_BAD = 2  # fresh right factors for the rowspan violation
    MODEL = 3            # coefficient vector
    RESPONSE_NOISE = 4   # additive noise on responses
    NOISE = 5            # additive noise inside corrupt()
    MASK = 6             # observation mask inside corrupt()
    WEIGHTS = 7          # donor combination weights for panels


def child(seed, *key) -> np.random.SeedSequence:
    """Extend a seed with further key components.

    ``seed`` is either an integer >= 0 (used as entropy) or an existing
    SeedSequence whose spawn key gets the components appended. Every
    generator and trial builder derives its streams through this function,
    so a negative seed raises ``BadParam`` here.
    """
    key = tuple(int(k) for k in key)
    if isinstance(seed, np.random.SeedSequence):
        base = tuple(int(k) for k in seed.spawn_key)
        return np.random.SeedSequence(entropy=seed.entropy, spawn_key=base + key)
    if int(seed) < 0:
        raise BadParam(f"seed={seed} must be >= 0")
    return np.random.SeedSequence(entropy=int(seed), spawn_key=key)


def substream(seed, *key) -> np.random.Generator:
    """A Philox generator for the given (seed, key) stream."""
    return np.random.Generator(np.random.Philox(child(seed, *key)))
