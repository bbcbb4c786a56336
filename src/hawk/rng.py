"""Seeded, splittable random streams.

Every source of randomness in the package is a numpy PCG64 generator derived
from a 64-bit master seed plus a sequence of purpose tags. Tags are hashed
with SHA-256 so stream derivation is stable across platforms and Python
processes (the built-in ``hash`` is salted and would not be).

Only ``Generator.random()`` is used for draws throughout the package; all
categorical sampling goes through cumulative tables. That keeps outputs
reproducible across numpy versions, which occasionally revise the fancier
distribution methods.
"""

from __future__ import annotations

import hashlib
from typing import Union

import numpy as np

_MASK64 = (1 << 64) - 1

Tag = Union[str, int]


def _tag_entropy(tag: Tag) -> int:
    if isinstance(tag, int):
        return tag & _MASK64
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def seed_sequence(master_seed: int, *tags: Tag) -> np.random.SeedSequence:
    """Deterministic seed material for (master seed, purpose tags)."""
    entropy = [master_seed & _MASK64] + [_tag_entropy(t) for t in tags]
    return np.random.SeedSequence(entropy)


def stream(master_seed: int, *tags: Tag) -> np.random.Generator:
    """An independent PCG64 stream for the given master seed and tags."""
    return np.random.Generator(np.random.PCG64(seed_sequence(master_seed, *tags)))


def derive_seed(master_seed: int, *tags: Tag) -> int:
    """A 64-bit child seed for handing to components that take plain seeds."""
    state = seed_sequence(master_seed, *tags).generate_state(2, np.uint64)
    return int(state[0])

