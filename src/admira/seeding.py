"""Deterministic seed derivation so parallel and serial runs agree.

Every randomized component of an experiment draws from a substream derived
from (master seed, key path): ``derive_seed(master, "trial", 3)``. String
keys hash through SHA-256 to 32-bit integers, integer keys are reduced
mod 2**32, and the resulting tuple feeds ``numpy.random.SeedSequence``.
Derivation is order-independent across workers, so worker count never
changes the numbers.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["derive_seed", "derive_rng"]


def _key_to_int(key) -> int:
    if isinstance(key, bool):
        key = str(key)
    if isinstance(key, (int, np.integer)):
        return int(key) % (1 << 32)
    digest = hashlib.sha256(str(key).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


def derive_seed(master, *keys) -> int:
    """32-bit seed for the substream identified by (master, *keys)."""
    seq = np.random.SeedSequence([_key_to_int(master)] + [_key_to_int(k) for k in keys])
    return int(seq.generate_state(1)[0])


def derive_rng(master, *keys) -> np.random.Generator:
    """Generator seeded for the substream identified by (master, *keys)."""
    return np.random.default_rng(derive_seed(master, *keys))
