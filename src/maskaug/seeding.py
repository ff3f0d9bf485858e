"""Deterministic random-stream derivation from a single root seed.

Every consumer of randomness names its stream: the seed for
(root, "pretrain", "shuffle", epoch) is sha256 over the colon-joined parts,
truncated to 64 bits. Streams are therefore stable across runs, platforms,
and any parallel/serial execution split.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_rng(root: int, *parts: "str | int") -> np.random.Generator:
    material = ":".join([str(int(root)), *[str(p) for p in parts]]).encode("utf-8")
    digest = hashlib.sha256(material).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))
