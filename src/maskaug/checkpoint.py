"""Versioned binary container for named float64 arrays.

Layout (little-endian):

    magic b"MAUGCKPT1\\n"
    uint32  entry count
    per entry:
        uint16  name length, then the UTF-8 name
        uint8   ndim, then ndim * uint32 extents
        raw float64 payload, row-major

float64 payloads are written verbatim, so a save/load round trip is
byte-exact.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Mapping

import numpy as np

from .tensor import Tensor

MAGIC = b"MAUGCKPT1\n"


class CheckpointError(RuntimeError):
    """Raised for unreadable, truncated, or incompatible checkpoints."""


def save_arrays(arrays: Mapping[str, "Tensor | np.ndarray"], path) -> None:
    path = Path(path)
    chunks: list[bytes] = [MAGIC, struct.pack("<I", len(arrays))]
    for name, value in arrays.items():
        data = value.data if isinstance(value, Tensor) else np.asarray(value)
        data = np.asarray(data, dtype=np.float64)
        if not data.flags["C_CONTIGUOUS"]:  # ascontiguousarray would up-rank 0-d
            data = np.ascontiguousarray(data)
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", data.ndim))
        chunks.append(struct.pack(f"<{data.ndim}I", *data.shape))
        chunks.append(data.tobytes(order="C"))
    path.write_bytes(b"".join(chunks))


def load_arrays(path) -> dict[str, np.ndarray]:
    path = Path(path)
    try:
        blob = path.read_bytes()
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint not found: {path}") from None
    view = memoryview(blob)
    pos = 0

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(view):
            raise CheckpointError(f"truncated checkpoint: {path}")
        piece = view[pos : pos + n]
        pos += n
        return piece

    if bytes(take(len(MAGIC))) != MAGIC:
        raise CheckpointError(f"not a checkpoint file (bad magic): {path}")
    (count,) = struct.unpack("<I", take(4))
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        name = bytes(take(name_len)).decode("utf-8")
        (ndim,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        n_bytes = 8 * int(np.prod(shape, dtype=np.int64)) if ndim else 8
        data = np.frombuffer(take(n_bytes), dtype="<f8").reshape(shape).copy()
        out[name] = data
    if pos != len(view):
        raise CheckpointError(f"trailing bytes after checkpoint payload: {path}")
    return out
