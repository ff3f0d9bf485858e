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

A model file is such a container plus a JSON sidecar, `<path>.json`, that
describes the architecture; only `save_model` / `load_model` touch sidecars.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
import os
import struct
from pathlib import Path
from typing import Callable, Mapping

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


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_field_types(config) -> None:
    """Raise ValueError naming the first ill-typed field of a config dataclass.

    Fields annotated `int` take an integer, `tuple[int, ...]` a tuple of
    them, `float` a real number and `float | None` a real number or None; a
    bool is none of these. Sidecar and config-file values arrive from JSON,
    so without this a string or a fraction surfaces as an unrelated error
    deep inside the model, or not at all.
    """
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if field.type in ("int", int):
            kind, ok = "an int", _is_int(value)
        elif field.type == "tuple[int, ...]":
            kind, ok = "a tuple of ints", all(_is_int(v) for v in value)
        elif field.type in ("float", float):
            kind, ok = "a real number", _is_real(value)
        elif field.type == "float | None":
            kind, ok = "a real number or null", value is None or _is_real(value)
        else:
            continue
        if not ok:
            raise ValueError(f"{field.name} must be {kind}, got {value!r}")


def save_model(params: Mapping[str, "Tensor | np.ndarray"], meta: Mapping, path) -> None:
    """Arrays to `path`, `meta` (keys in the given order) to `<path>.json`.

    Both files are written in full to temporary names in the same directory
    and only then renamed into place, sidecar first, so no truncated file
    ever sits under a final name. A failed write keeps the previous pair; if
    the arrays rename fails, the previous sidecar is put back. A process
    killed between the two renames can still leave the new sidecar beside
    the old arrays, which `load_model` rejects only when a shape differs.
    """
    path = Path(path)
    sidecar = Path(str(path) + ".json")
    staged = [sidecar.with_name(sidecar.name + ".tmp"), path.with_name(path.name + ".tmp")]
    try:
        staged[0].write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
        save_arrays(params, staged[1])
        previous = sidecar.read_bytes() if sidecar.exists() else None
        os.replace(staged[0], sidecar)
        try:
            os.replace(staged[1], path)
        except OSError:
            if previous is None:
                sidecar.unlink(missing_ok=True)
            else:
                staged[0].write_bytes(previous)
                os.replace(staged[0], sidecar)
            raise
    finally:
        for tmp in staged:
            tmp.unlink(missing_ok=True)


def load_model(path, fmt: str, build: Callable) -> tuple[object, dict[str, Tensor]]:
    """(description, params) of a model file written by `save_model`.

    The sidecar must be a JSON object tagged `fmt`; `build(meta)` returns the
    description and a reference parameter set whose names and shapes the
    stored arrays must match. Every failure raises CheckpointError.
    """
    sidecar = Path(str(path) + ".json")
    try:
        meta = json.loads(sidecar.read_text(encoding="utf-8"))
    except OSError as exc:
        raise CheckpointError(f"cannot read model sidecar {sidecar}: {exc.strerror}") from None
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise CheckpointError(f"malformed sidecar {sidecar}: {exc}") from None
    if not isinstance(meta, dict) or meta.get("format") != fmt:
        raise CheckpointError(f"sidecar {sidecar} is not tagged {fmt!r}")
    try:
        model, reference = build(meta)
    except KeyError as exc:
        raise CheckpointError(f"sidecar {sidecar} lacks the key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"bad sidecar {sidecar}: {type(exc).__name__}: {exc}") from None
    arrays = load_arrays(path)
    if set(arrays) != set(reference):
        raise CheckpointError(f"parameter names in {path} do not match the architecture")
    for name, ref in reference.items():
        if arrays[name].shape != ref.data.shape:
            raise CheckpointError(
                f"parameter '{name}' in {path} has shape {arrays[name].shape}, "
                f"expected {ref.data.shape}"
            )
    return model, {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
