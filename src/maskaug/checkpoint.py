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
import math
import numbers
import os
import struct
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .tensor import Tensor

MAGIC = b"MAUGCKPT1\n"

# a model's parameters, name -> (shape, init), in draw and file order; init is the
# std of a zero-mean normal draw or a function of the shape that draws nothing
Layout = Mapping[str, tuple[tuple[int, ...], float | Callable]]


class CheckpointError(RuntimeError):
    """Raised for unreadable, truncated, or incompatible checkpoints."""


def save_arrays(arrays: Mapping[str, "Tensor | np.ndarray"], path) -> None:
    path = Path(path)
    chunks: list[bytes] = [MAGIC, struct.pack("<I", len(arrays))]
    for name, value in arrays.items():
        data = np.asarray(value.data if isinstance(value, Tensor) else value, dtype=np.float64)
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
        try:
            name = bytes(take(name_len)).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"parameter name is not UTF-8 in checkpoint: {path}") from None
        if name in out:
            raise CheckpointError(f"parameter '{name}' is stored twice in checkpoint: {path}")
        (ndim,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        n_bytes = 8 * math.prod(shape)  # Python ints: extents past int64 cannot wrap around
        payload = np.frombuffer(take(n_bytes), dtype="<f8")
        try:
            out[name] = payload.reshape(shape).copy()
        except ValueError:  # a zero extent beside ones whose product NumPy cannot index
            raise CheckpointError(f"array extents too large in checkpoint: {path}") from None
    if pos != len(view):
        raise CheckpointError(f"trailing bytes after checkpoint payload: {path}")
    return out


def is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _in_interval(value, interval: str) -> bool:
    """Whether `value` lies in an interval such as "[0, 1)" or "(0, inf]"; NaN lies in none."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    above = lo <= value if interval[0] == "[" else lo < value
    return above and (value <= hi if interval[-1] == "]" else value < hi)


def check_field_types(config, **bounds: int | str | tuple) -> None:
    """Raise ValueError naming the first ill-typed field of a config dataclass,
    then the first field named in `bounds` that breaks its bound: an int is a
    least value, a string an interval and a tuple the allowed values.

    Fields annotated `int` take an integer, `tuple[int, ...]` a tuple of
    them, `float` a real number and `float | None` a real number or None; a
    bool is none of these. Sidecar and config-file values arrive from JSON,
    so without this a string or a fraction surfaces as an unrelated error
    deep inside the model, or not at all.
    """
    types = {}
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        types[field.name] = field.type
        if field.type in ("int", int):
            kind, ok = "an int", is_int(value)
        elif field.type == "tuple[int, ...]":
            kind, ok = "a tuple of ints", all(is_int(v) for v in value)
        elif field.type in ("float", float):
            kind, ok = "a real number", _is_real(value)
        elif field.type == "float | None":
            kind, ok = "a real number or null", value is None or _is_real(value)
        else:
            continue
        if not ok:
            raise ValueError(f"{field.name} must be {kind}, got {value!r}")
    for name, bound in bounds.items():
        value = getattr(config, name)
        if isinstance(bound, tuple) and value not in bound:
            raise ValueError(f"{name} must be one of {', '.join(map(repr, bound))}, got {value!r}")
        # None has passed the type check only where the field's type takes it
        if isinstance(bound, str) and value is not None and not _in_interval(value, bound):
            null = " or be null" if types[name] == "float | None" else ""
            raise ValueError(f"{name} must lie in {bound}{null}, got {value}")
        if isinstance(bound, int) and value < bound:
            raise ValueError(f"{name} must be >= {bound}, got {value}")


def draw_params(layout: Layout, rng: np.random.Generator) -> dict[str, Tensor]:
    """Fresh trainable parameters for `layout`, drawn from `rng` in its order."""
    params = {}
    for name, (shape, init) in layout.items():
        data = init(shape) if callable(init) else rng.normal(0.0, init, size=shape)
        params[name] = Tensor(data, requires_grad=True)
    return params


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

    The sidecar must be a JSON object tagged `fmt`; `build(meta, stored)`,
    given the number of stored arrays, returns the description and the Layout
    whose names and shapes the stored arrays must match, and every stored
    value must be finite. A path that is a directory raises
    IsADirectoryError; every other failure raises CheckpointError.
    """
    arrays = load_arrays(path)  # first, so the error names the path the caller gave
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
        model, layout = build(meta, len(arrays))
    except KeyError as exc:
        raise CheckpointError(f"sidecar {sidecar} lacks the key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"bad sidecar {sidecar}: {type(exc).__name__}: {exc}") from None
    missing, unexpected = sorted(set(layout) - set(arrays)), sorted(set(arrays) - set(layout))
    if missing or unexpected:
        raise CheckpointError(
            f"parameter names in {path} do not match the architecture: missing {len(missing)} "
            f"{missing[:3]}, unexpected {len(unexpected)} {unexpected[:3]}"
        )
    for name, (shape, _) in layout.items():
        if arrays[name].shape != shape:
            raise CheckpointError(
                f"parameter '{name}' in {path} has shape {arrays[name].shape}, expected {shape}"
            )
        if not np.isfinite(arrays[name]).all():
            raise CheckpointError(f"parameter '{name}' in {path} holds NaN or inf")
    return model, {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
