"""Finite-difference gradient verification.

The numeric side never touches the reverse-mode machinery: it re-runs the
forward function with perturbed copies of the input arrays and forms
central differences, so it stays an independent oracle for the analytic
gradients.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor

STEP = 1e-5  # central-difference step


def numeric_gradient(
    f: Callable[[Sequence[np.ndarray]], float],
    arrays: Sequence[np.ndarray],
    index: int,
) -> np.ndarray:
    """Central-difference d f / d arrays[index], elementwise, with step STEP."""
    arrays = [np.array(a, dtype=np.float64) for a in arrays]
    target = arrays[index]
    grad = np.zeros_like(target)
    flat = target.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + STEP
        hi = f(arrays)
        flat[i] = orig - STEP
        lo = f(arrays)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * STEP)
    return grad


def gradient_disagreement(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst elementwise disagreement, relative where the magnitudes allow.

    Per element: |a - n|, divided by max(|a|, |n|) whenever that max is
    itself above the absolute scale, so zero gradients compare absolutely.
    """
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    diff = np.abs(a - n)
    mag = np.maximum(np.abs(a), np.abs(n))
    rel = np.where(mag > 1e-6, diff / np.maximum(mag, 1e-300), diff)
    if rel.size == 0:
        return 0.0
    return float(rel.max())


def check_gradients(
    build: Callable[[Sequence[Tensor]], Tensor],
    arrays: Sequence[np.ndarray],
) -> float:
    """Compare reverse-mode gradients of `build` against central differences.

    `build` maps a list of leaf Tensors to a scalar Tensor. Returns the worst
    disagreement over all inputs (see gradient_disagreement).
    """
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(leaves)
    if out.data.shape != ():
        raise ValueError(f"check_gradients needs a scalar output, got {out.shape}")
    out.backward()

    def run(arrs: Sequence[np.ndarray]) -> float:
        return float(build([Tensor(a) for a in arrs]).data)

    worst = 0.0
    for i, leaf in enumerate(leaves):
        analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        numeric = numeric_gradient(run, arrays, i)
        worst = max(worst, gradient_disagreement(analytic, numeric))
    return worst
