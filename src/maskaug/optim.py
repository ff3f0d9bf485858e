"""Adam with bias correction, updated in place over one flat arena.

`AdamState` copies the parameters into one contiguous float64 buffer and
hands out, per name, a trainable Tensor whose data views into it; the
gradient and both moments live in buffers of the same layout. Each step is
one `adam_step(state, clip_norm)` call: it moves every parameter's `.grad`
into its gradient view, rescales the gradients with `clip_by_global_norm`
when `clip_norm` is set, then updates the whole buffers with no per-step
allocation. The elementwise operations and their order are those of the
per-tensor formula, so the parameters keep their bits.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .tensor import Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # moment decay rates, denominator guard


def _views(buffer: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Consecutive slices of a flat `buffer`, reshaped to `shapes`."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(buffer[start : start + size].reshape(shape))
        start += size
    return views


class AdamState:
    """The arena: flat parameter, gradient, `m` and `v` buffers plus scratch.

    `params`, `grads`, `m` and `v` map each parameter name, in the caller's
    order, to its view of the matching buffer (`params` as trainable
    Tensors); `step` counts the updates made.
    """

    def __init__(self, params: Mapping[str, Tensor], lr: float):
        self.lr = lr
        self.step = 0
        self._shapes = [p.data.shape for p in params.values()]
        size = sum(math.prod(shape) for shape in self._shapes)
        self._flat, self._grad = np.empty(size), np.zeros(size)
        self._m, self._v = np.zeros(size), np.zeros(size)
        self._scratch = np.empty((2, size))
        self.params: dict[str, Tensor] = {}
        for (name, p), view in zip(params.items(), _views(self._flat, self._shapes)):
            view[...] = p.data
            self.params[name] = Tensor(view, requires_grad=True)
        names = list(params)
        self.grads = dict(zip(names, _views(self._grad, self._shapes)))
        self.m = dict(zip(names, _views(self._m, self._shapes)))
        self.v = dict(zip(names, _views(self._v, self._shapes)))
        self._squares = _views(self._scratch[0], self._shapes)

    def snapshot(self) -> dict[str, Tensor]:
        """A copy of the parameters, name -> trainable Tensor over one new buffer."""
        views = _views(self._flat.copy(), self._shapes)
        return {name: Tensor(view, requires_grad=True) for name, view in zip(self.params, views)}


def clip_by_global_norm(state: AdamState, max_norm: float) -> None:
    """Rescale the arena's gradients in place so their joint L2 norm is at most max_norm."""
    np.multiply(state._grad, state._grad, out=state._scratch[0])
    # summed view by view in name order, as the per-tensor norm was, so the factor keeps its
    # bits; np.add.reduce is np.sum without its Python-level wrapper
    norm = float(np.sqrt(sum(float(np.add.reduce(sq, axis=None)) for sq in state._squares)))
    if norm <= max_norm or norm == 0.0:
        return
    state._grad *= max_norm / norm


def adam_step(state: AdamState, clip_norm: float | None = None) -> None:
    """One bias-corrected Adam update of the parameters, in place.

    Moves each parameter's `.grad` into the arena (and clears it), clips the
    gradients to joint norm `clip_norm` unless it is None, then per element:
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g), and
    p -= (lr * m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps).
    """
    for (name, p), view in zip(state.params.items(), state.grads.values()):
        g = p.grad
        if g is None or g.shape != view.shape:
            got = None if g is None else g.shape
            raise ValueError(f"gradient for '{name}' is {got}, parameter shape is {view.shape}")
        view[...] = g
        p.grad = None
    if clip_norm is not None:
        clip_by_global_norm(state, clip_norm)
    state.step += 1
    t = state.step
    g, m, v = state._grad, state._m, state._v
    a, b = state._scratch
    m *= BETA1
    np.multiply(g, 1.0 - BETA1, out=a)
    m += a
    v *= BETA2
    np.multiply(g, g, out=a)
    a *= 1.0 - BETA2
    v += a
    np.divide(m, 1.0 - BETA1**t, out=a)
    a *= state.lr
    np.divide(v, 1.0 - BETA2**t, out=b)
    np.sqrt(b, out=b)
    b += EPS
    a /= b
    state._flat -= a
