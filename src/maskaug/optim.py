"""Adam with bias correction, as a pure update over named parameters."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # moment decay rates, denominator guard


@dataclass(frozen=True)
class AdamState:
    """Per-parameter first/second moments plus the shared step counter."""

    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    lr: float = 1e-3


def init_adam(params: dict[str, Tensor], lr: float = 1e-3) -> AdamState:
    zeros = lambda: {k: np.zeros_like(p.data) for k, p in params.items()}
    return AdamState(step=0, m=zeros(), v=zeros(), lr=lr)


def adam_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: AdamState,
) -> tuple[dict[str, Tensor], AdamState]:
    """One bias-corrected Adam update. Pure: inputs are never mutated."""
    t = state.step + 1
    new_params: dict[str, Tensor] = {}
    new_m: dict[str, np.ndarray] = {}
    new_v: dict[str, np.ndarray] = {}
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != p.data.shape:
            raise ValueError(
                f"grad shape {g.shape} != param shape {p.data.shape} for '{name}'"
            )
        m = BETA1 * state.m[name] + (1.0 - BETA1) * g
        v = BETA2 * state.v[name] + (1.0 - BETA2) * (g * g)
        m_hat = m / (1.0 - BETA1**t)
        v_hat = v / (1.0 - BETA2**t)
        updated = p.data - state.lr * m_hat / (np.sqrt(v_hat) + EPS)
        new_params[name] = Tensor(updated, requires_grad=True)
        new_m[name] = m
        new_v[name] = v
    return new_params, AdamState(step=t, m=new_m, v=new_v, lr=state.lr)


def global_norm(grads: dict[str, np.ndarray]) -> float:
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.asarray(g) ** 2))
    return float(np.sqrt(total))


def clip_by_global_norm(
    grads: dict[str, np.ndarray], max_norm: float
) -> dict[str, np.ndarray]:
    """Rescale all gradients so their joint L2 norm is at most max_norm."""
    norm = global_norm(grads)
    if norm <= max_norm or norm == 0.0:
        return dict(grads)
    factor = max_norm / norm
    return {k: np.asarray(g) * factor for k, g in grads.items()}
