"""Dense float64 tensors with reverse-mode automatic differentiation.

Every continuous quantity in this package (embeddings, hidden states,
logits, losses) lives in a Tensor. Ops build a graph of parent links as
they run; Tensor.backward() replays it in reverse topological order.
Tensors are treated as immutable once created: every op allocates a new
array and never writes into its inputs, so a recorded graph stays valid.

Everything is float64. Softmax and the log-likelihood losses subtract the
row maximum before exponentiating, so finite inputs never produce NaN/Inf.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.special import erf

MASK_NEG = -1e30  # additive score mask: never wins a max, underflows to exactly 0 in softmax
_LN_EPS = 1e-5  # layer_norm's variance floor


class Tensor:
    """A float64 ndarray plus an optional gradient and graph linkage."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def backward(self) -> None:
        """Seed this tensor's gradient with ones and accumulate into every reachable leaf."""
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        _accumulate(self, np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to `shape` after numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def _bwd(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _node(out_data, (a, b), _bwd)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def _bwd(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(out_data, (a, b), _bwd)


def scale(x, s: float) -> Tensor:
    x = as_tensor(x)
    s = float(s)

    def _bwd(g):
        _accumulate(x, g * s)

    return _node(x.data * s, (x,), _bwd)


def matmul(a, b) -> Tensor:
    """Matrix product; `a` may carry leading batch axes, inner extents must agree.

    A weight product, (..., H) @ (H, N), folds the batch axes of `a` into
    rows, so the forward pass and both gradients are single 2-d GEMMs and
    the weight gradient is never built per batch entry and summed down.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(f"matmul inner extents disagree: {a.shape} @ {b.shape}")
    if b.ndim == 2 and a.ndim > 2:
        a2 = a.data.reshape(-1, a.data.shape[-1])
        out_data = (a2 @ b.data).reshape(a.data.shape[:-1] + b.data.shape[1:])

        def _bwd_folded(g):
            g2 = g.reshape(-1, g.shape[-1])
            if a.requires_grad:
                _accumulate(a, (g2 @ b.data.T).reshape(a.data.shape))
            if b.requires_grad:
                _accumulate(b, a2.T @ g2)

        return _node(out_data, (a, b), _bwd_folded)

    out_data = np.matmul(a.data, b.data)

    def _bwd(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            _accumulate(a, _unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            _accumulate(b, _unbroadcast(gb, b.data.shape))

    return _node(out_data, (a, b), _bwd)


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------


def reshape(x, shape: Sequence[int]) -> Tensor:
    x = as_tensor(x)
    shape = tuple(shape)
    out_data = x.data.reshape(shape)

    def _bwd(g):
        _accumulate(x, g.reshape(x.data.shape))

    return _node(out_data, (x,), _bwd)


def transpose(x, axes: Sequence[int] | None = None) -> Tensor:
    x = as_tensor(x)
    if axes is None:
        axes = tuple(reversed(range(x.ndim)))
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    out_data = np.transpose(x.data, axes)

    def _bwd(g):
        _accumulate(x, np.transpose(g, inverse))

    return _node(out_data, (x,), _bwd)


def concat(tensors: Sequence, axis: int = -1) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def _bwd(g):
        for t, piece in zip(ts, np.split(g, splits, axis=axis)):
            _accumulate(t, piece)

    return _node(out_data, tuple(ts), _bwd)


def slice_axis(x, axis: int, start: int, stop: int) -> Tensor:
    x = as_tensor(x)
    index = [slice(None)] * x.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)
    out_data = x.data[index].copy()

    def _bwd(g):
        gx = np.zeros_like(x.data)
        gx[index] = g
        _accumulate(x, gx)

    return _node(out_data, (x,), _bwd)


def unfold_windows(x, width: int) -> Tensor:
    """Slide a window of `width` rows over axis 1 of a (B, T, E) tensor.

    Returns (B, T-width+1, width*E); each output row is the flattened window
    starting at its index. Requires T >= width.
    """
    x = as_tensor(x)
    if x.ndim != 3:
        raise ValueError(f"unfold_windows expects (B, T, E), got {x.shape}")
    b, t, e = x.data.shape
    if width < 1 or width > t:
        raise ValueError(f"window width {width} invalid for T={t}")
    n = t - width + 1
    out_data = np.empty((b, n, width * e), dtype=np.float64)
    for j in range(width):
        out_data[:, :, j * e : (j + 1) * e] = x.data[:, j : j + n, :]

    def _bwd(g):
        gx = np.zeros_like(x.data)
        for j in range(width):
            gx[:, j : j + n, :] += g[:, :, j * e : (j + 1) * e]
        _accumulate(x, gx)

    return _node(out_data, (x,), _bwd)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def reduce_sum(x, axis: int | None = None) -> Tensor:
    x = as_tensor(x)
    out_data = x.data.sum(axis=axis)

    def _bwd(g):
        if axis is None:
            _accumulate(x, np.full_like(x.data, 1.0) * g)
        else:
            _accumulate(x, np.broadcast_to(np.expand_dims(g, axis), x.data.shape).copy())

    return _node(out_data, (x,), _bwd)


def reduce_mean(x, axis: int | None = None) -> Tensor:
    x = as_tensor(x)
    n = x.data.size if axis is None else x.data.shape[axis]
    return scale(reduce_sum(x, axis=axis), 1.0 / n)


def reduce_max(x, axis: int) -> Tensor:
    """Max along `axis`; the gradient flows to the first attaining position."""
    x = as_tensor(x)
    out_data = x.data.max(axis=axis)
    idx = np.expand_dims(x.data.argmax(axis=axis), axis)

    def _bwd(g):
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, idx, np.expand_dims(g, axis), axis=axis)
        _accumulate(x, gx)

    return _node(out_data, (x,), _bwd)


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------


def relu(x) -> Tensor:
    x = as_tensor(x)
    out_data = np.maximum(x.data, 0.0)

    def _bwd(g):
        _accumulate(x, g * (x.data > 0.0))

    return _node(out_data, (x,), _bwd)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x) -> Tensor:
    x = as_tensor(x)
    cdf = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))
    out_data = x.data * cdf

    def _bwd(g):
        pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT2PI
        _accumulate(x, g * (cdf + x.data * pdf))

    return _node(out_data, (x,), _bwd)


def tanh(x) -> Tensor:
    x = as_tensor(x)
    out_data = np.tanh(x.data)

    def _bwd(g):
        _accumulate(x, g * (1.0 - out_data * out_data))

    return _node(out_data, (x,), _bwd)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # stable around large |x|
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    out_data = _sigmoid(x.data)

    def _bwd(g):
        _accumulate(x, g * out_data * (1.0 - out_data))

    return _node(out_data, (x,), _bwd)


# ---------------------------------------------------------------------------
# softmax family
# ---------------------------------------------------------------------------


def softmax(x, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def _bwd(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        _accumulate(x, out_data * (g - dot))

    return _node(out_data, (x,), _bwd)


def log_softmax(x, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_z

    def _bwd(g):
        p = np.exp(out_data)
        _accumulate(x, g - p * g.sum(axis=axis, keepdims=True))

    return _node(out_data, (x,), _bwd)


def cross_entropy(logits, targets, ignore_index: int | None = None) -> tuple[Tensor, int]:
    """Mean negative log-likelihood of `targets` under row softmaxes.

    Rows whose target equals `ignore_index` are left out of the mean.
    Returns (loss, scored) where `scored` is the number of rows that
    contributed; when every row is ignored the loss is an exact 0 with
    scored == 0 and no gradient flows.
    """
    logits = as_tensor(logits)
    if logits.ndim != 2:
        raise ValueError(f"cross_entropy expects (N, V) logits, got {logits.shape}")
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (logits.data.shape[0],):
        raise ValueError(
            f"targets shape {targets.shape} does not match logits rows {logits.shape}"
        )
    n, v = logits.data.shape
    if ignore_index is None:
        scored_mask = np.ones(n, dtype=bool)
    else:
        scored_mask = targets != ignore_index
    live = targets[scored_mask]
    if live.size and (live.min() < 0 or live.max() >= v):
        raise IndexError(f"target id out of range [0, {v}) in cross_entropy")
    scored = int(scored_mask.sum())
    if scored == 0:
        return Tensor(0.0), 0

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_p = shifted - log_z
    rows = np.nonzero(scored_mask)[0]
    nll = -log_p[rows, targets[rows]]
    out_data = np.asarray(nll.sum() / scored)

    def _bwd(g):
        glogits = np.zeros_like(logits.data)
        p = np.exp(log_p[rows])
        p[np.arange(rows.size), targets[rows]] -= 1.0
        glogits[rows] = p * (float(g) / scored)
        _accumulate(logits, glogits)

    return _node(out_data, (logits,), _bwd), scored


# ---------------------------------------------------------------------------
# normalization, embeddings, dropout
# ---------------------------------------------------------------------------


def layer_norm(x, gain, bias) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    h = x.data.shape[-1]
    if h < 2:
        raise ValueError(f"layer_norm needs last extent >= 2, got {x.shape}")
    if gain.data.shape != (h,) or bias.data.shape != (h,):
        raise ValueError(
            f"layer_norm affine shapes {gain.shape}/{bias.shape} disagree with H={h}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = centered * inv
    out_data = xhat * gain.data + bias.data

    def _bwd(g):
        if gain.requires_grad:
            _accumulate(gain, (g * xhat).reshape(-1, h).sum(axis=0))
        if bias.requires_grad:
            _accumulate(bias, g.reshape(-1, h).sum(axis=0))
        if x.requires_grad:
            dxhat = g * gain.data
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            _accumulate(x, inv * (dxhat - m1 - xhat * m2))

    return _node(out_data, (x, gain, bias), _bwd)


def embedding_lookup(table, ids) -> Tensor:
    """Gather rows of a (V, H) table; gradients accumulate into repeated ids."""
    table = as_tensor(table)
    if table.ndim != 2:
        raise ValueError(f"embedding table must be 2-d, got {table.shape}")
    ids = np.asarray(ids, dtype=np.int64)
    v = table.data.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= v):
        raise IndexError(f"embedding id out of range [0, {v})")
    out_data = table.data[ids]

    def _bwd(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.data.shape[1]))
        _accumulate(table, gt)

    return _node(out_data, (table,), _bwd)


def dropout_mask(shape: tuple[int, ...], p: float, rng: np.random.Generator) -> np.ndarray:
    """The multiplier `dropout` applies: 0 with probability p, else 1/(1-p)."""
    return (rng.random(shape) >= p) / (1.0 - p)


def dropout(x, p: float, rng: np.random.Generator | None, train: bool) -> Tensor:
    """Zero entries with probability p and rescale by 1/(1-p) in train mode.

    Eval mode and p == 0 return the input unchanged (exact identity).
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must lie in [0, 1), got {p}")
    x = as_tensor(x)
    if not train or p == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in train mode needs an rng")
    keep = dropout_mask(x.data.shape, p, rng)
    out_data = x.data * keep

    def _bwd(g):
        _accumulate(x, g * keep)

    return _node(out_data, (x,), _bwd)


# ---------------------------------------------------------------------------
# recurrence
# ---------------------------------------------------------------------------


def lstm(emb, w_ih, w_hh, b, ids, lengths, state_dim: int) -> Tensor:
    """Final hidden state (B, H) of a one-layer LSTM over right-padded ids.

    The whole sequence is one graph node. The 4H gate axis holds the input,
    forget, candidate and output gates in that order, and each step's
    pre-activation is (x_t W_ih + h W_hh) + b. A row's h and c freeze once
    the step reaches its length, so the result is each row's last real
    state whatever the padding. The input projection of every step is one
    (B*T, E) @ (E, 4H) GEMM hoisted out of the time loop (Appleyard et al.,
    arXiv 1604.01946); the backward pass is hand-written BPTT over the
    gates kept from the forward pass.
    """
    emb, w_ih, w_hh, b = (as_tensor(p) for p in (emb, w_ih, w_hh, b))
    ids = np.asarray(ids, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    d = int(state_dim)
    if (
        emb.ndim != 2 or ids.ndim != 2 or lengths.shape != ids.shape[:1]
        or w_ih.shape != (emb.shape[1], 4 * d) or w_hh.shape != (d, 4 * d)
        or b.shape != (4 * d,)
    ):
        raise ValueError(
            f"lstm shapes disagree: emb {emb.shape}, w_ih {w_ih.shape}, w_hh {w_hh.shape}, "
            f"b {b.shape}, ids {ids.shape}, lengths {lengths.shape}, state_dim {d}"
        )
    v = emb.data.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= v):
        raise IndexError(f"embedding id out of range [0, {v})")
    n, t = ids.shape
    # rows sorted longest first, so the rows still live at step s are the
    # first n_live[s]: each step works on a contiguous prefix, and a frozen
    # row's h is copied forward
    order = np.argsort(-lengths, kind="stable")
    n_live = (np.arange(t)[:, None] < lengths[None, :]).sum(axis=1)
    flat_ids = ids[order].T.reshape(-1)  # time-major: row s*B + i is step s of sorted row i
    x = emb.data[flat_ids]
    xw = (x @ w_ih.data).reshape(t, n, 4 * d)
    gates = np.empty((t, 4, n, d))  # gate-major, each gate a contiguous (B, H) block
    tanh_c = np.empty((t, n, d))
    hs = np.zeros((t + 1, n, d))  # hs[s], cs[s]: the state entering step s
    cs = np.zeros((t + 1, n, d))
    for s in range(t):
        k = n_live[s]
        act = gates[s, :, :k]
        z = (xw[s, :k] + hs[s, :k] @ w_hh.data) + b.data
        act[...] = z.reshape(k, 4, d).transpose(1, 0, 2)
        act[[0, 1, 3]] = _sigmoid(act[[0, 1, 3]])
        act[2] = np.tanh(act[2])
        gate_i, gate_f, gate_g, gate_o = act
        c_new = gate_f * cs[s, :k] + gate_i * gate_g
        tanh_c[s, :k] = np.tanh(c_new)
        cs[s + 1, :k] = c_new
        hs[s + 1, :k] = gate_o * tanh_c[s, :k]
        hs[s + 1, k:] = hs[s, k:]  # frozen rows keep h; their c is never read again

    def _bwd(g):
        dz = np.zeros((t, n, 4 * d))  # frozen rows keep a zero pre-activation gradient
        dh = g[order]
        dc = np.zeros((n, d))
        for s in range(t - 1, -1, -1):
            k = n_live[s]
            gate_i, gate_f, gate_g, gate_o = gates[s, :, :k]
            tc = tanh_c[s, :k]
            dc_new = dc[:k] + dh[:k] * gate_o * (1.0 - tc * tc)
            step = dz[s, :k].reshape(k, 4, d)
            step[:, 0] = dc_new * gate_g * gate_i * (1.0 - gate_i)
            step[:, 1] = dc_new * cs[s, :k] * gate_f * (1.0 - gate_f)
            step[:, 2] = dc_new * gate_i * (1.0 - gate_g * gate_g)
            step[:, 3] = dh[:k] * tc * gate_o * (1.0 - gate_o)
            dc[:k] = dc_new * gate_f
            dh[:k] = dz[s, :k] @ w_hh.data.T
        dz2 = dz.reshape(t * n, 4 * d)
        if w_hh.requires_grad:
            _accumulate(w_hh, hs[:t].reshape(t * n, d).T @ dz2)
        if w_ih.requires_grad:
            _accumulate(w_ih, x.T @ dz2)
        if b.requires_grad:
            _accumulate(b, dz2.sum(axis=0))
        if emb.requires_grad:
            gemb = np.zeros_like(emb.data)
            np.add.at(gemb, flat_ids, dz2 @ w_ih.data.T)
            _accumulate(emb, gemb)

    return _node(hs[t][np.argsort(order)], (emb, w_ih, w_hh, b), _bwd)


def attention_mask_bias(pad_mask: np.ndarray) -> np.ndarray:
    """Additive (B, 1, 1, T) score bias that zeroes attention onto pad keys."""
    pad_mask = np.asarray(pad_mask, dtype=np.float64)
    return ((1.0 - pad_mask) * MASK_NEG)[:, None, None, :]
