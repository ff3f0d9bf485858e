"""Dense float64 tensors with reverse-mode automatic differentiation.

Every continuous quantity that training differentiates (embeddings,
hidden states, logits, losses) lives in a Tensor. Ops build a graph of
parent links as they run; Tensor.backward() replays it in reverse
topological order. Tensors are treated as immutable once created: every
op allocates a new array and never writes into its inputs, so a recorded
graph stays valid. Only the optimizer writes into parameter leaves,
between steps, once the step's graph is gone. `ArrayOps` computes the
same ops' values on plain arrays with no graph; `op_set` picks the set.

Everything is float64. Softmax and the log-likelihood losses subtract the
row maximum before exponentiating, so finite inputs never produce NaN/Inf.
"""

from __future__ import annotations

import ctypes
import math
import sys
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.special import erf

MASK_NEG = -1e30  # additive score mask: never wins a max, underflows to exactly 0 in softmax
_LN_EPS = 1e-5  # layer_norm's variance floor

# glibc's mallopt parameters (malloc.h) and the values this package pins them to
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD, _TRIM_THRESHOLD = 32 << 20, 64 << 20


def _pin_heap_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds for the whole process.

    By default glibc raises its mmap threshold to the largest mapped block
    freed so far and returns heap memory above twice that to the system, so
    how often a step's arrays are page-faulted in again depends on what the
    process allocated before. With fixed thresholds, blocks below 32 MiB come
    from the heap and up to 64 MiB of free heap stays mapped. On any other C
    library, or without one, this does nothing.
    """
    try:
        libc = ctypes.CDLL(None)  # the C library this process already runs on
    except (OSError, TypeError):
        return
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None or not hasattr(libc, "gnu_get_libc_version"):
        return  # the parameter numbers are glibc's
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


_pin_heap_thresholds()


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
    out_data = _matmul_value(a.data, b.data)
    if b.ndim == 2 and a.ndim > 2:
        a2 = a.data.reshape(-1, a.data.shape[-1])

        def _bwd_folded(g):
            g2 = g.reshape(-1, g.shape[-1])
            if a.requires_grad:
                _accumulate(a, (g2 @ b.data.T).reshape(a.data.shape))
            if b.requires_grad:
                _accumulate(b, a2.T @ g2)

        return _node(out_data, (a, b), _bwd_folded)

    def _bwd(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            _accumulate(a, _unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            _accumulate(b, _unbroadcast(gb, b.data.shape))

    return _node(out_data, (a, b), _bwd)


def _matmul_value(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul inner extents disagree: {a.shape} @ {b.shape}")
    if b.ndim == 2 and a.ndim > 2:  # the weight product, folded into one 2-d GEMM
        return (a.reshape(-1, a.shape[-1]) @ b).reshape(a.shape[:-1] + b.shape[1:])
    return np.matmul(a, b)


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
    # window i is the width·E values of rows i..i+width-1, contiguous in C order,
    # so one copy of a strided view gathers them all; the strides are spelled
    # out, since numpy lets a C-ordered array's unit-extent axis have any stride
    data, step = np.ascontiguousarray(x.data), x.data.itemsize
    windows = as_strided(data, (b, t - width + 1, width * e), (data.strides[0], e * step, step))

    def _bwd(g):
        _accumulate(x, _fold_windows(g, x.data.shape))

    return _node(windows.copy(), (x,), _bwd)


def _fold_windows(g: np.ndarray, shape: tuple[int, int, int]) -> np.ndarray:
    """unfold_windows' backward: the windows' `g` summed onto the (B, T, E) `shape` they cover."""
    gx = np.zeros(shape)
    n, e = g.shape[1], shape[2]
    for j in range(shape[1] - n + 1):
        gx[:, j : j + n, :] += g[:, :, j * e : (j + 1) * e]
    return gx


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
    out_data = ArrayOps.relu(x.data)

    def _bwd(g):
        _accumulate(x, g * (x.data > 0.0))

    return _node(out_data, (x,), _bwd)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x) -> Tensor:
    x = as_tensor(x)
    out_data, cdf = _gelu_value(x.data)

    def _bwd(g):
        pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT2PI
        _accumulate(x, g * (cdf + x.data * pdf))

    return _node(out_data, (x,), _bwd)


def _gelu_value(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU's value and the normal CDF its gradient reuses."""
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    return x * cdf, cdf


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
    out_data = ArrayOps.softmax(x.data, axis)

    def _bwd(g):
        _accumulate(x, _softmax_grad(out_data, g, axis))

    return _node(out_data, (x,), _bwd)


def _softmax_grad(out: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    """The gradient of softmax's input, given its output `out` and that output's `g`."""
    return out * (g - (g * out).sum(axis=axis, keepdims=True))


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

    log_p = log_softmax(logits.data, axis=1).data
    rows = np.nonzero(scored_mask)[0]
    nll = -log_p[rows, targets[rows]]
    out_data = np.asarray(nll.sum() / scored)

    def _bwd(g):
        glogits = np.exp(log_p)
        glogits[rows, targets[rows]] -= 1.0
        glogits *= float(g) / scored
        glogits[~scored_mask] = 0.0  # after the scaling, so these zeros stay positive
        _accumulate(logits, glogits)

    return _node(out_data, (logits,), _bwd), scored


# ---------------------------------------------------------------------------
# normalization, embeddings, dropout
# ---------------------------------------------------------------------------


def layer_norm(x, gain, bias) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    out_data, xhat, inv = _layer_norm_value(x.data, gain.data, bias.data)
    h = xhat.shape[-1]

    def _bwd(g):
        if gain.requires_grad:
            _accumulate(gain, (g * xhat).reshape(-1, h).sum(axis=0))
        if bias.requires_grad:
            _accumulate(bias, g.reshape(-1, h).sum(axis=0))
        if x.requires_grad:
            dxhat = g * gain.data
            m1 = dxhat.sum(axis=-1, keepdims=True) / h
            m2 = (dxhat * xhat).sum(axis=-1, keepdims=True) / h
            _accumulate(x, inv * (dxhat - m1 - xhat * m2))

    return _node(out_data, (x, gain, bias), _bwd)


def _layer_norm_value(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """layer_norm's value, and the normalized input and inverse deviation its gradient reuses."""
    h = x.shape[-1]
    if h < 2:
        raise ValueError(f"layer_norm needs last extent >= 2, got {x.shape}")
    if gain.shape != (h,) or bias.shape != (h,):
        raise ValueError(
            f"layer_norm affine shapes {gain.shape}/{bias.shape} disagree with H={h}"
        )
    mu = x.sum(axis=-1, keepdims=True) / h
    centered = x - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) / h
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = centered * inv
    return xhat * gain + bias, xhat, inv


def _check_ids(ids: np.ndarray, v: int) -> None:
    if ids.size and (ids.min() < 0 or ids.max() >= v):
        raise IndexError(f"embedding id out of range [0, {v})")


def _scatter_rows(ids: np.ndarray, g: np.ndarray, v: int) -> np.ndarray:
    """g's rows summed by id into a (v, E) table, each bin in input order as np.add.at adds."""
    e = g.shape[-1]
    bins = (ids.reshape(-1, 1) * e + np.arange(e)).reshape(-1)
    sums = np.bincount(bins, weights=g.reshape(-1), minlength=v * e)
    return sums.reshape(v, e).astype(np.float64, copy=False)  # bincount of no ids is int


def embedding_lookup(table, ids) -> Tensor:
    """Gather rows of a (V, H) table; gradients accumulate into repeated ids."""
    table = as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    out_data = ArrayOps.embedding_lookup(table.data, ids)

    def _bwd(g):
        _accumulate(table, _scatter_rows(ids, g, table.data.shape[0]))

    return _node(out_data, (table,), _bwd)


def dropout_mask(shape: tuple[int, ...], p: float, rng: np.random.Generator) -> np.ndarray:
    """The multiplier `dropout` applies: 0 with probability p, else 1/(1-p)."""
    return (rng.random(shape) >= p) / (1.0 - p)


def dropout(x, p: float, rng: np.random.Generator | None, train: bool) -> Tensor:
    """Zero entries with probability p and rescale by 1/(1-p) in train mode.

    Eval mode and p == 0 return the input unchanged (exact identity).
    """
    x = as_tensor(x)
    keep = _dropout_keep(x.data.shape, p, rng, train)
    if keep is None:
        return x
    out_data = x.data * keep

    def _bwd(g):
        _accumulate(x, g * keep)

    return _node(out_data, (x,), _bwd)


def _dropout_keep(shape, p: float, rng: np.random.Generator | None, train: bool):
    """dropout's multiplier at `shape`, or None where it is the identity."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must lie in [0, 1), got {p}")
    if not train or p == 0.0:
        return None
    if rng is None:
        raise ValueError("dropout in train mode needs an rng")
    return dropout_mask(shape, p, rng)


# ---------------------------------------------------------------------------
# fused layers: recurrence, attention, convolution
# ---------------------------------------------------------------------------


def lstm(emb, w_ih, w_hh, b, ids, lengths) -> Tensor:
    """Final hidden state (B, H), H read from the (H, 4H) `w_hh`, of a one-layer LSTM.

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
    d = w_hh.shape[0] if w_hh.ndim else 0
    if (
        emb.ndim != 2 or ids.ndim != 2 or lengths.shape != ids.shape[:1]
        or w_ih.shape != (emb.shape[1], 4 * d) or w_hh.shape != (d, 4 * d)
        or b.shape != (4 * d,)
    ):
        raise ValueError(
            f"lstm shapes disagree: emb {emb.shape}, w_ih {w_ih.shape}, w_hh {w_hh.shape}, "
            f"b {b.shape}, ids {ids.shape}, lengths {lengths.shape}"
        )
    _check_ids(ids, emb.data.shape[0])
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
            _accumulate(emb, _scatter_rows(flat_ids, dz2 @ w_ih.data.T, emb.data.shape[0]))

    return _node(hs[t][np.argsort(order)], (emb, w_ih, w_hh, b), _bwd)


def attention(x, wq, bq, wk, bk, wv, bv, wo, bo, score_bias: np.ndarray, heads: int,
              p: float, rng: np.random.Generator | None) -> Tensor:
    """Multi-head self-attention (Vaswani et al., arXiv 1706.03762) of a
    (B, T, H) input as one graph node: (softmax(q kᵀ/√dh + score_bias) v) Wo + bo,
    q, k, v = x W + b split into `heads` heads of dh = H / heads.

    `score_bias` is a plain array that broadcasts to (B, heads, T, T). With
    an `rng` and p > 0 the attention weights get a `dropout_mask` drawn at
    that shape. The backward pass is hand-written (the fused-kernel idea of
    Dao et al., arXiv 2205.14135). Each product and sum is the one the
    per-op graph makes, so the value and every gradient equal it bit for bit.
    """
    x = as_tensor(x)
    params = tuple(as_tensor(w) for w in (wq, bq, wk, bk, wv, bv, wo, bo))
    out, (x2, q, k, v, s, attn, keep, dropped, ctx) = _attention_value(
        x.data, *(w.data for w in params), score_bias, heads, p, rng
    )
    wq, bq, wk, bk, wv, bv, wo, bo = params
    b, t, h = x.data.shape
    dh = h // heads

    def _bwd(g):
        g2 = g.reshape(-1, h)
        _accumulate(bo, g.sum(axis=(0, 1)))
        if wo.requires_grad:
            _accumulate(wo, ctx.T @ g2)
        gctx = (g2 @ wo.data.T).reshape(b, t, heads, dh).transpose(0, 2, 1, 3)
        gdropped = np.matmul(gctx, np.swapaxes(v, -1, -2))
        gattn = gdropped if keep is None else gdropped * keep
        gscores = _softmax_grad(attn, gattn, -1) * s
        gq = np.matmul(gscores, k)
        gk = np.swapaxes(np.matmul(np.swapaxes(q, -1, -2), gscores), -1, -2)
        gv = np.matmul(np.swapaxes(dropped, -1, -2), gctx)
        gx = []
        for gy, w, bias in ((gq, wq, bq), (gk, wk, bk), (gv, wv, bv)):
            gy = gy.transpose(0, 2, 1, 3).reshape(b, t, h)
            _accumulate(bias, gy.sum(axis=(0, 1)))
            gy2 = gy.reshape(-1, h)
            if w.requires_grad:
                _accumulate(w, x2.T @ gy2)
            gx.append(gy2 @ w.data.T)
        if x.requires_grad:
            _accumulate(x, ((gx[0] + gx[1]) + gx[2]).reshape(b, t, h))

    return _node(out, (x,) + params, _bwd)


def _attention_value(x, wq, bq, wk, bk, wv, bv, wo, bo, score_bias, heads, p, rng):
    """attention's value on arrays, and what its gradient reuses: the folded
    input, the per-head q, k and v, the score scale, the attention weights,
    their dropout multiplier (or None), the dropped weights and the merged
    context."""
    score_bias = np.asarray(score_bias, dtype=np.float64)
    params = (wq, bq, wk, bk, wv, bv, wo, bo)
    shapes = [w.shape for w in params]
    if x.ndim == 3:
        b, t, h = x.shape
    if (
        x.ndim != 3 or heads < 1 or h % heads or shapes != [(h, h), (h,)] * 4
        or score_bias.ndim > 4
        or any(m not in (1, n) for m, n in zip(score_bias.shape[::-1], (t, t, heads, b)))
    ):
        named = zip(("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo"), shapes)
        raise ValueError(f"attention shapes disagree: x {x.shape}, " + "".join(
            f"{n} {shape}, " for n, shape in named) + f"score_bias {score_bias.shape}, heads {heads}")
    dh = h // heads
    s = 1.0 / math.sqrt(dh)
    x2 = x.reshape(-1, h)

    def project(w, bias):  # (B, heads, T, dh)
        return (x2 @ w + bias).reshape(b, t, heads, dh).transpose(0, 2, 1, 3)

    q, k, v = project(wq, bq), project(wk, bk), project(wv, bv)
    scores = np.matmul(q, k.transpose(0, 1, 3, 2)) * s + score_bias
    attn = ArrayOps.softmax(scores)
    keep = dropout_mask(attn.shape, p, rng) if rng is not None and p > 0.0 else None
    dropped = attn if keep is None else attn * keep
    ctx = np.matmul(dropped, v).transpose(0, 2, 1, 3).reshape(b * t, h)
    out = (ctx @ wo + bo).reshape(b, t, h)
    return out, (x2, q, k, v, s, attn, keep, dropped, ctx)


def _conv_features(windows: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """ReLU(windows @ weight + bias): one filter, as conv_max_pool and deletion_logits run it."""
    feat = windows @ weight
    feat += bias
    return np.maximum(feat, 0.0, out=feat)


def conv_max_pool(table, weights: Sequence, biases: Sequence, ids, lengths) -> Tensor:
    """Max-over-time pooled convolution features (Kim, arXiv 1408.5882) of
    right-padded ids as one graph node: (B, F·len(weights)).

    Each filter's width w is read from its (w·E, F) weight: its (B, T-w+1,
    w·E) windows of the gathered embeddings go through `_conv_features` as
    one folded GEMM. Windows that start past a row's length get `MASK_NEG`,
    so they never win the max; a row shorter than w keeps its first window.
    The backward pass is hand-written (the fused-kernel idea of Dao et al.,
    arXiv 2205.14135). Each product and sum is the one the per-op graph of
    unfold_windows, matmul, add, relu, add, reduce_max and concat makes, in
    the same order, so the value and every gradient equal it bit for bit.
    """
    table = as_tensor(table)
    weights = tuple(as_tensor(w) for w in weights)
    biases = tuple(as_tensor(b) for b in biases)
    ids = np.asarray(ids, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    e = table.shape[1] if table.ndim == 2 else 0
    widths = [w.shape[0] // e if e and w.ndim == 2 else 0 for w in weights]
    if (
        table.ndim != 2 or ids.ndim != 2 or lengths.shape != ids.shape[:1] or not widths
        or min(widths) < 1 or max(widths) > ids.shape[1] or len(biases) != len(weights)
        or any(w.shape != (k * e, weights[0].shape[1]) for w, k in zip(weights, widths))
        or any(b.shape != weights[0].shape[1:] for b in biases)
    ):
        raise ValueError(
            f"conv_max_pool shapes disagree: table {table.shape}, weights "
            f"{[w.shape for w in weights]}, biases {[b.shape for b in biases]}, "
            f"ids {ids.shape}, lengths {lengths.shape}"
        )
    _check_ids(ids, table.data.shape[0])
    (b, t), f = ids.shape, weights[0].shape[1]
    emb = table.data[ids]  # (B, T, E)
    rows, cols = np.arange(b)[:, None], np.arange(f)[None, :]
    pooled, saved = [], []
    for k, weight, bias in zip(widths, weights, biases):
        n = t - k + 1
        win2 = unfold_windows(emb, k).data.reshape(-1, k * e)
        feat = _conv_features(win2, weight.data, bias.data).reshape(b, n, f)
        n_valid = np.maximum(lengths - k + 1, 1)
        invalid = np.arange(n)[None, :] >= n_valid[:, None]
        feat += np.where(invalid, MASK_NEG, 0.0)[:, :, None]
        pooled.append(feat.max(axis=1))
        saved.append((win2, feat))  # the argmax waits for a backward pass

    def _bwd(g):
        gemb = None
        for i, (k, weight, bias, (win2, feat)) in enumerate(zip(widths, weights, biases, saved)):
            n = t - k + 1
            # each pooled gradient goes to the first window attaining the max, then the
            # ReLU: a row's max is a valid window's, where the mask added nothing
            at = (rows, feat.argmax(axis=1), cols)
            gf = np.zeros((b, n, f))
            gf[at] = g[:, i * f : (i + 1) * f] * (feat[at] > 0.0)
            _accumulate(bias, gf.sum(axis=(0, 1)))
            g2 = gf.reshape(-1, f)
            if weight.requires_grad:
                _accumulate(weight, win2.T @ g2)
            if table.requires_grad:
                gx = _fold_windows((g2 @ weight.data.T).reshape(b, n, k * e), (b, t, e))
                gemb = gx if gemb is None else gemb + gx
        if table.requires_grad:
            _accumulate(table, _scatter_rows(ids, gemb, table.data.shape[0]))

    return _node(np.concatenate(pooled, axis=-1), (table,) + weights + biases, _bwd)


def attention_mask_bias(pad_mask: np.ndarray) -> np.ndarray:
    """Additive (B, 1, 1, T) score bias that zeroes attention onto pad keys."""
    pad_mask = np.asarray(pad_mask, dtype=np.float64)
    return ((1.0 - pad_mask) * MASK_NEG)[:, None, None, :]


class ArrayOps:
    """The ops a layer sequence runs, on plain float64 arrays and without a
    graph: each computes its value through the same helper, and makes the
    same checks, as the graph op of the same name, so a body gives the same
    bits on either op set. `lstm`, `conv_max_pool` and `cross_entropy` run
    the graph op itself: with no input that requires grad, `_node` keeps no
    closure, so nothing saved outlives the call. Never instantiated."""

    add = staticmethod(np.add)
    mul = staticmethod(np.multiply)
    reshape = staticmethod(np.reshape)
    transpose = staticmethod(np.transpose)
    matmul = staticmethod(_matmul_value)

    @staticmethod
    def relu(x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)

    @staticmethod
    def gelu(x: np.ndarray) -> np.ndarray:
        return _gelu_value(x)[0]

    @staticmethod
    def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
        # exp and divide in place on the one new array the subtraction makes
        out = x - x.max(axis=axis, keepdims=True)
        np.exp(out, out=out)
        out /= out.sum(axis=axis, keepdims=True)
        return out

    @staticmethod
    def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
        return _layer_norm_value(x, gain, bias)[0]

    @staticmethod
    def embedding_lookup(table: np.ndarray, ids) -> np.ndarray:
        if table.ndim != 2:
            raise ValueError(f"embedding table must be 2-d, got {table.shape}")
        ids = np.asarray(ids, dtype=np.int64)
        _check_ids(ids, table.shape[0])
        return table[ids]

    @staticmethod
    def dropout(x: np.ndarray, p: float, rng: np.random.Generator | None, train: bool):
        keep = _dropout_keep(x.shape, p, rng, train)
        return x if keep is None else x * keep

    @staticmethod
    def attention(x, wq, bq, wk, bk, wv, bv, wo, bo, score_bias, heads, p, rng) -> np.ndarray:
        return _attention_value(x, wq, bq, wk, bk, wv, bv, wo, bo, score_bias, heads, p, rng)[0]

    @staticmethod
    def lstm(emb, w_ih, w_hh, b, ids, lengths) -> np.ndarray:
        return lstm(emb, w_ih, w_hh, b, ids, lengths).data

    @staticmethod
    def conv_max_pool(table, weights, biases, ids, lengths) -> np.ndarray:
        return conv_max_pool(table, weights, biases, ids, lengths).data

    @staticmethod
    def cross_entropy(logits, targets, ignore_index=None) -> tuple[np.ndarray, int]:
        loss, scored = cross_entropy(logits, targets, ignore_index)
        return loss.data, scored


def op_set(param):
    """The op set a model body runs on, picked once per call from one of its
    parameters: `ArrayOps` on an ndarray, else this module's graph ops."""
    return ArrayOps if isinstance(param, np.ndarray) else sys.modules[__name__]
