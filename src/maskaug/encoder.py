"""Bidirectional transformer encoder with a condition-embedding table.

The input embedding of every position is token + position + condition.
During unconditional pretraining the condition id is 0 everywhere; after
`swap_condition_table` the same slot holds one learned row per class label,
which is what makes the masked-word distribution label-aware.

Blocks are pre-norm; the vocabulary projection of the masked-LM head is
tied to the token embedding, plus a free output bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import Sequence

import numpy as np

from . import tensor as T
from .checkpoint import CheckpointError, check_field_types, load_model, save_model
from .tensor import Tensor
from .text import CLS_ID, MASK_ID, PAD_ID, pad_rows

CONFIG_FORMAT = "maskaug-encoder-config v1"


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    layers: int = 2
    hidden: int = 64
    heads: int = 2
    ff: int = 256
    max_len: int = 64
    num_conditions: int = 2
    dropout: float = 0.1

    def __post_init__(self):
        check_field_types(self)
        if self.heads < 1:
            raise ValueError("heads must be >= 1")
        if self.hidden % self.heads != 0:
            raise ValueError(
                f"hidden size {self.hidden} not divisible by {self.heads} heads"
            )
        if self.num_conditions < 1:
            raise ValueError("num_conditions must be >= 1")
        if self.max_len < 2:
            raise ValueError("max_len must be >= 2")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")


@dataclass
class InputBatch:
    """Padded token matrix with per-position condition ids and a pad mask."""

    token_ids: np.ndarray  # (B, T) int64
    cond_ids: np.ndarray  # (B, T) int64, constant over each row's real span
    pad_mask: np.ndarray  # (B, T) float64, 1 = real token, 0 = padding

    def __post_init__(self):
        self.token_ids = np.asarray(self.token_ids, dtype=np.int64)
        self.cond_ids = np.asarray(self.cond_ids, dtype=np.int64)
        self.pad_mask = np.asarray(self.pad_mask, dtype=np.float64)
        if not (self.token_ids.shape == self.cond_ids.shape == self.pad_mask.shape):
            raise ValueError("token_ids, cond_ids, pad_mask must share one shape")


def batch_from_examples(
    sequences: Sequence[Sequence[int]], cond_ids: Sequence[int]
) -> InputBatch:
    """Right-pad variable-length id sequences into one InputBatch."""
    lengths = np.array([len(s) for s in sequences])
    t = lengths.max()
    live = np.arange(t) < lengths[:, None]
    conds = np.where(live, np.asarray(cond_ids, dtype=np.int64)[:, None], 0)
    return InputBatch(pad_rows(sequences, PAD_ID, t), conds, live)


def init_params(config: EncoderConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    """Fresh parameter set; weights ~ N(0, 0.02), norms at identity."""
    h, f, v = config.hidden, config.ff, config.vocab_size

    def normal(*shape):
        return Tensor(rng.normal(0.0, 0.02, size=shape), requires_grad=True)

    def ones(*shape):
        return Tensor(np.ones(shape), requires_grad=True)

    def zeros(*shape):
        return Tensor(np.zeros(shape), requires_grad=True)

    params: dict[str, Tensor] = {
        "token_emb": normal(v, h),
        "pos_emb": normal(config.max_len, h),
        "cond_emb": normal(config.num_conditions, h),
    }
    for i in range(config.layers):
        params[f"layer{i}.ln1_gain"] = ones(h)
        params[f"layer{i}.ln1_bias"] = zeros(h)
        params[f"layer{i}.wq"] = normal(h, h)
        params[f"layer{i}.bq"] = zeros(h)
        params[f"layer{i}.wk"] = normal(h, h)
        params[f"layer{i}.bk"] = zeros(h)
        params[f"layer{i}.wv"] = normal(h, h)
        params[f"layer{i}.bv"] = zeros(h)
        params[f"layer{i}.wo"] = normal(h, h)
        params[f"layer{i}.bo"] = zeros(h)
        params[f"layer{i}.ln2_gain"] = ones(h)
        params[f"layer{i}.ln2_bias"] = zeros(h)
        params[f"layer{i}.ffn_w1"] = normal(h, f)
        params[f"layer{i}.ffn_b1"] = zeros(f)
        params[f"layer{i}.ffn_w2"] = normal(f, h)
        params[f"layer{i}.ffn_b2"] = zeros(h)
    params["final_ln_gain"] = ones(h)
    params["final_ln_bias"] = zeros(h)
    params["mlm_w"] = normal(h, h)
    params["mlm_b"] = zeros(h)
    params["mlm_ln_gain"] = ones(h)
    params["mlm_ln_bias"] = zeros(h)
    params["mlm_out_bias"] = zeros(v)
    return params


def forward(
    params: dict[str, Tensor],
    config: EncoderConfig,
    batch: InputBatch,
    train: bool = False,
    rng: np.random.Generator | None = None,
    rows: Sequence[int] | np.ndarray | None = None,
) -> Tensor:
    """Vocabulary logits (B, T, V) for every position of the batch.

    With `rows`, a 1-d sequence of flat `b * T + t` position indices, the
    result is (len(rows), V), in the order given. The last layer's
    feed-forward half, the final norm and the masked-LM head then run on
    those positions only; attention still sees every position. That
    layer's feed-forward dropout still draws its mask at the full (B * T, H)
    shape, so both forms consume `rng` identically and give the same logits.

    Padding is excluded from attention by an additive score mask large
    enough that pad keys receive exactly zero weight.
    """
    b, t = batch.token_ids.shape
    if rows is not None and np.ndim(rows) != 1:
        raise ValueError(f"rows must be a 1-d index sequence, got shape {np.shape(rows)}")
    if t > config.max_len:
        raise ValueError(f"sequence length {t} exceeds max_len {config.max_len}")
    if batch.cond_ids.max(initial=0) >= config.num_conditions:
        raise IndexError(
            f"condition id {int(batch.cond_ids.max())} out of range "
            f"[0, {config.num_conditions})"
        )
    p = config.dropout
    heads, h = config.heads, config.hidden
    dh = h // heads

    x = T.add(
        T.add(
            T.embedding_lookup(params["token_emb"], batch.token_ids),
            T.embedding_lookup(params["pos_emb"], np.arange(t)),
        ),
        T.embedding_lookup(params["cond_emb"], batch.cond_ids),
    )
    x = T.dropout(x, p, rng, train)
    score_bias = Tensor(T.attention_mask_bias(batch.pad_mask))

    def scored_rows(x):  # the gather's scatter-add backward routes gradients to `rows` only
        return T.embedding_lookup(T.reshape(x, (b * t, h)), rows)

    if rows is not None and config.layers == 0:  # with no attention every step is row-wise
        x = scored_rows(x)
    last = config.layers - 1
    for i in range(config.layers):
        pre = T.layer_norm(x, params[f"layer{i}.ln1_gain"], params[f"layer{i}.ln1_bias"])

        def project(name_w, name_b):
            y = T.add(T.matmul(pre, params[name_w]), params[name_b])
            y = T.reshape(y, (b, t, heads, dh))
            return T.transpose(y, (0, 2, 1, 3))  # (B, A, T, dh)

        q = project(f"layer{i}.wq", f"layer{i}.bq")
        k = project(f"layer{i}.wk", f"layer{i}.bk")
        v = project(f"layer{i}.wv", f"layer{i}.bv")
        scores = T.scale(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dh))
        attn = T.softmax(T.add(scores, score_bias), axis=-1)
        attn = T.dropout(attn, p, rng, train)
        ctx = T.matmul(attn, v)  # (B, A, T, dh)
        ctx = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (b, t, h))
        out = T.add(T.matmul(ctx, params[f"layer{i}.wo"]), params[f"layer{i}.bo"])
        x = T.add(x, T.dropout(out, p, rng, train))

        pruned = rows is not None and i == last
        if pruned:
            # Keys and values above needed every position; the rest of the
            # network is row-wise, so it runs on the scored rows only.
            x = scored_rows(x)
        pre = T.layer_norm(x, params[f"layer{i}.ln2_gain"], params[f"layer{i}.ln2_bias"])
        inner = T.gelu(T.add(T.matmul(pre, params[f"layer{i}.ffn_w1"]), params[f"layer{i}.ffn_b1"]))
        out = T.add(T.matmul(inner, params[f"layer{i}.ffn_w2"]), params[f"layer{i}.ffn_b2"])
        if pruned and train and p > 0.0:
            # the full-shape draw keeps the rng stream equal to the unpruned pass
            out = T.mul(out, T.dropout_mask((b * t, h), p, rng)[rows])
        else:
            out = T.dropout(out, p, rng, train)
        x = T.add(x, out)

    x = T.layer_norm(x, params["final_ln_gain"], params["final_ln_bias"])
    head = T.gelu(T.add(T.matmul(x, params["mlm_w"]), params["mlm_b"]))
    head = T.layer_norm(head, params["mlm_ln_gain"], params["mlm_ln_bias"])
    logits = T.add(T.matmul(head, T.transpose(params["token_emb"])), params["mlm_out_bias"])
    return logits


def mlm_distributions(
    params: dict[str, Tensor],
    config: EncoderConfig,
    queries: Sequence[tuple[Sequence[int], Sequence[int], int]],
) -> list[np.ndarray]:
    """Cloze distributions for a batch of `(tokens, masked_positions,
    cond_id)` queries, one (n_masked, V) array per query, in query order.

    Each query's tokens at its masked positions are replaced by the mask
    id; the corrupted sentences are right-padded into one batch and one
    eval forward pass, each row under its own condition, runs the head on
    the masked positions only. Padding gets zero attention weight, so a
    query's rows match a batch-1 pass up to floating-point summation order.
    """
    sequences, conds, masked = [], [], []
    for tokens, masked_positions, cond_id in queries:
        positions = list(masked_positions)
        if not positions:
            raise ValueError("masked_positions must be non-empty")
        tokens = list(tokens)
        for pos in positions:
            if not 0 <= pos < len(tokens):
                raise IndexError(f"masked position {pos} out of range for length {len(tokens)}")
            if tokens[pos] == CLS_ID or pos == 0:
                raise ValueError("cannot mask the CLS anchor position")
            if tokens[pos] == PAD_ID:
                raise ValueError(f"cannot mask padding at position {pos}")
        for pos in positions:
            tokens[pos] = MASK_ID
        sequences.append(tokens)
        conds.append(cond_id)
        masked.append(positions)
    if not sequences:
        raise ValueError("queries must be non-empty")
    batch = batch_from_examples(sequences, conds)
    t = batch.token_ids.shape[1]
    rows = [b * t + pos for b, positions in enumerate(masked) for pos in positions]
    logits = forward(params, config, batch, train=False, rows=rows)
    probs = T.softmax(logits, axis=-1).data
    return np.split(probs, np.cumsum([len(positions) for positions in masked])[:-1])


def mlm_distribution(
    params: dict[str, Tensor],
    config: EncoderConfig,
    tokens: Sequence[int],
    masked_positions: Sequence[int],
    cond_id: int,
) -> np.ndarray:
    """Cloze distributions p(.|condition, sentence without the masked words)
    as an (n_masked, V) array: `mlm_distributions` on one query."""
    return mlm_distributions(params, config, [(tokens, masked_positions, cond_id)])[0]


def swap_condition_table(
    params: dict[str, Tensor],
    new_num_conditions: int,
    rng: np.random.Generator,
) -> dict[str, Tensor]:
    """Resize the condition-embedding table, keeping every other weight.

    Shrinking (or staying) copies the leading rows, so a swap to the same
    size is an exact identity; growing re-initializes the whole table.
    """
    if new_num_conditions < 1:
        raise ValueError("new_num_conditions must be >= 1")
    old = params["cond_emb"].data
    h = old.shape[1]
    if new_num_conditions <= old.shape[0]:
        table = old[:new_num_conditions].copy()
    else:
        table = rng.normal(0.0, 0.02, size=(new_num_conditions, h))
    out = dict(params)
    out["cond_emb"] = Tensor(table, requires_grad=True)
    return out


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def save_encoder(params: dict[str, Tensor], config: EncoderConfig, path) -> None:
    meta = {"format": CONFIG_FORMAT, **asdict(config)}
    save_model(params, dict(sorted(meta.items())), path)  # encoder sidecars keep sorted keys


def load_encoder(
    path, expected: EncoderConfig | None = None
) -> tuple[dict[str, Tensor], EncoderConfig]:
    """Load a checkpoint plus its config sidecar, validating shapes.

    With `expected`, any mismatch raises CheckpointError; a differing
    num_conditions gets a message pointing at swap_condition_table.
    """

    def build(meta):
        config = EncoderConfig(**{k: v for k, v in meta.items() if k != "format"})
        if expected is not None:
            if config.num_conditions != expected.num_conditions:
                raise CheckpointError(
                    f"checkpoint has {config.num_conditions} condition rows but "
                    f"{expected.num_conditions} were requested; load with the stored "
                    "config and call swap_condition_table to resize"
                )
            if config != expected:
                raise CheckpointError(
                    f"checkpoint config {config} does not match requested {expected}"
                )
        return config, init_params(config, np.random.default_rng(0))

    config, params = load_model(path, CONFIG_FORMAT, build)
    return params, config
