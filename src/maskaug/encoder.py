"""Bidirectional transformer encoder with a condition-embedding table.

The input embedding of every position is token + position + condition.
During unconditional pretraining the condition id is 0 everywhere; after
`swap_condition_table` the same slot holds one learned row per class label,
which is what makes the masked-word distribution label-aware.

Blocks are pre-norm; the vocabulary projection of the masked-LM head is
tied to the token embedding, plus a free output bias.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Sequence

import numpy as np

from . import tensor as T
from .checkpoint import CheckpointError, Layout, check_field_types, draw_params
from .checkpoint import load_model, save_model
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
        check_field_types(  # hidden >= 2: layer norm needs two features to normalise
            self, vocab_size=1, ff=1, layers=0, hidden=2, heads=1, num_conditions=1, max_len=2,
            dropout="[0, 1)",
        )
        if self.hidden % self.heads != 0:
            raise ValueError(
                f"hidden size {self.hidden} not divisible by {self.heads} heads"
            )


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


def param_layout(config: EncoderConfig) -> Layout:
    """The encoder's parameters: weights ~ N(0, 0.02), norms at identity."""
    h, f, v = config.hidden, config.ff, config.vocab_size
    layout = {
        "token_emb": ((v, h), 0.02),
        "pos_emb": ((config.max_len, h), 0.02),
        "cond_emb": ((config.num_conditions, h), 0.02),
    }
    for i in range(config.layers):
        layout[f"layer{i}.ln1_gain"] = ((h,), np.ones)
        layout[f"layer{i}.ln1_bias"] = ((h,), np.zeros)
        for name in ("q", "k", "v", "o"):
            layout[f"layer{i}.w{name}"] = ((h, h), 0.02)
            layout[f"layer{i}.b{name}"] = ((h,), np.zeros)
        layout[f"layer{i}.ln2_gain"] = ((h,), np.ones)
        layout[f"layer{i}.ln2_bias"] = ((h,), np.zeros)
        layout[f"layer{i}.ffn_w1"] = ((h, f), 0.02)
        layout[f"layer{i}.ffn_b1"] = ((f,), np.zeros)
        layout[f"layer{i}.ffn_w2"] = ((f, h), 0.02)
        layout[f"layer{i}.ffn_b2"] = ((h,), np.zeros)
    layout["final_ln_gain"] = ((h,), np.ones)
    layout["final_ln_bias"] = ((h,), np.zeros)
    layout["mlm_w"] = ((h, h), 0.02)
    layout["mlm_b"] = ((h,), np.zeros)
    layout["mlm_ln_gain"] = ((h,), np.ones)
    layout["mlm_ln_bias"] = ((h,), np.zeros)
    layout["mlm_out_bias"] = ((v,), np.zeros)
    return layout


def init_params(config: EncoderConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    """Fresh parameter set drawn from `rng` in `param_layout` order."""
    return draw_params(param_layout(config), rng)


def forward(
    params: dict[str, Tensor],
    config: EncoderConfig,
    batch: InputBatch,
    rng: np.random.Generator | None = None,
    rows: Sequence[int] | np.ndarray | None = None,
    ops=T,
) -> Tensor | np.ndarray:
    """Vocabulary logits (B, T, V) for every position of the batch; with an
    `rng` the pass runs in train mode and draws its dropout masks from it.

    One body serves both op sets: `ops` is `maskaug.tensor` on Tensor
    parameters, which builds the graph training differentiates, or
    `tensor.ArrayOps` on their arrays, which gives the same bits as an
    ndarray and builds no graph.

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
    low, high = batch.cond_ids.min(initial=0), batch.cond_ids.max(initial=0)
    if low < 0 or high >= config.num_conditions:
        bad = low if low < 0 else high
        raise IndexError(f"condition id {int(bad)} out of range [0, {config.num_conditions})")
    p, train, h = config.dropout, rng is not None, config.hidden

    x = ops.add(
        ops.add(
            ops.embedding_lookup(params["token_emb"], batch.token_ids),
            ops.embedding_lookup(params["pos_emb"], np.arange(t)),
        ),
        ops.embedding_lookup(params["cond_emb"], batch.cond_ids),
    )
    x = ops.dropout(x, p, rng, train)
    score_bias = T.attention_mask_bias(batch.pad_mask)
    attention_names = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")

    def scored_rows(x):  # the gather's scatter-add backward routes gradients to `rows` only
        return ops.embedding_lookup(ops.reshape(x, (b * t, h)), rows)

    if rows is not None and config.layers == 0:  # with no attention every step is row-wise
        x = scored_rows(x)
    last = config.layers - 1
    for i in range(config.layers):
        pre = ops.layer_norm(x, params[f"layer{i}.ln1_gain"], params[f"layer{i}.ln1_bias"])
        attention_params = (params[f"layer{i}.{n}"] for n in attention_names)
        out = ops.attention(pre, *attention_params, score_bias, config.heads, p, rng)
        x = ops.add(x, ops.dropout(out, p, rng, train))

        pruned = rows is not None and i == last
        if pruned:
            # Keys and values above needed every position; the rest of the
            # network is row-wise, so it runs on the scored rows only.
            x = scored_rows(x)
        pre = ops.layer_norm(x, params[f"layer{i}.ln2_gain"], params[f"layer{i}.ln2_bias"])
        inner = ops.gelu(
            ops.add(ops.matmul(pre, params[f"layer{i}.ffn_w1"]), params[f"layer{i}.ffn_b1"])
        )
        out = ops.add(ops.matmul(inner, params[f"layer{i}.ffn_w2"]), params[f"layer{i}.ffn_b2"])
        if pruned and train and p > 0.0:
            # the full-shape draw keeps the rng stream equal to the unpruned pass
            out = ops.mul(out, T.dropout_mask((b * t, h), p, rng)[rows])
        else:
            out = ops.dropout(out, p, rng, train)
        x = ops.add(x, out)

    x = ops.layer_norm(x, params["final_ln_gain"], params["final_ln_bias"])
    head = ops.gelu(ops.add(ops.matmul(x, params["mlm_w"]), params["mlm_b"]))
    head = ops.layer_norm(head, params["mlm_ln_gain"], params["mlm_ln_bias"])
    return ops.add(ops.matmul(head, ops.transpose(params["token_emb"])), params["mlm_out_bias"])


def mlm_distributions(
    params: dict[str, Tensor],
    config: EncoderConfig,
    queries: Sequence[tuple[Sequence[int], Sequence[int], int]],
) -> np.ndarray:
    """Cloze distributions for a batch of `(tokens, masked_positions,
    cond_id)` queries as one (total masked, V) array: the queries' rows in
    query order, each query's in the order of its masked positions.

    Each query's tokens at its masked positions are replaced by the mask
    id; the corrupted sentences are right-padded into one batch and one
    eval pass, each row under its own condition, runs the head on the
    masked positions only. The pass runs `forward` on the parameters'
    arrays with `tensor.ArrayOps`, so its rows are the bits of the softmax of
    `forward(..., rows=...)`, and builds no graph. Padding gets zero
    attention weight, so a query's rows match a batch-1 pass up to
    floating-point summation order.
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
    arrays = {name: param.data for name, param in params.items()}
    logits = forward(arrays, config, batch, rows=rows, ops=T.ArrayOps)
    return T.ArrayOps.softmax(logits)


def mlm_distribution(
    params: dict[str, Tensor],
    config: EncoderConfig,
    tokens: Sequence[int],
    masked_positions: Sequence[int],
    cond_id: int,
) -> np.ndarray:
    """Cloze distributions p(.|condition, sentence without the masked words)
    as an (n_masked, V) array: `mlm_distributions` on one query."""
    return mlm_distributions(params, config, [(tokens, masked_positions, cond_id)])


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
    if new_num_conditions <= old.shape[0]:
        table = old[:new_num_conditions].copy()
    else:
        table = rng.normal(0.0, 0.02, size=(new_num_conditions, old.shape[1]))
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

    def build(meta, stored):
        config = EncoderConfig(**{k: v for k, v in meta.items() if k != "format"})
        if config.layers > stored:  # cannot match: refused before 16 layout entries per layer
            raise CheckpointError(
                f"sidecar of {path} claims {config.layers} layers, but it holds {stored} arrays"
            )
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
        return config, param_layout(config)

    config, params = load_model(path, CONFIG_FORMAT, build)
    return params, config
