"""Masking policy, the shared fit loop, and masked-LM training.

`fit` is the one training loop of the package: the masked LMs here and the
downstream classifiers in `classify` all run through it. `pretrain_mlm`
trains the encoder on corrupted sentences with condition id 0 everywhere;
`finetune_cmlm` resizes the condition table to the label count and trains
with each sentence's label as its condition, which turns the cloze
distribution into a label-aware one. Training is bitwise reproducible for a
fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import tensor as T
from .checkpoint import check_field_types
from .encoder import (
    EncoderConfig,
    InputBatch,
    batch_from_examples,
    forward,
    init_params,
    swap_condition_table,
)
from .optim import adam_step, clip_by_global_norm, init_adam
from .seeding import derive_rng
from .tensor import Tensor
from .text import Dataset, LabeledExample, MASK_ID, NUM_SPECIALS, pad_rows

IGNORE_ID = -1
METRICS_FORMAT = "# maskaug-metrics v1"
# BERT's corruption of a chosen position: (mask id, random content id, kept)
CORRUPT_SPLIT = (0.8, 0.1, 0.1)


class TrainingError(RuntimeError):
    """Raised when a training run diverges or cannot proceed."""


class SkipExample(Exception):
    """Signal that an example has too few maskable tokens for the policy."""


@dataclass(frozen=True)
class MaskPolicy:
    """How positions are chosen and corrupted for masked-LM training.

    `ratio` mode draws Binomial(n, ratio) positions (at least one);
    `fixed_k` masks exactly k. Selected positions are corrupted to the
    mask id / a random content id / left alone per CORRUPT_SPLIT. The
    CLS anchor, padding, and other specials are never candidates.
    """

    mode: str = "ratio"
    ratio: float = 0.15
    k: int = 1

    def __post_init__(self):
        check_field_types(self)
        if self.mode not in ("ratio", "fixed_k"):
            raise ValueError(f"unknown mask mode {self.mode!r}")
        if not 0.0 < self.ratio <= 1.0:
            raise ValueError(f"mask ratio must lie in (0, 1], got {self.ratio}")
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 32
    lr: float = 1e-3
    patience: int = 3
    seed: int = 0
    clip_norm: float | None = 1.0

    def __post_init__(self):
        check_field_types(self)
        if not 1 <= self.epochs <= 50:
            raise ValueError(f"epochs must lie in [1, 50], got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if not self.lr > 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if self.clip_norm is not None and not self.clip_norm > 0:
            raise ValueError(f"clip_norm must be > 0 or null, got {self.clip_norm}")


@dataclass
class MaskedBatch(InputBatch):
    """A padded InputBatch of corrupted ids plus per-position prediction targets."""

    targets: np.ndarray  # (B, T), original id at masked positions else IGNORE_ID


def maskable_positions(tokens: Sequence[int]) -> list[int]:
    return [i for i, t in enumerate(tokens) if t >= NUM_SPECIALS]


def choose_positions(tokens: Sequence[int], k: int, rng: np.random.Generator) -> list[int]:
    """k distinct maskable positions of `tokens`, drawn uniformly and sorted;
    raises SkipExample when fewer than k positions are maskable."""
    candidates = maskable_positions(tokens)
    if len(candidates) < k:
        raise SkipExample(f"{len(candidates)} maskable tokens < k={k}")
    chosen = sorted(rng.choice(len(candidates), size=k, replace=False).tolist())
    return [candidates[i] for i in chosen]


def mask_tokens(
    example: LabeledExample,
    policy: MaskPolicy,
    vocab_size: int,
    rng: np.random.Generator,
) -> tuple[list[int], list[int]]:
    """Corrupt one example; returns (corrupted ids, targets).

    Raises SkipExample when the policy cannot place its masks.
    """
    tokens = list(example.tokens)
    k = policy.k
    if policy.mode == "ratio":
        # Binomial(n, ratio) never exceeds n; at n = 0 it is 0, so choose_positions skips
        k = max(1, int(rng.binomial(len(maskable_positions(tokens)), policy.ratio)))

    mask_frac, random_frac, _ = CORRUPT_SPLIT
    corrupted = list(tokens)
    targets = [IGNORE_ID] * len(tokens)
    for pos in choose_positions(tokens, k, rng):  # drawn before the loop body's draws
        targets[pos] = tokens[pos]
        u = rng.random()
        if u < mask_frac:
            corrupted[pos] = MASK_ID
        elif u < mask_frac + random_frac and vocab_size > NUM_SPECIALS:
            corrupted[pos] = int(rng.integers(NUM_SPECIALS, vocab_size))
        # else: keep the original token, target still scored
    return corrupted, targets


def collate_masked(
    examples: Sequence[LabeledExample],
    policy: MaskPolicy,
    vocab_size: int,
    rng: np.random.Generator,
    label_conditions: bool,
) -> MaskedBatch | None:
    """Mask and right-pad a list of examples; None if every one was skipped."""
    rows: list[tuple[list[int], list[int], int]] = []
    for ex in examples:
        try:
            corrupted, targets = mask_tokens(ex, policy, vocab_size, rng)
        except SkipExample:
            continue
        rows.append((corrupted, targets, ex.label if label_conditions else 0))
    if not rows:
        return None
    inputs = batch_from_examples([c for c, _, _ in rows], [cond for _, _, cond in rows])
    targets = pad_rows([tgt for _, tgt, _ in rows], IGNORE_ID, inputs.token_ids.shape[1])
    return MaskedBatch(inputs.token_ids, inputs.cond_ids, inputs.pad_mask, targets)


def masked_loss(
    params: dict[str, Tensor],
    config: EncoderConfig,
    batch: MaskedBatch,
    rng: np.random.Generator | None,
) -> tuple[Tensor, int, float]:
    """Cross-entropy over masked positions; returns (loss, scored, accuracy).

    Only the scored positions go through the vocabulary head. With an `rng`
    the encoder runs in train mode (dropout drawn from it); None is eval.
    """
    flat_targets = batch.targets.reshape(-1)
    rows = np.flatnonzero(flat_targets != IGNORE_ID)
    logits = forward(params, config, batch, rng=rng, rows=rows)
    targets = flat_targets[rows]
    loss, scored = T.cross_entropy(logits, targets)
    if scored == 0:
        return loss, 0, 0.0
    acc = float((logits.data.argmax(axis=1) == targets).mean())
    return loss, scored, acc


def _weighted_mean(rows: Sequence[tuple[float, int, float]]) -> tuple[float, float]:
    """(loss, accuracy) of (loss, weight, accuracy) rows, each weighted; (nan, 0.0) if none."""
    total_loss, total_weight, total_correct = 0.0, 0, 0.0
    for loss, weight, acc in rows:
        total_loss += loss * weight
        total_weight += weight
        total_correct += acc * weight
    if not total_weight:
        return float("nan"), 0.0
    return total_loss / total_weight, total_correct / total_weight


def _snapshot(params: dict[str, Tensor]) -> dict[str, Tensor]:
    return {k: Tensor(p.data.copy(), requires_grad=True) for k, p in params.items()}


def fit(
    params: dict[str, Tensor],
    examples: Sequence[LabeledExample],
    chunk_loss: Callable[
        [dict[str, Tensor], list[LabeledExample], np.random.Generator],
        tuple[Tensor, int, float] | None,
    ],
    validate: Callable[[dict[str, Tensor], int, float, float], float],
    *,
    epochs: int,
    batch_size: int,
    lr: float,
    patience: int,
    clip_norm: float | None,
    seed: int,
    phase: str,
) -> tuple[dict[str, Tensor], int]:
    """Adam over shuffled chunks of `examples`, keeping the best epoch.

    Each epoch shuffles the examples from the (seed, phase, "shuffle")
    stream. `chunk_loss(params, chunk, rng)` returns (loss, weight,
    accuracy) for one chunk, or None to skip it; `rng` is the run's one
    (seed, phase, "dropout") stream. The epoch's weighted mean loss and
    accuracy go to `validate(params, epoch, train_loss, train_acc)`, which
    scores the parameters, higher is better. Returns a copy of the
    parameters of the first epoch that beat all earlier ones, with that
    epoch number; stops after `patience` epochs without a new best. A
    non-finite loss or a parameter left without gradient raises TrainingError.
    """
    # private copy: backward() must never deposit gradients on caller tensors
    params = _snapshot(params)
    shuffle_rng = derive_rng(seed, phase, "shuffle")
    drop_rng = derive_rng(seed, phase, "dropout")
    state = init_adam(params, lr=lr)
    best_score, best_params, best_epoch = -math.inf, _snapshot(params), 0
    since_best = 0
    step = 0

    for epoch in range(1, epochs + 1):
        order = shuffle_rng.permutation(len(examples))
        rows: list[tuple[float, int, float]] = []
        for start in range(0, len(order), batch_size):
            chunk = [examples[i] for i in order[start : start + batch_size]]
            out = chunk_loss(params, chunk, drop_rng)
            if out is None:
                continue
            loss, weight, acc = out
            step += 1
            if not np.isfinite(loss.data):
                raise TrainingError(f"{phase}: loss diverged at step {step}")
            loss.backward()
            rows.append((float(loss.data), weight, acc))
            del out, loss  # the step's graph dies here, not during the next forward
            grads = {k: p.grad for k, p in params.items()}
            missing = [k for k, g in grads.items() if g is None]
            if missing:
                raise TrainingError(f"{phase}: no gradient for {missing}")
            if clip_norm is not None:
                grads = clip_by_global_norm(grads, clip_norm)
            params, state = adam_step(params, grads, state)

        score = validate(params, epoch, *_weighted_mean(rows))
        if score > best_score:
            best_score, best_params, best_epoch = score, _snapshot(params), epoch
            since_best = 0
        else:
            since_best += 1
            if since_best >= patience:
                break
    return best_params, best_epoch


def _train_masked_lm(
    train_examples: Sequence[LabeledExample],
    val_examples: Sequence[LabeledExample],
    params: dict[str, Tensor],
    config: EncoderConfig,
    policy: MaskPolicy,
    cfg: TrainConfig,
    label_conditions: bool,
    phase: str,
) -> tuple[dict[str, Tensor], list[dict]]:
    if not train_examples:
        raise TrainingError(f"{phase}: empty training split")
    vocab_size = config.vocab_size
    mask_rng = derive_rng(cfg.seed, phase, "mask")
    # validation masks are drawn once, so every epoch scores the same batches
    eval_rng = derive_rng(cfg.seed, phase, "eval-mask")
    val_batches = [
        collate_masked(val_examples[start : start + cfg.batch_size], policy, vocab_size,
                       eval_rng, label_conditions)
        for start in range(0, len(val_examples), cfg.batch_size)
    ]
    val_batches = [batch for batch in val_batches if batch is not None]
    history: list[dict] = []

    def chunk_loss(params, chunk, rng):
        batch = collate_masked(chunk, policy, vocab_size, mask_rng, label_conditions)
        if batch is None:
            return None
        loss, scored, acc = masked_loss(params, config, batch, rng)
        return (loss, scored, acc) if scored else None

    def validate(params, epoch, train_loss, train_acc):
        history.append(
            {"epoch": epoch, "split": "train", "loss": train_loss, "masked_acc": train_acc}
        )
        if val_examples:
            rows = []
            for batch in val_batches:
                loss, scored, acc = masked_loss(params, config, batch, None)
                rows.append((float(loss.data), scored, acc))
            val_loss, val_acc = _weighted_mean(rows)
        else:
            val_loss, val_acc = train_loss, train_acc
        history.append(
            {"epoch": epoch, "split": "val", "loss": val_loss, "masked_acc": val_acc}
        )
        if np.isnan(val_loss):
            raise TrainingError(f"{phase}: validation loss became NaN at epoch {epoch}")
        return -val_loss

    best, _ = fit(
        params, train_examples, chunk_loss, validate,
        epochs=cfg.epochs, batch_size=cfg.batch_size, lr=cfg.lr, patience=cfg.patience,
        clip_norm=cfg.clip_norm, seed=cfg.seed, phase=phase,
    )
    return best, history


def pretrain_mlm(
    corpus: Dataset,
    config: EncoderConfig,
    policy: MaskPolicy,
    cfg: TrainConfig,
) -> tuple[dict[str, Tensor], list[dict]]:
    """Masked-LM pretraining from fresh weights with a single neutral condition (id 0)."""
    params = init_params(config, derive_rng(cfg.seed, "init"))
    return _train_masked_lm(
        corpus.train, corpus.val, params, config, policy, cfg,
        label_conditions=False, phase="pretrain",
    )


def finetune_cmlm(
    dataset: Dataset,
    pretrained: dict[str, Tensor],
    config: EncoderConfig,
    policy: MaskPolicy,
    cfg: TrainConfig,
) -> tuple[dict[str, Tensor], EncoderConfig, list[dict]]:
    """Label-conditional fine-tuning of a pretrained encoder.

    The condition table is resized to the dataset's label count (copied
    when it already fits, re-initialized when it must grow), each token
    takes its sentence's label as condition id, and all weights train.
    """
    if dataset.num_labels < 1:
        raise ValueError("dataset must declare at least one label")
    params = swap_condition_table(
        pretrained, dataset.num_labels, derive_rng(cfg.seed, "cond-swap")
    )
    tuned_config = replace(config, num_conditions=dataset.num_labels)
    best, history = _train_masked_lm(
        dataset.train, dataset.val, params, tuned_config, policy, cfg,
        label_conditions=True, phase="finetune",
    )
    return best, tuned_config, history


def write_metrics(history: Sequence[dict], path) -> None:
    lines = [METRICS_FORMAT, "# epoch\tsplit\tloss\tmasked_acc"]
    for row in history:
        lines.append(
            f"{row['epoch']}\t{row['split']}\t{row['loss']!r}\t{row['masked_acc']!r}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
