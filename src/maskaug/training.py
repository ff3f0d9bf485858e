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


class TrainingError(RuntimeError):
    """Raised when a training run diverges or cannot proceed."""


class SkipExample(Exception):
    """Signal that an example has too few maskable tokens for the policy."""


@dataclass(frozen=True)
class MaskPolicy:
    """How positions are chosen and corrupted for masked-LM training.

    `ratio` mode draws Binomial(n, ratio) positions (at least one);
    `fixed_k` masks exactly k. Selected positions are corrupted to the
    mask id / a random content id / left alone per corrupt_split. The
    CLS anchor, padding, and other specials are never candidates.
    """

    mode: str = "ratio"
    ratio: float = 0.15
    k: int = 1
    corrupt_split: tuple[float, float, float] = (0.8, 0.1, 0.1)

    def __post_init__(self):
        if self.mode not in ("ratio", "fixed_k"):
            raise ValueError(f"unknown mask mode {self.mode!r}")
        if not 0.0 < self.ratio <= 1.0:
            raise ValueError(f"mask ratio must lie in (0, 1], got {self.ratio}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if len(self.corrupt_split) != 3 or any(f < 0 for f in self.corrupt_split):
            raise ValueError("corrupt_split needs three non-negative fractions")
        if abs(sum(self.corrupt_split) - 1.0) > 1e-9:
            raise ValueError(f"corrupt_split must sum to 1, got {self.corrupt_split}")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 32
    lr: float = 1e-3
    patience: int = 3
    seed: int = 0
    clip_norm: float | None = 1.0

    def __post_init__(self):
        if not 1 <= self.epochs <= 50:
            raise ValueError(f"epochs must lie in [1, 50], got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


@dataclass
class MaskedBatch(InputBatch):
    """A padded InputBatch of corrupted ids plus per-position prediction targets."""

    targets: np.ndarray  # (B, T), original id at masked positions else IGNORE_ID


def maskable_positions(tokens: Sequence[int]) -> list[int]:
    return [i for i, t in enumerate(tokens) if t >= NUM_SPECIALS]


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
    candidates = maskable_positions(tokens)
    if policy.mode == "fixed_k":
        if len(candidates) < policy.k:
            raise SkipExample(
                f"{len(candidates)} maskable tokens < k={policy.k}"
            )
        count = policy.k
    else:
        if not candidates:
            raise SkipExample("no maskable tokens")
        count = int(rng.binomial(len(candidates), policy.ratio))
        count = max(1, min(count, len(candidates)))
    chosen = sorted(rng.choice(len(candidates), size=count, replace=False).tolist())
    positions = [candidates[i] for i in chosen]

    mask_frac, random_frac, _ = policy.corrupt_split
    corrupted = list(tokens)
    targets = [IGNORE_ID] * len(tokens)
    for pos in positions:
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
    train: bool,
    rng: np.random.Generator | None,
) -> tuple[Tensor, int, float]:
    """Cross-entropy over masked positions; returns (loss, scored, accuracy)."""
    logits = forward(params, config, batch, train=train, rng=rng)
    b, t, v = logits.data.shape
    flat_logits = T.reshape(logits, (b * t, v))
    flat_targets = batch.targets.reshape(-1)
    loss, scored = T.cross_entropy(flat_logits, flat_targets, ignore_index=IGNORE_ID)
    if scored == 0:
        return loss, 0, 0.0
    live = flat_targets != IGNORE_ID
    pred = flat_logits.data[live].argmax(axis=1)
    acc = float((pred == flat_targets[live]).mean())
    return loss, scored, acc


def _epoch_eval(
    params: dict[str, Tensor],
    config: EncoderConfig,
    examples: Sequence[LabeledExample],
    policy: MaskPolicy,
    vocab_size: int,
    label_conditions: bool,
    seed: int,
    phase: str,
    batch_size: int,
) -> tuple[float, float]:
    """Masked loss/accuracy on a split, with masks fixed across epochs."""
    rng = derive_rng(seed, phase, "eval-mask")
    total_loss, total_scored, total_correct = 0.0, 0, 0.0
    for start in range(0, len(examples), batch_size):
        batch = collate_masked(
            examples[start : start + batch_size], policy, vocab_size, rng, label_conditions
        )
        if batch is None:
            continue
        loss, scored, acc = masked_loss(params, config, batch, train=False, rng=None)
        total_loss += float(loss.data) * scored
        total_scored += scored
        total_correct += acc * scored
    if total_scored == 0:
        return float("nan"), 0.0
    return total_loss / total_scored, total_correct / total_scored


def _snapshot(params: dict[str, Tensor]) -> dict[str, Tensor]:
    return {k: Tensor(p.data.copy(), requires_grad=True) for k, p in params.items()}


def fit(
    params: dict[str, Tensor],
    examples: Sequence[LabeledExample],
    chunk_loss: Callable[
        [dict[str, Tensor], list[LabeledExample]], tuple[Tensor, int, float] | None
    ],
    validate: Callable[[dict[str, Tensor], int, float, float], float],
    *,
    epochs: int,
    batch_size: int,
    lr: float,
    patience: int,
    clip_norm: float | None,
    shuffle_rng: np.random.Generator,
    phase: str,
) -> tuple[dict[str, Tensor], int]:
    """Adam over shuffled chunks of `examples`, keeping the best epoch.

    `chunk_loss(params, chunk)` returns (loss, weight, accuracy) for one
    chunk, or None to skip it; the epoch's weighted mean loss and accuracy
    go to `validate(params, epoch, train_loss, train_acc)`, which scores
    the parameters, higher is better. Returns a copy of the parameters of
    the first epoch that beat all earlier ones, with that epoch number;
    stops after `patience` epochs without a new best. A non-finite loss or
    a parameter left without gradient raises TrainingError.
    """
    # private copy: backward() must never deposit gradients on caller tensors
    params = _snapshot(params)
    state = init_adam(params, lr=lr)
    best_score, best_params, best_epoch = -math.inf, _snapshot(params), 0
    since_best = 0
    step = 0

    for epoch in range(1, epochs + 1):
        order = shuffle_rng.permutation(len(examples))
        ep_loss, ep_weight, ep_correct = 0.0, 0, 0.0
        for start in range(0, len(order), batch_size):
            out = chunk_loss(params, [examples[i] for i in order[start : start + batch_size]])
            if out is None:
                continue
            loss, weight, acc = out
            step += 1
            if not np.isfinite(loss.data):
                raise TrainingError(f"{phase}: loss diverged at step {step}")
            loss.backward()
            grads = {k: p.grad for k, p in params.items()}
            missing = [k for k, g in grads.items() if g is None]
            if missing:
                raise TrainingError(f"{phase}: no gradient for {missing}")
            if clip_norm is not None:
                grads = clip_by_global_norm(grads, clip_norm)
            params, state = adam_step(params, grads, state)
            ep_loss += float(loss.data) * weight
            ep_weight += weight
            ep_correct += acc * weight

        train_loss = ep_loss / ep_weight if ep_weight else float("nan")
        train_acc = ep_correct / ep_weight if ep_weight else 0.0
        score = validate(params, epoch, train_loss, train_acc)
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
    drop_rng = derive_rng(cfg.seed, phase, "dropout")
    history: list[dict] = []

    def chunk_loss(params, chunk):
        batch = collate_masked(chunk, policy, vocab_size, mask_rng, label_conditions)
        if batch is None:
            return None
        loss, scored, acc = masked_loss(params, config, batch, train=True, rng=drop_rng)
        return (loss, scored, acc) if scored else None

    def validate(params, epoch, train_loss, train_acc):
        history.append(
            {"epoch": epoch, "split": "train", "loss": train_loss, "masked_acc": train_acc}
        )
        if val_examples:
            val_loss, val_acc = _epoch_eval(
                params, config, val_examples, policy, vocab_size,
                label_conditions, cfg.seed, phase, cfg.batch_size,
            )
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
        clip_norm=cfg.clip_norm, shuffle_rng=derive_rng(cfg.seed, phase, "shuffle"),
        phase=phase,
    )
    return best, history


def pretrain_mlm(
    corpus: Dataset,
    config: EncoderConfig,
    policy: MaskPolicy,
    cfg: TrainConfig,
    params: dict[str, Tensor] | None = None,
) -> tuple[dict[str, Tensor], list[dict]]:
    """Masked-LM pretraining with a single neutral condition (id 0)."""
    if params is None:
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
