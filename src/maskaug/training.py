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
from .optim import AdamState, adam_step
from .seeding import derive_rng
from .tensor import Tensor
from .text import Dataset, LabeledExample, MASK_ID, NUM_SPECIALS, pad_rows, write_text

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
        check_field_types(self, mode=("ratio", "fixed_k"), ratio="(0, 1]", k=1)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 32
    lr: float = 1e-3
    patience: int = 3
    seed: int = 0
    clip_norm: float | None = 1.0

    def __post_init__(self):
        check_field_types(
            self, epochs="[1, 50]", batch_size=1, lr="(0, inf)", patience=1, clip_norm="(0, inf]"
        )


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
) -> tuple[Tensor | np.ndarray, int, float]:
    """Cross-entropy over masked positions; returns (loss, scored, accuracy).

    Only the scored positions go through the vocabulary head. With an `rng`
    the encoder runs in train mode (dropout drawn from it); None is eval.
    As in `forward`, the op set follows the parameters: arrays give an ndarray loss.
    """
    flat_targets = batch.targets.reshape(-1)
    rows = np.flatnonzero(flat_targets != IGNORE_ID)
    logits = forward(params, config, batch, rng=rng, rows=rows)
    targets = flat_targets[rows]
    loss, scored = T.op_set(params["token_emb"]).cross_entropy(logits, targets)
    if scored == 0:
        return loss, 0, 0.0
    acc = float((T.as_tensor(logits).data.argmax(axis=1) == targets).mean())
    return loss, scored, acc


def _weighted_mean(rows: Sequence[tuple[float, int, float]]) -> tuple[float, float]:
    """(loss, accuracy) of (loss, weight, accuracy) rows, each weighted; (nan, 0.0) if none."""
    total_loss, total_weight, total_correct = 0.0, 0, 0.0
    for loss, weight, acc in rows:
        total_loss += float(loss) * weight
        total_weight += weight
        total_correct += acc * weight
    if not total_weight:
        return float("nan"), 0.0
    return total_loss / total_weight, total_correct / total_weight


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
    scores the parameters, higher is better. Both closures see the Adam
    arena's own parameters, which every step updates in place, so neither
    may keep them past its call. Returns a copy of the
    parameters of the first epoch that beat all earlier ones, with that
    epoch number; stops after `patience` epochs without a new best. A non-finite
    loss, an overflow in validation, a parameter left without gradient or an
    epoch with no step raises TrainingError.
    """
    # the arena trains a copy: backward() never deposits gradients on caller tensors
    state = AdamState(params, lr)
    params = state.params
    shuffle_rng = derive_rng(seed, phase, "shuffle")
    drop_rng = derive_rng(seed, phase, "dropout")
    best_score, best_params, best_epoch = -math.inf, state.snapshot(), 0
    since_best = 0
    step = 0

    for epoch in range(1, epochs + 1):
        order = shuffle_rng.permutation(len(examples))
        rows: list[tuple[float, int, float]] = []
        # a diverging step overflows on its way to the guard below, which
        # reports it in one line; validation raises on overflow instead, so
        # parameters whose loss stayed finite (saturated gates) still stop here
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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
                missing = [k for k, p in params.items() if p.grad is None]
                if missing:
                    raise TrainingError(f"{phase}: no gradient for {missing}")
                adam_step(state, clip_norm)  # updates `params` in place

        if not rows:
            raise TrainingError(f"{phase}: epoch {epoch} made no training step")
        try:
            with np.errstate(over="raise", invalid="raise"):
                score = validate(params, epoch, *_weighted_mean(rows))
        except FloatingPointError:
            raise TrainingError(f"{phase}: loss diverged in validation at epoch {epoch}") from None
        if score > best_score:
            best_score, best_params, best_epoch = score, state.snapshot(), epoch
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
    if val_examples and not val_batches:  # would train a whole run, then score nothing
        raise TrainingError(f"{phase}: no validation sentence has a maskable word")
    history: list[dict] = []

    def chunk_loss(params, chunk, rng):
        batch = collate_masked(chunk, policy, vocab_size, mask_rng, label_conditions)
        # collate_masked drops the rows without a target, so a batch always scores
        return None if batch is None else masked_loss(params, config, batch, rng)

    def validate(params, epoch, train_loss, train_acc):
        history.append(
            {"epoch": epoch, "split": "train", "loss": train_loss, "masked_acc": train_acc}
        )
        if val_examples:
            arrays = {name: p.data for name, p in params.items()}
            val_loss, val_acc = _weighted_mean(
                [masked_loss(arrays, config, batch, None) for batch in val_batches]
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


def _check_label_count(num_labels: int, rows: int) -> None:
    """Refuse more labels than training rows (train + validation), before a
    table is sized by them: load_tsv counts labels as the largest + 1, so
    one far label asks for a table that large."""
    if num_labels > rows:
        raise ValueError(f"data has {num_labels} labels but only {rows} training rows")


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
    _check_label_count(dataset.num_labels, len(dataset.train) + len(dataset.val))
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
    write_text(path, "\n".join(lines) + "\n")
