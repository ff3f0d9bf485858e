"""Label-flipping rewrites: find the label-carrying words, refill them
under the opposite label.

Word relevance comes from a leave-one-out deletion score against a trained
classifier: score(i) = p(true label | sentence) - p(true label | sentence
without token i), with a sentence and all its deletion variants scored in
one classifier call. The top-scoring tokens are masked and refilled
greedily by the conditional encoder under the target label.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import tensor as T
from .augment import AugmentationPolicy, _refill
from .classify import Classifier, predict_logits
from .encoder import EncoderConfig
from .tensor import Tensor
from .text import LabeledExample, Vocabulary, decode
from .training import SkipExample, maskable_positions

PAIRS_FORMAT = "# maskaug-style-pairs v1"
_GREEDY = AugmentationPolicy(k=1, sampler="greedy", exclude_original=True)


@dataclass
class AttributionScores:
    """Deletion scores per content token; higher = more label-relevant."""

    positions: tuple[int, ...]
    scores: np.ndarray


def attribute_words(clf: Classifier, example: LabeledExample) -> AttributionScores:
    """Leave-one-out contribution of each content token to the true label.

    The sentence and its one-token-deleted variants are scored in one
    classifier call.
    """
    positions = maskable_positions(example.tokens)
    if not positions:
        raise SkipExample("no content tokens to attribute")
    variants = [example] + [
        LabeledExample(example.tokens[:pos] + example.tokens[pos + 1 :], example.label)
        for pos in positions
    ]
    probs = T.softmax(predict_logits(clf, variants)).data[:, example.label]
    return AttributionScores(tuple(positions), probs[0] - probs[1:])


def check_rewrite(config: EncoderConfig, target_label: "int | None", top_m: int) -> None:
    """Raise unless `top_m` >= 1 and `target_label`, when given, is one of
    the encoder's condition ids."""
    if target_label is not None and not 0 <= target_label < config.num_conditions:
        raise IndexError(
            f"target label {target_label} out of range [0, {config.num_conditions})"
        )
    if top_m < 1:
        raise ValueError("top_m must be >= 1")


def transfer_style(
    params: dict[str, Tensor],
    config: EncoderConfig,
    clf: Classifier,
    example: LabeledExample,
    target_label: int,
    top_m: int = 1,
) -> LabeledExample:
    """Rewrite `example` under `target_label`.

    Masks the top_m highest-attribution tokens (ties broken toward earlier
    positions), refills them greedily from the conditional cloze
    distribution with the original words excluded (augmentation's refill,
    on a one-sentence chunk under target_label), and returns the result
    labeled target_label. Only the selected positions change.
    """
    if target_label == example.label:
        raise ValueError("target label must differ from the example's label")
    check_rewrite(config, target_label, top_m)
    attribution = attribute_words(clf, example)
    if top_m > len(attribution.positions):
        warnings.warn(
            f"top_m={top_m} exceeds the {len(attribution.positions)} maskable "
            "tokens; masking all of them",
            stacklevel=2,
        )
        top_m = len(attribution.positions)
    order = np.argsort(-attribution.scores, kind="stable")[:top_m]
    chosen = sorted(attribution.positions[i] for i in order)
    pick = (example, None, (chosen, target_label, target_label))
    [outcome] = _refill(params, config, _GREEDY, [pick])
    if isinstance(outcome, SkipExample):
        raise outcome
    return outcome[0]


def write_style_pairs(
    path, pairs: Sequence[tuple[LabeledExample, LabeledExample]], vocab: Vocabulary
) -> None:
    """Two-column original/generated listing, one sentence per line."""
    lines = [PAIRS_FORMAT]
    for original, generated in pairs:
        lines.append(f"original\t{decode(original.tokens, vocab)}")
        lines.append(f"generated\t{decode(generated.tokens, vocab)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
