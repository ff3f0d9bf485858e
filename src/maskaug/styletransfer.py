"""Label-flipping rewrites: find the label-carrying words, refill them
under the opposite label.

Word relevance comes from a leave-one-out deletion score against a trained
classifier: score(i) = p(true label | sentence) - p(true label | sentence
without token i). The top-scoring tokens are masked and refilled greedily
by the conditional encoder under the target label.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .augment import AugmentationPolicy, sample_replacement
from .classify import Classifier, predict_proba
from .encoder import EncoderConfig, mlm_distribution
from .tensor import Tensor
from .text import LabeledExample, Vocabulary, decode
from .training import SkipExample, maskable_positions

PAIRS_FORMAT = "# maskaug-style-pairs v1"


@dataclass
class AttributionScores:
    """Deletion scores per content token; higher = more label-relevant."""

    positions: tuple[int, ...]
    scores: np.ndarray


def attribute_words(clf: Classifier, example: LabeledExample) -> AttributionScores:
    """Leave-one-out contribution of each content token to the true label."""
    positions = maskable_positions(example.tokens)
    if not positions:
        raise SkipExample("no content tokens to attribute")
    base = predict_proba(clf, example)[example.label]
    scores = np.zeros(len(positions))
    for row, pos in enumerate(positions):
        reduced = example.tokens[:pos] + example.tokens[pos + 1 :]
        prob = predict_proba(clf, LabeledExample(reduced, example.label))[example.label]
        scores[row] = base - prob
    return AttributionScores(tuple(positions), scores)


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
    distribution with the original words excluded, and returns the result
    labeled target_label. Only the selected positions change.
    """
    if target_label == example.label:
        raise ValueError("target label must differ from the example's label")
    if not 0 <= target_label < config.num_conditions:
        raise IndexError(
            f"target label {target_label} out of range [0, {config.num_conditions})"
        )
    if top_m < 1:
        raise ValueError("top_m must be >= 1")
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
    probs = mlm_distribution(params, config, example.tokens, chosen, cond_id=target_label)
    greedy = AugmentationPolicy(k=1, sampler="greedy", exclude_original=True)
    tokens = list(example.tokens)
    for row, pos in enumerate(chosen):
        tokens[pos] = sample_replacement(probs[row], example.tokens[pos], greedy, rng=None)
    return LabeledExample(tuple(tokens), target_label)


def write_style_pairs(
    path, pairs: Sequence[tuple[LabeledExample, LabeledExample]], vocab: Vocabulary
) -> None:
    """Two-column original/generated listing, one sentence per line."""
    lines = [PAIRS_FORMAT]
    for original, generated in pairs:
        lines.append(f"original\t{decode(original.tokens, vocab)}")
        lines.append(f"generated\t{decode(generated.tokens, vocab)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
