"""Label-flipping rewrites: find the label-carrying words, refill them
under the opposite label.

Word relevance comes from a leave-one-out deletion score against a trained
classifier (Li et al., arXiv 1804.06437): score(i) = p(true label |
sentence) - p(true label | sentence without token i), with the sentence and
all its deletion variants scored by the classifier config's
`deletion_logits` (the CNN reuses the original's convolution windows). The
top-scoring tokens are masked and refilled greedily by the conditional
encoder under the target label, in one refill over all the sentences.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as T
from .augment import AugmentationPolicy, _refill
from .classify import Classifier
from .encoder import EncoderConfig
from .tensor import Tensor
from .text import LabeledExample, Vocabulary, decode, write_text
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

    The sentence and its one-token-deleted variants are scored by one
    `deletion_logits` call of the classifier's config.
    """
    positions = tuple(maskable_positions(example.tokens))
    if not positions:
        raise SkipExample("no content tokens to attribute")
    logits = clf.config.deletion_logits(clf.params, example.tokens, positions)
    probs = T.ArrayOps.softmax(logits)[:, example.label]
    return AttributionScores(positions, probs[0] - probs[1:])


def check_rewrite(config: EncoderConfig, target_label: "int | None", top_m: int) -> None:
    """Raise unless `top_m` >= 1 and `target_label`, when given, is one of
    the encoder's condition ids."""
    if target_label is not None and not 0 <= target_label < config.num_conditions:
        raise IndexError(
            f"target label {target_label} out of range [0, {config.num_conditions})"
        )
    if top_m < 1:
        raise ValueError("top_m must be >= 1")


def transfer_styles(
    params: dict[str, Tensor],
    config: EncoderConfig,
    clf: Classifier,
    examples: Sequence[LabeledExample],
    targets: Sequence[int],
    top_m: int = 1,
) -> list[LabeledExample | SkipExample]:
    """Rewrite each example under its target label, in order.

    Masks each sentence's top_m highest-attribution tokens (ties broken
    toward earlier positions) and refills them greedily from the
    conditional cloze distribution under its target, with the original
    words excluded: augmentation's refill, one encoder call per CHUNK_SIZE
    sentences cut in length order (stable). Each result is labeled with its
    target and differs from its example only at the chosen positions; a
    sentence with no content token, or no candidate for a slot, gets its
    SkipExample instead.
    """
    return _transfer(params, config, clf, examples, targets, top_m)


def transfer_style(
    params: dict[str, Tensor],
    config: EncoderConfig,
    clf: Classifier,
    example: LabeledExample,
    target_label: int,
    top_m: int = 1,
) -> LabeledExample:
    """`transfer_styles` for one sentence; raises its SkipExample."""
    [result] = _transfer(params, config, clf, [example], [target_label], top_m)
    if isinstance(result, SkipExample):
        raise result
    return result


def _transfer(
    params: dict[str, Tensor],
    config: EncoderConfig,
    clf: Classifier,
    examples: Sequence[LabeledExample],
    targets: Sequence[int],
    top_m: int,
) -> list[LabeledExample | SkipExample]:
    """The body of `transfer_styles` and `transfer_style`, one frame below
    either, so the top_m warning names their caller's line."""
    if len(targets) != len(examples):
        raise ValueError(f"{len(targets)} targets for {len(examples)} examples")
    for example, target in zip(examples, targets):
        if target == example.label:
            raise ValueError("target label must differ from the example's label")
        check_rewrite(config, target, top_m)
    results: list = []  # each sentence's SkipExample, or its pick until refilled
    for example, target in zip(examples, targets):
        try:
            attribution = attribute_words(clf, example)
        except SkipExample as skip:
            results.append(skip)
            continue
        m = top_m
        if m > len(attribution.positions):
            warnings.warn(
                f"top_m={m} exceeds the {len(attribution.positions)} maskable "
                "tokens; masking all of them",
                stacklevel=3,
            )
            m = len(attribution.positions)
        order = np.argsort(-attribution.scores, kind="stable")[:m]
        chosen = sorted(attribution.positions[i] for i in order)
        results.append((example, None, (chosen, target)))
    picked = [i for i, result in enumerate(results) if not isinstance(result, SkipExample)]
    for i, outcome in zip(picked, _refill(params, config, _GREEDY, [results[i] for i in picked])):
        if not isinstance(outcome, SkipExample):  # the refill keeps the source label
            outcome = LabeledExample(outcome[0].tokens, targets[i])
        results[i] = outcome
    return results


def write_style_pairs(
    path, pairs: Sequence[tuple[LabeledExample, LabeledExample]], vocab: Vocabulary
) -> None:
    """Two-column original/generated listing, one sentence per line."""
    lines = [PAIRS_FORMAT]
    for original, generated in pairs:
        lines.append(f"original\t{decode(original.tokens, vocab)}")
        lines.append(f"generated\t{decode(generated.tokens, vocab)}")
    write_text(path, "\n".join(lines) + "\n")
