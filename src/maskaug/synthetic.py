"""Tiny templated sentiment corpus for experiments and demos.

Sentences follow "the movie was <sentiment> <filler>": the sentiment slot
is the only label-dependent token, which makes conditioning effects
directly measurable.
"""

from __future__ import annotations

from .seeding import derive_rng
from .text import write_text

POSITIVE_WORDS = ("good", "great", "fine")
NEGATIVE_WORDS = ("bad", "awful", "poor")
FILLER_WORDS = (
    "overall", "indeed", "honestly", "somehow", "truly", "anyway", "really", "though",
)

# index of the sentiment slot in the encoded form: [cls, the, movie, was, <sent>, <filler>]
SENT_SLOT = 4


def sentiment_rows(n_per_label: int = 200, seed: int = 0) -> list[tuple[int, str]]:
    """(label, text) rows, n_per_label of each class, label 1 = positive."""
    rng = derive_rng(seed, "sentiment-corpus")
    rows: list[tuple[int, str]] = []
    for i in range(n_per_label * 2):
        label = i % 2
        words = POSITIVE_WORDS if label == 1 else NEGATIVE_WORDS
        sentiment = words[int(rng.integers(len(words)))]
        filler = FILLER_WORDS[int(rng.integers(len(FILLER_WORDS)))]
        rows.append((label, f"the movie was {sentiment} {filler}"))
    return rows


def with_label_noise(
    rows: list[tuple[int, str]], fraction: float, num_labels: int, seed: int = 0
) -> list[tuple[int, str]]:
    """Flip a seeded `fraction` of the labels to a different class."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"noise fraction must lie in [0, 1], got {fraction}")
    rng = derive_rng(seed, "label-noise")
    n_flip = int(round(fraction * len(rows)))
    flip = set(rng.permutation(len(rows))[:n_flip].tolist())
    noisy = []
    for i, (label, text) in enumerate(rows):
        if i in flip:
            label = (label + 1 + int(rng.integers(num_labels - 1))) % num_labels
        noisy.append((label, text))
    return noisy


def write_rows_tsv(rows: list[tuple[int, str]], path) -> None:
    write_text(path, "\n".join(f"{label}\t{text}" for label, text in rows) + "\n")
