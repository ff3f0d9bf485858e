"""Dataset augmentation by masked-word substitution.

Three augmenters share the substitution-only contract (same token count,
same label on the output):

* the conditional augmenter queries the fine-tuned encoder with the
  sentence's own label as condition, so replacements stay label-compatible;
* the unconditional augmenter queries a pretrained encoder under the
  neutral condition 0 -- the comparison baseline whose replacements can
  contradict the label;
* the synonym augmenter swaps words from a user-supplied table.

Mask positions are drawn before any model is consulted, so two augmenters
running under the same seed mask the same slots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .encoder import EncoderConfig, mlm_distribution
from .seeding import derive_rng
from .tensor import Tensor
from .text import Dataset, LabeledExample, NUM_SPECIALS, ParseError, Vocabulary, decode
from .training import SkipExample, maskable_positions

AUGMENTED_TSV_FORMAT = "# maskaug-augmented-tsv v1"
SYNONYM_FORMAT = "# maskaug-synonyms v1"


@dataclass(frozen=True)
class AugmentationPolicy:
    """Masking width, sampler, and pass count for dataset augmentation.

    k may be one int or an inclusive (lo, hi) range drawn per sentence.
    """

    k: "int | tuple[int, int]" = (1, 2)
    sampler: str = "top_k"  # greedy | top_k | temperature
    top_k: int = 10
    temperature: float = 1.0
    exclude_original: bool = True
    multiplier: int = 1
    seed: int = 0

    def __post_init__(self):
        ks = (self.k,) if isinstance(self.k, int) else tuple(self.k)
        if any(k < 1 for k in ks):
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not isinstance(self.k, int) and ks[0] > ks[1]:
            raise ValueError(f"k range must be (lo, hi) with lo <= hi, got {self.k}")
        if self.sampler not in ("greedy", "top_k", "temperature"):
            raise ValueError(f"unknown sampler {self.sampler!r}")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.temperature <= 0.0:
            raise ValueError("temperature must be > 0")
        if self.multiplier < 1:
            raise ValueError("multiplier must be >= 1")


@dataclass
class AugmentReport:
    """Tally of a dataset pass: accepted generations, skips, provenance."""

    generated: int = 0
    skipped: int = 0
    provenance: list[tuple[int, str, tuple[int, ...]]] = field(default_factory=list)


def _draw_k(policy: AugmentationPolicy, rng: np.random.Generator) -> int:
    if isinstance(policy.k, int):
        return policy.k
    lo, hi = policy.k
    return int(rng.integers(lo, hi + 1))


def sample_replacement(
    probs: np.ndarray,
    original: int,
    policy: AugmentationPolicy,
    rng: "np.random.Generator | None",
) -> int:
    """Draw one replacement id from a cloze distribution row.

    Specials are never candidates; with exclude_original the original id is
    dropped too, returning only when nothing else has mass. rng may be None
    for the greedy sampler.
    """
    p = probs.astype(np.float64).copy()
    p[:NUM_SPECIALS] = 0.0
    if policy.exclude_original:
        p[original] = 0.0
    if p.sum() <= 0.0:
        # nothing but the original survives the exclusions: allow it back
        p = probs.astype(np.float64).copy()
        p[:NUM_SPECIALS] = 0.0
    if p.sum() <= 0.0:
        raise SkipExample("no candidate tokens outside the specials")
    if policy.temperature != 1.0:
        live = p > 0.0
        p[live] = np.exp(np.log(p[live]) / policy.temperature)
    if policy.sampler == "greedy":
        return int(np.argmax(p))
    if policy.sampler == "top_k":
        order = np.argsort(-p, kind="stable")
        keep = order[: policy.top_k]
        trimmed = np.zeros_like(p)
        trimmed[keep] = p[keep]
        p = trimmed
    p = p / p.sum()
    return int(rng.choice(p.size, p=p))


def _substitute(
    params: dict[str, Tensor],
    config: EncoderConfig,
    example: LabeledExample,
    policy: AugmentationPolicy,
    rng: np.random.Generator,
    cond_id: int,
) -> tuple[LabeledExample, tuple[int, ...]]:
    """Mask, predict, refill. Returns the new example and the masked slots."""
    candidates = maskable_positions(example.tokens)
    k = _draw_k(policy, rng)
    if len(candidates) < k:
        raise SkipExample(f"{len(candidates)} maskable tokens < k={k}")
    chosen = sorted(rng.choice(len(candidates), size=k, replace=False).tolist())
    positions = [candidates[i] for i in chosen]
    probs = mlm_distribution(params, config, example.tokens, positions, cond_id)
    tokens = list(example.tokens)
    for row, pos in enumerate(positions):
        tokens[pos] = sample_replacement(probs[row], example.tokens[pos], policy, rng)
    return LabeledExample(tuple(tokens), example.label), tuple(positions)


def augment_sentence(
    params: dict[str, Tensor],
    config: EncoderConfig,
    example: LabeledExample,
    policy: AugmentationPolicy,
    rng: np.random.Generator,
) -> LabeledExample:
    """One label-conditional variant of `example` (condition = its label)."""
    new, _ = _substitute(params, config, example, policy, rng, cond_id=example.label)
    return new


# ---------------------------------------------------------------------------
# synonym table
# ---------------------------------------------------------------------------


class SynonymTable:
    """word -> synonym list, from a 'word<TAB>syn1,syn2,...' file."""

    def __init__(self, entries: dict[str, tuple[str, ...]]):
        for word, syns in entries.items():
            alternatives = tuple(s for s in syns if s != word)
            if not alternatives:
                raise ValueError(
                    f"synonym entry for {word!r} offers no alternative to itself"
                )
        self._entries = {w: tuple(s) for w, s in entries.items()}

    def __contains__(self, word: str) -> bool:
        return word in self._entries

    def alternatives(self, word: str) -> tuple[str, ...]:
        return tuple(s for s in self._entries.get(word, ()) if s != word)

    @staticmethod
    def load(path) -> "SynonymTable":
        entries: dict[str, tuple[str, ...]] = {}
        path = Path(path)
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 2 or not fields[1].strip():
                raise ParseError(f"{path}:{lineno}: expected 'word<TAB>syn1,syn2,...'")
            word = fields[0].strip()
            syns = tuple(s.strip() for s in fields[1].split(",") if s.strip())
            entries[word] = syns
        if not entries:
            raise ParseError(f"{path}: no synonym entries")
        return SynonymTable(entries)


def synonym_augment(
    example: LabeledExample,
    table: SynonymTable,
    k: int,
    rng: np.random.Generator,
    vocab: Vocabulary,
) -> LabeledExample:
    """Replace up to k table-covered words with uniformly chosen synonyms.

    Only synonyms the vocabulary can represent are candidates, so the
    output never contains the unknown-word id.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    covered: list[tuple[int, tuple[str, ...]]] = []
    for pos in maskable_positions(example.tokens):
        word = vocab.token_of(example.tokens[pos])
        options = tuple(s for s in table.alternatives(word) if s in vocab)
        if options:
            covered.append((pos, options))
    if not covered:
        raise SkipExample("no table-covered words in sentence")
    if len(covered) > k:
        chosen = sorted(rng.choice(len(covered), size=k, replace=False).tolist())
        covered = [covered[i] for i in chosen]
    tokens = list(example.tokens)
    for pos, options in covered:
        tokens[pos] = vocab.id_of(options[int(rng.integers(len(options)))])
    return LabeledExample(tuple(tokens), example.label)


# ---------------------------------------------------------------------------
# dataset-level passes
# ---------------------------------------------------------------------------


def _dataset_pass(
    dataset: Dataset,
    multiplier: int,
    seed: int,
    name: str,
    substitute_one: Callable[[LabeledExample, np.random.Generator], tuple[LabeledExample, tuple[int, ...]]],
    stream_tag: str,
) -> tuple[Dataset, AugmentReport]:
    report = AugmentReport()
    generated: list[LabeledExample] = []
    for round_no in range(1, multiplier + 1):
        for idx, example in enumerate(dataset.train):
            rng = derive_rng(seed, "augment", stream_tag, round_no, idx)
            try:
                new, positions = substitute_one(example, rng)
            except SkipExample:
                report.skipped += 1
                continue
            generated.append(new)
            report.generated += 1
            report.provenance.append((idx, name, positions))
    augmented = Dataset(
        train=list(dataset.train) + generated,
        val=list(dataset.val),
        test=list(dataset.test),
        num_labels=dataset.num_labels,
    )
    return augmented, report


def augment_dataset(
    params: dict[str, Tensor],
    config: EncoderConfig,
    dataset: Dataset,
    policy: AugmentationPolicy,
    *,
    unconditional: bool = False,
    seed: int | None = None,
) -> tuple[Dataset, AugmentReport]:
    """Grow the train split: originals first, then `multiplier` passes of
    generated variants in sentence order. Deterministic for a fixed seed;
    too-short sentences are skipped and tallied, never errors.
    """
    seed = policy.seed if seed is None else seed
    name = "bert" if unconditional else "cbert"

    def one(example, rng):
        cond = 0 if unconditional else example.label
        return _substitute(params, config, example, policy, rng, cond)

    # one shared stream tag: conditional and unconditional passes under the
    # same seed mask the same positions and differ only through the model
    return _dataset_pass(dataset, policy.multiplier, seed, name, one, "mlm")


def synonym_augment_dataset(
    dataset: Dataset,
    table: SynonymTable,
    vocab: Vocabulary,
    k: int = 1,
    multiplier: int = 1,
    seed: int = 0,
) -> tuple[Dataset, AugmentReport]:
    def one(example, rng):
        new = synonym_augment(example, table, k, rng, vocab)
        changed = tuple(
            i for i, (a, b) in enumerate(zip(example.tokens, new.tokens)) if a != b
        )
        return new, changed

    return _dataset_pass(dataset, multiplier, seed, "synonym", one, "synonym")


def write_augmented_tsv(
    path, dataset: Dataset, n_originals: int, report: AugmentReport, vocab: Vocabulary
) -> None:
    """Augmented train split as TSV with provenance columns appended.

    Columns: label, text, source row, augmenter, masked positions. The file
    is loadable by read_tsv, which ignores the extra columns.
    """
    lines = [AUGMENTED_TSV_FORMAT, "# label\ttext\tsource\taugmenter\tpositions"]
    for i, ex in enumerate(dataset.train[:n_originals]):
        lines.append(f"{ex.label}\t{decode(ex.tokens, vocab)}\t{i}\toriginal\t")
    for ex, (src, name, positions) in zip(dataset.train[n_originals:], report.provenance):
        pos_txt = ",".join(str(p) for p in positions)
        lines.append(f"{ex.label}\t{decode(ex.tokens, vocab)}\t{src}\t{name}\t{pos_txt}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
