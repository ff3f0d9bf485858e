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
from itertools import islice
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .checkpoint import check_field_types
from .encoder import EncoderConfig, mlm_distributions
from .seeding import derive_rng
from .tensor import Tensor
from .text import (
    Dataset, LabeledExample, NUM_SPECIALS, ParseError, Vocabulary, decode, read_lines,
)
from .training import SkipExample, choose_positions, maskable_positions

AUGMENTED_TSV_FORMAT = "# maskaug-augmented-tsv v1"

# sentences per batched encoder forward in a dataset pass; chunks are cut
# from the non-skipped sentences in dataset order, so their make-up never
# depends on timing
CHUNK_SIZE = 32

# a sentence ready for its model call: the example, its random stream (None
# for a greedy refill), and what was drawn so far -- `(mask positions,
# condition id, label of the result)` for a refill, the finished variant for
# a synonym pass; its outcome is the new example plus the changed slots, or
# the SkipExample that rejected it
Pick = tuple[LabeledExample, "np.random.Generator | None", object]
Outcome = tuple[LabeledExample, tuple[int, ...]] | SkipExample


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
        check_field_types(self)
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


def _keep_top_k(p: np.ndarray, k: int) -> np.ndarray:
    """`p` with all but its k largest entries zeroed.

    Ties at the k-th largest value keep the lowest ids, the keep-set of a
    stable descending sort, found here by one O(V) partition.
    """
    if k >= p.size:
        return p
    kth = np.partition(p, p.size - k)[p.size - k]
    above = p > kth
    ties = np.flatnonzero(p == kth)[: k - np.count_nonzero(above)]
    kept = np.where(above, p, 0.0)
    kept[ties] = kth
    return kept


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
    p = probs.astype(np.float64)
    p[:NUM_SPECIALS] = 0.0
    if policy.exclude_original:
        p[original] = 0.0
    if p.sum() <= 0.0:
        # nothing but the original survives the exclusions: allow it back
        p = probs.astype(np.float64)
        p[:NUM_SPECIALS] = 0.0
    if p.sum() <= 0.0:
        raise SkipExample("no candidate tokens outside the specials")
    if policy.temperature != 1.0:
        live = p > 0.0
        p[live] = np.exp(np.log(p[live]) / policy.temperature)
    if policy.sampler == "greedy":
        return int(np.argmax(p))
    if policy.sampler == "top_k":
        p = _keep_top_k(p, policy.top_k)
    p = p / p.sum()
    return int(rng.choice(p.size, p=p))


def _refill(
    params: dict[str, Tensor],
    config: EncoderConfig,
    policy: AugmentationPolicy,
    picks: list[Pick],
) -> list[Outcome]:
    """One batched encoder forward for a chunk of masked sentences, each
    under its pick's condition id, then each sentence's slots sampled from
    that sentence's own stream; the result carries the pick's label."""
    queries = [(ex.tokens, positions, cond) for ex, _, (positions, cond, _) in picks]
    dists = mlm_distributions(params, config, queries)
    outcomes: list[Outcome] = []
    for (example, rng, (positions, _, label)), probs in zip(picks, dists):
        tokens = list(example.tokens)
        try:
            for row, pos in enumerate(positions):
                tokens[pos] = sample_replacement(probs[row], example.tokens[pos], policy, rng)
        except SkipExample as skip:
            outcomes.append(skip)
            continue
        outcomes.append((LabeledExample(tuple(tokens), label), tuple(positions)))
    return outcomes


def augment_sentence(
    params: dict[str, Tensor],
    config: EncoderConfig,
    example: LabeledExample,
    policy: AugmentationPolicy,
    rng: np.random.Generator,
) -> LabeledExample:
    """One label-conditional variant of `example` (condition = its label),
    made as a one-sentence chunk of a dataset pass."""
    positions = choose_positions(example.tokens, _draw_k(policy, rng), rng)
    pick = (example, rng, (positions, example.label, example.label))
    [outcome] = _refill(params, config, policy, [pick])
    if isinstance(outcome, SkipExample):
        raise outcome
    return outcome[0]


# ---------------------------------------------------------------------------
# synonym table
# ---------------------------------------------------------------------------


class SynonymTable:
    """word -> synonym list, from a 'word<TAB>syn1,syn2,...' file."""

    def __init__(self, entries: dict[str, tuple[str, ...]]):
        self._entries = {w: tuple(s for s in syns if s != w) for w, syns in entries.items()}
        for word, alternatives in self._entries.items():
            if not alternatives:
                raise ValueError(
                    f"synonym entry for {word!r} offers no alternative to itself"
                )

    def alternatives(self, word: str) -> tuple[str, ...]:
        return self._entries.get(word, ())

    @staticmethod
    def load(path) -> "SynonymTable":
        entries: dict[str, tuple[str, ...]] = {}
        for lineno, line in enumerate(read_lines(path), 1):
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
    stream_tag: str,
    pick: Callable[[LabeledExample, np.random.Generator], object],
    fill: Callable[[list[Pick]], list[Outcome]],
) -> tuple[Dataset, AugmentReport]:
    """`multiplier` rounds over the train split. Each round walks the split
    in order, derives each sentence's stream and runs `pick` on it (a
    SkipExample tallies a skip); the picked sentences go to `fill` in
    chunks of CHUNK_SIZE, and results keep dataset order."""
    report = AugmentReport()
    generated: list[LabeledExample] = []

    def picked(round_no: int) -> Iterator[tuple[int, Pick]]:
        for idx, example in enumerate(dataset.train):
            rng = derive_rng(seed, "augment", stream_tag, round_no, idx)
            try:
                drawn = pick(example, rng)
            except SkipExample:
                report.skipped += 1
                continue
            yield idx, (example, rng, drawn)

    for round_no in range(1, multiplier + 1):
        queue = picked(round_no)
        while chunk := list(islice(queue, CHUNK_SIZE)):
            for (idx, _), outcome in zip(chunk, fill([p for _, p in chunk])):
                if isinstance(outcome, SkipExample):
                    report.skipped += 1
                    continue
                new, positions = outcome
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
    too-short sentences are skipped and tallied, never errors. The encoder
    runs once per chunk of CHUNK_SIZE sentences.
    """
    seed = policy.seed if seed is None else seed
    name = "bert" if unconditional else "cbert"
    # one shared stream tag: conditional and unconditional passes under the
    # same seed mask the same positions and differ only through the model
    # and the condition id (0 for bert); both keep the sentence's label
    return _dataset_pass(
        dataset, policy.multiplier, seed, name, "mlm",
        lambda ex, rng: (choose_positions(ex.tokens, _draw_k(policy, rng), rng),
                         0 if unconditional else ex.label, ex.label),
        lambda picks: _refill(params, config, policy, picks),
    )


def synonym_augment_dataset(
    dataset: Dataset,
    table: SynonymTable,
    vocab: Vocabulary,
    k: int = 1,
    multiplier: int = 1,
    seed: int = 0,
) -> tuple[Dataset, AugmentReport]:
    def changed(example, new):
        return tuple(i for i, (a, b) in enumerate(zip(example.tokens, new.tokens)) if a != b)

    # the variant is finished when picked: there is no model to batch
    return _dataset_pass(
        dataset, multiplier, seed, "synonym", "synonym",
        lambda example, rng: synonym_augment(example, table, k, rng, vocab),
        lambda picks: [(new, changed(example, new)) for example, _, new in picks],
    )


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
