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
running under the same seed mask the same slots. The model-based augmenters
then sample every masked slot of a chunk in one vectorized pass: a top_k or
temperature slot takes one uniform draw from its sentence's stream, in slot
order, and a greedy slot takes none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Sequence

import numpy as np

from .checkpoint import check_field_types, is_int
from .encoder import EncoderConfig, mlm_distributions
from .seeding import derive_rng
from .tensor import Tensor
from .text import (
    Dataset, LabeledExample, NUM_SPECIALS, ParseError, Vocabulary, decode, read_lines, write_text,
)
from .training import SkipExample, choose_positions, maskable_positions

AUGMENTED_TSV_FORMAT = "# maskaug-augmented-tsv v1"

# picks per batched encoder forward in a refill; chunks are cut from the
# picks in length order (stable), so their make-up depends only on the picks,
# never on timing
CHUNK_SIZE = 32

# a sentence ready for its model call: the example, its random stream (None
# for a greedy refill), and what was drawn so far -- `(mask positions,
# condition id)` for a refill, the finished variant for a synonym pass; its
# outcome is the new example, under the sentence's own label, plus the
# changed slots, or the SkipExample that rejected it
Pick = tuple[LabeledExample, "np.random.Generator | None", object]
Outcome = tuple[LabeledExample, tuple[int, ...]] | SkipExample

NO_CANDIDATE = "no candidate tokens outside the specials"
SAMPLERS = ("greedy", "top_k", "temperature")


@dataclass(frozen=True)
class AugmentationPolicy:
    """Masking width, sampler, and pass count for dataset augmentation.

    k may be one int or an inclusive (lo, hi) range drawn per sentence.
    """

    k: "int | tuple[int, int]" = (1, 2)
    sampler: str = "top_k"  # one of SAMPLERS
    top_k: int = 10
    temperature: float = 1.0
    exclude_original: bool = True
    multiplier: int = 1
    seed: int = 0

    def __post_init__(self):
        check_field_types(self, sampler=SAMPLERS, top_k=1, temperature="(0, inf]", multiplier=1)
        k = self.k
        pair = isinstance(k, tuple) and len(k) == 2 and all(map(is_int, k)) and 1 <= k[0] <= k[1]
        if not (is_int(k) and k >= 1 or pair):
            raise ValueError(f"k must be an int >= 1 or a (lo, hi) pair of ints with "
                             f"1 <= lo <= hi, got {k!r}")


@dataclass
class AugmentReport:
    """Tally of a dataset pass: accepted generations, skips, provenance."""

    generated: int = 0
    skipped: int = 0
    provenance: list[tuple[int, str, tuple[int, ...]]] = field(default_factory=list)


def _draw_k(policy: AugmentationPolicy, rng: np.random.Generator) -> int:
    if not isinstance(policy.k, tuple):
        return policy.k
    lo, hi = policy.k
    return int(rng.integers(lo, hi + 1))


def _top_k_ids(p: np.ndarray, k: int) -> np.ndarray:
    """(rows, k) ids of the k largest entries of each row of `p`, ascending,
    for k below the row length.

    Ties at the k-th largest value keep the lowest ids, the keep-set of a
    stable descending sort, found by one O(V) partition per row; only the
    rows whose k-th value is tied past the k places take the tie fix.
    """
    n = p.shape[1]
    kth = np.partition(p, n - k, axis=1)[:, n - k, None]
    keep = p >= kth
    flat = np.flatnonzero(keep)
    over = np.flatnonzero(np.bincount(flat // n, minlength=len(p)) > k)
    if over.size:
        sub, cut = p[over], kth[over]
        tied = sub == cut
        room = k - np.count_nonzero(sub > cut, axis=1, keepdims=True)
        keep[over] = (sub > cut) | tied & (np.cumsum(tied, axis=1) <= room)
        flat = np.flatnonzero(keep)
    return (flat % n).reshape(len(p), k)


def sample_replacements(
    probs: np.ndarray,
    originals: Sequence[int],
    policy: AugmentationPolicy,
    rngs: Sequence["np.random.Generator | None"],
) -> np.ndarray:
    """One replacement id per row of `probs`, a (slots, V) stack of cloze
    distributions, each row with its original id and random stream.

    Specials are never candidates; with exclude_original a row's original
    id is dropped too, coming back only when nothing else has mass. A row
    with no candidate reads -1, and so does every later row on its stream
    (rng None excepted): a stream stops at its first skipped slot, as a
    sentence does. Every other top_k or temperature row takes one
    `rng.random()` from its stream, in row order, and looks it up in the
    cumulative sum of its normalized row, which gives the id and the stream
    state of `rng.choice(V, p=row)`; greedy draws nothing, so its rngs may
    be None. A row holding NaN or inf raises ValueError.
    """
    p = np.array(probs, dtype=np.float64, ndmin=2)
    slots = np.arange(len(p))
    originals = np.asarray(originals, dtype=np.intp)
    p[:, :NUM_SPECIALS] = 0.0
    if policy.exclude_original:
        own = p[slots, originals]
        p[slots, originals] = 0.0
    mass = p.sum(axis=1)
    # the per-row checks run on Python floats: a chunk has few rows, and at that size a
    # NumPy reduction costs more than the loop
    masses = mass.tolist()
    if policy.exclude_original and min(masses, default=1.0) <= 0.0:
        # nothing but the original survives the exclusions: allow it back
        back = slots[mass <= 0.0]
        p[back, originals[back]] = mass[back] = own[back]
        masses = mass.tolist()
    if not math.isfinite(sum(masses)):  # the rows are non-negative, so only NaN or inf gets here
        raise ValueError(f"cloze distribution row {np.flatnonzero(~np.isfinite(mass))[0]} "
                         "holds NaN or inf")
    skip = [m <= 0.0 for m in masses]
    live = None
    if any(skip):
        stopped = set()
        for i, rng in enumerate(rngs):
            if rng is not None and (skip[i] or id(rng) in stopped):
                skip[i] = True
                stopped.add(id(rng))
        live = [i for i, gone in enumerate(skip) if not gone]
        p = p[live]
    if policy.temperature != 1.0:
        # (p / max p) ** (1/T) in log space: the largest stays 1, so a small T cannot zero all
        pos = p > 0.0
        log_p = np.full_like(p, -np.inf)
        log_p[pos] = np.log(p[pos])
        p[pos] = np.exp(((log_p - log_p.max(axis=1, keepdims=True)) / policy.temperature)[pos])
    if policy.sampler == "greedy":
        picked = p.argmax(axis=1)
    else:
        draws = np.array([rng.random() for rng, gone in zip(rngs, skip) if not gone])
        if policy.sampler == "top_k" and policy.top_k < p.shape[1]:
            cols = _top_k_ids(p, policy.top_k)
            rows = np.arange(len(p))[:, None]
            # dropped entries add exact zeros to the cumulative sum, so the kept ones give its
            # steps; the normalizing sum runs over the full-width row, as choice's input did
            steps = p[rows, cols]
            kept = np.zeros_like(p)
            kept[rows, cols] = steps
        else:
            cols, kept, steps = None, p, p
        cdf = np.cumsum(steps / kept.sum(axis=1, keepdims=True), axis=1)
        cdf /= cdf[:, -1:]
        picked = np.count_nonzero(cdf <= draws[:, None], axis=1)  # searchsorted(side="right")
        if cols is not None:
            picked = cols[rows[:, 0], picked]
    if live is None:
        return picked
    ids = np.full(len(skip), -1)
    ids[live] = picked
    return ids


def sample_replacement(
    probs: np.ndarray,
    original: int,
    policy: AugmentationPolicy,
    rng: "np.random.Generator | None",
) -> int:
    """Draw one replacement id from a cloze distribution row: the one-row
    call of `sample_replacements`, raising SkipExample when nothing outside
    the specials has mass."""
    [chosen] = sample_replacements(probs, [original], policy, [rng])
    if chosen < 0:
        raise SkipExample(NO_CANDIDATE)
    return int(chosen)


def _refill(
    params: dict[str, Tensor],
    config: EncoderConfig,
    policy: AugmentationPolicy,
    picks: Sequence[Pick],
) -> list[Outcome]:
    """Each pick's masked slots refilled under its condition id, CHUNK_SIZE
    picks at a time, with outcomes in pick order: one batched encoder
    forward per chunk, then one `sample_replacements` over the chunk's
    stacked cloze rows. Chunks are cut from the picks in length order
    (stable), so a chunk pads to few extra positions. Each pick's slots draw
    from its own stream, in slot order, so every pick must own its stream or
    be greedy (None). A result keeps its sentence's label; no picks make no
    call."""
    outcomes: list = [None] * len(picks)
    order = sorted(range(len(picks)), key=lambda i: len(picks[i][0].tokens))
    for start in range(0, len(order), CHUNK_SIZE):
        indices = order[start:start + CHUNK_SIZE]
        chunk = [picks[i] for i in indices]
        queries = [(ex.tokens, positions, cond) for ex, _, (positions, cond) in chunk]
        slots = [(ex.tokens[pos], rng) for ex, rng, (positions, _) in chunk for pos in positions]
        originals, rngs = zip(*slots)
        probs = mlm_distributions(params, config, queries)
        ids = iter(sample_replacements(probs, originals, policy, rngs).tolist())
        for i, (example, _, (positions, _)) in zip(indices, chunk):
            chosen = list(islice(ids, len(positions)))
            if min(chosen) < 0:
                outcomes[i] = SkipExample(NO_CANDIDATE)
                continue
            tokens = list(example.tokens)
            for pos, new in zip(positions, chosen):
                tokens[pos] = new
            outcomes[i] = (LabeledExample(tuple(tokens), example.label), tuple(positions))
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
    pick = (example, rng, (positions, example.label))
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
            if not word:
                raise ValueError("a synonym entry has an empty word")
            if not alternatives:
                raise ValueError(f"synonym entry for {word!r} offers no alternative to itself")

    def alternatives(self, word: str) -> tuple[str, ...]:
        return self._entries.get(word, ())

    @staticmethod
    def load(path) -> "SynonymTable":
        entries: dict[str, tuple[str, ...]] = {}
        for lineno, line in enumerate(read_lines(path), 1):
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 2 or not fields[0].strip() or not fields[1].strip():
                raise ParseError(f"{path}:{lineno}: expected 'word<TAB>syn1,syn2,...'")
            word = fields[0].strip()
            if word in entries:
                raise ParseError(f"{path}:{lineno}: {word!r} is listed twice")
            syns = tuple(s for s in map(str.strip, fields[1].split(",")) if s and s != word)
            if not syns:
                raise ParseError(f"{path}:{lineno}: synonym entry for {word!r} offers no "
                                 "alternative to itself")
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
    SkipExample tallies a skip); the round's picks go to one `fill` call,
    and results keep dataset order."""
    report = AugmentReport()
    generated: list[LabeledExample] = []
    for round_no in range(1, multiplier + 1):
        indices, picks = [], []
        for idx, example in enumerate(dataset.train):
            rng = derive_rng(seed, "augment", stream_tag, round_no, idx)
            try:
                drawn = pick(example, rng)
            except SkipExample:
                report.skipped += 1
                continue
            indices.append(idx)
            picks.append((example, rng, drawn))
        for idx, outcome in zip(indices, fill(picks)):
            if isinstance(outcome, SkipExample):
                report.skipped += 1
                continue
            generated.append(outcome[0])
            report.provenance.append((idx, name, outcome[1]))
    report.generated = len(generated)
    return Dataset(train=list(dataset.train) + generated, val=list(dataset.val),
                   test=list(dataset.test), num_labels=dataset.num_labels), report


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
    and `sample_replacements` run once per chunk of CHUNK_SIZE sentences.
    """
    seed = policy.seed if seed is None else seed
    name = "bert" if unconditional else "cbert"
    # one shared stream tag: conditional and unconditional passes under the
    # same seed mask the same positions and differ only through the model
    # and the condition id (0 for bert); both keep the sentence's label
    return _dataset_pass(
        dataset, policy.multiplier, seed, name, "mlm",
        lambda ex, rng: (choose_positions(ex.tokens, _draw_k(policy, rng), rng),
                         0 if unconditional else ex.label),
        lambda picks: _refill(params, config, policy, picks),
    )


def synonym_augment_dataset(
    dataset: Dataset,
    table: SynonymTable,
    vocab: Vocabulary,
    policy: AugmentationPolicy,
    *,
    seed: int | None = None,
) -> tuple[Dataset, AugmentReport]:
    """`augment_dataset` with `synonym_augment` for the model: each sentence
    draws its k as there; the sampler fields do not apply."""
    seed = policy.seed if seed is None else seed

    def changed(example, new):
        return tuple(i for i, (a, b) in enumerate(zip(example.tokens, new.tokens)) if a != b)

    # the variant is finished when picked: there is no model to batch
    return _dataset_pass(
        dataset, policy.multiplier, seed, "synonym", "synonym",
        lambda example, rng: synonym_augment(example, table, _draw_k(policy, rng), rng, vocab),
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
    write_text(path, "\n".join(lines) + "\n")
