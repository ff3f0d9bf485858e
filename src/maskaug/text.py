"""Word-level tokenization, vocabulary, and labeled TSV ingestion."""

from __future__ import annotations

import os
import re
import warnings
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .seeding import derive_rng

PAD_ID, UNK_ID, MASK_ID, CLS_ID = 0, 1, 2, 3
PAD_TOKEN, UNK_TOKEN, MASK_TOKEN, CLS_TOKEN = "<pad>", "<unk>", "<mask>", "<cls>"
SPECIAL_TOKENS = (PAD_TOKEN, UNK_TOKEN, MASK_TOKEN, CLS_TOKEN)
NUM_SPECIALS = len(SPECIAL_TOKENS)

# special surfaces stay atomic so that decode -> encode round-trips
_TOKEN_RE = re.compile(r"<(?:pad|unk|mask|cls)>|\w+|[^\w\s]")


class ParseError(ValueError):
    """Malformed dataset or table file; message carries path and line."""


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, detach punctuation as its own tokens."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Vocabulary:
    """token<->id maps, `token_to_id` built from `id_to_token`; ids 0-3 are pad/unk/mask/cls."""

    id_to_token: tuple[str, ...]
    token_to_id: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "token_to_id", {t: i for i, t in enumerate(self.id_to_token)})

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def token_of(self, idx: int) -> str:
        if not 0 <= idx < len(self.id_to_token):
            raise IndexError(f"token id {idx} out of range [0, {len(self.id_to_token)})")
        return self.id_to_token[idx]


def build_vocab(
    corpus: Iterable[Sequence[str]],
    min_freq: int = 1,
    max_size: int | None = None,
) -> Vocabulary:
    """Vocabulary over tokenized sentences: frequency floor, then size cap.

    Retention order is (frequency desc, token asc); the four specials are
    always present and count toward max_size.
    """
    if min_freq < 1:
        raise ValueError(f"min_freq must be >= 1, got {min_freq}")
    if max_size is not None and max_size < NUM_SPECIALS:
        raise ValueError(f"max_size must be >= {NUM_SPECIALS}, got {max_size}")
    counts: Counter[str] = Counter()
    n_sentences = 0
    for sentence in corpus:
        n_sentences += 1
        counts.update(sentence)
    if n_sentences == 0:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    kept = [(tok, c) for tok, c in counts.items() if c >= min_freq]
    kept.sort(key=lambda item: (-item[1], item[0]))
    if max_size is not None:
        kept = kept[: max_size - NUM_SPECIALS]
    return Vocabulary(SPECIAL_TOKENS + tuple(tok for tok, _ in kept))


def encode(text: str, vocab: Vocabulary, max_len: int) -> list[int]:
    """Token ids with a leading CLS, truncated to max_len ids total."""
    ids = [CLS_ID] + [vocab.id_of(t) for t in tokenize(text)]
    return ids[:max_len]


def decode(ids: Sequence[int], vocab: Vocabulary) -> str:
    """Surface text for an id sequence; PAD and CLS are skipped."""
    kept = []
    for i in ids:
        token = vocab.token_of(int(i))
        if i in (PAD_ID, CLS_ID):
            continue
        kept.append(token)
    return " ".join(kept)


def pad_rows(rows: Sequence[Sequence[int]], fill: int, width: int) -> np.ndarray:
    """Right-pad integer rows with `fill` into one (len(rows), width) int64 matrix."""
    out = np.full((len(rows), width), fill, dtype=np.int64)
    for i, row in enumerate(rows):
        out[i, : len(row)] = row
    return out


def write_text(path, text: str) -> None:
    """Write `text` as UTF-8 to a temp file beside `path`, then rename it into
    place, so a failed write leaves any previous file whole."""
    path = Path(path)
    staged = path.with_name(path.name + ".tmp")
    try:
        staged.write_text(text, encoding="utf-8")
        os.replace(staged, path)
    finally:
        staged.unlink(missing_ok=True)


def save_vocab(vocab: Vocabulary, path) -> None:
    write_text(path, "\n".join(vocab.id_to_token) + "\n")


def read_lines(path) -> list[str]:
    """Lines of a UTF-8 text file, split at '\\n', '\\r\\n' or '\\r' as text mode
    splits them; a line that is not UTF-8 raises ParseError naming the path
    and the line."""
    path = Path(path)
    lines = []
    for lineno, raw in enumerate(path.read_bytes().splitlines(), start=1):
        try:
            lines.append(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"{path}:{lineno}: not UTF-8 text (byte 0x{raw[exc.start]:02x} "
                f"at offset {exc.start})"
            ) from None
    return lines


def load_vocab(path) -> Vocabulary:
    lines = read_lines(path)
    if tuple(lines[:NUM_SPECIALS]) != SPECIAL_TOKENS:
        raise ParseError(f"{path}: first {NUM_SPECIALS} lines must be {SPECIAL_TOKENS}")
    seen = set()
    for lineno, token in enumerate(lines, 1):
        if token in seen:  # a second id for it would leave the first one unused
            raise ParseError(f"{path}:{lineno}: {token!r} is listed twice")
        seen.add(token)
    return Vocabulary(tuple(lines))


# ---------------------------------------------------------------------------
# labeled datasets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LabeledExample:
    """One encoded sentence (CLS first, no interior padding) and its label."""

    tokens: tuple[int, ...]
    label: int


@dataclass
class Dataset:
    train: list[LabeledExample]
    val: list[LabeledExample]
    test: list[LabeledExample]
    num_labels: int


def read_tsv(path) -> list[tuple[int, str]]:
    """Raw (label, text) rows of a 'label<TAB>text' file.

    Comment lines starting with '#' and blank lines are skipped; columns
    beyond the second (e.g. augmentation provenance) are ignored.
    """
    rows: list[tuple[int, str]] = []
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) < 2:
            raise ParseError(f"{path}:{lineno}: expected 'label<TAB>text'")
        if not (fields[0].isascii() and fields[0].isdigit()):  # int() also takes '+1', ' 0', '1_0'
            raise ParseError(
                f"{path}:{lineno}: label must be a non-negative integer, got {fields[0]!r}"
            )
        rows.append((int(fields[0]), fields[1]))
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return rows


def _check_labels(labels: Iterable[int], origin: str) -> int:
    present = set(labels)
    num_labels = max(present) + 1
    unused = num_labels - len(present)  # labels are non-negative, so all lie below num_labels
    if unused:
        # name the first few without building the whole label range
        first = list(islice((i for i in range(num_labels) if i not in present), 5))
        shown = ", ".join(map(str, first))
        named = f"[{shown}]" if unused == len(first) else f"[{shown}, ...] ({unused} in all)"
        warnings.warn(
            f"{origin}: labels {named} never occur but lie below the maximum "
            f"label {num_labels - 1}; the label set is taken as 0..{num_labels - 1}",
            stacklevel=3,
        )
    return num_labels


def load_tsv(
    path,
    vocab: Vocabulary,
    *,
    max_len: int = 64,
    val_fraction: float = 0.1,
    seed: int = 0,
    test_path=None,
) -> Dataset:
    """Encode a TSV file into a Dataset, carving a seeded validation split.

    num_labels is 1 + the maximum label over all files read; the validation
    rows are a deterministic `val_fraction` sample of the training file.
    """
    if not 0.0 <= val_fraction < 1.0:
        raise ValueError(f"val_fraction must be in [0, 1), got {val_fraction}")
    if max_len < 2:
        raise ValueError(f"max_len must be >= 2 (<cls> and one word), got {max_len}")
    rows = read_tsv(path)
    test_rows = read_tsv(test_path) if test_path is not None else []
    all_labels = [lab for lab, _ in rows] + [lab for lab, _ in test_rows]
    num_labels = _check_labels(all_labels, str(path))

    examples = [
        LabeledExample(tuple(encode(text, vocab, max_len)), label) for label, text in rows
    ]
    n = len(examples)
    n_val = 0
    if n > 1 and val_fraction > 0.0:
        n_val = min(n - 1, max(1, int(round(val_fraction * n))))
    rng = derive_rng(seed, "val-split", n)
    val_idx = set(rng.permutation(n)[:n_val].tolist())
    train = [ex for i, ex in enumerate(examples) if i not in val_idx]
    val = [ex for i, ex in enumerate(examples) if i in val_idx]
    test = [
        LabeledExample(tuple(encode(text, vocab, max_len)), label)
        for label, text in test_rows
    ]
    return Dataset(train=train, val=val, test=test, num_labels=num_labels)
