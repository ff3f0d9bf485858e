"""Downstream sentence classifiers and the augmentation A/B harness.

Two evaluators measure what an augmented training set buys: a convolutional
classifier (filter widths over word embeddings, max-over-time pooling, a
two-layer ReLU head, softmax) and a recurrent one (single-layer LSTM whose
final state feeds an affine layer with softmax). Both train with Adam and
dropout through the shared `training.fit` loop and stop early on validation
accuracy.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import tensor as T
from .checkpoint import check_field_types, load_model, save_model
from .seeding import derive_rng
from .tensor import Tensor
from .text import Dataset, LabeledExample, PAD_ID, pad_rows
from .training import fit

RECORDS_FORMAT = "# maskaug-ab-records v1"
CLF_CONFIG_FORMAT = "maskaug-classifier-config v1"
_CLIP_NORM = 5.0  # global gradient-norm cap for both classifiers


@dataclass(frozen=True)
class CnnConfig:
    filter_widths: tuple[int, ...] = (3, 4, 5)
    num_filters: int = 32
    emb_dim: int = 32
    hidden_dim: int = 64
    dropout: float = 0.5
    lr: float = 1e-3
    seed: int = 0
    max_epochs: int = 30
    batch_size: int = 32
    patience: int = 5

    def __post_init__(self):
        object.__setattr__(self, "filter_widths", tuple(self.filter_widths))
        check_field_types(self)
        if not self.filter_widths or any(w < 1 for w in self.filter_widths):
            raise ValueError(f"filter widths must be positive, got {self.filter_widths}")
        for name in ("num_filters", "emb_dim", "hidden_dim", "max_epochs", "batch_size", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if not self.lr > 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")


@dataclass(frozen=True)
class RnnConfig:
    emb_dim: int = 32
    state_dim: int = 64
    dropout: float = 0.3
    lr: float = 1e-3
    seed: int = 0
    max_epochs: int = 30
    batch_size: int = 32
    patience: int = 5

    def __post_init__(self):
        check_field_types(self)
        for name in ("emb_dim", "state_dim", "max_epochs", "batch_size", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if not self.lr > 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")


@dataclass
class EvalReport:
    """Per-split accuracies and confusion counts for one trained model."""

    accuracy: dict[str, float]
    confusion: dict[str, np.ndarray]


@dataclass
class Classifier:
    kind: str  # "cnn" | "rnn"
    params: dict[str, Tensor]
    config: "CnnConfig | RnnConfig"
    vocab_size: int
    num_labels: int
    epochs_used: int = 0


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


def _pad_batch(
    examples: Sequence[LabeledExample], min_len: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    lengths = np.array([len(ex.tokens) for ex in examples], dtype=np.int64)
    token_ids = pad_rows([ex.tokens for ex in examples], PAD_ID, max(lengths.max(), min_len))
    labels = np.array([ex.label for ex in examples], dtype=np.int64)
    return token_ids, lengths, labels


# ---------------------------------------------------------------------------
# CNN
# ---------------------------------------------------------------------------


def _init_cnn(cfg: CnnConfig, vocab_size: int, num_labels: int, rng) -> dict[str, Tensor]:
    def normal(*shape, std):
        return Tensor(rng.normal(0.0, std, size=shape), requires_grad=True)

    params = {"emb": normal(vocab_size, cfg.emb_dim, std=0.1)}
    for w in cfg.filter_widths:
        fan_in = w * cfg.emb_dim
        params[f"conv{w}_w"] = normal(fan_in, cfg.num_filters, std=1.0 / np.sqrt(fan_in))
        params[f"conv{w}_b"] = Tensor(np.zeros(cfg.num_filters), requires_grad=True)
    total = cfg.num_filters * len(cfg.filter_widths)
    params["fc1_w"] = normal(total, cfg.hidden_dim, std=1.0 / np.sqrt(total))
    params["fc1_b"] = Tensor(np.zeros(cfg.hidden_dim), requires_grad=True)
    params["fc2_w"] = normal(cfg.hidden_dim, num_labels, std=1.0 / np.sqrt(cfg.hidden_dim))
    params["fc2_b"] = Tensor(np.zeros(num_labels), requires_grad=True)
    return params


def _cnn_logits(
    params: dict[str, Tensor],
    cfg: CnnConfig,
    token_ids: np.ndarray,
    lengths: np.ndarray,
    rng,
) -> Tensor:
    b, t = token_ids.shape
    emb = T.embedding_lookup(params["emb"], token_ids)  # (B, T, E)
    pooled = []
    for w in cfg.filter_widths:
        windows = T.unfold_windows(emb, w)  # (B, L, w*E)
        feat = T.relu(T.add(T.matmul(windows, params[f"conv{w}_w"]), params[f"conv{w}_b"]))
        n = t - w + 1
        # windows that start beyond a sentence's own span never win the max;
        # sentences shorter than the filter keep their first (padded-up) window
        n_valid = np.maximum(lengths - w + 1, 1)
        invalid = np.arange(n)[None, :] >= n_valid[:, None]
        feat = T.add(feat, Tensor(np.where(invalid, T.MASK_NEG, 0.0)[:, :, None]))
        pooled.append(T.reduce_max(feat, axis=1))  # (B, F)
    x = T.concat(pooled, axis=-1)
    train = rng is not None
    x = T.dropout(x, cfg.dropout, rng, train)
    x = T.relu(T.add(T.matmul(x, params["fc1_w"]), params["fc1_b"]))
    x = T.dropout(x, cfg.dropout, rng, train)
    return T.add(T.matmul(x, params["fc2_w"]), params["fc2_b"])


# ---------------------------------------------------------------------------
# LSTM
# ---------------------------------------------------------------------------


def _init_rnn(cfg: RnnConfig, vocab_size: int, num_labels: int, rng) -> dict[str, Tensor]:
    def normal(*shape, std):
        return Tensor(rng.normal(0.0, std, size=shape), requires_grad=True)

    h = cfg.state_dim
    bias = np.zeros(4 * h)
    bias[h : 2 * h] = 1.0  # forget gate opens at init
    return {
        "emb": normal(vocab_size, cfg.emb_dim, std=0.1),
        "w_ih": normal(cfg.emb_dim, 4 * h, std=1.0 / np.sqrt(cfg.emb_dim)),
        "w_hh": normal(h, 4 * h, std=1.0 / np.sqrt(h)),
        "b": Tensor(bias, requires_grad=True),
        "out_w": normal(h, num_labels, std=1.0 / np.sqrt(h)),
        "out_b": Tensor(np.zeros(num_labels), requires_grad=True),
    }


def _rnn_logits(
    params: dict[str, Tensor],
    cfg: RnnConfig,
    token_ids: np.ndarray,
    lengths: np.ndarray,
    rng,
) -> Tensor:
    emb, w_ih, w_hh, b = (params[k] for k in ("emb", "w_ih", "w_hh", "b"))
    h = T.lstm(emb, w_ih, w_hh, b, token_ids, lengths, cfg.state_dim)  # (B, H) final states
    h = T.dropout(h, cfg.dropout, rng, rng is not None)
    return T.add(T.matmul(h, params["out_w"]), params["out_b"])


# ---------------------------------------------------------------------------
# shared training / evaluation
# ---------------------------------------------------------------------------


class _Kind(NamedTuple):
    config: type
    init: Callable
    logits: Callable  # (params, config, ids, lengths, rng) -> logits; an rng trains
    min_len: Callable  # config -> shortest padded batch the logits accept


_KINDS = {
    "cnn": _Kind(CnnConfig, _init_cnn, _cnn_logits, lambda cfg: max(cfg.filter_widths)),
    "rnn": _Kind(RnnConfig, _init_rnn, _rnn_logits, lambda cfg: 1),
}


def _kind(kind: str) -> _Kind:
    if kind not in _KINDS:
        raise ValueError(f"unknown classifier kind {kind!r}")
    return _KINDS[kind]


def _check_vocab(clf: Classifier, examples: Sequence[LabeledExample]) -> None:
    top = max(max(ex.tokens) for ex in examples)
    if top >= clf.vocab_size:
        raise ValueError(
            f"vocabulary mismatch: example id {top} >= classifier vocab {clf.vocab_size}"
        )


def predict_logits(clf: Classifier, examples: Sequence[LabeledExample]) -> np.ndarray:
    _check_vocab(clf, examples)
    spec = _KINDS[clf.kind]
    token_ids, lengths, _ = _pad_batch(examples, spec.min_len(clf.config))
    logits = spec.logits(clf.params, clf.config, token_ids, lengths, None)
    return logits.data


def predict_proba(clf: Classifier, example: LabeledExample) -> np.ndarray:
    """Class distribution for one example (eval mode, deterministic)."""
    return T.softmax(predict_logits(clf, [example])[0]).data


def evaluate(clf: Classifier, examples: Sequence[LabeledExample], split: str = "test") -> EvalReport:
    """Accuracy and confusion counts over a split, in eval mode."""
    if not examples:
        raise ValueError(f"cannot evaluate an empty {split} split")
    batch = 64
    preds = np.concatenate([
        predict_logits(clf, examples[start : start + batch]).argmax(axis=1)
        for start in range(0, len(examples), batch)
    ])
    confusion = np.zeros((clf.num_labels, clf.num_labels), dtype=np.int64)
    np.add.at(confusion, ([ex.label for ex in examples], preds), 1)
    return EvalReport(
        accuracy={split: int(confusion.trace()) / len(examples)},
        confusion={split: confusion},
    )


def _data_vocab_size(dataset: Dataset) -> int:
    return 1 + max(
        max(ex.tokens)
        for split in (dataset.train, dataset.val, dataset.test)
        if split
        for ex in split
    )


def train_classifier(
    dataset: Dataset,
    kind: str,
    cfg: "CnnConfig | RnnConfig | None" = None,
    vocab_size: int | None = None,
) -> tuple[Classifier, EvalReport]:
    """Train a `kind` ("cnn" or "rnn") classifier; `cfg` defaults to the
    kind's default config, `vocab_size` to the largest id in the data + 1."""
    spec = _kind(kind)
    cfg = spec.config() if cfg is None else cfg
    if not dataset.train:
        raise ValueError("training split is empty")
    if not dataset.val:
        raise ValueError("a validation split is required for early stopping")
    if vocab_size is None:
        vocab_size = _data_vocab_size(dataset)
    params = spec.init(cfg, vocab_size, dataset.num_labels, derive_rng(cfg.seed, kind, "init"))
    clf = Classifier(kind, params, cfg, vocab_size, dataset.num_labels)
    min_len = spec.min_len(cfg)
    val_reports: dict[int, EvalReport] = {}

    def chunk_loss(params, chunk, rng):
        token_ids, lengths, labels = _pad_batch(chunk, min_len)
        logits = spec.logits(params, cfg, token_ids, lengths, rng)
        loss, _ = T.cross_entropy(logits, labels)
        return loss, len(chunk), float((logits.data.argmax(axis=1) == labels).mean())

    def validate(params, epoch, train_loss, train_acc):
        clf.params = params
        val_reports[epoch] = evaluate(clf, dataset.val, "val")
        return val_reports[epoch].accuracy["val"]

    clf.params, clf.epochs_used = fit(
        params, dataset.train, chunk_loss, validate,
        epochs=cfg.max_epochs, batch_size=cfg.batch_size, lr=cfg.lr, patience=cfg.patience,
        clip_norm=_CLIP_NORM, seed=cfg.seed, phase=kind,
    )
    train_report = evaluate(clf, dataset.train, "train")
    val_report = val_reports[clf.epochs_used]  # scored on the parameters fit kept
    report = EvalReport(
        accuracy={**train_report.accuracy, **val_report.accuracy},
        confusion={**train_report.confusion, **val_report.confusion},
    )
    return clf, report


def train_cnn(
    dataset: Dataset, cfg: CnnConfig | None = None, vocab_size: int | None = None
) -> tuple[Classifier, EvalReport]:
    return train_classifier(dataset, "cnn", cfg, vocab_size)


def train_rnn(
    dataset: Dataset, cfg: RnnConfig | None = None, vocab_size: int | None = None
) -> tuple[Classifier, EvalReport]:
    return train_classifier(dataset, "rnn", cfg, vocab_size)


def check_folds(n_examples: int, folds: int) -> None:
    """Raise ValueError unless `n_examples` can fill `folds` >= 2 folds and
    every fold leaves at least 2 examples to split into training and
    validation."""
    if folds < 2:
        raise ValueError("cross-validation needs at least 2 folds")
    if n_examples < folds:
        raise ValueError(f"{n_examples} examples cannot fill {folds} folds")
    rest = n_examples - (n_examples + folds - 1) // folds  # outside the largest fold
    if rest < 2:
        raise ValueError(
            f"{n_examples} examples in {folds} folds leave {rest} outside the largest fold; "
            "training and validation need 2"
        )


def cross_validate(
    examples: Sequence[LabeledExample],
    num_labels: int,
    kind: str = "cnn",
    cfg: "CnnConfig | RnnConfig | None" = None,
    folds: int = 10,
    vocab_size: int | None = None,
) -> tuple[float, list[float]]:
    """k-fold cross-validation accuracy; off the default path, for corpora
    without a standard test split. Fold assignment is deterministic in the
    config seed. Returns (mean accuracy, per-fold accuracies).
    """
    check_folds(len(examples), folds)
    cfg = _kind(kind).config() if cfg is None else cfg
    order = derive_rng(cfg.seed, "cv-folds").permutation(len(examples))
    assignment = [order[i::folds].tolist() for i in range(folds)]
    scores: list[float] = []
    for fold, held_out in enumerate(assignment):
        held = set(held_out)
        rest = [examples[i] for i in range(len(examples)) if i not in held]
        cut = max(1, len(rest) // 10)
        fold_data = Dataset(
            train=rest[cut:], val=rest[:cut],
            test=[examples[i] for i in held_out], num_labels=num_labels,
        )
        clf, _ = train_classifier(fold_data, kind, cfg, vocab_size)
        scores.append(evaluate(clf, fold_data.test, "test").accuracy["test"])
    return float(np.mean(scores)), scores


# the configurations grid_search tries: every combination of these field values
GRID = {"lr": (1e-3, 3e-3), "dropout": (0.0, 0.3, 0.5)}


def grid_search(
    dataset: Dataset,
    kind: str = "cnn",
    cfg: "CnnConfig | RnnConfig | None" = None,
    vocab_size: int | None = None,
) -> tuple["CnnConfig | RnnConfig", list[dict]]:
    """Pick the config with the best validation accuracy over GRID.

    Every combination of GRID's values is tried with everything else held
    at `cfg`. Returns (best config, trials).
    """
    cfg = _kind(kind).config() if cfg is None else cfg
    combos: list[dict] = [{}]
    for name, values in GRID.items():
        combos = [{**combo, name: value} for combo in combos for value in values]
    trials: list[dict] = []
    best_cfg, best_acc = cfg, -1.0
    for combo in combos:
        candidate = replace(cfg, **combo)
        _, rep = train_classifier(dataset, kind, candidate, vocab_size)
        acc = rep.accuracy["val"]
        trials.append({**combo, "val_accuracy": acc})
        if acc > best_acc:
            best_cfg, best_acc = candidate, acc
    return best_cfg, trials


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def save_classifier(clf: Classifier, path) -> None:
    meta = {
        "format": CLF_CONFIG_FORMAT,
        "kind": clf.kind,
        "config": asdict(clf.config),
        "vocab_size": clf.vocab_size,
        "num_labels": clf.num_labels,
        "epochs_used": clf.epochs_used,
    }
    save_model(clf.params, meta, path)


def load_classifier(path) -> Classifier:
    def build(meta):
        spec = _kind(meta["kind"])
        clf = Classifier(
            meta["kind"], {}, spec.config(**meta["config"]),
            meta["vocab_size"], meta["num_labels"], meta["epochs_used"],
        )
        rng = np.random.default_rng(0)
        return clf, spec.init(clf.config, clf.vocab_size, clf.num_labels, rng)

    clf, params = load_model(path, CLF_CONFIG_FORMAT, build)
    clf.params = params
    return clf


# ---------------------------------------------------------------------------
# A/B experiment
# ---------------------------------------------------------------------------

Augmenter = Callable[[Dataset, int], Dataset]


def ab_experiment(
    dataset: Dataset,
    augmenters: Mapping[str, Augmenter | None],
    classifier: str = "cnn",
    seeds: Sequence[int] = (1, 2, 3),
    cfg: "CnnConfig | RnnConfig | None" = None,
    vocab_size: int | None = None,
) -> tuple[list[dict], dict[str, float]]:
    """Train one classifier per (augmentation arm x seed) and compare.

    Every arm of a seed shares the classifier config, seed, and embedding
    shape (pass `vocab_size`; augmenters may introduce ids unseen in the
    base data); only the augmented training split differs. `None` as an
    augmenter means the untouched dataset. Returns (per-run records,
    arm -> mean accuracy).
    """
    if not seeds:
        raise ValueError("need at least one seed")
    spec = _kind(classifier)
    cfg = spec.config() if cfg is None else cfg
    if vocab_size is None:
        vocab_size = _data_vocab_size(dataset)
    records: list[dict] = []
    for seed in seeds:
        for arm, fn in augmenters.items():
            arm_data = fn(dataset, seed) if fn is not None else dataset
            run_cfg = replace(cfg, seed=seed)
            clf, _ = train_classifier(arm_data, classifier, run_cfg, vocab_size)
            test_acc = evaluate(clf, arm_data.test, "test").accuracy["test"]
            records.append(
                {
                    "arm": arm,
                    "seed": seed,
                    "test_accuracy": test_acc,
                    "train_size": len(arm_data.train),
                    "epochs_used": clf.epochs_used,
                }
            )
    summary = {
        arm: float(np.mean([r["test_accuracy"] for r in records if r["arm"] == arm]))
        for arm in augmenters
    }
    return records, summary


def write_records(records: Sequence[dict], path) -> None:
    lines = [RECORDS_FORMAT, "# arm\tseed\ttest_accuracy\ttrain_size\tepochs_used"]
    for r in records:
        lines.append(
            f"{r['arm']}\t{r['seed']}\t{r['test_accuracy']!r}\t{r['train_size']}\t{r['epochs_used']}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def format_table(records: Sequence[dict], summary: Mapping[str, float]) -> str:
    """Aligned text table: one row per arm, one column per seed, then mean."""
    seeds = sorted({r["seed"] for r in records})
    header = ["arm"] + [f"seed {s}" for s in seeds] + ["mean"]
    rows = [header]
    for arm in summary:
        by_seed = {r["seed"]: r["test_accuracy"] for r in records if r["arm"] == arm}
        rows.append(
            [arm]
            + [f"{by_seed[s]:.4f}" if s in by_seed else "-" for s in seeds]
            + [f"{summary[arm]:.4f}"]
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines)
