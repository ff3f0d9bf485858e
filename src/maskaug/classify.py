"""Downstream sentence classifiers and the augmentation A/B harness.

Two evaluators measure what an augmented training set buys: a convolutional
classifier (filter widths over word embeddings, max-over-time pooling, a
two-layer ReLU head, softmax) and a recurrent one (single-layer LSTM whose
final state feeds an affine layer with softmax). Each config class owns its
classifier's parameter layout, forward pass (on either op set: training
runs it on `maskaug.tensor`, inference on `tensor.ArrayOps`) and the logits
of a sentence's one-word-deleted variants; `CONFIGS` finds the class by the
kind a sidecar or `--classifier` names. Both train with Adam and dropout
through the shared `training.fit` loop and stop early on validation accuracy.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from functools import lru_cache
from typing import Callable, ClassVar, Mapping, Sequence

import numpy as np

from . import tensor as T
from .checkpoint import Layout, check_field_types, draw_params, load_model, save_model
from .seeding import derive_rng
from .tensor import Tensor
from .text import Dataset, LabeledExample, PAD_ID, pad_rows, write_text
from .training import _check_label_count, fit

RECORDS_FORMAT = "# maskaug-ab-records v1"
CLF_CONFIG_FORMAT = "maskaug-classifier-config v1"
_CLIP_NORM = 5.0  # global gradient-norm cap for both classifiers


@dataclass(frozen=True)
class CnnConfig:
    kind: ClassVar[str] = "cnn"  # not a field: the config class names its classifier
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
        check_field_types(
            self, num_filters=1, emb_dim=1, hidden_dim=1, max_epochs=1, batch_size=1, patience=1,
            dropout="[0, 1)", lr="(0, inf)",
        )
        widths = self.filter_widths
        if not widths or min(widths) < 1 or len(set(widths)) < len(widths):
            raise ValueError(f"filter widths must be positive and distinct, got {widths}")

    @property
    def min_len(self) -> int:
        """The shortest padded batch the logits accept: the widest filter."""
        return max(self.filter_widths)

    def layout(self, vocab_size: int, num_labels: int) -> Layout:
        layout = {"emb": ((vocab_size, self.emb_dim), 0.1)}
        for w in self.filter_widths:
            fan_in = w * self.emb_dim
            layout[f"conv{w}_w"] = ((fan_in, self.num_filters), 1.0 / np.sqrt(fan_in))
            layout[f"conv{w}_b"] = ((self.num_filters,), np.zeros)
        total = self.num_filters * len(self.filter_widths)
        layout["fc1_w"] = ((total, self.hidden_dim), 1.0 / np.sqrt(total))
        layout["fc1_b"] = ((self.hidden_dim,), np.zeros)
        layout["fc2_w"] = ((self.hidden_dim, num_labels), 1.0 / np.sqrt(self.hidden_dim))
        layout["fc2_b"] = ((num_labels,), np.zeros)
        return layout

    def logits(self, params: Mapping, token_ids: np.ndarray, lengths: np.ndarray, rng=None, ops=T):
        """(B, num_labels) logits on either op set, as `_head`; an rng trains
        (dropout on), None evaluates."""
        x = ops.conv_max_pool(
            params["emb"], [params[f"conv{w}_w"] for w in self.filter_widths],
            [params[f"conv{w}_b"] for w in self.filter_widths], token_ids, lengths,
        )  # (B, F·len(filter_widths))
        return self._head(params, x, rng, ops)

    def deletion_logits(
        self, params: dict[str, Tensor], tokens: Sequence[int], positions: Sequence[int]
    ) -> np.ndarray:
        """Eval-mode logits of `tokens` (row 0) and of each variant with the
        token at positions[j] deleted (row 1 + j), equal bit for bit to
        `logits` over the padded variants.

        Deleting a token changes only the windows that span it, so for each
        width one GEMM covers the original's windows plus the k - 1 windows
        per deletion that bridge the gap, and each variant max-pools its
        own windows out of that block.
        """
        _check_vocab(max(tokens), params["emb"].shape[0])
        arrays = {name: param.data for name, param in params.items()}
        padded = np.array((*tokens, *(PAD_ID,) * self.min_len))
        T._check_ids(padded, len(arrays["emb"]))  # a negative id too, as `logits` checks
        sentences = np.array((0, *(p + 1 for p in positions)))  # rows of each width's pool
        pooled = []
        for k in self.filter_widths:
            gather, pool = _deletion_windows(len(tokens), k)
            windows = arrays["emb"][padded[gather]].reshape(len(gather), -1)
            feat = T._conv_features(windows, arrays[f"conv{k}_w"], arrays[f"conv{k}_b"])
            pooled.append(feat[pool[sentences]].max(axis=1))
        return self._head(arrays, np.concatenate(pooled, axis=-1), ops=T.ArrayOps)

    def _head(self, params: Mapping, x, rng=None, ops=T):
        """The two-layer ReLU head over the pooled features, on either op
        set: `maskaug.tensor` with Tensor parameters, `tensor.ArrayOps` with arrays."""
        train = rng is not None
        x = ops.dropout(x, self.dropout, rng, train)
        x = ops.relu(ops.add(ops.matmul(x, params["fc1_w"]), params["fc1_b"]))
        x = ops.dropout(x, self.dropout, rng, train)
        return ops.add(ops.matmul(x, params["fc2_w"]), params["fc2_b"])


@lru_cache(maxsize=1024)
def _deletion_windows(length: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row indices for `CnnConfig.deletion_logits` at width k, for every
    sentence of this length; read-only, because every caller shares them.

    `gather` (R, k) indexes the sentence padded by at least k ids: first
    the original's windows at starts 0..n, where n = max(length - k, 1) is
    a variant's window count, then for each position p the k - 1 windows
    at starts p - k + 1..p - 1 with p skipped (those starting before 0 or
    at n or later are computed but never pooled). `pool` (1 + length, W)
    lists each sentence's windows as rows of `gather`: row 0 the
    original's, row 1 + p the variant without token p, whose window j is
    the original's window j when it ends before p, the original's window
    j + 1 when it starts at or past p, and otherwise the bridge over p. As
    in `logits`, only the first max(length - k + 1, 1) windows count; a
    variant's list is padded with its first row, which leaves the max
    unchanged.
    """
    counted, n = max(length - k + 1, 1), max(length - k, 1)
    pos = np.arange(length)[:, None]
    starts = pos - (k - 1) + np.arange(k - 1)  # (length, k - 1)
    bridges = starts[..., None] + np.arange(k)
    bridges += bridges >= pos[..., None]  # step over the deleted token
    gather = np.concatenate([np.arange(n + 1)[:, None] + np.arange(k), bridges.reshape(-1, k)])
    j = np.arange(n)
    bridge_rows = n + 1 + (k - 1) * pos + j - (pos - (k - 1))  # p's bridges, by start
    variants = np.where(j + k <= pos, j, np.where(j >= pos, j + 1, bridge_rows))
    variants = np.concatenate([variants, variants[:, :1].repeat(counted - n, axis=1)], axis=1)
    pool = np.concatenate([np.arange(counted)[None, :], variants])
    gather.flags.writeable = pool.flags.writeable = False
    return gather, pool


@dataclass(frozen=True)
class RnnConfig:
    kind: ClassVar[str] = "rnn"
    min_len: ClassVar[int] = 1
    emb_dim: int = 32
    state_dim: int = 64
    dropout: float = 0.3
    lr: float = 1e-3
    seed: int = 0
    max_epochs: int = 30
    batch_size: int = 32
    patience: int = 5

    def __post_init__(self):
        check_field_types(
            self, emb_dim=1, state_dim=1, max_epochs=1, batch_size=1, patience=1,
            dropout="[0, 1)", lr="(0, inf)",
        )

    def layout(self, vocab_size: int, num_labels: int) -> Layout:
        h = self.state_dim
        return {
            "emb": ((vocab_size, self.emb_dim), 0.1),
            "w_ih": ((self.emb_dim, 4 * h), 1.0 / np.sqrt(self.emb_dim)),
            "w_hh": ((h, 4 * h), 1.0 / np.sqrt(h)),
            # the input, forget, candidate and output gate blocks: the forget gate opens at init
            "b": ((4 * h,), lambda shape: np.repeat([0.0, 1.0, 0.0, 0.0], shape[0] // 4)),
            "out_w": ((h, num_labels), 1.0 / np.sqrt(h)),
            "out_b": ((num_labels,), np.zeros),
        }

    def logits(self, params: Mapping, token_ids: np.ndarray, lengths: np.ndarray, rng=None, ops=T):
        emb, w_ih, w_hh, b = (params[k] for k in ("emb", "w_ih", "w_hh", "b"))
        h = ops.lstm(emb, w_ih, w_hh, b, token_ids, lengths)  # (B, H) final states
        h = ops.dropout(h, self.dropout, rng, rng is not None)
        return ops.add(ops.matmul(h, params["out_w"]), params["out_b"])

    def deletion_logits(
        self, params: dict[str, Tensor], tokens: Sequence[int], positions: Sequence[int]
    ) -> np.ndarray:
        """Eval-mode logits of `tokens` (row 0) and of each variant with the
        token at positions[j] deleted (row 1 + j), in one padded batch."""
        _check_vocab(max(tokens), params["emb"].shape[0])
        variants = [tokens] + [tokens[:pos] + tokens[pos + 1 :] for pos in positions]
        arrays = {name: param.data for name, param in params.items()}
        return self.logits(arrays, *_pad_batch(variants, self.min_len), ops=T.ArrayOps)


# each classifier config class by the kind it names, as sidecars and --classifier spell it
CONFIGS = {cls.kind: cls for cls in (CnnConfig, RnnConfig)}


@dataclass
class EvalReport:
    """Per-split accuracies and confusion counts for one trained model."""

    accuracy: dict[str, float]
    confusion: dict[str, np.ndarray]


@dataclass
class Classifier:
    params: dict[str, Tensor]
    config: "CnnConfig | RnnConfig"
    vocab_size: int
    num_labels: int
    epochs_used: int = 0

    def __post_init__(self):
        check_field_types(self, vocab_size=1, num_labels=1, epochs_used=0)


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


def _pad_batch(rows: Sequence[Sequence[int]], min_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Token rows right-padded to at least `min_len`, and their lengths."""
    lengths = np.array([len(row) for row in rows], dtype=np.int64)
    return pad_rows(rows, PAD_ID, max(lengths.max(), min_len)), lengths


# ---------------------------------------------------------------------------
# shared training / evaluation
# ---------------------------------------------------------------------------


def _check_vocab(top: int, vocab_size: int) -> None:
    if top >= vocab_size:
        raise ValueError(f"vocabulary mismatch: example id {top} >= classifier vocab {vocab_size}")


def predict_logits(clf: Classifier, examples: Sequence[LabeledExample]) -> np.ndarray:
    _check_vocab(max(max(ex.tokens) for ex in examples), clf.vocab_size)
    token_ids, lengths = _pad_batch([ex.tokens for ex in examples], clf.config.min_len)
    arrays = {name: param.data for name, param in clf.params.items()}
    return clf.config.logits(arrays, token_ids, lengths, ops=T.ArrayOps)


def predict_proba(clf: Classifier, example: LabeledExample) -> np.ndarray:
    """Class distribution for one example (eval mode, deterministic)."""
    return T.ArrayOps.softmax(predict_logits(clf, [example])[0])


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


def train_classifier(
    dataset: Dataset, cfg: "CnnConfig | RnnConfig", vocab_size: int
) -> tuple[Classifier, EvalReport]:
    """Train the classifier `cfg.kind` names. Returns the classifier and the
    validation report of the epoch `fit` kept."""
    if not dataset.train:
        raise ValueError("training split is empty")
    if not dataset.val:
        raise ValueError("a validation split is required for early stopping")
    _check_label_count(dataset.num_labels, len(dataset.train) + len(dataset.val))
    layout = cfg.layout(vocab_size, dataset.num_labels)
    params = draw_params(layout, derive_rng(cfg.seed, cfg.kind, "init"))
    clf = Classifier(params, cfg, vocab_size, dataset.num_labels)
    val_reports: dict[int, EvalReport] = {}

    def chunk_loss(params, chunk, rng):
        token_ids, lengths = _pad_batch([ex.tokens for ex in chunk], cfg.min_len)
        labels = np.array([ex.label for ex in chunk], dtype=np.int64)
        logits = cfg.logits(params, token_ids, lengths, rng)
        loss, _ = T.cross_entropy(logits, labels)
        return loss, len(chunk), float((logits.data.argmax(axis=1) == labels).mean())

    def validate(params, epoch, train_loss, train_acc):
        clf.params = params
        val_reports[epoch] = evaluate(clf, dataset.val, "val")
        return val_reports[epoch].accuracy["val"]

    clf.params, clf.epochs_used = fit(
        params, dataset.train, chunk_loss, validate,
        epochs=cfg.max_epochs, batch_size=cfg.batch_size, lr=cfg.lr, patience=cfg.patience,
        clip_norm=_CLIP_NORM, seed=cfg.seed, phase=cfg.kind,
    )
    return clf, val_reports[clf.epochs_used]


def train_cnn(
    dataset: Dataset, cfg: CnnConfig, vocab_size: int | None = None
) -> tuple[Classifier, EvalReport]:
    """`train_classifier`; `vocab_size` defaults to the largest id in the data + 1."""
    if vocab_size is None:
        vocab_size = 1 + max(max(ex.tokens) for ex in dataset.train + dataset.val + dataset.test)
    return train_classifier(dataset, cfg, vocab_size)


def train_rnn(dataset: Dataset, cfg: RnnConfig, vocab_size: int) -> tuple[Classifier, EvalReport]:
    return train_classifier(dataset, cfg, vocab_size)


def check_folds(n_examples: int, folds: int, num_labels: int) -> None:
    """Raise ValueError unless `n_examples` can fill `folds` >= 2 folds and
    every fold leaves at least 2 examples to split into training and
    validation, and no fewer than `num_labels` (`train_classifier`'s label
    rule), so a bad fold count is refused before anything is trained."""
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
    _check_label_count(num_labels, rest)


def cross_validate(
    examples: Sequence[LabeledExample],
    num_labels: int,
    cfg: "CnnConfig | RnnConfig",
    folds: int,
    vocab_size: int,
) -> tuple[float, list[float]]:
    """k-fold cross-validation accuracy; off the default path, for corpora
    without a standard test split. Fold assignment is deterministic in the
    config seed. Returns (mean accuracy, per-fold accuracies).
    """
    check_folds(len(examples), folds, num_labels)
    order = derive_rng(cfg.seed, "cv-folds").permutation(len(examples)).tolist()
    assignment = [order[i::folds] for i in range(folds)]
    scores: list[float] = []
    for held_out in assignment:
        held = set(held_out)
        rest = [examples[i] for i in order if i not in held]  # shuffled, so val mixes labels
        cut = max(1, len(rest) // 10)
        fold_data = Dataset(
            train=rest[cut:], val=rest[:cut],
            test=[examples[i] for i in held_out], num_labels=num_labels,
        )
        clf, _ = train_classifier(fold_data, cfg, vocab_size)
        scores.append(evaluate(clf, fold_data.test, "test").accuracy["test"])
    return float(np.mean(scores)), scores


# the configurations grid_search tries: every combination of these field values
GRID = {"lr": (1e-3, 3e-3), "dropout": (0.0, 0.3, 0.5)}


def grid_search(
    dataset: Dataset, cfg: "CnnConfig | RnnConfig", vocab_size: int
) -> tuple[Classifier, EvalReport, list[dict]]:
    """Train one classifier per combination of GRID's values, everything
    else held at `cfg`, and keep the first with the best validation accuracy.

    Returns (that classifier, its report, trials); the winning config is `clf.config`.
    """
    combos: list[dict] = [{}]
    for name, values in GRID.items():
        combos = [{**combo, name: value} for combo in combos for value in values]
    runs = [train_classifier(dataset, replace(cfg, **combo), vocab_size) for combo in combos]
    trials = [{**combo, "val_accuracy": r.accuracy["val"]} for combo, (_, r) in zip(combos, runs)]
    clf, report = max(runs, key=lambda run: run[1].accuracy["val"])  # the first of a tie
    return clf, report, trials


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def save_classifier(clf: Classifier, path) -> None:
    meta = {
        "format": CLF_CONFIG_FORMAT,
        "kind": clf.config.kind,
        "config": asdict(clf.config),
        "vocab_size": clf.vocab_size,
        "num_labels": clf.num_labels,
        "epochs_used": clf.epochs_used,
    }
    save_model(clf.params, meta, path)


def load_classifier(path) -> Classifier:
    def build(meta, _):
        if meta["kind"] not in CONFIGS:
            raise ValueError(f"unknown classifier kind {meta['kind']!r}")
        clf = Classifier(
            {}, CONFIGS[meta["kind"]](**meta["config"]),
            meta["vocab_size"], meta["num_labels"], meta["epochs_used"],
        )
        return clf, clf.config.layout(clf.vocab_size, clf.num_labels)

    clf, params = load_model(path, CLF_CONFIG_FORMAT, build)
    return replace(clf, params=params)


# ---------------------------------------------------------------------------
# A/B experiment
# ---------------------------------------------------------------------------

Augmenter = Callable[[Dataset, int], Dataset]


def ab_experiment(
    dataset: Dataset,
    augmenters: Mapping[str, Augmenter | None],
    classifier: str,
    seeds: Sequence[int],
    cfg: "CnnConfig | RnnConfig",
    vocab_size: int,
) -> tuple[list[dict], dict[str, float]]:
    """Train one classifier per (augmentation arm x seed) and compare.

    Every arm of a seed shares the classifier config, seed, and embedding
    shape (`vocab_size` covers the ids augmenters may introduce); only the
    augmented training split differs. `classifier` must be the kind `cfg`
    names. `None` as an augmenter means the untouched dataset. Returns
    (per-run records, arm -> mean accuracy).
    """
    if not seeds:
        raise ValueError("need at least one seed")
    if classifier != cfg.kind:
        raise ValueError(f"classifier {classifier!r} does not match its {cfg.kind!r} config")
    records: list[dict] = []
    for seed in seeds:
        for arm, fn in augmenters.items():
            arm_data = fn(dataset, seed) if fn is not None else dataset
            run_cfg = replace(cfg, seed=seed)
            clf, _ = train_classifier(arm_data, run_cfg, vocab_size)
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
    write_text(path, "\n".join(lines) + "\n")


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
