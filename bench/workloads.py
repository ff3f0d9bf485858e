"""The benchmark's workloads: generated inputs, set-up, rounds and the
output gate.

Every workload runs the whole user pipeline -- pretrain and fine-tune the
masked LM, augment with cbert and bert, train and evaluate the CNN and LSTM
classifiers, and rewrite held-out sentences by style transfer -- but puts
the stages in different places and at different sizes:

* ``wide-train``: V=5000 random-token corpus; set-up builds the
  classifiers, and the timed round trains the encoder (pretrain then
  fine-tune), then augments and rewrites a small slice.
* ``wide-infer``: the same corpus; set-up builds the encoder by a short,
  fixed-step training plus the classifiers, saves and loads them back; the
  timed round is forward-only: cbert and bert augmentation and style
  transfer.
* ``tiny-pipeline``: the templated corpus (V about 21); the timed round is
  the whole pipeline, with the classifiers trained on the augmented set.

The workload seed only shapes the inputs. Seeds inside the program are the
fixed ``PROGRAM_SEED``, so runs under different workload seeds differ in
their data, not in the model's random streams.
"""

from __future__ import annotations

import hashlib
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from maskaug import augment, classify, encoder, styletransfer, synthetic, text, training
from maskaug.text import NUM_SPECIALS, Dataset, LabeledExample

PROGRAM_SEED = 42

# the acceptance suite's encoder configuration
ENCODER = dict(layers=2, hidden=64, heads=2, ff=256, max_len=64, num_conditions=2, dropout=0.1)
MAX_LEN = 64
VAL_FRACTION = 0.2  # a fifth of the training file validates, for a steadier val loss

WIDE_VOCAB = 5000
WIDE_LABEL_WORDS = (("neg0", "neg1", "neg2"), ("pos0", "pos1", "pos2"))
# words per sentence, cycling through 12..24 by row so that batches carry padding
# and every seed yields the same length mix
WIDE_LENGTHS = (12, 24)
WIDE_LABEL_WORDS_PER_SENTENCE = 2


class RunAborted(RuntimeError):
    """A stage failed as a whole; the run stops and reports the failure."""


@dataclass(frozen=True)
class Sizes:
    corpus: str  # "wide" | "tiny"
    train_rows: int  # rows of the training file; load_tsv carves VAL_FRACTION off to validate
    test_rows: int
    encoder_rows: int | None  # training rows the encoder sees; None means all
    pretrain_epochs: int
    finetune_epochs: int
    augment_rows: int | None  # leading training rows augmented; None means all
    style_rows: int  # leading test rows rewritten
    cnn_epochs: int
    rnn_epochs: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup_stages: tuple[str, ...]
    round_stages: tuple[str, ...]
    sizes: Sizes
    toy: Sizes


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "wide-train",
            "V=5000 training: the tied V-wide head, cross_entropy over B*T x V, "
            "(B,T,H)@(H,N) weight gradients, the embedding scatter and Adam on 5000x64",
            setup_stages=("classifiers",),
            round_stages=("encoder", "augment", "style"),
            sizes=Sizes("wide", 192, 128, None, 1, 1, 24, 24, 8, 1),
            toy=Sizes("wide", 40, 16, None, 1, 1, 4, 4, 1, 1),
        ),
        Workload(
            "wide-infer",
            "V=5000 forward-only inference at batch size 1: cloze softmax over V, "
            "top-k over V, per-sentence classifier forwards; no backward pass",
            setup_stages=("encoder", "classifiers"),
            round_stages=("augment", "style"),
            sizes=Sizes("wide", 192, 128, 64, 1, 1, 128, 96, 8, 1),
            toy=Sizes("wide", 40, 16, 16, 1, 1, 8, 6, 1, 1),
        ),
        Workload(
            "tiny-pipeline",
            "templated V~21 corpus through the whole pipeline: tiny arrays, so per-op "
            "Python overhead, graph traversal, Adam's loop and the LSTM's small ops",
            setup_stages=(),
            round_stages=("encoder", "augment", "classifiers", "style"),
            sizes=Sizes("tiny", 400, 64, None, 3, 3, None, 48, 3, 3),
            toy=Sizes("tiny", 40, 8, None, 1, 1, None, 4, 1, 1),
        ),
    )
}


# ---------------------------------------------------------------------------
# generated inputs
# ---------------------------------------------------------------------------


def wide_words() -> tuple[list[str], list[str]]:
    """(filler words, label words); together with the specials, V=5000."""
    labelled = [w for words in WIDE_LABEL_WORDS for w in words]
    n_fill = WIDE_VOCAB - NUM_SPECIALS - len(labelled)
    return [f"w{i:04d}" for i in range(n_fill)], labelled


def wide_rows(seed: int, n: int, stream: int) -> list[tuple[int, str]]:
    """Uniform random filler words plus two words of the label's word set
    at random positions; labels alternate and lengths cycle."""
    rng = np.random.default_rng([seed, stream])
    fillers, _ = wide_words()
    rows = []
    lo, hi = WIDE_LENGTHS
    for i in range(n):
        label = i % 2
        length = lo + i % (hi - lo + 1)
        words = [fillers[j] for j in rng.integers(len(fillers), size=length - 2)]
        for _ in range(WIDE_LABEL_WORDS_PER_SENTENCE):
            pick = WIDE_LABEL_WORDS[label][int(rng.integers(len(WIDE_LABEL_WORDS[label])))]
            words.insert(int(rng.integers(len(words) + 1)), pick)
        rows.append((label, " ".join(words)))
    return rows


def make_inputs(sizes: Sizes, seed: int, workdir: Path):
    """Write the train/test TSVs; return (dataset, vocab, label word ids)."""
    if sizes.corpus == "wide":
        train_rows = wide_rows(seed, sizes.train_rows, stream=1)
        test_rows = wide_rows(seed, sizes.test_rows, stream=2)
        fillers, labelled = wide_words()
        # the word list joins the corpus so that the vocabulary is exactly V wide
        corpus = [text.tokenize(t) for _, t in train_rows] + [fillers + labelled]
        label_words = WIDE_LABEL_WORDS
    else:
        train_rows = synthetic.sentiment_rows(sizes.train_rows // 2, seed=seed)
        test_rows = synthetic.sentiment_rows(max(1, sizes.test_rows // 2), seed=seed + 1_000_003)
        corpus = [text.tokenize(t) for _, t in train_rows]
        label_words = (synthetic.NEGATIVE_WORDS, synthetic.POSITIVE_WORDS)
    synthetic.write_rows_tsv(train_rows, workdir / "train.tsv")
    synthetic.write_rows_tsv(test_rows, workdir / "test.tsv")
    vocab = text.build_vocab(corpus)
    dataset = text.load_tsv(
        workdir / "train.tsv", vocab, max_len=MAX_LEN, val_fraction=VAL_FRACTION,
        seed=PROGRAM_SEED, test_path=workdir / "test.tsv",
    )
    label_ids = tuple(frozenset(vocab.id_of(w) for w in words) for words in label_words)
    return dataset, vocab, label_ids


# ---------------------------------------------------------------------------
# run state, samples and the failure ledger
# ---------------------------------------------------------------------------


@dataclass
class Pipeline:
    """What the stages of one iteration, a set-up and its round, build."""

    workdir: Path
    dataset: Dataset
    vocab: text.Vocabulary
    label_ids: tuple[frozenset, ...]
    tuned: dict | None = None
    tuned_config: encoder.EncoderConfig | None = None
    classifiers: dict = field(default_factory=dict)
    augmented: Dataset | None = None
    outputs: list[Path] = field(default_factory=list)


@dataclass
class Recorder:
    """Samples per metric, work and time per throughput, operations
    attempted and failed, outcome counts."""

    samples: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    # throughput metric -> [units of work, seconds], pooled over the run so that
    # it averages over the host's speed swings in proportion to time
    work: dict[str, list[float]] = field(default_factory=lambda: defaultdict(lambda: [0.0, 0.0]))
    outcomes: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    # the warm-up round runs the whole output gate and keeps no samples
    warmup: bool = False

    def sample(self, metric: str, value: float) -> None:
        if not self.warmup:
            self.samples[metric].append(value)

    def throughput(self, metric: str, units: float, seconds: float) -> None:
        if not self.warmup:
            self.work[metric][0] += units
            self.work[metric][1] += seconds

    def ok(self, n: int) -> None:
        self.attempted += n

    def fail(self, attempted: int, failed: int, why: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if len(self.problems) < 20:
            self.problems.append(why)


def _steps(n_rows: int, batch: int, epochs: int) -> int:
    return epochs * math.ceil(n_rows / batch)


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


def stage_encoder(p: Pipeline, sizes: Sizes, rec: Recorder) -> None:
    """Pretrain (mask ratio 0.15) then fine-tune (0.3) for fixed epochs;
    patience exceeds the epoch count so early stopping never cuts a run."""
    data = p.dataset
    if sizes.encoder_rows is not None:
        data = replace(data, train=data.train[: sizes.encoder_rows])
    config = encoder.EncoderConfig(vocab_size=len(p.vocab), **ENCODER)
    pre_cfg = training.TrainConfig(
        epochs=sizes.pretrain_epochs, batch_size=32, lr=1e-3,
        patience=sizes.pretrain_epochs + 1, seed=PROGRAM_SEED,
    )
    ft_cfg = training.TrainConfig(
        epochs=sizes.finetune_epochs, batch_size=16, lr=1e-3,
        patience=sizes.finetune_epochs + 1, seed=PROGRAM_SEED,
    )
    n = len(data.train)
    steps = _steps(n, pre_cfg.batch_size, pre_cfg.epochs) + _steps(n, ft_cfg.batch_size, ft_cfg.epochs)
    tokens = sum(len(ex.tokens) for ex in data.train) * (pre_cfg.epochs + ft_cfg.epochs)
    start = time.perf_counter()
    try:
        params, pre_hist = training.pretrain_mlm(
            data, config, training.MaskPolicy(mode="ratio", ratio=0.15), pre_cfg
        )
        tuned, tuned_config, ft_hist = training.finetune_cmlm(
            data, params, config, training.MaskPolicy(mode="ratio", ratio=0.3), ft_cfg
        )
    except Exception as exc:  # a failed stage is reported, not hidden
        rec.fail(steps, steps, f"encoder training raised {exc!r}")
        raise RunAborted("encoder training failed") from exc
    elapsed = time.perf_counter() - start
    losses = [row["loss"] for row in pre_hist + ft_hist]
    if not all(np.isfinite(losses)):
        rec.fail(steps, steps, f"non-finite training loss in {losses}")
    else:
        rec.ok(steps)
    rec.throughput("train_tokens_per_s", tokens, elapsed)
    rec.sample("mlm_val_loss", [r["loss"] for r in ft_hist if r["split"] == "val"][-1])

    path = p.workdir / "encoder.ckpt"
    encoder.save_encoder(tuned, tuned_config, path)
    p.tuned, p.tuned_config = encoder.load_encoder(path, expected=tuned_config)
    p.outputs.append(path)


def stage_classifiers(p: Pipeline, sizes: Sizes, rec: Recorder) -> None:
    """CNN and LSTM for fixed epochs on the augmented set when there is
    one, else on the original; the CNN is evaluated on the test split."""
    data = p.augmented or p.dataset
    n = len(data.train)
    vocab_size = len(p.vocab)
    runs = (
        ("cnn", classify.CnnConfig(
            max_epochs=sizes.cnn_epochs, patience=sizes.cnn_epochs + 1, dropout=0.0,
            lr=3e-3, seed=PROGRAM_SEED,
        )),
        ("rnn", classify.RnnConfig(
            max_epochs=sizes.rnn_epochs, patience=sizes.rnn_epochs + 1, seed=PROGRAM_SEED,
        )),
    )
    for kind, cfg in runs:
        train = classify.train_cnn if kind == "cnn" else classify.train_rnn
        steps = _steps(n, cfg.batch_size, cfg.max_epochs)
        start = time.perf_counter()
        try:
            clf, _ = train(data, cfg, vocab_size)
        except Exception as exc:  # a failed stage is reported, not hidden
            rec.fail(steps, steps, f"{kind} training raised {exc!r}")
            raise RunAborted(f"{kind} training failed") from exc
        elapsed = time.perf_counter() - start
        rec.ok(steps)
        metric = "cnn_examples_per_s" if kind == "cnn" else "lstm_examples_per_s"
        rec.throughput(metric, n * cfg.max_epochs, elapsed)
        path = p.workdir / f"{kind}.ckpt"
        classify.save_classifier(clf, path)
        p.classifiers[kind] = classify.load_classifier(path)
        p.outputs.append(path)
    accuracy = classify.evaluate(p.classifiers["cnn"], p.dataset.test).accuracy["test"]
    rec.sample("clf_test_acc", accuracy)


def check_augmented(source: Dataset, out: Dataset, report: augment.AugmentReport) -> list[str]:
    """Originals first and untouched; each generation keeps its source's
    length and label and changes only positions named in its provenance."""
    problems = []
    n0 = len(source.train)
    if out.train[:n0] != source.train:
        problems.append("original rows changed or reordered")
    generated = out.train[n0:]
    if not len(generated) == report.generated == len(report.provenance):
        problems.append("generation count disagrees with the report")
    for ex, (src, _, positions) in zip(generated, report.provenance):
        orig = source.train[src].tokens
        changed = [i for i, (a, b) in enumerate(zip(orig, ex.tokens)) if a != b]
        if (
            len(ex.tokens) != len(orig)
            or ex.label != source.train[src].label
            or not set(changed) <= set(positions)
            or any(ex.tokens[i] < NUM_SPECIALS for i in positions)
        ):
            problems.append(f"augmented copy of row {src} breaks the substitution contract")
    return problems


def stage_augment(p: Pipeline, sizes: Sizes, rec: Recorder) -> None:
    """cbert then bert over the leading training rows, one policy."""
    rows = p.dataset.train if sizes.augment_rows is None else p.dataset.train[: sizes.augment_rows]
    source = replace(p.dataset, train=list(rows))
    policy = augment.AugmentationPolicy(k=(1, 2), sampler="top_k", top_k=10, seed=PROGRAM_SEED)
    total = 0.0
    for name, unconditional in (("cbert", False), ("bert", True)):
        start = time.perf_counter()
        try:
            out, report = augment.augment_dataset(
                p.tuned, p.tuned_config, source, policy, unconditional=unconditional
            )
        except Exception as exc:  # a failed stage is reported, not hidden
            rec.fail(len(rows), len(rows), f"{name} augmentation raised {exc!r}")
            raise RunAborted(f"{name} augmentation failed") from exc
        total += time.perf_counter() - start
        problems = check_augmented(source, out, report) if rec.warmup else []
        if problems:
            rec.fail(len(rows), len(problems), f"{name}: {problems[0]}")
        else:
            rec.ok(len(rows))
        path = p.workdir / f"augmented-{name}.tsv"
        augment.write_augmented_tsv(path, out, len(rows), report, p.vocab)
        p.outputs.append(path)
        if name == "cbert":
            p.augmented = out
            rec.outcomes.update(augment_outcomes(source, out, report, p.label_ids))
    rec.throughput("augment_sents_per_s", 2 * len(rows), total)


def augment_outcomes(source, out, report, label_ids) -> dict[str, float]:
    """Generated and skipped counts, the share of masked slots refilled
    with a different word, and the share of refilled label-word slots
    whose new word belongs to the sentence label's own word set."""
    masked = changed = slots = compatible = 0
    any_label_word = frozenset().union(*label_ids)
    for ex, (src, _, positions) in zip(out.train[len(source.train):], report.provenance):
        orig = source.train[src].tokens
        for pos in positions:
            masked += 1
            changed += int(ex.tokens[pos] != orig[pos])
            if orig[pos] in any_label_word:
                slots += 1
                compatible += int(ex.tokens[pos] in label_ids[ex.label])
    return {
        "augment.generated": float(report.generated),
        "augment.skipped": float(report.skipped),
        "augment.changed_frac": changed / masked if masked else 0.0,
        "augment.cond_label_compat": compatible / slots if slots else 0.0,
    }


def check_style(clf, example: LabeledExample, out: LabeledExample, target: int) -> str | None:
    """The rewrite carries the target label and changes only the position
    the attribution chose (top_m=1, ties toward earlier positions)."""
    attribution = styletransfer.attribute_words(clf, example)
    chosen = attribution.positions[int(np.argsort(-attribution.scores, kind="stable")[0])]
    changed = [i for i, (a, b) in enumerate(zip(example.tokens, out.tokens)) if a != b]
    if out.label != target or len(out.tokens) != len(example.tokens) or not set(changed) <= {chosen}:
        return f"style rewrite of {example.tokens} changed {changed}, chose {chosen}"
    return None


def stage_style(p: Pipeline, sizes: Sizes, rec: Recorder) -> None:
    """Rewrite the leading test rows under the other label, one call each."""
    clf = p.classifiers["cnn"]
    pairs = []
    total = 0.0
    for example in p.dataset.test[: sizes.style_rows]:
        target = (example.label + 1) % p.dataset.num_labels
        start = time.perf_counter()
        try:
            out = styletransfer.transfer_style(p.tuned, p.tuned_config, clf, example, target, top_m=1)
        except Exception as exc:  # counted per sentence, the pass goes on
            rec.fail(1, 1, f"transfer_style raised {exc!r}")
            continue
        elapsed = time.perf_counter() - start
        total += elapsed
        rec.sample("style_ms", elapsed * 1e3)
        problem = check_style(clf, example, out, target) if rec.warmup else None
        if problem:
            rec.fail(1, 1, problem)
        else:
            rec.ok(1)
        pairs.append((example, out))
    rec.throughput("style_sents_per_s", len(pairs), total)
    path = p.workdir / "pairs.tsv"
    styletransfer.write_style_pairs(path, pairs, p.vocab)
    p.outputs.append(path)


STAGES = {
    "encoder": stage_encoder,
    "classifiers": stage_classifiers,
    "augment": stage_augment,
    "style": stage_style,
}


def run_setup(workload: Workload, sizes: Sizes, seed: int, workdir: Path, rec: Recorder) -> Pipeline:
    """Inputs, vocabulary, encoding, and the models this workload builds
    before timing; setup_s is measured around this call."""
    workdir.mkdir(parents=True, exist_ok=True)
    dataset, vocab, label_ids = make_inputs(sizes, seed, workdir)
    p = Pipeline(workdir, dataset, vocab, label_ids)
    for stage in workload.setup_stages:
        STAGES[stage](p, sizes, rec)
    return p


def run_round(workload: Workload, sizes: Sizes, p: Pipeline, rec: Recorder) -> Pipeline:
    """One timed round on top of a fresh set-up."""
    for stage in workload.round_stages:
        STAGES[stage](p, sizes, rec)
    return p


def output_digest(p: Pipeline) -> str:
    """sha256 over every checkpoint (with its sidecar), augmented TSV and
    style-pair file a round made or used."""
    digest = hashlib.sha256()
    for path in sorted(set(p.outputs)):
        for part in (path, Path(str(path) + ".json")):
            if part.exists():
                digest.update(part.name.encode("utf-8") + b"\0" + part.read_bytes())
    return digest.hexdigest()
