import dataclasses
import json
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from maskaug import classify, cli, encoder, training
from maskaug.augment import AugmentationPolicy
from maskaug.checkpoint import MAGIC, CheckpointError, load_arrays, save_arrays
from maskaug.classify import CnnConfig, RnnConfig
from maskaug.cli import (
    EXIT_CHECKPOINT,
    EXIT_MISSING_FILE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_TRAINING,
    EXIT_USAGE,
    main,
)
from maskaug.encoder import EncoderConfig
from maskaug.synthetic import sentiment_rows, write_rows_tsv
from maskaug.text import ParseError, load_tsv, load_vocab
from maskaug.training import MaskPolicy, TrainConfig, TrainingError


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    write_rows_tsv(sentiment_rows(20, seed=0), root / "train.tsv")
    write_rows_tsv(sentiment_rows(8, seed=9), root / "test.tsv")
    (root / "syn.tsv").write_text("good\tgreat,fine\nbad\tawful,poor\n")
    return root


@pytest.fixture(scope="module")
def vocab_file(workdir):
    assert main(["build-vocab", "--data", str(workdir / "train.tsv"),
                 "--out", str(workdir / "vocab")]) == EXIT_OK
    return workdir / "vocab" / "vocab.txt"


@pytest.fixture(scope="module")
def pretrained(workdir, vocab_file):
    out = workdir / "pre"
    code = main([
        "pretrain", "--data", str(workdir / "train.tsv"), "--vocab", str(vocab_file),
        "--epochs", "2", "--hidden", "16", "--ff", "32", "--layers", "1",
        "--out", str(out), "--seed", "42",
    ])
    assert code == EXIT_OK
    return out / "encoder.ckpt"


@pytest.fixture(scope="module")
def finetuned(workdir, vocab_file, pretrained):
    out = workdir / "ft"
    code = main([
        "finetune", "--data", str(workdir / "train.tsv"), "--vocab", str(vocab_file),
        "--init", str(pretrained), "--epochs", "2", "--out", str(out), "--seed", "42",
    ])
    assert code == EXIT_OK
    return out / "conditional.ckpt"


@pytest.fixture(scope="module")
def classifier_ckpt(workdir, vocab_file):
    out = workdir / "clf"
    code = main([
        "train-classifier", "--data", str(workdir / "train.tsv"),
        "--test", str(workdir / "test.tsv"), "--vocab", str(vocab_file),
        "--classifier", "cnn", "--epochs", "8", "--dropout-rate", "0.0",
        "--lr", "0.003", "--batch-size", "8", "--out", str(out), "--seed", "1",
    ])
    assert code == EXIT_OK
    return out / "classifier.ckpt"


class TestArtifacts:
    def test_vocab_file_shape(self, vocab_file):
        vocab = load_vocab(vocab_file)
        assert vocab.id_to_token[:4] == ("<pad>", "<unk>", "<mask>", "<cls>")
        assert len(vocab) > 4

    def test_run_config_archived(self, workdir, vocab_file):
        payload = json.loads((workdir / "vocab" / "config.json").read_text())
        assert payload["format"] == "maskaug-run-config v1"
        assert payload["subcommand"] == "build-vocab"
        assert payload["seed"] == 0

    def test_metrics_written(self, workdir, pretrained):
        lines = (workdir / "pre" / "metrics.tsv").read_text().splitlines()
        assert lines[0] == "# maskaug-metrics v1"
        assert len(lines) > 2

    def test_augment_writes_versioned_tsv(self, workdir, vocab_file, finetuned):
        out = workdir / "aug"
        code = main([
            "augment", "--data", str(workdir / "train.tsv"), "--vocab", str(vocab_file),
            "--model", str(finetuned), "--augmenter", "cbert", "--k", "1",
            "--out", str(out), "--seed", "3",
        ])
        assert code == EXIT_OK
        lines = (out / "augmented.tsv").read_text().splitlines()
        assert lines[0] == "# maskaug-augmented-tsv v1"
        report = json.loads((out / "report.json").read_text())
        assert report["generated"] == 40 and report["skipped"] == 0

    def test_augment_identical_across_runs(self, workdir, vocab_file, finetuned):
        outs = []
        for name in ("aug-a", "aug-b"):
            out = workdir / name
            assert main([
                "augment", "--data", str(workdir / "train.tsv"), "--vocab", str(vocab_file),
                "--model", str(finetuned), "--augmenter", "bert", "--k", "1,2",
                "--out", str(out), "--seed", "11",
            ]) == EXIT_OK
            outs.append((out / "augmented.tsv").read_bytes())
        assert outs[0] == outs[1]

    def test_augment_all_too_short_is_ok_with_skip_report(self, workdir, vocab_file, finetuned):
        short = workdir / "short.tsv"
        short.write_text("0\tbad\n1\tgood\n")
        out = workdir / "aug-short"
        code = main([
            "augment", "--data", str(short), "--vocab", str(vocab_file),
            "--model", str(finetuned), "--augmenter", "cbert", "--k", "3",
            "--out", str(out), "--seed", "0",
        ])
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["generated"] == 0 and report["skipped"] == 2

    def test_augment_at_a_small_temperature_keeps_every_word(self, workdir, vocab_file, finetuned):
        out = workdir / "aug-cold"
        code = main([
            "augment", "--data", str(workdir / "train.tsv"), "--vocab", str(vocab_file),
            "--model", str(finetuned), "--sampler", "greedy", "--temperature", "0.0001",
            "--k", "1", "--out", str(out), "--seed", "3",
        ])
        assert code == EXIT_OK
        rows = [line.split("\t") for line in (out / "augmented.tsv").read_text().splitlines()[2:]]
        originals = [text for _, text, _, name, _ in rows if name == "original"]
        generated = [(text, int(src)) for _, text, src, name, _ in rows if name != "original"]
        assert len(generated) == 40
        for text, src in generated:  # a refill of <pad> would drop a word from the text
            assert len(text.split()) == len(originals[src].split()), (text, originals[src])

    def test_synonym_augment_accepts_model_flags_at_their_defaults(self, workdir, vocab_file,
                                                                   tmp_path):
        # --model is never opened, and a sampler flag at its default is no request
        out = tmp_path / "aug-synonym"
        code = main([
            "augment", "--data", str(workdir / "train.tsv"), "--vocab", str(vocab_file),
            "--augmenter", "synonym", "--synonyms", str(workdir / "syn.tsv"),
            "--model", str(tmp_path / "absent.ckpt"), "--sampler", "top_k", "--top-k", "10",
            "--temperature", "1.0", "--out", str(out), "--seed", "3",
        ])
        assert code == EXIT_OK
        assert json.loads((out / "report.json").read_text())["generated"] > 0

    def test_rnn_classifier_trains_and_evaluates(self, workdir, vocab_file, tmp_path):
        clf_out, eval_out = tmp_path / "clf-rnn", tmp_path / "eval-rnn"
        assert main([
            "train-classifier", "--data", str(workdir / "train.tsv"),
            "--test", str(workdir / "test.tsv"), "--vocab", str(vocab_file),
            "--classifier", "rnn", "--hidden-dim", "8", "--epochs", "2",
            "--out", str(clf_out), "--seed", "1",
        ]) == EXIT_OK
        meta = json.loads((clf_out / "classifier.ckpt.json").read_text())
        assert meta["kind"] == "rnn" and meta["config"]["state_dim"] == 8
        assert main([
            "eval", "--data", str(workdir / "test.tsv"), "--vocab", str(vocab_file),
            "--classifier-ckpt", str(clf_out / "classifier.ckpt"), "--out", str(eval_out),
        ]) == EXIT_OK
        report = json.loads((clf_out / "report.json").read_text())
        assert json.loads((eval_out / "eval.json").read_text())["accuracy"] == (
            report["accuracy"]["test"]
        )

    def test_pretrain_without_a_validation_split_reports_the_training_rows(
        self, workdir, vocab_file, tmp_path
    ):
        out = tmp_path / "pre"
        assert main([
            "pretrain", "--data", str(workdir / "train.tsv"), "--vocab", str(vocab_file),
            "--val-fraction", "0", "--epochs", "2", "--hidden", "16", "--ff", "32",
            "--layers", "1", "--out", str(out), "--seed", "5",
        ]) == EXIT_OK
        rows = [line.split("\t") for line in (out / "metrics.tsv").read_text().splitlines()[2:]]
        train = [(epoch, loss, acc) for epoch, split, loss, acc in rows if split == "train"]
        assert len(train) == 2
        assert train == [(epoch, loss, acc) for epoch, split, loss, acc in rows if split == "val"]

    def test_eval_and_style_subcommands(self, workdir, vocab_file, finetuned, classifier_ckpt):
        assert main([
            "eval", "--data", str(workdir / "test.tsv"), "--vocab", str(vocab_file),
            "--classifier-ckpt", str(classifier_ckpt), "--out", str(workdir / "ev"),
        ]) == EXIT_OK
        payload = json.loads((workdir / "ev" / "eval.json").read_text())
        assert 0.0 <= payload["accuracy"] <= 1.0

        style_out = workdir / "style"
        assert main([
            "style-transfer", "--data", str(workdir / "test.tsv"), "--vocab", str(vocab_file),
            "--model", str(finetuned), "--classifier-ckpt", str(classifier_ckpt),
            "--limit", "4", "--out", str(style_out),
        ]) == EXIT_OK
        lines = (style_out / "pairs.tsv").read_text().splitlines()
        assert lines[0] == "# maskaug-style-pairs v1"
        assert lines[1].startswith("original\t") and lines[2].startswith("generated\t")
        assert len(lines) == 1 + 2 * 4

    def test_classifier_grid_and_cv_flags(self, workdir, vocab_file):
        out = workdir / "clf-grid"
        assert main([
            "train-classifier", "--data", str(workdir / "train.tsv"),
            "--vocab", str(vocab_file), "--classifier", "cnn",
            "--epochs", "2", "--grid", "--cv", "3", "--out", str(out), "--seed", "2",
        ]) == EXIT_OK
        payload = json.loads((out / "report.json").read_text())
        assert len(payload["grid_trials"]) == 6  # 2 lrs x 3 dropouts
        assert len(payload["cv_accuracy"]["folds"]) == 3
        assert payload["cv_accuracy"]["mean"] == pytest.approx(
            float(np.mean(payload["cv_accuracy"]["folds"]))
        )

    def test_grid_trains_each_config_once_and_scores_the_train_split_once(
        self, workdir, vocab_file, tmp_path, monkeypatch
    ):
        trainings, train_passes = [], []
        real_train, real_evaluate = classify.train_classifier, classify.evaluate

        def train_spy(*args, **kwargs):
            trainings.append(args)
            return real_train(*args, **kwargs)

        def evaluate_spy(clf, examples, split="test"):
            if split == "train":
                train_passes.append(len(examples))
            return real_evaluate(clf, examples, split)

        for module in (classify, cli):
            monkeypatch.setattr(module, "train_classifier", train_spy)
            monkeypatch.setattr(module, "evaluate", evaluate_spy)
        argv = ["train-classifier", "--data", str(workdir / "train.tsv"),
                "--vocab", str(vocab_file), "--epochs", "2", "--seed", "3"]
        grid, flags = tmp_path / "grid", tmp_path / "flags"
        assert main([*argv, "--grid", "--out", str(grid)]) == EXIT_OK
        assert len(trainings) == 6  # one per grid config; the winner is not retrained
        assert len(train_passes) == 1  # the train accuracy report.json shows
        report = json.loads((grid / "report.json").read_text())
        best = max(report.pop("grid_trials"), key=lambda t: t["val_accuracy"])
        assert main([*argv, "--lr", repr(best["lr"]), "--dropout-rate", repr(best["dropout"]),
                     "--out", str(flags)]) == EXIT_OK
        for name in ("classifier.ckpt", "classifier.ckpt.json"):
            assert (grid / name).read_bytes() == (flags / name).read_bytes(), name
        assert report == json.loads((flags / "report.json").read_text())

    def test_style_transfer_skips_sentences_without_content(self, workdir, vocab_file, finetuned, classifier_ckpt):
        data = workdir / "oovish.tsv"
        data.write_text("1\tthe movie was good really\n0\txqzt\n")  # second row is all-unknown
        out = workdir / "style-skip"
        assert main([
            "style-transfer", "--data", str(data), "--vocab", str(vocab_file),
            "--model", str(finetuned), "--classifier-ckpt", str(classifier_ckpt),
            "--out", str(out),
        ]) == EXIT_OK
        body = [l for l in (out / "pairs.tsv").read_text().splitlines()[1:] if l]
        assert len(body) == 2  # one pair; the unknown-only sentence was skipped

    def test_style_transfer_reports_the_skipped_sentence(
        self, workdir, vocab_file, finetuned, classifier_ckpt, tmp_path, capsys
    ):
        data = tmp_path / "oov.tsv"
        data.write_text("1\tthe movie was good really\n0\txqzt blorp\n")
        out = tmp_path / "style"
        assert main([
            "style-transfer", "--data", str(data), "--vocab", str(vocab_file),
            "--model", str(finetuned), "--classifier-ckpt", str(classifier_ckpt),
            "--out", str(out),
        ]) == EXIT_OK
        assert capsys.readouterr().out == f"wrote {out / 'pairs.tsv'} (1 pairs, 1 skipped)\n"

    def test_ab_experiment_records(self, workdir, vocab_file, pretrained, finetuned):
        out = workdir / "ab"
        code = main([
            "ab-experiment", "--data", str(workdir / "train.tsv"),
            "--test", str(workdir / "test.tsv"), "--vocab", str(vocab_file),
            "--model", str(finetuned), "--pretrained", str(pretrained),
            "--synonyms", str(workdir / "syn.tsv"),
            "--arms", "none,synonym,bert,cbert", "--seeds", "1,2",
            "--epochs", "2", "--out", str(out),
        ])
        assert code == EXIT_OK
        lines = (out / "records.tsv").read_text().splitlines()
        assert lines[0] == "# maskaug-ab-records v1"
        data = [l for l in lines if not l.startswith("#")]
        assert len(data) == 8  # 4 arms x 2 seeds
        table = (out / "table.txt").read_text()
        for arm in ("none", "synonym", "bert", "cbert"):
            assert arm in table


def test_encoder_summary_reports_the_kept_epoch(workdir, vocab_file, tmp_path, capsys):
    out = tmp_path / "pre"
    assert main([
        "pretrain", "--data", str(workdir / "train.tsv"), "--vocab", str(vocab_file),
        "--layers", "1", "--hidden", "16", "--ff", "32", "--epochs", "12", "--patience", "2",
        "--lr", "0.03", "--seed", "0", "--out", str(out),
    ]) == EXIT_OK
    rows = [line.split("\t") for line in (out / "metrics.tsv").read_text().splitlines()[2:]]
    val = [(int(epoch), float(loss), float(acc)) for epoch, split, loss, acc in rows
           if split == "val"]
    kept = min(val, key=lambda row: row[1])  # fit keeps the first epoch with the lowest loss
    assert len(val) < 12 and kept[0] < val[-1][0]  # stopped early, after the kept epoch
    assert f"{kept[1]:.4f}" != f"{val[-1][1]:.4f}"
    assert capsys.readouterr().out == (
        f"wrote {out / 'encoder.ckpt'} (val loss {kept[1]:.4f}, masked acc {kept[2]:.4f})\n"
    )


@pytest.fixture(scope="module")
def short_encoder(workdir, vocab_file):
    """An encoder whose position table (4) is shorter than the corpus
    sentences (6 ids with the leading CLS)."""
    out = workdir / "pre-short"
    code = main([
        "pretrain", "--data", str(workdir / "train.tsv"), "--vocab", str(vocab_file),
        "--epochs", "1", "--hidden", "16", "--ff", "32", "--layers", "1",
        "--max-len", "4", "--out", str(out), "--seed", "5",
    ])
    assert code == EXIT_OK
    return out / "encoder.ckpt"


@pytest.mark.parametrize("subcommand", ["augment", "style-transfer", "ab-experiment"])
def test_sentences_are_capped_at_the_encoder_max_len(
    subcommand, workdir, vocab_file, short_encoder, classifier_ckpt, tmp_path
):
    extra = {
        "augment": ["--augmenter", "cbert", "--k", "1"],
        "style-transfer": ["--classifier-ckpt", str(classifier_ckpt), "--limit", "4"],
        "ab-experiment": [
            "--test", str(workdir / "test.tsv"), "--arms", "cbert", "--seeds", "1",
            "--epochs", "1",
        ],
    }[subcommand]
    out = tmp_path / "run"
    code = main([
        subcommand, "--data", str(workdir / "train.tsv"), "--vocab", str(vocab_file),
        "--model", str(short_encoder), "--out", str(out), *extra,
    ])
    assert code == EXIT_OK
    if subcommand == "augment":
        rows = [r for r in (out / "augmented.tsv").read_text().splitlines() if r[:1] != "#"]
        assert {len(row.split("\t")[1].split()) for row in rows} == {3}  # CLS + 3 words


def _edit_sidecar(edit):
    def apply(ckpt):
        sidecar = Path(f"{ckpt}.json")
        meta = json.loads(sidecar.read_text())
        edit(meta)
        sidecar.write_text(json.dumps(meta))
    return apply


def _malformed_sidecar(ckpt):
    Path(f"{ckpt}.json").write_text("{nope")


def _name_byte(value):
    def apply(ckpt):
        blob = bytearray(ckpt.read_bytes())
        blob[len(MAGIC) + 4 + 2] = value  # first byte of the first parameter name
        ckpt.write_bytes(bytes(blob))
    return apply


def _truncate(n_bytes):
    def apply(ckpt):
        ckpt.write_bytes(ckpt.read_bytes()[:n_bytes])
    return apply


def _extents(shape):
    """Give the first parameter the extents `shape`, keeping the rest of the file."""
    def apply(ckpt):
        blob = ckpt.read_bytes()
        (name_len,) = struct.unpack_from("<H", blob, len(MAGIC) + 4)
        head = len(MAGIC) + 4 + 2 + name_len  # the first parameter's ndim byte
        extents = struct.pack(f"<B{len(shape)}I", len(shape), *shape)
        ckpt.write_bytes(blob[:head] + extents + blob[head + 1 + 4 * blob[head]:])
    return apply


def _poison(name, value):
    """Set the first entry of parameter `name` to `value` (NaN or inf)."""
    def apply(ckpt):
        arrays = load_arrays(ckpt)
        arrays[name].flat[0] = value
        save_arrays(arrays, ckpt)
    return apply


def _stored_twice(name):
    """Append a second entry for parameter `name`, keeping the first."""
    def apply(ckpt):
        blob, head = ckpt.read_bytes(), len(MAGIC) + 4
        (count,) = struct.unpack_from("<I", blob, len(MAGIC))
        save_arrays({name: load_arrays(ckpt)[name]}, ckpt)
        entry = ckpt.read_bytes()[head:]
        ckpt.write_bytes(MAGIC + struct.pack("<I", count + 1) + blob[head:] + entry)
    return apply


# (model file, fault, a word the message must name) triples; encoders load
# through `finetune --init`, classifiers through `eval`
MODEL_FILE_FAULTS = [
    pytest.param(
        "encoder", _edit_sidecar(lambda m: m.update(extra=1)), "extra", id="encoder-extra-key"
    ),
    pytest.param(
        "encoder", _edit_sidecar(lambda m: m.update(hidden="x")), "hidden",
        id="encoder-bad-value",
    ),
    pytest.param("encoder", _malformed_sidecar, "malformed", id="encoder-malformed-json"),
    pytest.param(
        "encoder", _edit_sidecar(lambda m: m.update(layers=m["layers"] + 1)),
        "do not match the architecture: missing 16 ['layer1.bk', 'layer1.bo', 'layer1.bq'], "
        "unexpected 0 []",
        id="encoder-extra-layer",
    ),
    pytest.param(
        "encoder", _edit_sidecar(lambda m: m.update(layers=0)),
        "do not match the architecture: missing 0 [], "
        "unexpected 16 ['layer0.bk', 'layer0.bo', 'layer0.bq']",
        id="encoder-missing-layer",
    ),
    pytest.param(
        "encoder", _edit_sidecar(lambda m: m.update(hidden=2 * m["hidden"])), "shape",
        id="encoder-other-hidden",
    ),
    # more layers than stored arrays: refused before a layout of 16 entries per layer is built
    pytest.param(
        "encoder", _edit_sidecar(lambda m: m.update(layers=10_000_000)),
        "claims 10000000 layers, but it holds 26 arrays", id="encoder-huge-layers",
    ),
    # 2**50 rows of anything exceed the address space: the check must not allocate them
    pytest.param(
        "encoder", _edit_sidecar(lambda m: m.update(vocab_size=2**50)), "shape",
        id="encoder-vocab-size-too-large",
    ),
    pytest.param(
        "encoder", _edit_sidecar(lambda m: m.update(vocab_size=0)), "vocab_size",
        id="encoder-empty-vocab",
    ),
    pytest.param(
        "classifier", _edit_sidecar(lambda m: m["config"].update(extra=1)), "extra",
        id="classifier-extra-config-key",
    ),
    pytest.param(
        "classifier", _edit_sidecar(lambda m: m["config"].update(dropout="a")), "dropout",
        id="classifier-ill-typed-config-value",
    ),
    pytest.param(
        "classifier", _edit_sidecar(lambda m: m["config"].update(dropout=1.5)), "dropout",
        id="classifier-bad-dropout",
    ),
    pytest.param(
        "classifier", _edit_sidecar(lambda m: m["config"].update(lr=float("inf"))),
        "lr must lie in (0, inf), got inf", id="classifier-infinite-lr",
    ),
    pytest.param(
        "classifier", _edit_sidecar(lambda m: m["config"].update(num_filters=0)),
        "num_filters must be >= 1, got 0", id="classifier-no-filters",
    ),
    pytest.param(
        "classifier", _edit_sidecar(lambda m: m.update(kind="gru")), "gru",
        id="classifier-unknown-kind",
    ),
    pytest.param(
        "classifier", _edit_sidecar(lambda m: m.pop("kind")), "kind",
        id="classifier-missing-kind",
    ),
    # an LSTM's config takes no filter widths
    pytest.param(
        "classifier", _edit_sidecar(lambda m: m.update(kind="rnn")), "filter_widths",
        id="classifier-rnn-kind-over-cnn-config",
    ),
    pytest.param("classifier", _malformed_sidecar, "malformed", id="classifier-malformed-json"),
    pytest.param(
        "classifier", _edit_sidecar(lambda m: m.update(vocab_size=1000)), "shape",
        id="classifier-vocab-size-mismatch",
    ),
    pytest.param(
        "classifier", _edit_sidecar(lambda m: m.update(vocab_size=2**50)), "shape",
        id="classifier-vocab-size-too-large",
    ),
    pytest.param(
        "classifier", _edit_sidecar(lambda m: m.update(vocab_size="x")), "vocab_size",
        id="classifier-ill-typed-vocab-size",
    ),
    pytest.param(
        "classifier", _edit_sidecar(lambda m: m.update(num_labels=0)), "num_labels",
        id="classifier-no-labels",
    ),
    pytest.param(
        "classifier", _edit_sidecar(lambda m: m.update(epochs_used=-3)), "epochs_used",
        id="classifier-negative-epochs-used",
    ),
    pytest.param(
        "classifier", _edit_sidecar(lambda m: m.update(epochs_used=None)), "epochs_used",
        id="classifier-null-epochs-used",
    ),
    pytest.param("encoder", _name_byte(0xFF), "not UTF-8", id="encoder-name-not-utf8"),
    pytest.param("classifier", _truncate(12), "truncated", id="classifier-truncated-header"),
    pytest.param("classifier", _truncate(300), "truncated", id="classifier-truncated-payload"),
    # extents whose int64 product wraps around, once to 0 bytes
    pytest.param("classifier", _extents((2**16,) * 4), "truncated",
                 id="classifier-extents-wrap-to-zero"),
    pytest.param("classifier", _extents((2**31, 2**31, 3)), "truncated",
                 id="classifier-extents-past-int64"),
    pytest.param("classifier", _extents((0, 2**32 - 1, 2**32 - 1, 2**32 - 1)),
                 "array extents too large", id="classifier-extents-zero-beside-huge"),
    pytest.param("encoder", _poison("layer0.wq", np.nan), "parameter 'layer0.wq' in ",
                 id="encoder-nan-weight"),
    pytest.param("classifier", _poison("fc1_w", np.inf), "parameter 'fc1_w' in ",
                 id="classifier-inf-weight"),
    pytest.param("classifier", _stored_twice("fc2_b"), "parameter 'fc2_b' is stored twice",
                 id="classifier-name-stored-twice"),
]


def _damaged_copy(which, fault):
    """`fault`, as in MODEL_FILE_FAULTS, applied to a copy of the `which`
    checkpoint and its sidecar."""
    def apply(files, tmp_path):
        copy = tmp_path / f"damaged-{files[which].name}"
        shutil.copy(files[which], copy)
        shutil.copy(f"{files[which]}.json", f"{copy}.json")
        fault(copy)
        return copy
    return apply


def _data_not_utf8(files, tmp_path):
    bad = tmp_path / files["data"].name
    raw = files["data"].read_bytes().split(b"\n")
    raw[2] += b"\xff"
    bad.write_bytes(b"\n".join(raw))
    return bad


# (flag, fault, exit code, the message's start) rows for style-transfer's
# input files; a fault makes the bad file from the fixture files and a scratch
# directory, and returns its path
STYLE_TRANSFER_FILE_FAULTS = [
    pytest.param(
        "--classifier-ckpt", lambda files, tmp_path: tmp_path / "absent.ckpt", EXIT_CHECKPOINT,
        "error[checkpoint]: checkpoint not found: ", id="classifier-missing",
    ),
    pytest.param(
        "--classifier-ckpt", lambda files, tmp_path: tmp_path, EXIT_MISSING_FILE,
        "error[missing-file]: ", id="classifier-directory",
    ),
    # MODEL_FILE_FAULTS cuts a classifier at 12 and 300 bytes
    *[
        pytest.param(
            flag, _damaged_copy(which, _truncate(offset)), EXIT_CHECKPOINT,
            "error[checkpoint]: truncated checkpoint: ", id=f"{which}-cut-at-{offset}",
        )
        for flag, which, offsets in (
            ("--classifier-ckpt", "classifier", (0, 5, -1)),
            ("--model", "encoder", (12, 300, -1)),
        )
        for offset in offsets
    ],
    pytest.param("--data", _data_not_utf8, EXIT_PARSE, "error[parse]: ", id="data-not-utf8"),
]


# (subcommand, its flags, the flag whose model is damaged, which model, the
# damaged parameter, its value) rows: a non-finite weight is refused at load,
# where a NaN once ran a greedy refill to exit 0 and an inf surfaced from the
# sampler as a config error
NON_FINITE_WEIGHT_RUNS = [
    pytest.param("augment", ["--sampler", "greedy"], "--model", "encoder", "token_emb", np.nan,
                 id="augment-greedy-nan"),
    pytest.param("augment", [], "--model", "encoder", "mlm_w", np.inf, id="augment-top-k-inf"),
    pytest.param("style-transfer", [], "--model", "encoder", "layer0.ffn_w1", np.inf,
                 id="style-transfer-encoder-inf"),
    pytest.param("style-transfer", [], "--classifier-ckpt", "classifier", "emb", np.nan,
                 id="style-transfer-classifier-nan"),
]


# input flags naming files that do not exist
ABSENT_INPUTS = ["--data", "absent.tsv", "--vocab", "absent.txt", "--synonyms", "absent.tsv"]


class TestErrorCategories:
    @pytest.mark.parametrize("model, fault, named", MODEL_FILE_FAULTS)
    def test_bad_model_file_is_one_line_checkpoint_error(
        self, model, fault, named, workdir, vocab_file, pretrained, classifier_ckpt, tmp_path, capsys,
        monkeypatch,
    ):
        def param_layout(config, build=encoder.param_layout):
            # a sidecar's layer count must be checked before its layout is built
            assert config.layers <= 2, f"param_layout built {config.layers} layers"
            return build(config)

        monkeypatch.setattr(encoder, "param_layout", param_layout)
        source = pretrained if model == "encoder" else classifier_ckpt
        ckpt = tmp_path / "model.ckpt"
        shutil.copy(source, ckpt)
        shutil.copy(f"{source}.json", f"{ckpt}.json")
        fault(ckpt)
        if model == "encoder":
            argv = ["finetune", "--data", str(workdir / "train.tsv"), "--init", str(ckpt),
                    "--epochs", "1"]
        else:
            argv = ["eval", "--data", str(workdir / "test.tsv"), "--classifier-ckpt", str(ckpt)]
        code = main([*argv, "--vocab", str(vocab_file), "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == EXIT_CHECKPOINT, err
        assert err.startswith("error[checkpoint]: ") and err.count("\n") == 1, err
        assert named in err, err

    def test_missing_data_file(self, workdir, tmp_path):
        code = main(["build-vocab", "--data", str(workdir / "absent.tsv"),
                     "--out", str(tmp_path / "v")])
        assert code == EXIT_MISSING_FILE

    def test_malformed_tsv(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("not a labeled line\n")
        code = main(["build-vocab", "--data", str(bad), "--out", str(tmp_path / "v")])
        assert code == EXIT_PARSE

    @pytest.mark.parametrize(
        "subcommand, flag, fault",
        [
            ("build-vocab", "--data", "directory"),
            ("augment", "--data", "directory"),
            ("augment", "--vocab", "directory"),
            ("augment", "--synonyms", "directory"),
            # longer than a file name may be: neither missing nor a directory
            ("build-vocab", "--data", "long-name"),
        ],
    )
    def test_unreadable_input_is_one_line_missing_file_error(
        self, subcommand, flag, fault, workdir, vocab_file, tmp_path, capsys
    ):
        bad = tmp_path if fault == "directory" else tmp_path / ("x" * 300)
        if subcommand == "build-vocab":
            inputs = {"--data": bad}
        else:
            inputs = {"--augmenter": "synonym", "--data": workdir / "train.tsv",
                      "--vocab": vocab_file, "--synonyms": workdir / "syn.tsv", flag: bad}
        code = main([
            subcommand, "--out", str(tmp_path / "run"),
            *[str(part) for item in inputs.items() for part in item],
        ])
        err = capsys.readouterr().err
        assert code == EXIT_MISSING_FILE, err
        assert err.startswith("error[missing-file]: ") and err.count("\n") == 1, err
        assert str(bad) in err, err

    @pytest.mark.parametrize(
        "argv",
        [
            ["build-vocab", "--data", "x"],
            ["pretrain", "--data", "x", "--vocab", "x"],
            ["finetune", "--data", "x", "--vocab", "x", "--init", "x"],
            ["augment", "--data", "x", "--vocab", "x"],
            ["train-classifier", "--data", "x", "--vocab", "x"],
            ["eval", "--data", "x", "--vocab", "x", "--classifier-ckpt", "x"],
            ["ab-experiment", "--data", "x", "--test", "x", "--vocab", "x"],
            ["style-transfer", "--data", "x", "--vocab", "x", "--model", "x",
             "--classifier-ckpt", "x"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_out_that_is_a_file_is_one_line_config_error(self, argv, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        code = main([*argv, "--out", str(taken)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE, err
        assert err.startswith("error[config]: ") and err.count("\n") == 1, err
        assert f"--out {taken} is not a directory" in err, err
        assert taken.read_text() == "not a directory\n"

    @pytest.mark.parametrize("bad_file", ["data", "vocab"])
    def test_non_utf8_input_is_parse_error(self, bad_file, workdir, vocab_file, tmp_path, capsys):
        source = workdir / "train.tsv" if bad_file == "data" else vocab_file
        bad = tmp_path / source.name
        raw = source.read_bytes().split(b"\n")
        raw[5] += b"\xff"
        bad.write_bytes(b"\n".join(raw))
        inputs = {"data": workdir / "train.tsv", "vocab": vocab_file, bad_file: bad}
        code = main([
            "pretrain", "--data", str(inputs["data"]), "--vocab", str(inputs["vocab"]),
            "--epochs", "1", "--out", str(tmp_path / "run"),
        ])
        err = capsys.readouterr().err
        assert code == EXIT_PARSE, err
        assert err.startswith(f"error[parse]: {bad}:6: ") and err.count("\n") == 1, err

    def test_vocab_token_listed_twice_is_parse_error(self, workdir, vocab_file, tmp_path, capsys):
        bad = tmp_path / "vocab.txt"
        lines = vocab_file.read_text().splitlines()
        bad.write_text("\n".join([*lines, "movie"]) + "\n")
        out = tmp_path / "clf"
        code = main([
            "train-classifier", "--data", str(workdir / "train.tsv"), "--vocab", str(bad),
            "--epochs", "1", "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert code == EXIT_PARSE, err
        assert err == f"error[parse]: {bad}:{len(lines) + 1}: 'movie' is listed twice\n"
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        pytest.param("good\tgreat\nbad\tbad\n",
                     "2: synonym entry for 'bad' offers no alternative to itself", id="self-only"),
        pytest.param("good\tgreat\nbad\tawful\ngood\tfine\n", "3: 'good' is listed twice",
                     id="listed-twice"),
        pytest.param("good great\n", "1: expected 'word<TAB>syn1,syn2,...'", id="no-tab"),
        pytest.param("good\tgreat\n\tfine\n", "2: expected 'word<TAB>syn1,syn2,...'",
                     id="empty-word"),
    ])
    def test_bad_synonym_row_is_one_line_parse_error(
        self, text, message, workdir, vocab_file, tmp_path, capsys
    ):
        table = tmp_path / "syn.tsv"
        table.write_text(text)
        out = tmp_path / "run"
        code = main([
            "augment", "--data", str(workdir / "train.tsv"), "--vocab", str(vocab_file),
            "--augmenter", "synonym", "--synonyms", str(table), "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert code == EXIT_PARSE, err
        assert err == f"error[parse]: {table}:{message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag, fault, code, start", STYLE_TRANSFER_FILE_FAULTS)
    def test_style_transfer_file_fault_is_one_line_error(
        self, flag, fault, code, start, workdir, vocab_file, finetuned, classifier_ckpt,
        tmp_path, capsys,
    ):
        files = {"data": workdir / "test.tsv", "encoder": finetuned, "classifier": classifier_ckpt}
        inputs = {"--data": files["data"], "--model": finetuned,
                  "--classifier-ckpt": classifier_ckpt}
        inputs[flag] = bad = fault(files, tmp_path)
        out = tmp_path / "run"
        got = main([
            "style-transfer", "--vocab", str(vocab_file), "--out", str(out),
            *[str(part) for item in inputs.items() for part in item],
        ])
        err = capsys.readouterr().err
        assert got == code, err
        assert err.startswith(start) and err.count("\n") == 1, err
        assert str(bad) in err and "Traceback" not in err, err
        assert not out.exists()

    @pytest.mark.parametrize("subcommand, flags, flag, which, name, value", NON_FINITE_WEIGHT_RUNS)
    def test_non_finite_weight_is_one_line_checkpoint_error(
        self, subcommand, flags, flag, which, name, value, workdir, vocab_file, finetuned,
        classifier_ckpt, tmp_path, capsys,
    ):
        files = {"encoder": finetuned, "classifier": classifier_ckpt}
        inputs = {"--model": finetuned}
        if subcommand == "style-transfer":
            inputs["--classifier-ckpt"] = classifier_ckpt
        inputs[flag] = bad = _damaged_copy(which, _poison(name, value))(files, tmp_path)
        out = tmp_path / "run"
        code = main([
            subcommand, "--data", str(workdir / "test.tsv"), "--vocab", str(vocab_file),
            "--out", str(out), *flags, *[str(part) for item in inputs.items() for part in item],
        ])
        err = capsys.readouterr().err
        assert code == EXIT_CHECKPOINT, err
        assert err == f"error[checkpoint]: parameter '{name}' in {bad} holds NaN or inf\n"
        assert not out.exists()

    def test_malformed_config_file(self, workdir, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{nope")
        code = main(["build-vocab", "--data", str(workdir / "train.tsv"),
                     "--config", str(cfg), "--out", str(tmp_path / "v")])
        assert code == EXIT_USAGE

    def test_non_utf8_config_file_is_named(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_bytes(b'{"min_freq": 1}\xff')
        code = main(["build-vocab", "--data", str(workdir / "train.tsv"),
                     "--config", str(cfg), "--out", str(tmp_path / "v")])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE, err
        assert err.startswith(f"error[config]: malformed config file {cfg}: "), err
        assert err.count("\n") == 1, err

    def test_truncated_checkpoint(self, workdir, vocab_file, pretrained, tmp_path):
        clipped = tmp_path / "clipped.ckpt"
        clipped.write_bytes(pretrained.read_bytes()[:64])
        (tmp_path / "clipped.ckpt.json").write_text(
            (pretrained.parent / "encoder.ckpt.json").read_text()
        )
        code = main([
            "finetune", "--data", str(workdir / "train.tsv"), "--vocab", str(vocab_file),
            "--init", str(clipped), "--epochs", "1", "--out", str(tmp_path / "ft"),
        ])
        assert code == EXIT_CHECKPOINT

    def test_vocab_mismatch_is_checkpoint_error(self, workdir, pretrained, tmp_path):
        tiny_vocab = tmp_path / "tiny.txt"
        tiny_vocab.write_text("<pad>\n<unk>\n<mask>\n<cls>\nonly\n")
        code = main([
            "finetune", "--data", str(workdir / "train.tsv"), "--vocab", str(tiny_vocab),
            "--init", str(pretrained), "--epochs", "1", "--out", str(tmp_path / "ft"),
        ])
        assert code == EXIT_CHECKPOINT

    @pytest.mark.parametrize("subcommand", ["style-transfer", "ab-experiment"])
    def test_vocab_mismatch_with_encoder_is_checkpoint_error(
        self, subcommand, workdir, finetuned, classifier_ckpt, tmp_path, capsys
    ):
        tiny_vocab = tmp_path / "tiny.txt"
        tiny_vocab.write_text("<pad>\n<unk>\n<mask>\n<cls>\nonly\n")
        extra = (
            ["--classifier-ckpt", str(classifier_ckpt)]
            if subcommand == "style-transfer"
            else ["--test", str(workdir / "test.tsv"), "--arms", "cbert", "--seeds", "1"]
        )
        code = main([
            subcommand, "--data", str(workdir / "train.tsv"), "--vocab", str(tiny_vocab),
            "--model", str(finetuned), "--out", str(tmp_path / "run"), *extra,
        ])
        assert code == EXIT_CHECKPOINT
        assert "vocabulary size" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["eval", "style-transfer"])
    def test_vocab_mismatch_with_classifier_is_checkpoint_error(
        self, subcommand, workdir, vocab_file, finetuned, tmp_path, capsys
    ):
        # a classifier trained against a larger vocabulary than the run's
        wide_vocab = tmp_path / "wide.txt"
        wide_vocab.write_text(vocab_file.read_text() + "".join(f"extra{i}\n" for i in range(6)))
        assert main([
            "train-classifier", "--data", str(workdir / "train.tsv"), "--vocab", str(wide_vocab),
            "--epochs", "1", "--out", str(tmp_path / "clf"),
        ]) == EXIT_OK
        capsys.readouterr()
        extra = ["--model", str(finetuned)] if subcommand == "style-transfer" else []
        code = main([
            subcommand, "--data", str(workdir / "test.tsv"), "--vocab", str(vocab_file),
            "--classifier-ckpt", str(tmp_path / "clf" / "classifier.ckpt"),
            "--out", str(tmp_path / "run"), *extra,
        ])
        err = capsys.readouterr().err
        assert code == EXIT_CHECKPOINT, err
        assert err.startswith("error[checkpoint]: ") and err.count("\n") == 1, err
        assert "vocabulary size" in err, err

    @pytest.mark.parametrize("subcommand", ["eval", "style-transfer"])
    @pytest.mark.filterwarnings("ignore:.*never occur:UserWarning")  # labels 2-4 are unused
    def test_data_labels_beyond_the_classifier_are_checkpoint_error(
        self, subcommand, workdir, vocab_file, finetuned, classifier_ckpt, tmp_path, capsys
    ):
        data = tmp_path / "five.tsv"
        data.write_text("0\tthe movie was bad\n1\tthe movie was good\n5\tthe movie was fine\n")
        extra = (
            ["--model", str(finetuned), "--target-label", "1"]
            if subcommand == "style-transfer" else []
        )
        code = main([
            subcommand, "--data", str(data), "--vocab", str(vocab_file),
            "--classifier-ckpt", str(classifier_ckpt), "--out", str(tmp_path / "run"), *extra,
        ])
        err = capsys.readouterr().err
        assert code == EXIT_CHECKPOINT, err
        assert err == "error[checkpoint]: data has 6 labels, classifier has 2\n"

    @pytest.mark.parametrize("subcommand, label_2_text", [
        ("augment", "the movie was fine"),
        ("augment", "zzz qqq"),  # no word in the vocabulary: no row asks for condition 2
        ("ab-experiment", "the movie was fine"),
    ], ids=["augment-content-word", "augment-no-content-word", "ab-experiment"])
    def test_data_labels_beyond_the_conditional_encoder_are_checkpoint_error(
        self, subcommand, label_2_text, workdir, vocab_file, finetuned, tmp_path, capsys
    ):
        data = tmp_path / "three.tsv"
        data.write_text(f"0\tthe movie was bad\n1\tthe movie was good\n2\t{label_2_text}\n" * 4)
        extra = (["--test", str(data), "--arms", "none,cbert", "--seeds", "1", "--epochs", "1"]
                 if subcommand == "ab-experiment" else [])
        out = tmp_path / "run"
        code = main([subcommand, "--data", str(data), "--vocab", str(vocab_file),
                     "--model", str(finetuned), "--out", str(out), *extra])
        err = capsys.readouterr().err
        assert code == EXIT_CHECKPOINT, err
        assert err == "error[checkpoint]: data has 3 labels, conditional encoder has 2\n"
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["finetune", "train-classifier"])
    def test_more_labels_than_rows_are_refused_before_a_table_is_sized(
        self, subcommand, workdir, vocab_file, pretrained, tmp_path, capsys, monkeypatch
    ):
        # the label count is the largest label + 1: here a (10**9 + 1)-row table
        def sized(*args):
            raise AssertionError("a table was sized by the label count")

        monkeypatch.setattr(classify, "draw_params", sized)
        monkeypatch.setattr(training, "swap_condition_table", sized)
        data = tmp_path / "far.tsv"
        data.write_text("0\tthe movie was bad\n1000000000\tthe movie was good\n")
        extra = ["--init", str(pretrained)] if subcommand == "finetune" else []
        out = tmp_path / "run"
        code = main([subcommand, "--data", str(data), "--vocab", str(vocab_file),
                     *extra, "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == EXIT_USAGE, err
        assert len(err) == 2 and err[0].startswith("warning: "), err
        assert err[1] == "error[config]: data has 1000000001 labels but only 2 training rows"
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_classifier_divergence_is_training_error(self, workdir, vocab_file, tmp_path, capsys):
        code = main([
            "train-classifier", "--data", str(workdir / "train.tsv"),
            "--vocab", str(vocab_file), "--lr", "1e200", "--epochs", "2",
            "--out", str(tmp_path / "clf"),
        ])
        assert code == EXIT_TRAINING
        assert capsys.readouterr().err.startswith("error[training]: cnn: loss diverged")

    def test_validation_split_that_scores_nothing_is_training_error(self, tmp_path, capsys):
        # the seed sends the empty row to validation: refused before training
        data = tmp_path / "two.tsv"
        data.write_text("0\tthe movie was bad\n1\t\n")
        assert main(["build-vocab", "--data", str(data), "--out", str(tmp_path / "v")]) == EXIT_OK
        capsys.readouterr()
        out = tmp_path / "run"
        code = main([
            "pretrain", "--data", str(data), "--vocab", str(tmp_path / "v" / "vocab.txt"),
            "--val-fraction", "0.5", "--seed", "1", "--epochs", "1", "--layers", "1",
            "--hidden", "16", "--ff", "32", "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert code == EXIT_TRAINING, err
        assert err == "error[training]: pretrain: no validation sentence has a maskable word\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        pytest.param(["train-classifier", "--epochs", "2"], id="cnn"),
        # the LSTM's saturated gates keep its loss finite: validation overflows instead
        pytest.param(["train-classifier", "--classifier", "rnn", "--epochs", "2"], id="rnn"),
        pytest.param(["pretrain", "--epochs", "1", "--layers", "1", "--hidden", "16",
                      "--ff", "32", "--batch-size", "2"], id="pretrain"),
    ])
    def test_divergence_prints_no_numpy_warning(self, argv, workdir, vocab_file, tmp_path, capsys):
        out = tmp_path / "run"
        code = main([*argv, "--data", str(workdir / "train.tsv"), "--vocab", str(vocab_file),
                     "--lr", "1e300", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_TRAINING, err
        assert "encountered" not in err, err
        assert err.startswith("error[training]: ") and err.count("\n") == 1, err
        assert not out.exists()

    def test_style_transfer_without_target_label_needs_binary_data(
        self, workdir, vocab_file, finetuned, tmp_path, capsys
    ):
        data = tmp_path / "three.tsv"
        data.write_text("0\tthe movie was bad\n1\tthe movie was good\n2\tthe movie was fine\n" * 4)
        clf = tmp_path / "clf3"
        assert main([
            "train-classifier", "--data", str(data), "--vocab", str(vocab_file),
            "--epochs", "1", "--out", str(clf),
        ]) == EXIT_OK
        capsys.readouterr()
        out = tmp_path / "style"
        code = main([
            "style-transfer", "--data", str(data), "--vocab", str(vocab_file),
            "--model", str(finetuned), "--classifier-ckpt", str(clf / "classifier.ckpt"),
            "--out", str(out),
        ])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error[config]: --target-label is required for non-binary datasets\n"
        )
        assert not out.exists()

    def test_missing_required_flag(self, tmp_path):
        assert main(["pretrain", "--out", str(tmp_path / "x")]) == EXIT_USAGE

    def test_arms_naming_no_arm_is_one_line_config_error(
        self, workdir, vocab_file, tmp_path, capsys
    ):
        out = tmp_path / "ab"
        code = main([
            "ab-experiment", "--data", str(workdir / "train.tsv"),
            "--test", str(workdir / "test.tsv"), "--vocab", str(vocab_file),
            "--arms", ",", "--seeds", "1", "--out", str(out),
        ])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error[config]: --arms ',' names no arm")
        assert err.count("\n") == 1
        assert not (out / "records.tsv").exists()

    @pytest.mark.parametrize(
        "subcommand, flags, message",
        [
            pytest.param("build-vocab", ["--min-freq", "0"], "min_freq must be >= 1, got 0",
                         id="min-freq-0"),
            pytest.param("build-vocab", ["--min-freq", "-3"], "min_freq must be >= 1, got -3",
                         id="min-freq-negative"),
            pytest.param("build-vocab", ["--max-size", "3"], "max_size must be >= 4, got 3",
                         id="max-size"),
            pytest.param("train-classifier", ["--val-fraction", "1.5"],
                         "val_fraction must be in [0, 1), got 1.5", id="val-fraction"),
            pytest.param("train-classifier", ["--max-len", "0"],
                         "max_len must be >= 2 (<cls> and one word), got 0", id="max-len"),
            pytest.param("ab-experiment", ["--seeds", "1,1", "--arms", "none"],
                         "--seeds '1,1' repeats 1", id="repeated-seed"),
            pytest.param("ab-experiment", ["--arms", "none,none"],
                         "--arms 'none,none' repeats 'none'", id="repeated-arm"),
            pytest.param("train-classifier", ["--lr", "-1"], "lr must lie in (0, inf), got -1.0",
                         id="classifier-lr"),
            pytest.param("train-classifier", ["--lr", "inf"], "lr must lie in (0, inf), got inf",
                         id="classifier-lr-inf"),
            pytest.param("train-classifier", ["--dropout-rate", "1.5"],
                         "dropout must lie in [0, 1), got 1.5", id="classifier-dropout"),
            pytest.param("train-classifier", ["--num-filters", "0"],
                         "num_filters must be >= 1, got 0", id="classifier-num-filters"),
            pytest.param("train-classifier", ["--classifier", "rnn", "--num-filters", "-5"],
                         "--num-filters applies only to --classifier cnn",
                         id="rnn-num-filters"),
            pytest.param("ab-experiment",
                         ["--classifier", "rnn", "--num-filters", "-5", "--arms", "none"],
                         "--num-filters applies only to --classifier cnn",
                         id="ab-rnn-num-filters"),
            pytest.param("augment", ["--sampler", "greedy", "--top-k", "3"],
                         "--top-k applies only to --sampler top_k", id="greedy-top-k"),
            pytest.param("augment", ["--sampler", "temperature", "--top-k", "1"],
                         "--top-k applies only to --sampler top_k", id="temperature-top-k"),
            pytest.param("ab-experiment",
                         ["--sampler", "greedy", "--top-k", "3", "--arms", "none"],
                         "--top-k applies only to --sampler top_k", id="ab-greedy-top-k"),
            # every input path is absent, so the flag is refused before any file is read
            *[
                pytest.param("augment", ["--augmenter", "synonym", *flags, *ABSENT_INPUTS],
                             f"{flags[0]} applies only to the cbert and bert augmenters",
                             id=f"synonym{'-'.join(flags)}")
                for flags in (["--sampler", "temperature"], ["--sampler", "greedy"],
                              ["--temperature", "0.5"], ["--top-k", "3"], ["--keep-original"])
            ],
            *[
                pytest.param("ab-experiment", ["--arms", "none,synonym", *flags, *ABSENT_INPUTS,
                                               "--test", "absent.tsv"],
                             f"{flags[0]} applies only to the cbert and bert augmenters",
                             id=f"ab-synonym{'-'.join(flags)}")
                for flags in (["--sampler", "greedy"], ["--top-k", "3"], ["--temperature", "0.5"])
            ],
            # with no augmenting arm, the augmentation width and pass count do nothing
            *[
                pytest.param("ab-experiment", ["--arms", "none", *flags, *ABSENT_INPUTS,
                                               "--test", "absent.tsv"],
                             f"{flags[0]} applies only to the cbert, bert and synonym augmenters",
                             id=f"ab-none{'-'.join(flags)}")
                for flags in (["--k", "3"], ["--k", "2,4"], ["--multiplier", "2"])
            ],
        ],
    )
    def test_bad_value_is_one_line_config_error(
        self, subcommand, flags, message, workdir, vocab_file, tmp_path, capsys
    ):
        out = tmp_path / "run"
        # build-vocab reads no vocabulary; it and augment take neither a test split nor epochs
        inputs = [] if subcommand == "build-vocab" else ["--vocab", str(vocab_file)]
        training = [] if subcommand in ("augment", "build-vocab") else [
            "--test", str(workdir / "test.tsv"), "--epochs", "1",
        ]
        code = main([
            subcommand, "--data", str(workdir / "train.tsv"), *inputs,
            "--out", str(out), *training, *flags,
        ])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error[config]: {message}\n"
        # config.json is the record of a finished run, so a failed one has none
        assert not {"classifier.ckpt", "records.tsv", "config.json", "vocab.txt"} & {
            p.name for p in out.glob("*")
        }

    @pytest.mark.parametrize(
        "flags, message",
        [
            pytest.param(["--lr", "-1"], "lr must lie in (0, inf), got -1.0", id="lr"),
            pytest.param(["--lr", "inf"], "lr must lie in (0, inf), got inf", id="lr-inf"),
            pytest.param(["--clip-norm", "0"],
                         "clip_norm must lie in (0, inf] or be null, got 0.0", id="clip-norm-0"),
            pytest.param(["--clip-norm", "-1"],
                         "clip_norm must lie in (0, inf] or be null, got -1.0",
                         id="clip-norm-negative"),
            pytest.param(["--layers", "-1"], "layers must be >= 0, got -1", id="layers"),
            pytest.param(["--ff", "0"], "ff must be >= 1, got 0", id="ff"),
            pytest.param(["--hidden", "1", "--heads", "1"], "hidden must be >= 2, got 1",
                         id="hidden"),
        ],
    )
    def test_bad_training_value_is_one_line_config_error(
        self, flags, message, workdir, vocab_file, tmp_path, capsys
    ):
        out = tmp_path / "pre"
        code = main([
            "pretrain", "--data", str(workdir / "train.tsv"), "--vocab", str(vocab_file),
            "--epochs", "1", "--hidden", "16", "--ff", "32", "--layers", "1",
            "--out", str(out), *flags,
        ])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error[config]: {message}\n"
        assert not out.exists()

    def test_missing_vocab_file_leaves_no_run_record(self, workdir, tmp_path, capsys):
        out = tmp_path / "clf"
        code = main([
            "train-classifier", "--data", str(workdir / "train.tsv"),
            "--vocab", str(tmp_path / "absent.txt"), "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert code == EXIT_MISSING_FILE, err
        assert err.startswith("error[missing-file]: ") and err.count("\n") == 1, err
        assert not (out / "config.json").exists()

    @pytest.mark.parametrize(
        "folds, message",
        [
            pytest.param(0, "cross-validation needs at least 2 folds", id="0"),
            pytest.param(1, "cross-validation needs at least 2 folds", id="1"),
            pytest.param(100000, "{n} examples cannot fill 100000 folds", id="more-than-examples"),
        ],
    )
    def test_cv_below_two_folds_is_one_line_config_error(
        self, folds, message, workdir, vocab_file, tmp_path, capsys
    ):
        out = tmp_path / "clf"
        code = main([
            "train-classifier", "--data", str(workdir / "train.tsv"),
            "--vocab", str(vocab_file), "--epochs", "1", "--cv", str(folds),
            "--out", str(out),
        ])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        n = len((workdir / "train.tsv").read_text().splitlines())
        assert err == f"error[config]: {message.format(n=n)}\n"
        # the fold count is rejected before the classifier is trained or saved
        assert not (out / "classifier.ckpt").exists()
        assert not (out / "classifier.ckpt.json").exists()

    @pytest.mark.parametrize(
        "labels, message",
        [
            pytest.param(
                (0, 1, 0),
                "3 examples in 2 folds leave 1 outside the largest fold; "
                "training and validation need 2",
                id="no-training-split",
            ),
            # the whole set trains fine; a fold's 2 training rows cannot hold 3 labels
            pytest.param(
                (0, 1, 2, 0), "data has 3 labels but only 2 training rows",
                id="fewer-fold-rows-than-labels",
            ),
        ],
    )
    def test_cv_folds_that_leave_no_training_split_are_rejected_before_training(
        self, labels, message, tmp_path, capsys
    ):
        data = tmp_path / "rows.tsv"
        sentences = ("the movie was bad", "the film was great", "a dull plot", "a fine cast")
        data.write_text("".join(f"{label}\t{text}\n" for label, text in zip(labels, sentences)))
        assert main(["build-vocab", "--data", str(data), "--out", str(tmp_path / "v")]) == EXIT_OK
        capsys.readouterr()
        out = tmp_path / "clf"
        code = main([
            "train-classifier", "--data", str(data), "--vocab", str(tmp_path / "v" / "vocab.txt"),
            "--cv", "2", "--epochs", "1", "--out", str(out),
        ])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error[config]: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            pytest.param(["--target-label", "1", "--top-m", "0"], "top_m must be >= 1",
                         id="top-m-0"),
            pytest.param(["--target-label", "1", "--top-m", "-3"], "top_m must be >= 1",
                         id="top-m-negative"),
            pytest.param(["--target-label", "5", "--limit", "0"],
                         "target label 5 out of range [0, 2)", id="target-label"),
        ],
    )
    @pytest.mark.filterwarnings("ignore:.*never occur:UserWarning")  # label 0 is unused
    def test_bad_style_flags_are_rejected_when_no_row_is_rewritten(
        self, flags, message, workdir, vocab_file, finetuned, classifier_ckpt, tmp_path, capsys
    ):
        data = tmp_path / "ones.tsv"
        data.write_text("1\tthe movie was good\n1\tthe film was great\n")
        out = tmp_path / "style"
        code = main([
            "style-transfer", "--data", str(data), "--vocab", str(vocab_file),
            "--model", str(finetuned), "--classifier-ckpt", str(classifier_ckpt),
            *flags, "--out", str(out),
        ])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error[config]: {message}\n"
        assert not out.exists()

    def test_negative_limit_is_one_line_config_error(
        self, workdir, vocab_file, finetuned, classifier_ckpt, tmp_path, capsys
    ):
        out = tmp_path / "style"
        code = main([
            "style-transfer", "--data", str(workdir / "test.tsv"), "--vocab", str(vocab_file),
            "--model", str(finetuned), "--classifier-ckpt", str(classifier_ckpt),
            "--limit", "-1", "--out", str(out),
        ])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error[config]: --limit must be >= 0, got -1\n"
        assert not (out / "pairs.tsv").exists()

    def test_unknown_arm(self, workdir, vocab_file, tmp_path):
        code = main([
            "ab-experiment", "--data", str(workdir / "train.tsv"),
            "--test", str(workdir / "test.tsv"), "--vocab", str(vocab_file),
            "--arms", "nonsense", "--seeds", "1", "--out", str(tmp_path / "ab"),
        ])
        assert code == EXIT_USAGE

    def test_empty_eval_file(self, workdir, vocab_file, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        code = main([
            "eval", "--data", str(empty), "--vocab", str(vocab_file),
            "--classifier-ckpt", str(tmp_path / "whatever.ckpt"), "--out", str(tmp_path / "e"),
        ])
        assert code == EXIT_PARSE


# each subcommand's required flags other than --out; the missing-flag case
# leaves out the last one
REQUIRED_FLAGS = {
    "build-vocab": ["--data"],
    "pretrain": ["--data", "--vocab"],
    "finetune": ["--data", "--vocab", "--init"],
    "augment": ["--data", "--vocab"],
    "train-classifier": ["--data", "--vocab"],
    "eval": ["--data", "--vocab", "--classifier-ckpt"],
    "ab-experiment": ["--data", "--vocab", "--test"],
    "style-transfer": ["--data", "--vocab", "--model", "--classifier-ckpt"],
}


def _argument_error_cases():
    """(argv without --out, which the test adds after the subcommand; a word
    the message must name)."""
    for subcommand, flags in REQUIRED_FLAGS.items():
        given = [part for flag in flags for part in (flag, "x")]
        yield pytest.param(
            [subcommand, *given, "--seed", "x"], "--seed", id=f"{subcommand}-bad-int"
        )
        yield pytest.param(
            [subcommand, *given, "--no-such-flag"], "--no-such-flag",
            id=f"{subcommand}-unknown-flag",
        )
        yield pytest.param(
            [subcommand, *given[:-2]], flags[-1], id=f"{subcommand}-missing-required"
        )
    yield pytest.param(
        ["train-classifier", "--data", "x", "--vocab", "x", "--classifier", "gru"], "gru",
        id="bad-choice",
    )
    yield pytest.param([], "subcommand", id="no-subcommand")
    yield pytest.param(["augment", "--data", "x", "--vocab", "x", "--k", "1,a"],
                       "--k '1,a': invalid literal for int() with base 10: 'a'", id="bad-k-item")
    yield pytest.param(
        ["ab-experiment", "--data", "x", "--vocab", "x", "--test", "x", "--seeds", "1,x"],
        "--seeds '1,x': invalid literal for int() with base 10: 'x'", id="bad-seeds-item",
    )
    yield pytest.param(["build-vocab", "--data", "x", "--config"], "--config", id="bare-config")


class TestFailedRunOut:
    @pytest.mark.parametrize("subcommand", list(REQUIRED_FLAGS))
    def test_failed_run_removes_the_out_it_created(self, subcommand, tmp_path, capsys):
        out = tmp_path / "new" / "run"
        absent = str(tmp_path / "absent")
        inputs = [part for flag in REQUIRED_FLAGS[subcommand] for part in (flag, absent)]
        code = main([subcommand, *inputs, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_MISSING_FILE, err
        assert not out.exists()
        assert out.parent.is_dir()  # a parent the run created stays

    @pytest.mark.parametrize("held", [None, "notes.txt"], ids=["empty", "holding-a-file"])
    def test_failed_run_keeps_an_out_that_existed(self, held, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        if held:
            (out / held).write_text("kept\n")
        code = main(["build-vocab", "--data", str(tmp_path / "absent"), "--out", str(out)])
        assert code == EXIT_MISSING_FILE, capsys.readouterr().err
        assert out.is_dir()
        assert [p.name for p in out.iterdir()] == ([held] if held else [])
        if held:
            assert (out / held).read_text() == "kept\n"

    @pytest.mark.parametrize(
        "error, code, tag",
        [
            (FileNotFoundError, EXIT_MISSING_FILE, "missing-file"),
            (IsADirectoryError, EXIT_MISSING_FILE, "missing-file"),
            (PermissionError, EXIT_MISSING_FILE, "missing-file"),
            (ParseError, EXIT_PARSE, "parse"),  # a ValueError: its arm must come first
            (CheckpointError, EXIT_CHECKPOINT, "checkpoint"),
            (TrainingError, EXIT_TRAINING, "training"),
            (ValueError, EXIT_USAGE, "config"),
            (KeyError, EXIT_USAGE, "config"),
            (IndexError, EXIT_USAGE, "config"),
            (TypeError, None, None),  # a programming error is not caught
            (RuntimeError, None, None),
        ],
        ids=lambda value: value.__name__ if isinstance(value, type) else None,
    )
    def test_each_exception_class_has_its_exit_code(
        self, error, code, tag, tmp_path, capsys, monkeypatch
    ):
        def failing(args, out):
            raise error("probe")

        monkeypatch.setattr(cli, "cmd_build_vocab", failing)
        out = tmp_path / "run"
        argv = ["build-vocab", "--data", "x", "--out", str(out)]
        if code is None:
            with pytest.raises(error, match="probe"):
                main(argv)
        else:
            assert main(argv) == code
            err = capsys.readouterr().err
            assert err.startswith(f"error[{tag}]: ") and err.count("\n") == 1, err
        assert not out.exists()


class TestArgumentErrors:
    @pytest.mark.parametrize("argv, named", _argument_error_cases())
    def test_argument_error_is_one_line_config_error(self, argv, named, tmp_path, capsys):
        out = tmp_path / "run"
        code = main([*argv[:1], "--out", str(out), *argv[1:]] if argv else [])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE, err
        assert err.startswith("error[config]: ") and err.count("\n") == 1, err
        assert named in err, err
        assert not out.exists()


# (subcommand, a config class its flags build) for every class of cli.CONFIG_FLAGS
# that each subcommand builds, a classifier class once per --classifier kind
FLAG_CONFIGS = [
    ("pretrain", EncoderConfig), ("pretrain", TrainConfig), ("pretrain", MaskPolicy),
    ("finetune", TrainConfig), ("finetune", MaskPolicy), ("augment", AugmentationPolicy),
    ("train-classifier", CnnConfig), ("train-classifier", RnnConfig),
    ("ab-experiment", AugmentationPolicy), ("ab-experiment", CnnConfig),
    ("ab-experiment", RnnConfig),
]


@pytest.mark.parametrize(
    "subcommand, cls", FLAG_CONFIGS, ids=[f"{sub}-{cls.__name__}" for sub, cls in FLAG_CONFIGS]
)
def test_default_flags_build_the_default_config(subcommand, cls):
    # a flag default that drifted from its field would train another model than
    # the library's defaults, or reject every synonym run
    kind = ["--classifier", cls.kind] if cls in classify.CONFIGS.values() else []
    args = cli.build_parser().parse_args([
        subcommand, *[part for flag in REQUIRED_FLAGS[subcommand] for part in (flag, "absent")],
        *kind, "--out", "absent", "--seed", "5",
    ])
    names = {field.name for field in dataclasses.fields(cls)}
    given = {name: value for name, value in (("seed", 5), ("vocab_size", 9)) if name in names}
    if cls is AugmentationPolicy:  # the sampler flags at their defaults also pass its check
        built = cli._augment_policy(args, ["synonym"])
    elif kind:
        built = cli._classifier_config(args)
    else:
        built = cli._config(cls, args, **given)
    assert built == cls(**given)


def test_flag_configs_name_every_class_the_table_feeds():
    assert {cls for fields in cli.CONFIG_FLAGS.values() for cls in fields} == {
        cls for _, cls in FLAG_CONFIGS
    }


# each subcommand's option strings, as the hand-written flags declared them
SUBCOMMAND_OPTIONS = {
    "build-vocab": "--config --data --help --max-size --min-freq --out --seed -h",
    "pretrain": "--batch-size --clip-norm --config --data --dropout-rate --epochs --ff --heads "
                "--help --hidden --layers --lr --mask-ratio --max-len --num-conditions --out "
                "--patience --seed --val-fraction --vocab -h",
    "finetune": "--batch-size --clip-norm --config --data --epochs --help --init --lr "
                "--mask-ratio --out --patience --seed --val-fraction --vocab -h",
    "augment": "--augmenter --config --data --help --k --keep-original --max-len --model "
               "--multiplier --out --sampler --seed --synonyms --temperature --top-k --vocab -h",
    "train-classifier": "--batch-size --classifier --config --cv --data --dropout-rate "
                        "--emb-dim --epochs --grid --help --hidden-dim --lr --max-len "
                        "--num-filters --out --patience --seed --test --val-fraction --vocab -h",
    "eval": "--classifier-ckpt --config --data --help --max-len --out --seed --vocab -h",
    "ab-experiment": "--arms --batch-size --classifier --config --data --dropout-rate --emb-dim "
                     "--epochs --help --hidden-dim --k --lr --max-len --model --multiplier "
                     "--num-filters --out --patience --pretrained --sampler --seed --seeds "
                     "--synonyms --temperature --test --top-k --val-fraction --vocab -h",
    "style-transfer": "--classifier-ckpt --config --data --help --limit --max-len --model --out "
                      "--seed --target-label --top-m --vocab -h",
}


def test_each_subcommand_keeps_its_options():
    subparsers = cli.build_parser()._subparsers._group_actions[0].choices
    assert {
        name: {option for action in sp._actions for option in action.option_strings}
        for name, sp in subparsers.items()
    } == {name: set(options.split()) for name, options in SUBCOMMAND_OPTIONS.items()}


def test_cli_lstm_trains_the_library_lstm(workdir, vocab_file, tmp_path):
    # with no --dropout-rate, --classifier rnn builds RnnConfig's own defaults
    out = tmp_path / "rnn"
    code = main([
        "train-classifier", "--data", str(workdir / "train.tsv"), "--vocab", str(vocab_file),
        "--classifier", "rnn", "--epochs", "2", "--out", str(out), "--seed", "3",
    ])
    assert code == EXIT_OK
    vocab = load_vocab(vocab_file)
    clf, _ = classify.train_classifier(
        load_tsv(workdir / "train.tsv", vocab, seed=3), RnnConfig(seed=3, max_epochs=2), len(vocab)
    )
    stored = load_arrays(out / "classifier.ckpt")
    assert stored.keys() == clf.params.keys()
    for name, param in clf.params.items():
        assert stored[name].tobytes() == param.data.tobytes(), name
    # config.json records the dropout the run used, and it replays, as does a null
    archived = json.loads((out / "config.json").read_text())
    assert archived["dropout_rate"] == RnnConfig.dropout
    (tmp_path / "null.json").write_text(json.dumps({**archived, "dropout_rate": None}))
    for config in (out / "config.json", tmp_path / "null.json"):
        replay = tmp_path / f"replay-{config.stem}"
        assert main(["train-classifier", "--config", str(config), "--out", str(replay)]) == EXIT_OK
        assert (replay / "classifier.ckpt").read_bytes() == (out / "classifier.ckpt").read_bytes()


class TestConfigFile:
    @pytest.mark.parametrize("spelling", ["space", "equals"])
    def test_config_supplies_defaults_and_flags_win(self, spelling, workdir, vocab_file, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"epochs": 1, "hidden": 16, "ff": 32, "layers": 1}))
        flag = ["--config", str(cfg)] if spelling == "space" else [f"--config={cfg}"]
        out = tmp_path / "pre"
        code = main([
            "pretrain", "--data", str(workdir / "train.tsv"), "--vocab", str(vocab_file),
            *flag, "--epochs", "2", "--out", str(out), "--seed", "1",
        ])
        assert code == EXIT_OK
        archived = json.loads((out / "config.json").read_text())
        assert archived["epochs"] == 2  # flag beat the config file
        assert archived["hidden"] == 16  # config beat the built-in default

    @pytest.mark.parametrize(
        "field, value",
        [("epochs", 1.5), ("hidden", 16.0),
         pytest.param("clip_norm", [1], id="clip_norm-list"),
         pytest.param("clip_norm", True, id="clip_norm-bool"),
         ("max_len", 10.5), ("cv", 2.5), ("grid", "no"), ("max_size", 10.5), ("seed", 1.5),
         ("limit", 2.5), pytest.param("limit", True, id="limit-bool"), ("top_m", 1.5),
         ("target_label", 1.0), pytest.param("arms", ["none"], id="arms-list"),
         ("classifier", "gru"), ("sampler", "beam"), ("augmenter", "eda")],
    )
    def test_ill_typed_config_value_is_one_line_config_error(
        self, field, value, workdir, vocab_file, tmp_path, capsys
    ):
        # the file is checked against every subcommand's flags, pretrain's or not
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({field: value}))
        out = tmp_path / "pre"
        code = main([
            "pretrain", "--data", str(workdir / "train.tsv"), "--vocab", str(vocab_file),
            "--config", str(cfg), "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE, err
        assert err.startswith("error[config]: ") and err.count("\n") == 1, err
        assert repr(field) in err, err
        assert not out.exists()

    @pytest.mark.parametrize("settings, flags", [
        pytest.param({"sampler": "greedy", "top_k": 3}, [], id="both-in-file"),
        pytest.param({"top_k": 3}, ["--sampler", "greedy"], id="top-k-in-file"),
        pytest.param({"sampler": "temperature"}, ["--top-k", "3"], id="sampler-in-file"),
    ])
    def test_top_k_from_the_file_needs_the_top_k_sampler(self, settings, flags, tmp_path, capsys):
        # rejected before any file is read: the data, vocab and model do not exist
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(settings))
        out = tmp_path / "aug"
        absent = str(tmp_path / "absent")
        code = main([
            "augment", "--config", str(cfg), "--data", absent, "--vocab", absent,
            "--model", absent, "--out", str(out), *flags,
        ])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error[config]: --top-k applies only to --sampler top_k\n"
        assert not out.exists()

    def test_config_supplies_a_required_flag(self, workdir, vocab_file, tmp_path):
        cfg = tmp_path / "run.json"
        # epochs belongs to other subcommands: one file may configure the whole pipeline
        cfg.write_text(json.dumps({"data": str(workdir / "train.tsv"), "epochs": 1}))
        out = tmp_path / "vocab"
        assert main(["build-vocab", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert (out / "vocab.txt").read_bytes() == vocab_file.read_bytes()

    def test_null_config_value_does_not_supply_a_required_flag(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"data": None}))
        out = tmp_path / "vocab"
        code = main(["build-vocab", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE, err
        assert err == (
            "error[config]: maskaug build-vocab: the following arguments are required: --data\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("subcommand, key", [
        ("build-vocab", "min_freq"), ("pretrain", "val_fraction"), ("pretrain", "seed"),
        ("augment", "k"), ("augment", "augmenter"), ("style-transfer", "top_m"),
        ("train-classifier", "classifier"), ("train-classifier", "max_len"), ("eval", "max_len"),
        ("ab-experiment", "arms"), ("ab-experiment", "seeds"),
    ])
    def test_null_config_value_runs_as_if_the_key_were_absent(
        self, subcommand, key, workdir, vocab_file, pretrained, finetuned, classifier_ckpt,
        tmp_path,
    ):
        train, test = str(workdir / "train.tsv"), str(workdir / "test.tsv")
        vocab = ["--vocab", str(vocab_file)]
        argv = {
            "build-vocab": ["--data", train],
            "pretrain": ["--data", train, *vocab, "--epochs", "1", "--hidden", "16", "--ff", "32",
                         "--layers", "1"],
            "augment": ["--data", train, *vocab, "--model", str(finetuned)],
            "style-transfer": ["--data", test, *vocab, "--model", str(finetuned),
                               "--classifier-ckpt", str(classifier_ckpt), "--limit", "2"],
            "train-classifier": ["--data", train, *vocab, "--epochs", "1"],
            "eval": ["--data", test, *vocab, "--classifier-ckpt", str(classifier_ckpt)],
            "ab-experiment": ["--data", train, "--test", test, *vocab, "--model", str(finetuned),
                              "--pretrained", str(pretrained), "--synonyms",
                              str(workdir / "syn.tsv"), "--epochs", "1",
                              *(["--seeds", "1"] if key == "arms" else ["--arms", "none"])],
        }[subcommand]
        cfg = tmp_path / "null.json"
        cfg.write_text(json.dumps({key: None}))
        out = tmp_path / "run"  # one --out for both runs, which config.json records
        artifacts = []
        for config in ([], ["--config", str(cfg)]):
            assert main([subcommand, *argv, *config, "--out", str(out)]) == EXIT_OK
            artifacts.append({path.name: path.read_bytes() for path in out.iterdir()})
            shutil.rmtree(out)
        assert artifacts[1] == artifacts[0]

    def test_null_clip_norm_turns_clipping_off(self, workdir, vocab_file, tmp_path):
        # its field takes None, so there a null is a value, not the default
        cfg = tmp_path / "null.json"
        cfg.write_text(json.dumps({"clip_norm": None}))
        out = tmp_path / "pre"
        assert main([
            "pretrain", "--data", str(workdir / "train.tsv"), "--vocab", str(vocab_file),
            "--epochs", "1", "--hidden", "16", "--ff", "32", "--layers", "1",
            "--config", str(cfg), "--out", str(out),
        ]) == EXIT_OK
        assert json.loads((out / "config.json").read_text())["clip_norm"] is None

    def test_unknown_config_key_is_one_line_config_error(
        self, workdir, vocab_file, tmp_path, capsys
    ):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"epoch": 7}))  # a typo for epochs
        out = tmp_path / "clf"
        code = main([
            "train-classifier", "--data", str(workdir / "train.tsv"), "--vocab", str(vocab_file),
            "--config", str(cfg), "--out", str(out),
        ])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error[config]: config file {cfg}: unknown key(s) 'epoch'\n"
        assert not out.exists()

    def test_archived_config_reproduces_the_run(self, workdir, vocab_file, tmp_path):
        out = tmp_path / "vocab"
        code = main(["build-vocab", "--config", str(vocab_file.parent / "config.json"),
                     "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "vocab.txt").read_bytes() == vocab_file.read_bytes()


class TestWarnings:
    """A library warning reaches the user as one `warning:` line, not as
    Python's two-line file:line report with the source line under it."""

    def test_label_gap_is_one_warning_line(self, workdir, vocab_file, tmp_path, capsys):
        data = tmp_path / "gap.tsv"
        data.write_text("".join(
            f"{label}\tthe movie was {word}\n"
            for label, word in [(0, "bad"), (2, "good"), (0, "dull"), (2, "fine")] * 3
        ))
        out = tmp_path / "pre"
        code = main([
            "pretrain", "--data", str(data), "--vocab", str(vocab_file), "--epochs", "1",
            "--hidden", "16", "--ff", "32", "--layers", "1", "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert code == EXIT_OK, err
        assert err.startswith("warning: ") and err.count("\n") == 1, err
        assert "labels [1] never occur" in err and "load_tsv" not in err, err
        assert (out / "config.json").exists()

    def test_top_m_clamp_is_one_warning_line(
        self, workdir, vocab_file, finetuned, classifier_ckpt, tmp_path, capsys
    ):
        code = main([
            "style-transfer", "--data", str(workdir / "test.tsv"), "--vocab", str(vocab_file),
            "--model", str(finetuned), "--classifier-ckpt", str(classifier_ckpt),
            "--top-m", "9", "--limit", "1", "--out", str(tmp_path / "style"),
        ])
        err = capsys.readouterr().err
        assert code == EXIT_OK, err
        assert err.startswith("warning: top_m=9 exceeds") and err.count("\n") == 1, err
        assert "transfer_style(" not in err, err
