import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from maskaug.cli import (
    EXIT_CHECKPOINT,
    EXIT_MISSING_FILE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_TRAINING,
    EXIT_USAGE,
    main,
)
from maskaug.synthetic import sentiment_rows, write_rows_tsv
from maskaug.text import load_vocab


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


def _truncate(n_bytes):
    def apply(ckpt):
        ckpt.write_bytes(ckpt.read_bytes()[:n_bytes])
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
        "classifier", _edit_sidecar(lambda m: m["config"].update(extra=1)), "extra",
        id="classifier-extra-config-key",
    ),
    pytest.param(
        "classifier", _edit_sidecar(lambda m: m["config"].update(dropout="a")), "dropout",
        id="classifier-ill-typed-config-value",
    ),
    pytest.param(
        "classifier", _edit_sidecar(lambda m: m.update(kind="gru")), "gru",
        id="classifier-unknown-kind",
    ),
    pytest.param(
        "classifier", _edit_sidecar(lambda m: m.pop("kind")), "kind",
        id="classifier-missing-kind",
    ),
    pytest.param("classifier", _malformed_sidecar, "malformed", id="classifier-malformed-json"),
    pytest.param(
        "classifier", _edit_sidecar(lambda m: m.update(vocab_size=1000)), "shape",
        id="classifier-vocab-size-mismatch",
    ),
    pytest.param("classifier", _truncate(12), "truncated", id="classifier-truncated-header"),
    pytest.param("classifier", _truncate(300), "truncated", id="classifier-truncated-payload"),
]


class TestErrorCategories:
    @pytest.mark.parametrize("model, fault, named", MODEL_FILE_FAULTS)
    def test_bad_model_file_is_one_line_checkpoint_error(
        self, model, fault, named, workdir, vocab_file, pretrained, classifier_ckpt, tmp_path, capsys
    ):
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_classifier_divergence_is_training_error(self, workdir, vocab_file, tmp_path, capsys):
        code = main([
            "train-classifier", "--data", str(workdir / "train.tsv"),
            "--vocab", str(vocab_file), "--lr", "1e200", "--epochs", "2",
            "--out", str(tmp_path / "clf"),
        ])
        assert code == EXIT_TRAINING
        assert capsys.readouterr().err.startswith("error[training]: cnn: loss diverged")

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
            pytest.param("train-classifier", ["--val-fraction", "1.5"],
                         "val_fraction must be in [0, 1), got 1.5", id="val-fraction"),
            pytest.param("train-classifier", ["--max-len", "0"],
                         "max_len must be >= 2 (<cls> and one word), got 0", id="max-len"),
            pytest.param("ab-experiment", ["--seeds", "1,1", "--arms", "none"],
                         "--seeds '1,1' repeats 1", id="repeated-seed"),
            pytest.param("ab-experiment", ["--arms", "none,none"],
                         "--arms 'none,none' repeats 'none'", id="repeated-arm"),
            pytest.param("train-classifier", ["--lr", "-1"], "lr must be > 0, got -1.0",
                         id="classifier-lr"),
        ],
    )
    def test_bad_value_is_one_line_config_error(
        self, subcommand, flags, message, workdir, vocab_file, tmp_path, capsys
    ):
        out = tmp_path / "run"
        code = main([
            subcommand, "--data", str(workdir / "train.tsv"), "--test", str(workdir / "test.tsv"),
            "--vocab", str(vocab_file), "--epochs", "1", "--out", str(out), *flags,
        ])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error[config]: {message}\n"
        # config.json is the record of a finished run, so a failed one has none
        assert not {"classifier.ckpt", "records.tsv", "config.json"} & {
            p.name for p in out.glob("*")
        }

    @pytest.mark.parametrize(
        "flags, message",
        [
            pytest.param(["--lr", "-1"], "lr must be > 0, got -1.0", id="lr"),
            pytest.param(["--clip-norm", "0"], "clip_norm must be > 0 or null, got 0.0",
                         id="clip-norm-0"),
            pytest.param(["--clip-norm", "-1"], "clip_norm must be > 0 or null, got -1.0",
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

    def test_cv_folds_that_leave_no_training_split_are_rejected_before_training(
        self, tmp_path, capsys
    ):
        data = tmp_path / "three.tsv"
        data.write_text("0\tthe movie was bad\n1\tthe film was great\n0\ta dull plot\n")
        assert main(["build-vocab", "--data", str(data), "--out", str(tmp_path / "v")]) == EXIT_OK
        capsys.readouterr()
        out = tmp_path / "clf"
        code = main([
            "train-classifier", "--data", str(data), "--vocab", str(tmp_path / "v" / "vocab.txt"),
            "--cv", "2", "--epochs", "1", "--out", str(out),
        ])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error[config]: 3 examples in 2 folds leave 1 outside the largest fold; "
            "training and validation need 2\n"
        )
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
         pytest.param("clip_norm", True, id="clip_norm-bool")],
    )
    def test_ill_typed_config_value_is_one_line_config_error(
        self, field, value, workdir, vocab_file, tmp_path, capsys
    ):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({field: value}))
        code = main([
            "pretrain", "--data", str(workdir / "train.tsv"), "--vocab", str(vocab_file),
            "--config", str(cfg), "--out", str(tmp_path / "pre"),
        ])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE, err
        assert err.startswith("error[config]: ") and err.count("\n") == 1, err
        assert field in err, err

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
