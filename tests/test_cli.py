import json

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


class TestErrorCategories:
    def test_missing_data_file(self, workdir, tmp_path):
        code = main(["build-vocab", "--data", str(workdir / "absent.tsv"),
                     "--out", str(tmp_path / "v")])
        assert code == EXIT_MISSING_FILE

    def test_malformed_tsv(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("not a labeled line\n")
        code = main(["build-vocab", "--data", str(bad), "--out", str(tmp_path / "v")])
        assert code == EXIT_PARSE

    def test_malformed_config_file(self, workdir, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{nope")
        code = main(["build-vocab", "--data", str(workdir / "train.tsv"),
                     "--config", str(cfg), "--out", str(tmp_path / "v")])
        assert code == EXIT_USAGE

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


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_win(self, workdir, vocab_file, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"epochs": 1, "hidden": 16, "ff": 32, "layers": 1}))
        out = tmp_path / "pre"
        code = main([
            "pretrain", "--data", str(workdir / "train.tsv"), "--vocab", str(vocab_file),
            "--config", str(cfg), "--epochs", "2", "--out", str(out), "--seed", "1",
        ])
        assert code == EXIT_OK
        archived = json.loads((out / "config.json").read_text())
        assert archived["epochs"] == 2  # flag beat the config file
        assert archived["hidden"] == 16  # config beat the built-in default
