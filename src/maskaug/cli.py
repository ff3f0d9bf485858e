"""Command-line pipeline driver.

`main` creates the --out directory, and every subcommand validates its
inputs, writes its artifacts there and exits 0 on success; only then does
`main` add a config.json snapshot of the run's settings. A failed run removes
the --out directory it created while that directory is still empty (its
parents and a directory that already existed stay). Failure categories map
to distinct exit codes:

    2  usage or malformed configuration
    3  missing or unreadable file
    4  malformed data file
    5  incompatible or corrupt checkpoint
    6  training failure

A config file (--config, JSON keyed by flag dest names) supplies defaults,
required flags included; explicit flags win, and a key that no subcommand
declares is an error. All randomness derives from --seed. A warning the
library raises is printed as one `warning: <message>` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

from .augment import (
    AugmentationPolicy,
    SynonymTable,
    augment_dataset,
    synonym_augment_dataset,
    write_augmented_tsv,
)
from .checkpoint import CheckpointError
from .classify import (
    CnnConfig,
    RnnConfig,
    ab_experiment,
    check_folds,
    cross_validate,
    evaluate,
    format_table,
    grid_search,
    load_classifier,
    save_classifier,
    train_classifier,
    write_records,
)
from .encoder import EncoderConfig, load_encoder, save_encoder
from .styletransfer import check_rewrite, transfer_style, write_style_pairs
from .text import ParseError, build_vocab, load_tsv, load_vocab, read_tsv, save_vocab, tokenize
from .training import (
    MaskPolicy,
    SkipExample,
    TrainConfig,
    TrainingError,
    finetune_cmlm,
    pretrain_mlm,
    write_metrics,
)

RUN_CONFIG_FORMAT = "maskaug-run-config v1"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING_FILE = 3
EXIT_PARSE = 4
EXIT_CHECKPOINT = 5
EXIT_TRAINING = 6


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose errors leave through main's one-line
    error[config] handler instead of a usage dump."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def _require(args: argparse.Namespace, name: str) -> None:
    """For a flag whose need depends on another flag's value."""
    if getattr(args, name, None) is None:
        raise ValueError(f"--{name.replace('_', '-')} is required (flag or config file)")


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _archive_config(args: argparse.Namespace, out: Path) -> None:
    payload = {"format": RUN_CONFIG_FORMAT, "subcommand": args.subcommand}
    for key, value in sorted(vars(args).items()):
        if key in ("func", "subcommand", "config"):
            continue
        payload[key] = str(value) if isinstance(value, Path) else value
    _write_json(out / "config.json", payload)


def _parse_k(text: str) -> "int | tuple[int, int]":
    parts = [p.strip() for p in str(text).split(",") if p.strip()]
    if len(parts) == 1:
        return int(parts[0])
    if len(parts) == 2:
        return (int(parts[0]), int(parts[1]))
    raise ValueError(f"--k must be 'K' or 'LO,HI', got {text!r}")


def _parse_list(flag: str, text: str, convert=str) -> list:
    """The items of a comma-separated list flag; an item may not repeat."""
    items = [convert(p.strip()) for p in str(text).split(",") if p.strip()]
    for item in items:
        if items.count(item) > 1:
            raise ValueError(f"--{flag} {text!r} repeats {item!r}")
    return items


def _check_vocab_size(what: str, size: int, vocab) -> None:
    if size != len(vocab):
        raise CheckpointError(f"{what} vocabulary size {size} != vocab file {len(vocab)}")


def _load_encoder(path, vocab):
    """Encoder checkpoint whose vocabulary size matches the vocab file."""
    params, config = load_encoder(path)
    _check_vocab_size("checkpoint", config.vocab_size, vocab)
    return params, config


def _load_classifier(path, vocab, dataset):
    """Classifier checkpoint whose vocabulary size matches the vocab file and
    whose labels cover the dataset's."""
    clf = load_classifier(path)
    _check_vocab_size("classifier", clf.vocab_size, vocab)
    if dataset.num_labels > clf.num_labels:
        raise CheckpointError(
            f"data has {dataset.num_labels} labels, classifier has {clf.num_labels}"
        )
    return clf


def _load_dataset(args: argparse.Namespace, vocab, *encoders, val_fraction=None, test=None):
    """--data (and `test`), each sentence cut to --max-len ids, capped at the
    smallest max_len of the given encoder configs (None entries are skipped)."""
    caps = [getattr(args, "max_len", None)] + [c.max_len for c in encoders if c is not None]
    return load_tsv(
        args.data,
        vocab,
        max_len=min(cap for cap in caps if cap is not None),
        val_fraction=args.val_fraction if val_fraction is None else val_fraction,
        seed=args.seed,
        test_path=test,
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_build_vocab(args, out: Path) -> int:
    rows = read_tsv(args.data)
    vocab = build_vocab(
        (tokenize(text) for _, text in rows), min_freq=args.min_freq, max_size=args.max_size
    )
    save_vocab(vocab, out / "vocab.txt")
    print(f"wrote {out / 'vocab.txt'} ({len(vocab)} tokens)")
    return EXIT_OK


def _mask_and_fit(args) -> tuple[MaskPolicy, TrainConfig]:
    """The masking policy and fit settings of pretrain and finetune."""
    policy = MaskPolicy(mode="ratio", ratio=args.mask_ratio)
    cfg = TrainConfig(
        epochs=args.epochs, batch_size=args.batch_size, lr=args.lr,
        patience=args.patience, seed=args.seed, clip_norm=args.clip_norm,
    )
    return policy, cfg


def _save_encoder_run(path: Path, params, config, history) -> int:
    """Write the encoder and metrics.tsv beside it; print a one-line summary."""
    save_encoder(params, config, path)
    write_metrics(history, path.parent / "metrics.tsv")
    final = [h for h in history if h["split"] == "val"][-1]
    print(f"wrote {path} (val loss {final['loss']:.4f}, masked acc {final['masked_acc']:.4f})")
    return EXIT_OK


def cmd_pretrain(args, out: Path) -> int:
    vocab = load_vocab(args.vocab)
    dataset = _load_dataset(args, vocab)
    config = EncoderConfig(
        vocab_size=len(vocab),
        layers=args.layers,
        hidden=args.hidden,
        heads=args.heads,
        ff=args.ff,
        max_len=args.max_len,
        num_conditions=args.num_conditions,
        dropout=args.dropout_rate,
    )
    params, history = pretrain_mlm(dataset, config, *_mask_and_fit(args))
    return _save_encoder_run(out / "encoder.ckpt", params, config, history)


def cmd_finetune(args, out: Path) -> int:
    vocab = load_vocab(args.vocab)
    params, config = _load_encoder(args.init, vocab)
    dataset = _load_dataset(args, vocab, config)
    return _save_encoder_run(
        out / "conditional.ckpt", *finetune_cmlm(dataset, params, config, *_mask_and_fit(args))
    )


def _augmenter(args: argparse.Namespace, vocab, name: str, model_flag: str):
    """The `name` augmenter (cbert, bert or synonym) under the sampler flags.

    Returns `(fn, config)`: `fn(dataset, seed)` gives (Dataset,
    AugmentReport), and `config` is the EncoderConfig of the checkpoint
    named by the `model_flag` flag (cbert and bert) or None (synonym).
    """
    policy = AugmentationPolicy(
        k=_parse_k(args.k),
        sampler=args.sampler,
        top_k=args.top_k,
        temperature=args.temperature,
        exclude_original=not getattr(args, "keep_original", False),
        multiplier=args.multiplier,
        seed=args.seed,
    )
    if name in ("cbert", "bert"):
        _require(args, model_flag)
        params, config = _load_encoder(getattr(args, model_flag), vocab)
        bert = name == "bert"
        return (
            lambda d, s: augment_dataset(params, config, d, policy, unconditional=bert, seed=s)
        ), config
    if name == "synonym":
        _require(args, "synonyms")
        table = SynonymTable.load(args.synonyms)
        k = policy.k if isinstance(policy.k, int) else policy.k[1]
        return (lambda d, s: synonym_augment_dataset(d, table, vocab, k, args.multiplier, s)), None
    raise ValueError(f"unknown augmenter {name!r}")


def cmd_augment(args, out: Path) -> int:
    vocab = load_vocab(args.vocab)
    augment, encoder = _augmenter(args, vocab, args.augmenter, "model")
    dataset = _load_dataset(args, vocab, encoder, val_fraction=0.0)
    n_originals = len(dataset.train)
    augmented, report = augment(dataset, args.seed)
    write_augmented_tsv(out / "augmented.tsv", augmented, n_originals, report, vocab)
    _write_json(out / "report.json", {"generated": report.generated, "skipped": report.skipped})
    print(
        f"wrote {out / 'augmented.tsv'} "
        f"({n_originals} originals + {report.generated} generated, {report.skipped} skipped)"
    )
    return EXIT_OK


def _classifier_config(args) -> "CnnConfig | RnnConfig":
    shared = dict(
        emb_dim=args.emb_dim,
        dropout=args.dropout_rate,
        lr=args.lr,
        seed=args.seed,
        max_epochs=args.epochs,
        batch_size=args.batch_size,
        patience=args.patience,
    )
    if args.classifier == "cnn":
        return CnnConfig(num_filters=args.num_filters, hidden_dim=args.hidden_dim, **shared)
    return RnnConfig(state_dim=args.hidden_dim, **shared)  # train_classifier rejects other kinds


def cmd_train_classifier(args, out: Path) -> int:
    vocab = load_vocab(args.vocab)
    dataset = _load_dataset(args, vocab, test=args.test)
    cfg = _classifier_config(args)
    examples = dataset.train + dataset.val + dataset.test
    if args.cv is not None:  # reject the fold count before anything is trained or written
        check_folds(len(examples), args.cv)
    trials = None
    if args.grid:
        cfg, trials = grid_search(dataset, args.classifier, cfg, vocab_size=len(vocab))
    clf, report = train_classifier(dataset, args.classifier, cfg, vocab_size=len(vocab))
    save_classifier(clf, out / "classifier.ckpt")
    summary = {
        "accuracy": report.accuracy,
        "epochs_used": clf.epochs_used,
        "seed": clf.config.seed,
    }
    if trials is not None:
        summary["grid_trials"] = trials
    if args.cv is not None:
        mean, per_fold = cross_validate(
            examples, dataset.num_labels, args.classifier, cfg,
            folds=args.cv, vocab_size=len(vocab),
        )
        summary["cv_accuracy"] = {"mean": mean, "folds": per_fold}
    if dataset.test:
        summary["accuracy"]["test"] = evaluate(clf, dataset.test).accuracy["test"]
    _write_json(out / "report.json", summary)
    shown = ", ".join(f"{k} {v:.4f}" for k, v in summary["accuracy"].items())
    print(f"wrote {out / 'classifier.ckpt'} ({shown})")
    return EXIT_OK


def cmd_eval(args, out: Path) -> int:
    vocab = load_vocab(args.vocab)
    dataset = _load_dataset(args, vocab, val_fraction=0.0)
    clf = _load_classifier(args.classifier_ckpt, vocab, dataset)
    report = evaluate(clf, dataset.train, "test")
    _write_json(out / "eval.json", {
        "accuracy": report.accuracy["test"],
        "confusion": report.confusion["test"].tolist(),
        "epochs_used": clf.epochs_used,
        "seed": clf.config.seed,
    })
    print(f"accuracy {report.accuracy['test']:.4f} over {len(dataset.train)} examples")
    return EXIT_OK


def cmd_ab_experiment(args, out: Path) -> int:
    arms = _parse_list("arms", args.arms)
    if not arms:
        raise ValueError(f"--arms {args.arms!r} names no arm")
    seeds = _parse_list("seeds", args.seeds, int)
    vocab = load_vocab(args.vocab)
    augmenters: dict[str, object] = {}
    encoders = []
    for arm in arms:
        if arm == "none":
            augmenters[arm] = None
            continue
        augment, encoder = _augmenter(args, vocab, arm, "pretrained" if arm == "bert" else "model")
        augmenters[arm] = lambda d, s, augment=augment: augment(d, s)[0]
        encoders.append(encoder)
    dataset = _load_dataset(args, vocab, *encoders, test=args.test)
    records, summary = ab_experiment(
        dataset,
        augmenters,
        classifier=args.classifier,
        seeds=seeds,
        cfg=_classifier_config(args),
        vocab_size=len(vocab),
    )
    write_records(records, out / "records.tsv")
    table = format_table(records, summary)
    (out / "table.txt").write_text(table + "\n", encoding="utf-8")
    print(table)
    return EXIT_OK


def cmd_style_transfer(args, out: Path) -> int:
    if args.limit is not None and args.limit < 0:
        raise ValueError(f"--limit must be >= 0, got {args.limit}")
    vocab = load_vocab(args.vocab)
    params, config = _load_encoder(args.model, vocab)
    check_rewrite(config, args.target_label, args.top_m)  # also when no row is rewritten
    dataset = _load_dataset(args, vocab, config, val_fraction=0.0)
    clf = _load_classifier(args.classifier_ckpt, vocab, dataset)
    if args.target_label is None and dataset.num_labels != 2:
        raise ValueError("--target-label is required for non-binary datasets")
    pairs = []
    skipped = 0
    examples = dataset.train if args.limit is None else dataset.train[: args.limit]
    for example in examples:
        target = (
            args.target_label if args.target_label is not None else 1 - example.label
        )
        if target == example.label:
            continue
        try:
            rewritten = transfer_style(params, config, clf, example, target, top_m=args.top_m)
        except SkipExample:
            skipped += 1
            continue
        pairs.append((example, rewritten))
    write_style_pairs(out / "pairs.tsv", pairs, vocab)
    note = f", {skipped} skipped" if skipped else ""
    print(f"wrote {out / 'pairs.tsv'} ({len(pairs)} pairs{note})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


_CAPPED_MAX_LEN_HELP = "truncate sentences to this many ids, capped at the encoder's max_len"


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--data", required=True, help="label<TAB>text file")
    sp.add_argument("--out", required=True, help="run directory for artifacts and config.json")
    sp.add_argument("--seed", type=int, default=0, help="root seed for every stream")
    sp.add_argument("--config", help="JSON file of flag defaults; explicit flags win")


def _add_fit_flags(sp: argparse.ArgumentParser, epochs: int, patience: int) -> None:
    sp.add_argument("--epochs", type=int, default=epochs)
    sp.add_argument("--batch-size", type=int, default=32)
    sp.add_argument("--lr", type=float, default=1e-3)
    sp.add_argument("--patience", type=int, default=patience)
    sp.add_argument("--val-fraction", type=float, default=0.1)


def _add_train_flags(sp: argparse.ArgumentParser) -> None:
    _add_fit_flags(sp, epochs=10, patience=3)
    sp.add_argument("--clip-norm", type=float, default=1.0)
    sp.add_argument("--mask-ratio", type=float, default=0.15)


def _add_sampler_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--k", default="1,2", help="masked words per sentence: 'K' or 'LO,HI'")
    sp.add_argument("--sampler", choices=("greedy", "top_k", "temperature"), default="top_k")
    sp.add_argument("--top-k", type=int, default=10)
    sp.add_argument("--temperature", type=float, default=1.0)
    sp.add_argument("--multiplier", type=int, default=1)


def _add_classifier_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--classifier", choices=("cnn", "rnn"), default="cnn")
    sp.add_argument("--num-filters", type=int, default=32)
    sp.add_argument("--emb-dim", type=int, default=32)
    sp.add_argument("--hidden-dim", type=int, default=64)
    sp.add_argument("--dropout-rate", type=float, default=0.5)
    _add_fit_flags(sp, epochs=30, patience=5)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="maskaug", description="masked-LM text augmentation pipeline")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("build-vocab", help="build a vocabulary file from a TSV dataset")
    _add_common(sp)
    sp.add_argument("--min-freq", type=int, default=1)
    sp.add_argument("--max-size", type=int, default=None)
    sp.set_defaults(func=cmd_build_vocab)

    sp = sub.add_parser("pretrain", help="masked-LM pretraining (neutral condition)")
    _add_common(sp)
    sp.add_argument("--vocab", required=True)
    sp.add_argument("--layers", type=int, default=2)
    sp.add_argument("--hidden", type=int, default=64)
    sp.add_argument("--heads", type=int, default=2)
    sp.add_argument("--ff", type=int, default=256)
    sp.add_argument("--max-len", type=int, default=64)
    sp.add_argument("--num-conditions", type=int, default=2)
    sp.add_argument("--dropout-rate", type=float, default=0.1)
    _add_train_flags(sp)
    sp.set_defaults(func=cmd_pretrain)

    sp = sub.add_parser("finetune", help="label-conditional fine-tuning")
    _add_common(sp)
    sp.add_argument("--vocab", required=True)
    sp.add_argument("--init", required=True, help="pretrained encoder checkpoint")
    _add_train_flags(sp)
    sp.set_defaults(func=cmd_finetune)

    sp = sub.add_parser("augment", help="write an augmented copy of a dataset")
    _add_common(sp)
    sp.add_argument("--vocab", required=True)
    sp.add_argument("--model", help="encoder checkpoint (cbert/bert augmenters)")
    sp.add_argument("--synonyms", help="synonym table file (synonym augmenter)")
    sp.add_argument("--augmenter", choices=("cbert", "bert", "synonym"), default="cbert")
    sp.add_argument("--keep-original", action="store_true",
                    help="allow a masked slot to re-sample its original word")
    sp.add_argument("--max-len", type=int, default=64, help=_CAPPED_MAX_LEN_HELP)
    _add_sampler_flags(sp)
    sp.set_defaults(func=cmd_augment)

    sp = sub.add_parser("train-classifier", help="train a CNN or LSTM classifier")
    _add_common(sp)
    sp.add_argument("--test", default=None)
    sp.add_argument("--vocab", required=True)
    sp.add_argument("--max-len", type=int, default=64)
    sp.add_argument("--grid", action="store_true",
                    help="search a small lr/dropout grid on validation accuracy first")
    sp.add_argument("--cv", type=int, default=None,
                    help="also report k-fold cross-validation accuracy")
    _add_classifier_flags(sp)
    sp.set_defaults(func=cmd_train_classifier)

    sp = sub.add_parser("eval", help="evaluate a trained classifier on a TSV file")
    _add_common(sp)
    sp.add_argument("--vocab", required=True)
    sp.add_argument("--classifier-ckpt", required=True)
    sp.add_argument("--max-len", type=int, default=64)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("ab-experiment", help="compare augmentation arms on one classifier")
    _add_common(sp)
    sp.add_argument("--test", required=True)
    sp.add_argument("--vocab", required=True)
    sp.add_argument("--model", help="conditional encoder checkpoint (cbert arm)")
    sp.add_argument("--pretrained", help="unconditional encoder checkpoint (bert arm)")
    sp.add_argument("--synonyms", help="synonym table (synonym arm)")
    sp.add_argument("--arms", default="none,synonym,bert,cbert")
    sp.add_argument("--seeds", default="1,2,3")
    sp.add_argument("--max-len", type=int, default=64, help=_CAPPED_MAX_LEN_HELP)
    _add_sampler_flags(sp)
    _add_classifier_flags(sp)
    sp.set_defaults(func=cmd_ab_experiment)

    sp = sub.add_parser("style-transfer", help="rewrite sentences under the opposite label")
    _add_common(sp)
    sp.add_argument("--vocab", required=True)
    sp.add_argument("--model", required=True, help="conditional encoder checkpoint")
    sp.add_argument("--classifier-ckpt", required=True, help="trained classifier for attribution")
    sp.add_argument("--target-label", type=int, default=None)
    sp.add_argument("--top-m", type=int, default=1)
    sp.add_argument("--limit", type=int, default=None)
    sp.add_argument("--max-len", type=int, default=64, help=_CAPPED_MAX_LEN_HELP)
    sp.set_defaults(func=cmd_style_transfer)

    return parser


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    """Make the JSON object of the --config file (`--config path` or
    `--config=path`) the subcommands' defaults; a flag it supplies is no
    longer required. Every key must be a flag dest of some subcommand or one
    of the keys config.json adds."""
    pre = _Parser(prog="maskaug", add_help=False)
    pre.add_argument("--config")
    name = pre.parse_known_args(argv)[0].config
    if name is None:
        return
    path = Path(name)
    if not path.is_file():
        raise FileNotFoundError(f"config file not found: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ValueError(f"malformed config file {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    declared = {"format", "subcommand"}  # the keys config.json adds
    for sp in parser._subparsers._group_actions[0].choices.values():
        for action in sp._actions:
            declared.add(action.dest)
            if action.dest in payload:
                action.default = payload[action.dest]
                action.required = action.required and action.default is None
    unknown = sorted(set(payload) - declared)
    if unknown:
        raise ValueError(f"config file {path}: unknown key(s) {', '.join(map(repr, unknown))}")


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: "list[str] | None" = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # only how a shown warning is printed changes; the filters stay the caller's
    shown, warnings.showwarning = warnings.showwarning, _show_warning
    try:
        parser = build_parser()
        _apply_config_file(parser, argv)
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help
            return int(exc.code or 0)
        out = Path(args.out)
        created = not out.exists()
        try:
            out.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError):
            raise ValueError(f"--out {out} is not a directory") from None
        try:
            code = args.func(args, out)
        except BaseException:
            if created and not any(out.iterdir()):
                out.rmdir()
            raise
        _archive_config(args, out)  # a failed run leaves no run record
        return code
    except OSError as exc:  # a missing path, a directory, or any other read failure
        print(f"error[missing-file]: {exc}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except ParseError as exc:
        print(f"error[parse]: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CheckpointError as exc:
        print(f"error[checkpoint]: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except TrainingError as exc:
        print(f"error[training]: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except (ValueError, KeyError, IndexError) as exc:
        print(f"error[config]: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        warnings.showwarning = shown


if __name__ == "__main__":
    raise SystemExit(main())
