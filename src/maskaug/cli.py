"""Command-line pipeline driver.

`main` creates the --out directory, and every subcommand validates its
inputs and writes its artifacts there; only when it returns does `main` add
a config.json snapshot of the run's settings and exit 0. A failed run removes
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
    SAMPLERS,
    AugmentationPolicy,
    SynonymTable,
    augment_dataset,
    synonym_augment_dataset,
    write_augmented_tsv,
)
from .checkpoint import CheckpointError
from .classify import (
    CONFIGS,
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
from .styletransfer import check_rewrite, transfer_styles, write_style_pairs
from .text import (
    ParseError, build_vocab, load_tsv, load_vocab, read_tsv, save_vocab, tokenize, write_text,
)
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

# Each config flag once, by dest: the field it sets in each config class it
# feeds. A subcommand declares the flags of the classes it builds, each typed
# and defaulted by its fields there; where those fields disagree
# (--dropout-rate: CNN 0.5, LSTM 0.3) the default is None, the built class's own.
CONFIG_FLAGS = {
    **{d: {EncoderConfig: d}
       for d in ("layers", "hidden", "heads", "ff", "max_len", "num_conditions")},
    "dropout_rate": {EncoderConfig: "dropout", CnnConfig: "dropout", RnnConfig: "dropout"},
    "epochs": {TrainConfig: "epochs", CnnConfig: "max_epochs", RnnConfig: "max_epochs"},
    **{d: {TrainConfig: d, CnnConfig: d, RnnConfig: d} for d in ("batch_size", "lr", "patience")},
    "clip_norm": {TrainConfig: "clip_norm"},
    "mask_ratio": {MaskPolicy: "ratio"},
    "num_filters": {CnnConfig: "num_filters"},
    "emb_dim": {CnnConfig: "emb_dim", RnnConfig: "emb_dim"},
    "hidden_dim": {CnnConfig: "hidden_dim", RnnConfig: "state_dim"},
    **{d: {AugmentationPolicy: d} for d in ("k", "sampler", "top_k", "temperature", "multiplier")},
}

# argparse options beyond the type and default a config flag takes from its field
_FLAG_OPTIONS = {"k": {"help": "masked words per sentence: 'K' or 'LO,HI'"},
                 "sampler": {"choices": SAMPLERS}}


def _default(dest: str, *classes):
    """The default `dest`'s fields share (in `classes`, if given); None where they disagree."""
    values = {getattr(cls, CONFIG_FLAGS[dest][cls]) for cls in classes or CONFIG_FLAGS[dest]}
    return values.pop() if len(values) == 1 else None


def _takes_none(cls, field: str) -> bool:
    """Whether the dataclass `cls`'s `field` takes None as a value."""
    return "None" in str(cls.__dataclass_fields__[field].type)


def _config(cls, args: argparse.Namespace, **given):
    """A `cls` whose fields take `given` values, else their flags' in `args`.
    A flag at None leaves a field that takes no None at its default, which is
    written back to `args`, so config.json records the value the run used."""
    for dest, fields in CONFIG_FLAGS.items():
        field = fields.get(cls)
        if field is not None and field not in given:
            if getattr(args, dest) is None and not _takes_none(cls, field):
                setattr(args, dest, getattr(cls, field))
            given[field] = getattr(args, dest)
    return cls(**given)


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
    write_text(path, json.dumps(payload, indent=2) + "\n")


def _archive_config(args: argparse.Namespace, out: Path) -> None:
    payload = {"format": RUN_CONFIG_FORMAT, "subcommand": args.subcommand}
    for key, value in sorted(vars(args).items()):
        if key not in ("func", "subcommand", "config"):
            payload[key] = value
    _write_json(out / "config.json", payload)


def _split(flag: str, text: str, convert=str) -> list:
    """The items of a comma-separated list flag, each passed through `convert`."""
    try:
        return [convert(p.strip()) for p in text.split(",") if p.strip()]
    except ValueError as exc:  # int() names the bad item
        raise ValueError(f"--{flag} {text!r}: {exc}") from None


def _parse_k(text: str) -> "int | tuple[int, int]":
    parts = _split("k", text, int)
    if len(parts) == 1:
        return parts[0]
    if len(parts) == 2:
        return tuple(parts)
    raise ValueError(f"--k must be 'K' or 'LO,HI', got {text!r}")


def _parse_list(flag: str, text: str, convert=str) -> list:
    """The items of a comma-separated list flag; an item may not repeat."""
    items = _split(flag, text, convert)
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


def _check_labels(dataset, what: str, num_labels: int) -> None:
    """The dataset's labels must all be ids the checkpoint `what` knows."""
    if dataset.num_labels > num_labels:
        raise CheckpointError(f"data has {dataset.num_labels} labels, {what} has {num_labels}")


def _load_classifier(path, vocab, dataset):
    """Classifier checkpoint whose vocabulary size matches the vocab file and
    whose labels cover the dataset's."""
    clf = load_classifier(path)
    _check_vocab_size("classifier", clf.vocab_size, vocab)
    _check_labels(dataset, "classifier", clf.num_labels)
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


def cmd_build_vocab(args, out: Path) -> None:
    rows = read_tsv(args.data)
    vocab = build_vocab(
        (tokenize(text) for _, text in rows), min_freq=args.min_freq, max_size=args.max_size
    )
    save_vocab(vocab, out / "vocab.txt")
    print(f"wrote {out / 'vocab.txt'} ({len(vocab)} tokens)")


def _mask_and_fit(args) -> tuple[MaskPolicy, TrainConfig]:
    """The masking policy and fit settings of pretrain and finetune."""
    return _config(MaskPolicy, args), _config(TrainConfig, args, seed=args.seed)


def _save_encoder_run(path: Path, params, config, history) -> None:
    """Write the encoder and metrics.tsv beside it; print a one-line summary."""
    save_encoder(params, config, path)
    write_metrics(history, path.parent / "metrics.tsv")
    # fit keeps the first epoch with the lowest val loss (a NaN val loss raises)
    kept = min((h for h in history if h["split"] == "val"), key=lambda h: h["loss"])
    print(f"wrote {path} (val loss {kept['loss']:.4f}, masked acc {kept['masked_acc']:.4f})")


def cmd_pretrain(args, out: Path) -> None:
    vocab = load_vocab(args.vocab)
    dataset = _load_dataset(args, vocab)
    config = _config(EncoderConfig, args, vocab_size=len(vocab))
    params, history = pretrain_mlm(dataset, config, *_mask_and_fit(args))
    _save_encoder_run(out / "encoder.ckpt", params, config, history)


def cmd_finetune(args, out: Path) -> None:
    vocab = load_vocab(args.vocab)
    params, config = _load_encoder(args.init, vocab)
    dataset = _load_dataset(args, vocab, config)
    _save_encoder_run(
        out / "conditional.ckpt", *finetune_cmlm(dataset, params, config, *_mask_and_fit(args))
    )


def _augment_policy(args: argparse.Namespace, arms) -> AugmentationPolicy:
    """The policy of the `arms` augmenters, checked before any file is read: the
    sampler flags need a cbert or bert arm, --k and --multiplier an arm other than none."""
    if args.sampler != "top_k" and args.top_k != _default("top_k"):
        raise ValueError("--top-k applies only to --sampler top_k")
    keep = getattr(args, "keep_original", False)  # augment's switch, off by default
    if not {"cbert", "bert"} & set(arms):  # each sampler flag against its default
        moved = [d for d in ("sampler", "top_k", "temperature") if getattr(args, d) != _default(d)]
        if moved or keep:
            flag = (moved or ["keep_original"])[0].replace("_", "-")
            raise ValueError(f"--{flag} applies only to the cbert and bert augmenters")
    policy = _config(
        AugmentationPolicy, args, k=_parse_k(args.k), exclude_original=not keep, seed=args.seed
    )
    moved = [d for d in ("k", "multiplier") if getattr(policy, d) != _default(d)]
    if moved and not {"cbert", "bert", "synonym"} & set(arms):
        raise ValueError(f"--{moved[0]} applies only to the cbert, bert and synonym augmenters")
    return policy


def _augmenter(args: argparse.Namespace, vocab, policy, name: str, model_flag: str):
    """The `name` augmenter (cbert, bert or synonym) under `policy`.

    Returns `(fn, config)`: `fn(dataset, seed)` gives (Dataset,
    AugmentReport), and `config` is the EncoderConfig of the checkpoint
    named by the `model_flag` flag (cbert and bert) or None (synonym).
    """
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
        return (lambda d, s: synonym_augment_dataset(d, table, vocab, policy, seed=s)), None
    raise ValueError(f"unknown augmenter {name!r}")


def cmd_augment(args, out: Path) -> None:
    policy = _augment_policy(args, [args.augmenter])
    vocab = load_vocab(args.vocab)
    augment, encoder = _augmenter(args, vocab, policy, args.augmenter, "model")
    dataset = _load_dataset(args, vocab, encoder, val_fraction=0.0)
    if args.augmenter == "cbert":
        _check_labels(dataset, "conditional encoder", encoder.num_conditions)
    n_originals = len(dataset.train)
    augmented, report = augment(dataset, args.seed)
    write_augmented_tsv(out / "augmented.tsv", augmented, n_originals, report, vocab)
    _write_json(out / "report.json", {"generated": report.generated, "skipped": report.skipped})
    print(
        f"wrote {out / 'augmented.tsv'} "
        f"({n_originals} originals + {report.generated} generated, {report.skipped} skipped)"
    )


def _classifier_config(args) -> "CnnConfig | RnnConfig":
    cls = CONFIGS[args.classifier]
    if cls is not CnnConfig and args.num_filters != _default("num_filters"):
        raise ValueError("--num-filters applies only to --classifier cnn")
    return _config(cls, args, seed=args.seed)


def cmd_train_classifier(args, out: Path) -> None:
    vocab = load_vocab(args.vocab)
    dataset = _load_dataset(args, vocab, test=args.test)
    cfg = _classifier_config(args)
    examples = dataset.train + dataset.val + dataset.test
    if args.cv is not None:  # reject the fold count before anything is trained or written
        check_folds(len(examples), args.cv, dataset.num_labels)
    trials = None
    if args.grid:
        clf, report, trials = grid_search(dataset, cfg, len(vocab))
    else:
        clf, report = train_classifier(dataset, cfg, len(vocab))
    save_classifier(clf, out / "classifier.ckpt")
    summary = {
        "accuracy": {**evaluate(clf, dataset.train, "train").accuracy, **report.accuracy},
        "epochs_used": clf.epochs_used,
        "seed": clf.config.seed,
    }
    if trials is not None:
        summary["grid_trials"] = trials
    if args.cv is not None:
        mean, per_fold = cross_validate(
            examples, dataset.num_labels, clf.config, args.cv, len(vocab)
        )
        summary["cv_accuracy"] = {"mean": mean, "folds": per_fold}
    if dataset.test:
        summary["accuracy"]["test"] = evaluate(clf, dataset.test).accuracy["test"]
    _write_json(out / "report.json", summary)
    shown = ", ".join(f"{k} {v:.4f}" for k, v in summary["accuracy"].items())
    print(f"wrote {out / 'classifier.ckpt'} ({shown})")


def cmd_eval(args, out: Path) -> None:
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


def cmd_ab_experiment(args, out: Path) -> None:
    arms = _parse_list("arms", args.arms)
    if not arms:
        raise ValueError(f"--arms {args.arms!r} names no arm")
    seeds = _parse_list("seeds", args.seeds, int)
    policy = _augment_policy(args, arms)
    vocab = load_vocab(args.vocab)
    augmenters: dict[str, object] = {}
    encoders = {}
    for arm in arms:
        if arm == "none":
            augmenters[arm] = None
            continue
        model_flag = "pretrained" if arm == "bert" else "model"
        augment, encoders[arm] = _augmenter(args, vocab, policy, arm, model_flag)
        augmenters[arm] = lambda d, s, augment=augment: augment(d, s)[0]
    dataset = _load_dataset(args, vocab, *encoders.values(), test=args.test)
    if "cbert" in encoders:
        _check_labels(dataset, "conditional encoder", encoders["cbert"].num_conditions)
    records, summary = ab_experiment(
        dataset, augmenters, args.classifier, seeds, _classifier_config(args), len(vocab)
    )
    write_records(records, out / "records.tsv")
    table = format_table(records, summary)
    write_text(out / "table.txt", table + "\n")
    print(table)


def cmd_style_transfer(args, out: Path) -> None:
    if args.limit is not None and args.limit < 0:
        raise ValueError(f"--limit must be >= 0, got {args.limit}")
    vocab = load_vocab(args.vocab)
    params, config = _load_encoder(args.model, vocab)
    check_rewrite(config, args.target_label, args.top_m)  # also when no row is rewritten
    dataset = _load_dataset(args, vocab, config, val_fraction=0.0)
    clf = _load_classifier(args.classifier_ckpt, vocab, dataset)
    if args.target_label is None and dataset.num_labels != 2:
        raise ValueError("--target-label is required for non-binary datasets")
    examples = dataset.train if args.limit is None else dataset.train[: args.limit]
    if args.target_label is not None:
        examples = [ex for ex in examples if ex.label != args.target_label]
    targets = [1 - ex.label if args.target_label is None else args.target_label for ex in examples]
    results = transfer_styles(params, config, clf, examples, targets, top_m=args.top_m)
    pairs = [(ex, new) for ex, new in zip(examples, results) if not isinstance(new, SkipExample)]
    skipped = len(results) - len(pairs)
    write_style_pairs(out / "pairs.tsv", pairs, vocab)
    note = f", {skipped} skipped" if skipped else ""
    print(f"wrote {out / 'pairs.tsv'} ({len(pairs)} pairs{note})")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


_CAPPED_HELP = "truncate sentences to this many ids, capped at the encoder's max_len"


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--data", required=True, help="label<TAB>text file")
    sp.add_argument("--out", required=True, help="run directory for artifacts and config.json")
    sp.add_argument("--seed", type=int, default=0, help="root seed for every stream")
    sp.add_argument("--config", help="JSON file of flag defaults; explicit flags win")


def _add_config_flags(sp: argparse.ArgumentParser, *classes) -> None:
    """The CONFIG_FLAGS that feed `classes`, each typed and defaulted by its fields."""
    for dest, fields in CONFIG_FLAGS.items():
        served = [cls for cls in classes if cls in fields]
        if served:
            default = _default(dest, *served)
            kind = type(getattr(served[0], fields[served[0]]))
            if kind is tuple:  # a range, given as its 'LO,HI' text
                kind, default = str, ",".join(map(str, default))
            sp.add_argument("--" + dest.replace("_", "-"), type=kind, default=default,
                            **_FLAG_OPTIONS.get(dest, {}))


def _add_fit_flags(sp: argparse.ArgumentParser, *classes) -> None:
    """The flags of the configs `classes` that a training run builds, and its split."""
    _add_config_flags(sp, *classes)
    sp.add_argument("--val-fraction", type=float, default=0.1)


def _add_classifier_flags(sp: argparse.ArgumentParser, *classes) -> None:
    sp.add_argument("--classifier", choices=tuple(CONFIGS), default="cnn")
    _add_fit_flags(sp, *classes, *CONFIGS.values())


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
    _add_fit_flags(sp, EncoderConfig, TrainConfig, MaskPolicy)
    sp.set_defaults(func=cmd_pretrain)

    sp = sub.add_parser("finetune", help="label-conditional fine-tuning")
    _add_common(sp)
    sp.add_argument("--vocab", required=True)
    sp.add_argument("--init", required=True, help="pretrained encoder checkpoint")
    _add_fit_flags(sp, TrainConfig, MaskPolicy)
    sp.set_defaults(func=cmd_finetune)

    sp = sub.add_parser("augment", help="write an augmented copy of a dataset")
    _add_common(sp)
    sp.add_argument("--vocab", required=True)
    sp.add_argument("--model", help="encoder checkpoint (cbert/bert augmenters)")
    sp.add_argument("--synonyms", help="synonym table file (synonym augmenter)")
    sp.add_argument("--augmenter", choices=("cbert", "bert", "synonym"), default="cbert")
    sp.add_argument("--keep-original", action="store_true",
                    help="allow a masked slot to re-sample its original word")
    sp.add_argument("--max-len", type=int, default=EncoderConfig.max_len, help=_CAPPED_HELP)
    _add_config_flags(sp, AugmentationPolicy)
    sp.set_defaults(func=cmd_augment)

    sp = sub.add_parser("train-classifier", help="train a CNN or LSTM classifier")
    _add_common(sp)
    sp.add_argument("--test", default=None)
    sp.add_argument("--vocab", required=True)
    sp.add_argument("--max-len", type=int, default=EncoderConfig.max_len)
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
    sp.add_argument("--max-len", type=int, default=EncoderConfig.max_len)
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
    sp.add_argument("--max-len", type=int, default=EncoderConfig.max_len, help=_CAPPED_HELP)
    _add_classifier_flags(sp, AugmentationPolicy)
    sp.set_defaults(func=cmd_ab_experiment)

    sp = sub.add_parser("style-transfer", help="rewrite sentences under the opposite label")
    _add_common(sp)
    sp.add_argument("--vocab", required=True)
    sp.add_argument("--model", required=True, help="conditional encoder checkpoint")
    sp.add_argument("--classifier-ckpt", required=True, help="trained classifier for attribution")
    sp.add_argument("--target-label", type=int, default=None)
    sp.add_argument("--top-m", type=int, default=1)
    sp.add_argument("--limit", type=int, default=None)
    sp.add_argument("--max-len", type=int, default=EncoderConfig.max_len, help=_CAPPED_HELP)
    sp.set_defaults(func=cmd_style_transfer)

    return parser


def _config_value(action: argparse.Action, value, path: Path):
    """`value` parsed as its flag's text, within its choices; a switch takes only true or false."""
    if action.nargs == 0 and isinstance(value, bool):
        return value
    if action.nargs != 0 and not isinstance(value, (list, dict)):
        try:
            parsed = (action.type or str)(str(value))
        except ValueError:
            pass
        else:
            if action.choices is None or parsed in action.choices:
                return parsed
    raise ValueError(f"config file {path}: {action.dest!r} cannot be {json.dumps(value)}")


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    """Make the JSON object of the --config file (`--config path` or
    `--config=path`) the subcommands' defaults; a flag it supplies is no
    longer required. A null leaves a flag at its own default, except where a
    config field the flag sets takes None (clip_norm: no clipping). Every key
    must be a flag dest of some subcommand or one of the keys config.json adds."""
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
            value = payload.get(action.dest)
            if value is not None:
                action.default, action.required = _config_value(action, value, path), False
            elif action.dest in payload and any(
                _takes_none(*item) for item in CONFIG_FLAGS.get(action.dest, {}).items()
            ):
                action.default = None
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
            args.func(args, out)
        except BaseException:
            if created and not any(out.iterdir()):
                out.rmdir()
            raise
        _archive_config(args, out)  # a failed run leaves no run record
        return EXIT_OK
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
