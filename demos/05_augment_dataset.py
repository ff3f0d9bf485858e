"""Grow a labeled dataset three ways: synonym swaps, unconditional cloze
fills, and label-conditional cloze fills.

The conditional augmenter keeps generated sentences compatible with their
labels; the unconditional one happily drops an opposite-sentiment word into
a masked slot, which is exactly the failure the conditioning removes.
"""

import tempfile
from pathlib import Path

from maskaug.augment import (
    AugmentationPolicy,
    SynonymTable,
    augment_dataset,
    synonym_augment_dataset,
    write_augmented_tsv,
)
from maskaug.encoder import EncoderConfig
from maskaug.synthetic import sentiment_rows, write_rows_tsv
from maskaug.text import build_vocab, decode, load_tsv, tokenize
from maskaug.training import MaskPolicy, TrainConfig, finetune_cmlm, pretrain_mlm

rows = sentiment_rows(n_per_label=200, seed=0)
vocab = build_vocab(tokenize(text) for _, text in rows)
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "train.tsv"
    write_rows_tsv(rows, path)
    dataset = load_tsv(path, vocab, max_len=64, val_fraction=0.1, seed=42)

    config = EncoderConfig(vocab_size=len(vocab), layers=2, hidden=64, heads=2, ff=256, max_len=64)
    pretrained, _ = pretrain_mlm(
        dataset, config, MaskPolicy(mode="ratio", ratio=0.15),
        TrainConfig(epochs=10, batch_size=32, lr=1e-3, patience=3, seed=42),
    )
    tuned, tuned_config, _ = finetune_cmlm(
        dataset, pretrained, config, MaskPolicy(mode="ratio", ratio=0.3),
        TrainConfig(epochs=10, batch_size=16, lr=1e-3, patience=3, seed=42),
    )

    policy = AugmentationPolicy(k=1, sampler="top_k", top_k=10, multiplier=1, seed=7)

    conditional, report = augment_dataset(tuned, tuned_config, dataset, policy)
    unconditional, _ = augment_dataset(pretrained, config, dataset, policy, unconditional=True)
    table = SynonymTable({"good": ("great", "fine"), "bad": ("awful", "poor")})
    synonyms, syn_report = synonym_augment_dataset(dataset, table, vocab, policy)

    n = len(dataset.train)
    print(f"{n} originals; conditional pass added {report.generated}, skipped {report.skipped}")
    print(f"synonym pass added {syn_report.generated} (only sentences with covered words)\n")

    print(f"{'original':38s}{'conditional':38s}{'unconditional':38s}")
    for i in range(8):
        row = [
            decode(dataset.train[i].tokens, vocab),
            decode(conditional.train[n + i].tokens, vocab),
            decode(unconditional.train[n + i].tokens, vocab),
        ]
        label = dataset.train[i].label
        print(f"[{label}] " + "".join(f"{text:38s}" for text in row))

    out = Path(tmp) / "augmented.tsv"
    write_augmented_tsv(out, conditional, n, report, vocab)
    print("\naugmented TSV carries provenance columns; first generated row:")
    print([line for line in out.read_text().splitlines() if not line.startswith("#")][n])
