"""Measure what augmentation buys a downstream classifier.

A convolutional classifier trains on a noisy 500-sentence corpus under
four arms (no augmentation, synonym, unconditional, conditional), with the
same seeds and config everywhere; only the training split differs.
"""

import tempfile
from pathlib import Path

from maskaug.augment import AugmentationPolicy, SynonymTable, augment_dataset, synonym_augment_dataset
from maskaug.classify import CnnConfig, ab_experiment, format_table
from maskaug.encoder import EncoderConfig
from maskaug.synthetic import sentiment_rows, with_label_noise, write_rows_tsv
from maskaug.text import build_vocab, load_tsv, tokenize
from maskaug.training import MaskPolicy, TrainConfig, finetune_cmlm, pretrain_mlm

train_rows = with_label_noise(sentiment_rows(250, seed=0), 0.15, 2, seed=5)
test_rows = sentiment_rows(100, seed=99)
vocab = build_vocab(tokenize(text) for _, text in train_rows)

with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    write_rows_tsv(train_rows, tmp / "train.tsv")
    write_rows_tsv(test_rows, tmp / "test.tsv")
    dataset = load_tsv(
        tmp / "train.tsv", vocab, max_len=64, val_fraction=0.1, seed=42,
        test_path=tmp / "test.tsv",
    )

config = EncoderConfig(vocab_size=len(vocab), layers=2, hidden=64, heads=2, ff=256, max_len=64)
pretrained, _ = pretrain_mlm(
    dataset, config, MaskPolicy(mode="ratio", ratio=0.15),
    TrainConfig(epochs=10, batch_size=32, lr=1e-3, patience=3, seed=42),
)
tuned, tuned_config, _ = finetune_cmlm(
    dataset, pretrained, config, MaskPolicy(mode="ratio", ratio=0.3),
    TrainConfig(epochs=10, batch_size=16, lr=1e-3, patience=3, seed=42),
)
print("language model ready; running the arms\n")

policy = AugmentationPolicy(k=(1, 2), sampler="top_k", top_k=10, multiplier=1)
one_word = AugmentationPolicy(k=1)  # the synonym arm swaps one word per sentence
table = SynonymTable({"good": ("great", "fine"), "bad": ("awful", "poor")})
arms = {
    "none": None,
    "synonym": lambda d, s: synonym_augment_dataset(d, table, vocab, one_word, seed=s)[0],
    "bert": lambda d, s: augment_dataset(pretrained, config, d, policy, unconditional=True, seed=s)[0],
    "cbert": lambda d, s: augment_dataset(tuned, tuned_config, d, policy, seed=s)[0],
}
records, summary = ab_experiment(
    dataset, arms, "cnn", seeds=(1, 2, 3, 4, 5), cfg=CnnConfig(max_epochs=20),
    vocab_size=len(vocab),
)
print(format_table(records, summary))
