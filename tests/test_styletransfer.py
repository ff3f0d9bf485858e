import warnings

import numpy as np
import pytest

from maskaug import tensor as T
from maskaug.augment import AugmentationPolicy, sample_replacement
from maskaug.checkpoint import draw_params
from maskaug.classify import (
    Classifier,
    CnnConfig,
    RnnConfig,
    predict_logits,
    predict_proba,
    train_classifier,
    train_cnn,
)
from maskaug.encoder import EncoderConfig, init_params, mlm_distribution, mlm_distributions
from maskaug.augment import CHUNK_SIZE
from maskaug.styletransfer import attribute_words, transfer_style, transfer_styles, write_style_pairs
from maskaug.tensor import Tensor
from maskaug.text import CLS_ID, NUM_SPECIALS, Dataset, LabeledExample, build_vocab
from maskaug.training import SkipExample

MARKER_POS = NUM_SPECIALS  # sole label-1 signal
MARKER_NEG = NUM_SPECIALS + 1  # sole label-0 signal
NEUTRAL = tuple(NUM_SPECIALS + 2 + i for i in range(4))
VOCAB_SIZE = NUM_SPECIALS + 6


def signal_dataset(n=80, seed=0):
    """Only the marker word carries the label; everything else is noise."""
    rng = np.random.default_rng(seed)
    examples = []
    for i in range(n):
        label = i % 2
        marker = MARKER_POS if label == 1 else MARKER_NEG
        words = [int(rng.choice(NEUTRAL)) for _ in range(3)]
        words.insert(int(rng.integers(4)), marker)
        examples.append(LabeledExample((CLS_ID, *words), label))
    cut = n // 10
    return Dataset(train=examples[cut:], val=examples[:cut], test=[], num_labels=2)


@pytest.fixture(scope="module")
def setup():
    dataset = signal_dataset()
    cfg = CnnConfig(seed=1, max_epochs=20, patience=20, dropout=0.0, lr=3e-3, batch_size=16)
    classifier, report = train_cnn(dataset, cfg, vocab_size=VOCAB_SIZE)
    assert report.accuracy["val"] == 1.0
    config = EncoderConfig(
        vocab_size=VOCAB_SIZE, layers=1, hidden=8, heads=2, ff=16, max_len=8,
        num_conditions=2, dropout=0.0,
    )
    params = init_params(config, np.random.default_rng(5))
    return dataset, classifier, params, config


@pytest.mark.parametrize("kind", ["cnn", "rnn"])
def test_attribution_equals_the_stable_exp_formula_bitwise(kind):
    dataset = signal_dataset(n=20)
    cfg = (CnnConfig if kind == "cnn" else RnnConfig)(seed=1, max_epochs=1, patience=1)
    clf, _ = train_classifier(dataset, cfg, vocab_size=VOCAB_SIZE)
    for example in dataset.train[:6]:
        positions = [i for i, t in enumerate(example.tokens) if t >= NUM_SPECIALS]
        variants = [example] + [
            LabeledExample(example.tokens[:pos] + example.tokens[pos + 1 :], example.label)
            for pos in positions
        ]
        logits = predict_logits(clf, variants)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = e[:, example.label] / e.sum(axis=1)
        got = attribute_words(clf, example)
        assert got.positions == tuple(positions)
        assert np.array_equal(got.scores, probs[0] - probs[1:])
        graph = T.softmax(Tensor(logits)).data[:, example.label]  # the Tensor path's scores
        assert got.scores.tobytes() == (graph[0] - graph[1:]).tobytes()


class TestAttribution:
    def test_signal_token_scores_highest(self, setup):
        dataset, classifier, _, _ = setup
        hits = 0
        for example in dataset.train[:30]:
            scores = attribute_words(classifier, example)
            top = scores.positions[int(np.argmax(scores.scores))]
            marker = MARKER_POS if example.label == 1 else MARKER_NEG
            hits += example.tokens[top] == marker
        assert hits >= 27  # strictly largest on nearly every sentence

    def test_strictly_largest_on_clean_sentence(self, setup):
        _, classifier, _, _ = setup
        example = LabeledExample((CLS_ID, NEUTRAL[0], MARKER_POS, NEUTRAL[1]), 1)
        scores = attribute_words(classifier, example)
        marker_row = scores.positions.index(2)
        others = np.delete(scores.scores, marker_row)
        assert np.all(scores.scores[marker_row] > others)

    def test_duplicated_neutral_tokens_agree_in_sign(self, setup):
        _, classifier, _, _ = setup
        example = LabeledExample(
            (CLS_ID, NEUTRAL[0], MARKER_POS, NEUTRAL[0]), 1
        )
        scores = attribute_words(classifier, example)
        a = scores.scores[scores.positions.index(1)]
        b = scores.scores[scores.positions.index(3)]
        assert np.sign(a) == np.sign(b) or (abs(a) < 1e-9 and abs(b) < 1e-9)

    def test_scores_invariant_to_batch_padding(self, setup):
        dataset, classifier, _, _ = setup
        example = dataset.train[0]
        probs_alone = predict_proba(classifier, example)
        from maskaug.classify import predict_logits

        longer = LabeledExample(example.tokens + NEUTRAL[:3], example.label)
        batch_logits = predict_logits(classifier, [example, longer])
        alone_logits = predict_logits(classifier, [example])
        assert np.allclose(batch_logits[0], alone_logits[0], atol=1e-9, rtol=0.0)
        assert probs_alone.shape == (2,)

    def test_single_token_sentence(self, setup):
        _, classifier, _, _ = setup
        example = LabeledExample((CLS_ID, MARKER_POS), 1)
        scores = attribute_words(classifier, example)
        assert scores.positions == (1,)
        assert np.isfinite(scores.scores).all()

    def test_no_content_tokens_raises_skip(self, setup):
        _, classifier, _, _ = setup
        from maskaug.training import SkipExample

        with pytest.raises(SkipExample):
            attribute_words(classifier, LabeledExample((CLS_ID, 1, 1), 1))


@pytest.mark.parametrize("kind, cfg", [
    ("cnn", CnnConfig(seed=2, max_epochs=2, filter_widths=(2, 5))),
    ("rnn", RnnConfig(seed=2, max_epochs=2)),
])
def test_stacked_scores_match_per_variant_formula(kind, cfg):
    classifier, _ = train_classifier(signal_dataset(n=40), cfg, vocab_size=VOCAB_SIZE)
    sentences = [
        LabeledExample((CLS_ID, NEUTRAL[0], MARKER_POS, NEUTRAL[1], NEUTRAL[2], NEUTRAL[3]), 1),
        LabeledExample((CLS_ID, MARKER_NEG), 0),  # one content token
        LabeledExample((CLS_ID, NEUTRAL[1], MARKER_NEG), 0),  # shorter than the widest filter
        LabeledExample((CLS_ID, 1, NEUTRAL[2], MARKER_POS), 1),  # a special between words
    ]
    for example in sentences:
        got = attribute_words(classifier, example)
        def prob(tokens):
            return predict_proba(classifier, LabeledExample(tokens, example.label))[example.label]

        tokens = example.tokens
        want = [prob(tokens) - prob(tokens[:i] + tokens[i + 1 :]) for i in got.positions]
        assert got.positions == tuple(i for i, t in enumerate(example.tokens) if t >= NUM_SPECIALS)
        assert np.max(np.abs(got.scores - np.array(want))) <= 1e-12


@pytest.mark.parametrize("call", [
    attribute_words, lambda clf, example: predict_logits(clf, [example]),
], ids=["attribute_words", "predict_logits"])
@pytest.mark.parametrize("make", [CnnConfig, RnnConfig])
@pytest.mark.parametrize("bad", [VOCAB_SIZE, -1], ids=["V", "negative"])
def test_scores_refuse_an_out_of_range_token_id(bad, make, call):
    # numpy alone would read id -1 as the last embedding row
    cfg = make()
    params = draw_params(cfg.layout(VOCAB_SIZE, 2), np.random.default_rng(0))
    clf = Classifier(params, cfg, VOCAB_SIZE, 2)
    example = LabeledExample((CLS_ID, MARKER_POS, bad, NEUTRAL[0], NEUTRAL[1]), 1)
    with pytest.raises(IndexError, match=rf"^embedding id out of range \[0, {VOCAB_SIZE}\)$"):
        call(clf, example)


class TestTransfer:
    def test_changes_exactly_top_m_positions(self, setup):
        dataset, classifier, params, config = setup
        example = dataset.train[0]
        for top_m in (1, 2):
            out = transfer_style(params, config, classifier, example, 1 - example.label, top_m)
            diff = [i for i, (a, b) in enumerate(zip(example.tokens, out.tokens)) if a != b]
            assert len(diff) == top_m
            assert out.label == 1 - example.label

    def test_same_label_rejected(self, setup):
        dataset, classifier, params, config = setup
        example = dataset.train[0]
        with pytest.raises(ValueError):
            transfer_style(params, config, classifier, example, example.label)

    def test_batch_needs_one_target_per_example(self, setup):
        dataset, classifier, params, config = setup
        with pytest.raises(ValueError, match="1 targets for 2 examples"):
            transfer_styles(params, config, classifier, dataset.train[:2], [0])

    def test_oversized_top_m_clamped_with_warning(self, setup):
        _, classifier, params, config = setup
        example = LabeledExample((CLS_ID, MARKER_POS, NEUTRAL[0]), 1)
        with pytest.warns(UserWarning, match="maskable") as record:
            out = transfer_style(params, config, classifier, example, 0, top_m=9)
        diff = [i for i, (a, b) in enumerate(zip(example.tokens, out.tokens)) if a != b]
        assert len(diff) == 2
        assert [w.filename for w in record] == [__file__]  # the caller's line
        with pytest.warns(UserWarning, match="maskable") as record:
            [batched] = transfer_styles(params, config, classifier, [example], [0], top_m=9)
        assert batched == out and [w.filename for w in record] == [__file__]

    def test_deterministic(self, setup):
        dataset, classifier, params, config = setup
        example = dataset.train[2]
        a = transfer_style(params, config, classifier, example, 1 - example.label)
        b = transfer_style(params, config, classifier, example, 1 - example.label)
        assert a == b


def serial_transfer(params, config, clf, example, target, top_m):
    """The per-sentence formula transfer_style must reproduce: the stable
    top-m attribution positions, one cloze query under the target label,
    then a greedy pick per slot with the original word excluded."""
    attribution = attribute_words(clf, example)
    order = np.argsort(-attribution.scores, kind="stable")[:top_m]
    chosen = sorted(attribution.positions[i] for i in order)
    probs = mlm_distribution(params, config, example.tokens, chosen, cond_id=target)
    greedy = AugmentationPolicy(k=1, sampler="greedy", exclude_original=True)
    tokens = list(example.tokens)
    for row, pos in enumerate(chosen):
        tokens[pos] = sample_replacement(probs[row], example.tokens[pos], greedy, None)
    return LabeledExample(tuple(tokens), target)


@pytest.mark.parametrize("top_m", [1, 2])
@pytest.mark.parametrize("kind, cfg", [
    ("cnn", CnnConfig(seed=2, max_epochs=2, filter_widths=(2, 5))),
    ("rnn", RnnConfig(seed=2, max_epochs=2)),
])
def test_transfer_matches_serial_reference(setup, kind, cfg, top_m):
    dataset, _, params, config = setup
    classifier, _ = train_classifier(signal_dataset(n=40), cfg, vocab_size=VOCAB_SIZE)
    for example in dataset.train[:8]:
        target = 1 - example.label
        got = transfer_style(params, config, classifier, example, target, top_m)
        assert got == serial_transfer(params, config, classifier, example, target, top_m)
        assert got.tokens != example.tokens


@pytest.mark.parametrize("top_m", [1, 2])
@pytest.mark.parametrize("kind, cfg", [
    ("cnn", CnnConfig(seed=2, max_epochs=2, filter_widths=(2, 5))),
    ("rnn", RnnConfig(seed=2, max_epochs=2)),
])
def test_batched_transfer_matches_serial_reference(kind, cfg, top_m, monkeypatch):
    # one chunk plus 3 refilled rows of mixed lengths, with a sentence that
    # has no content token inside the first chunk, under a three-condition
    # encoder so each label is sent to both other labels
    classifier, _ = train_classifier(signal_dataset(n=40), cfg, vocab_size=VOCAB_SIZE)
    config = EncoderConfig(
        vocab_size=VOCAB_SIZE, layers=1, hidden=8, heads=2, ff=16, max_len=8,
        num_conditions=3, dropout=0.0,
    )
    params = init_params(config, np.random.default_rng(6))
    rows = signal_dataset(n=60, seed=3).train[: CHUNK_SIZE + 3]
    examples = [LabeledExample(ex.tokens[: 2 + i % 4], ex.label) for i, ex in enumerate(rows)]
    examples.insert(7, LabeledExample((CLS_ID, 1, 1), 0))
    targets = [(ex.label + 1 + i % 2) % 3 for i, ex in enumerate(examples)]
    chunks = []

    def cloze(params, config, queries):
        chunks.append(len(queries))
        return mlm_distributions(params, config, queries)

    monkeypatch.setattr("maskaug.augment.mlm_distributions", cloze)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # top_m=2 exceeds the one-word rows
        got = transfer_styles(params, config, classifier, examples, targets, top_m)
        assert chunks == [CHUNK_SIZE, 3]
        for i, (example, target) in enumerate(zip(examples, targets)):
            if i == 7:
                assert isinstance(got[i], SkipExample)
                with pytest.raises(SkipExample, match=str(got[i])):
                    serial_transfer(params, config, classifier, example, target, top_m)
                continue
            want = serial_transfer(params, config, classifier, example, target, top_m)
            assert got[i] == want, i


@pytest.mark.parametrize("kind, cfg", [
    ("cnn", CnnConfig(seed=2, max_epochs=2, filter_widths=(2, 5))),
    ("rnn", RnnConfig(seed=2, max_epochs=2)),
])
def test_length_ordered_transfer_matches_serial_reference(setup, kind, cfg, monkeypatch):
    # three chunks of rows whose lengths fall from 7 words to 1: length order
    # reverses the rows, so every chunk holds other sentences than a cut in
    # dataset order would
    _, _, params, config = setup
    classifier, _ = train_classifier(signal_dataset(n=40), cfg, vocab_size=VOCAB_SIZE)
    n = 2 * CHUNK_SIZE + 6
    rows = signal_dataset(n=80, seed=4).train[:n]
    examples = [
        LabeledExample((CLS_ID, *(ex.tokens[1:] + NEUTRAL)[: 7 - 7 * i // n]), ex.label)
        for i, ex in enumerate(rows)
    ]
    targets = [1 - ex.label for ex in examples]
    chunks = []

    def cloze(params, config, queries):
        chunks.append([tokens for tokens, _, _ in queries])
        return mlm_distributions(params, config, queries)

    monkeypatch.setattr("maskaug.augment.mlm_distributions", cloze)
    got = transfer_styles(params, config, classifier, examples, targets)
    by_length = sorted(examples, key=lambda ex: len(ex.tokens))
    assert chunks == [[ex.tokens for ex in by_length[start:start + CHUNK_SIZE]]
                      for start in range(0, n, CHUNK_SIZE)]
    assert chunks[0] != [ex.tokens for ex in examples[:CHUNK_SIZE]]
    for example, target, result in zip(examples, targets, got):
        assert result == serial_transfer(params, config, classifier, example, target, 1)


@pytest.mark.parametrize("examples", [
    [LabeledExample((CLS_ID, 1, 1), 0), LabeledExample((CLS_ID, 1), 1)], [],
], ids=["no-content-word", "no-sentence"])
def test_nothing_to_refill_makes_no_encoder_call(setup, examples, monkeypatch):
    _, classifier, params, config = setup
    calls = []
    monkeypatch.setattr("maskaug.augment.mlm_distributions", lambda *args: calls.append(args))
    targets = [1 - ex.label for ex in examples]
    got = transfer_styles(params, config, classifier, examples, targets)
    assert calls == []
    assert len(got) == len(examples)
    assert all(isinstance(result, SkipExample) for result in got)


def test_write_style_pairs(tmp_path):
    vocab = build_vocab([["alpha", "beta"]])
    a = LabeledExample((CLS_ID, vocab.id_of("alpha")), 1)
    b = LabeledExample((CLS_ID, vocab.id_of("beta")), 0)
    path = tmp_path / "pairs.tsv"
    write_style_pairs(path, [(a, b)], vocab)
    lines = path.read_text().splitlines()
    assert lines[0] == "# maskaug-style-pairs v1"
    assert lines[1] == "original\talpha"
    assert lines[2] == "generated\tbeta"
