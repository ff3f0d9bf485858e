import dataclasses
import json
from dataclasses import replace

import numpy as np
import pytest

from maskaug import classify
from maskaug.classify import (
    GRID,
    check_folds,
    CnnConfig,
    RnnConfig,
    ab_experiment,
    cross_validate,
    evaluate,
    format_table,
    grid_search,
    load_classifier,
    predict_logits,
    predict_proba,
    save_classifier,
    train_classifier,
    train_cnn,
    train_rnn,
    write_records,
)
from maskaug.checkpoint import draw_params
from maskaug.gradcheck import gradient_disagreement, numeric_gradient
from maskaug.tensor import Tensor
from maskaug import tensor as T
from maskaug.text import CLS_ID, NUM_SPECIALS, UNK_ID, Dataset, LabeledExample
from maskaug.training import TrainingError
from test_tensor import per_op_cnn

ALPHA = NUM_SPECIALS  # word that marks label 1
BETA = NUM_SPECIALS + 1  # word that marks label 0
FILLERS = tuple(NUM_SPECIALS + 2 + i for i in range(6))
VOCAB_SIZE = NUM_SPECIALS + 8


def separable_dataset(n=120, seed=0):
    """Label = which of two marker words the sentence contains."""
    rng = np.random.default_rng(seed)
    examples = []
    for i in range(n):
        label = i % 2
        marker = ALPHA if label == 1 else BETA
        words = [marker] + [int(rng.choice(FILLERS)) for _ in range(4)]
        rng.shuffle(words)
        examples.append(LabeledExample((CLS_ID, *words), label))
    cut = max(1, n // 10)
    return Dataset(train=examples[cut:], val=examples[:cut], test=examples[:cut], num_labels=2)


def order_dataset(n=160, seed=1):
    """Label = whether the marker pair appears in (alpha, beta) order."""
    rng = np.random.default_rng(seed)
    examples = []
    for i in range(n):
        label = i % 2
        pair = (ALPHA, BETA) if label == 1 else (BETA, ALPHA)
        filler = [int(rng.choice(FILLERS)) for _ in range(2)]
        tokens = (CLS_ID, filler[0], *pair, filler[1])
        examples.append(LabeledExample(tokens, label))
    cut = max(1, n // 8)
    return Dataset(train=examples[cut:], val=examples[:cut], test=examples[:cut], num_labels=2)


@pytest.mark.parametrize(
    "make, field, value",
    [(CnnConfig, "num_filters", "8"), (CnnConfig, "emb_dim", 2.5), (CnnConfig, "seed", True),
     (CnnConfig, "lr", "0.1"), (CnnConfig, "filter_widths", ("3",)),
     (RnnConfig, "dropout", "a"), (RnnConfig, "state_dim", 4.0), (RnnConfig, "patience", None)],
)
def test_ill_typed_config_field_raises_value_error_naming_it(make, field, value):
    with pytest.raises(ValueError, match=field):
        make(**{field: value})


@pytest.mark.parametrize("widths", [(), (0, 3), (3, 4, 3)])
def test_filter_widths_must_be_positive_and_distinct(widths):
    with pytest.raises(ValueError) as info:
        CnnConfig(filter_widths=widths)
    assert str(info.value) == f"filter widths must be positive and distinct, got {widths}"


@pytest.mark.parametrize(
    "fields, message",
    [({"vocab_size": "5"}, "vocab_size must be an int, got '5'"),
     ({"vocab_size": 0}, "vocab_size must be >= 1, got 0"),
     ({"num_labels": 2.0}, "num_labels must be an int, got 2.0"),
     ({"num_labels": 0}, "num_labels must be >= 1, got 0"),
     ({"epochs_used": None}, "epochs_used must be an int, got None"),
     ({"epochs_used": -3}, "epochs_used must be >= 0, got -3")],
)
def test_classifier_sizes_are_checked(fields, message):
    with pytest.raises(ValueError) as info:
        classify.Classifier({}, CnnConfig(), **{"vocab_size": 9, "num_labels": 2, **fields})
    assert str(info.value) == message


def test_the_config_class_names_its_kind_outside_the_fields():
    assert (CnnConfig.kind, RnnConfig.kind) == ("cnn", "rnn")
    assert [f.name for f in dataclasses.fields(CnnConfig)] == [
        "filter_widths", "num_filters", "emb_dim", "hidden_dim", "dropout", "lr", "seed",
        "max_epochs", "batch_size", "patience",
    ]
    assert [f.name for f in dataclasses.fields(RnnConfig)] == [
        "emb_dim", "state_dim", "dropout", "lr", "seed", "max_epochs", "batch_size", "patience",
    ]


def test_fresh_parameters_equal_the_written_out_draws_bit_for_bit():
    cnn = CnnConfig(filter_widths=(2, 3, 5), num_filters=4, emb_dim=6, hidden_dim=7)
    rnn = RnnConfig(emb_dim=5, state_dim=3)
    rng = np.random.default_rng(31)
    want_cnn = {"emb": rng.normal(0.0, 0.1, size=(VOCAB_SIZE, 6))}
    for w in (2, 3, 5):
        want_cnn[f"conv{w}_w"] = rng.normal(0.0, 1.0 / np.sqrt(w * 6), size=(w * 6, 4))
        want_cnn[f"conv{w}_b"] = np.zeros(4)
    want_cnn["fc1_w"] = rng.normal(0.0, 1.0 / np.sqrt(12), size=(12, 7))
    want_cnn["fc1_b"] = np.zeros(7)
    want_cnn["fc2_w"] = rng.normal(0.0, 1.0 / np.sqrt(7), size=(7, 3))
    want_cnn["fc2_b"] = np.zeros(3)
    rng = np.random.default_rng(31)
    want_rnn = {
        "emb": rng.normal(0.0, 0.1, size=(VOCAB_SIZE, 5)),
        "w_ih": rng.normal(0.0, 1.0 / np.sqrt(5), size=(5, 12)),
        "w_hh": rng.normal(0.0, 1.0 / np.sqrt(3), size=(3, 12)),
        "b": np.array([0.0] * 3 + [1.0] * 3 + [0.0] * 6),  # the forget block opens
        "out_w": rng.normal(0.0, 1.0 / np.sqrt(3), size=(3, 3)),
        "out_b": np.zeros(3),
    }
    for layout, want in ((cnn.layout(VOCAB_SIZE, 3), want_cnn),
                         (rnn.layout(VOCAB_SIZE, 3), want_rnn)):
        params = draw_params(layout, np.random.default_rng(31))
        assert list(params) == list(want)
        for name, value in want.items():
            assert params[name].requires_grad, name
            assert params[name].data.shape == value.shape, name
            assert params[name].data.tobytes() == value.tobytes(), name


@pytest.mark.parametrize("make", [CnnConfig, RnnConfig])
@pytest.mark.parametrize("lr", [-1.0, 0.0])
def test_non_positive_lr_is_rejected(make, lr):
    with pytest.raises(ValueError) as info:
        make(lr=lr)
    assert str(info.value) == f"lr must lie in (0, inf), got {lr}"


@pytest.mark.parametrize("make", [CnnConfig, RnnConfig])
@pytest.mark.parametrize("dropout", [-0.1, 1.0, 1.5])
def test_dropout_outside_unit_interval_is_rejected(make, dropout):
    with pytest.raises(ValueError) as info:
        make(dropout=dropout)
    assert str(info.value) == f"dropout must lie in [0, 1), got {dropout}"
    assert make(dropout=0.0).dropout == 0.0


@pytest.mark.parametrize("kind", ["cnn", "rnn"])
def test_predict_proba_equals_the_stable_exp_formula_bitwise(kind):
    dataset = separable_dataset(n=20)
    cfg = (CnnConfig if kind == "cnn" else RnnConfig)(seed=0, max_epochs=1, patience=1)
    clf, _ = train_classifier(dataset, cfg, vocab_size=VOCAB_SIZE)
    for example in dataset.train[:6]:
        logits = predict_logits(clf, [example])[0]
        e = np.exp(logits - logits.max())
        assert np.array_equal(predict_proba(clf, example), e / e.sum())



def drawn_params(cfg, seed, num_labels=3):
    """Fresh trainable parameters with every entry, biases too, drawn, so no term is zero."""
    rng = np.random.default_rng(seed)
    params = draw_params(cfg.layout(VOCAB_SIZE, num_labels), rng)
    for param in params.values():
        param.data += rng.normal(0.0, 0.1, param.data.shape)
    return params


@pytest.mark.parametrize("cfg", [
    CnnConfig(filter_widths=(1,), num_filters=5, emb_dim=4, hidden_dim=6),
    CnnConfig(filter_widths=(3, 4, 5), num_filters=5, emb_dim=4, hidden_dim=6),
    CnnConfig(filter_widths=(2, 7), num_filters=5, emb_dim=4, hidden_dim=6),
    RnnConfig(emb_dim=4, state_dim=5),
], ids=["cnn-1", "cnn-3-4-5", "cnn-2-7", "rnn"])
@pytest.mark.parametrize("mode", ["eval", "train"])
def test_array_logits_equal_the_graph_logits_bit_for_bit(cfg, mode):
    # one padded batch of every length from 1 to the widest filter + 2, in
    # shuffled order, so rows both shorter and longer than each filter
    params = drawn_params(cfg, seed=sum(getattr(cfg, "filter_widths", (0,))))
    arrays = {name: param.data for name, param in params.items()}
    rng = np.random.default_rng(5)
    rows = [rng.integers(0, VOCAB_SIZE, n) for n in rng.permutation(max(cfg.min_len, 5) + 2) + 1]
    token_ids, lengths = classify._pad_batch(rows, cfg.min_len)

    def dropout_rng():
        return np.random.default_rng(9) if mode == "train" else None

    want = cfg.logits(params, token_ids, lengths, dropout_rng())
    got = cfg.logits(arrays, token_ids, lengths, dropout_rng(), ops=T.ArrayOps)
    assert isinstance(got, np.ndarray) and got.shape == (len(rows), 3)
    assert got.tobytes() == want.data.tobytes()


# every classifier inference entry point, on a classifier and a few examples
INFERENCE = {
    "predict_logits": lambda clf, examples: predict_logits(clf, examples),
    "evaluate": lambda clf, examples: evaluate(clf, examples),
    "predict_proba": lambda clf, examples: predict_proba(clf, examples[0]),
    "deletion_logits": lambda clf, examples: clf.config.deletion_logits(
        clf.params, examples[0].tokens, [1, 2, 4]
    ),
}


@pytest.mark.parametrize("call", INFERENCE.values(), ids=INFERENCE.keys())
@pytest.mark.parametrize("kind", ["cnn", "rnn"])
def test_inference_builds_no_graph_node(kind, call, monkeypatch):
    cfg = classify.CONFIGS[kind]()
    params = drawn_params(cfg, seed=0, num_labels=2)
    assert all(param.requires_grad for param in params.values())  # as training leaves them
    clf = classify.Classifier(params, cfg, VOCAB_SIZE, 2)
    real = T._node

    def node(data, parents, backward):
        if any(parent.requires_grad for parent in parents):
            raise AssertionError("classifier inference built a graph node")
        return real(data, parents, backward)

    monkeypatch.setattr(T, "_node", node)
    call(clf, separable_dataset(n=20).train[:5])


class TestCnn:
    def test_separable_data_reaches_perfect_validation(self):
        dataset = separable_dataset()
        cfg = CnnConfig(seed=3, max_epochs=30, patience=30)
        clf, report = train_cnn(dataset, cfg, vocab_size=VOCAB_SIZE)
        assert report.accuracy["val"] == 1.0
        assert clf.epochs_used <= 30

    def test_val_split_is_scored_once_per_epoch(self, monkeypatch):
        dataset = separable_dataset(n=40)
        cfg = CnnConfig(seed=5, max_epochs=3, patience=3)
        val_reports = []
        scored = []
        real = classify.evaluate

        def spy(clf, examples, split="test"):
            report = real(clf, examples, split)
            scored.append((examples, split))
            if split == "val":
                val_reports.append(report)
            return report

        monkeypatch.setattr(classify, "evaluate", spy)
        clf, report = train_cnn(dataset, cfg, vocab_size=VOCAB_SIZE)
        assert len(val_reports) == 3  # patience outlasts the epochs: no early stop
        # the validation split only: no pass over the training split
        assert [(examples is dataset.val, split) for examples, split in scored] == [
            (True, "val")
        ] * 3
        kept = val_reports[clf.epochs_used - 1]
        assert report is kept
        again = real(clf, dataset.val, "val")
        assert again.accuracy["val"] == report.accuracy["val"]
        assert np.array_equal(again.confusion["val"], report.confusion["val"])

    def test_deterministic_under_seed(self):
        dataset = separable_dataset(n=40)
        cfg = CnnConfig(seed=5, max_epochs=4, patience=4)
        clf1, rep1 = train_cnn(dataset, cfg, vocab_size=VOCAB_SIZE)
        clf2, rep2 = train_cnn(dataset, cfg, vocab_size=VOCAB_SIZE)
        assert rep1.accuracy == rep2.accuracy
        assert all(np.array_equal(clf1.params[k].data, clf2.params[k].data) for k in clf1.params)

    def test_predicted_distribution_sums_to_one(self):
        dataset = separable_dataset(n=20)
        cfg = CnnConfig(seed=0, max_epochs=2, patience=2)
        clf, _ = train_cnn(dataset, cfg, vocab_size=VOCAB_SIZE)
        probs = predict_proba(clf, dataset.train[0])
        assert probs.shape == (2,)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_short_sentences_padded_up_not_rejected(self):
        short = Dataset(
            train=[LabeledExample((CLS_ID, ALPHA), 1), LabeledExample((CLS_ID, BETA), 0)] * 4,
            val=[LabeledExample((CLS_ID, ALPHA), 1)],
            test=[],
            num_labels=2,
        )
        cfg = CnnConfig(seed=0, max_epochs=1, patience=1)
        clf, _ = train_cnn(short, cfg, vocab_size=VOCAB_SIZE)
        assert predict_proba(clf, short.train[0]).shape == (2,)

    def test_training_equals_the_per_op_extractor_bit_for_bit(self, monkeypatch):
        # ragged rows, some shorter than the widest filter, with the head's
        # dropout live: the fused extractor trains to the very same bits
        rng = np.random.default_rng(4)
        examples = [
            LabeledExample(ex.tokens[: int(rng.integers(2, len(ex.tokens) + 1))], ex.label)
            for ex in separable_dataset(n=60).train
        ]
        dataset = Dataset(train=examples[6:], val=examples[:6], test=[], num_labels=2)
        cfg = CnnConfig(dropout=0.5, seed=6, max_epochs=3, patience=3)
        fused, _ = train_cnn(dataset, cfg, vocab_size=VOCAB_SIZE)
        monkeypatch.setattr(T, "conv_max_pool", per_op_cnn)
        per_op, _ = train_cnn(dataset, cfg, vocab_size=VOCAB_SIZE)
        assert fused.epochs_used == per_op.epochs_used
        assert fused.params.keys() == per_op.params.keys()
        for name, param in fused.params.items():
            assert np.array_equal(param.data, per_op.params[name].data), name

    def test_pooling_ignores_distant_order(self):
        # same window multiset => identical pooled features => identical logits
        cfg = CnnConfig(filter_widths=(2,), seed=0, max_epochs=1, patience=1)
        params = draw_params(cfg.layout(VOCAB_SIZE, 2), np.random.default_rng(0))
        s1 = np.array([[ALPHA, BETA, ALPHA, BETA, ALPHA]])
        s2 = np.array([[BETA, ALPHA, BETA, ALPHA, BETA]])
        lengths = np.array([5])
        l1 = cfg.logits(params, s1, lengths).data
        l2 = cfg.logits(params, s2, lengths).data
        assert np.array_equal(l1, l2)

    @pytest.mark.parametrize("widths", [(1,), (3, 4, 5), (2, 7)], ids=str)
    def test_deletion_logits_equal_the_explicit_variants_bit_for_bit(self, widths):
        # every length from 2 to the widest filter + 2, so variants both
        # shorter and longer than each filter, with content at position 0 and
        # specials between words; biases drawn too, so no term is zero
        cfg = CnnConfig(filter_widths=widths, num_filters=5, emb_dim=4, hidden_dim=6)
        rng = np.random.default_rng(sum(widths))
        params = draw_params(cfg.layout(VOCAB_SIZE, 3), rng)
        for param in params.values():
            param.data += rng.normal(0.0, 0.1, param.data.shape)
        clf = classify.Classifier(params, cfg, VOCAB_SIZE, 3)
        words = range(NUM_SPECIALS, VOCAB_SIZE)
        for length in range(2, max(widths) + 3):
            draw = [int(w) for w in rng.choice(words, length)]
            specials = list(draw)
            specials[1 : length - 1 : 2] = [1] * len(specials[1 : length - 1 : 2])
            for tokens in ((CLS_ID, *draw[1:]), tuple(draw), (CLS_ID, *specials[1:])):
                positions = [i for i, t in enumerate(tokens) if t >= NUM_SPECIALS]
                variants = [tokens] + [tokens[:i] + tokens[i + 1 :] for i in positions]
                want = predict_logits(clf, [LabeledExample(v, 0) for v in variants])
                got = cfg.deletion_logits(params, tokens, positions)
                assert np.array_equal(got, want), (tokens, positions)

    def test_deletion_windows_are_cached_read_only_per_length(self):
        # the cache key is the length and width alone: a sentence of the
        # same length with unknown words elsewhere reuses the arrays
        cfg = CnnConfig(filter_widths=(2, 3))
        params = draw_params(cfg.layout(VOCAB_SIZE, 2), np.random.default_rng(1))
        first = (CLS_ID, ALPHA, FILLERS[0], BETA, FILLERS[1])
        cfg.deletion_logits(params, first, [1, 2, 3, 4])
        hits = classify._deletion_windows.cache_info().hits
        unknowns = (CLS_ID, UNK_ID, FILLERS[2], UNK_ID, ALPHA)
        got = cfg.deletion_logits(params, unknowns, [2, 4])
        assert classify._deletion_windows.cache_info().hits == hits + 2  # one per width
        variants = [unknowns, unknowns[:2] + unknowns[3:], unknowns[:4]]
        clf = classify.Classifier(params, cfg, VOCAB_SIZE, 2)
        assert np.array_equal(got, predict_logits(clf, [LabeledExample(v, 0) for v in variants]))
        for array in classify._deletion_windows(len(first), 3):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_training_error(self):
        dataset = separable_dataset(n=20)
        with pytest.raises(TrainingError, match="cnn: loss diverged"):
            train_cnn(dataset, CnnConfig(lr=1e200, max_epochs=2), VOCAB_SIZE)


class TestRnn:
    def test_order_sensitive_task_learned(self):
        dataset = order_dataset()
        cfg = RnnConfig(seed=2, max_epochs=30, patience=30, lr=3e-3)
        clf, report = train_rnn(dataset, cfg, vocab_size=VOCAB_SIZE)
        assert report.accuracy["val"] >= 0.95

    def test_width_one_cnn_cannot_learn_order(self):
        dataset = order_dataset()
        cfg = CnnConfig(filter_widths=(1,), seed=2, max_epochs=10, patience=10)
        clf, report = train_cnn(dataset, cfg, vocab_size=VOCAB_SIZE)
        # the two classes are identical bags of words: nothing to separate
        assert report.accuracy["val"] <= 0.75

    def test_deterministic_under_seed(self):
        dataset = order_dataset(n=40)
        cfg = RnnConfig(seed=4, max_epochs=3, patience=3)
        _, rep1 = train_rnn(dataset, cfg, vocab_size=VOCAB_SIZE)
        _, rep2 = train_rnn(dataset, cfg, vocab_size=VOCAB_SIZE)
        assert rep1.accuracy == rep2.accuracy

    @pytest.mark.parametrize(
        "token_ids, lengths",
        [
            ([[4, 5, 6]], [3]),
            # rows that end early freeze their state over the padding
            ([[4, 0, 0], [5, 6, 7], [8, 4, 0]], [1, 3, 2]),
        ],
        ids=["full-length", "mixed-lengths"],
    )
    def test_recurrent_cell_gradient_check(self, token_ids, lengths):
        cfg = RnnConfig(emb_dim=4, state_dim=3)
        params = draw_params(cfg.layout(vocab_size=9, num_labels=2), np.random.default_rng(1))
        token_ids = np.array(token_ids)
        lengths = np.array(lengths)
        names = list(params)
        weights = np.random.default_rng(2).normal(size=(len(lengths), 3))

        def states(ps):
            return T.lstm(ps["emb"], ps["w_ih"], ps["w_hh"], ps["b"], token_ids, lengths)

        def run(arrays):
            ps = dict(zip(names, (Tensor(a) for a in arrays)))
            return float(T.reduce_sum(T.mul(states(ps), Tensor(weights))).data)

        live = {k: Tensor(p.data.copy(), requires_grad=True) for k, p in params.items()}
        out = T.reduce_sum(T.mul(states(live), Tensor(weights)))
        out.backward()
        arrays = [p.data for p in params.values()]
        worst = 0.0
        for i, name in enumerate(names):
            if name in ("out_w", "out_b"):
                continue  # not part of the recurrence
            numeric = numeric_gradient(run, arrays, i)
            analytic = live[name].grad
            if analytic is None:
                analytic = np.zeros_like(arrays[i])
            worst = max(worst, gradient_disagreement(analytic, numeric))
        assert worst < 1e-3


    def test_divergence_raises_training_error(self):
        # the saturated gates keep the loss finite; validation's overflow stops the run
        dataset = separable_dataset(n=20)
        with pytest.raises(TrainingError, match="rnn: loss diverged in validation at epoch 1"):
            train_rnn(dataset, RnnConfig(lr=1e300, max_epochs=2), VOCAB_SIZE)


@pytest.fixture(scope="module")
def clf():
    dataset = separable_dataset()
    # no dropout: the separable set is fit exactly, so train acc is 1.0
    cfg = CnnConfig(seed=3, max_epochs=20, patience=20, lr=3e-3, dropout=0.0, batch_size=16)
    trained, _ = train_cnn(dataset, cfg, vocab_size=VOCAB_SIZE)
    return trained, dataset


class TestEvaluate:

    def test_train_split_at_least_val(self, clf):
        clf, dataset = clf
        train_acc = evaluate(clf, dataset.train, "train").accuracy["train"]
        val_acc = evaluate(clf, dataset.val, "val").accuracy["val"]
        assert train_acc >= val_acc

    def test_empty_split_rejected(self, clf):
        clf, _ = clf
        with pytest.raises(ValueError):
            evaluate(clf, [], "test")

    def test_confusion_trace_equals_accuracy(self, clf):
        clf, dataset = clf
        report = evaluate(clf, dataset.test, "test")
        confusion = report.confusion["test"]
        assert confusion.sum() == len(dataset.test)
        assert confusion.trace() / confusion.sum() == pytest.approx(report.accuracy["test"])

    def test_vocabulary_mismatch_rejected(self, clf):
        clf, _ = clf
        alien = [LabeledExample((CLS_ID, clf.vocab_size + 3), 0)]
        with pytest.raises(ValueError, match="vocabulary"):
            evaluate(clf, alien, "test")

    def test_repeated_evaluation_identical(self, clf):
        clf, dataset = clf
        a = evaluate(clf, dataset.test, "test")
        b = evaluate(clf, dataset.test, "test")
        assert a.accuracy == b.accuracy
        assert np.array_equal(a.confusion["test"], b.confusion["test"])


class TestPersistence:
    def test_round_trip(self, tmp_path):
        dataset = separable_dataset(n=20)
        cfg = CnnConfig(seed=0, max_epochs=2, patience=2)
        clf, _ = train_cnn(dataset, cfg, vocab_size=VOCAB_SIZE)
        save_classifier(clf, tmp_path / "clf.ckpt")
        loaded = load_classifier(tmp_path / "clf.ckpt")
        assert loaded.config.kind == "cnn" and loaded.config == cfg
        assert np.array_equal(
            predict_proba(loaded, dataset.train[0]), predict_proba(clf, dataset.train[0])
        )


    @pytest.mark.parametrize("make", [CnnConfig, RnnConfig])
    def test_sidecar_names_the_kind_of_the_config(self, make, tmp_path):
        cfg = make(seed=0, max_epochs=1, patience=1)
        clf, _ = train_classifier(separable_dataset(n=20), cfg, VOCAB_SIZE)
        save_classifier(clf, tmp_path / "clf.ckpt")
        meta = json.loads((tmp_path / "clf.ckpt.json").read_text())
        assert list(meta) == ["format", "kind", "config", "vocab_size", "num_labels", "epochs_used"]
        assert meta["kind"] == make.kind
        # kind, min_len, layout and logits belong to the class, not to the sidecar
        assert list(meta["config"]) == {
            "cnn": ["filter_widths", "num_filters", "emb_dim", "hidden_dim", "dropout", "lr",
                    "seed", "max_epochs", "batch_size", "patience"],
            "rnn": ["emb_dim", "state_dim", "dropout", "lr", "seed", "max_epochs", "batch_size",
                    "patience"],
        }[make.kind]
        assert load_classifier(tmp_path / "clf.ckpt").config == cfg

    @pytest.mark.parametrize("kind", ["cnn", "rnn"])
    def test_load_draws_no_model(self, kind, tmp_path, monkeypatch):
        dataset = separable_dataset(n=20)
        cfg = (CnnConfig if kind == "cnn" else RnnConfig)(seed=0, max_epochs=1, patience=1)
        clf, _ = train_classifier(dataset, cfg, vocab_size=VOCAB_SIZE)
        save_classifier(clf, tmp_path / "clf.ckpt")

        def refuse(*args, **kwargs):
            raise AssertionError("a load drew a model")

        monkeypatch.setattr(classify, "draw_params", refuse)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        loaded = load_classifier(tmp_path / "clf.ckpt")
        assert (loaded.vocab_size, loaded.num_labels) == (VOCAB_SIZE, 2)
        assert all(loaded.params[k].data.tobytes() == p.data.tobytes()
                   for k, p in clf.params.items())


class TestAbExperiment:
    def test_none_arm_equals_direct_training(self):
        dataset = separable_dataset(n=60)
        cfg = CnnConfig(seed=0, max_epochs=3, patience=3)
        records, summary = ab_experiment(
            dataset, {"none": None}, "cnn", seeds=(7,), cfg=cfg, vocab_size=VOCAB_SIZE
        )
        direct_cfg = CnnConfig(seed=7, max_epochs=3, patience=3)
        clf, _ = train_cnn(dataset, direct_cfg, vocab_size=VOCAB_SIZE)
        direct = evaluate(clf, dataset.test, "test").accuracy["test"]
        assert records[0]["test_accuracy"] == direct
        assert summary["none"] == direct

    def test_records_and_mean_recomputation(self, tmp_path):
        dataset = separable_dataset(n=60)
        cfg = CnnConfig(seed=0, max_epochs=2, patience=2)

        def shrink(d, seed):
            return Dataset(train=d.train[: len(d.train) // 2], val=d.val, test=d.test, num_labels=2)

        records, summary = ab_experiment(
            dataset, {"none": None, "half": shrink}, "cnn", seeds=(1, 2),
            cfg=cfg, vocab_size=VOCAB_SIZE,
        )
        assert len(records) == 4
        path = tmp_path / "records.tsv"
        write_records(records, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# maskaug-ab-records v1"
        loaded = []
        for line in lines[2:]:
            arm, seed, acc, size, epochs = line.split("\t")
            loaded.append({
                "arm": arm, "seed": int(seed), "test_accuracy": float(acc),
                "train_size": int(size), "epochs_used": int(epochs),
            })
        assert loaded == records
        for arm in summary:
            accs = [r["test_accuracy"] for r in loaded if r["arm"] == arm]
            assert summary[arm] == pytest.approx(float(np.mean(accs)))
        table = format_table(records, summary)
        assert "none" in table and "half" in table and "mean" in table

    def test_seed_required(self):
        dataset = separable_dataset(n=20)
        with pytest.raises(ValueError):
            ab_experiment(dataset, {"none": None}, "cnn", (), CnnConfig(), VOCAB_SIZE)


    def test_classifier_must_be_the_kind_of_the_config(self):
        dataset = separable_dataset(n=20)
        with pytest.raises(ValueError) as info:
            ab_experiment(dataset, {"none": None}, "rnn", (1,), CnnConfig(), VOCAB_SIZE)
        assert str(info.value) == "classifier 'rnn' does not match its 'cnn' config"


class TestCrossValidation:
    def test_folds_cover_everything_once(self):
        dataset = separable_dataset(n=100)
        examples = dataset.train + dataset.val
        cfg = CnnConfig(seed=2, max_epochs=10, patience=10, lr=3e-3, dropout=0.0, batch_size=8)
        mean, per_fold = cross_validate(examples, 2, cfg, folds=5, vocab_size=VOCAB_SIZE)
        assert len(per_fold) == 5
        assert mean == pytest.approx(float(np.mean(per_fold)))
        assert mean > 0.7  # separable task, small folds
        again, _ = cross_validate(examples, 2, cfg, folds=5, vocab_size=VOCAB_SIZE)
        assert again == mean

    def test_validation_rows_mix_the_labels_of_a_sorted_input(self, monkeypatch):
        dataset = separable_dataset(n=100)
        examples = sorted(dataset.train + dataset.val, key=lambda e: e.label)  # 50 zeros, 50 ones
        real, val_labels = classify.train_classifier, []

        def spy(fold_data, *args):
            val_labels.append({e.label for e in fold_data.val})
            return real(fold_data, *args)

        monkeypatch.setattr(classify, "train_classifier", spy)
        cfg = CnnConfig(max_epochs=1, batch_size=16)
        cross_validate(examples, 2, cfg, folds=5, vocab_size=VOCAB_SIZE)
        assert val_labels == [{0, 1}] * 5

    def test_validation(self):
        dataset = separable_dataset(n=20)
        with pytest.raises(ValueError):
            cross_validate(dataset.train, 2, CnnConfig(), folds=1, vocab_size=VOCAB_SIZE)
        with pytest.raises(ValueError):
            cross_validate(dataset.train[:3], 2, CnnConfig(), folds=10, vocab_size=VOCAB_SIZE)
        # a fold of 3 held out of 5 leaves 2 examples: one to train, one to validate
        check_folds(5, 2, 2)
        check_folds(3, 3, 2)
        for n, folds in ((3, 2), (2, 2)):
            with pytest.raises(ValueError, match=f"{n} examples in {folds} folds leave 1 "):
                cross_validate(dataset.train[:n], 2, CnnConfig(), folds=folds, vocab_size=VOCAB_SIZE)


class TestGridSearch:
    def test_picks_best_validation_config(self):
        dataset = separable_dataset(n=60)
        base = CnnConfig(seed=1, max_epochs=2, patience=2)
        clf, report, trials = grid_search(dataset, base, vocab_size=VOCAB_SIZE)
        assert [(t["lr"], t["dropout"]) for t in trials] == [
            (lr, dropout) for lr in GRID["lr"] for dropout in GRID["dropout"]
        ]
        best_trial = max(trials, key=lambda t: t["val_accuracy"])  # the first of a tie
        assert clf.config == replace(base, lr=best_trial["lr"], dropout=best_trial["dropout"])
        assert report.accuracy["val"] == best_trial["val_accuracy"]

    @pytest.mark.parametrize("kind, make", [("cnn", CnnConfig), ("rnn", RnnConfig)])
    def test_returns_the_classifier_training_its_config_gives(self, kind, make):
        dataset = separable_dataset(n=40)
        base = make(seed=4, max_epochs=2, patience=2)
        clf, report, _ = grid_search(dataset, base, vocab_size=VOCAB_SIZE)
        again, again_report = train_classifier(dataset, clf.config, vocab_size=VOCAB_SIZE)
        assert clf.params.keys() == again.params.keys()
        for name, param in clf.params.items():
            assert np.array_equal(param.data, again.params[name].data), name
        assert clf.epochs_used == again.epochs_used
        assert report.accuracy == again_report.accuracy
        assert np.array_equal(report.confusion["val"], again_report.confusion["val"])
