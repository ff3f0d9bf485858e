import numpy as np
import pytest

from maskaug import classify
from maskaug.classify import (
    GRID,
    check_folds,
    CnnConfig,
    RnnConfig,
    _cnn_logits,
    _init_cnn,
    _init_rnn,
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
from maskaug.gradcheck import gradient_disagreement, numeric_gradient
from maskaug.tensor import Tensor
from maskaug import tensor as T
from maskaug.text import CLS_ID, NUM_SPECIALS, Dataset, LabeledExample
from maskaug.training import TrainingError

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


@pytest.mark.parametrize("make", [CnnConfig, RnnConfig])
@pytest.mark.parametrize("lr", [-1.0, 0.0])
def test_non_positive_lr_is_rejected(make, lr):
    with pytest.raises(ValueError) as info:
        make(lr=lr)
    assert str(info.value) == f"lr must be > 0, got {lr}"


@pytest.mark.parametrize("kind", ["cnn", "rnn"])
def test_predict_proba_equals_the_stable_exp_formula_bitwise(kind):
    dataset = separable_dataset(n=20)
    cfg = (CnnConfig if kind == "cnn" else RnnConfig)(seed=0, max_epochs=1, patience=1)
    clf, _ = train_classifier(dataset, kind, cfg, vocab_size=VOCAB_SIZE)
    for example in dataset.train[:6]:
        logits = predict_logits(clf, [example])[0]
        e = np.exp(logits - logits.max())
        assert np.array_equal(predict_proba(clf, example), e / e.sum())


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
        real = classify.evaluate

        def spy(clf, examples, split="test"):
            report = real(clf, examples, split)
            if split == "val":
                val_reports.append(report)
            return report

        monkeypatch.setattr(classify, "evaluate", spy)
        clf, report = train_cnn(dataset, cfg, vocab_size=VOCAB_SIZE)
        assert len(val_reports) == 3  # patience outlasts the epochs: no early stop
        kept = val_reports[clf.epochs_used - 1]
        assert report.accuracy["val"] == kept.accuracy["val"]
        assert np.array_equal(report.confusion["val"], kept.confusion["val"])
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

    def test_pooling_ignores_distant_order(self):
        # same window multiset => identical pooled features => identical logits
        cfg = CnnConfig(filter_widths=(2,), seed=0, max_epochs=1, patience=1)
        params = _init_cnn(cfg, VOCAB_SIZE, 2, np.random.default_rng(0))
        s1 = np.array([[ALPHA, BETA, ALPHA, BETA, ALPHA]])
        s2 = np.array([[BETA, ALPHA, BETA, ALPHA, BETA]])
        lengths = np.array([5])
        l1 = _cnn_logits(params, cfg, s1, lengths, None).data
        l2 = _cnn_logits(params, cfg, s2, lengths, None).data
        assert np.array_equal(l1, l2)

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
        params = _init_rnn(cfg, vocab_size=9, num_labels=2, rng=np.random.default_rng(1))
        token_ids = np.array(token_ids)
        lengths = np.array(lengths)
        names = list(params)
        weights = np.random.default_rng(2).normal(size=(len(lengths), 3))

        def states(ps):
            return T.lstm(
                ps["emb"], ps["w_ih"], ps["w_hh"], ps["b"], token_ids, lengths, cfg.state_dim
            )

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
        assert loaded.kind == "cnn" and loaded.config == cfg
        assert np.array_equal(
            predict_proba(loaded, dataset.train[0]), predict_proba(clf, dataset.train[0])
        )


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
            ab_experiment(dataset, {"none": None}, "cnn", seeds=(), vocab_size=VOCAB_SIZE)


class TestCrossValidation:
    def test_folds_cover_everything_once(self):
        dataset = separable_dataset(n=100)
        examples = dataset.train + dataset.val
        cfg = CnnConfig(seed=2, max_epochs=10, patience=10, lr=3e-3, dropout=0.0, batch_size=8)
        mean, per_fold = cross_validate(examples, 2, "cnn", cfg, folds=5, vocab_size=VOCAB_SIZE)
        assert len(per_fold) == 5
        assert mean == pytest.approx(float(np.mean(per_fold)))
        assert mean > 0.7  # separable task, small folds
        again, _ = cross_validate(examples, 2, "cnn", cfg, folds=5, vocab_size=VOCAB_SIZE)
        assert again == mean

    def test_validation(self):
        dataset = separable_dataset(n=20)
        with pytest.raises(ValueError):
            cross_validate(dataset.train, 2, "cnn", folds=1, vocab_size=VOCAB_SIZE)
        with pytest.raises(ValueError):
            cross_validate(dataset.train[:3], 2, "cnn", folds=10, vocab_size=VOCAB_SIZE)
        # a fold of 3 held out of 5 leaves 2 examples: one to train, one to validate
        check_folds(5, 2)
        check_folds(3, 3)
        for n, folds in ((3, 2), (2, 2)):
            with pytest.raises(ValueError, match=f"{n} examples in {folds} folds leave 1 "):
                cross_validate(dataset.train[:n], 2, "cnn", folds=folds, vocab_size=VOCAB_SIZE)


class TestGridSearch:
    def test_picks_best_validation_config(self):
        dataset = separable_dataset(n=60)
        base = CnnConfig(seed=1, max_epochs=2, patience=2)
        best, trials = grid_search(dataset, "cnn", base, vocab_size=VOCAB_SIZE)
        assert [(t["lr"], t["dropout"]) for t in trials] == [
            (lr, dropout) for lr in GRID["lr"] for dropout in GRID["dropout"]
        ]
        best_trial = max(trials, key=lambda t: t["val_accuracy"])
        assert (best.lr, best.dropout) == (best_trial["lr"], best_trial["dropout"])
