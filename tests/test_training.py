from dataclasses import replace

import numpy as np
import pytest

from maskaug import tensor as T
from maskaug import training
from maskaug.encoder import EncoderConfig, forward, init_params
from maskaug.seeding import derive_rng
from maskaug.text import CLS_ID, MASK_ID, NUM_SPECIALS, Dataset, LabeledExample
from maskaug.training import (
    IGNORE_ID,
    MaskPolicy,
    SkipExample,
    TrainConfig,
    TrainingError,
    _train_masked_lm,
    collate_masked,
    finetune_cmlm,
    fit,
    mask_tokens,
    masked_loss,
    maskable_positions,
    pretrain_mlm,
    write_metrics,
)
from maskaug.tensor import Tensor


def example(n_words: int, label: int = 0, start: int = NUM_SPECIALS) -> LabeledExample:
    return LabeledExample((CLS_ID,) + tuple(start + i for i in range(n_words)), label)


def template_dataset(vocab_size: int = 14, n: int = 50) -> Dataset:
    """Sentences with strong positional regularities, learnable in a few epochs."""
    rng = np.random.default_rng(0)
    train, val = [], []
    for i in range(n):
        a = NUM_SPECIALS + int(rng.integers(3))
        b = NUM_SPECIALS + 3 + int(rng.integers(3))
        c = NUM_SPECIALS + 6 + int(rng.integers(3))
        ex = LabeledExample((CLS_ID, a, b, c, a), i % 2)
        (val if i % 10 == 0 else train).append(ex)
    return Dataset(train=train, val=val, test=[], num_labels=2)


class TestConfigs:
    def test_epoch_bounds(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=51)
        TrainConfig(epochs=1)
        TrainConfig(epochs=50)

    @pytest.mark.parametrize(
        "make, field, value",
        [(TrainConfig, "epochs", 1.5), (TrainConfig, "lr", "0.1"), (TrainConfig, "seed", True),
         (MaskPolicy, "ratio", "0.2"), (MaskPolicy, "k", 2.0),
         pytest.param(TrainConfig, "clip_norm", [1], id="TrainConfig-clip_norm-list"),
         pytest.param(TrainConfig, "clip_norm", True, id="TrainConfig-clip_norm-bool")],
    )
    def test_ill_typed_field_raises_value_error_naming_it(self, make, field, value):
        with pytest.raises(ValueError, match=field):
            make(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("lr", -1.0), ("lr", 0), ("lr", float("nan")), ("clip_norm", 0.0), ("clip_norm", -1)],
    )
    def test_value_that_trains_the_wrong_way_is_rejected(self, field, value):
        bound = "> 0" if field == "lr" else "> 0 or null"
        with pytest.raises(ValueError) as info:
            TrainConfig(**{field: value})
        assert str(info.value) == f"{field} must be {bound}, got {value}"

    def test_clip_norm_may_be_off(self):
        assert TrainConfig(clip_norm=None).clip_norm is None

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            MaskPolicy(mode="nope")
        with pytest.raises(ValueError):
            MaskPolicy(k=0)


class TestMaskTokens:
    def test_fixed_k_masks_exactly_k(self):
        policy = MaskPolicy(mode="fixed_k", k=2)
        rng = np.random.default_rng(0)
        corrupted, targets = mask_tokens(example(10), policy, vocab_size=20, rng=rng)
        scored = [i for i, t in enumerate(targets) if t != IGNORE_ID]
        assert len(scored) == 2
        assert 0 not in scored  # CLS is never a target
        assert len(corrupted) == 11

    def test_bert_corruption_split(self):
        # a chosen position becomes the mask id 80% of the time and a random
        # content id 10%; 1 in 16 of those random ids at V=20 is the original
        policy = MaskPolicy(mode="fixed_k", k=1)
        rng = np.random.default_rng(1)
        counts = {"mask": 0, "random": 0, "kept": 0}
        for _ in range(10_000):
            corrupted, targets = mask_tokens(example(10), policy, vocab_size=20, rng=rng)
            pos = next(i for i, t in enumerate(targets) if t != IGNORE_ID)
            if corrupted[pos] == MASK_ID:
                counts["mask"] += 1
            elif corrupted[pos] == targets[pos]:
                counts["kept"] += 1
            else:
                assert NUM_SPECIALS <= corrupted[pos] < 20
                counts["random"] += 1
        want = {"mask": 0.8, "random": 0.1 * 15 / 16, "kept": 0.1 + 0.1 / 16}
        for name, frac in want.items():
            assert abs(counts[name] / 10_000 - frac) <= 0.015, name

    def test_too_few_maskable_raises_skip(self):
        policy = MaskPolicy(mode="fixed_k", k=3)
        with pytest.raises(SkipExample):
            mask_tokens(example(2), policy, vocab_size=20, rng=np.random.default_rng(0))

    def test_ratio_mode_masks_at_least_one(self):
        policy = MaskPolicy(mode="ratio", ratio=0.01)
        rng = np.random.default_rng(2)
        for _ in range(50):
            _, targets = mask_tokens(example(5), policy, vocab_size=20, rng=rng)
            assert sum(t != IGNORE_ID for t in targets) >= 1

    def test_no_maskable_tokens_raises_skip(self):
        only_specials = LabeledExample((CLS_ID, 1, 2), 0)
        with pytest.raises(SkipExample):
            mask_tokens(only_specials, MaskPolicy(), vocab_size=20, rng=np.random.default_rng(0))

    def test_uniform_position_frequency(self):
        policy = MaskPolicy(mode="fixed_k", k=1)
        rng = np.random.default_rng(3)
        counts = np.zeros(11)
        for _ in range(10_000):
            _, targets = mask_tokens(example(10), policy, vocab_size=20, rng=rng)
            counts[targets.index(next(t for t in targets if t != IGNORE_ID))] += 1
        assert counts[0] == 0
        assert np.all(np.abs(counts[1:] - 1000) <= 150)

    def test_maskable_positions_exclude_specials(self):
        tokens = (CLS_ID, 0, 1, 2, 3, 7, 9)
        assert maskable_positions(tokens) == [5, 6]


class TestCollate:
    def test_shapes_and_conditions(self):
        policy = MaskPolicy(mode="fixed_k", k=1)
        rng = np.random.default_rng(0)
        batch = collate_masked(
            [example(4, label=1), example(6, label=0)], policy, 20, rng, label_conditions=True
        )
        assert batch.token_ids.shape == (2, 7)
        assert batch.pad_mask[0, 5] == 0.0
        assert set(batch.cond_ids[0, :5]) == {1}
        assert set(batch.cond_ids[1]) == {0}

    def test_all_skipped_returns_none(self):
        policy = MaskPolicy(mode="fixed_k", k=5)
        rng = np.random.default_rng(0)
        assert collate_masked([example(2)], policy, 20, rng, False) is None


@pytest.fixture(scope="module")
def trained():
    dataset = template_dataset()
    config = EncoderConfig(
        vocab_size=14, layers=1, hidden=16, heads=2, ff=32, max_len=8,
        num_conditions=2, dropout=0.0,
    )
    cfg = TrainConfig(epochs=8, batch_size=16, lr=3e-3, patience=8, seed=9)
    params, history = pretrain_mlm(dataset, config, MaskPolicy(ratio=0.3), cfg)
    return dataset, config, cfg, params, history


class TestPretrain:
    def test_beats_chance(self, trained):
        dataset, config, _, _, history = trained
        final = [h for h in history if h["split"] == "val"][-1]
        assert final["masked_acc"] > 1.0 / config.vocab_size

    def test_bitwise_reproducible(self, trained):
        dataset, config, cfg, params, history = trained
        again, history2 = pretrain_mlm(dataset, config, MaskPolicy(ratio=0.3), cfg)
        assert history == history2
        assert all(np.array_equal(params[k].data, again[k].data) for k in params)

    def test_empty_corpus_rejected(self, trained):
        _, config, cfg, _, _ = trained
        empty = Dataset(train=[], val=[], test=[], num_labels=1)
        with pytest.raises(TrainingError):
            pretrain_mlm(empty, config, MaskPolicy(), cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_poisoned_weights_raise_training_error(self, trained):
        dataset, config, cfg, _, _ = trained
        params = init_params(config, np.random.default_rng(0))
        params["token_emb"] = Tensor(
            np.full_like(params["token_emb"].data, np.inf), requires_grad=True
        )
        with pytest.raises(TrainingError, match="step"):
            finetune_cmlm(dataset, params, config, MaskPolicy(), cfg)


class TestFinetune:
    def test_condition_table_sized_to_labels(self, trained):
        dataset, config, cfg, params, _ = trained
        tuned, tuned_config, _ = finetune_cmlm(dataset, params, config, MaskPolicy(ratio=0.3), cfg)
        assert tuned["cond_emb"].data.shape == (2, config.hidden)
        assert tuned_config.num_conditions == 2

    def test_caller_params_never_mutated(self, trained):
        dataset, config, cfg, params, _ = trained
        before = {k: p.data.copy() for k, p in params.items()}
        finetune_cmlm(dataset, params, config, MaskPolicy(), cfg)
        for k, p in params.items():
            assert p.grad is None
            assert np.array_equal(p.data, before[k])

    def test_single_label_reduces_to_unconditional_training(self, trained):
        dataset, config, cfg, params, _ = trained
        flat = Dataset(
            train=[LabeledExample(ex.tokens, 0) for ex in dataset.train],
            val=[LabeledExample(ex.tokens, 0) for ex in dataset.val],
            test=[],
            num_labels=1,
        )
        policy = MaskPolicy(ratio=0.3)
        tuned, tuned_config, hist_cond = finetune_cmlm(flat, params, config, policy, cfg)
        assert tuned_config.num_conditions == 1

        from maskaug.encoder import swap_condition_table

        start = swap_condition_table(params, 1, derive_rng(cfg.seed, "cond-swap"))
        plain, hist_plain = _train_masked_lm(
            flat.train, flat.val, start, replace(config, num_conditions=1), policy, cfg,
            label_conditions=False, phase="finetune",
        )
        assert hist_cond == hist_plain
        assert all(np.array_equal(tuned[k].data, plain[k].data) for k in tuned)


def test_write_metrics_format(tmp_path, trained):
    *_, history = trained
    path = tmp_path / "metrics.tsv"
    write_metrics(history, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# maskaug-metrics v1"
    assert len(lines) == 2 + len(history)
    epoch, split, loss, acc = lines[2].split("\t")
    assert split in ("train", "val")
    float(loss), float(acc)


def _full_head_loss(params, config, batch, rng):
    """Masked loss over every (B * T) head row, the formula the scored-row head replaces."""
    logits = forward(params, config, batch, rng=rng)
    b, t, v = logits.data.shape
    flat = T.reshape(logits, (b * t, v))
    targets = batch.targets.reshape(-1)
    loss, scored = T.cross_entropy(flat, targets, ignore_index=IGNORE_ID)
    live = targets != IGNORE_ID
    acc = float((flat.data[live].argmax(axis=1) == targets[live]).mean()) if scored else 0.0
    return loss, scored, acc


@pytest.mark.parametrize(
    "all_ignored, layers",
    [
        pytest.param(False, 1, id="scored"),
        pytest.param(True, 1, id="all-ignored"),
        # a full-width layer below the pruned last one
        pytest.param(False, 2, id="scored-2-layers"),
        pytest.param(True, 2, id="all-ignored-2-layers"),
    ],
)
def test_masked_loss_matches_full_head_cross_entropy(all_ignored, layers):
    config = EncoderConfig(
        vocab_size=14, layers=layers, hidden=8, heads=2, ff=16, max_len=8,
        num_conditions=2, dropout=0.2,
    )
    batch = collate_masked(
        template_dataset().train[:6], MaskPolicy(ratio=0.4), config.vocab_size,
        np.random.default_rng(0), label_conditions=True,
    )
    if all_ignored:
        batch.targets[:] = IGNORE_ID

    def run(loss_fn):
        params = init_params(config, np.random.default_rng(5))
        rng = np.random.default_rng(9)
        loss, scored, acc = loss_fn(params, config, batch, rng)
        if scored:
            loss.backward()
        grads = {k: p.grad for k, p in params.items()}
        return float(loss.data), scored, acc, grads, rng.random()

    fast = run(lambda p, c, b, rng: masked_loss(p, c, b, rng))
    slow = run(_full_head_loss)
    assert fast[1] == slow[1] == (0 if all_ignored else int((batch.targets != IGNORE_ID).sum()))
    assert abs(fast[0] - slow[0]) <= 1e-12 and abs(fast[2] - slow[2]) <= 1e-12
    assert fast[4] == slow[4]  # dropout drew the same stream
    for name, want in slow[3].items():
        got = fast[3][name]
        if want is None:
            assert got is None, name
        else:
            assert np.max(np.abs(got - want)) <= 1e-12, name


def test_fit_shuffles_and_drops_out_from_its_seed_and_phase():
    examples = [example(1, start=NUM_SPECIALS + i) for i in range(7)]
    seen, draws = [], []

    def chunk_loss(params, chunk, rng):
        seen.extend(chunk)
        draws.append(rng.random())
        return T.reduce_sum(params["w"]), len(chunk), 0.0

    fit(
        {"w": Tensor(np.zeros(2), requires_grad=True)}, examples, chunk_loss,
        lambda params, epoch, loss, acc: 0.0,
        epochs=2, batch_size=3, lr=0.1, patience=5, clip_norm=None, seed=9, phase="probe",
    )
    shuffle = derive_rng(9, "probe", "shuffle")
    assert seen == [examples[i] for _ in range(2) for i in shuffle.permutation(len(examples))]
    dropout = derive_rng(9, "probe", "dropout")
    assert len(draws) == 6 and draws == [dropout.random() for _ in draws]


def _val_pinned_run(phase, monkeypatch):
    """A 3-epoch run whose validation split holds skipped sentences and a
    wholly skipped batch; returns (history, val examples, the encoder config
    trained, the parameters each epoch's validation scored, policy, cfg)."""
    base = template_dataset()
    bare = LabeledExample((CLS_ID,), 1)  # no maskable token: collate skips it
    dataset = replace(base, val=base.val + [bare, bare])
    config = EncoderConfig(
        vocab_size=14, layers=1, hidden=8, heads=2, ff=16, max_len=8,
        num_conditions=2, dropout=0.1,
    )
    policy = MaskPolicy(ratio=0.3)
    cfg = TrainConfig(epochs=3, batch_size=2, lr=3e-3, patience=3, seed=4)
    scored = []
    real_fit = training.fit

    def spy_fit(params, examples, chunk_loss, validate, **kw):
        def spy(p, *rest):
            scored.append({k: Tensor(v.data.copy()) for k, v in p.items()})
            return validate(p, *rest)

        return real_fit(params, examples, chunk_loss, spy, **kw)

    monkeypatch.setattr(training, "fit", spy_fit)
    if phase == "pretrain":
        _, history = pretrain_mlm(dataset, config, policy, cfg)
    else:
        start = init_params(config, np.random.default_rng(3))
        _, config, history = finetune_cmlm(dataset, start, config, policy, cfg)
    return history, dataset.val, config, scored, policy, cfg


@pytest.mark.parametrize("phase", ["pretrain", "finetune"])
def test_val_history_equals_serial_reference(phase, monkeypatch):
    history, val, config, scored, policy, cfg = _val_pinned_run(phase, monkeypatch)
    assert len(scored) == 3
    want = []
    for epoch, params in enumerate(scored, start=1):
        # the reference re-derives the stream and re-masks the split every epoch
        rng = derive_rng(cfg.seed, phase, "eval-mask")
        loss_sum, scored_sum, correct_sum = 0.0, 0, 0.0
        for start in range(0, len(val), cfg.batch_size):
            batch = collate_masked(
                val[start : start + cfg.batch_size], policy, config.vocab_size, rng,
                label_conditions=phase == "finetune",
            )
            if batch is None:
                continue
            loss, n, acc = masked_loss(params, config, batch, None)
            loss_sum += float(loss.data) * n
            scored_sum += n
            correct_sum += acc * n
        want.append({"epoch": epoch, "split": "val", "loss": loss_sum / scored_sum,
                     "masked_acc": correct_sum / scored_sum})
    assert [h for h in history if h["split"] == "val"] == want


def test_eval_mask_stream_is_derived_once_per_run(monkeypatch):
    calls = []
    real = training.derive_rng

    def counting(root, *parts):
        if "eval-mask" in parts:
            calls.append(parts)
        return real(root, *parts)

    monkeypatch.setattr(training, "derive_rng", counting)
    _val_pinned_run("pretrain", monkeypatch)
    assert calls == [("pretrain", "eval-mask")]
    _val_pinned_run("finetune", monkeypatch)
    assert calls == [("pretrain", "eval-mask"), ("finetune", "eval-mask")]


def test_validation_split_of_skipped_sentences_is_training_error():
    dataset = replace(template_dataset(), val=[LabeledExample((CLS_ID,), 0)] * 3)
    config = EncoderConfig(vocab_size=14, layers=1, hidden=8, heads=2, ff=16, max_len=8)
    cfg = TrainConfig(epochs=2, batch_size=2, seed=1)
    with pytest.raises(TrainingError, match="validation loss became NaN at epoch 1"):
        pretrain_mlm(dataset, config, MaskPolicy(), cfg)
