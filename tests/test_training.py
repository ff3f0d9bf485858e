from contextlib import contextmanager, nullcontext
from dataclasses import replace

import numpy as np
import pytest

from maskaug import optim
from maskaug import tensor as T
from maskaug import training
from maskaug.encoder import EncoderConfig, forward, init_params
from maskaug.optim import BETA1, BETA2, EPS, AdamState, adam_step
from maskaug.seeding import derive_rng
from maskaug.text import CLS_ID, MASK_ID, NUM_SPECIALS, UNK_ID, Dataset, LabeledExample
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
        bound = "(0, inf)" if field == "lr" else "(0, inf] or be null"
        with pytest.raises(ValueError) as info:
            TrainConfig(**{field: value})
        assert str(info.value) == f"{field} must lie in {bound}, got {value}"

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


def _fit_on_w(params, chunk_loss, validate, epochs=3, clip_norm=1.0):
    examples = [example(1, start=NUM_SPECIALS + i) for i in range(4)]
    return fit(
        params, examples, chunk_loss, validate, epochs=epochs, batch_size=2, lr=0.1,
        patience=epochs, clip_norm=clip_norm, seed=0, phase="probe",
    )


def _w_loss(params, chunk, rng):
    return T.reduce_sum(T.mul(params["w"], params["w"])), len(chunk), 0.0


def test_fit_leaves_the_callers_parameters_untouched():
    w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    _fit_on_w({"w": w}, _w_loss, lambda params, epoch, loss, acc: float(epoch))
    assert np.array_equal(w.data, [1.0, -2.0]) and w.grad is None


def test_fit_returns_parameters_that_later_steps_do_not_move():
    seen = []

    def validate(params, epoch, loss, acc):
        seen.append(params["w"].data.copy())
        return -float(epoch)  # the first epoch stays best

    best, epoch = _fit_on_w({"w": Tensor(np.array([1.0, -2.0]))}, _w_loss, validate)
    assert epoch == 1 and len(seen) == 3
    assert np.array_equal(best["w"].data, seen[0])
    assert not np.array_equal(seen[0], seen[2])


def _take_clip_step(flat, m, v, grads, step, lr, clip_norm):
    """The three-call optimizer step on flat copies: take the gradients into one
    buffer, clip them by their norm summed parameter by parameter, then update
    with Adam's element operations in their order. Returns (params, m, v, fired)."""
    g = np.concatenate([grad.ravel() for grad in grads])
    fired = False
    if clip_norm is not None:
        squares, start, total = g * g, 0, 0.0
        for grad in grads:
            part = squares[start : start + grad.size].reshape(grad.shape)
            total += float(np.add.reduce(part, axis=None))
            start += grad.size
        norm = float(np.sqrt(total))
        fired = not (norm <= clip_norm or norm == 0.0)
        if fired:
            g = g * (clip_norm / norm)
    t = step + 1
    m = m * BETA1 + g * (1.0 - BETA1)
    v = v * BETA2 + (g * g) * (1.0 - BETA2)
    update = (m / (1.0 - BETA1**t)) * lr / (np.sqrt(v / (1.0 - BETA2**t)) + EPS)
    return flat - update, m, v, fired


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("clip", ["fires", "quiet", "off"])
def test_one_adam_step_call_equals_take_clip_step_in_bytes(seed, clip):
    rng = np.random.default_rng(seed)
    shapes = [tuple(int(n) for n in rng.integers(1, 60, size=rng.integers(1, 3)))
              for _ in range(rng.integers(2, 5))]
    start = {f"p{i}": Tensor(rng.normal(size=shape)) for i, shape in enumerate(shapes)}
    lr = float(rng.uniform(1e-3, 0.1))
    clip_norm = {"fires": 0.5, "quiet": 1e6, "off": None}[clip]
    state = AdamState(start, lr)
    flat = np.concatenate([p.data.ravel() for p in start.values()])
    m, v = np.zeros(flat.size), np.zeros(flat.size)
    for step in range(3):
        grads = [rng.normal(size=shape) for shape in shapes]  # joint norm well above 0.5
        for p, grad in zip(state.params.values(), grads):
            p.grad = grad.copy()
        adam_step(state, clip_norm)
        flat, m, v, fired = _take_clip_step(flat, m, v, grads, step, lr, clip_norm)
        assert fired == (clip == "fires")
        params = [p.data for p in state.params.values()]
        for got, want in [(params, flat), (state.m.values(), m), (state.v.values(), v)]:
            assert np.concatenate([x.ravel() for x in got]).tobytes() == want.tobytes()


@pytest.mark.parametrize("clip_norm", [1.0, None])
def test_fit_calls_the_optimizer_once_per_step(clip_norm, monkeypatch):
    calls = {"adam_step": 0, "clip_by_global_norm": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(training, "adam_step", counted(optim.adam_step))
    monkeypatch.setattr(optim, "clip_by_global_norm", counted(optim.clip_by_global_norm))
    steps = []

    def chunk_loss(params, chunk, rng):
        steps.append(chunk)
        return _w_loss(params, chunk, rng)

    _fit_on_w({"w": Tensor(np.array([1.0, -2.0]))}, chunk_loss,
              lambda params, epoch, loss, acc: 0.0, clip_norm=clip_norm)
    assert len(steps) == 6
    assert calls == {"adam_step": 6, "clip_by_global_norm": 6 if clip_norm else 0}


def test_fit_names_a_parameter_left_without_gradient():
    params = {"w": Tensor(np.ones(2)), "unused": Tensor(np.ones(3))}
    with pytest.raises(TrainingError, match=r"probe: no gradient for \['unused'\]"):
        _fit_on_w(params, _w_loss, lambda params, epoch, loss, acc: 0.0)


def _val_pinned_run(phase, monkeypatch, around=nullcontext):
    """A 3-epoch run whose validation split holds skipped sentences and a
    wholly skipped batch, each validation call made inside `around()`;
    returns (history, val examples, the encoder config trained, the
    parameters each epoch's validation scored, policy, cfg)."""
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
            with around():
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


@pytest.mark.parametrize("phase", ["pretrain", "finetune"])
def test_validation_builds_no_graph(phase, monkeypatch):
    real_node, guarded = T._node, []

    def node_without_trainable_parent(data, parents, backward):
        if any(p.requires_grad for p in parents):
            raise AssertionError("validation built a graph node on a trainable tensor")
        return real_node(data, parents, backward)

    @contextmanager
    def no_graph():  # training steps outside validation still build their graphs
        guarded.append(True)
        with monkeypatch.context() as m:
            m.setattr(T, "_node", node_without_trainable_parent)
            yield

    history, *_ = _val_pinned_run(phase, monkeypatch, around=no_graph)
    assert len(guarded) == 3 and len(history) == 6


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


def test_training_split_of_skipped_sentences_is_training_error():
    # no word is maskable, so every chunk is skipped and no epoch makes a step
    unmaskable = [LabeledExample((CLS_ID, UNK_ID, UNK_ID), 0)] * 4
    dataset = replace(template_dataset(), train=unmaskable)
    config = EncoderConfig(vocab_size=14, layers=1, hidden=8, heads=2, ff=16, max_len=8)
    cfg = TrainConfig(epochs=2, batch_size=2, seed=1)
    with pytest.raises(TrainingError, match="^pretrain: epoch 1 made no training step$"):
        pretrain_mlm(dataset, config, MaskPolicy(), cfg)


def test_validation_split_of_skipped_sentences_is_training_error(monkeypatch):
    # nothing in the split can be scored: refused before a training step runs
    dataset = replace(template_dataset(), val=[LabeledExample((CLS_ID,), 0)] * 3)
    config = EncoderConfig(vocab_size=14, layers=1, hidden=8, heads=2, ff=16, max_len=8)
    cfg = TrainConfig(epochs=2, batch_size=2, seed=1)

    def no_fit(*args, **kwargs):
        raise AssertionError("fit ran")

    monkeypatch.setattr(training, "fit", no_fit)
    message = "^pretrain: no validation sentence has a maskable word$"
    with pytest.raises(TrainingError, match=message):
        pretrain_mlm(dataset, config, MaskPolicy(), cfg)
