import json
from dataclasses import replace

import numpy as np
import pytest

from maskaug import encoder
from maskaug import tensor as T
from maskaug.checkpoint import CheckpointError
from maskaug.encoder import (
    EncoderConfig,
    batch_from_examples,
    forward,
    init_params,
    load_encoder,
    mlm_distribution,
    mlm_distributions,
    save_encoder,
    swap_condition_table,
)
from maskaug.gradcheck import gradient_disagreement, numeric_gradient
from maskaug.tensor import Tensor
from maskaug.text import CLS_ID, MASK_ID, PAD_ID
from maskaug.training import IGNORE_ID


@pytest.fixture(scope="module")
def tiny():
    config = EncoderConfig(
        vocab_size=13, layers=2, hidden=8, heads=2, ff=16, max_len=8,
        num_conditions=2, dropout=0.0,
    )
    params = init_params(config, np.random.default_rng(7))
    return params, config


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ValueError):
            EncoderConfig(vocab_size=10, hidden=10, heads=3)

    def test_json_round_trip(self, tmp_path):
        # the config travels in the checkpoint's JSON sidecar, keys sorted
        config = EncoderConfig(vocab_size=21, num_conditions=5)
        path = tmp_path / "enc.ckpt"
        save_encoder(init_params(config, np.random.default_rng(0)), config, path)
        assert load_encoder(path)[1] == config
        sidecar = json.loads((tmp_path / "enc.ckpt.json").read_text())
        assert sidecar["format"] == "maskaug-encoder-config v1"
        assert list(sidecar) == sorted(sidecar)

    def test_condition_count_floor(self):
        with pytest.raises(ValueError):
            EncoderConfig(vocab_size=10, num_conditions=0)

    @pytest.mark.parametrize(
        "field, value",
        [("hidden", "x"), ("vocab_size", "10"), ("layers", 1.5), ("layers", True),
         ("max_len", None), ("dropout", "a"), ("dropout", False), ("heads", 0)],
    )
    def test_bad_field_raises_value_error_naming_it(self, field, value):
        with pytest.raises(ValueError, match=field):
            EncoderConfig(**{"vocab_size": 10, field: value})

    @pytest.mark.parametrize(
        "fields, message",
        [pytest.param({"layers": -1}, "layers must be >= 0, got -1", id="layers"),
         pytest.param({"hidden": 1, "heads": 1}, "hidden must be >= 2, got 1", id="hidden-1"),
         pytest.param({"hidden": 0}, "hidden must be >= 2, got 0", id="hidden-0"),
         pytest.param({"ff": 0}, "ff must be >= 1, got 0", id="ff")],
    )
    def test_size_that_cannot_build_a_model_is_rejected(self, fields, message):
        with pytest.raises(ValueError) as info:
            EncoderConfig(vocab_size=10, **fields)
        assert str(info.value) == message

    @pytest.mark.parametrize("vocab_size", [0, -3])
    def test_empty_vocabulary_is_rejected(self, vocab_size):
        with pytest.raises(ValueError) as info:
            EncoderConfig(vocab_size=vocab_size)
        assert str(info.value) == f"vocab_size must be >= 1, got {vocab_size}"

    def test_zero_layers_accepted(self):
        assert EncoderConfig(vocab_size=10, layers=0).layers == 0

    def test_integral_dropout_accepted(self):
        assert EncoderConfig(vocab_size=10, dropout=0).dropout == 0


def reference_draws(config, rng):
    """The encoder's fresh parameters written out draw by draw: every weight
    N(0, 0.02) from `rng` in this order, gains at 1 and biases at 0."""
    h, f, v = config.hidden, config.ff, config.vocab_size
    out = {}

    def normal(name, *shape):
        out[name] = rng.normal(0.0, 0.02, size=shape)

    def const(name, value, n):
        out[name] = np.full(n, value)

    normal("token_emb", v, h)
    normal("pos_emb", config.max_len, h)
    normal("cond_emb", config.num_conditions, h)
    for i in range(config.layers):
        const(f"layer{i}.ln1_gain", 1.0, h)
        const(f"layer{i}.ln1_bias", 0.0, h)
        normal(f"layer{i}.wq", h, h)
        const(f"layer{i}.bq", 0.0, h)
        normal(f"layer{i}.wk", h, h)
        const(f"layer{i}.bk", 0.0, h)
        normal(f"layer{i}.wv", h, h)
        const(f"layer{i}.bv", 0.0, h)
        normal(f"layer{i}.wo", h, h)
        const(f"layer{i}.bo", 0.0, h)
        const(f"layer{i}.ln2_gain", 1.0, h)
        const(f"layer{i}.ln2_bias", 0.0, h)
        normal(f"layer{i}.ffn_w1", h, f)
        const(f"layer{i}.ffn_b1", 0.0, f)
        normal(f"layer{i}.ffn_w2", f, h)
        const(f"layer{i}.ffn_b2", 0.0, h)
    const("final_ln_gain", 1.0, h)
    const("final_ln_bias", 0.0, h)
    normal("mlm_w", h, h)
    const("mlm_b", 0.0, h)
    const("mlm_ln_gain", 1.0, h)
    const("mlm_ln_bias", 0.0, h)
    const("mlm_out_bias", 0.0, v)
    return out


class TestInitParams:
    @pytest.mark.parametrize("layers", [0, 2])
    def test_draws_equal_the_written_out_sequence_bit_for_bit(self, layers):
        config = EncoderConfig(vocab_size=17, layers=layers, hidden=6, heads=2, ff=10,
                               max_len=9, num_conditions=3)
        params = init_params(config, np.random.default_rng(23))
        want = reference_draws(config, np.random.default_rng(23))
        assert list(params) == list(want)
        for name, value in want.items():
            assert params[name].requires_grad, name
            assert params[name].data.shape == value.shape, name
            assert params[name].data.tobytes() == value.tobytes(), name


class TestForward:
    def test_output_shape(self, tiny):
        params, config = tiny
        batch = batch_from_examples([[CLS_ID, 5, 6]], [0])
        logits = forward(params, config, batch)
        assert logits.data.shape == (1, 3, config.vocab_size)

    def test_pad_content_cannot_leak(self, tiny):
        params, config = tiny
        rows = [[CLS_ID, 5, 6], [CLS_ID, 4, 5, 6, 4, 5]]
        a = batch_from_examples(rows, [1, 0])
        b = batch_from_examples(rows, [1, 0])
        b.token_ids[0, 3:] = [7, 8, 9]  # junk under the short row's padding
        la = forward(params, config, a).data
        lb = forward(params, config, b).data
        assert np.array_equal(la[0, :3], lb[0, :3])
        assert np.array_equal(la[1], lb[1])

    def test_eval_mode_deterministic(self, tiny):
        params, config = tiny
        batch = batch_from_examples([[CLS_ID, 4, 5, 6]], [1])
        one = forward(params, config, batch).data
        two = forward(params, config, batch).data
        assert np.array_equal(one, two)

    def test_too_long_rejected(self, tiny):
        params, config = tiny
        batch = batch_from_examples([[CLS_ID] + [4] * config.max_len], [0])
        with pytest.raises(ValueError):
            forward(params, config, batch)

    @pytest.mark.parametrize("entry", ["forward", "mlm_distributions"])
    @pytest.mark.parametrize("offset", [-1, 0], ids=["negative", "num-conditions"])
    def test_condition_out_of_range(self, tiny, entry, offset):
        params, config = tiny
        cond = -1 if offset < 0 else config.num_conditions
        message = rf"condition id {cond} out of range \[0, {config.num_conditions}\)"
        with pytest.raises(IndexError, match=message):
            if entry == "forward":
                forward(params, config, batch_from_examples([[CLS_ID, 4]], [cond]))
            else:
                queries = [([CLS_ID, 4, 5], [1], 0), ([CLS_ID, 4], [1], cond)]
                mlm_distributions(params, config, queries)

    def test_full_model_gradient_check(self, tiny):
        params, config = tiny
        batch = batch_from_examples([[CLS_ID, 5, 6, 7], [CLS_ID, 8, 9]], [0, 1])
        targets = np.full(batch.token_ids.shape, IGNORE_ID)
        targets[0, 2] = 10
        targets[1, 1] = 4
        flat_targets = targets.reshape(-1)
        names = list(params)

        def loss_value(arrays):
            ps = dict(zip(names, (Tensor(a) for a in arrays)))
            logits = forward(ps, config, batch)
            b, t, v = logits.data.shape
            flat = T.reshape(logits, (b * t, v))
            return float(T.cross_entropy(flat, flat_targets, ignore_index=IGNORE_ID)[0].data)

        logits = forward(params, config, batch)
        b, t, v = logits.data.shape
        loss, _ = T.cross_entropy(
            T.reshape(logits, (b * t, v)), flat_targets, ignore_index=IGNORE_ID
        )
        loss.backward()
        arrays = [p.data for p in params.values()]
        worst = 0.0
        for i, name in enumerate(names):
            numeric = numeric_gradient(loss_value, arrays, i)
            analytic = params[name].grad
            if analytic is None:
                analytic = np.zeros_like(params[name].data)
            worst = max(worst, gradient_disagreement(analytic, numeric))
            params[name].grad = None
        assert worst < 1e-3


class TestMlmDistribution:
    def test_rows_sum_to_one(self, tiny):
        params, config = tiny
        probs = mlm_distribution(params, config, [CLS_ID, 5, 6, 7], [1, 3], cond_id=1)
        assert probs.shape == (2, config.vocab_size)
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-9)

    def test_single_position_single_row(self, tiny):
        params, config = tiny
        probs = mlm_distribution(params, config, [CLS_ID, 5, 6], [2], cond_id=0)
        assert probs.shape == (1, config.vocab_size)

    def test_empty_positions_rejected(self, tiny):
        params, config = tiny
        with pytest.raises(ValueError):
            mlm_distribution(params, config, [CLS_ID, 5], [], cond_id=0)

    def test_cls_not_maskable(self, tiny):
        params, config = tiny
        with pytest.raises(ValueError):
            mlm_distribution(params, config, [CLS_ID, 5], [0], cond_id=0)

    def test_pad_not_maskable(self, tiny):
        params, config = tiny
        with pytest.raises(ValueError):
            mlm_distribution(params, config, [CLS_ID, 5, PAD_ID], [2], cond_id=0)

    def test_position_out_of_range(self, tiny):
        params, config = tiny
        with pytest.raises(IndexError):
            mlm_distribution(params, config, [CLS_ID, 5], [5], cond_id=0)


class TestScoredRows:
    """The head on chosen rows against the full (B, T, V) forward it replaces."""

    def test_forward_rows_match_full_forward(self, tiny):
        params, config = tiny
        batch = batch_from_examples([[CLS_ID, 5, 6, 7, 8], [CLS_ID, 9, 10]], [0, 1])
        full = forward(params, config, batch).data
        b, t, v = full.shape
        rows = np.array([6, 1, 3, 3, 9, 0])  # unordered, repeated, one pad slot
        got = forward(params, config, batch, rows=rows).data
        assert got.shape == (rows.size, v)
        assert np.array_equal(got, full.reshape(b * t, v)[rows])

        shallow = replace(config, layers=0)  # no layer to prune: the gather follows the embedding
        params = init_params(shallow, np.random.default_rng(7))
        full = forward(params, shallow, batch).data
        got = forward(params, shallow, batch, rows=rows).data
        assert np.array_equal(got, full.reshape(b * t, v)[rows])

    def test_forward_rows_match_full_forward_in_train_mode(self, tiny):
        params, config = tiny
        config = replace(config, dropout=0.3)
        batch = batch_from_examples([[CLS_ID, 5, 6, 7, 8], [CLS_ID, 9, 10]], [0, 1])
        rows = np.array([6, 1, 3, 3, 9, 0])

        def run(rows):
            rng = np.random.default_rng(4)
            logits = forward(params, config, batch, rng=rng, rows=rows).data
            return logits, rng.random()

        full, full_next = run(None)
        got, got_next = run(rows)
        b, t, v = full.shape
        assert np.array_equal(got, full.reshape(b * t, v)[rows])
        assert got_next == full_next  # the pruned layer's dropout drew the full-shape mask

    def test_last_layer_ffn_runs_on_scored_rows_only(self, tiny, monkeypatch):
        params, config = tiny
        assert config.layers == 2
        shapes = []
        gelu = T.gelu

        def recording_gelu(x):
            shapes.append(x.shape)
            return gelu(x)

        monkeypatch.setattr(T, "gelu", recording_gelu)
        batch = batch_from_examples([[CLS_ID, 5, 6, 7, 8], [CLS_ID, 9, 10]], [0, 1])
        b, t = batch.token_ids.shape
        rows = [6, 1, 3]
        forward(params, config, batch, rows=rows)
        # layer 0's FFN, layer 1's FFN, then the masked-LM head
        assert shapes == [(b, t, config.ff), (len(rows), config.ff), (len(rows), config.hidden)]

    @pytest.mark.parametrize("shuffled", [False, True], ids=["all-positions", "shuffled-rows"])
    @pytest.mark.parametrize("layers", [0, 1, 2])
    def test_array_body_gives_the_graph_bits(self, tiny, layers, shuffled):
        # eval mode, so a nonzero dropout rate must change nothing
        config = replace(tiny[1], layers=layers, dropout=0.1)
        params = init_params(config, np.random.default_rng(layers))
        batch = batch_from_examples([[CLS_ID, 5, 6, 7, 8], [CLS_ID, 9, 10]], [0, 1])
        rows = np.random.default_rng(layers).permutation(batch.token_ids.size) if shuffled else None
        arrays = {name: p.data for name, p in params.items()}
        got = forward(arrays, config, batch, rows=rows)
        want = forward(params, config, batch, rows=rows).data
        assert type(got) is np.ndarray and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_bad_rows_rejected(self, tiny):
        params, config = tiny
        batch = batch_from_examples([[CLS_ID, 5, 6]], [0])
        with pytest.raises(IndexError):
            forward(params, config, batch, rows=[3])
        with pytest.raises(ValueError):
            forward(params, config, batch, rows=[[1]])

    def test_mlm_distribution_matches_full_forward_softmax(self, tiny):
        params, config = tiny
        tokens, positions = [CLS_ID, 5, 6, 7, 8], [3, 1, 4]
        corrupted = [MASK_ID if i in positions else tok for i, tok in enumerate(tokens)]
        logits = forward(params, config, batch_from_examples([corrupted], [1]))
        want = T.softmax(logits, axis=-1).data[0][positions]
        got = mlm_distribution(params, config, tokens, positions, cond_id=1)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12


class TestBatchedDistributions:
    def test_each_query_matches_a_single_sentence_forward(self, tiny):
        params, config = tiny
        queries = [
            ([CLS_ID, 5, 6, 7, 8, 9, 10], [3, 1, 6], 1),
            ([CLS_ID, 5], [1], 0),
            ([CLS_ID, 12, 11, 4], [2], 1),
            ([CLS_ID, 7, 7, 7, 7], [4, 2], 0),
        ]
        got = mlm_distributions(params, config, queries)
        sizes = [len(positions) for _, positions, _ in queries]
        assert got.shape == (sum(sizes), config.vocab_size)
        for (tokens, positions, cond), probs in zip(queries, np.split(got, np.cumsum(sizes)[:-1])):
            corrupted = [MASK_ID if i in positions else tok for i, tok in enumerate(tokens)]
            logits = forward(params, config, batch_from_examples([corrupted], [cond]))
            want = T.softmax(logits, axis=-1).data[0][positions]
            assert probs.shape == want.shape
            assert np.max(np.abs(probs - want)) <= 1e-12

    @pytest.mark.parametrize(
        "bad, error",
        [
            (([CLS_ID, 5], [], 0), ValueError),
            (([CLS_ID, 5], [0], 0), ValueError),
            (([CLS_ID, 5, PAD_ID], [2], 0), ValueError),
            (([CLS_ID, 5], [5], 0), IndexError),
            (([CLS_ID] + [5] * 8, [1], 0), ValueError),  # the tiny config's max_len is 8
            (([CLS_ID, 13, 5], [2], 0), IndexError),  # its vocabulary holds 13 ids
        ],
        ids=["no-positions", "cls", "padding", "out-of-range", "too-long", "token-id"],
    )
    def test_every_query_is_checked(self, tiny, bad, error):
        params, config = tiny
        with pytest.raises(error):
            mlm_distributions(params, config, [([CLS_ID, 5, 6], [1], 0), bad])

    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("layers", [0, 1, 2])
    def test_rows_are_the_bits_of_the_graph_softmax_over_the_scored_rows(
        self, tiny, layers, heads
    ):
        # eval mode, so a nonzero dropout rate must change nothing
        config = replace(tiny[1], layers=layers, heads=heads, dropout=0.1)
        params = init_params(config, np.random.default_rng(layers + 10 * heads))
        queries = [
            ([CLS_ID, 5, 6, 7, 8, 9], [2, 5], 1),
            ([CLS_ID, 12, 4], [1, 2], 0),
            ([CLS_ID, 7, 8, 9, 10, 11, 12], [6, 1, 3], 1),
            ([CLS_ID, 4], [1], 0),
        ]
        got = mlm_distributions(params, config, queries)
        corrupted = [
            [MASK_ID if i in positions else tok for i, tok in enumerate(tokens)]
            for tokens, positions, _ in queries
        ]
        batch = batch_from_examples(corrupted, [cond for _, _, cond in queries])
        t = batch.token_ids.shape[1]
        rows = [b * t + pos for b, (_, positions, _) in enumerate(queries) for pos in positions]
        want = T.softmax(forward(params, config, batch, rows=rows), axis=-1).data
        assert got.tobytes() == want.tobytes()

    def test_no_queries_rejected(self, tiny):
        params, config = tiny
        with pytest.raises(ValueError):
            mlm_distributions(params, config, [])

    def test_builds_no_graph_node(self, tiny, monkeypatch):
        params, config = tiny

        def no_node(*args):
            raise AssertionError("mlm_distributions built a graph node")

        monkeypatch.setattr(T, "_node", no_node)
        probs = mlm_distributions(params, config, [([CLS_ID, 5, 6, 7], [1, 3], 1)])
        assert probs.shape == (2, config.vocab_size)

class TestSwapConditionTable:
    def test_same_size_swap_is_identity(self, tiny):
        params, config = tiny
        swapped = swap_condition_table(params, config.num_conditions, np.random.default_rng(0))
        batch = batch_from_examples([[CLS_ID, 5, 6]], [1])
        assert np.array_equal(
            forward(params, config, batch).data, forward(swapped, config, batch).data
        )

    def test_grow_reinitializes_only_conditions(self, tiny):
        params, config = tiny
        swapped = swap_condition_table(params, 6, np.random.default_rng(0))
        assert swapped["cond_emb"].data.shape == (6, config.hidden)
        for name in params:
            if name != "cond_emb":
                assert swapped[name] is params[name]

    def test_shrink_copies_rows(self, tiny):
        params, config = tiny
        swapped = swap_condition_table(params, 1, np.random.default_rng(0))
        assert np.array_equal(swapped["cond_emb"].data, params["cond_emb"].data[:1])
        batch = batch_from_examples([[CLS_ID, 5, 6]], [0])
        small = EncoderConfig(
            vocab_size=config.vocab_size, layers=config.layers, hidden=config.hidden,
            heads=config.heads, ff=config.ff, max_len=config.max_len,
            num_conditions=1, dropout=0.0,
        )
        logits = forward(swapped, small, batch)
        assert logits.data.shape == (1, 3, config.vocab_size)

    def test_identical_rows_make_conditions_inert(self, tiny):
        params, config = tiny
        clone = dict(params)
        table = np.tile(params["cond_emb"].data[:1], (2, 1))
        clone["cond_emb"] = Tensor(table, requires_grad=True)
        batch0 = batch_from_examples([[CLS_ID, 5, 6]], [0])
        batch1 = batch_from_examples([[CLS_ID, 5, 6]], [1])
        assert np.array_equal(
            forward(clone, config, batch0).data, forward(clone, config, batch1).data
        )


class TestPersistence:
    def test_round_trip_forward_bitwise(self, tiny, tmp_path):
        params, config = tiny
        save_encoder(params, config, tmp_path / "enc.ckpt")
        loaded, loaded_config = load_encoder(tmp_path / "enc.ckpt")
        assert loaded_config == config
        batch = batch_from_examples([[CLS_ID, 5, 6, 9]], [1])
        assert np.array_equal(
            forward(params, config, batch).data, forward(loaded, config, batch).data
        )

    def test_truncated_checkpoint(self, tiny, tmp_path):
        params, config = tiny
        path = tmp_path / "enc.ckpt"
        save_encoder(params, config, path)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(CheckpointError):
            load_encoder(path)

    def test_condition_mismatch_points_to_swap(self, tiny, tmp_path):
        params, config = tiny
        path = tmp_path / "enc.ckpt"
        save_encoder(params, config, path)
        wanted = EncoderConfig(
            vocab_size=config.vocab_size, layers=config.layers, hidden=config.hidden,
            heads=config.heads, ff=config.ff, max_len=config.max_len,
            num_conditions=6, dropout=config.dropout,
        )
        with pytest.raises(CheckpointError, match="swap_condition_table"):
            load_encoder(path, expected=wanted)

    def test_missing_sidecar(self, tiny, tmp_path):
        params, config = tiny
        path = tmp_path / "enc.ckpt"
        save_encoder(params, config, path)
        (tmp_path / "enc.ckpt.json").unlink()
        with pytest.raises(CheckpointError):
            load_encoder(path)

    def test_sidecar_size_that_cannot_build_a_model_is_checkpoint_error(self, tiny, tmp_path):
        params, config = tiny
        path = tmp_path / "enc.ckpt"
        save_encoder(params, config, path)
        sidecar = tmp_path / "enc.ckpt.json"
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "ff": 0}))
        with pytest.raises(CheckpointError, match="ff must be >= 1, got 0"):
            load_encoder(path)

    def test_load_draws_no_model(self, tiny, tmp_path, monkeypatch):
        params, config = tiny
        path = tmp_path / "enc.ckpt"
        save_encoder(params, config, path)

        def refuse(*args, **kwargs):
            raise AssertionError("a load drew a model")

        for name in ("init_params", "draw_params"):
            monkeypatch.setattr(encoder, name, refuse)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        loaded, _ = load_encoder(path)
        assert all(loaded[k].data.tobytes() == p.data.tobytes() for k, p in params.items())

    def test_sidecar_vocabulary_too_large_to_allocate_is_a_shape_error(self, tiny, tmp_path):
        params, config = tiny
        path = tmp_path / "enc.ckpt"
        save_encoder(params, config, path)
        sidecar = tmp_path / "enc.ckpt.json"
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "vocab_size": 2**50}))
        with pytest.raises(CheckpointError, match=r"'token_emb'.*expected \(1125899906842624, 8\)"):
            load_encoder(path)
