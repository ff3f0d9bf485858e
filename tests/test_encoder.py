import json
from dataclasses import replace

import numpy as np
import pytest

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

    def test_integral_dropout_accepted(self):
        assert EncoderConfig(vocab_size=10, dropout=0).dropout == 0


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

    def test_condition_out_of_range(self, tiny):
        params, config = tiny
        batch = batch_from_examples([[CLS_ID, 4]], [config.num_conditions])
        with pytest.raises(IndexError):
            forward(params, config, batch)

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
            logits = forward(params, config, batch, train=True, rng=rng, rows=rows).data
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
        assert len(got) == len(queries)
        for (tokens, positions, cond), probs in zip(queries, got):
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
        ],
        ids=["no-positions", "cls", "padding", "out-of-range"],
    )
    def test_every_query_is_checked(self, tiny, bad, error):
        params, config = tiny
        with pytest.raises(error):
            mlm_distributions(params, config, [([CLS_ID, 5, 6], [1], 0), bad])

    def test_no_queries_rejected(self, tiny):
        params, config = tiny
        with pytest.raises(ValueError):
            mlm_distributions(params, config, [])

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
