import math

import numpy as np
import pytest

from maskaug import tensor as T
from maskaug.gradcheck import check_gradients
from maskaug.tensor import Tensor

GRAD_TOL = 1e-4


def weighted_sum(x: Tensor, weights: np.ndarray) -> Tensor:
    """Fixed-weight scalarization so gradient checks see a non-trivial cotangent."""
    return T.reduce_sum(T.mul(x, Tensor(weights)))


class TestMatmul:
    def test_identity(self):
        x = np.arange(6.0).reshape(3, 2)
        out = T.matmul(Tensor(np.eye(3)), Tensor(x))
        assert np.array_equal(out.data, x)

    def test_hand_computed(self):
        out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        assert np.array_equal(out.data, [[3.0], [7.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError) as exc:
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
        assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(5, 3))
        w = rng.normal(size=(4, 3))
        err = check_gradients(lambda xs: weighted_sum(T.matmul(xs[0], xs[1]), w), [a, b])
        assert err < GRAD_TOL

    def test_batched_gradients(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=(4, 5))
        w = rng.normal(size=(2, 3, 5))
        err = check_gradients(lambda xs: weighted_sum(T.matmul(xs[0], xs[1]), w), [a, b])
        assert err < GRAD_TOL


    @pytest.mark.parametrize(
        "a_shape, n", [((2, 3, 4), 5), ((3, 1, 2, 6), 4), ((5, 7, 3), 1), ((1, 4, 8), 8)]
    )
    def test_weight_product_matches_batched_formula(self, a_shape, n):
        # (..., H) @ (H, N) runs as one folded GEMM; the reference is the
        # per-batch product with its gradients summed down by _unbroadcast
        rng = np.random.default_rng(sum(a_shape) + n)
        a = Tensor(rng.normal(size=a_shape), requires_grad=True)
        b = Tensor(rng.normal(size=(a_shape[-1], n)), requires_grad=True)
        g = rng.normal(size=a_shape[:-1] + (n,))
        out = T.matmul(a, b)
        weighted_sum(out, g).backward()  # seeds out's gradient with exactly g
        want_ga = T._unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        want_gb = T._unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        want_out = np.matmul(a.data, b.data)
        for got, want in [(out.data, want_out), (a.grad, want_ga), (b.grad, want_gb)]:
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12


class TestSoftmax:
    def test_uniform(self):
        out = T.softmax(Tensor([0.0, 0.0, 0.0, 0.0]))
        assert np.allclose(out.data, 0.25, atol=1e-12)

    def test_large_values_do_not_overflow(self):
        out = T.softmax(Tensor([1000.0, 0.0]))
        assert np.all(np.isfinite(out.data))
        assert out.data[0] == pytest.approx(1.0)
        assert out.data[1] == pytest.approx(0.0, abs=1e-12)

    def test_rows_sum_to_one(self):
        for seed in range(5):
            x = np.random.default_rng(seed).normal(scale=5.0, size=(3, 7))
            out = T.softmax(Tensor(x), axis=-1)
            assert np.all(np.abs(out.data.sum(axis=-1) - 1.0) <= 1e-9)
            assert np.all(out.data >= 0.0)

    def test_permutation_equivariant(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=9)
        perm = rng.permutation(9)
        direct = T.softmax(Tensor(x[perm])).data
        permuted = T.softmax(Tensor(x)).data[perm]
        assert np.allclose(direct, permuted, rtol=0.0, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 7))
        w = rng.normal(size=(3, 7))
        err = check_gradients(lambda xs: weighted_sum(T.softmax(xs[0]), w), [x])
        assert err < GRAD_TOL

    @pytest.mark.parametrize("shape, axis", [((48, 500), -1), ((7, 30), 0), ((2, 3, 9), 1)])
    def test_bits_match_the_out_of_place_formula(self, shape, axis):
        # the formula the in-place forward replaced; the input stays as it was
        x = np.random.default_rng(shape[0]).normal(scale=4.0, size=shape)
        before = x.copy()
        e = np.exp(x - x.max(axis=axis, keepdims=True))
        want = e / e.sum(axis=axis, keepdims=True)
        assert T.softmax(Tensor(x), axis=axis).data.tobytes() == want.tobytes()
        assert x.tobytes() == before.tobytes()


class TestCrossEntropy:
    def test_uniform_logits_give_log_vocab(self):
        loss, scored = T.cross_entropy(Tensor(np.zeros((3, 8))), np.array([0, 5, 7]))
        assert scored == 3
        assert float(loss.data) == pytest.approx(np.log(8.0), abs=1e-12)

    def test_all_ignored_is_zero_with_count_zero(self):
        logits = Tensor(np.random.default_rng(0).normal(size=(4, 6)))
        loss, scored = T.cross_entropy(logits, np.full(4, -1), ignore_index=-1)
        assert scored == 0
        assert float(loss.data) == 0.0

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            T.cross_entropy(Tensor(np.zeros((2, 4))), np.array([0, 4]))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(5, 11))
        targets = rng.integers(0, 11, size=5)
        err = check_gradients(lambda xs: T.cross_entropy(xs[0], targets)[0], [logits])
        assert err < GRAD_TOL

    def test_ignored_rows_carry_no_loss_or_gradient(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(6, 9))
        targets = np.array([1, -1, 4, -1, 0, -1])
        a = Tensor(logits, requires_grad=True)
        loss_a, scored = T.cross_entropy(a, targets, ignore_index=-1)
        loss_a.backward()
        assert scored == 3

        butchered = logits.copy()
        butchered[targets == -1] = 0.0
        b = Tensor(butchered, requires_grad=True)
        loss_b, _ = T.cross_entropy(b, targets, ignore_index=-1)
        loss_b.backward()

        assert float(loss_a.data) == float(loss_b.data)
        assert np.array_equal(a.grad[targets != -1], b.grad[targets != -1])
        assert np.all(a.grad[targets == -1] == 0.0)

    @pytest.mark.parametrize("shape", [(86, 5000), (40, 21), (7, 30)])
    @pytest.mark.parametrize("ignore", [False, True], ids=["all-scored", "ignore-index"])
    @pytest.mark.parametrize("g_in", [1.0, -0.75])
    def test_gradient_bits_match_the_gather_scatter_formula(self, shape, ignore, g_in):
        # the formula the backward replaced: zeros, then the scored rows' softmax minus
        # one at the target, scaled, scattered back
        rng = np.random.default_rng(shape[0])
        logits = rng.normal(scale=3.0, size=shape)
        targets = rng.integers(0, shape[1], size=shape[0])
        if ignore:
            targets[rng.random(shape[0]) < 0.4] = -1
        x = Tensor(logits, requires_grad=True)
        loss, scored = T.cross_entropy(x, targets, ignore_index=-1 if ignore else None)
        T.scale(loss, g_in).backward()

        shifted = logits - logits.max(axis=1, keepdims=True)
        log_p = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        rows = np.nonzero(targets != -1)[0]
        want = np.zeros_like(logits)
        p = np.exp(log_p[rows])
        p[np.arange(rows.size), targets[rows]] -= 1.0
        want[rows] = p * (g_in / scored)
        assert 0 < scored < shape[0] if ignore else scored == shape[0]
        assert x.grad.tobytes() == want.tobytes()  # bit for bit, the sign of each zero too


class TestLayerNorm:
    def test_constant_row_maps_to_zero(self):
        out = T.layer_norm(Tensor([[3.0, 3.0, 3.0, 3.0]]), Tensor(np.ones(4)), Tensor(np.zeros(4)))
        assert np.allclose(out.data, 0.0, atol=1e-12)

    def test_already_normalized_row(self):
        out = T.layer_norm(Tensor([[1.0, -1.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        assert np.allclose(out.data, [[1.0, -1.0]], atol=1e-2)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 6))
        gain = rng.normal(size=6)
        bias = rng.normal(size=6)
        w = rng.normal(size=(2, 6))
        err = check_gradients(
            lambda xs: weighted_sum(T.layer_norm(xs[0], xs[1], xs[2]), w), [x, gain, bias]
        )
        assert err < GRAD_TOL

    @pytest.mark.parametrize("shape", [(224, 64), (32, 7, 64), (16, 25, 64), (5, 3)])
    def test_matches_the_mean_formula_bit_for_bit(self, shape):
        # the row means are sums over h; ndarray.mean gives the same bits
        rng = np.random.default_rng(sum(shape))
        x, gain, bias = (Tensor(a, requires_grad=True) for a in (
            rng.normal(size=shape), rng.normal(size=shape[-1]), rng.normal(size=shape[-1])))
        g = rng.normal(size=shape)
        out = T.layer_norm(x, gain, bias)
        weighted_sum(out, g).backward()
        mu = x.data.mean(axis=-1, keepdims=True)
        centered = x.data - mu
        inv = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + T._LN_EPS)
        xhat = centered * inv
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        h = shape[-1]
        assert np.array_equal(out.data, xhat * gain.data + bias.data)
        assert np.array_equal(x.grad, inv * (dxhat - m1 - xhat * m2))
        assert np.array_equal(gain.grad, (g * xhat).reshape(-1, h).sum(axis=0))
        assert np.array_equal(bias.grad, g.reshape(-1, h).sum(axis=0))

    def test_scalar_extent_rejected(self):
        with pytest.raises(ValueError):
            T.layer_norm(Tensor([[1.0]]), Tensor([1.0]), Tensor([0.0]))


class TestElementwise:
    def test_relu_values(self):
        assert np.array_equal(T.relu(Tensor([-1.0, 2.0])).data, [0.0, 2.0])

    @pytest.mark.parametrize("op", [T.relu, T.gelu, T.tanh, T.sigmoid])
    def test_gradients_match_finite_differences(self, op):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 5)) + 0.1  # keep relu away from its kink
        w = rng.normal(size=(3, 5))
        err = check_gradients(lambda xs: weighted_sum(op(xs[0]), w), [x])
        assert err < GRAD_TOL

    def test_add_mul_broadcast_gradients(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=4)
        w = rng.normal(size=(2, 3, 4))
        err = check_gradients(lambda xs: weighted_sum(T.add(xs[0], xs[1]), w), [a, b])
        assert err < GRAD_TOL
        err = check_gradients(lambda xs: weighted_sum(T.mul(xs[0], xs[1]), w), [a, b])
        assert err < GRAD_TOL


class TestEmbedding:
    def test_repeated_ids_accumulate(self):
        rng = np.random.default_rng(10)
        table = rng.normal(size=(7, 4))
        ids = np.array([2, 2, 2, 5])
        w = rng.normal(size=(4, 4))
        err = check_gradients(
            lambda xs: weighted_sum(T.embedding_lookup(xs[0], ids), w), [table]
        )
        assert err < GRAD_TOL

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            T.embedding_lookup(Tensor(np.zeros((3, 2))), np.array([0, 3]))

    @pytest.mark.parametrize("ids_shape", [(40,), (8, 5)], ids=["1-d", "2-d"])
    def test_gradient_equals_add_at_bit_for_bit(self, ids_shape):
        rng = np.random.default_rng(15)
        table = Tensor(rng.normal(size=(9, 6)), requires_grad=True)
        ids = rng.integers(0, 4, size=ids_shape)  # repeated ids, id 0, rows 4..8 untouched
        g = rng.normal(size=ids_shape + (6,))
        g[rng.random(g.shape) < 0.3] = -0.0
        weighted_sum(T.embedding_lookup(table, ids), g).backward()
        want = np.zeros((9, 6))
        np.add.at(want, ids.reshape(-1), g.reshape(-1, 6))
        assert table.grad.tobytes() == want.tobytes()  # tobytes also tells -0.0 from 0.0

    def test_no_ids_give_a_float_zero_gradient(self):
        table = Tensor(np.ones((3, 2)), requires_grad=True)
        T.reduce_sum(T.embedding_lookup(table, np.zeros(0, dtype=np.int64))).backward()
        assert table.grad.dtype == np.float64 and not table.grad.any()


def add_at_scatter(ids, g, v):
    """The np.add.at scatter the table gradients used before the bincount one."""
    out = np.zeros((v, g.shape[-1]))
    np.add.at(out, ids.reshape(-1), g.reshape(-1, g.shape[-1]))
    return out


class TestDropout:
    def test_zero_rate_is_exact_identity(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 4)))
        assert T.dropout(x, 0.0, None, train=True) is x

    def test_eval_mode_is_exact_identity(self):
        x = Tensor(np.random.default_rng(1).normal(size=(4, 4)))
        assert T.dropout(x, 0.5, None, train=False) is x

    def test_invalid_rate(self):
        x = Tensor(np.zeros(3))
        with pytest.raises(ValueError):
            T.dropout(x, 1.0, np.random.default_rng(0), train=True)
        with pytest.raises(ValueError):
            T.dropout(x, -0.1, np.random.default_rng(0), train=True)

    def test_train_mode_zeroes_and_rescales(self):
        rng = np.random.default_rng(2)
        x = Tensor(np.ones((100, 100)))
        out = T.dropout(x, 0.25, rng, train=True)
        dropped = float((out.data == 0.0).mean())
        assert abs(dropped - 0.25) < 0.03
        kept = out.data[out.data != 0.0]
        assert np.allclose(kept, 1.0 / 0.75)


class TestShapeOps:
    def test_unfold_windows_values(self):
        x = np.arange(12.0).reshape(1, 4, 3)
        out = T.unfold_windows(Tensor(x), 2)
        assert out.data.shape == (1, 3, 6)
        assert np.array_equal(out.data[0, 0], np.concatenate([x[0, 0], x[0, 1]]))

    @pytest.mark.parametrize("layout", ["c-order", "transposed", "unit-extent-view"])
    def test_unfold_windows_bits_match_the_slice_loop(self, layout):
        # the formula the strided gather replaced: one slice copy per window
        # offset forward, one slice sum per offset back, at every width 1..T
        rng = np.random.default_rng(12)
        make = {
            "c-order": lambda a: Tensor(a, requires_grad=True),
            "transposed": lambda a: T.transpose(Tensor(a, requires_grad=True), (0, 2, 1)),
            # a C-ordered (B, T, 1) view whose unit axis has stride 0
            "unit-extent-view": lambda a: Tensor(a[:, :, 0].copy()[:, :, None], requires_grad=True),
        }[layout]
        array = rng.normal(size=(3, 6, 4))
        b, t, e = make(array).shape
        for width in range(1, t + 1):
            n = t - width + 1
            g = rng.normal(size=(b, n, width * e))
            x = make(array)
            out = T.unfold_windows(x, width)
            weighted_sum(out, g).backward()  # seeds out's gradient with exactly g
            want, want_grad = np.empty((b, n, width * e)), np.zeros((b, t, e))
            for j in range(width):
                want[:, :, j * e : (j + 1) * e] = x.data[:, j : j + n, :]
                want_grad[:, j : j + n, :] += g[:, :, j * e : (j + 1) * e]
            assert x.data.flags.c_contiguous == (layout != "transposed")
            assert out.data.tobytes() == want.tobytes(), width
            assert x.grad.tobytes() == want_grad.tobytes(), width

    @pytest.mark.parametrize(
        "build,shapes",
        [
            (lambda xs: T.unfold_windows(xs[0], 3), [(2, 7, 3)]),
            (lambda xs: T.reduce_max(xs[0], axis=1), [(4, 6)]),
            (lambda xs: T.concat([xs[0], xs[1]], axis=-1), [(3, 2), (3, 4)]),
            (lambda xs: T.slice_axis(xs[0], 1, 1, 3), [(2, 5)]),
            (lambda xs: T.transpose(xs[0], (1, 0, 2)), [(2, 3, 4)]),
            (lambda xs: T.reshape(xs[0], (6, 2)), [(3, 4)]),
        ],
    )
    def test_gradients_match_finite_differences(self, build, shapes):
        rng = np.random.default_rng(11)
        arrays = [rng.normal(size=s) for s in shapes]
        probe = build([Tensor(a) for a in arrays])
        w = rng.normal(size=probe.data.shape)
        err = check_gradients(lambda xs: weighted_sum(build(xs), w), arrays)
        assert err < GRAD_TOL


def lstm_inputs(vocab, batch, steps, emb_dim, state_dim, seed):
    """LSTM weights, right-padded ids with a length-1 and a full-length row,
    and a cotangent for the final state."""
    rng = np.random.default_rng(seed)
    arrays = [
        rng.normal(0.0, 0.5, size=(vocab, emb_dim)),
        rng.normal(0.0, emb_dim**-0.5, size=(emb_dim, 4 * state_dim)),
        rng.normal(0.0, state_dim**-0.5, size=(state_dim, 4 * state_dim)),
        rng.normal(0.0, 0.5, size=4 * state_dim),
    ]
    lengths = rng.integers(1, steps + 1, size=batch)
    lengths[:2] = (1, steps)
    lengths = rng.permutation(lengths)
    ids = rng.integers(1, vocab, size=(batch, steps))
    ids[np.arange(steps)[None, :] >= lengths[:, None]] = 0
    return arrays, ids, lengths, rng.normal(size=(batch, state_dim))


def per_step_lstm(params, ids, lengths):
    """The LSTM as one small graph per time step: the formula T.lstm fuses."""
    emb, w_ih, w_hh, b = params
    d = w_hh.shape[0]
    h = Tensor(np.zeros((ids.shape[0], d)))
    c = Tensor(np.zeros((ids.shape[0], d)))
    for step in range(ids.shape[1]):
        x_t = T.embedding_lookup(emb, ids[:, step])
        z = T.add(T.add(T.matmul(x_t, w_ih), T.matmul(h, w_hh)), b)
        gate_i = T.sigmoid(T.slice_axis(z, 1, 0, d))
        gate_f = T.sigmoid(T.slice_axis(z, 1, d, 2 * d))
        gate_g = T.tanh(T.slice_axis(z, 1, 2 * d, 3 * d))
        gate_o = T.sigmoid(T.slice_axis(z, 1, 3 * d, 4 * d))
        c_new = T.add(T.mul(gate_f, c), T.mul(gate_i, gate_g))
        h_new = T.mul(gate_o, T.tanh(c_new))
        live = (lengths > step).astype(np.float64)[:, None]
        keep, hold = Tensor(live), Tensor(1.0 - live)
        c = T.add(T.mul(keep, c_new), T.mul(hold, c))
        h = T.add(T.mul(keep, h_new), T.mul(hold, h))
    return h


class TestLstm:
    def test_gradients_match_finite_differences(self):
        arrays, ids, lengths, w = lstm_inputs(vocab=7, batch=4, steps=4, emb_dim=3,
                                              state_dim=2, seed=12)
        err = check_gradients(
            lambda xs: weighted_sum(T.lstm(*xs, ids, lengths), w), arrays
        )
        assert err < GRAD_TOL

    @pytest.mark.parametrize("vocab, steps", [(21, 6), (5000, 25)])
    def test_matches_per_step_formula(self, vocab, steps):
        arrays, ids, lengths, g = lstm_inputs(vocab, batch=32, steps=steps, emb_dim=32,
                                              state_dim=64, seed=vocab + steps)
        fused = [Tensor(a, requires_grad=True) for a in arrays]
        stepped = [Tensor(a, requires_grad=True) for a in arrays]
        out = T.lstm(*fused, ids, lengths)
        want = per_step_lstm(stepped, ids, lengths)
        weighted_sum(out, g).backward()
        weighted_sum(want, g).backward()
        assert out._parents == tuple(fused)  # the whole recurrence is one node
        assert np.max(np.abs(out.data - want.data)) <= 1e-12
        for got, ref in zip(fused, stepped):
            assert got.grad.shape == ref.grad.shape
            assert np.max(np.abs(got.grad - ref.grad)) <= 1e-12

    def test_padding_leaves_the_state_unchanged(self):
        arrays, ids, lengths, _ = lstm_inputs(vocab=9, batch=5, steps=6, emb_dim=3,
                                              state_dim=2, seed=13)
        short = T.lstm(*arrays, ids[:, :4], np.minimum(lengths, 4)).data
        padded = np.concatenate([ids[:, :4], np.zeros((5, 3), dtype=np.int64)], axis=1)
        longer = T.lstm(*arrays, padded, np.minimum(lengths, 4)).data
        assert np.max(np.abs(longer - short)) <= 1e-12

    @pytest.mark.parametrize("vocab, steps", [(21, 6), (5000, 25)])
    def test_table_gradient_equals_add_at_bit_for_bit(self, vocab, steps, monkeypatch):
        arrays, ids, lengths, g = lstm_inputs(vocab, batch=32, steps=steps, emb_dim=8,
                                              state_dim=4, seed=vocab - steps)
        ids[:, 1] = ids[0, 0]  # a repeated id on top of the padding's id 0

        def table_grad():
            emb = Tensor(arrays[0], requires_grad=True)
            weighted_sum(T.lstm(emb, *arrays[1:], ids, lengths), g).backward()
            return emb.grad

        shipped = table_grad()
        monkeypatch.setattr(T, "_scatter_rows", add_at_scatter)
        assert shipped.tobytes() == table_grad().tobytes()

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda a: a[:2] + [a[2][:, :-1]] + a[3:], id="w_hh-not-h-by-4h"),
            pytest.param(lambda a: a[:2] + [a[2][:1]] + a[3:], id="w_hh-rows"),
            pytest.param(lambda a: a[:2] + [a[2][0]] + a[3:], id="w_hh-1d"),
            pytest.param(lambda a: a[:1] + [a[1][:, :4]] + a[2:], id="w_ih-gates"),
            pytest.param(lambda a: a[:1] + [a[1][:-1]] + a[2:], id="w_ih-rows"),
            pytest.param(lambda a: a[:3] + [a[3][:-1]], id="b-short"),
        ],
    )
    def test_bad_shapes_raise_one_error_naming_them(self, edit):
        arrays, ids, lengths, _ = lstm_inputs(vocab=5, batch=2, steps=3, emb_dim=2,
                                              state_dim=2, seed=14)
        arrays = edit(arrays)
        for lstm in (T.lstm, T.ArrayOps.lstm):
            with pytest.raises(ValueError, match=r"lstm shapes disagree: emb .* w_ih .* "
                                                 r"w_hh .* b .* ids .* lengths"):
                lstm(*arrays, ids, lengths)

    def test_out_of_range_id(self):
        arrays, ids, lengths, _ = lstm_inputs(vocab=5, batch=2, steps=3, emb_dim=2,
                                              state_dim=2, seed=14)
        ids[1, 0] = 5
        with pytest.raises(IndexError):
            T.lstm(*arrays, ids, lengths)


def attention_inputs(batch, steps, hidden, seed):
    """Input, the eight projection weights and biases, a pad bias from ragged
    lengths (one full row, one of length 1) and a cotangent for the output."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=(batch, steps, hidden))]
    for _ in range(4):
        arrays.append(rng.normal(0.0, hidden**-0.5, size=(hidden, hidden)))
        arrays.append(rng.normal(0.0, 0.1, size=hidden))
    lengths = rng.integers(1, steps + 1, size=batch)
    lengths[:2] = (steps, 1)
    score_bias = T.attention_mask_bias(np.arange(steps)[None, :] < lengths[:, None])
    return arrays, score_bias, rng.normal(size=(batch, steps, hidden))


def per_op_attention(x, wq, bq, wk, bk, wv, bv, wo, bo, score_bias, heads, p, rng):
    """Self-attention as a graph of small ops: the formula T.attention fuses."""
    b, t, h = x.shape
    dh = h // heads

    def project(w, bias):
        y = T.add(T.matmul(x, w), bias)
        y = T.reshape(y, (b, t, heads, dh))
        return T.transpose(y, (0, 2, 1, 3))  # (B, A, T, dh)

    q, k, v = project(wq, bq), project(wk, bk), project(wv, bv)
    scores = T.scale(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dh))
    attn = T.softmax(T.add(scores, Tensor(score_bias)), axis=-1)
    attn = T.dropout(attn, p, rng, rng is not None)
    ctx = T.matmul(attn, v)  # (B, A, T, dh)
    ctx = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (b, t, h))
    return T.add(T.matmul(ctx, wo), bo)


class TestAttention:
    def test_gradients_match_finite_differences(self):
        arrays, score_bias, w = attention_inputs(batch=2, steps=3, hidden=4, seed=15)
        err = check_gradients(
            lambda xs: weighted_sum(T.attention(*xs, score_bias, 2, 0.0, None), w), arrays
        )
        assert err < GRAD_TOL

    @pytest.mark.parametrize("train", [False, True], ids=["eval", "train"])
    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("batch, steps, hidden", [(3, 5, 8), (32, 7, 64), (16, 25, 64)])
    def test_matches_per_op_formula_bit_for_bit(self, batch, steps, hidden, heads, train):
        arrays, score_bias, g = attention_inputs(batch, steps, hidden, seed=steps + heads)
        fused = [Tensor(a, requires_grad=True) for a in arrays]
        per_op = [Tensor(a, requires_grad=True) for a in arrays]
        rngs = [np.random.default_rng(16) if train else None for _ in range(2)]
        out = T.attention(*fused, score_bias, heads, 0.3, rngs[0])
        want = per_op_attention(*per_op, score_bias, heads, 0.3, rngs[1])
        assert out._parents == tuple(fused)  # the whole block is one node
        assert np.array_equal(out.data, want.data)
        if train:
            assert rngs[0].random() == rngs[1].random()
        weighted_sum(out, g).backward()
        weighted_sum(want, g).backward()
        for got, ref in zip(fused, per_op):
            assert np.array_equal(got.grad, ref.grad)

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda a, bias: ([a[0][0]] + a[1:], bias), id="x-2d"),
            pytest.param(lambda a, bias: (a[:3] + [a[3][:, :3]] + a[4:], bias), id="wk-not-square"),
            pytest.param(lambda a, bias: (a[:8] + [a[8][:3]], bias), id="bo-short"),
            pytest.param(lambda a, bias: (a, bias[..., :2]), id="bias-wrong-keys"),
            pytest.param(lambda a, bias: (a, bias[None]), id="bias-5d"),
        ],
    )
    def test_bad_shapes_raise_one_error_naming_them(self, edit):
        arrays, score_bias = edit(*attention_inputs(batch=2, steps=3, hidden=4, seed=17)[:2])
        with pytest.raises(ValueError, match=r"attention shapes disagree: x .* bo .* heads 2"):
            T.attention(*arrays, score_bias, 2, 0.0, None)

    def test_hidden_not_divisible_by_heads_raises(self):
        arrays, score_bias, _ = attention_inputs(batch=2, steps=3, hidden=4, seed=18)
        with pytest.raises(ValueError, match=r"x \(2, 3, 4\), .* heads 3"):
            T.attention(*arrays, score_bias, 3, 0.0, None)


def cnn_inputs(vocab, batch, steps, emb_dim, filters, widths, seed):
    """Table, per-width filters and biases, right-padded ids with rows of
    length 1 and of full length, ragged lengths from 1 to `steps`, repeated
    ids, and a cotangent for the pooled features."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(0.0, 0.5, size=(vocab, emb_dim))]
    arrays += [rng.normal(0.0, (w * emb_dim) ** -0.5, size=(w * emb_dim, filters)) for w in widths]
    arrays += [rng.normal(0.0, 0.1, size=filters) for _ in widths]
    lengths = rng.integers(1, steps + 1, size=batch)
    lengths[:2] = (1, steps)
    lengths = rng.permutation(lengths)
    ids = rng.choice(rng.integers(1, vocab, size=6), size=(batch, steps))  # many repeats
    ids[np.arange(steps)[None, :] >= lengths[:, None]] = 0
    return arrays, ids, lengths, rng.normal(size=(batch, filters * len(widths)))


def per_op_cnn(table, weights, biases, ids, lengths):
    """The CNN feature extractor as a graph of small ops: the formula
    T.conv_max_pool fuses."""
    t = ids.shape[1]
    emb = T.embedding_lookup(table, ids)  # (B, T, E)
    pooled = []
    for weight, bias in zip(weights, biases):
        w = weight.shape[0] // table.shape[1]  # a (w·E, F) filter
        windows = T.unfold_windows(emb, w)  # (B, T-w+1, w*E)
        feat = T.relu(T.add(T.matmul(windows, weight), bias))
        n_valid = np.maximum(lengths - w + 1, 1)
        invalid = np.arange(t - w + 1)[None, :] >= n_valid[:, None]
        feat = T.add(feat, Tensor(np.where(invalid, T.MASK_NEG, 0.0)[:, :, None]))
        pooled.append(T.reduce_max(feat, axis=1))  # (B, F)
    return T.concat(pooled, axis=-1)


def split_cnn(arrays, widths):
    k = len(widths)
    return arrays[0], arrays[1 : 1 + k], arrays[1 + k :]


class TestConvMaxPool:
    def test_gradients_match_finite_differences(self):
        widths = (1, 2, 3)
        arrays, ids, lengths, w = cnn_inputs(vocab=5, batch=3, steps=4, emb_dim=2, filters=3,
                                             widths=widths, seed=19)

        def build(xs):
            table, weights, biases = split_cnn(xs, widths)
            return weighted_sum(T.conv_max_pool(table, weights, biases, ids, lengths), w)

        assert check_gradients(build, arrays) < GRAD_TOL

    @pytest.mark.parametrize(
        "vocab, steps, widths",
        [(21, 7, (1,)), (21, 7, (3, 4, 5)), (21, 7, (2, 3, 4, 5, 6)), (5000, 24, (1,)),
         (5000, 24, (3, 4, 5)), (5000, 24, (2, 3, 4, 5, 6)), (9, 5, (2, 5))],
    )
    def test_matches_per_op_formula_bit_for_bit(self, vocab, steps, widths):
        # ragged rows from length 1 to full, many shorter than the widest filter
        arrays, ids, lengths, g = cnn_inputs(vocab, batch=32, steps=steps, emb_dim=32,
                                             filters=16, widths=widths, seed=steps + len(widths))
        fused = [Tensor(a, requires_grad=True) for a in arrays]
        per_op = [Tensor(a, requires_grad=True) for a in arrays]
        out = T.conv_max_pool(*split_cnn(fused, widths), ids, lengths)
        want = per_op_cnn(*split_cnn(per_op, widths), ids, lengths)
        assert out._parents == tuple(fused)  # the whole extractor is one node
        assert np.array_equal(out.data, want.data)
        weighted_sum(out, g).backward()
        weighted_sum(want, g).backward()
        for got, ref in zip(fused, per_op):
            assert np.array_equal(got.grad, ref.grad)

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda a, ids, lens: ([a[0][0]] + a[1:], ids, lens), id="table-1d"),
            pytest.param(lambda a, ids, lens: (a[:1] + [a[1][:-1]] + a[2:], ids, lens),
                         id="weight-rows"),
            # fewer rows than E: a filter of width 0
            pytest.param(lambda a, ids, lens: (a[:1] + [a[1][:2]] + a[2:], ids, lens),
                         id="weight-rows-under-emb-dim"),
            pytest.param(lambda a, ids, lens: (a[:2] + [a[2][:, :2]] + a[3:], ids, lens),
                         id="filters-differ"),
            pytest.param(lambda a, ids, lens: (a[:3] + [a[3][:2]] + a[4:], ids, lens),
                         id="bias-short"),
            pytest.param(lambda a, ids, lens: (a[:4] + [np.append(a[4], 0.0)], ids, lens),
                         id="bias-long"),
            pytest.param(lambda a, ids, lens: (a[:4], ids, lens), id="bias-missing"),
            pytest.param(lambda a, ids, lens: (a, ids[0], lens), id="ids-1d"),
            pytest.param(lambda a, ids, lens: (a, ids, lens[:1]), id="lengths-short"),
            pytest.param(lambda a, ids, lens: (a, ids[:, :2], lens),
                         id="ids-shorter-than-width"),
        ],
    )
    def test_bad_shapes_raise_one_error_naming_them(self, edit):
        arrays, ids, lengths, _ = cnn_inputs(vocab=7, batch=2, steps=4, emb_dim=3, filters=4,
                                             widths=(2, 3), seed=21)
        arrays, ids, lengths = edit(arrays, ids, lengths)
        for conv_max_pool in (T.conv_max_pool, T.ArrayOps.conv_max_pool):
            with pytest.raises(ValueError, match=r"conv_max_pool shapes disagree: table .* "
                                                 r"weights .* biases .* ids .* lengths"):
                conv_max_pool(arrays[0], arrays[1:3], arrays[3:], ids, lengths)

    @pytest.mark.parametrize("bad_id", [-1, 7])
    def test_out_of_range_id(self, bad_id):
        arrays, ids, lengths, _ = cnn_inputs(vocab=7, batch=2, steps=4, emb_dim=3, filters=4,
                                             widths=(2,), seed=23)
        ids[1, 0] = bad_id
        with pytest.raises(IndexError):
            T.conv_max_pool(arrays[0], arrays[1:2], arrays[2:], ids, lengths)


class TestGraph:
    def test_shared_node_gradients_accumulate(self):
        x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        y = T.reduce_sum(T.mul(x, x))  # d/dx sum(x^2) = 2x
        y.backward()
        assert np.allclose(x.grad, [4.0, 6.0])

    def test_no_nan_inf_from_guarded_ops(self):
        huge = Tensor(np.array([[1e8, -1e8, 0.0], [700.0, -700.0, 1.0]]))
        for out in (T.softmax(huge), T.log_softmax(huge)):
            assert np.all(np.isfinite(out.data))

    def test_mask_bias_zeroes_pad_weights_exactly(self):
        pad_mask = np.array([[1.0, 1.0, 0.0, 0.0]])
        bias = T.attention_mask_bias(pad_mask)  # (1, 1, 1, 4)
        scores = Tensor(np.random.default_rng(3).normal(size=(1, 1, 2, 4)))
        attn = T.softmax(T.add(scores, Tensor(bias)), axis=-1)
        assert np.all(attn.data[..., 2:] == 0.0)
        assert np.all(np.abs(attn.data.sum(axis=-1) - 1.0) <= 1e-9)


class TestHeapThresholds:
    class FakeLibc:
        def __init__(self, glibc=True):
            self.calls = []
            if glibc:
                self.gnu_get_libc_version = lambda: b"2.36"
                self.mallopt = lambda param, value: self.calls.append((param, value)) or 1

    def test_glibc_gets_both_thresholds(self, monkeypatch):
        libc = self.FakeLibc()
        monkeypatch.setattr(T.ctypes, "CDLL", lambda name: libc)
        T._pin_heap_thresholds()
        assert libc.calls == [(-3, 32 << 20), (-1, 64 << 20)]

    def test_other_c_library_is_left_alone(self, monkeypatch):
        libc = self.FakeLibc(glibc=False)
        monkeypatch.setattr(T.ctypes, "CDLL", lambda name: libc)
        T._pin_heap_thresholds()
        assert libc.calls == []

    @pytest.mark.parametrize("error", [OSError, TypeError])
    def test_no_loadable_c_library_is_harmless(self, monkeypatch, error):
        def fail(name):
            raise error("no C library")

        monkeypatch.setattr(T.ctypes, "CDLL", fail)
        T._pin_heap_thresholds()

    def test_glibc_without_mallopt_is_harmless(self, monkeypatch):
        libc = self.FakeLibc()
        del libc.mallopt
        monkeypatch.setattr(T.ctypes, "CDLL", lambda name: libc)
        T._pin_heap_thresholds()
