import numpy as np
import pytest

from maskaug import tensor as T
from maskaug.checkpoint import draw_params
from maskaug.encoder import EncoderConfig, param_layout
from maskaug.optim import BETA1, BETA2, EPS, AdamState, adam_step, clip_by_global_norm
from maskaug.tensor import Tensor


def make_params(values):
    return {name: Tensor(np.asarray(v, dtype=np.float64), requires_grad=True) for name, v in values.items()}


def reference_clip(grads, max_norm):
    """The per-tensor global-norm clip the arena must reproduce bit for bit."""
    norm = float(np.sqrt(sum(float(np.sum(np.asarray(g) ** 2)) for g in grads.values())))
    if norm <= max_norm or norm == 0.0:
        return dict(grads)
    return {k: np.asarray(g) * (max_norm / norm) for k, g in grads.items()}


def reference_adam(params, grads, m, v, step, lr):
    """One pure per-tensor Adam update: (new params, new m, new v) as dicts of arrays."""
    t = step + 1
    new_p, new_m, new_v = {}, {}, {}
    for name, p in params.items():
        g = grads[name]
        new_m[name] = BETA1 * m[name] + (1.0 - BETA1) * g
        new_v[name] = BETA2 * v[name] + (1.0 - BETA2) * (g * g)
        m_hat = new_m[name] / (1.0 - BETA1**t)
        v_hat = new_v[name] / (1.0 - BETA2**t)
        new_p[name] = p - lr * m_hat / (np.sqrt(v_hat) + EPS)
    return new_p, new_m, new_v


def set_grads(state, grads):
    for name, p in state.params.items():
        p.grad = grads[name].copy()


class TestAdam:
    def test_zero_gradient_leaves_params_bitwise_unchanged(self):
        state = AdamState(make_params({"w": [[1.5, -2.0], [0.25, 3.0]]}), lr=0.1)
        before = state.params["w"].data.copy()
        set_grads(state, {"w": np.zeros((2, 2))})
        adam_step(state)
        assert np.array_equal(state.params["w"].data, before)
        assert state.step == 1

    def test_first_step_moves_by_learning_rate(self):
        state = AdamState(make_params({"w": [1.0]}), lr=0.1)
        set_grads(state, {"w": np.array([1.0])})
        adam_step(state)
        # bias correction makes the first update exactly lr / (1 + eps)
        assert state.params["w"].data[0] == pytest.approx(1.0 - 0.1, abs=1e-8)

    def test_quadratic_bowl_converges(self):
        state = AdamState(make_params({"p": [1.0, -0.6, 0.3]}), lr=0.1)
        p = state.params["p"]
        for _ in range(100):
            T.reduce_sum(T.mul(p, p)).backward()
            adam_step(state)
        assert np.all(np.abs(p.data) < 1e-2)

    @pytest.mark.parametrize("clip", [True, False], ids=["clip-alternate-steps", "no-clip"])
    def test_arena_equals_per_tensor_reference_bit_for_bit(self, clip):
        config = EncoderConfig(vocab_size=30, layers=1, hidden=8, heads=2, ff=16, max_len=8)
        rng = np.random.default_rng(0)
        start = draw_params(param_layout(config), rng)
        state = AdamState(start, lr=3e-3)
        ref_p = {k: p.data.copy() for k, p in start.items()}
        ref_m = {k: np.zeros_like(p) for k, p in ref_p.items()}
        ref_v = {k: np.zeros_like(p) for k, p in ref_p.items()}
        clipped_steps = 0
        for step in range(32):
            # the joint norm is about 10 on even steps and 0.01 on odd ones
            scale = 1.0 if step % 2 == 0 else 1e-3
            grads = {k: scale * rng.normal(size=p.shape) / 3.0 for k, p in ref_p.items()}
            set_grads(state, grads)
            if clip:
                clipped = reference_clip(grads, 1.0)
                clipped_steps += any(clipped[k] is not grads[k] for k in grads)
                grads = clipped
            adam_step(state, 1.0 if clip else None)
            ref_p, ref_m, ref_v = reference_adam(ref_p, grads, ref_m, ref_v, step, 3e-3)
            for k in ref_p:
                assert np.array_equal(state.params[k].data, ref_p[k]), (step, k)
                assert np.array_equal(state.m[k], ref_m[k]), (step, k)
                assert np.array_equal(state.v[k], ref_v[k]), (step, k)
                assert state.params[k].grad is None
        assert clipped_steps == (16 if clip else 0)

    def test_init_copies_and_never_touches_the_callers_tensors(self):
        params = make_params({"a": [[1.0, 2.0]], "b": [3.0]})
        state = AdamState(params, lr=0.1)
        assert list(state.params) == ["a", "b"]
        p = state.params["a"]
        T.reduce_sum(T.mul(p, p)).backward()
        state.params["b"].grad = np.ones(1)
        adam_step(state)
        assert np.array_equal(params["a"].data, [[1.0, 2.0]]) and params["b"].data[0] == 3.0
        assert params["a"].grad is None and params["b"].grad is None

    def test_shape_mismatch(self):
        state = AdamState(make_params({"w": np.zeros((2, 3))}), lr=1e-3)
        state.params["w"].grad = np.zeros(3)  # would broadcast into the view
        with pytest.raises(ValueError, match="'w'"):
            adam_step(state)

    def test_missing_gradient_is_named(self):
        state = AdamState(make_params({"a": [1.0], "b": [2.0]}), lr=1e-3)
        state.params["a"].grad = np.ones(1)
        with pytest.raises(ValueError, match="'b' is None"):
            adam_step(state)


class TestClipping:
    @staticmethod
    def norm(state):
        return float(np.sqrt(sum(float(np.sum(g * g)) for g in state.grads.values())))

    def test_cap_applied(self):
        state = AdamState(make_params({"a": [0.0, 0.0]}), lr=1e-3)
        set_grads(state, {"a": np.array([3.0, 4.0])})  # norm 5
        adam_step(state, 1.0)
        assert self.norm(state) == pytest.approx(1.0)

    def test_below_cap_untouched(self):
        state = AdamState(make_params({"a": [0.0, 0.0]}), lr=1e-3)
        set_grads(state, {"a": np.array([0.3, 0.4])})
        adam_step(state, 1.0)
        assert np.array_equal(state.grads["a"], [0.3, 0.4])

    def test_adam_step_uses_the_clipped_gradient_once(self):
        state = AdamState(make_params({"a": [0.0, 0.0]}), lr=0.1)
        set_grads(state, {"a": np.array([3.0, 4.0])})
        adam_step(state, 1.0)
        assert np.allclose(state.m["a"], [0.1 * 0.6, 0.1 * 0.8])
        # the next step needs fresh gradients again
        with pytest.raises(ValueError, match="None"):
            adam_step(state)

    def test_clipping_alone_leaves_the_next_step_its_own_gradients(self):
        # a clip outside adam_step rescales only the arena's last gradients: the
        # step applies everything backward left on the parameters since the last one
        state = AdamState(make_params({"a": [0.0, 0.0]}), lr=0.1)
        a = state.params["a"]
        T.reduce_sum(T.mul(a, Tensor(np.array([3.0, 4.0])))).backward()
        clip_by_global_norm(state, 1.0)
        T.reduce_sum(T.mul(a, Tensor(np.array([7.0, 6.0])))).backward()
        adam_step(state)
        grads = {"a": np.array([10.0, 10.0])}
        want_p, want_m, want_v = reference_adam(
            {"a": np.zeros(2)}, grads, {"a": np.zeros(2)}, {"a": np.zeros(2)}, 0, 0.1
        )
        assert np.array_equal(state.grads["a"], grads["a"])
        assert np.array_equal(state.m["a"], want_m["a"]) and np.array_equal(state.v["a"], want_v["a"])
        assert np.array_equal(a.data, want_p["a"])
        assert a.grad is None
