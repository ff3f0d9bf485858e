"""Tour of the tensor kernel: forward ops, reverse-mode gradients, and the
finite-difference oracle that keeps them honest.
"""

import numpy as np

from maskaug import tensor as T
from maskaug.gradcheck import check_gradients
from maskaug.optim import AdamState, adam_step
from maskaug.tensor import Tensor

rng = np.random.default_rng(0)

# Tensors are numpy arrays plus an optional gradient buffer.
x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
out = T.relu(T.matmul(x, w))
loss = T.reduce_sum(T.mul(out, out))
loss.backward()
print("loss:", float(loss.data))
print("dloss/dx:\n", x.grad)

# Every op's analytic gradient is checked against central differences.
for name, build, shapes in [
    ("matmul", lambda xs: T.reduce_sum(T.matmul(xs[0], xs[1])), [(4, 5), (5, 3)]),
    ("softmax", lambda xs: T.reduce_sum(T.mul(T.softmax(xs[0]), xs[1])), [(3, 7), (3, 7)]),
    ("layer_norm", lambda xs: T.reduce_sum(T.layer_norm(xs[0], xs[1], xs[2])), [(2, 6), (6,), (6,)]),
    ("gelu", lambda xs: T.reduce_sum(T.gelu(xs[0])), [(3, 5)]),
]:
    err = check_gradients(build, [rng.normal(size=s) for s in shapes])
    print(f"{name:10s} worst disagreement vs finite differences: {err:.2e}")

# The stable softmax never overflows, even on absurd logits.
print("softmax([1000, 0]) =", T.softmax(Tensor([1000.0, 0.0])).data)

# Adam walks a quadratic bowl to the bottom. The optimizer state owns a copy
# of the parameters; each adam_step takes their .grad and updates them in place
# (adam_step(state, clip_norm) also clips the gradients to that global norm).
state = AdamState({"p": Tensor(np.array([2.0, -1.5, 0.5]))}, lr=0.1)
p = state.params["p"]
for step in range(120):
    bowl = T.reduce_sum(T.mul(p, p))
    bowl.backward()
    adam_step(state)
    if step % 30 == 0:
        print(f"step {step:3d}  loss {float(bowl.data):.6f}")
print("final point:", p.data)
