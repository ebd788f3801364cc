"""Tour of the reverse-mode engine: tapes, gradients, and a tiny SGD fit.

Builds a two-layer regressor on a noisy sine, checks its gradients against
central differences, then trains it for a few hundred steps.
"""

import numpy as np

from gme import autodiff as ad

rng = np.random.default_rng(7)

# --- data: y = sin(3x) + noise on [-1, 1] ---------------------------------
x = rng.uniform(-1, 1, size=(128, 1))
y = np.sin(3 * x[:, 0]) + rng.normal(0, 0.05, size=128)

w1 = ad.Parameter(ad.glorot_uniform(rng, (1, 16)), "demo.w1")
b1 = ad.Parameter(np.zeros(16), "demo.b1")
w2 = ad.Parameter(ad.glorot_uniform(rng, (16,)), "demo.w2")
b2 = ad.Parameter(np.zeros(()), "demo.b2")
params = [w1, b1, w2, b2]


def loss_value():
    h = ad.tanh(ad.add(ad.matmul(ad.Tensor(x), w1), b1))
    err = ad.add(ad.add(ad.matmul(h, w2), b2), ad.Tensor(-y))
    return ad.matmul(ad.mul(err, err), ad.Tensor(np.full(len(y), 1 / len(y))))  # the mean

# --- gradient fidelity ----------------------------------------------------
worst = ad.grad_check(loss_value, params, epsilon=1e-6)
n_entries = sum(p.data.size for p in params)
print(f"grad check over {n_entries} entries: max rel err {worst:.3e}")
assert worst < 1e-5

# --- a few hundred SGD steps ----------------------------------------------
for step in range(601):
    with ad.Tape() as tape:
        loss = loss_value()
    ad.backward(tape, loss)
    ad.sgd_step(params, 0.5 * 0.9 ** (step // 50), step)
    if step % 150 == 0:
        print(f"step {step:4d}  mse {float(loss.data):.5f}")

final = float(loss_value().data)
print(f"final mse {final:.5f} (variance of y is {np.var(y):.3f})")
assert final < 0.02
