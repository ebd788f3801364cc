"""Tour of the reverse-mode engine: fused tape nodes, gradients, and a tiny SGD fit.

Fits a two-layer ReLU regressor (one `ad.affine_stack` node) to a noisy
sine under mean absolute error (one `ad.l1_loss` node), checks its
gradients against central differences, then trains it for twelve hundred
steps.
"""

import numpy as np

from gme import autodiff as ad

rng = np.random.default_rng(7)

# --- data: y = sin(3x) + noise on [-1, 1] ---------------------------------
x = rng.uniform(-1, 1, size=(128, 1))
y = np.sin(3 * x) + rng.normal(0, 0.05, size=(128, 1))

w1 = ad.Parameter(ad.glorot_uniform(rng, (1, 32)), "demo.w1")
b1 = ad.Parameter(rng.uniform(-1, 1, 32), "demo.b1")  # spread the ReLU kinks over [-1, 1]
w2 = ad.Parameter(ad.glorot_uniform(rng, (32, 1)), "demo.w2")
b2 = ad.Parameter(np.zeros(1), "demo.b2")
params = ad.Parameters([w1, b1, w2, b2])  # one flat buffer each for values and gradients


def loss_value():
    pred = ad.affine_stack(x, [(w1, b1), (w2, b2)], None)
    return ad.l1_loss([(pred, y, 1.0)])[0]


# --- gradient fidelity ----------------------------------------------------
with ad.Tape() as tape:
    loss_value()
print(f"one forward records {len(tape)} tape nodes")
worst = ad.grad_check(loss_value, params, epsilon=1e-6)
n_entries = sum(p.data.size for p in params)
print(f"grad check over {n_entries} entries: max rel err {worst:.3e}")
assert worst < 1e-5

# --- twelve hundred SGD steps -----------------------------------------
for step in range(1201):
    with ad.Tape() as tape:
        loss = loss_value()
    ad.backward(tape, loss)
    ad.sgd_step(params, 0.1 * 0.9 ** (step // 100), step)
    if step % 300 == 0:
        print(f"step {step:4d}  mae {float(loss.data):.5f}")

final = float(loss_value().data)
print(f"final mae {final:.5f} (mean |y - mean y| is {np.mean(np.abs(y - y.mean())):.3f})")
assert final < 0.1  # the noise alone gives about 0.04
