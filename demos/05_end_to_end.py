"""End to end: generate a market, train the full model, beat the baselines.

Trains on a planted-signal synthetic market where launch-window crowding
and drifting category preferences drive early funding, then compares the
trained model against static-feature baselines on held-out launch days.
Finishes with a checkpoint round trip and an attention readout.
"""

import numpy as np

from gme.autodiff import load_checkpoint, save_checkpoint
from gme.model import GMEModel, TrainConfig
from gme.synth import SynthConfig, generate_market
from gme.training import (build_contexts, evaluate_model, fit_baseline,
                          evaluation_report, train_model)

market, trace = generate_market(SynthConfig(n_projects=800, days=60, seed=0))
print(f"market: {len(market.projects)} projects over 60 days")

config = TrainConfig(tau=24, t_h=5, quantifier="prior-mlp", epochs=40,
                     dropout_keep=1.0, seed=0)
bundle = build_contexts(market, config)
print(f"contexts: {len(bundle.train)} train sets, {len(bundle.test)} test sets, "
      f"{bundle.encoder.feature_dim} features")

model = GMEModel(bundle.encoder.feature_dim, config)
for h in train_model(model, bundle.train):
    if h.epoch % 10 == 0 or h.epoch == config.epochs - 1:
        print(f"  epoch {h.epoch:2d}  pred loss {h.loss_p:.4f}  "
              f"aux loss {h.loss_l:.4f}  {h.seconds:.2f}s")

report = evaluate_model(model, bundle.test)
print(f"\nheld-out MAE {report['mae']:.4f}  RMSE {report['rmse']:.4f} "
      f"({report['n_targets']} targets)")
for kind in ("mean", "linear", "mlp"):
    predict = fit_baseline(kind, bundle.train, config)
    base = evaluation_report(bundle.test, predict, config.to_json())
    gain = 100.0 * (1.0 - report["mae"] / base["mae"])
    print(f"  vs {kind:6s} baseline MAE {base['mae']:.4f}  "
          f"model gain {gain:+.1f}%")

# --- checkpoint round trip --------------------------------------------------
save_checkpoint("/tmp/demo_ckpt.json", model.parameters(),
                {"config": config.to_json()})
values, meta = load_checkpoint("/tmp/demo_ckpt.json")
twin = GMEModel(bundle.encoder.feature_dim,
                TrainConfig.from_json(meta["config"]))
twin.load_state(values)
ctx = bundle.test[0]
assert np.array_equal(twin.predict(ctx), model.predict(ctx))
print("\ncheckpoint round trip reproduces predictions bit for bit")

# --- what the model attends to ----------------------------------------------
alpha = model.forward(ctx).attention[0]
top = np.argsort(alpha)[::-1][:3]
pairs = ", ".join(f"{ctx.rival_ids[i]}={alpha[i]:.4f}" for i in top)
print(f"target {ctx.target_ids[0]} splits attention over "
      f"{np.count_nonzero(ctx.graph.adjacency[0])} rivals; top weights {pairs}")
