"""Straight-line numpy mirrors of the model's forward pass.

Everything here is plain loops over ndarray views of the model's
parameters: no Tensor, no tape, no batching.  Tests compare these against
the engine to catch wiring mistakes that unit tests on single ops miss.
"""

import numpy as np


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _leaky(z, slope):
    return np.where(z > 0, z, slope * z)


def lstm_state(quantifier, series_row):
    h = np.zeros(quantifier.hidden)
    c = np.zeros(quantifier.hidden)
    gates = (quantifier.input_gate, quantifier.forget_gate,
             quantifier.output_gate, quantifier.candidate)
    for x in series_row:
        vals = []
        for n, (wx, uh, b) in enumerate(gates):
            z = x * wx.data[0] + h @ uh.data + b.data
            vals.append(np.tanh(z) if n == 3 else _sigmoid(z))
        i, f, o, g = vals
        c = f * c + i * g
        h = o * np.tanh(c)
    return h


def prior_state(quantifier, input_row):
    h = np.asarray(input_row, dtype=np.float64)
    last = len(quantifier.layers) - 1
    for n, (w, b) in enumerate(quantifier.layers):
        z = h @ w.data + b.data
        h = np.tanh(z) if n == last else np.maximum(z, 0.0)
    return h


def attention_pool(attn, x_target, rival_features, rival_states, cols):
    if len(cols) == 0:
        return x_target @ attn.w_embed.data + attn.b_embed.data, np.zeros(0)
    w, v = attn.w_score.data, attn.v.data
    scores = np.asarray([
        v @ np.concatenate([x_target @ w, rival_features[i] @ w]) for i in cols])
    act = _leaky(scores, attn.leaky_slope)
    weights = np.exp(act) / np.exp(act).sum()
    pooled = np.zeros(attn.hidden)
    for a, i in zip(weights, cols):
        pooled += a * (rival_states[i] @ attn.w_value.data)
    return pooled, weights


def tree_rollup(updater, tree, init):
    h = np.array(init, dtype=np.float64, copy=True)
    for d in range(max(tree.max_depth, 1) - 1, -1, -1):
        fresh = {}
        for i in np.nonzero(tree.depth == d)[0]:
            kids = np.nonzero(tree.adjacency[i])[0]
            if d != 0 and kids.size == 0:
                continue
            agg = h[kids].sum(axis=0) + updater.b_agg.data
            z = _sigmoid(agg @ updater.w_z.data + h[i] @ updater.u_z.data)
            r = _sigmoid(agg @ updater.w_r.data + h[i] @ updater.u_r.data)
            cand = np.tanh(agg @ updater.w_c.data + (r * h[i]) @ updater.u_c.data)
            fresh[int(i)] = (1.0 - z) * h[i] + z * cand
        for i, row in fresh.items():
            h[i] = row
    return h


def rival_states(model, ctx):
    if not ctx.rival_ids:
        return np.zeros((0, model.config.hidden))
    if model.config.quantifier == "recurrent":
        return np.stack([lstm_state(model.recurrent, row) for row in ctx.rival_series])
    rows = np.concatenate([ctx.rival_series, ctx.rival_trends], axis=1)
    return np.stack([prior_state(model.prior, row) for row in rows])


def predict_target_set(model, ctx):
    """Full-chain mirror of GMEModel.predict for one context."""
    cfg = model.config
    combined = None
    if cfg.ablation != "met-only":
        states = rival_states(model, ctx)
        pooled = []
        for g in range(len(ctx.target_ids)):
            cols = list(np.nonzero(ctx.graph.adjacency[g])[0])
            pooled.append(attention_pool(
                model.attention, ctx.target_features[g],
                ctx.rival_features, states, cols)[0])
        combined = np.stack(pooled)
    if cfg.ablation != "pcm-only":
        rolled = tree_rollup(model.updater, ctx.tree, ctx.tree_init)
        proj = rolled[:ctx.tree.n_roots] @ model.proj_w.data + model.proj_b.data
        combined = proj if combined is None else combined + proj
    return np.maximum(combined @ model.out_w.data + model.out_b.data, 0.0)


def aux_predictions(model, ctx):
    rolled = tree_rollup(model.updater, ctx.tree, ctx.tree_init)
    nonroot = rolled[ctx.tree.n_roots:]
    return np.maximum(nonroot @ model.aux_w.data + model.aux_b.data, 0.0)


def joint_loss(model, ctx):
    """(total, loss_p, loss_l) mirroring the training objective."""
    preds = predict_target_set(model, ctx)
    loss_p = float(np.mean(np.abs(preds - ctx.truths)))
    if model.config.ablation == "pcm-only":
        return loss_p, loss_p, 0.0
    if ctx.tree.n_nodes == ctx.tree.n_roots:
        return model.config.eta * loss_p, loss_p, 0.0
    aux = aux_predictions(model, ctx)
    loss_l = float(np.mean(np.abs(aux - ctx.aux_truths)))
    eta = model.config.eta
    return eta * loss_p + (1.0 - eta) * loss_l, loss_p, loss_l
