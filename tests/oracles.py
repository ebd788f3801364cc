"""Straight-line numpy mirrors of the model's forward pass and of context building.

Everything here is plain loops over ndarray views of the model's
parameters: no batching, and no Tensor or tape except in the engine
references, which keep the generic taped ops and the per-op and per-step
forms the fused ops replaced.  Tests compare these against the engine to
catch wiring mistakes that unit tests on single ops miss.
The data formulas work one project at a time on that project's own
events, the feature encoder one project and one block at a time, and tree
growth attaches one candidate at a time, as the whole-market array code
they check once did.
"""

import math
from bisect import bisect_right

import numpy as np

from gme import autodiff as ad
from gme.competition import LEAKY_SLOPE
from gme.data import SEGMENT_STARTS, DataError, hashed_text_embedding

HOUR = 3600
DAY = 86400


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _leaky(z, slope):
    return np.where(z > 0, z, slope * z)


def lstm_state(quantifier, series_row):
    h = np.zeros(quantifier.candidate[2].data.shape)  # the width is the bias's
    c = np.zeros_like(h)
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
    act = _leaky(scores, LEAKY_SLOPE)
    weights = np.exp(act) / np.exp(act).sum()
    pooled = np.zeros(attn.b_embed.data.shape)
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


def dense_levels(tree):
    """The roll-up schedule read from the dense adjacency: (rows, their
    adjacency rows) per depth, deepest first, as the model once built it."""
    adjacency = tree.adjacency
    updated = adjacency.any(axis=1)
    updated[:tree.n_roots] = True  # a root updates even with no children
    levels = []
    for d in range(max(tree.max_depth, 1) - 1, -1, -1):
        rows = np.nonzero(updated & (tree.depth == d))[0]
        if rows.size:
            levels.append((rows, adjacency[rows]))
    return levels


def rival_states(model, ctx):
    if not ctx.rival_rows.size:
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


# --- engine references for the fused ops ---------------------------------------
# The generic taped ops below (add, mul, matmul, take_rows, relu, tanh, dropout and
# the rest) are the per-op forms that each fused `ad` node must equal bit for bit.

def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g down to `shape` after a broadcast forward."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _check_elementwise(op: str, a, b) -> None:
    """Operand shapes must broadcast under numpy's rules."""
    sa, sb = a.data.shape, b.data.shape
    try:
        np.broadcast_shapes(sa, sb)
    except ValueError:
        raise ad.ShapeError(f"{op}: incompatible shapes {sa} and {sb}") from None


def add(a, b):
    a, b = ad._as_tensor(a), ad._as_tensor(b)
    _check_elementwise("add", a, b)
    out = ad.Tensor(a.data + b.data)
    sa, sb = a.data.shape, b.data.shape
    return ad._record(out, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def mul(a, b):
    a, b = ad._as_tensor(a), ad._as_tensor(b)
    _check_elementwise("mul", a, b)
    out = ad.Tensor(a.data * b.data)
    sa, sb = a.data.shape, b.data.shape

    def _bwd(g):
        return _unbroadcast(g * b.data, sa), _unbroadcast(g * a.data, sb)

    return ad._record(out, (a, b), _bwd)


def matmul(a, b):
    a, b = ad._as_tensor(a), ad._as_tensor(b)
    if a.data.ndim not in (1, 2) or b.data.ndim not in (1, 2):
        raise ad.ShapeError(f"matmul: shapes {a.data.shape} and {b.data.shape} must be 1-D or 2-D")
    if a.data.shape[-1] != b.data.shape[0]:
        raise ad.ShapeError(f"matmul: inner dimensions differ for shapes {a.data.shape} and {b.data.shape}")
    out = ad.Tensor(a.data @ b.data)
    da, db = a.data, b.data

    def _bwd(g):
        if da.ndim == 2 and db.ndim == 2:
            return g @ db.T, da.T @ g
        if da.ndim == 2 and db.ndim == 1:
            return np.outer(g, db), da.T @ g
        if da.ndim == 1 and db.ndim == 2:
            return db @ g, np.outer(da, g)
        return g * db, g * da

    return ad._record(out, (a, b), _bwd)


def take_rows(x, rows: slice):
    """A block of rows of a 2-D input; its backward writes the block back."""
    x = ad._as_tensor(x)
    if x.data.ndim != 2 or not isinstance(rows, slice):
        raise ad.ShapeError(f"take_rows: needs a 2-D input and a slice, got {x.data.shape} and {rows!r}")
    out = ad.Tensor(x.data[rows].copy())

    def _bwd(g):
        gx = np.zeros_like(x.data)
        gx[rows] = g
        return (gx,)

    return ad._record(out, (x,), _bwd)


def relu(x):
    x = ad._as_tensor(x)
    out = ad.Tensor(np.maximum(x.data, 0.0))
    mask = x.data > 0.0
    return ad._record(out, (x,), lambda g: (g * mask,))


def tanh(x):
    x = ad._as_tensor(x)
    out = ad.Tensor(np.tanh(x.data))
    y = out.data
    return ad._record(out, (x,), lambda g: (g * (1.0 - y * y),))


def dropout(x, keep_prob: float, rng: np.random.Generator):
    """Inverted dropout: zero entries with probability 1-keep and rescale.

    keep_prob == 1 is the identity and records nothing; training-mode gating
    is the caller's job.
    """
    x = ad._as_tensor(x)
    if not 0.0 < keep_prob <= 1.0:
        raise ValueError(f"dropout: keep_prob {keep_prob} outside (0, 1]")
    if keep_prob == 1.0:
        return x
    mask = (rng.random(x.data.shape) < keep_prob) / keep_prob
    out = ad.Tensor(x.data * mask)
    return ad._record(out, (x,), lambda g: (g * mask,))


def piecewise_sigmoid(d):
    """The logistic function with one exp per entry, split on the sign of d."""
    y = np.empty_like(d)
    pos = d >= 0.0
    y[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ex = np.exp(d[~pos])
    y[~pos] = ex / (1.0 + ex)
    return y


def sub(a, b):
    """Taped broadcasting subtraction: with `absolute` and `mean`, the per-op form of `ad.l1_loss`."""
    a, b = ad._as_tensor(a), ad._as_tensor(b)
    _check_elementwise("sub", a, b)
    out = ad.Tensor(a.data - b.data)
    sa, sb = a.data.shape, b.data.shape
    return ad._record(out, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))


def absolute(x):
    x = ad._as_tensor(x)
    out = ad.Tensor(np.abs(x.data))
    s = np.sign(x.data)
    return ad._record(out, (x,), lambda g: (g * s,))


def mean(x):
    """Taped mean of every entry; the tests' scalarizer."""
    x = ad._as_tensor(x)
    if x.data.size == 0:
        raise ad.ShapeError("mean: empty input")
    out = ad.Tensor(x.data.mean())
    shape, n = x.data.shape, x.data.size
    return ad._record(out, (x,), lambda g: (np.full(shape, float(g) / n),))


def sigmoid(x):
    """Taped logistic function, as the fused ops compute it."""
    x = ad._as_tensor(x)
    out = ad.Tensor(ad._logistic(x.data))
    y = out.data
    return ad._record(out, (x,), lambda g: (g * y * (1.0 - y),))


def gather(x, indices):
    """Taped gather of rows (2-D input) or entries (1-D input) by an integer index array.

    The output takes the index array's shape, so a column of indices into a
    vector gives a column; the backward scatters with np.add.at, so repeated
    indices sum their gradients.
    """
    x = ad._as_tensor(x)
    idx = np.asarray(indices, dtype=np.intp)
    if x.data.ndim not in (1, 2):
        raise ad.ShapeError(f"gather: input of shape {x.data.shape} is not 1-D or 2-D")
    out = ad.Tensor(x.data[idx])
    xshape = x.data.shape

    def _bwd(g):
        gx = np.zeros(xshape)
        np.add.at(gx, idx, g)
        return (gx,)

    return ad._record(out, (x,), _bwd)


def leaky_relu(x, negative_slope):
    x = ad._as_tensor(x)
    out = ad.Tensor(np.where(x.data > 0.0, x.data, negative_slope * x.data))
    scale = np.where(x.data > 0.0, 1.0, negative_slope)
    return ad._record(out, (x,), lambda g: (g * scale,))


def softmax(x, mask):
    """Row-wise softmax of a 2-D score matrix over the entries where mask is nonzero.

    Masked-out entries get weight 0 and a row with no entries is all zeros.
    Each row is stable under a constant shift of its scores.
    """
    x = ad._as_tensor(x)
    keep = np.asarray(mask) != 0
    if x.data.ndim != 2 or keep.shape != x.data.shape:
        raise ad.ShapeError(f"softmax: scores of shape {x.data.shape} need a 2-D mask of the "
                            f"same shape, got {keep.shape}")
    top = np.max(x.data, axis=1, keepdims=True, initial=-np.inf, where=keep)
    e = np.exp(np.where(keep, x.data - top, -np.inf))
    total = e.sum(axis=1, keepdims=True)
    y = np.divide(e, total, out=np.zeros_like(e), where=total > 0.0)
    out = ad.Tensor(y)

    def _bwd(g):
        return (y * (g - (y * g).sum(axis=1, keepdims=True)),)

    return ad._record(out, (x,), _bwd)


def taped_attention(target_x, rival_x, rival_states, mask, params, slope):
    """`ad.attention` as the per-op taped chain: 15 tape nodes."""
    w_score, v, w_value, w_embed, b_embed = params
    hidden = b_embed.shape[0]
    xt = ad.Tensor(target_x)
    v_target = gather(v, np.arange(hidden)[:, None])  # (hidden, 1)
    v_rival = gather(v, np.arange(hidden, 2 * hidden))  # (hidden,)
    target_scores = matmul(matmul(xt, w_score), v_target)  # (targets, 1)
    rival_scores = matmul(matmul(ad.Tensor(rival_x), w_score), v_rival)
    scores = leaky_relu(add(target_scores, rival_scores), slope)
    alpha = softmax(scores, mask)
    pooled = matmul(alpha, matmul(rival_states, w_value))
    # alpha pools 0 for a target with no rivals; it takes its own embedding instead
    isolated = ~np.asarray(mask).any(axis=1, keepdims=True)
    own = add(matmul(xt, w_embed), b_embed)
    return add(pooled, mul(own, isolated.astype(np.float64))), alpha.data


def row_update(x, indices, rows):
    """Taped functional row replacement: out = x with out[indices] = rows (distinct indices)."""
    x, rows = ad._as_tensor(x), ad._as_tensor(rows)
    idx = np.asarray(indices, dtype=np.intp)
    assert np.unique(idx).size == idx.size and rows.shape == (idx.size, x.shape[1])
    data = x.data.copy()
    data[idx] = rows.data
    out = ad.Tensor(data)

    def _bwd(g):
        gx = g.copy()
        gx[idx] = 0.0
        return gx, g[idx]

    return ad._record(out, (x, rows), _bwd)


def join_columns(*parts):
    """Taped column join of 2-D inputs; the backward slices the gradient."""
    parts = [ad._as_tensor(p) for p in parts]
    out = ad.Tensor(np.concatenate([p.data for p in parts], axis=1))
    ends = np.cumsum([p.data.shape[1] for p in parts])
    return ad._record(out, tuple(parts), lambda g: tuple(np.hsplit(g, ends[:-1])))


def stack_rows(*parts):
    """Taped row stack of 2-D inputs and 1-D rows; the backward slices the gradient."""
    parts = [ad._as_tensor(p) for p in parts]
    out = ad.Tensor(np.vstack([p.data for p in parts]))
    ends = np.cumsum([np.atleast_2d(p.data).shape[0] for p in parts])
    shapes = [p.data.shape for p in parts]
    return ad._record(out, tuple(parts), lambda g: tuple(
        block.reshape(shape) for block, shape in zip(np.vsplit(g, ends[:-1]), shapes)))


def exp_sigmoid(x):
    """Taped 1 / (1 + exp(-x)), the LSTM's gate form; exp may overflow to inf (gate 0)."""
    x = ad._as_tensor(x)
    with np.errstate(over="ignore"):
        out = ad.Tensor(1.0 / (1.0 + np.exp(-x.data)))
    y = out.data
    return ad._record(out, (x,), lambda g: (g * y * (1.0 - y),))


def exp_tanh(x):
    """Taped 2 * (1 / (1 + exp(-2x))) - 1, the LSTM's candidate form of tanh."""
    x = ad._as_tensor(x)
    with np.errstate(over="ignore"):
        out = ad.Tensor(2.0 * (1.0 / (1.0 + np.exp(-2.0 * x.data))) - 1.0)
    y = out.data
    return ad._record(out, (x,), lambda g: (g * (1.0 - y * y),))


def taped_lstm(series, gates):
    """`ad.lstm` as the per-step taped loop: 14 tape nodes a step.

    Each gate's weights are one taped row stack [uh; wx; b], made once, and
    each step multiplies the taped column join [h, x_k, 1] by it.
    """
    n, steps = series.shape
    hidden = gates[0][2].shape[0]
    weights = [stack_rows(uh, wx, b) for wx, uh, b in gates]
    h = ad.Tensor(np.zeros((n, hidden)))
    c = ad.Tensor(np.zeros((n, hidden)))
    for k in range(steps):
        hx = join_columns(h, series[:, k:k + 1], np.ones((n, 1)))
        i, f, o = (exp_sigmoid(matmul(hx, w)) for w in weights[:3])
        g = exp_tanh(matmul(hx, weights[3]))
        c = add(mul(f, c), mul(i, g))
        h = mul(o, tanh(c))
    return h


def taped_rollup(states, levels, b_agg, gates):
    """`ad.tree_gru` as the per-level taped chain: 21 tape nodes a level."""
    (w_z, u_z), (w_r, u_r), (w_c, u_c) = gates
    h_all = ad._as_tensor(states)
    for rows, child_sum in levels:
        agg = add(matmul(ad.Tensor(child_sum), h_all), b_agg)
        h = gather(h_all, rows)
        z = sigmoid(add(matmul(agg, w_z), matmul(h, u_z)))
        r = sigmoid(add(matmul(agg, w_r), matmul(h, u_r)))
        cand = tanh(add(matmul(agg, w_c), matmul(mul(r, h), u_c)))
        h_all = row_update(h_all, rows, add(sub(h, mul(z, h)), mul(z, cand)))
    return h_all


def taped_affine_stack(x, layers, last):
    """`ad.affine_stack` as the per-op chain: matmul and add a layer, relu between, tanh last."""
    out = ad.Tensor(x)
    for i, (w, b) in enumerate(layers):
        if i:
            out = relu(out)
        out = add(matmul(out, w), b)
    return tanh(out) if last == "tanh" else out


def taped_head(pooled, states, n_roots, keep_prob, rng, params):
    """`ad.head` as the per-op chain, with `dropout` drawing the roots' mask from rng."""
    proj_w, proj_b, out_w, out_b, aux_w, aux_b = params
    combined, aux = pooled, None
    if states is not None:
        roots = dropout(take_rows(states, slice(0, n_roots)), keep_prob, rng)
        proj = add(matmul(roots, proj_w), proj_b)
        n = states.shape[0]
        if n > n_roots:
            aux = relu(add(matmul(take_rows(states, slice(n_roots, n)), aux_w), aux_b))
        combined = proj if pooled is None else add(pooled, proj)
    return relu(add(matmul(combined, out_w), out_b)), aux


def taped_forward(model, ctx, dropout_rng=None):
    """`GMEModel.forward` as the per-op chain, training when given a dropout rng: (pred, aux_pred).

    The prior quantifier and the head run per op; the recurrent quantifier,
    attention and the roll-up are the model's own fused nodes.
    """
    cfg = model.config
    pooled = states = None
    if cfg.ablation != "met-only":
        if cfg.quantifier == "prior-mlp":
            rivals = taped_affine_stack(np.concatenate([ctx.rival_series, ctx.rival_trends], axis=1),
                                        model.prior.layers, "tanh")
        else:
            rivals = model.recurrent.forward(ctx.rival_series)
        pooled = model.attention.forward(ctx.graph, ctx.target_features, ctx.rival_features, rivals)[0]
    if cfg.ablation != "pcm-only":
        states = model.updater.propagate(ctx.tree, ctx.tree_init).states
    keep = 1.0 if dropout_rng is None else cfg.dropout_keep
    return taped_head(pooled, states, ctx.tree.n_roots, keep, dropout_rng,
                      [model.proj_w, model.proj_b, model.out_w, model.out_b, model.aux_w, model.aux_b])


def taped_l1(pred, truth):
    """One L1 error as the per-op chain of `sub`, `absolute` and `mean`."""
    return mean(absolute(sub(pred, ad.Tensor(truth))))


def taped_loss(model, pred, aux_pred, ctx):
    """`GMEModel.loss` as the per-op chain: a bare error under pcm-only, eta * e_p
    with no auxiliary node, else eta * e_p + (1 - eta) * e_l.  Returns (total, e_p, e_l)."""
    pred_err = taped_l1(pred, ctx.truths)
    if model.config.ablation == "pcm-only":
        return pred_err, float(pred_err.data), 0.0
    eta = model.config.eta
    if aux_pred is None:
        return mul(pred_err, eta), float(pred_err.data), 0.0
    aux_err = taped_l1(aux_pred, ctx.aux_truths)
    return add(mul(pred_err, eta), mul(aux_err, 1.0 - eta)), float(pred_err.data), float(aux_err.data)


def sgd_step(params, rate, step):
    """The per-parameter update `ad.sgd_step` replaced: refuse the step if any
    gradient is non-finite, then p.data -= rate * p.grad and zero p.grad, one
    parameter at a time, for any sequence of parameters."""
    for p in params:
        if not np.all(np.isfinite(p.grad)):
            raise ad.GradientError(f"non-finite gradient in parameter {p.name!r} at step {step}")
    for p in params:
        p.data -= rate * p.grad
        p.grad[...] = 0.0


# --- per-project data formulas ------------------------------------------------

class ProjectLog:
    """One project's events, time-sorted (amount breaks ties), with prefix sums."""

    def __init__(self, times, amounts):
        times = np.asarray(times, dtype=np.int64)
        amounts = np.asarray(amounts, dtype=np.float64)
        order = np.lexsort((amounts, times))
        self.times = times[order]
        self.prefix = np.concatenate([[0.0], np.cumsum(amounts[order])])

    def total_before(self, t):
        return float(self.prefix[np.searchsorted(self.times, t, side="left")])

    def total_between(self, lo, hi):
        i, j = np.searchsorted(self.times, [lo, hi], side="left")
        return float(self.prefix[j] - self.prefix[i])


def fundraising_target(project, log, tau_hours):
    raised = log.total_between(project.published_time,
                               project.published_time + tau_hours * HOUR)
    return float(np.log2(1.0 + raised / project.goal))


def early_stage_amount(project, log, tau_hours):
    return float(np.log2(1.0 + log.total_before(project.published_time + tau_hours * HOUR)))


def hourly_series(log, t_obs):
    bounds = t_obs - HOUR * np.arange(24, -1, -1, dtype=np.int64)
    sums = np.diff(log.prefix[np.searchsorted(log.times, bounds, side="left")])
    return np.log2(1.0 + sums[::-1])


def prior_trend(project, log, t_obs, bins=6):
    raised = log.total_before(t_obs)
    days = max(1, -(-(t_obs - project.published_time) // DAY))
    trend = min(1.0, max(0.0, (raised / project.goal) / math.log2(days + 1)))
    return trend, min(bins - 1, int(trend * bins))


def _onehot(vocab, value):
    block = np.zeros(len(vocab) + 1)
    try:
        block[vocab.index(value)] = 1.0
    except ValueError:
        block[len(vocab)] = 1.0  # overflow bucket
    return block


def encode_project(encoder, project):
    """One project's static-feature row: its blocks built one by one and concatenated."""
    if encoder.text_mode == "precomputed":
        if project.vec is None:
            raise DataError(f"project {project.id}: field 'vec' required in precomputed text mode")
        if len(project.vec) != encoder.text_dim:
            raise DataError(f"project {project.id}: field 'vec' has length {len(project.vec)}, "
                            f"expected {encoder.text_dim}")
        text = np.asarray(project.vec, dtype=np.float64)
    else:
        if project.text is None and project.vec is not None:
            raise DataError(f"project {project.id}: field 'text' required in hashed text mode "
                            f"(the project carries only 'vec')")
        text = hashed_text_embedding(project.text or "", encoder.text_dim)
    duration = np.zeros(encoder.duration_bins)
    duration[bisect_right(encoder.duration_day_edges, project.duration_days)] = 1.0
    goal = np.zeros(encoder.goal_bins)
    goal[bisect_right(encoder.goal_log2_edges, math.log2(project.goal))] = 1.0
    return np.concatenate([
        text,
        _onehot(encoder.categories, project.category),
        _onehot(encoder.creator_types, project.creator_type),
        _onehot(encoder.currencies, project.currency),
        duration,
        goal,
    ])


def segment_index(hour):
    """The intra-day segment of a local hour, one hour at a time."""
    return bisect_right(SEGMENT_STARTS, hour) - 1


def running_set(projects, t):
    return [p for p in projects if p.published_time <= t < p.end_time]


def observable_set(projects, t_ref, history_days, tau_hours):
    return [p for p in projects
            if tau_hours * HOUR < t_ref - p.published_time < tau_hours * history_days * HOUR]


def grow_tree(targets, observables, t_h, tau_hours):
    """(node_ids, node_times, depth, edges, dropped_ids), one candidate at a time.

    edges is a (2, n_edges) array of (parent, child) node numbers in the
    order the edges attached."""
    tau_s = tau_hours * HOUR
    node_ids = [p.id for p in targets]
    times = [p.published_time for p in targets]
    depth = [0] * len(targets)
    edges = []
    remaining = sorted(observables, key=lambda p: (p.published_time, p.id))
    for k in range(1, t_h + 1):
        snapshot = np.asarray(times, dtype=np.int64)
        attach, leftover = [], []
        for rec in remaining:
            gaps = snapshot - rec.published_time
            rows = np.nonzero((gaps > tau_s) & (gaps < 2 * tau_s))[0]
            if rows.size == 0:
                leftover.append(rec)
                continue
            if k > 1:
                rows = rows[[np.argmin(gaps[rows])]]
            attach.append((rec, rows))
        for rec, rows in attach:
            edges.extend((int(r), len(node_ids)) for r in rows)
            node_ids.append(rec.id)
            times.append(rec.published_time)
            depth.append(k)
        remaining = leftover
        if not remaining:
            break
    return (tuple(node_ids), np.asarray(times, dtype=np.int64),
            np.asarray(depth, dtype=np.int64), np.array(edges, dtype=np.int64).reshape(-1, 2).T,
            tuple(p.id for p in remaining))
