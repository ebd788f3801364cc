"""Dense float64 tensors with taped reverse-mode differentiation.

Primitives execute eagerly on numpy arrays.  Inside a ``with Tape()`` block
every primitive application is recorded in forward order, and ``backward``
replays the records in reverse to accumulate gradients into the inputs.
Outside a tape the same primitives run without recording, which is how
inference and finite-difference probes are evaluated.

Also home to the SGD step, the finite-difference gradient checker, glorot
initialization, checkpoint round-tripping, and the single-seed RNG
derivation used across the package.
"""

from __future__ import annotations

import base64
import hashlib
import json
import threading

import numpy as np

__all__ = [
    "ShapeError",
    "GradientError",
    "Tensor",
    "Parameter",
    "Parameters",
    "Tape",
    "backward",
    "affine_stack",
    "lstm",
    "tree_gru",
    "attention",
    "head",
    "l1_loss",
    "sgd_step",
    "grad_check",
    "glorot_uniform",
    "derive_rng",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
]


class ShapeError(ValueError):
    """Operand shapes do not conform to an op's dimension rules."""


class GradientError(RuntimeError):
    """Non-finite loss or gradient encountered while optimizing."""


_LOCAL = threading.local()  # independent tapes may run on separate threads
GRAD_CHECK_FLOOR = 1e-6  # the least denominator of grad_check's relative error


def _tape_stack() -> list:
    stack = getattr(_LOCAL, "tapes", None)
    if stack is None:
        stack = _LOCAL.tapes = []
    return stack


class Tensor:
    """A float64 array plus the gradient slot filled in by ``backward``."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


class Parameter(Tensor):
    """Trainable tensor: named, with a persistent pre-allocated gradient."""

    __slots__ = ("name", "packed")

    def __init__(self, data, name: str):
        super().__init__(data)
        self.name = name
        self.grad = np.zeros_like(self.data)
        self.packed = False  # set once a Parameters arena holds it

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.data.shape})"


class Parameters(tuple):
    """A tuple of Parameters whose `data` and `grad` are views into two flat float64 buffers.

    Building one copies each parameter's values and gradient into its slice
    of `.data` and `.grad`, in the given order, and rebinds the parameter's
    `data` and `grad` to reshaped views of that slice; slice k ends at
    `ends[k]`.  A parameter joins one arena for good: packing one that an
    arena already holds, or one listed twice, raises ValueError, since the
    older slice would keep values the parameter no longer uses.
    """

    def __new__(cls, params):
        params = tuple(params)
        seen = set()
        for p in params:
            if p.packed or id(p) in seen:
                raise ValueError(f"parameter {p.name!r} is already held by a Parameters arena")
            seen.add(id(p))
        self = super().__new__(cls, params)
        self.ends = np.cumsum([p.data.size for p in params], dtype=np.int64)
        total = int(self.ends[-1]) if params else 0
        self.data, self.grad = np.empty(total), np.empty(total)
        for p, hi in zip(params, self.ends.tolist()):
            lo = hi - p.data.size
            self.data[lo:hi], self.grad[lo:hi] = p.data.ravel(), p.grad.ravel()
            p.data, p.grad = self.data[lo:hi].reshape(p.data.shape), self.grad[lo:hi].reshape(p.data.shape)
            p.packed = True
        return self


class Tape:
    """Ordered record of primitive applications for one forward pass.

    Each entry is (outputs, inputs, backward_fn) appended in execution order,
    so a reversed replay visits consumers before producers.
    """

    __slots__ = ("_nodes",)

    def __init__(self):
        self._nodes = []

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc) -> bool:
        popped = _tape_stack().pop()
        assert popped is self
        return False

    def __len__(self) -> int:
        return len(self._nodes)


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _record(out, inputs: tuple, backward_fn):
    """Tape `out`, a tensor or a tuple of them; backward_fn takes one gradient per output,
    None for an output the loss does not reach, and returns one per input."""
    stack = _tape_stack()
    if stack:
        stack[-1]._nodes.append((out if isinstance(out, tuple) else (out,), inputs, backward_fn))
    return out


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate d(loss)/d(input) into every tensor recorded on the tape.

    The reversed replay visits each recorded node exactly once; nodes none of
    whose outputs reached the loss carry no gradient and are skipped.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward: loss of shape {loss.data.shape} is not scalar")
    loss.grad = np.ones_like(loss.data)
    for outs, inputs, backward_fn in reversed(tape._nodes):
        gouts = [out.grad for out in outs]
        if all(g is None for g in gouts):
            continue
        grads = backward_fn(*gouts)
        for tensor, g in zip(inputs, grads):
            if g is None:
                continue
            if tensor.grad is None:
                tensor.grad = np.zeros_like(tensor.data)
            tensor.grad += g


def affine_stack(x, layers, last) -> Tensor:
    """Affine layers h w + b over the rows of a 2-D constant x as one tape node.

    `layers` holds (w, b) pairs shaped (a, b) and (b,), the first a the width
    of x and each later a the previous b.  ReLU sits between the layers, and
    tanh follows the last when `last` is "tanh" (it is None otherwise).  The
    backward adds terms in the order the per-op tape of matmul, add, relu and
    tanh would, so values and parameter gradients equal that tape's bit for bit.
    """
    h, layers = _as_tensor(x).data, [(_as_tensor(w), _as_tensor(b)) for w, b in layers]
    widths = [h.shape[-1] if h.ndim else 0] + [w.data.shape[-1] if w.data.ndim else 0 for w, _ in layers]
    got = [(w.data.shape, b.data.shape) for w, b in layers]
    if h.ndim != 2 or not layers or got != [((a, b), (b,)) for a, b in zip(widths, widths[1:])]:
        raise ShapeError(f"affine_stack: input of shape {h.shape} needs 2-D, and layers of shapes {got} "
                         f"need (w, b) pairs shaped (a, b) and (b,), the first a the input width")
    if last not in (None, "tanh"):
        raise ValueError(f"affine_stack: last must be None or 'tanh', got {last!r}")
    inputs = [h]  # each layer's input; a ReLU output is > 0 exactly where its input was
    for i, (w, b) in enumerate(layers):
        if i:
            h = np.maximum(h, 0.0)
            inputs.append(h)
        h = h @ w.data
        h += b.data
    y = np.tanh(h) if last else h
    out = Tensor(y)

    def _bwd(g):
        if last:
            g = g * (1.0 - y * y)
        grads = []
        for i in range(len(layers) - 1, -1, -1):
            grads += [g.sum(axis=0), inputs[i].T @ g]
            if i:
                g = g @ layers[i][0].data.T
                g *= inputs[i] > 0.0
        return grads[::-1]

    return _record(out, tuple(p for pair in layers for p in pair), _bwd)


def _logistic(d: np.ndarray, out=None) -> np.ndarray:
    """1 / (1 + exp(-d)) as where(d >= 0, 1, e) / (1 + e) with e = exp(-|d|).

    exp only ever sees -|d|, so nothing overflows; and since 0 <= e <= 1,
    the select is max(e, d >= 0), which needs no branch.  `out` may be d.
    """
    pos = d >= 0.0
    e = np.abs(d, out=out)
    np.negative(e, out=e)
    np.exp(e, out=e)
    den = 1.0 + e
    np.maximum(e, pos, out=e)
    return np.divide(e, den, out=e)


def lstm(series, gates) -> Tensor:
    """Final hidden state of an LSTM run over the columns of a (n, steps) series.

    `gates` holds the (wx, uh, b) triples of the input, forget and output
    gates and the candidate, shaped (1, H), (H, H) and (H,).  Each step sets
    z = [h, x_k, 1] [uh; wx; b] per gate, i, f, o = 1 / (1 + exp(-z)),
    g = 2 / (1 + exp(-2z)) - 1 = tanh(z), c = f c + i g and h = o tanh(c),
    from h = c = 0: one product by the stacked weights scaled exactly by -1
    or -2, and one exp pass (inf where a gate is 0).  The run is one tape
    node, whose backward adds terms in the order the per-step tape would
    (dh from the first H columns of dz [uh; wx; b]^T, candidate first; dc
    from the next step before tanh(c); parameter terms from the last step
    back), so values and gradients equal that tape's bit for bit.  Taped, a
    step keeps its gates and the c entering it; the backward rebuilds tanh(c)
    and h with the forward's own numpy calls.
    """
    x = np.asarray(series, dtype=np.float64)
    gates = [tuple(_as_tensor(p) for p in gate) for gate in gates]
    hidden = gates[0][-1].data.size if gates and gates[0] else 0  # the first bias is (H,)
    want = ((1, hidden), (hidden, hidden), (hidden,))
    shapes = [tuple(p.data.shape for p in gate) for gate in gates]
    if x.ndim != 2 or shapes != [want] * 4:
        raise ShapeError(f"lstm: series of shape {x.shape} needs 2-D, and gates of shapes "
                         f"{shapes} need four (wx, uh, b) triples shaped {want}")
    n, steps = x.shape
    w = np.stack([np.vstack([uh.data, wx.data, b.data]) for wx, uh, b in gates])  # (4, H + 2, H)
    scaled = w * np.array([-1.0, -1.0, -1.0, -2.0])[:, None, None]
    hx = np.hstack([np.zeros((n, hidden + 1)), np.ones((n, 1))])  # [h | x_k | 1]
    h = hx[:, :hidden]
    # Taped, each step keeps its gates and the c entering it (and the last c)
    # for the backward, each in its own array: numpy madvises arrays of 4 MiB
    # or more for huge pages, and a (4, n, H) block stays under that up to
    # 2,621 rivals at H = 50.  Untaped, one slot (two for the carried c) is
    # reused, indexed by k % len.
    keep = steps if _tape_stack() else 1
    acts = [np.empty((4, n, hidden)) for _ in range(keep)]  # i, f, o, g
    cs = [np.zeros((n, hidden))] + [np.empty((n, hidden)) for _ in range(keep)]
    tc, tmp = np.empty((n, hidden)), np.empty((n, hidden))
    for k in range(steps):
        hx[:, hidden] = x[:, k]
        z = np.matmul(hx, scaled, out=acts[k % keep])
        with np.errstate(over="ignore"):
            np.exp(z, out=z)
        np.reciprocal(np.add(z, 1.0, out=z), out=z)
        z[3] *= 2.0
        z[3] -= 1.0
        i, f, o, g = z
        c, c_next = cs[k % len(cs)], cs[(k + 1) % len(cs)]
        np.multiply(f, c, out=c_next)
        c_next += np.multiply(i, g, out=tmp)
        np.multiply(o, np.tanh(c_next, out=tc), out=h)
    out = Tensor(h.copy())

    def _bwd(gout):
        g_w, w_t = np.zeros_like(w), w.transpose(0, 2, 1)
        dz, back = np.empty((4, n, hidden)), np.empty((4, n, hidden + 2))
        tmp = back.reshape(-1)[:dz.size].reshape(dz.shape)  # scratch, dead once back is made
        gh, (gh_next, gc, carry) = gout, np.empty((3, n, hidden))
        tc = np.tanh(cs[steps])  # tanh(c) after step k
        for k in range(steps - 1, -1, -1):
            act = acts[k]
            i, f, o, g = act
            np.multiply(gh, o, out=gc)  # dc through tanh(c), plus the next step's f * dc
            gc *= np.subtract(1.0, np.multiply(tc, tc, out=tmp[0]), out=tmp[0])
            if k < steps - 1:
                gc += carry
            np.multiply(gc, g, out=dz[0])
            np.multiply(gc, cs[k], out=dz[1])
            np.multiply(gh, tc, out=dz[2])
            dz[:3] *= act[:3]
            dz[:3] *= np.subtract(1.0, act[:3], out=tmp[:3])
            np.multiply(gc, i, out=dz[3])
            dz[3] *= np.subtract(1.0, np.multiply(g, g, out=tmp[3]), out=tmp[3])
            if k:  # as the forward made them: tanh(c) after step k - 1, then its h
                np.multiply(acts[k - 1][2], np.tanh(cs[k], out=tc), out=h)
            else:
                h.fill(0.0)
            hx[:, hidden] = x[:, k]
            g_w += np.matmul(hx.T, dz)
            if k:
                np.matmul(dz, w_t, out=back)  # dh per gate, summed candidate first
                gh = np.add(back[3, :, :hidden], back[2, :, :hidden], out=gh_next)
                gh += back[1, :, :hidden]
                gh += back[0, :, :hidden]
                np.multiply(gc, f, out=carry)
        return [grad[j] for j in range(4) for grad in (g_w[:, hidden:-1], g_w[:, :hidden], g_w[:, -1])]

    return _record(out, tuple(p for gate in gates for p in gate), _bwd)


def tree_gru(states, edges, depth, b_agg, gates) -> tuple:
    """A gated child-sum roll-up of (n, width) states over a tree; returns (states, counts).

    The tree is its (2, m) (parent, child) node numbers and its (n,) depths,
    which never decrease with the node number; a child is one level below
    its parent, and the depth-0 nodes are the roots.  The levels, deepest
    first, hold the nodes of one depth that have children and, at depth 0,
    every root; the int64 `counts` are 1 on them and 0 elsewhere.  Each call
    builds the levels' 0/1 child-sum blocks from the edges, as runs of rows
    of one (updated, n) matrix.  `gates` holds the (w, u) pairs of the
    update gate, the reset gate and the candidate, each (width, width).
    Per level, with a = child_sum @ states + b_agg and h = states[rows],
    z = sigmoid(a w_z + h u_z), r = sigmoid(a w_r + h u_r),
    c = tanh(a w_c + (r h) u_c), and the rows become (h - z h) + z c before
    the next level reads the states.  The whole roll-up is one tape node.
    Its backward adds terms in the order the per-op tape of these equations
    would (the row replacement, the cell's ops in reverse, then the
    child-sum product), so values and parameter gradients equal that
    tape's bit for bit.  The states and child sums are constants: no
    gradient reaches them.  A level's rows still hold their input states
    when the level reads them (each node is refreshed once, after every
    deeper level), so no gradient flows through those reads either.
    """
    h = np.array(_as_tensor(states).data)  # a copy, updated in place
    b_agg = _as_tensor(b_agg)
    gates = [tuple(_as_tensor(p) for p in gate) for gate in gates]
    width = b_agg.data.size
    want = ((width, width), (width, width))
    shapes = [tuple(p.data.shape for p in gate) for gate in gates]
    if b_agg.data.shape != (width,) or shapes != [want] * 3:
        raise ShapeError(f"tree_gru: b_agg of shape {b_agg.data.shape} and gates of shapes {shapes} "
                         f"need (k,) and three (w, u) pairs shaped (k, k)")
    if h.ndim != 2 or h.shape[1] != width:
        raise ShapeError(f"tree_gru: states of shape {h.shape} have width {h.shape[-1] if h.ndim else 0}, "
                         f"but the gates call for 2-D states of width {width}")
    n = h.shape[0]
    edges, depth = np.asarray(edges), np.asarray(depth)
    if (edges.ndim != 2 or edges.shape[0] != 2 or edges.dtype.kind not in "iu"
            or edges.size and not (0 <= edges.min() and edges.max() < n)):
        raise ShapeError(f"tree_gru: edges of shape {edges.shape} and dtype {edges.dtype} need "
                         f"(2, m) node numbers in [0, {n})")
    if (depth.shape != (n,) or depth.dtype.kind not in "iu"
            or n and depth[0] < 0 or (depth[1:] < depth[:-1]).any()):
        raise ShapeError(f"tree_gru: depth of shape {depth.shape} and dtype {depth.dtype} needs ({n},) "
                         f"integers from 0 up that never decrease with the node number")
    parent, child = edges
    if (np.subtract(depth[child], depth[parent], dtype=np.int64) != 1).any():  # an unsigned depth cannot wrap
        raise ShapeError("tree_gru: every child needs a depth one more than its parent's")
    updated = depth == 0  # a root updates even with no children
    updated[parent] = True
    rows = np.flatnonzero(updated)
    child_sums = np.zeros((rows.size, n))
    child_sums.ravel()[(np.cumsum(updated)[parent] - 1) * n + child] = 1.0
    # depth d holds rows [lo[d], lo[d + 1]); the deepest parents sit one level above the deepest leaves
    lo = np.searchsorted(depth[rows], np.arange(max(int(depth.max(initial=0)), 1) + 1)).tolist()
    levels = [(rows[a:b], child_sums[a:b]) for a, b in zip(lo[-2::-1], lo[:0:-1]) if b > a]
    (w_z, u_z), (w_r, u_r), (w_c, u_c) = [(w.data, u.data) for w, u in gates]
    saved = [] if _tape_stack() else None
    for rows, child_sum in levels:
        agg = child_sum @ h
        agg += b_agg.data
        hp = h[rows]
        z = agg @ w_z
        z += hp @ u_z
        _logistic(z, out=z)
        r = agg @ w_r
        r += hp @ u_r
        _logistic(r, out=r)
        rh = r * hp
        cand = agg @ w_c
        cand += rh @ u_c
        np.tanh(cand, out=cand)
        new = hp - z * hp
        new += z * cand
        h[rows] = new
        if saved is not None:
            saved.append((agg, hp, z, r, rh, cand))
    out = Tensor(h)

    def _bwd(gout):
        g_b = np.zeros(width)
        g_wz, g_uz, g_wr, g_ur, g_wc, g_uc = np.zeros((6, width, width))
        grad = gout.copy()  # d(loss)/d(states) between levels
        for k in range(len(levels) - 1, -1, -1):
            (rows, child_sum), (agg, hp, z, r, rh, cand) = levels[k], saved[k]
            g_new = grad[rows]
            g_z = g_new * cand
            g_z -= g_new * hp
            g_c = g_new * z  # through tanh
            g_c *= 1.0 - cand * cand
            g_rh = g_c @ u_c.T
            g_uc += rh.T @ g_c
            g_r = g_rh * hp
            g_agg = g_c @ w_c.T
            g_wc += agg.T @ g_c
            g_r *= r  # through sigmoid
            g_r *= 1.0 - r
            g_ur += hp.T @ g_r
            g_agg += g_r @ w_r.T
            g_wr += agg.T @ g_r
            g_z *= z
            g_z *= 1.0 - z
            g_uz += hp.T @ g_z
            g_agg += g_z @ w_z.T
            g_wz += agg.T @ g_z
            g_b += g_agg.sum(axis=0)
            if k:  # the first level's input is `states`, which takes no gradient
                grad += child_sum.T @ g_agg
        return g_b, g_wz, g_uz, g_wr, g_ur, g_wc, g_uc

    return _record(out, (b_agg, *(p for gate in gates for p in gate)), _bwd), updated.astype(np.int64)


def attention(target_x, rival_x, rival_states, mask, params, slope: float):
    """Content-scored attention pooling as one tape node; returns (pooled, weights).

    `params` holds w_score (F, H), v (2H,), w_value (H, H), w_embed (F, H) and b_embed
    (H,).  The weights are a softmax, over the entries where the (targets, rivals) mask
    is nonzero, of leaky(x_t (w_score v[:H]) + x_r (w_score v[H:])) with `slope` below 0:
    the score v . [x_t w_score ∥ x_r w_score] with w_score v formed once, so a rival
    costs F products, not F H.  A target pools the rival_states with its weights, then
    maps the pool by w_value, or takes x_t w_embed + b_embed if it has no rival; no
    (rivals, H) product is formed.  The backward adds terms in the order the per-op tape
    of this association would, so values and gradients equal that tape's bit for bit.
    Features and mask are constants.
    """
    xt, xr = np.asarray(target_x, dtype=np.float64), np.asarray(rival_x, dtype=np.float64)
    states, keep, params = _as_tensor(rival_states), np.asarray(mask) != 0, [_as_tensor(p) for p in params]
    dims = xt.shape + keep.shape[1:] + (params[-1].data.shape if params else ())
    t, f, r, h = dims if len(dims) == 4 else (0, 0, 0, 0)
    want = [(t, f), (r, f), (r, h), (t, r), (f, h), (2 * h,), (h, h), (f, h), (h,)]
    got = [xt.shape, xr.shape, states.data.shape, keep.shape, *(p.data.shape for p in params)]
    if got != want:
        raise ShapeError(f"attention: features, states, mask and params of shapes {got} need (T, F), "
                         f"(R, F), (R, H), (T, R), (F, H), (2H,), (H, H), (F, H) and (H,)")
    w_score, v, w_value, w_embed, b_embed = (p.data for p in params)
    v_t, v_r = v[:h, None].copy(), v[h:]
    s = xt @ (w_score @ v_t) + xr @ (w_score @ v_r)
    scale = np.where(s > 0.0, 1.0, slope)
    scores = s * scale
    top = np.max(scores, axis=1, keepdims=True, initial=-np.inf, where=keep)
    e = np.exp(np.where(keep, scores - top, -np.inf))
    total = e.sum(axis=1, keepdims=True)
    y = np.divide(e, total, out=np.zeros_like(e), where=total > 0.0)
    pool, isolated = y @ states.data, (~keep.any(axis=1, keepdims=True)).astype(np.float64)
    out = Tensor(pool @ w_value + (xt @ w_embed + b_embed) * isolated)

    def _bwd(g):
        g_own, g_pool = g * isolated, g @ w_value.T
        g_y = g_pool @ states.data.T
        g_s = y * (g_y - (y * g_y).sum(axis=1, keepdims=True)) * scale
        a_t, a_r = xt.T @ g_s.sum(axis=1, keepdims=True), xr.T @ g_s.sum(axis=0)
        g_score = np.outer(a_r, v_r) + a_t @ v_t.T
        g_v = np.concatenate([(w_score.T @ a_t)[:, 0], w_score.T @ a_r])
        return y.T @ g_pool, g_score, g_v, pool.T @ g, xt.T @ g_own, g_own.sum(0)

    return _record(out, (states, *params), _bwd), y


def head(pooled, states, n_roots: int, keep_mask, params):
    """The target prediction and the auxiliary readout as one tape node; returns (pred, aux).

    pred = relu((pooled + (states[:n_roots] * keep_mask) @ proj_w + proj_b) @ out_w + out_b)
    and aux = relu(states[n_roots:] @ aux_w + aux_b), with `params` holding proj_w (W, H),
    proj_b (H,), out_w (H,), out_b (1,), aux_w (W,) and aux_b (1,).  `pooled` (n_roots, H)
    or `states` (n, W) may be None, which leaves its branch out; aux is None when `states`
    is None or has no row past the roots; a None `keep_mask` multiplies by nothing.  The
    backward adds terms in the order the per-op tape would, so values and gradients
    equal that tape's bit for bit.  The mask is a constant.
    """
    pooled, states = (None if t is None else _as_tensor(t) for t in (pooled, states))
    params = [_as_tensor(p) for p in params]
    shapes = [None if t is None else np.shape(getattr(t, "data", t)) for t in (pooled, states, keep_mask)]
    w, h = params[0].data.shape if params and params[0].data.ndim == 2 else (0, 0)
    n = len(states.data) if states is not None and states.data.ndim == 2 else n_roots  # all states' rows
    want = [(n_roots, h), (max(n, n_roots), w), (n_roots, w)]
    got = [p.data.shape for p in params]
    if (got != [(w, h), (h,), (h,), (1,), (w,), (1,)] or shapes[:2] == [None, None]
            or any(shape not in (None, need) for shape, need in zip(shapes, want))):
        raise ShapeError(f"head: pooled, states and keep_mask of shapes {shapes} and params of "
                         f"shapes {got} need ({n_roots}, H), (n >= {n_roots}, W) and ({n_roots}, W), "
                         f"not both of the first two None, and (W, H), (H,), (H,), (1,), (W,), (1,)")
    proj_w, proj_b, out_w, out_b, aux_w, aux_b = (p.data for p in params)
    combined = roots = aux = None
    if pooled is not None:
        combined = pooled.data
    if states is not None:
        roots = states.data[:n_roots] if keep_mask is None else states.data[:n_roots] * keep_mask
        proj = roots @ proj_w
        proj += proj_b
        combined = proj if combined is None else combined + proj
        nonroot = states.data[n_roots:]
    z = combined @ out_w
    z += out_b
    pred = Tensor(np.maximum(z, 0.0))  # relu(z) > 0 exactly where z > 0, so the backward reads it
    if states is not None and len(nonroot):
        z_aux = nonroot @ aux_w
        z_aux += aux_b
        aux = Tensor(np.maximum(z_aux, 0.0))

    def _bwd(g, g_aux=None):
        grads = [None] * 8  # pooled, states, proj_w, proj_b, out_w, out_b, aux_w, aux_b
        if states is not None:
            grads[1] = np.zeros_like(states.data)
        if g is not None:
            g = g * (pred.data > 0.0)
            grads[5], g_combined, grads[4] = g.sum(keepdims=True), np.outer(g, out_w), combined.T @ g
            grads[0] = g_combined if pooled is not None else None
            if states is not None:
                grads[3], g_roots, grads[2] = g_combined.sum(axis=0), g_combined @ proj_w.T, roots.T @ g_combined
                grads[1][:n_roots] = g_roots if keep_mask is None else g_roots * keep_mask
        if g_aux is not None:
            g_aux = g_aux * (aux.data > 0.0)
            grads[7], grads[6] = g_aux.sum(keepdims=True), nonroot.T @ g_aux
            grads[1][n_roots:] = np.outer(g_aux, aux_w)
        return grads

    _record((pred,) if aux is None else (pred, aux), (pooled, states, *params), _bwd)
    return pred, aux


def l1_loss(terms):
    """sum_k w_k mean |pred_k - truth_k| over (pred, truth, w) terms as one tape node.

    Returns (total, errors): `errors` are the terms' unweighted means, as
    floats.  Each truth is a constant of exactly its prediction's shape.  The
    total is e_1 w_1 + e_2 w_2 + ... in term order, and a term's gradient is
    sign(pred - truth) * (g w / n): the products that taped subtraction,
    absolute value, mean, a product by the weight and the sum form in turn, so
    value and gradients equal that chain's bit for bit.  As e * 1.0 == e and
    g * 1.0 == g, a term of weight 1.0 keeps the bits of an unweighted error.
    """
    terms = [(_as_tensor(p), np.asarray(t, dtype=np.float64), w) for p, t, w in terms]
    for pred, truth, _ in terms:
        if pred.data.shape != truth.shape or not truth.size:
            raise ShapeError(f"l1_loss: prediction of shape {pred.data.shape} needs a non-empty "
                             f"truth of the same shape, got {truth.shape}")
    diffs = [pred.data - truth for pred, truth, _ in terms]
    errors = [np.abs(d).mean() for d in diffs]
    weighted = [e * w for e, (_, _, w) in zip(errors, terms)]
    out = Tensor(sum(weighted[1:], weighted[0]))

    def _bwd(g):
        return [np.sign(d) * (float(g * w) / d.size) for d, (_, _, w) in zip(diffs, terms)]

    return _record(out, tuple(pred for pred, _, _ in terms), _bwd), [float(e) for e in errors]


def sgd_step(params, rate: float, step: int) -> None:
    """Apply one SGD update at `rate` to a Parameters arena and zero its gradients.

    One finiteness pass over the flat gradient; a non-finite entry refuses
    the whole step, naming its parameter, and changes nothing.  Otherwise
    grad *= rate, data -= grad and grad = 0 run in place over the buffers:
    the product and subtraction of data -= rate * grad, bit for bit, with no
    temporary the size of the gradients.
    """
    if not isinstance(params, Parameters):
        raise TypeError(f"sgd_step: params must be an ad.Parameters arena, not {type(params).__name__}")
    grad = params.grad
    if not np.isfinite(grad).all():
        bad = int(np.argmin(np.isfinite(grad)))
        name = params[int(np.searchsorted(params.ends, bad, side="right"))].name
        raise GradientError(f"non-finite gradient in parameter {name!r} at step {step}")
    np.multiply(grad, rate, out=grad)
    params.data -= grad
    grad.fill(0.0)


def grad_check(loss_fn, params, epsilon: float = 1e-5) -> float:
    """Max relative error between taped gradients and central differences.

    `loss_fn` must be a deterministic closure returning the scalar loss
    tensor; it is re-evaluated untaped with each parameter entry perturbed by
    ±epsilon.  Relative error per entry is
    |analytic - numeric| / max(|analytic|, |numeric|, GRAD_CHECK_FLOOR).
    The floor sits at the resolution of the difference quotient itself
    (loss cancellation noise is about 1e-16 * |loss| / epsilon), so
    gradients too small for central differences to measure do not raise
    false alarms; they are below anything training could act on anyway.
    """
    params = list(params)
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        loss = loss_fn()
    backward(tape, loss)
    analytic = [p.grad.copy() for p in params]
    worst = 0.0
    for p, grads in zip(params, analytic):
        flat = p.data.reshape(-1)
        aflat = grads.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + epsilon
            hi = float(loss_fn().data)
            flat[i] = saved - epsilon
            lo = float(loss_fn().data)
            flat[i] = saved
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise GradientError(f"non-finite loss while perturbing {p.name!r}[{i}]")
            numeric = (hi - lo) / (2.0 * epsilon)
            a = aflat[i]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), GRAD_CHECK_FLOOR)
            if rel > worst:
                worst = rel
    for p in params:
        p.zero_grad()
    return worst


def glorot_uniform(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Glorot-uniform draws; an (in, out) matrix's fans are in and out, an (in,) vector's in and 1."""
    fan_in, fan_out = shape if len(shape) == 2 else (shape[0], 1)
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def derive_rng(seed: int, label: str) -> np.random.Generator:
    """Stable per-module generator: one user seed fans out by label."""
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


CHECKPOINT_FORMAT = "gme-checkpoint"
CHECKPOINT_VERSION = 1


def save_checkpoint(path, params, meta: dict | None = None) -> None:
    """Write parameters as a versioned JSON container; round-trips bitwise."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "meta": meta or {},
        "parameters": [
            {
                "name": p.name,
                "shape": list(p.data.shape),
                "dtype": "float64",
                "data": base64.b64encode(
                    np.ascontiguousarray(p.data, dtype="<f8").tobytes()
                ).decode("ascii"),
            }
            for p in params
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_checkpoint(path):
    """Read a checkpoint; returns (name -> float64 array, meta dict).

    Any departure from the layout `save_checkpoint` writes, a parameter
    name listed twice included, raises ValueError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if type(doc) is not dict or doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a {CHECKPOINT_FORMAT} file: {path}")
    version = doc.get("version")
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {json.dumps(version)} in {path}")
    entries, meta = doc.get("parameters"), doc.get("meta", {})
    if type(entries) is not list or type(meta) is not dict:
        raise ValueError(f"'parameters' must be a list and 'meta' an object in {path}")
    values = {}
    for i, entry in enumerate(entries):
        if not (type(entry) is dict and type(entry.get("name")) is str
                and type(entry.get("shape")) is list
                and all(type(n) is int and n >= 0 for n in entry["shape"])
                and entry.get("dtype") == "float64" and type(entry.get("data")) is str):
            raise ValueError(f"parameter entry {i} in {path} needs a string 'name', a 'shape' list "
                             f"of non-negative integers, 'dtype' \"float64\" and base64 'data'")
        if entry["name"] in values:
            raise ValueError(f"parameter {entry['name']!r} appears twice in {path}")
        raw = base64.b64decode(entry["data"], validate=True)
        arr = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(entry["shape"])
        values[entry["name"]] = arr
    return values, meta
