"""Project competitiveness: rival quantification and content-guided attention.

Targets observe the projects running at their observation time through a
pruned target-by-rival adjacency.  Each rival's recent funding behaviour is
quantified into a hidden state (a recurrent cell over its hourly series, or a
faster feed-forward map over series plus trend bins); a target then attends
over its adjacent rivals' states, scoring neighbours from static contents.

All linear layers are stored in right-multiplication layout: a map from
``a`` to ``b`` dims is an ``(a, b)`` array applied as ``x @ w``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import DAY

PRUNING_MODES = ("unpruned", "cate", "jf", "cate-jf")
JUST_FUNDED_WINDOW_DAYS = 3


@dataclass
class CompetitivenessGraph:
    """Bipartite adjacency from targets (rows) to running rivals (columns)."""

    target_ids: tuple[str, ...]
    rival_ids: tuple[str, ...]
    adjacency: np.ndarray  # (targets, rivals) of {0, 1}
    mode: str


def build_competitiveness_graph(targets, rivals, mode: str) -> CompetitivenessGraph:
    """Adjacency under a pruning mode.

    ``jf`` keeps rivals published at most three days before the target (the
    lower bound is clamped at zero: rivals are never newer than a target),
    ``cate`` keeps same-category rivals, ``cate-jf`` their union, and
    ``unpruned`` keeps everything.
    """
    if mode not in PRUNING_MODES:
        raise ValueError(f"unknown pruning mode {mode!r}")
    n_t, n_r = len(targets), len(rivals)
    if n_r == 0 or n_t == 0:
        adj = np.zeros((n_t, n_r), dtype=np.uint8)
        return CompetitivenessGraph(
            tuple(p.id for p in targets), tuple(p.id for p in rivals), adj, mode)
    t_times = np.asarray([p.published_time for p in targets], dtype=np.int64)
    r_times = np.asarray([p.published_time for p in rivals], dtype=np.int64)
    gaps = t_times[:, None] - r_times[None, :]
    just_funded = (gaps >= 0) & (gaps <= JUST_FUNDED_WINDOW_DAYS * DAY)
    t_cats = np.asarray([p.category for p in targets])
    r_cats = np.asarray([p.category for p in rivals])
    same_category = t_cats[:, None] == r_cats[None, :]
    if mode == "unpruned":
        adj = np.ones((n_t, n_r), dtype=bool)
    elif mode == "cate":
        adj = same_category
    elif mode == "jf":
        adj = just_funded
    else:
        adj = same_category | just_funded
    return CompetitivenessGraph(
        tuple(p.id for p in targets),
        tuple(p.id for p in rivals),
        adj.astype(np.uint8),
        mode,
    )


class RecurrentQuantifier:
    """Gated recurrent cell over the 24-entry hourly series, newest first.

    Standard input/forget/output/candidate gating with a carried cell state;
    the final hidden row is the rival's competitiveness state.
    """

    def __init__(self, hidden: int, rng: np.random.Generator, prefix: str = "competition.recurrent"):
        self.hidden = hidden

        def make(kind):
            wx = ad.Parameter(ad.glorot_uniform(rng, (1, hidden), 1, hidden), f"{prefix}.{kind}.wx")
            uh = ad.Parameter(ad.glorot_uniform(rng, (hidden, hidden), hidden, hidden), f"{prefix}.{kind}.uh")
            b = ad.Parameter(np.zeros(hidden), f"{prefix}.{kind}.b")
            return wx, uh, b

        self.input_gate = make("input_gate")
        self.forget_gate = make("forget_gate")
        self.output_gate = make("output_gate")
        self.candidate = make("candidate")

    def parameters(self) -> list:
        return [p for gate in (self.input_gate, self.forget_gate, self.output_gate, self.candidate) for p in gate]

    def forward(self, series: np.ndarray) -> ad.Tensor:
        """(n, 24) hourly series -> (n, hidden) states, rows independent."""
        n, steps = series.shape
        h = ad.Tensor(np.zeros((n, self.hidden)))
        c = ad.Tensor(np.zeros((n, self.hidden)))
        for k in range(steps):
            x = ad.Tensor(series[:, k:k + 1])

            def gate(params, activate):
                wx, uh, b = params
                return activate(ad.add(ad.add(ad.matmul(x, wx), ad.matmul(h, uh)), b))

            i = gate(self.input_gate, ad.sigmoid)
            f = gate(self.forget_gate, ad.sigmoid)
            o = gate(self.output_gate, ad.sigmoid)
            g = gate(self.candidate, ad.tanh)
            c = ad.add(ad.mul(f, c), ad.mul(i, g))
            h = ad.mul(o, ad.tanh(c))
        return h


class PriorQuantifier:
    """Three affine layers over [hourly series ∥ trend one-hot], no recurrence.

    ReLU after the hidden layers, tanh after the last so the state range
    matches the recurrent quantifier's.
    """

    def __init__(self, hidden: int, rng: np.random.Generator, trend_bins: int = 6,
                 series_len: int = 24, prefix: str = "competition.prior"):
        self.hidden = hidden
        self.input_dim = series_len + trend_bins
        dims = [self.input_dim, hidden, hidden, hidden]
        self.layers = []
        for li in range(3):
            w = ad.Parameter(
                ad.glorot_uniform(rng, (dims[li], dims[li + 1]), dims[li], dims[li + 1]),
                f"{prefix}.layer{li + 1}.w",
            )
            b = ad.Parameter(np.zeros(dims[li + 1]), f"{prefix}.layer{li + 1}.b")
            self.layers.append((w, b))

    def parameters(self) -> list:
        return [p for pair in self.layers for p in pair]

    def forward(self, inputs: np.ndarray) -> ad.Tensor:
        """(n, series+bins) rows -> (n, hidden) states, rows independent."""
        if inputs.shape[1] != self.input_dim:
            raise ad.ShapeError(f"prior quantifier: input of shape {inputs.shape} does not have width {self.input_dim}")
        out = ad.Tensor(inputs)
        for li, (w, b) in enumerate(self.layers):
            out = ad.add(ad.matmul(out, w), b)
            out = ad.tanh(out) if li == 2 else ad.relu(out)
        return out


class AttentionAggregator:
    """Content-scored attention pooling of neighbour states per target.

    Scores come from a shared projection of the raw static features of the
    target and each neighbour; weights are a softmax over the target's
    neighbourhood of the leaky-rectified scores.  The pooled value is the
    attention-weighted sum of linearly mapped neighbour states.  A target
    with no neighbours falls back to its own embedded features.
    """

    def __init__(self, feature_dim: int, hidden: int, rng: np.random.Generator,
                 leaky_slope: float = 0.2, prefix: str = "competition.attention"):
        self.hidden = hidden
        self.leaky_slope = leaky_slope
        self.w_score = ad.Parameter(
            ad.glorot_uniform(rng, (feature_dim, hidden), feature_dim, hidden), f"{prefix}.w_score")
        self.v = ad.Parameter(
            ad.glorot_uniform(rng, (2 * hidden,), 2 * hidden, 1), f"{prefix}.v")
        self.w_value = ad.Parameter(
            ad.glorot_uniform(rng, (hidden, hidden), hidden, hidden), f"{prefix}.w_value")
        self.w_embed = ad.Parameter(
            ad.glorot_uniform(rng, (feature_dim, hidden), feature_dim, hidden), f"{prefix}.w_embed")
        self.b_embed = ad.Parameter(np.zeros(hidden), f"{prefix}.b_embed")

    def parameters(self) -> list:
        return [self.w_score, self.v, self.w_value, self.w_embed, self.b_embed]

    def forward(self, graph: CompetitivenessGraph, target_features: np.ndarray,
                rival_features: np.ndarray, rival_states: ad.Tensor):
        """Returns ((targets, hidden) pooled states, (targets, rivals) attention weights)."""
        xt = ad.Tensor(target_features)
        v_target = ad.take_rows(self.v, np.arange(self.hidden)[:, None])  # (hidden, 1)
        v_rival = ad.take_rows(self.v, np.arange(self.hidden, 2 * self.hidden))  # (hidden,)
        target_scores = ad.matmul(ad.matmul(xt, self.w_score), v_target)  # (targets, 1)
        rival_scores = ad.matmul(ad.matmul(ad.Tensor(rival_features), self.w_score), v_rival)
        scores = ad.leaky_relu(ad.add(target_scores, rival_scores), self.leaky_slope)
        alpha = ad.softmax(scores, graph.adjacency)
        pooled = ad.matmul(alpha, ad.matmul(rival_states, self.w_value))
        # alpha pools 0 for a target with no rivals; it takes its own embedding instead
        isolated = ~graph.adjacency.any(axis=1, keepdims=True)
        own = ad.add(ad.matmul(xt, self.w_embed), self.b_embed)
        return ad.add(pooled, ad.mul(own, isolated.astype(np.float64))), alpha.data
