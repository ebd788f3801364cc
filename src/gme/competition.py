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
from .data import DAY, SERIES_HOURS, TREND_BINS

PRUNING_MODES = ("unpruned", "cate", "jf", "cate-jf")
JUST_FUNDED_WINDOW_DAYS = 3
LEAKY_SLOPE = 0.2  # negative-side slope of the attention scores' leaky rectifier


@dataclass
class CompetitivenessGraph:
    """Bipartite adjacency from targets (rows) to rivals (columns), each in the
    order its builder was given them."""

    adjacency: np.ndarray  # (targets, rivals) of {0, 1}


def build_competitiveness_graph(targets, rivals, mode: str, *, market) -> CompetitivenessGraph:
    """Adjacency under a pruning mode between two arrays of `market` rows.

    ``jf`` keeps rivals published at most three days before the target (the
    lower bound is clamped at zero: rivals are never newer than a target),
    ``cate`` keeps same-category rivals, ``cate-jf`` their union, and
    ``unpruned`` keeps everything.
    """
    if mode not in PRUNING_MODES:
        raise ValueError(f"unknown pruning mode {mode!r}")
    gaps = market.published[targets][:, None] - market.published[rivals][None, :]
    just_funded = (gaps >= 0) & (gaps <= JUST_FUNDED_WINDOW_DAYS * DAY)
    same_category = market.categories[targets][:, None] == market.categories[rivals][None, :]
    if mode == "unpruned":
        adj = np.ones(gaps.shape, dtype=bool)
    elif mode == "cate":
        adj = same_category
    elif mode == "jf":
        adj = just_funded
    else:
        adj = same_category | just_funded
    return CompetitivenessGraph(adj.astype(np.uint8))


class RecurrentQuantifier:
    """Gated recurrent cell over the 24-entry hourly series, newest first.

    Standard input/forget/output/candidate gating with a carried cell state;
    the final hidden row is the rival's competitiveness state.
    """

    def __init__(self, hidden: int, rng: np.random.Generator):
        def make(kind):
            wx = ad.Parameter(ad.glorot_uniform(rng, (1, hidden)), f"competition.recurrent.{kind}.wx")
            uh = ad.Parameter(ad.glorot_uniform(rng, (hidden, hidden)), f"competition.recurrent.{kind}.uh")
            b = ad.Parameter(np.zeros(hidden), f"competition.recurrent.{kind}.b")
            return wx, uh, b

        self.input_gate = make("input_gate")
        self.forget_gate = make("forget_gate")
        self.output_gate = make("output_gate")
        self.candidate = make("candidate")

    def parameters(self) -> list:
        return [p for gate in (self.input_gate, self.forget_gate, self.output_gate, self.candidate) for p in gate]

    def forward(self, series: np.ndarray) -> ad.Tensor:
        """(n, 24) hourly series -> (n, hidden) states, rows independent."""
        return ad.lstm(series, (self.input_gate, self.forget_gate, self.output_gate, self.candidate))


class AffineStack:
    """Affine layers with ReLU between them; the last layer's output stays affine.

    Layer i maps dims[i - 1] to dims[i] through parameters named
    ``{name}.layer{i}.w`` and ``{name}.layer{i}.b``, drawn in layer order.
    """

    def __init__(self, dims, rng: np.random.Generator, name: str):
        self.layers = []
        for li, (a, b) in enumerate(zip(dims, dims[1:]), start=1):
            w = ad.Parameter(ad.glorot_uniform(rng, (a, b)), f"{name}.layer{li}.w")
            bias = ad.Parameter(np.zeros(b), f"{name}.layer{li}.b")
            self.layers.append((w, bias))

    def parameters(self) -> list:
        return [p for pair in self.layers for p in pair]

    def forward(self, inputs: np.ndarray) -> ad.Tensor:
        """(n, dims[0]) rows -> (n, dims[-1]) outputs, rows independent."""
        return ad.affine_stack(inputs, self.layers, None)


class PriorQuantifier(AffineStack):
    """Three affine layers over [hourly series ∥ trend one-hot], no recurrence.

    ReLU after the hidden layers, tanh after the last so the state range
    matches the recurrent quantifier's.
    """

    def __init__(self, hidden: int, rng: np.random.Generator):
        super().__init__([SERIES_HOURS + TREND_BINS, hidden, hidden, hidden], rng, "competition.prior")

    def forward(self, inputs: np.ndarray) -> ad.Tensor:
        """(n, series+bins) rows -> (n, hidden) states, rows independent."""
        return ad.affine_stack(inputs, self.layers, "tanh")


class AttentionAggregator:
    """Content-scored attention pooling of neighbour states per target.

    Scores come from a shared projection of the raw static features of the
    target and each neighbour; weights are a softmax over the target's
    neighbourhood of the leaky-rectified scores.  The pooled value is the
    attention-weighted sum of linearly mapped neighbour states.  A target
    with no neighbours falls back to its own embedded features.
    """

    def __init__(self, feature_dim: int, hidden: int, rng: np.random.Generator):
        self.w_score = ad.Parameter(ad.glorot_uniform(rng, (feature_dim, hidden)), "competition.attention.w_score")
        self.v = ad.Parameter(ad.glorot_uniform(rng, (2 * hidden,)), "competition.attention.v")
        self.w_value = ad.Parameter(ad.glorot_uniform(rng, (hidden, hidden)), "competition.attention.w_value")
        self.w_embed = ad.Parameter(ad.glorot_uniform(rng, (feature_dim, hidden)), "competition.attention.w_embed")
        self.b_embed = ad.Parameter(np.zeros(hidden), "competition.attention.b_embed")

    def parameters(self) -> list:
        return [self.w_score, self.v, self.w_value, self.w_embed, self.b_embed]

    def forward(self, graph: CompetitivenessGraph, target_features: np.ndarray,
                rival_features: np.ndarray, rival_states: ad.Tensor):
        """Returns ((targets, hidden) pooled states, (targets, rivals) attention weights)."""
        return ad.attention(target_features, rival_features, rival_states, graph.adjacency,
                            self.parameters(), LEAKY_SLOPE)
