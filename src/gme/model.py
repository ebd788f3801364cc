"""End-to-end model: competition pooling plus tree roll-up behind one head.

Per target set the model produces one early-fundraising score per target:

    score = relu(S @ w + b)

where S is the sum of the competition branch (rival quantifier + graph
attention) and the evolution branch (tree roll-up projected to the hidden
width).  Ablations keep a single branch.  All parameters exist in every
configuration, so checkpoints stay interchangeable across ablations; the
unused branch simply never enters the computation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple, Optional

import numpy as np

from . import autodiff as ad
from .competition import (PRUNING_MODES, AttentionAggregator, CompetitivenessGraph,
                          PriorQuantifier, RecurrentQuantifier)
from .evolution import GatedTreeUpdater, PropagationTree

QUANTIFIERS = ("recurrent", "prior-mlp")
ABLATIONS = ("full", "pcm-only", "met-only")


@dataclass(frozen=True)
class TrainConfig:
    """Every knob that affects data preparation, the model, or training."""

    tau: int = 24
    t_h: int = 5
    eta: float = 0.7
    pruning: str = "cate-jf"
    quantifier: str = "recurrent"
    ablation: str = "full"
    hidden: int = 50
    trend_bins: int = 6
    leaky_slope: float = 0.2
    dropout_keep: float = 0.9
    learning_rate: float = 0.02
    lr_decay: float = 0.96
    epochs: int = 10
    seed: int = 0
    tz_offset: int = 0

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError(f"tau must be positive hours, got {self.tau}")
        if self.t_h < 1:
            raise ValueError(f"t_h must be >= 1, got {self.t_h}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")
        if self.pruning not in PRUNING_MODES:
            raise ValueError(f"pruning must be one of {PRUNING_MODES}, got {self.pruning!r}")
        if self.quantifier not in QUANTIFIERS:
            raise ValueError(f"quantifier must be one of {QUANTIFIERS}, got {self.quantifier!r}")
        if self.ablation not in ABLATIONS:
            raise ValueError(f"ablation must be one of {ABLATIONS}, got {self.ablation!r}")
        if self.hidden < 1 or self.trend_bins < 1:
            raise ValueError("hidden and trend_bins must be >= 1")
        if not 0.0 < self.dropout_keep <= 1.0:
            raise ValueError(f"dropout_keep must lie in (0, 1], got {self.dropout_keep}")
        if self.learning_rate <= 0 or not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("learning_rate must be > 0 and lr_decay in (0, 1]")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json(cls, doc: dict) -> "TrainConfig":
        known = {f.name for f in fields(cls)}
        extra = set(doc) - known
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        return cls(**doc)


@dataclass(frozen=True)
class TargetSetContext:
    """Precomputed inputs for one target set, shared across epochs and models.

    `aux_truths[i]` belongs to tree node `n_roots + i`: the log2-scaled
    funds that node's project collected in the tau hours after the set's
    observation time.
    """

    day: int
    segment: int
    observation_time: int
    target_ids: tuple
    target_features: np.ndarray
    truths: np.ndarray
    rival_ids: tuple
    rival_features: np.ndarray
    rival_series: np.ndarray
    rival_trends: np.ndarray
    graph: CompetitivenessGraph
    tree: PropagationTree
    tree_init: np.ndarray
    aux_truths: np.ndarray

    @property
    def label(self) -> str:
        return f"d{self.day}s{self.segment}"


class ForwardResult(NamedTuple):
    pred: ad.Tensor
    aux_pred: Optional[ad.Tensor]
    attention: Optional[np.ndarray]  # (targets, rivals) weights; None when ablated


class LossResult(NamedTuple):
    total: ad.Tensor
    loss_p: float
    loss_l: float


class GMEModel:
    """Holds all parameters and runs the per-target-set forward pass."""

    def __init__(self, feature_dim: int, config: TrainConfig):
        if feature_dim < 1:
            raise ValueError(f"feature_dim must be >= 1, got {feature_dim}")
        self.feature_dim = feature_dim
        self.tree_width = feature_dim + 1
        self.config = config
        seed = config.seed

        self.recurrent = RecurrentQuantifier(config.hidden, ad.derive_rng(seed, "init.recurrent"))
        self.prior = PriorQuantifier(config.hidden, ad.derive_rng(seed, "init.prior"),
                                     trend_bins=config.trend_bins)
        self.attention = AttentionAggregator(feature_dim, config.hidden,
                                             ad.derive_rng(seed, "init.attention"),
                                             leaky_slope=config.leaky_slope)
        self.updater = GatedTreeUpdater(self.tree_width, ad.derive_rng(seed, "init.updater"))

        rng = ad.derive_rng(seed, "init.head")
        self.proj_w = ad.Parameter(
            ad.glorot_uniform(rng, (self.tree_width, config.hidden), self.tree_width, config.hidden),
            name="head.proj.w")
        self.proj_b = ad.Parameter(np.zeros(config.hidden), name="head.proj.b")
        self.out_w = ad.Parameter(
            ad.glorot_uniform(rng, (config.hidden,), config.hidden, 1), name="head.out.w")
        self.out_b = ad.Parameter(np.zeros(1), name="head.out.b")
        self.aux_w = ad.Parameter(
            ad.glorot_uniform(rng, (self.tree_width,), self.tree_width, 1), name="head.aux.w")
        self.aux_b = ad.Parameter(np.zeros(1), name="head.aux.b")

    def parameters(self) -> list:
        return (self.recurrent.parameters() + self.prior.parameters()
                + self.attention.parameters() + self.updater.parameters()
                + [self.proj_w, self.proj_b, self.out_w, self.out_b,
                   self.aux_w, self.aux_b])

    def load_state(self, values: dict) -> None:
        """Copy checkpoint values in; refuses missing, extra, misshapen or non-finite ones."""
        params = self.parameters()
        names = {p.name for p in params}
        missing = names - set(values)
        extra = set(values) - names
        if missing or extra:
            raise ValueError(
                f"checkpoint mismatch: missing {sorted(missing)}, unexpected {sorted(extra)}")
        for p in params:
            if values[p.name].shape != p.data.shape:
                raise ValueError(
                    f"parameter {p.name}: checkpoint shape {values[p.name].shape}, "
                    f"model expects {p.data.shape}")
            if not np.all(np.isfinite(values[p.name])):
                raise ValueError(f"parameter {p.name}: checkpoint holds non-finite values")
        for p in params:
            p.data[...] = values[p.name]

    def _rival_states(self, ctx: TargetSetContext) -> ad.Tensor:
        if not ctx.rival_ids:
            return ad.Tensor(np.zeros((0, self.config.hidden)))
        if self.config.quantifier == "recurrent":
            return self.recurrent.forward(ctx.rival_series)
        return self.prior.forward(np.concatenate([ctx.rival_series, ctx.rival_trends], axis=1))

    def forward(self, ctx: TargetSetContext, training: bool = False,
                dropout_rng=None) -> ForwardResult:
        if not ctx.target_ids:
            raise ValueError("empty target set")
        use_pcm = self.config.ablation != "met-only"
        use_met = self.config.ablation != "pcm-only"

        parts = []
        attention = None
        aux_pred = None
        if use_pcm:
            pooled, attention = self.attention.forward(
                ctx.graph, ctx.target_features, ctx.rival_features, self._rival_states(ctx))
            parts.append(pooled)
        if use_met:
            rolled = self.updater.propagate(ctx.tree, ad.Tensor(ctx.tree_init))
            roots = rolled.roots
            if training and self.config.dropout_keep < 1.0:
                if dropout_rng is None:
                    raise ValueError("training forward needs a dropout rng")
                roots = ad.dropout(roots, self.config.dropout_keep, dropout_rng)
            parts.append(ad.add(ad.matmul(roots, self.proj_w), self.proj_b))
            n_aux = ctx.tree.n_nodes - ctx.tree.n_roots
            if n_aux > 0:
                nonroot = ad.take_rows(
                    rolled.states, list(range(ctx.tree.n_roots, ctx.tree.n_nodes)))
                aux_pred = ad.relu(ad.add(ad.matmul(nonroot, self.aux_w), self.aux_b))

        combined = parts[0] if len(parts) == 1 else ad.add(parts[0], parts[1])
        pred = ad.relu(ad.add(ad.matmul(combined, self.out_w), self.out_b))
        return ForwardResult(pred, aux_pred, attention)

    def loss(self, result: ForwardResult, ctx: TargetSetContext) -> LossResult:
        """Weighted sum of target error and per-node auxiliary error.

        With the tree branch ablated the objective is the target error
        alone; a tree with no non-root nodes contributes a zero auxiliary
        term but keeps the eta weighting.
        """
        pred_err = ad.mean(ad.absolute(ad.sub(result.pred, ad.Tensor(ctx.truths))))
        if self.config.ablation == "pcm-only":
            return LossResult(pred_err, float(pred_err.data), 0.0)
        eta = self.config.eta
        if result.aux_pred is None:
            return LossResult(ad.mul(pred_err, eta), float(pred_err.data), 0.0)
        aux_err = ad.mean(ad.absolute(ad.sub(result.aux_pred, ad.Tensor(ctx.aux_truths))))
        total = ad.add(ad.mul(pred_err, eta), ad.mul(aux_err, 1.0 - eta))
        return LossResult(total, float(pred_err.data), float(aux_err.data))

    def predict(self, ctx: TargetSetContext) -> np.ndarray:
        """Inference-mode scores for one target set."""
        return self.forward(ctx, training=False).pred.data.copy()
