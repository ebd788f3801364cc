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

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import autodiff as ad
from .competition import (PRUNING_MODES, AttentionAggregator, CompetitivenessGraph,
                          PriorQuantifier, RecurrentQuantifier)
from .data import TREND_BINS, check_fields, config_from_json, config_json
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
    dropout_keep: float = 0.9
    learning_rate: float = 0.02
    lr_decay: float = 0.96
    epochs: int = 10
    seed: int = 0
    tz_offset: int = 0

    def __post_init__(self):
        check_fields(self, "TrainConfig")
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
        if self.hidden < 1:
            raise ValueError(f"hidden must be >= 1, got {self.hidden}")
        if not 0.0 < self.dropout_keep <= 1.0:
            raise ValueError(f"dropout_keep must lie in (0, 1], got {self.dropout_keep}")
        if self.learning_rate <= 0 or not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("learning_rate must be > 0 and lr_decay in (0, 1]")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")

    def rate(self, epoch: int) -> float:
        """The learning rate of every step in `epoch`: one decay by `lr_decay` per epoch."""
        return self.learning_rate * self.lr_decay ** epoch

    to_json = config_json
    from_json = classmethod(config_from_json)


@dataclass(frozen=True)
class TargetSetContext:
    """Precomputed inputs for one target set, shared across epochs and models.

    A project is named by its market row: the int32 `*_rows` fields index
    `projects` and `features`, the market's record array and static-feature
    matrix, shared by every set (`target_ids` and `rival_ids` read ids
    through the rows).  The rivals are the projects running at the
    observation time, outside the set, with an edge to at least one target
    under the pruning mode: `graph`'s columns, in `rival_rows` order.
    `rival_trend_bins[j]` is rival j's trend bin, one of `data.TREND_BINS`.
    `tree.rows[i]` and `tree_amounts[i]` belong to tree node i, and
    `aux_truths[i]` to node `n_roots + i`: the log2-scaled funds that node's
    project collected in the tau hours after the set's observation time.
    """

    day: int
    segment: int
    observation_time: int
    projects: np.ndarray
    features: np.ndarray
    target_rows: np.ndarray
    truths: np.ndarray
    rival_rows: np.ndarray
    rival_series: np.ndarray
    rival_trend_bins: np.ndarray
    graph: CompetitivenessGraph
    tree: PropagationTree
    tree_amounts: np.ndarray
    aux_truths: np.ndarray

    @property
    def label(self) -> str:
        return f"d{self.day}s{self.segment}"

    @property
    def target_ids(self) -> tuple:
        return tuple(p.id for p in self.projects[self.target_rows])

    @property
    def rival_ids(self) -> tuple:
        return tuple(p.id for p in self.projects[self.rival_rows])

    @property
    def target_features(self) -> np.ndarray:
        return self.features[self.target_rows]

    @property
    def rival_features(self) -> np.ndarray:
        return self.features[self.rival_rows]

    @property
    def rival_trends(self) -> np.ndarray:
        """The trend bins as (rivals, TREND_BINS) float64 one-hot rows."""
        return np.eye(TREND_BINS)[self.rival_trend_bins]

    @property
    def tree_init(self) -> np.ndarray:
        """[static features, early amount] per tree node."""
        return np.concatenate([self.features[self.tree.rows], self.tree_amounts[:, None]], axis=1)


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
        self.tree_width = feature_dim + 1
        self.config = config
        seed = config.seed

        self.recurrent = RecurrentQuantifier(config.hidden, ad.derive_rng(seed, "init.recurrent"))
        self.prior = PriorQuantifier(config.hidden, ad.derive_rng(seed, "init.prior"))
        self.attention = AttentionAggregator(feature_dim, config.hidden,
                                             ad.derive_rng(seed, "init.attention"))
        self.updater = GatedTreeUpdater(self.tree_width, ad.derive_rng(seed, "init.updater"))

        rng = ad.derive_rng(seed, "init.head")
        self.proj_w = ad.Parameter(ad.glorot_uniform(rng, (self.tree_width, config.hidden)), name="head.proj.w")
        self.proj_b = ad.Parameter(np.zeros(config.hidden), name="head.proj.b")
        self.out_w = ad.Parameter(ad.glorot_uniform(rng, (config.hidden,)), name="head.out.w")
        self.out_b = ad.Parameter(np.zeros(1), name="head.out.b")
        self.aux_w = ad.Parameter(ad.glorot_uniform(rng, (self.tree_width,)), name="head.aux.w")
        self.aux_b = ad.Parameter(np.zeros(1), name="head.aux.b")
        self._params = ad.Parameters(
            self.recurrent.parameters() + self.prior.parameters()
            + self.attention.parameters() + self.updater.parameters()
            + [self.proj_w, self.proj_b, self.out_w, self.out_b, self.aux_w, self.aux_b])

    def parameters(self) -> ad.Parameters:
        """Every parameter, in checkpoint order, as the one arena `sgd_step` updates."""
        return self._params

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
        if self.config.quantifier == "recurrent":
            return self.recurrent.forward(ctx.rival_series)
        return self.prior.forward(np.concatenate([ctx.rival_series, ctx.rival_trends], axis=1))

    def forward(self, ctx: TargetSetContext, training: bool = False,
                dropout_rng=None) -> ForwardResult:
        if not ctx.target_rows.size:
            raise ValueError("empty target set")
        pooled = attention = states = keep_mask = None
        if self.config.ablation != "met-only":
            pooled, attention = self.attention.forward(
                ctx.graph, ctx.target_features, ctx.rival_features, self._rival_states(ctx))
        if self.config.ablation != "pcm-only":
            states = self.updater.propagate(ctx.tree, ctx.tree_init).states
            keep = self.config.dropout_keep
            if training and keep < 1.0:
                if dropout_rng is None:
                    raise ValueError("training forward needs a dropout rng")
                keep_mask = (dropout_rng.random((ctx.tree.n_roots, self.tree_width)) < keep) / keep
        pred, aux_pred = ad.head(pooled, states, ctx.tree.n_roots, keep_mask,
                                 [self.proj_w, self.proj_b, self.out_w, self.out_b, self.aux_w, self.aux_b])
        return ForwardResult(pred, aux_pred, attention)

    def loss(self, result: ForwardResult, ctx: TargetSetContext) -> LossResult:
        """Weighted sum of target error and per-node auxiliary error, one `ad.l1_loss` node.

        With the tree branch ablated the objective is the target error
        alone; a tree with no non-root nodes contributes no auxiliary term
        but keeps the eta weighting.
        """
        eta = 1.0 if self.config.ablation == "pcm-only" else self.config.eta
        terms = [(result.pred, ctx.truths, eta)]
        if result.aux_pred is not None:
            terms.append((result.aux_pred, ctx.aux_truths, 1.0 - eta))
        total, (loss_p, *loss_l) = ad.l1_loss(terms)
        return LossResult(total, loss_p, loss_l[0] if loss_l else 0.0)

    def predict(self, ctx: TargetSetContext) -> np.ndarray:
        """Inference-mode scores for one target set."""
        return self.forward(ctx, training=False).pred.data.copy()
