"""Context preparation, the training loop, evaluation, and reference baselines.

Contexts are built once per (market, config) pair and reused across epochs
and across model variants; nothing in them depends on parameters.  The
chronological list of target sets is split by position, so the test span
always happens after the training span.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import autodiff as ad
from . import data as gd
from .competition import AffineStack, CompetitivenessGraph, build_competitiveness_graph
from .evolution import build_propagation_tree, init_states
from .model import GMEModel, TargetSetContext, TrainConfig

TRAIN_FRACTION = 5 / 6
# Training and scoring let an overflow run on to inf or NaN without numpy's
# warning: the loss check and `sgd_step`'s finiteness pass stop a diverged
# run, and `finite_predictions` refuses a set scored to inf or NaN, each with
# a `GradientError` that names the step or set.  Bits do not change.
FLOAT_POLICY = np.errstate(over="ignore", invalid="ignore")


@dataclass(frozen=True)
class ContextBundle:
    train: tuple
    test: tuple
    encoder: gd.EncoderConfig


def build_context(market: gd.Market, target_set: gd.TargetSet, config: TrainConfig,
                  features: np.ndarray, columns: tuple) -> TargetSetContext:
    """Assemble every model input for one target set from the market's tables.

    The competition graph is built over every running project outside the
    set; the context keeps only the rivals with an edge to some target under
    the pruning mode, since every target gives the others attention weight 0.
    `columns` is (`fundraising_target`, `early_stage_amount`) of every market
    row, which `build_contexts` computes once for all sets.
    """
    t_ref = target_set.observation_time
    # The rows are held as int32; the market's tables are read with intp rows,
    # which numpy indexes without a cast.
    lo, hi = target_set.rows.start, target_set.rows.stop
    target_rows = np.arange(lo, hi)
    running = gd.running_set(market, t_ref)
    rival_rows = running[(running < lo) | (running >= hi)]
    graph = build_competitiveness_graph(target_rows, rival_rows, config.pruning, market=market)
    seen = graph.adjacency.any(axis=0)
    graph = CompetitivenessGraph(graph.adjacency[:, seen])
    rival_rows = rival_rows[seen]
    observable_rows = gd.observable_set(market, t_ref, config.t_h, config.tau)
    tree = build_propagation_tree(target_rows, observable_rows, config.t_h, config.tau, market=market)
    truths, early = columns[0][lo:hi], columns[1][tree.rows]
    aux_raised = market.raised_before(tree.rows[tree.n_roots:, None],
                                      [t_ref, t_ref + config.tau * gd.HOUR])
    return TargetSetContext(
        day=target_set.day,
        segment=target_set.segment,
        observation_time=t_ref,
        projects=market.projects,
        features=features,
        target_rows=target_rows.astype(np.int32),
        truths=truths,
        rival_rows=rival_rows.astype(np.int32),
        rival_series=gd.hourly_series(market, rival_rows, t_ref),
        rival_trend_bins=gd.prior_trend(market, rival_rows, t_ref)[1],
        graph=graph,
        tree=tree,
        tree_amounts=init_states(tree, early),
        aux_truths=np.log2(1.0 + (aux_raised[:, 1] - aux_raised[:, 0])),
    )


def build_contexts(market: gd.Market, config: TrainConfig,
                   encoder_overrides: dict | None = None,
                   encoder: gd.EncoderConfig | None = None) -> ContextBundle:
    """Split target sets chronologically and precompute both spans.

    Pass ``encoder`` to reuse a stored feature layout (evaluation of a
    checkpoint); otherwise one is fitted on the training-split projects.
    """
    sets = gd.segment_target_sets(market, config.tz_offset)
    if len(sets) < 2:
        raise gd.DataError(f"need at least 2 target sets to split, found {len(sets)}")
    n_train = int(len(sets) * TRAIN_FRACTION)
    n_train = min(max(n_train, 1), len(sets) - 1)
    train_sets, test_sets = sets[:n_train], sets[n_train:]

    if encoder is None:
        # sets follow launch time, so the training span is a prefix of the rows
        n_seen = train_sets[-1].rows.stop
        encoder = gd.EncoderConfig.fit(market.projects[:n_seen], **(encoder_overrides or {}))

    features = encoder.encode(market.projects)
    every = np.arange(len(market.projects))  # the sets partition the rows
    columns = (gd.fundraising_target(market, every, config.tau),
               gd.early_stage_amount(market, every, config.tau))
    train = tuple(build_context(market, ts, config, features, columns) for ts in train_sets)
    test = tuple(build_context(market, ts, config, features, columns) for ts in test_sets)
    return ContextBundle(train=train, test=test, encoder=encoder)


class EpochStats(NamedTuple):
    epoch: int
    loss_p: float
    loss_l: float
    seconds: float


def warm_start_heads(model: GMEModel,
                     train_contexts: Sequence[TargetSetContext]) -> None:
    """Zero the output weights and set each output bias to its truth mean.

    The rectified heads start as constant mean predictors, so the first
    gradient steps grow the weights from zero at the data's own scale.
    Skipping this lets the initial random head overshoot through zero,
    where the rectifier's dead zone can freeze every prediction at 0.
    """
    truths = np.concatenate([ctx.truths for ctx in train_contexts])
    model.out_w.data[:] = 0.0
    model.out_b.data[:] = float(np.mean(truths))
    aux = [ctx.aux_truths for ctx in train_contexts if ctx.aux_truths.size]
    model.aux_w.data[:] = 0.0
    model.aux_b.data[:] = float(np.mean(np.concatenate(aux))) if aux else 0.0


@FLOAT_POLICY
def train_model(model: GMEModel, train_contexts: Sequence[TargetSetContext]) -> list:
    """Run the per-set gradient loop; one rate-decay boundary per epoch."""
    if not train_contexts:
        raise ValueError("no training contexts")
    cfg = model.config
    params = model.parameters()
    dropout_rng = ad.derive_rng(cfg.seed, "dropout")
    history = []
    step = 0
    if cfg.epochs > 0:
        warm_start_heads(model, train_contexts)
    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        rate = cfg.rate(epoch)
        p_sum = l_sum = 0.0
        for ctx in train_contexts:
            with ad.Tape() as tape:
                result = model.forward(ctx, training=True, dropout_rng=dropout_rng)
                losses = model.loss(result, ctx)
                if not np.isfinite(losses.total.data):
                    raise ad.GradientError(
                        f"non-finite loss at step {step} (set {ctx.label})")
                ad.backward(tape, losses.total)
            ad.sgd_step(params, rate, step)
            step += 1
            p_sum += losses.loss_p
            l_sum += losses.loss_l
        n = len(train_contexts)
        history.append(EpochStats(epoch, p_sum / n, l_sum / n,
                                  time.perf_counter() - started))
    return history


def _metrics(truths: np.ndarray, preds: np.ndarray) -> tuple:
    mae = float(np.mean(np.abs(truths - preds)))
    rmse = float(np.sqrt(np.mean((truths - preds) ** 2)))
    return mae, rmse


@FLOAT_POLICY
def evaluation_report(contexts: Sequence[TargetSetContext], predict_fn,
                      config_echo: dict) -> dict:
    """Score a prediction function set by set; JSON-ready plain types only."""
    if not contexts:
        raise ValueError("no contexts to evaluate")
    per_set = []
    rows = []
    for ctx in contexts:
        preds = np.asarray(predict_fn(ctx), dtype=np.float64)
        if preds.shape != ctx.truths.shape:
            raise ValueError(
                f"predictor returned {preds.shape} for {len(ctx.truths)} targets")
        mae, rmse = _metrics(ctx.truths, preds)
        per_set.append({"label": ctx.label, "n_targets": ctx.target_rows.size,
                        "mae": mae, "rmse": rmse})
        for pid, t, p in zip(ctx.target_ids, ctx.truths, preds):
            rows.append({"id": pid, "truth": float(t), "pred": float(p)})
    truths = np.asarray([r["truth"] for r in rows])
    preds = np.asarray([r["pred"] for r in rows])
    mae, rmse = _metrics(truths, preds)
    return {
        "config": config_echo,
        "n_sets": len(per_set),
        "n_targets": len(rows),
        "mae": mae,
        "rmse": rmse,
        "per_set": per_set,
        "predictions": rows,
    }


def finite_predictions(predict_fn):
    """`predict_fn`, refusing a set whose predictions overflowed to inf or NaN.

    `evaluation_report` itself scores whatever it is handed, so that a caller
    can count a failed set's NaN row rather than stop.
    """
    def predict(ctx):
        preds = predict_fn(ctx)
        if not np.isfinite(preds).all():
            raise ad.GradientError(f"non-finite prediction in set {ctx.label}")
        return preds
    return predict


def evaluate_model(model: GMEModel, contexts: Sequence[TargetSetContext]) -> dict:
    echo = model.config.to_json()
    return evaluation_report(contexts, finite_predictions(model.predict), echo)


BASELINES = ("mean", "linear", "mlp")


@FLOAT_POLICY
def fit_baseline(kind: str, train_contexts: Sequence[TargetSetContext],
                 config: TrainConfig):
    """Return predict_fn for one reference model fitted on the train span."""
    if kind not in BASELINES:
        raise ValueError(f"baseline must be one of {BASELINES}, got {kind!r}")
    all_truths = np.concatenate([ctx.truths for ctx in train_contexts])

    if kind == "mean":
        const = float(np.mean(all_truths))
        return lambda ctx: np.full(ctx.target_rows.size, const)

    if kind == "linear":
        x = np.concatenate([ctx.target_features for ctx in train_contexts])
        x1 = np.concatenate([x, np.ones((len(x), 1))], axis=1)
        coef = np.linalg.lstsq(x1, all_truths, rcond=None)[0]
        return lambda ctx: np.concatenate(
            [ctx.target_features, np.ones((ctx.target_rows.size, 1))], axis=1) @ coef

    # a static-feature regressor trained with the same per-set protocol
    dims = [train_contexts[0].target_features.shape[1], 150, 50, 1]
    mlp = AffineStack(dims, ad.derive_rng(config.seed, "baseline-mlp"), "mlp")
    params = ad.Parameters(mlp.parameters())
    step = 0
    for epoch in range(config.epochs):
        rate = config.rate(epoch)
        for ctx in train_contexts:
            with ad.Tape() as tape:
                out = mlp.forward(ctx.target_features)
                err = ad.l1_loss([(out, ctx.truths[:, None], 1.0)])[0]
                ad.backward(tape, err)
            ad.sgd_step(params, rate, step)
            step += 1
    return lambda ctx: mlp.forward(ctx.target_features).data[:, 0]
