"""Small self-contained verification instances.

These build a miniature market and run an exhaustive finite-difference
check of the whole model, one variant at a time.  Kept in the package
because the command line exposes the same check.
"""

from __future__ import annotations

import time

import numpy as np

from . import autodiff as ad
from .data import DAY, InvestmentEvent, Market, ProjectRecord
from .model import GMEModel, TrainConfig
from .training import build_contexts

TOY_ENCODER = {
    "text_dim": 4,
    "goal_log2_edges": (7.0, 9.0),
    "duration_day_edges": (10,),
}


def build_toy_market(seed: int) -> Market:
    """A dense little market of 28 projects over 10 days: every helper path gets exercised."""
    rng = ad.derive_rng(seed, "toy-market")
    n_projects, days = 28, 10
    categories = ("art", "games", "tech")
    base = 1_600_000_000
    projects = []
    events = []
    for i in range(n_projects):
        cat = categories[int(rng.integers(0, len(categories)))]
        pub = base + int(rng.integers(0, days * DAY))
        rec = ProjectRecord(
            id=f"p{i:03d}",
            published_time=pub,
            category=cat,
            creator_type="individual",
            currency="USD",
            duration_days=int(rng.choice([7, 14])),
            goal=float(rng.choice([100.0, 250.0, 600.0])),
            text=f"toy {cat} project {i}",
        )
        projects.append(rec)
        span = rec.duration_days * DAY
        for _ in range(int(rng.integers(2, 15))):
            offset = min(int(rng.exponential(DAY)), span - 1)
            events.append(InvestmentEvent(rec.id, pub + offset, float(rng.uniform(1.0, 40.0))))
    return Market(projects, events)


def _pick_context(model, contexts):
    """Prefer a set where the output and auxiliary relus are both live.

    A set whose predictions all sit at exactly zero would make the
    finite-difference sweep pass vacuously, so structure alone (rivals
    present, non-root tree nodes present) is not enough.
    """
    need_aux = model.config.ablation != "pcm-only"
    best, best_score = contexts[0], -1.0
    for ctx in contexts:
        if not ctx.rival_rows.size or ctx.tree.n_nodes == ctx.tree.n_roots:
            continue
        result = model.forward(ctx)
        pred_live = int(np.count_nonzero(result.pred.data > 0))
        aux_live = (int(np.count_nonzero(result.aux_pred.data > 0))
                    if result.aux_pred is not None else 0)
        if pred_live >= 1 and (not need_aux or aux_live >= 1):
            return ctx
        score = pred_live + aux_live
        if score > best_score:
            best, best_score = ctx, score
    return best


def gradcheck_toy(ablation: str, quantifier: str, hidden: int, seed: int) -> dict:
    """Finite-difference check of every parameter on a miniature instance."""
    started = time.perf_counter()
    config = TrainConfig(tau=24, t_h=3, hidden=hidden, quantifier=quantifier,
                         ablation=ablation, seed=seed, epochs=1, dropout_keep=1.0)
    market = build_toy_market(seed)
    bundle = build_contexts(market, config, encoder_overrides=dict(TOY_ENCODER))
    model = GMEModel(bundle.encoder.feature_dim, config)
    ctx = _pick_context(model, bundle.train)

    def loss_fn():
        return model.loss(model.forward(ctx), ctx).total

    params = model.parameters()
    with ad.Tape() as tape:
        ad.backward(tape, loss_fn())
    live = int(sum(np.count_nonzero(p.grad) for p in params))
    for p in params:
        p.zero_grad()

    worst = ad.grad_check(loss_fn, params)
    return {
        "ablation": ablation,
        "quantifier": quantifier,
        "hidden": hidden,
        "seed": seed,
        "target_set": ctx.label,
        "n_parameters": len(params),
        "n_entries": int(sum(p.data.size for p in params)),
        "n_live_entries": live,
        "max_rel_err": float(worst),
        "seconds": time.perf_counter() - started,
    }


TOY_VARIANTS = (
    ("pcm-only", "recurrent"),
    ("met-only", "recurrent"),
    ("full", "prior-mlp"),
)


def run_toy_gradchecks(seed: int = 0, hidden: int = 6) -> list:
    return [gradcheck_toy(a, q, hidden, seed) for a, q in TOY_VARIANTS]
