"""The benchmark's fixed workloads and the metrics it reports.

A workload is a synthetic market (generated by ``gme.synth``) plus the
training configuration the pipeline runs on it.  The market's launch
schedule is fixed per workload; ``--seed`` draws a mean-one log-normal
factor for every pledge amount, so each seed gives different inputs of
the same shape (see README.md for why the seed does not reseed the
schedule).
"""

from __future__ import annotations

from dataclasses import dataclass

# Pledge-amount noise applied per seed: factor ~ lognormal(-s^2/2, s).
AMOUNT_NOISE = 0.1

# --tiny: every workload path on about 90 projects and at most one epoch.
TINY_MARKET = dict(n_projects=90, days=12)
TINY_EPOCHS = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    market: dict                  # SynthConfig keyword arguments
    train: dict                   # TrainConfig keyword arguments
    ablations: tuple = ("full",)
    setup_reps: int = 5           # least Market.from_files repeats; median reported
    contexts_reps: int = 5        # least build_contexts repeats; median reported
    passes: int = 5               # least scoring passes; per-set medians reported


ACCEPTANCE_07_MARKET = dict(n_projects=800, days=60, seed=0, kappa=0.6)
ACCEPTANCE_07_TRAIN = dict(tau=24, t_h=5, quantifier="prior-mlp", dropout_keep=1.0, seed=0)

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="ablate-prior",
            why="taped training with the cheap prior-mlp quantifier: tape, attention, "
                "tree roll-up and SGD step set the cost; full, pcm-only, met-only in turn",
            market=ACCEPTANCE_07_MARKET,
            train=dict(ACCEPTANCE_07_TRAIN, epochs=2),
            ablations=("full", "pcm-only", "met-only"),
        ),
        Workload(
            name="train-recurrent",
            why="the paper-default recurrent quantifier, whose 24-step taped LSTM is "
                "most of each epoch and of untaped scoring",
            market=ACCEPTANCE_07_MARKET,
            train=dict(ACCEPTANCE_07_TRAIN, quantifier="recurrent", epochs=1),
            setup_reps=3,  # the market and contexts of ablate-prior: fewer repeats
            contexts_reps=3,
            passes=2,
        ),
        Workload(
            name="contexts-large",
            why="3200 projects over 240 days: data load, context building and memory, "
                "then untaped scoring of every set by an untrained model",
            market=dict(n_projects=3200, days=240, seed=0, kappa=0.6),
            train=dict(tau=24, t_h=5, pruning="cate-jf", quantifier="prior-mlp",
                       dropout_keep=1.0, epochs=0, seed=0),
            setup_reps=2,
            contexts_reps=2,
            passes=2,
        ),
    )
}

# name -> (unit, better); emitted with --trace 0.  train_sets_per_s,
# fail_ratio and test_mae are printed too but left out of the JSON: the
# first two are 0 on some workloads (contexts-large does not train; no op
# fails), and test_mae is a fingerprint of the outputs, not a cost.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "contexts_s": ("s", "lower"),
    "predict_set_ms_p50": ("ms", "lower"),
    "predict_set_ms_p90": ("ms", "lower"),
    "e2e_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Per-layer self times: metric -> span name recorded by the tracer.
SELF_TIMES = {
    "data.load_s": "data.load",
    "data.running_set_s": "data.running_set",
    "data.observable_set_s": "data.observable_set",
    "data.hourly_series_s": "data.hourly_series",
    "data.prior_trend_s": "data.prior_trend",
    "data.encode_s": "data.encode",
    "data.segment_s": "data.segment",
    "training.build_context_s": "training.build_context",
    "training.evaluate_s": "training.evaluate",
    "competition.graph_s": "competition.graph",
    "competition.quantifier_fwd_s": "competition.quantifier_fwd",
    "competition.attention_fwd_s": "competition.attention_fwd",
    "evolution.tree_build_s": "evolution.tree_build",
    "evolution.init_states_s": "evolution.init_states",
    "evolution.propagate_fwd_s": "evolution.propagate_fwd",
    "model.forward_s": "model.forward",
    "model.loss_s": "model.loss",
    "autodiff.backward_s": "autodiff.backward",
    "autodiff.sgd_step_s": "autodiff.sgd_step",
}

# Span names whose call counts are reported as "<name>.calls".
CALL_COUNTS = ("data.running_set", "data.observable_set", "data.hourly_series",
               "data.prior_trend", "data.encode")

# Counts and shape facts; "better" marks the direction of less work.
COUNTS = {
    "training.context_bytes": ("B", "lower"),
    "training.steps": ("count", "higher"),
    "competition.quantifier.tape_nodes": ("count", "lower"),
    "competition.attention.tape_nodes": ("count", "lower"),
    "competition.edges_kept_ratio": ("ratio", "lower"),
    "competition.rivals_per_target": ("count", "lower"),
    "competition.empty_neighbourhoods": ("count", "lower"),
    "evolution.propagate.tape_nodes": ("count", "lower"),
    "evolution.node_updates": ("count", "lower"),
    "evolution.tree_nodes": ("count", "lower"),
    "evolution.tree_depth_max": ("count", "lower"),
    "evolution.aux_nodes": ("count", "lower"),
    "evolution.dropped_ratio": ("ratio", "lower"),
    "autodiff.tape_nodes_per_step": ("count", "lower"),
    "autodiff.sgd_step.params": ("count", "lower"),
}

# name -> (unit, better); emitted with --trace 1
PER_LAYER = {
    **{name: ("s", "lower") for name in SELF_TIMES},
    **{f"{span}.calls": ("count", "lower") for span in CALL_COUNTS},
    **COUNTS,
    "synth.generate_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Per-layer metrics that must repeat exactly across runs of one seed.
EXACT = tuple(name for name in PER_LAYER if not name.endswith("_s"))
