"""Command-line surface: generate markets, train, evaluate, inspect, verify.

Every subcommand writes a ``config_echo.json`` next to its outputs holding
the exact inputs and configuration of the run.  Exit codes: 0 success,
1 usage error, 2 data error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import data as gd
from .competition import PRUNING_MODES
from .evolution import build_propagation_tree
from .model import ABLATIONS, QUANTIFIERS, GMEModel, TrainConfig
from .synth import SynthConfig, generate_market, write_trace
from .toy import run_toy_gradchecks
from .training import (BASELINES, build_contexts, evaluate_model,
                       evaluation_report, fit_baseline, train_model)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFY = 3

GRADCHECK_LIMIT = 1e-4


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2; this surface reserves 2 for data."""

    def error(self, message):
        print(f"usage error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _echo(out_dir: Path, command: str, config: dict, inputs: dict | None = None) -> None:
    doc = {"command": command, "config": config}
    if inputs:
        doc["inputs"] = inputs
    _write_json(out_dir / "config_echo.json", doc)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _train_config(args) -> TrainConfig:
    fields = ("tau", "t_h", "eta", "pruning", "quantifier", "ablation", "hidden",
              "dropout_keep", "learning_rate", "lr_decay", "epochs", "seed", "tz_offset")
    return TrainConfig(**{name: getattr(args, name) for name in fields})


def _load_market(args) -> gd.Market:
    return gd.Market.from_files(args.projects, args.investments)


def _load_checkpoint_doc(path):
    try:
        return ad.load_checkpoint(path)
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        raise gd.DataError(f"{path}: not a readable checkpoint ({exc})") from exc


def _load_encoder(path) -> gd.EncoderConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return gd.EncoderConfig.from_json(json.load(fh))
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise gd.DataError(f"{path}: not a readable encoder file ({exc})") from exc


def _restored_model(args):
    """Rebuild (model, config, bundle) from checkpoint + encoder files."""
    values, meta = _load_checkpoint_doc(args.checkpoint)
    try:
        config = TrainConfig.from_json(meta["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise gd.DataError(
            f"{args.checkpoint}: checkpoint meta lacks a usable config ({exc})") from exc
    encoder = _load_encoder(args.encoder)
    market = _load_market(args)
    bundle = build_contexts(market, config, encoder=encoder)
    model = GMEModel(encoder.feature_dim, config)
    try:
        model.load_state(values)
    except ValueError as exc:
        raise gd.DataError(f"{args.checkpoint}: {exc}") from exc
    return model, config, bundle


def _select_contexts(bundle, label: str | None):
    contexts = list(bundle.train) + list(bundle.test)
    if label is None:
        return contexts
    picked = [ctx for ctx in contexts if ctx.label == label]
    if not picked:
        raise gd.DataError(f"no target set labelled {label!r} "
                           f"(labels run {contexts[0].label}..{contexts[-1].label})")
    return picked


def cmd_synth(args) -> int:
    config = SynthConfig(n_projects=args.n, days=args.days, seed=args.seed,
                         kappa=args.kappa, noise=args.noise)
    market, trace = generate_market(config)
    out = _out_dir(args)
    gd.save_projects(out / "projects.jsonl", market.projects)
    events = [gd.InvestmentEvent(p.id, int(t), float(a))
              for p in market.projects
              for t, a in zip(market.log(p.id).times, market.log(p.id).amounts)]
    gd.save_investments(out / "investments.jsonl", events)
    write_trace(out / "trace.jsonl", trace)
    _echo(out, "synth", config.to_json())
    print(f"synth: wrote {len(market.projects)} projects, {len(events)} investments to {out}")
    return EXIT_OK


def _write_loss_history(path, history) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss_p", "loss_l", "seconds"])
        for row in history:
            writer.writerow([row.epoch, repr(row.loss_p), repr(row.loss_l),
                             repr(row.seconds)])


def cmd_train(args) -> int:
    config = _train_config(args)
    market = _load_market(args)
    bundle = build_contexts(market, config)
    model = GMEModel(bundle.encoder.feature_dim, config)
    history = train_model(model, bundle.train)
    out = _out_dir(args)
    ad.save_checkpoint(out / "checkpoint.json", model.parameters(),
                       meta={"config": config.to_json(),
                             "feature_dim": bundle.encoder.feature_dim})
    _write_json(out / "encoder.json", bundle.encoder.to_json())
    _write_loss_history(out / "loss_history.csv", history)
    report = evaluate_model(model, bundle.test)
    _write_json(out / "eval_report.json", report)
    _echo(out, "train", config.to_json(),
          {"projects": args.projects, "investments": args.investments})
    print(f"train: {len(bundle.train)} train / {len(bundle.test)} test sets, "
          f"{config.epochs} epochs; test mae {report['mae']:.6f} "
          f"rmse {report['rmse']:.6f}; artifacts in {out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model, config, bundle = _restored_model(args)
    report = evaluate_model(model, bundle.test)
    out = _out_dir(args)
    _write_json(out / "eval_report.json", report)
    _echo(out, "eval", config.to_json(),
          {"projects": args.projects, "investments": args.investments,
           "checkpoint": args.checkpoint, "encoder": args.encoder})
    print(f"eval: {report['n_targets']} targets in {report['n_sets']} sets; "
          f"mae {report['mae']:.6f} rmse {report['rmse']:.6f}; report in {out}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    config = _train_config(args)
    market = _load_market(args)
    bundle = build_contexts(market, config)
    variants = {}
    for ablation in ABLATIONS:
        cfg = dataclasses.replace(config, ablation=ablation)
        model = GMEModel(bundle.encoder.feature_dim, cfg)
        train_model(model, bundle.train)
        report = evaluate_model(model, bundle.test)
        variants[ablation] = {"mae": report["mae"], "rmse": report["rmse"]}
    baselines = {}
    for kind in BASELINES:
        predict = fit_baseline(kind, bundle.train, config)
        report = evaluation_report(bundle.test, predict, config.to_json())
        baselines[kind] = {"mae": report["mae"], "rmse": report["rmse"]}
    out = _out_dir(args)
    doc = {"config": config.to_json(), "n_train_sets": len(bundle.train),
           "n_test_sets": len(bundle.test), "variants": variants,
           "baselines": baselines}
    _write_json(out / "ablation_report.json", doc)
    _echo(out, "ablate", config.to_json(),
          {"projects": args.projects, "investments": args.investments})
    rows = {**variants, **baselines}
    print("ablate: " + "  ".join(f"{k} mae={v['mae']:.6f}" for k, v in rows.items()))
    return EXIT_OK


def cmd_inspect_attention(args) -> int:
    model, config, bundle = _restored_model(args)
    sets = []
    for ctx in _select_contexts(bundle, args.set):
        alpha = model.forward(ctx).attention
        targets = [] if alpha is None else [
            {"id": tid,
             "weights": [{"rival": ctx.rival_ids[c], "alpha": float(alpha[row, c])}
                         for c in np.nonzero(ctx.graph.adjacency[row])[0]]}
            for row, tid in enumerate(ctx.target_ids)]
        sets.append({"label": ctx.label, "pruning": ctx.graph.mode,
                     "n_rivals": len(ctx.rival_ids), "targets": targets})
    out = _out_dir(args)
    _write_json(out / "attention.json", {"sets": sets})
    _echo(out, "inspect-attention", config.to_json(),
          {"projects": args.projects, "investments": args.investments,
           "checkpoint": args.checkpoint, "encoder": args.encoder})
    print(f"inspect-attention: {len(sets)} sets written to {out / 'attention.json'}")
    return EXIT_OK


def cmd_dump_tree(args) -> int:
    market = _load_market(args)
    target_sets = gd.segment_target_sets(market.projects, args.tz_offset)
    label = args.set
    docs = []
    for ts in target_sets:
        ts_label = f"d{ts.day}s{ts.segment}"
        if label is not None and ts_label != label:
            continue
        observables = gd.observable_set(market.projects, ts.observation_time,
                                        args.t_h, args.tau)
        targets = [market.by_id[pid] for pid in ts.project_ids]
        tree = build_propagation_tree(targets, observables, args.t_h, args.tau)
        docs.append({
            "label": ts_label,
            "observation_time": ts.observation_time,
            "tau_hours": tree.tau_hours,
            "t_h": tree.t_h,
            "n_roots": tree.n_roots,
            "nodes": [{"id": tree.node_ids[i], "time": int(tree.node_times[i]),
                       "depth": int(tree.depth[i])}
                      for i in range(tree.n_nodes)],
            "edges": [{"parent": tree.node_ids[p], "child": tree.node_ids[c],
                       "gap_hours": int(tree.node_times[p] - tree.node_times[c]) / 3600.0}
                      for c, p in zip(*np.nonzero(tree.adjacency.T))],
            "dropped": list(tree.dropped_ids),
        })
    if label is not None and not docs:
        known = [f"d{t.day}s{t.segment}" for t in target_sets]
        raise gd.DataError(f"no target set labelled {label!r} "
                           f"(labels run {known[0]}..{known[-1]})")
    out = _out_dir(args)
    _write_json(out / "tree.json", {"sets": docs})
    _echo(out, "dump-tree",
          {"tau": args.tau, "t_h": args.t_h, "tz_offset": args.tz_offset},
          {"projects": args.projects, "investments": args.investments})
    print(f"dump-tree: {len(docs)} sets written to {out / 'tree.json'}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = run_toy_gradchecks(seed=args.seed, hidden=args.hidden)
    worst = 0.0
    for r in results:
        print(f"gradcheck {r['ablation']}/{r['quantifier']}: "
              f"max_rel_err={r['max_rel_err']:.3e} "
              f"live_entries={r['n_live_entries']} seconds={r['seconds']:.1f}")
        worst = max(worst, r["max_rel_err"])
    if worst >= GRADCHECK_LIMIT:
        print(f"gradcheck: FAIL (worst {worst:.3e} >= {GRADCHECK_LIMIT:.0e})")
        return EXIT_VERIFY
    print(f"gradcheck: PASS (worst {worst:.3e} < {GRADCHECK_LIMIT:.0e})")
    return EXIT_OK


def _add_data_flags(parser) -> None:
    parser.add_argument("--projects", required=True, help="projects JSONL path")
    parser.add_argument("--investments", required=True, help="investments JSONL path")


def _add_model_flags(parser) -> None:
    d = TrainConfig()
    parser.add_argument("--tau", type=int, choices=(24, 48), default=d.tau,
                        help="early-window hours")
    parser.add_argument("--t-h", dest="t_h", type=int, choices=range(1, 8),
                        default=d.t_h, help="history horizon in tau-days")
    parser.add_argument("--eta", type=float, default=d.eta,
                        help="weight of the target loss in the joint objective")
    parser.add_argument("--pruning", choices=PRUNING_MODES, default=d.pruning)
    parser.add_argument("--quantifier", choices=QUANTIFIERS, default=d.quantifier)
    parser.add_argument("--ablation", choices=ABLATIONS, default=d.ablation)
    parser.add_argument("--seed", type=int, default=d.seed)
    parser.add_argument("--epochs", type=int, default=d.epochs)
    parser.add_argument("--hidden", type=int, default=d.hidden)
    parser.add_argument("--dropout-keep", dest="dropout_keep", type=float,
                        default=d.dropout_keep)
    parser.add_argument("--learning-rate", dest="learning_rate", type=float,
                        default=d.learning_rate)
    parser.add_argument("--lr-decay", dest="lr_decay", type=float, default=d.lr_decay)
    parser.add_argument("--tz-offset", dest="tz_offset", type=int, default=d.tz_offset,
                        help="seconds added to timestamps before day/segment bucketing")


def build_parser() -> _Parser:
    parser = _Parser(prog="gme", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("synth", help="generate a synthetic market")
    p.add_argument("--n", type=int, default=SynthConfig.n_projects)
    p.add_argument("--days", type=int, default=SynthConfig.days)
    p.add_argument("--seed", type=int, default=SynthConfig.seed)
    p.add_argument("--kappa", type=float, default=SynthConfig.kappa)
    p.add_argument("--noise", type=float, default=SynthConfig.noise)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="fit a model and write its artifacts")
    _add_data_flags(p)
    _add_model_flags(p)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a stored checkpoint on the test span")
    _add_data_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--encoder", required=True)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train every ablation plus the reference models")
    _add_data_flags(p)
    _add_model_flags(p)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("inspect-attention",
                       help="dump per-target rival attention weights")
    _add_data_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--encoder", required=True)
    p.add_argument("--set", default=None, help="one target-set label, e.g. d19700s3")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_inspect_attention)

    p = sub.add_parser("dump-tree", help="dump propagation-tree topology per target set")
    _add_data_flags(p)
    p.add_argument("--tau", type=int, choices=(24, 48), default=TrainConfig.tau)
    p.add_argument("--t-h", dest="t_h", type=int, choices=range(1, 8),
                   default=TrainConfig.t_h)
    p.add_argument("--tz-offset", dest="tz_offset", type=int,
                   default=TrainConfig.tz_offset)
    p.add_argument("--set", default=None, help="one target-set label, e.g. d19700s3")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_dump_tree)

    p = sub.add_parser("gradcheck", help="finite-difference check on toy instances")
    p.add_argument("--toy", action="store_true", required=True,
                   help="run the miniature-market suite (the only mode)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hidden", type=int, default=6)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except gd.DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        name = getattr(exc, "filename", None) or ""
        print(f"data error: {exc.strerror or exc} {name}".rstrip(), file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
