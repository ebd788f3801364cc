"""Command-line surface: generate markets, train, evaluate, inspect, verify.

Every subcommand writes a ``config_echo.json`` next to its outputs holding
the exact inputs and configuration of the run.  Exit codes: 0 success,
1 usage error, 2 data error, 3 verification failure, 4 training stopped
by the non-finite guard.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import data as gd
from .competition import PRUNING_MODES
from .model import ABLATIONS, QUANTIFIERS, GMEModel, TrainConfig
from .synth import SynthConfig, generate_market, write_trace
from .toy import run_toy_gradchecks
from .training import (BASELINES, build_contexts, evaluate_model, evaluation_report,
                       finite_predictions, fit_baseline, train_model)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFY = 3
EXIT_TRAIN = 4

GRADCHECK_LIMIT = 1e-4
DEAD_ZONE_WARNING = 0.9  # gme train warns when this share of test predictions is exactly 0


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2; this surface reserves 2 for data."""

    def error(self, message):
        print(f"usage error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _write_whole(out_dir: Path, artifacts: dict) -> None:
    """Write each artifact, name -> `write(tmp)`, to a temporary name in `out_dir`, then
    rename them into place back to back, in order: a run stopped while any of them is
    being written leaves the files of the run before it, and none is ever cut short."""
    staged = []
    try:
        for name, write in artifacts.items():
            staged.append((out_dir / f".{name}.tmp", out_dir / name))
            write(staged[-1][0])
        for tmp, path in staged:
            os.replace(tmp, path)
    finally:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)


def _json(doc):
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    return lambda tmp: tmp.write_text(text, encoding="utf-8")


def _write_json(path: Path, doc) -> None:
    _write_whole(path.parent, {path.name: _json(doc)})


def _echo_doc(config: dict, args) -> dict:
    """config_echo.json: the subcommand, its config, each input file it was given and
    the BLAS thread settings in its environment (None where unset), which set output bits."""
    threads = {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    doc = {"command": args.subcommand, "config": config, "threads": threads}
    inputs = {name: getattr(args, name) for name in ("projects", "investments", "checkpoint", "encoder")
              if hasattr(args, name)}
    if inputs:
        doc["inputs"] = inputs
    return doc


def _echo(out_dir: Path, config: dict, args) -> None:
    _write_json(out_dir / "config_echo.json", _echo_doc(config, args))


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _config(cls, args):  # a field with no flag keeps its default
    try:
        return cls(**{f.name: getattr(args, f.name)
                      for f in dataclasses.fields(cls) if hasattr(args, f.name)})
    except gd.DataError as exc:  # a flag's value, not the data, is at fault
        raise ValueError(str(exc)) from exc


def _load_market(args) -> gd.Market:
    return gd.Market.from_files(args.projects, args.investments)


def _load_checkpoint_doc(path):
    try:
        return ad.load_checkpoint(path)
    except ValueError as exc:
        raise gd.DataError(f"{path}: not a readable checkpoint ({exc})") from exc


def _load_encoder(path) -> gd.EncoderConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return gd.EncoderConfig.from_json(json.load(fh))
    except ValueError as exc:
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
    width = gd.typed_fields({"feature_dim": encoder.feature_dim, **meta},
                            {"feature_dim": gd.JSON_KINDS[int]},
                            f"{args.checkpoint}: checkpoint meta")["feature_dim"]
    if width != encoder.feature_dim:  # refused before any array of either width is built
        raise gd.DataError(f"{args.checkpoint} was fit on {width} features, but "
                           f"{args.encoder} encodes {encoder.feature_dim}")
    # The config and the encoder size the arrays built below: check them against the checkpoint's.
    widths = {"head.proj.b": (config.hidden,), "evolution.updater.b_agg": (width + 1,)}
    for name, shape in widths.items():
        if name not in values or values[name].shape != shape:
            raise gd.DataError(f"{args.checkpoint}: its config and encoder call for a parameter "
                               f"{name} of shape {shape}, which it does not hold")
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
    config = _config(SynthConfig, args)
    market, trace = generate_market(config)
    out = _out_dir(args)
    gd.save_projects(out / "projects.jsonl", market.projects)
    n_events = gd.save_investments(out / "investments.jsonl", market)
    write_trace(out / "trace.jsonl", trace)
    _echo(out, config.to_json(), args)
    print(f"synth: wrote {len(market.projects)} projects, {n_events} investments to {out}")
    return EXIT_OK


def _zero_share(report) -> float:
    """The share of a report's predictions that sit at exactly 0, the head rectifier's dead zone."""
    return sum(row["pred"] == 0.0 for row in report["predictions"]) / report["n_targets"]


def _write_loss_history(path, history) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss_p", "loss_l", "seconds"])
        for row in history:
            writer.writerow([row.epoch, repr(row.loss_p), repr(row.loss_l),
                             repr(row.seconds)])


def cmd_train(args) -> int:
    config = _config(TrainConfig, args)
    market = _load_market(args)
    bundle = build_contexts(market, config)
    model = GMEModel(bundle.encoder.feature_dim, config)
    history = train_model(model, bundle.train)
    report = evaluate_model(model, bundle.test)
    # Nothing is written before the run has scored, and the checkpoint is renamed last.
    out = _out_dir(args)
    meta = {"config": config.to_json(), "feature_dim": bundle.encoder.feature_dim}
    _write_whole(out, {
        "loss_history.csv": lambda tmp: _write_loss_history(tmp, history),
        "encoder.json": _json(bundle.encoder.to_json()),
        "eval_report.json": _json(report),
        "config_echo.json": _json(_echo_doc(config.to_json(), args)),
        "checkpoint.json": lambda tmp: ad.save_checkpoint(tmp, model.parameters(), meta),
    })
    zero = _zero_share(report)
    print(f"train: {len(bundle.train)} train / {len(bundle.test)} test sets, "
          f"{config.epochs} epochs; test mae {report['mae']:.6f} "
          f"rmse {report['rmse']:.6f}; {zero:.1%} of test predictions at 0; artifacts in {out}")
    if zero >= DEAD_ZONE_WARNING:
        print(f"warning: {zero:.1%} of test predictions are exactly 0, in the output "
              f"rectifier's dead zone", file=sys.stderr)
    return EXIT_OK


def cmd_eval(args) -> int:
    model, config, bundle = _restored_model(args)
    report = evaluate_model(model, bundle.test)
    out = _out_dir(args)
    _write_whole(out, {"eval_report.json": _json(report),
                       "config_echo.json": _json(_echo_doc(config.to_json(), args))})
    print(f"eval: {report['n_targets']} targets in {report['n_sets']} sets; "
          f"mae {report['mae']:.6f} rmse {report['rmse']:.6f}; "
          f"{_zero_share(report):.1%} of predictions at 0; report in {out}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    config = _config(TrainConfig, args)
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
        report = evaluation_report(bundle.test, finite_predictions(predict), config.to_json())
        baselines[kind] = {"mae": report["mae"], "rmse": report["rmse"]}
    out = _out_dir(args)
    doc = {"config": config.to_json(), "n_train_sets": len(bundle.train),
           "n_test_sets": len(bundle.test), "variants": variants,
           "baselines": baselines}
    _write_json(out / "ablation_report.json", doc)
    _echo(out, config.to_json(), args)
    rows = {**variants, **baselines}
    print("ablate: " + "  ".join(f"{k} mae={v['mae']:.6f}" for k, v in rows.items()))
    return EXIT_OK


def cmd_inspect_attention(args) -> int:
    model, config, bundle = _restored_model(args)
    sets = []
    for ctx in _select_contexts(bundle, args.set):
        alpha = model.forward(ctx).attention
        rival_ids = ctx.rival_ids
        targets = [] if alpha is None else [
            {"id": tid,
             "weights": [{"rival": rival_ids[c], "alpha": float(alpha[row, c])}
                         for c in np.nonzero(ctx.graph.adjacency[row])[0]]}
            for row, tid in enumerate(ctx.target_ids)]
        sets.append({"label": ctx.label, "pruning": config.pruning,
                     "n_rivals": len(rival_ids), "targets": targets})
    out = _out_dir(args)
    _write_json(out / "attention.json", {"sets": sets})
    _echo(out, config.to_json(), args)
    print(f"inspect-attention: {len(sets)} sets written to {out / 'attention.json'}")
    return EXIT_OK


def cmd_dump_tree(args) -> int:
    config = _config(TrainConfig, args)
    bundle = build_contexts(_load_market(args), config)
    docs = []
    for ctx in _select_contexts(bundle, args.set):
        tree = ctx.tree
        node_ids = [p.id for p in ctx.projects[tree.rows]]
        docs.append({
            "label": ctx.label,
            "observation_time": ctx.observation_time,
            "tau_hours": config.tau,
            "t_h": config.t_h,
            "n_roots": tree.n_roots,
            "nodes": [{"id": node_ids[i], "time": int(tree.node_times[i]),
                       "depth": int(tree.depth[i])}
                      for i in range(tree.n_nodes)],
            "edges": [{"parent": node_ids[p], "child": node_ids[c],
                       "gap_hours": int(tree.node_times[p] - tree.node_times[c]) / gd.HOUR}
                      for p, c in tree.edges.T.tolist()],
            "dropped": list(tree.dropped_ids),
        })
    out = _out_dir(args)
    _write_json(out / "tree.json", {"sets": docs})
    _echo(out, {"tau": args.tau, "t_h": args.t_h, "tz_offset": args.tz_offset}, args)
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


def _add_window_flags(parser) -> None:
    d = TrainConfig()
    parser.add_argument("--tau", type=int, choices=(24, 48), default=d.tau,
                        help="early-window hours")
    parser.add_argument("--t-h", dest="t_h", type=int, choices=range(1, 8),
                        default=d.t_h, help="history horizon in tau-days")
    parser.add_argument("--tz-offset", dest="tz_offset", type=int, default=d.tz_offset,
                        help="seconds added to timestamps before day/segment bucketing")


def _add_model_flags(parser) -> None:
    d = TrainConfig()
    _add_window_flags(parser)
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


def build_parser() -> _Parser:
    parser = _Parser(prog="gme", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("synth", help="generate a synthetic market")
    p.add_argument("--n", dest="n_projects", type=int, default=SynthConfig.n_projects)
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
    _add_window_flags(p)
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
    except ad.GradientError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_TRAIN
    except OSError as exc:
        name = getattr(exc, "filename", None) or ""
        print(f"data error: {exc.strerror or exc} {name}".rstrip(), file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
