"""One measured run of a workload in a fresh process; run.py starts it.

Loads the market JSONL, builds contexts, trains every ablation of the
workload and scores every target set of both spans, through the public
``gme`` API.  Writes one JSON document with timings, counts, fingerprints
and the per-set ids and truths that run.py checks.

    python3 perfbench/measure.py --workload W --inputs DIR --out FILE
        [--seconds S] [--single] [--tiny] [--trace-out SPANS.npz --run-id ID]

``--single`` loads, builds and scores once, so that a traced and an
untraced run do the same work.  Otherwise loading, context building and
scoring repeat in turn until each has its least count of repeats and
``--seconds`` of measured time have passed, and medians are reported.
Every timing is taken on a ``HostGate`` clock, which leaves out the
stretches in which the shared host ran slow (see hostgate.py).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from gme import data as gd  # noqa: E402
from gme import training as gt  # noqa: E402
from gme.model import GMEModel, TrainConfig  # noqa: E402
from hostgate import HostGate  # noqa: E402
from workloads import TINY_EPOCHS, WORKLOADS  # noqa: E402


def context_arrays(bundle):
    """Every array the contexts of a bundle hold, in a fixed order."""
    for c in (*bundle.train, *bundle.test):
        yield from (c.target_features, c.truths, c.rival_features, c.rival_series,
                    c.rival_trends, c.graph.adjacency, c.tree.node_times, c.tree.depth,
                    c.tree.adjacency, c.tree_init, c.aux_truths)


def array_digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


class Scorer:
    """The predict_fn handed to evaluation_report: times and checks each set."""

    def __init__(self, model, clock):
        self.model, self.clock = model, clock
        self.seconds: list[float] = []
        self.preds: list[np.ndarray] = []
        self.failed = 0

    def __call__(self, ctx):
        started = self.clock()
        try:
            pred = self.model.predict(ctx)
        except Exception as exc:  # an op that raises is counted, not fatal
            print(f"measure: predicting {ctx.label} raised {exc!r}", file=sys.stderr)
            pred = None
        self.seconds.append(self.clock() - started)
        ok = (isinstance(pred, np.ndarray) and pred.shape == ctx.truths.shape
              and bool(np.all(np.isfinite(pred))))
        if not ok:
            self.failed += 1
            pred = np.full(ctx.truths.shape, np.nan)
        self.preds.append(np.asarray(pred, dtype=np.float64))
        return pred


class Run:
    """The measured phases of one workload run; every time is read from ``clock``."""

    def __init__(self, args, clock):
        self.args, self.clock = args, clock
        self.workload = WORKLOADS[args.workload]
        config = TrainConfig(**self.workload.train)
        if args.tiny:
            config = dataclasses.replace(config, epochs=min(config.epochs, TINY_EPOCHS))
        self.config = config
        self.paths = Path(args.inputs, "projects.jsonl"), Path(args.inputs, "investments.jsonl")
        self.setup_s, self.contexts_s, self.context_digests = [], [], []
        self.context_bytes = 0
        self.train_s, self.steps, self.failed = 0.0, 0, 0
        self.passes = []  # (seconds, scorers, [(test report, train report)] per model)

    def timed(self, fn, *args):
        started = self.clock()
        result = fn(*args)
        return result, self.clock() - started

    def load(self):
        gc.collect()
        market, seconds = self.timed(gd.Market.from_files, *self.paths)
        self.setup_s.append(seconds)
        return market

    def build(self, market):
        gc.collect()
        bundle, seconds = self.timed(gt.build_contexts, market, self.config)
        self.contexts_s.append(seconds)
        self.context_digests.append(array_digest(context_arrays(bundle)))
        self.context_bytes = sum(a.nbytes for a in context_arrays(bundle))
        return bundle

    def train(self, bundle) -> list:
        models = []
        for ablation in self.workload.ablations:
            model = GMEModel(bundle.encoder.feature_dim,
                             dataclasses.replace(self.config, ablation=ablation))
            planned = self.config.epochs * len(bundle.train)
            try:
                _, seconds = self.timed(gt.train_model, model, bundle.train)
            except Exception as exc:  # every step of a failed training call counts as failed
                print(f"measure: training {ablation} raised {exc!r}", file=sys.stderr)
                self.failed += planned
                seconds = 0.0
            self.steps += planned
            self.train_s += seconds
            models.append(model)
        return models

    def score(self, models, bundle) -> None:
        started = self.clock()
        scorers, reports = [], []
        for model in models:
            scorer = Scorer(model, self.clock)
            echo = model.config.to_json()
            reports.append((gt.evaluation_report(bundle.test, scorer, echo),
                            gt.evaluation_report(bundle.train, scorer, echo)))
            scorers.append(scorer)
        self.passes.append((self.clock() - started, scorers, reports))

    def execute(self) -> None:
        w, single = self.workload, self.args.single
        market = self.load()
        started = self.clock()
        bundle = self.build(market)
        models = self.train(bundle)
        self.score(models, bundle)
        # Repeats take turns, so that each metric's samples spread over the
        # run: each cycle repeats whatever is short of its count, and once
        # every count is met, cycles repeat everything until the window ends.
        while not single:
            short = (len(self.setup_s) < w.setup_reps, len(self.contexts_s) < w.contexts_reps,
                     len(self.passes) < w.passes)
            if not any(short) and self.clock() - started >= self.args.seconds:
                break
            if short[0] or short[1] or not any(short):
                market = None
                market = self.load()
                bundle = None
                bundle = self.build(market)
            if short[2] or not any(short):
                self.score(models, bundle)

    def result(self) -> dict:
        passes = self.passes
        first = passes[0][2]
        digests = [array_digest(a for s in scorers for a in s.preds) for _, scorers, _ in passes]
        latencies = np.asarray([[t for s in scorers for t in s.seconds]
                                for _, scorers, _ in passes])
        per_set_s = np.median(latencies, axis=0)
        score_s = statistics.median(seconds for seconds, _, _ in passes)
        failed = self.failed + sum(s.failed for _, scorers, _ in passes for s in scorers)
        test = first[0][0]
        contexts_s = statistics.median(self.contexts_s)
        return {
            "metrics": {
                "setup_s": statistics.median(self.setup_s),
                "contexts_s": contexts_s,
                "predict_set_ms_p50": float(np.percentile(per_set_s, 50)) * 1e3,
                "predict_set_ms_p90": float(np.percentile(per_set_s, 90)) * 1e3,
                "e2e_s": contexts_s + self.train_s + score_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            },
            "test_mae": test["mae"],
            "samples": {"setup_s": len(self.setup_s), "contexts_s": len(self.contexts_s),
                        "train_steps": self.steps, "score_passes": len(passes),
                        "predict_sets": len(per_set_s), "predict_calls": latencies.size},
            "train_sets_per_s": self.steps / self.train_s if self.train_s else 0.0,
            "ops": {"attempted": self.steps + latencies.size, "failed": failed},
            "fingerprint": {"pred_sha256": digests[0], "context_sha256": self.context_digests[0]},
            "passes_identical": len(set(digests)) == 1,
            "contexts_identical": len(set(self.context_digests)) == 1,
            "test_mae_recomputed": float(np.mean([abs(r["truth"] - r["pred"])
                                                  for r in test["predictions"]])),
            "context_bytes": self.context_bytes,
            "raw": {"setup_s": self.setup_s, "contexts_s": self.contexts_s,
                    "score_s": [seconds for seconds, _, _ in passes]},
            "scored_ids": [[r["id"] for report in pair for r in report["predictions"]]
                           for pair in first],
            "truths": {r["id"]: r["truth"] for report in first[0] for r in report["predictions"]},
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--single", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--trace-out")
    parser.add_argument("--run-id", default="")
    args = parser.parse_args(argv)

    tracer = None
    with HostGate(ROOT / ".perfbench-out" / "hostgate-probes.json") as gate:
        run = Run(args, gate.clock)
        if args.trace_out:
            from tracer import Tracer
            tracer = Tracer(args.run_id, gate.clock)
        with tracer.installed() if tracer else contextlib.nullcontext():
            run.execute()
    doc = run.result()
    doc["gate"] = {"paused_s": gate.paused, "waits": gate.waits, "level_ms": gate.level * 1e3}
    if tracer:
        from tracer import layer_metrics
        doc["layers"] = dict(layer_metrics(tracer), **{"training.context_bytes": run.context_bytes})
        tracer.write(args.trace_out)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
