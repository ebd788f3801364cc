"""Spans and counters recorded around the public functions of each gme module.

The tracer patches each function where its caller looks it up (for
example ``gme.training.build_competitiveness_graph``, which training
imports by name), records one span per call, and restores every original
on exit.  Spans stay in memory as flat arrays (name, start, end, parent)
and are written once, when the run ends.  A span's self time is its
duration minus the durations of its direct children; calls are nested on
one thread, so children never overlap.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from collections import defaultdict

import numpy as np

from gme import autodiff as ad
from gme import competition as gc
from gme import data as gd
from gme import evolution as ge
from gme import model as gm
from gme import training as gt
from workloads import CALL_COUNTS, SELF_TIMES


class Tracer:
    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self._clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._tapes: list = []
        self.counters: dict[str, float] = defaultdict(float)

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(self._clock())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = self._clock()
        self._stack.pop()

    def wrap(self, fn, name: str, observe=None, count_tape: bool = False):
        """Return fn recording a span per call, then observe(result, *args)."""

        def traced(*args, **kwargs):
            tape = self._tapes[-1] if count_tape and self._tapes else None
            before = len(tape) if tape is not None else 0
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if tape is not None:
                self.counters[f"{name}.tape_nodes"] += len(tape) - before
            if observe is not None:
                observe(self.counters, result, *args)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching --------------------------------------------------------

    def _patches(self):
        """(owner, attribute, span name, observe, count_tape) for every traced call."""
        return [
            (gd.Market, "from_files", "data.load", None, False),
            (gd, "running_set", "data.running_set", None, False),
            (gd, "observable_set", "data.observable_set", None, False),
            (gd, "hourly_series", "data.hourly_series", None, False),
            (gd, "prior_trend", "data.prior_trend", None, False),
            (gd, "segment_target_sets", "data.segment", None, False),
            (gd.EncoderConfig, "encode", "data.encode", None, False),
            (gt, "build_context", "training.build_context", None, False),
            (gt, "train_model", "training.train_model", None, False),
            (gt, "evaluation_report", "training.evaluate", None, False),
            (gt, "build_competitiveness_graph", "competition.graph", _observe_graph, False),
            (gc.RecurrentQuantifier, "forward", "competition.quantifier_fwd", None, True),
            (gc.PriorQuantifier, "forward", "competition.quantifier_fwd", None, True),
            (gc.AttentionAggregator, "forward", "competition.attention_fwd", None, True),
            (gt, "build_propagation_tree", "evolution.tree_build", _observe_tree, False),
            (gt, "init_states", "evolution.init_states", None, False),
            (ge.GatedTreeUpdater, "propagate", "evolution.propagate_fwd", _observe_propagate, True),
            (gm.GMEModel, "forward", "model.forward", None, False),
            (gm.GMEModel, "loss", "model.loss", None, False),
            (ad, "backward", "autodiff.backward", _observe_backward, False),
            (ad, "sgd_step", "autodiff.sgd_step", _observe_sgd, False),
        ]

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced call and the tape context; restore on exit."""
        saved = []
        try:
            for owner, attr, name, observe, count_tape in self._patches():
                original = vars(owner)[attr]
                fn = original.__func__ if isinstance(original, classmethod) else original
                wrapped = self.wrap(fn, name, observe, count_tape)
                saved.append((owner, attr, original))
                setattr(owner, attr,
                        classmethod(wrapped) if isinstance(original, classmethod) else wrapped)
            enter, leave = ad.Tape.__enter__, ad.Tape.__exit__
            saved.append((ad.Tape, "__enter__", enter))
            saved.append((ad.Tape, "__exit__", leave))
            tapes = self._tapes

            def tape_enter(tape):
                tapes.append(tape)
                return enter(tape)

            def tape_exit(tape, *exc):
                tapes.pop()
                return leave(tape, *exc)

            ad.Tape.__enter__, ad.Tape.__exit__ = tape_enter, tape_exit
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.array(self._name, dtype=np.int32),
            "parent": np.array(self._parent, dtype=np.int32),
            "start": np.array(self._start, dtype=np.float64),
            "end": np.array(self._end, dtype=np.float64),
        }

    def totals(self) -> dict:
        """Span name -> (self seconds, calls)."""
        a = self.arrays()
        duration = a["end"] - a["start"]
        own = duration.copy()
        child = a["parent"] >= 0
        np.subtract.at(own, a["parent"][child], duration[child])
        self_s = np.bincount(a["name"], weights=own, minlength=len(self.names))
        calls = np.bincount(a["name"], minlength=len(self.names))
        return {n: (float(self_s[i]), int(calls[i])) for i, n in enumerate(self.names)}

    def write(self, path) -> None:
        np.savez(path, run_id=np.asarray(self.run_id), names=np.asarray(self.names),
                 **self.arrays())


def _observe_graph(counters, graph, targets, rivals, mode):
    adjacency = graph.adjacency
    counters["graph.pairs"] += adjacency.size
    counters["graph.edges"] += int(adjacency.sum())
    counters["graph.targets"] += len(targets)
    counters["graph.empty"] += int(np.count_nonzero(adjacency.sum(axis=1) == 0))


def _observe_tree(counters, tree, targets, observables, t_h, tau_hours):
    counters["tree.nodes"] += tree.n_nodes
    counters["tree.aux"] += tree.n_nodes - tree.n_roots
    counters["tree.depth_max"] = max(counters["tree.depth_max"], tree.max_depth)
    counters["tree.dropped"] += len(tree.dropped_ids)
    counters["tree.candidates"] += len(observables)


def _observe_propagate(counters, result, updater, tree, states):
    counters["tree.node_updates"] += int(result.counts.sum())


def _observe_backward(counters, _, tape, loss):
    counters["tape.nodes_at_backward"] += len(tape)


def _observe_sgd(counters, _, params, schedule, step):
    counters["sgd.params"] = len(params)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric values (without synth.generate_s and trace.overhead_s)."""
    totals = tracer.totals()
    c = tracer.counters

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    out = {metric: totals.get(span, (0.0, 0))[0] for metric, span in SELF_TIMES.items()}
    out.update({f"{span}.calls": totals.get(span, (0.0, 0))[1] for span in CALL_COUNTS})
    steps = totals.get("autodiff.sgd_step", (0.0, 0))[1]
    out.update({
        "training.steps": steps,
        "competition.quantifier.tape_nodes": c["competition.quantifier_fwd.tape_nodes"],
        "competition.attention.tape_nodes": c["competition.attention_fwd.tape_nodes"],
        "competition.edges_kept_ratio": ratio("graph.edges", "graph.pairs"),
        "competition.rivals_per_target": ratio("graph.edges", "graph.targets"),
        "competition.empty_neighbourhoods": c["graph.empty"],
        "evolution.propagate.tape_nodes": c["evolution.propagate_fwd.tape_nodes"],
        "evolution.node_updates": c["tree.node_updates"],
        "evolution.tree_nodes": c["tree.nodes"],
        "evolution.tree_depth_max": c["tree.depth_max"],
        "evolution.aux_nodes": c["tree.aux"],
        "evolution.dropped_ratio": ratio("tree.dropped", "tree.candidates"),
        "autodiff.tape_nodes_per_step": c["tape.nodes_at_backward"] / steps if steps else 0.0,
        "autodiff.sgd_step.params": c["sgd.params"],
    })
    return out
