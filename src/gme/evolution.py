"""Propagation trees over recently launched projects and their gated roll-up.

A tree is grown beneath each target set: candidates from the observable
window attach to the node whose launch time sits strictly inside
(tau, 2*tau) hours after their own.  Iteration 1 may attach a candidate
to several roots at once; later iterations pick the single parent with
the smallest gap.  Nodes that never find a parent are dropped.

States then flow bottom-up: each parent folds the sum of its children's
states into its own through a gated recurrent cell, so every node is
touched at most once and leaves keep their initial state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import autodiff as ad
from .data import HOUR, DataError, ProjectRecord


@dataclass(frozen=True)
class PropagationTree:
    """Static structure of one grown tree. Roots occupy indices [0, n_roots).

    ``adjacency[p, c] == 1`` when node c hangs under node p; nodes are
    numbered in attachment order, so child indices always exceed parent ones.
    """

    node_ids: tuple
    node_times: np.ndarray
    depth: np.ndarray
    adjacency: np.ndarray
    n_roots: int
    dropped_ids: tuple
    tau_hours: int
    t_h: int

    @property
    def n_nodes(self):
        return len(self.node_ids)

    @property
    def max_depth(self):
        return int(self.depth.max()) if self.depth.size else 0


def build_propagation_tree(targets: Sequence[ProjectRecord],
                           observables: Sequence[ProjectRecord],
                           t_h: int, tau_hours: int) -> PropagationTree:
    """Grow a tree rooted at `targets` from the observable candidates.

    Runs t_h attachment iterations.  A candidate child c may attach to a
    node p already in the tree when tau < T_p - T_c < 2*tau (strict, in
    hours).  Parents are always drawn from the tree as it stood when the
    iteration began, so nodes attached in the same sweep cannot parent
    each other.
    """
    if not targets:
        raise ValueError("tree needs at least one root")
    if t_h < 1:
        raise ValueError(f"t_h must be >= 1, got {t_h}")
    if tau_hours <= 0:
        raise ValueError(f"tau_hours must be positive, got {tau_hours}")

    tau_s = tau_hours * HOUR
    node_ids = [p.id for p in targets]
    if len(set(node_ids)) != len(node_ids):
        raise ValueError("duplicate root ids")
    times = [p.published_time for p in targets]
    depth = [0] * len(targets)
    parents, children = [], []

    seen = set(node_ids)
    remaining = []
    for rec in sorted(observables, key=lambda p: (p.published_time, p.id)):
        if rec.id in seen:
            raise ValueError(f"duplicate project id {rec.id!r} in tree input")
        seen.add(rec.id)
        remaining.append(rec)

    for k in range(1, t_h + 1):
        snapshot = np.asarray(times, dtype=np.int64)
        attach = []
        leftover = []
        for rec in remaining:
            gaps = snapshot - rec.published_time
            rows = np.nonzero((gaps > tau_s) & (gaps < 2 * tau_s))[0]
            if rows.size == 0:
                leftover.append(rec)
                continue
            if k > 1:
                rows = rows[[np.argmin(gaps[rows])]]
            attach.append((rec, rows))
        for rec, rows in attach:
            parents.extend(rows.tolist())
            children.extend([len(node_ids)] * rows.size)
            node_ids.append(rec.id)
            times.append(rec.published_time)
            depth.append(k)
        remaining = leftover
        if not remaining:
            break

    n = len(node_ids)
    adjacency = np.zeros((n, n), dtype=np.uint8)
    adjacency[parents, children] = 1
    return PropagationTree(
        node_ids=tuple(node_ids),
        node_times=np.asarray(times, dtype=np.int64),
        depth=np.asarray(depth, dtype=np.int64),
        adjacency=adjacency,
        n_roots=len(targets),
        dropped_ids=tuple(rec.id for rec in remaining),
        tau_hours=tau_hours,
        t_h=t_h,
    )


def init_states(tree: PropagationTree, features: dict, early_amounts: dict) -> np.ndarray:
    """Stack [feature vector, early amount] rows in node order.

    Roots get 0 in the amount slot: their early performance is what the
    model is asked to produce, so it must not leak in.
    """
    rows = []
    for i, pid in enumerate(tree.node_ids):
        vec = features.get(pid)
        if vec is None:
            raise DataError(f"no feature vector for tree node {pid!r}")
        r = 0.0 if i < tree.n_roots else float(early_amounts[pid])
        rows.append(np.concatenate([np.asarray(vec, dtype=np.float64), [r]]))
    return np.stack(rows)


class PropagationResult(NamedTuple):
    roots: ad.Tensor
    states: ad.Tensor
    counts: np.ndarray


class GatedTreeUpdater:
    """Bottom-up gated state refresh over a propagation tree.

    Walks depths from the deepest parents toward the roots.  At each
    depth the nodes that have children (and, at depth 0, every root)
    absorb the sum of their children's current states through a gated
    cell; leaves are left untouched.  `propagate` returns the root
    states plus a per-node update count for auditing.
    """

    def __init__(self, width: int, rng, prefix="evolution.updater"):
        if width < 1:
            raise ValueError(f"state width must be >= 1, got {width}")
        self.width = width

        def gate(name):
            w = ad.Parameter(ad.glorot_uniform(rng, (width, width), width, width),
                             name=f"{prefix}.{name}.w")
            u = ad.Parameter(ad.glorot_uniform(rng, (width, width), width, width),
                             name=f"{prefix}.{name}.u")
            return w, u

        self.b_agg = ad.Parameter(np.zeros(width), name=f"{prefix}.b_agg")
        self.w_z, self.u_z = gate("update_gate")
        self.w_r, self.u_r = gate("reset_gate")
        self.w_c, self.u_c = gate("candidate")

    def parameters(self):
        return [self.b_agg, self.w_z, self.u_z, self.w_r, self.u_r, self.w_c, self.u_c]

    def _cell(self, agg, h):
        z = ad.sigmoid(ad.add(ad.matmul(agg, self.w_z), ad.matmul(h, self.u_z)))
        r = ad.sigmoid(ad.add(ad.matmul(agg, self.w_r), ad.matmul(h, self.u_r)))
        cand = ad.tanh(ad.add(ad.matmul(agg, self.w_c),
                              ad.matmul(ad.mul(r, h), self.u_c)))
        return ad.add(ad.sub(h, ad.mul(z, h)), ad.mul(z, cand))

    def propagate(self, tree: PropagationTree, states):
        if not isinstance(states, ad.Tensor):
            states = ad.Tensor(np.asarray(states, dtype=np.float64))
        if states.shape != (tree.n_nodes, self.width):
            raise ad.ShapeError(
                f"propagate expected states {(tree.n_nodes, self.width)}, got {states.shape}")

        h_all = states
        counts = np.zeros(tree.n_nodes, dtype=np.int64)
        updated = tree.adjacency.any(axis=1)
        updated[:tree.n_roots] = True  # a root updates even with no children
        # deepest possible parents sit one level above the deepest leaves
        for d in range(max(tree.max_depth, 1) - 1, -1, -1):
            rows = np.nonzero(updated & (tree.depth == d))[0]
            if not rows.size:
                continue
            child_sum = ad.Tensor(tree.adjacency[rows].astype(np.float64))
            agg = ad.add(ad.matmul(child_sum, h_all), self.b_agg)
            h_prev = ad.take_rows(h_all, rows)
            h_all = ad.row_update(h_all, rows, self._cell(agg, h_prev))
            counts[rows] += 1

        roots = ad.take_rows(h_all, np.arange(tree.n_roots))
        return PropagationResult(roots, h_all, counts)
