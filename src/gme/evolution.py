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
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .data import HOUR


@dataclass(frozen=True)
class PropagationTree:
    """Static structure of one grown tree. Roots occupy indices [0, n_roots).

    ``edges`` is a (2, n_edges) int32 array of (parent, child) node
    numbers, one column per edge in attachment order: by child, then by
    parent.  Nodes are numbered in attachment order, so depth never
    decreases with the node number and child numbers always exceed their
    parents'.  Node i is the project in market row ``rows[i]`` (int32);
    ``dropped_ids`` are the ids of the candidates that found no parent.
    """

    node_times: np.ndarray
    depth: np.ndarray
    edges: np.ndarray
    n_roots: int
    dropped_ids: tuple
    rows: np.ndarray

    @property
    def n_nodes(self):
        return self.depth.size

    @property
    def max_depth(self):
        return int(self.depth.max()) if self.depth.size else 0

    @property
    def adjacency(self) -> np.ndarray:
        """The dense (n, n) uint8 form of the edges, built on each call:
        ``adjacency[p, c] == 1`` when node c hangs under node p."""
        adjacency = np.zeros((self.n_nodes, self.n_nodes), dtype=np.uint8)
        adjacency[self.edges[0], self.edges[1]] = 1
        return adjacency


def build_propagation_tree(targets, observables, t_h: int, tau_hours: int, *,
                           market) -> PropagationTree:
    """Grow a tree rooted at the `targets` rows from the `observables` rows of `market`.

    Runs t_h attachment iterations over candidates in row order, which is
    (published_time, id) order, whatever order they are given in.  A
    candidate c may attach to a node p when tau < T_p - T_c < 2*tau
    (strict, in hours).  That test reads launch times only, so a candidate
    left when iteration k begins fitted no node older than iteration k-1:
    it can fit only the frontier, the nodes attached in iteration k-1 (the
    roots when k = 1), and nodes attached in one sweep never parent each
    other.  In the frontier's (launch time, node number) order, c's fits
    are one run.  Iteration 1 attaches c to every root in it; later ones
    to its first node, the smallest gap and on a tie the lowest node number.
    """
    if not len(targets):
        raise ValueError("tree needs at least one root")
    if t_h < 1:
        raise ValueError(f"t_h must be >= 1, got {t_h}")
    if tau_hours <= 0:
        raise ValueError(f"tau_hours must be positive, got {tau_hours}")

    nodes = np.asarray(targets, dtype=np.intp)  # market rows, in attachment order
    remaining = np.sort(np.asarray(observables, dtype=np.intp))
    if np.unique(np.concatenate([nodes, remaining])).size != nodes.size + remaining.size:
        raise ValueError("a project is given twice in the tree input")
    times = market.published
    tau_s = tau_hours * HOUR

    depth = np.zeros(nodes.size, dtype=np.int64)
    edges = np.zeros((2, 0), dtype=np.int64)  # (parent, child) node numbers
    frontier = np.argsort(times[nodes], kind="stable")  # node numbers in (time, node) order
    for k in range(1, t_h + 1):
        if not remaining.size:
            break
        # c fits the frontier's run [lo, hi): T_c + tau + 1 <= T_p < T_c + 2*tau, in int64 seconds
        lo, hi = np.searchsorted(times[nodes[frontier]], times[remaining] + [[tau_s + 1], [2 * tau_s]])
        attached = lo < hi
        level = nodes.size + np.arange(np.count_nonzero(attached))  # node numbers of the new nodes
        if k == 1:  # every root in the run, listed by node number
            runs = (hi - lo)[attached]
            child = np.repeat(level, runs)
            parent = frontier[np.arange(child.size) + np.repeat(lo[attached] + runs - np.cumsum(runs), runs)]
            parent = parent[np.lexsort((parent, child))]
        else:
            parent, child = frontier[lo[attached]], level
        frontier = level  # remaining is in row order, so this is (time, node) order already
        edges = np.concatenate([edges, [parent, child]], axis=1)
        nodes = np.concatenate([nodes, remaining[attached]])
        depth = np.concatenate([depth, np.full(frontier.size, k, dtype=np.int64)])
        remaining = remaining[~attached]

    return PropagationTree(
        node_times=times[nodes],
        depth=depth,
        edges=edges.astype(np.int32),
        n_roots=len(targets),
        dropped_ids=tuple(p.id for p in market.projects[remaining]),
        rows=nodes.astype(np.int32),
    )


def init_states(tree: PropagationTree, early_amounts: np.ndarray) -> np.ndarray:
    """The per-node early-amount column, in node order, with the roots' set to 0.

    Roots are the projects the model is asked about, so their early
    performance must not leak in.
    """
    amounts = np.array(early_amounts, dtype=np.float64)
    amounts[:tree.n_roots] = 0.0
    return amounts


class PropagationResult(NamedTuple):
    states: ad.Tensor
    counts: np.ndarray


class GatedTreeUpdater:
    """Bottom-up gated state refresh over a propagation tree.

    Walks depths from the deepest parents toward the roots.  At each
    depth the nodes that have children (and, at depth 0, every root)
    absorb the sum of their children's current states through a gated
    cell; leaves are left untouched.  The whole walk is one
    `autodiff.tree_gru` node.  `propagate` returns all states, the roots'
    first, and a per-node update count for auditing.
    """

    def __init__(self, width: int, rng):
        if width < 1:
            raise ValueError(f"state width must be >= 1, got {width}")

        def gate(name):
            w = ad.Parameter(ad.glorot_uniform(rng, (width, width)), name=f"evolution.updater.{name}.w")
            u = ad.Parameter(ad.glorot_uniform(rng, (width, width)), name=f"evolution.updater.{name}.u")
            return w, u

        self.b_agg = ad.Parameter(np.zeros(width), name="evolution.updater.b_agg")
        self.w_z, self.u_z = gate("update_gate")
        self.w_r, self.u_r = gate("reset_gate")
        self.w_c, self.u_c = gate("candidate")

    def parameters(self):
        return [self.b_agg, self.w_z, self.u_z, self.w_r, self.u_r, self.w_c, self.u_c]

    def propagate(self, tree: PropagationTree, states):
        return PropagationResult(*ad.tree_gru(states, tree.edges, tree.depth, self.b_agg, [
            (self.w_z, self.u_z), (self.w_r, self.u_r), (self.w_c, self.u_c)]))
