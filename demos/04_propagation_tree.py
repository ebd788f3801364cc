"""Propagation trees: gap-window parent selection and gated roll-up.

Grows a tree from one launch cohort over earlier projects, prints its
layers and edges, then runs the bottom-up gated update and shows that
leaves are read but never rewritten.
"""

import numpy as np

from gme import autodiff as ad
from gme.data import ProjectRecord
from gme.evolution import GatedTreeUpdater, build_propagation_tree

HOUR = 3600
T0 = 1_700_000_000


def project(pid, hours_before):
    return ProjectRecord(id=pid, published_time=T0 - hours_before * HOUR,
                         category="art", creator_type="individual",
                         currency="USD", duration_days=30, goal=500.0,
                         text=pid)

targets = [project("g", 0)]
# gaps fall in (24h, 48h) per hop; o_far sits outside every window and drops
observables = [project("a", 30), project("b", 40), project("c", 66),
               project("d", 95), project("o_far", 300)]

tree = build_propagation_tree(targets, observables, t_h=4, tau_hours=24)
print(f"tree: {tree.n_nodes} nodes, {int(tree.adjacency.sum())} edges, "
      f"max depth {tree.max_depth}, dropped {list(tree.dropped_ids)}")
for d in range(tree.max_depth + 1):
    ids = [tree.node_ids[i] for i in np.nonzero(tree.depth == d)[0]]
    print(f"  depth {d}: {ids}")
for parent, child in np.argwhere(tree.adjacency):
    gap = tree.node_times[parent] - tree.node_times[child]
    print(f"  edge {tree.node_ids[parent]} <- {tree.node_ids[child]} "
          f"(gap {gap / HOUR:.0f}h)")

# --- gated roll-up ----------------------------------------------------------
width = 6
rng = np.random.default_rng(0)
states = rng.normal(0, 1, (tree.n_nodes, width))
updater = GatedTreeUpdater(width, np.random.default_rng(1))
result = updater.propagate(tree, ad.Tensor(states.copy()))

print(f"\nroot summary shape {result.roots.shape}")
for i, pid in enumerate(tree.node_ids):
    moved = float(np.max(np.abs(result.states.data[i] - states[i])))
    print(f"  {pid}: updates {int(result.counts[i])}, state moved {moved:.3f}")
leaf = tree.node_ids.index("d")
assert result.counts[leaf] == 0 and np.allclose(result.states.data[leaf], states[leaf])
print("leaf 'd' state is bit-identical after propagation")
