"""Rival selection and attention pooling over the competitiveness graph.

Builds one launch cohort against a field of running rivals, compares the
four pruning modes, then pools rival states with content-scored attention
and prints each target's weight distribution.
"""

import numpy as np

from gme import autodiff as ad
from gme import competition as comp
from gme.data import Market, ProjectRecord

DAY = 86400
T0 = 1_700_000_000


def project(pid, age_days, cat, goal=1000.0):
    return ProjectRecord(id=pid, published_time=T0 - int(age_days * DAY),
                         category=cat, creator_type="individual",
                         currency="USD", duration_days=30, goal=goal,
                         text=f"{cat} project {pid}")

targets = [project("t.game", 0, "games"), project("t.art", 0, "art")]
rivals = [project(f"r{i}", age, cat) for i, (age, cat) in enumerate([
    (0.5, "games"), (1.2, "games"), (2.5, "art"), (2.9, "tech"),
    (4.0, "games"), (5.5, "art"), (7.0, "food"), (8.0, "games"),
])]
market = Market(targets + rivals, [])
target_rows = [market.row[p.id] for p in targets]
rival_rows = [market.row[p.id] for p in rivals]

print("edges kept per pruning mode (2 targets x 8 rivals):")
graphs = {}
for mode in comp.PRUNING_MODES:
    graphs[mode] = comp.build_competitiveness_graph(target_rows, rival_rows, mode, market=market)
    print(f"  {mode:8s} {int(graphs[mode].adjacency.sum()):3d}")

union = graphs["cate"].adjacency | graphs["jf"].adjacency
assert np.array_equal(union, graphs["cate-jf"].adjacency)
print("cate-jf equals the union of cate and jf edges")

# --- attention over the pruned neighborhood --------------------------------
rng = np.random.default_rng(3)
feat = 10
xt = rng.normal(0, 1, (len(targets), feat))
xr = rng.normal(0, 1, (len(rivals), feat))
states = ad.Tensor(rng.normal(0, 1, (len(rivals), 8)))

attn = comp.AttentionAggregator(feat, 8, np.random.default_rng(4))
pooled, weights = attn.forward(graphs["cate-jf"], xt, xr, states)
print(f"\npooled rival context: shape {pooled.shape}")
for row, t in enumerate(targets):
    cols = np.nonzero(graphs["cate-jf"].adjacency[row])[0]
    pairs = ", ".join(f"{rivals[c].id}={weights[row, c]:.3f}" for c in cols)
    print(f"  {t.id}: sum {weights[row].sum():.6f} over [{pairs}]")
