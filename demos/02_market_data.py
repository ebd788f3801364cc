"""Market data layer: project and event tables, truth targets, segmentation, features.

Starts from hand-built records to show the queries, then segments a
generated market into launch-window target sets and encodes features.
"""

import numpy as np

from gme import data as gd
from gme.synth import SynthConfig, generate_market

HOUR = 3600
T0 = 1_600_000_000

projects = [
    gd.ProjectRecord(id="p1", published_time=T0, category="games",
                     creator_type="individual", currency="USD",
                     duration_days=30, goal=2000.0, text="a co-op card game"),
    gd.ProjectRecord(id="p2", published_time=T0 - 40 * HOUR, category="art",
                     creator_type="organization", currency="USD",
                     duration_days=14, goal=800.0, text="screen prints"),
]
events = [
    gd.InvestmentEvent("p1", T0 + 2 * HOUR, 25.0),
    gd.InvestmentEvent("p1", T0 + 20 * HOUR, 60.0),
    gd.InvestmentEvent("p1", T0 + 30 * HOUR, 10.0),
    gd.InvestmentEvent("p2", T0 - 10 * HOUR, 40.0),
]
market = gd.Market(projects, events)  # rows sorted by launch: p2 is row 0, p1 row 1

log = market.log("p1")
p1 = market.row["p1"]
first_day = np.diff(market.raised_before(p1, [T0, T0 + 24 * HOUR]))[0]
print(f"p1 events: {len(log)}, first day total {first_day:.0f}")
truths = gd.fundraising_target(market, [0, 1], tau_hours=24)
print(f"24h truths (log2 of 1 + funds/goal), one per row: {np.round(truths, 3).tolist()}")

series = gd.hourly_series(market, [market.row["p2"]], T0)[0]
print(f"p2 hourly intake before t0 (log2 scale): {series.size} buckets, "
      f"nonzero at {np.nonzero(series)[0].tolist()}")

try:
    gd.Market(projects, [gd.InvestmentEvent("p1", T0 - 5, 50.0)])
except gd.DataError as exc:
    print(f"a pledge before launch is refused: {exc}")

# --- segmentation of a generated market -----------------------------------
synth, _ = generate_market(SynthConfig(n_projects=80, days=10, seed=12))
sets = gd.segment_target_sets(synth)  # each set is one run of the market's rows
print(f"\ngenerated market: {len(synth.projects)} projects, "
      f"{len(sets)} target sets")
for ts in sets[:4]:
    print(f"  day {ts.day} segment {ts.segment}: {len(ts.rows)} targets in rows "
          f"[{ts.rows.start}, {ts.rows.stop}), "
          f"observed at {ts.observation_time}")

encoder = gd.EncoderConfig.fit(synth.projects)
vec = encoder.encode(synth.projects[:1])[0]
print(f"\nencoder: {encoder.feature_dim} features per project "
      f"({len(encoder.categories)} categories, {encoder.goal_bins} goal bins, "
      f"text dim {encoder.text_dim})")
print(f"first project encodes to norm {np.linalg.norm(vec):.3f}, "
      f"{np.count_nonzero(vec)} nonzero entries")
