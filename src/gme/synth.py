"""Synthetic crowdfunding markets with a controllable competition effect.

The generator plants exactly the structure the model claims to exploit:

* a per-day, per-category preference field that drifts as a bounded
  random walk, so a project's intake depends on *when* it launches;
* a crowding divisor 1 + kappa * mass / mean_mass, where mass is the
  summed attractiveness of everything running that day, so intake drops
  when the market is busy;
* a per-project latent attractiveness no static feature reveals.

Daily intake for project p on day g (age = g - launch day):

    mu = budget * attract_p * pref[g, cat_p] * (1 + age)^(-DECAY_SHAPE)
         / (1 + kappa * mass_g / mean_mass)

With noise = 0 each running day emits 6 evenly spaced events of exactly
mu / 6, so doubling the budget doubles every amount bit-for-bit.  With
noise > 0 the count is Poisson(6) and amounts get a mean-one log-normal
factor.  All draws come from one sequential generator in a fixed order,
so equal configs give byte-identical markets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import DAY, Market, ProjectRecord, _Events, check_fields, config_json

EVENTS_PER_DAY = 6
HORIZON_PAD_DAYS = 3
DECAY_SHAPE = 1.2  # power-law decay of daily intake with age
ATTRACT_SIGMA = 0.2  # log-normal spread of the latent attractiveness
PREF_BOUND = 1.5  # bound of each category's log-preference walk
LAUNCH_BURST = 0.8  # step spread of the launch schedule's log-weight walk
CATEGORIES = ("art", "games", "food", "tech")
CREATOR_TYPES = ("individual", "company")
GOALS = (1000.0, 2000.0, 3000.0, 5000.0)
DURATIONS = (7, 10, 14, 21)
CURRENCY = "USD"
START_TIME = 1_700_000_000 - (1_700_000_000 % DAY)


@dataclass(frozen=True)
class SynthConfig:
    n_projects: int = 800
    days: int = 60
    seed: int = 0
    kappa: float = 0.6
    noise: float = 0.0
    budget: float = 2500.0
    pref_drift: float = 0.5

    def __post_init__(self):
        check_fields(self, "SynthConfig")
        if self.n_projects < 1 or self.days < 2:
            raise ValueError("need n_projects >= 1 and days >= 2")
        if self.kappa < 0 or self.noise < 0:
            raise ValueError("kappa and noise must be non-negative")
        if self.noise * self.noise == float("inf"):  # noise ** 2 would raise OverflowError
            raise ValueError(f"{self} has a noise whose square is past the float range")
        if self.budget <= 0:
            raise ValueError("budget must be positive")

    to_json = config_json


def generate_market(config: SynthConfig):
    """Build (market, trace).  The trace records the latent fields."""
    rng = np.random.default_rng(config.seed)
    n_cats = len(CATEGORIES)
    horizon = config.days + HORIZON_PAD_DAYS

    # 1. bursty launch schedule: log-normal random walk over days
    walk = np.cumsum(rng.normal(0.0, LAUNCH_BURST, config.days))
    weights = np.exp(walk - walk.max())
    counts = rng.multinomial(config.n_projects, weights / weights.sum())

    # 2. static project attributes, in launch-day order
    projects = []
    launch_day = []
    attractiveness = []
    serial = 0
    for day, count in enumerate(counts):
        for _ in range(count):
            second = int(rng.integers(0, DAY))
            cat = CATEGORIES[int(rng.integers(0, n_cats))]
            creator = CREATOR_TYPES[int(rng.integers(0, len(CREATOR_TYPES)))]
            goal = float(rng.choice(GOALS))
            duration = int(rng.choice(DURATIONS))
            attract = float(np.exp(rng.normal(0.0, ATTRACT_SIGMA)))
            pid = f"s{serial:04d}"
            projects.append(ProjectRecord(
                id=pid,
                published_time=START_TIME + day * DAY + second,
                category=cat,
                creator_type=creator,
                currency=CURRENCY,
                duration_days=duration,
                goal=goal,
                text=f"synthetic {cat} campaign {serial}",
            ))
            launch_day.append(day)
            attractiveness.append(attract)
            serial += 1

    # 3. drifting category preferences, one bounded walk per category
    steps = rng.normal(0.0, config.pref_drift, (horizon, n_cats))
    logw = np.clip(np.cumsum(steps, axis=0), -PREF_BOUND, PREF_BOUND)
    expw = np.exp(logw)
    pref = expw / expw.sum(axis=1, keepdims=True)

    # 4. crowding from the launch schedule alone
    mass = np.zeros(horizon)
    for idx, p in enumerate(projects):
        d1 = min(launch_day[idx] + p.duration_days, horizon)
        mass[launch_day[idx]:d1] += attractiveness[idx]
    mean_mass = float(mass.mean()) or 1.0
    with np.errstate(over="ignore"):  # a kappa that overflows here draws pledges of 0.0, refused below
        divisor = 1.0 + config.kappa * mass / mean_mass

    cat_index = {c: i for i, c in enumerate(CATEGORIES)}

    # 5. events, project by project, day by day, gathered as columns
    codes, times, amounts = [], [], []
    for idx, p in enumerate(projects):
        d0 = launch_day[idx]
        d1 = min(d0 + p.duration_days, horizon)
        for day in range(d0, d1):
            mu = (config.budget * attractiveness[idx] * pref[day, cat_index[p.category]]
                  * (1.0 + (day - d0)) ** (-DECAY_SHAPE) / divisor[day])
            lo = max(p.published_time, START_TIME + day * DAY)
            hi = START_TIME + (day + 1) * DAY
            base_amount = mu / EVENTS_PER_DAY
            if config.noise == 0.0:
                times.append(lo + (2 * np.arange(EVENTS_PER_DAY) + 1) * (hi - lo)
                             // (2 * EVENTS_PER_DAY))
                amounts.append(np.full(EVENTS_PER_DAY, base_amount))
            else:
                n_ev = int(rng.poisson(EVENTS_PER_DAY))
                amounts.append(base_amount * rng.lognormal(-config.noise ** 2 / 2.0, config.noise, n_ev))
                times.append(rng.integers(lo, hi, n_ev))
            codes.append(np.full(times[-1].size, idx))
    events = _Events([p.id for p in projects], *map(np.concatenate, (codes, times, amounts)))
    if not np.all(np.isfinite(events.amounts) & (events.amounts > 0)):  # its files would not load
        raise ValueError(f"{config} draws a pledge that is not positive and finite")

    trace = {
        "config": config.to_json(),
        "projects": [
            {"id": p.id, "attractiveness": attractiveness[i], "launch_day": launch_day[i]}
            for i, p in enumerate(projects)
        ],
        "days": [
            {"day": d, "mass": float(mass[d]), "divisor": float(divisor[d]),
             "preferences": {c: float(pref[d, i]) for i, c in enumerate(CATEGORIES)}}
            for d in range(horizon)
        ],
    }
    return Market(projects, events), trace


def write_trace(path, trace: dict) -> None:
    """One JSON line per latent record, prefixed by a config line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"kind": "config", **trace["config"]},
                            separators=(",", ":")) + "\n")
        for row in trace["projects"]:
            fh.write(json.dumps({"kind": "project", **row}, separators=(",", ":")) + "\n")
        for row in trace["days"]:
            fh.write(json.dumps({"kind": "day", **row}, separators=(",", ":")) + "\n")
