"""Market records, static-feature encoding, and the selections feeding both graph modules.

Timestamps are integer seconds since the epoch.  Period boundaries (days,
intra-day segments) are computed in a configurable fixed local offset from
UTC.  Monetary windows are half-open [lo, hi) unless stated otherwise.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

HOUR = 3600
DAY = 86400

# Intra-day segment start hours, chronological. Segment k spans
# [SEGMENT_STARTS[k], next start); the last segment ends at 24:00.
SEGMENT_STARTS = (0, 8, 12, 14, 17, 20)


class DataError(ValueError):
    """Malformed or inconsistent market data."""


@dataclass(frozen=True)
class ProjectRecord:
    """Static project attributes known before launch."""

    id: str
    published_time: int
    category: str
    creator_type: str
    currency: str
    duration_days: int
    goal: float
    text: str | None = None
    vec: tuple[float, ...] | None = None

    def __post_init__(self):
        if not self.id:
            raise DataError("project field 'id' is empty")
        if self.duration_days < 1:
            raise DataError(f"project {self.id}: field 'duration_days' must be a positive integer")
        if not (math.isfinite(self.goal) and self.goal > 0):
            raise DataError(f"project {self.id}: field 'goal' must be positive and finite")
        if self.vec is not None and any(not math.isfinite(v) for v in self.vec):
            raise DataError(f"project {self.id}: field 'vec' has non-finite entries")

    @property
    def end_time(self) -> int:
        return self.published_time + self.duration_days * DAY


@dataclass(frozen=True)
class InvestmentEvent:
    project_id: str
    timestamp: int
    amount: float

    def __post_init__(self):
        if not self.project_id:
            raise DataError("investment field 'project_id' is empty")
        if not (math.isfinite(self.amount) and self.amount > 0):
            raise DataError(f"investment in {self.project_id}: field 'amount' must be positive and finite")


class EventLog:
    """Per-project investment events, time-sorted, with prefix sums."""

    __slots__ = ("times", "amounts", "_prefix")

    def __init__(self, times=(), amounts=()):
        times = np.asarray(times, dtype=np.int64)
        amounts = np.asarray(amounts, dtype=np.float64)
        order = np.lexsort((amounts, times))
        self.times = times[order]
        self.amounts = amounts[order]
        self._prefix = np.concatenate([[0.0], np.cumsum(self.amounts)])

    def __len__(self) -> int:
        return self.times.size

    def total_between(self, lo: int, hi: int) -> float:
        """Sum of amounts with lo <= t < hi."""
        i = np.searchsorted(self.times, lo, side="left")
        j = np.searchsorted(self.times, hi, side="left")
        return float(self._prefix[j] - self._prefix[i])

    def totals_at(self, bounds) -> np.ndarray:
        """Window sums between consecutive ascending boundaries."""
        idx = np.searchsorted(self.times, np.asarray(bounds, dtype=np.int64), side="left")
        return np.diff(self._prefix[idx])

    def total_before(self, t: int) -> float:
        i = np.searchsorted(self.times, t, side="left")
        return float(self._prefix[i])


_EMPTY_LOG = EventLog()


class Market:
    """A project universe plus its per-project event logs."""

    def __init__(self, projects, events):
        self.projects = sorted(projects, key=lambda p: (p.published_time, p.id))
        self.by_id = {p.id: p for p in self.projects}
        if len(self.by_id) != len(self.projects):
            raise DataError("duplicate project ids")
        grouped: dict[str, list] = {}
        for ev in events:
            if ev.project_id not in self.by_id:
                raise DataError(f"investment references unknown project id {ev.project_id!r}")
            grouped.setdefault(ev.project_id, []).append(ev)
        self.logs = {
            pid: EventLog([e.timestamp for e in evs], [e.amount for e in evs])
            for pid, evs in grouped.items()
        }

    def log(self, project_id: str) -> EventLog:
        return self.logs.get(project_id, _EMPTY_LOG)

    @classmethod
    def from_files(cls, projects_path, investments_path) -> "Market":
        return cls(load_projects(projects_path), load_investments(investments_path))


def fundraising_target(project: ProjectRecord, log: EventLog, tau_hours: int) -> float:
    """log2(1 + funds in the first tau hours / goal)."""
    raised = log.total_between(project.published_time, project.published_time + tau_hours * HOUR)
    return float(np.log2(1.0 + raised / project.goal))


def hourly_series(log: EventLog, t_obs: int) -> np.ndarray:
    """24 hourly log2(1 + amount) values before t_obs, newest first.

    Entry k covers [t_obs - (k+1)h, t_obs - k*h); hours before the first
    event are zero by construction.
    """
    bounds = t_obs - HOUR * np.arange(24, -1, -1, dtype=np.int64)
    sums = log.totals_at(bounds)
    return np.log2(1.0 + sums[::-1])


def early_stage_amount(project: ProjectRecord, log: EventLog, tau_hours: int) -> float:
    """log2(1 + funds raised strictly before published_time + tau hours)."""
    raised = log.total_before(project.published_time + tau_hours * HOUR)
    return float(np.log2(1.0 + raised))


def prior_trend(project: ProjectRecord, log: EventLog, t_obs: int, bins: int = 6):
    """Achieved-progress trend in [0, 1] plus its one-hot bin.

    trend = clamp((raised_so_far / goal) / log2(days_funded + 1), 0, 1) with
    days_funded = ceil(elapsed days), at least 1.
    """
    if t_obs < project.published_time:
        raise DataError(f"project {project.id}: observation predates publication")
    raised = log.total_before(t_obs)
    elapsed = t_obs - project.published_time
    days = max(1, -(-elapsed // DAY))
    trend = (raised / project.goal) / math.log2(days + 1)
    trend = min(1.0, max(0.0, trend))
    onehot = np.zeros(bins)
    onehot[min(bins - 1, int(trend * bins))] = 1.0
    return trend, onehot


def running_set(projects, t: int) -> list:
    """Projects live at t: published_time <= t < published_time + duration."""
    out = [p for p in projects if p.published_time <= t < p.end_time]
    return sorted(out, key=lambda p: (p.published_time, p.id))


def observable_set(projects, t_ref: int, history_days: int, tau_hours: int) -> list:
    """Projects whose age at t_ref lies strictly inside (tau, tau * history_days) hours."""
    lo = tau_hours * HOUR
    hi = tau_hours * history_days * HOUR
    out = [p for p in projects if lo < t_ref - p.published_time < hi]
    return sorted(out, key=lambda p: (p.published_time, p.id))


def segment_index(hour: int) -> int:
    return bisect_right(SEGMENT_STARTS, hour) - 1


@dataclass(frozen=True)
class TargetSet:
    """Projects published in one (local day, intra-day segment) bucket."""

    day: int
    segment: int
    project_ids: tuple[str, ...]
    observation_time: int  # min published time over the bucket


def segment_target_sets(projects, tz_offset: int = 0) -> list[TargetSet]:
    """Partition projects into chronologically ordered target sets."""
    buckets: dict[tuple[int, int], list] = {}
    for p in sorted(projects, key=lambda q: (q.published_time, q.id)):
        local = p.published_time + tz_offset
        day = local // DAY
        hour = (local % DAY) // HOUR
        buckets.setdefault((day, segment_index(hour)), []).append(p)
    sets = []
    for (day, seg) in sorted(buckets):
        members = buckets[(day, seg)]
        sets.append(
            TargetSet(
                day=day,
                segment=seg,
                project_ids=tuple(p.id for p in members),
                observation_time=min(p.published_time for p in members),
            )
        )
    return sets


def hashed_text_embedding(text: str, dim: int = 50, seed: str = "gme-text-v1") -> np.ndarray:
    """Deterministic signed bag-of-tokens hash, L2-normalized when non-empty."""
    vec = np.zeros(dim)
    for token in re.findall(r"[a-z0-9]+", text.lower()):
        digest = hashlib.sha256(f"{seed}:{token}".encode("utf-8")).digest()
        index = (digest[0] | (digest[1] << 8)) % dim
        sign = 1.0 if digest[2] & 1 else -1.0
        vec[index] += sign
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec


@dataclass(frozen=True)
class EncoderConfig:
    """Static-feature layout: text block then one-hot blocks.

    Categorical vocabularies come from the training split; every block keeps
    one extra overflow slot so unseen values still encode.  Goal bins are
    half-open on log2(goal) with the first and last bins absorbing under- and
    overflow.
    """

    categories: tuple[str, ...]
    creator_types: tuple[str, ...]
    currencies: tuple[str, ...]
    goal_log2_edges: tuple[float, ...] = tuple(float(e) for e in range(7, 22))
    duration_day_edges: tuple[int, ...] = (16, 31, 46)
    text_mode: str = "hashed"
    text_dim: int = 50
    text_seed: str = "gme-text-v1"

    def __post_init__(self):
        if self.text_mode not in ("hashed", "precomputed"):
            raise DataError(f"unknown text mode {self.text_mode!r}")
        if list(self.goal_log2_edges) != sorted(set(self.goal_log2_edges)):
            raise DataError("goal bin edges must be strictly increasing")
        if list(self.duration_day_edges) != sorted(set(self.duration_day_edges)):
            raise DataError("duration bin edges must be strictly increasing")

    @classmethod
    def fit(cls, projects, text_mode: str = "hashed", **overrides) -> "EncoderConfig":
        return cls(
            categories=tuple(sorted({p.category for p in projects})),
            creator_types=tuple(sorted({p.creator_type for p in projects})),
            currencies=tuple(sorted({p.currency for p in projects})),
            text_mode=text_mode,
            **overrides,
        )

    @property
    def goal_bins(self) -> int:
        return len(self.goal_log2_edges) + 1

    @property
    def duration_bins(self) -> int:
        return len(self.duration_day_edges) + 1

    @property
    def feature_dim(self) -> int:
        return (
            self.text_dim
            + len(self.categories) + 1
            + len(self.creator_types) + 1
            + len(self.currencies) + 1
            + self.duration_bins
            + self.goal_bins
        )

    def _onehot(self, vocab: tuple, value: str) -> np.ndarray:
        block = np.zeros(len(vocab) + 1)
        try:
            block[vocab.index(value)] = 1.0
        except ValueError:
            block[len(vocab)] = 1.0  # overflow bucket
        return block

    def encode(self, project: ProjectRecord) -> np.ndarray:
        if self.text_mode == "precomputed":
            if project.vec is None:
                raise DataError(f"project {project.id}: field 'vec' required in precomputed text mode")
            if len(project.vec) != self.text_dim:
                raise DataError(f"project {project.id}: field 'vec' has length {len(project.vec)}, expected {self.text_dim}")
            text = np.asarray(project.vec, dtype=np.float64)
        else:
            text = hashed_text_embedding(project.text or "", self.text_dim, self.text_seed)
        duration = np.zeros(self.duration_bins)
        duration[bisect_right(self.duration_day_edges, project.duration_days)] = 1.0
        goal = np.zeros(self.goal_bins)
        goal[bisect_right(self.goal_log2_edges, math.log2(project.goal))] = 1.0
        return np.concatenate([
            text,
            self._onehot(self.categories, project.category),
            self._onehot(self.creator_types, project.creator_type),
            self._onehot(self.currencies, project.currency),
            duration,
            goal,
        ])

    def to_json(self) -> dict:
        return {
            "categories": list(self.categories),
            "creator_types": list(self.creator_types),
            "currencies": list(self.currencies),
            "goal_log2_edges": list(self.goal_log2_edges),
            "duration_day_edges": list(self.duration_day_edges),
            "text_mode": self.text_mode,
            "text_dim": self.text_dim,
            "text_seed": self.text_seed,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "EncoderConfig":
        return cls(
            categories=tuple(doc["categories"]),
            creator_types=tuple(doc["creator_types"]),
            currencies=tuple(doc["currencies"]),
            goal_log2_edges=tuple(doc["goal_log2_edges"]),
            duration_day_edges=tuple(doc["duration_day_edges"]),
            text_mode=doc["text_mode"],
            text_dim=doc["text_dim"],
            text_seed=doc["text_seed"],
        )


# Required JSONL fields: name -> (stored type, accepted JSON value types, description).
# Values are never coerced, and types compare exactly, so a JSON boolean is
# neither an integer nor a number.
_STRING = (str, (str,), "a string")
_INTEGER = (int, (int,), "an integer")
_NUMBER = (float, (int, float), "a number")
_PROJECT_FIELDS = {"id": _STRING, "published_time": _INTEGER, "category": _STRING,
                   "creator_type": _STRING, "currency": _STRING, "duration_days": _INTEGER,
                   "goal": _NUMBER}
_INVESTMENT_FIELDS = {"project_id": _STRING, "timestamp": _INTEGER, "amount": _NUMBER}
_MISSING = object()


def _typed_fields(doc, fields: dict, where: str) -> dict:
    """Required fields of one JSONL record, each checked against its JSON type."""
    if type(doc) is not dict:
        raise DataError(f"{where}: record is not a JSON object")
    out = {}
    for key, (stored, accepted, name) in fields.items():
        value = doc.get(key, _MISSING)
        if type(value) not in accepted:
            if value is _MISSING:
                raise DataError(f"{where}: missing field {key!r}")
            raise DataError(f"{where}: field {key!r} must be {name}, got {json.dumps(value)}")
        out[key] = stored(value)
    return out


def _project_from_doc(doc, where: str) -> ProjectRecord:
    fields = _typed_fields(doc, _PROJECT_FIELDS, where)
    if "text" not in doc and "vec" not in doc:
        raise DataError(f"{where}: needs a 'text' or 'vec' description field")
    text = doc.get("text")
    if text is not None and not isinstance(text, str):
        raise DataError(f"{where}: field 'text' must be a string or null, got {json.dumps(text)}")
    try:
        return ProjectRecord(
            **fields,
            text=text,
            vec=tuple(doc["vec"]) if doc.get("vec") is not None else None,
        )
    except (TypeError, ValueError) as exc:
        raise DataError(f"{where}: {exc}") from exc


def _jsonl_records(path):
    """(path:lineno, decoded record) for every non-blank line of a JSONL file."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                yield where, json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{where}: invalid JSON ({exc.msg})") from exc


def load_projects(path) -> list[ProjectRecord]:
    out = []
    first_seen = {}
    for where, doc in _jsonl_records(path):
        project = _project_from_doc(doc, where)
        if project.id in first_seen:
            raise DataError(f"{where}: duplicate project id {project.id!r} "
                            f"(first at {first_seen[project.id]})")
        first_seen[project.id] = where
        out.append(project)
    return out


def load_investments(path) -> list[InvestmentEvent]:
    out = []
    for where, doc in _jsonl_records(path):
        fields = _typed_fields(doc, _INVESTMENT_FIELDS, where)
        try:
            out.append(InvestmentEvent(**fields))
        except ValueError as exc:
            raise DataError(f"{where}: {exc}") from exc
    return out


def save_projects(path, projects) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in projects:
            doc = {
                "id": p.id,
                "published_time": p.published_time,
                "category": p.category,
                "creator_type": p.creator_type,
                "currency": p.currency,
                "duration_days": p.duration_days,
                "goal": p.goal,
            }
            if p.vec is not None:
                doc["vec"] = list(p.vec)
            else:
                doc["text"] = p.text or ""
            fh.write(json.dumps(doc, separators=(",", ":")) + "\n")


def save_investments(path, events) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in events:
            doc = {"project_id": e.project_id, "timestamp": e.timestamp, "amount": e.amount}
            fh.write(json.dumps(doc, separators=(",", ":")) + "\n")
