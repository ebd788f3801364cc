"""Market records, static-feature encoding, and the selections feeding both graph modules.

Timestamps are integer seconds since the epoch.  Period boundaries (days,
intra-day segments) are computed in a configurable fixed local offset from
UTC.  Monetary windows are half-open [lo, hi) unless stated otherwise.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import re
import sys
import typing
from bisect import bisect_right
from dataclasses import dataclass, fields

import numpy as np

HOUR = 3600
DAY = 86400
INT64_MIN, INT64_MAX = -2**63, 2**63 - 1  # times are held in int64 columns
SERIES_HOURS = 24  # length of a rival's hourly funding series
TREND_BINS = 6  # bins of a rival's achieved-progress trend
BLOCK = 1 << 20  # bytes of a JSONL file scanned, or whose lines are cut into columns, at a time

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
        check_fields(self, f"project {self.id}" if isinstance(self.id, str) and self.id else "project")
        if not self.id:
            raise DataError("project field 'id' is empty")
        if self.duration_days < 1:
            raise DataError(f"project {self.id}: field 'duration_days' must be a positive integer")
        if not self.goal > 0:
            raise DataError(f"project {self.id}: field 'goal' must be positive and finite")
        if self.end_time > INT64_MAX:
            raise DataError(f"project {self.id}: live window [{self.published_time}, "
                            f"{self.end_time}) does not fit in 64 bits")

    @property
    def end_time(self) -> int:
        return self.published_time + self.duration_days * DAY


@dataclass(frozen=True)
class InvestmentEvent:
    project_id: str
    timestamp: int
    amount: float

    def __post_init__(self):
        pid = self.project_id
        check_fields(self, f"investment in {pid}" if isinstance(pid, str) and pid else "investment")
        if not self.project_id:
            raise DataError("investment field 'project_id' is empty")
        if not self.amount > 0:
            raise DataError(f"investment in {self.project_id}: field 'amount' must be positive and finite")


_MISSING = object()


class _Kind(typing.NamedTuple):
    """What a JSON field may hold: its JSON types, the type it is stored as, a description,
    its entries' kind if it is an array, and its value when absent (`_MISSING`: refused)."""

    accepted: tuple
    stored: type
    name: str
    entry: _Kind | None = None
    absent: object = _MISSING


JSON_KINDS = {str: _Kind((str,), str, "a string"), int: _Kind((int,), int, "an integer"),
              float: _Kind((int, float), float, "a number")}  # by stored type


def _kind(hint) -> _Kind:
    """The kind of a field annotated `hint`: str, int, float, tuple[X, ...] or X | None."""
    args = typing.get_args(hint)
    if type(None) in args:  # null-able: null or absent
        kind = _kind(args[0])
        return kind._replace(name=f"null or {kind.name}", absent=None)
    if typing.get_origin(hint) is tuple:  # a JSON array, or the tuple a dataclass holds
        entry = _kind(args[0])
        return _Kind((list, tuple), tuple, f"an array, each entry {entry.name}", entry)
    return JSON_KINDS[hint]


@functools.cache
def _kinds(cls) -> dict:
    """Field name -> kind, for every field of dataclass `cls`, from its annotations."""
    return {name: _kind(hint) for name, hint in typing.get_type_hints(cls).items()}


def _arguments(doc, kinds: dict, where: str) -> dict:
    """The value of each field in `kinds` in one JSON object, an absent one as its kind's `absent`."""
    if type(doc) is not dict:
        raise DataError(f"{where}: record is not a JSON object")
    return {key: doc.get(key, kind.absent) for key, kind in kinds.items()}


def typed_fields(doc, kinds: dict, where: str) -> dict:
    """The fields of one JSON object, each checked against its kind in `kinds`.

    Types compare exactly and values are never coerced: a boolean is not a number.
    Integers must fit in int64, and numbers must be finite and within the float range."""
    return _store_typed(_arguments(doc, kinds, where), kinds, where)


def check_fields(obj, where: str) -> None:
    """Check each field of frozen dataclass `obj` as `typed_fields` checks a JSON value, and
    store it as its kind stores it: `obj` is built only if its JSON form loads."""
    _store_typed(vars(obj), _kinds(type(obj)), where)


def _store_typed(values: dict, kinds: dict, where: str) -> dict:
    """`values` with each field in `kinds` replaced by `_typed`'s form of it, in place."""
    for key, kind in kinds.items():
        if type(values[key]) is not str or kind.stored is not str:  # a string needs only its type checked
            values[key] = _typed(values[key], kind, key, where)
    return values


def _typed(value, kind: _Kind, key: str, where: str):
    """`value` as `kind` stores it, if it is of that kind.

    A numpy scalar counts as the Python value it holds; it is converted only on
    the way to a refusal, so a plain value costs nothing more."""
    accepted, stored, name, entry, absent = kind
    if type(value) not in accepted or (entry and not all(type(v) in entry.accepted for v in value)):
        if value is None and absent is None:  # a null-able kind
            return None
        if value is _MISSING:
            raise DataError(f"{where}: missing field {key!r}")
        if (plain := _plain(value)) is not value:
            return _typed(plain, kind, key, where)
        raise DataError(f"{where}: field {key!r} must be {name}, got {_shown(value)}")
    if entry:
        return tuple(_typed(v, entry, key, where) for v in value)
    if stored is int and not INT64_MIN <= value <= INT64_MAX:
        raise DataError(f"{where}: field {key!r} must fit in 64 bits, got {_shown(value)}")
    if stored is float:
        try:
            value = float(value)
        except OverflowError:  # an integer past the float range
            raise DataError(f"{where}: field {key!r} must fit in 64 bits, got {_shown(value)}") from None
        if not math.isfinite(value):
            raise DataError(f"{where}: field {key!r} must be finite, got {value}")
    return value


def _plain(value):
    """A numpy scalar, or a list or tuple holding one, with each as the Python value it holds."""
    if isinstance(value, np.generic):
        return value.item()
    if type(value) in (list, tuple) and any(isinstance(v, np.generic) for v in value):
        return [v.item() if isinstance(v, np.generic) else v for v in value]
    return value


def _shown(value) -> str:
    """`value` as JSON writes it, or its type where JSON cannot write it."""
    try:
        return json.dumps(value)
    except (TypeError, ValueError, RecursionError):  # not JSON, too many digits, nested too deep
        return f"a value of type {type(value).__name__}"


def config_from_json(cls, doc):
    """Config dataclass `cls` from `config_json` output: every field, which the
    constructor checks (see `check_fields`), and no other key."""
    values = _arguments(doc, _kinds(cls), cls.__name__)
    if doc.keys() - values:
        raise DataError(f"{cls.__name__}: unknown config keys: {sorted(doc.keys() - values)}")
    return cls(**values)


def config_json(obj) -> dict:
    """A dataclass as a JSON object: its fields by name, a tuple as an array."""
    return {f.name: list(v) if type(v := getattr(obj, f.name)) is tuple else v for f in fields(obj)}


class _Events(typing.NamedTuple):
    """An event table as columns, in input order: event k is in project ``ids[codes[k]]``.

    Events read from a file carry that file's ``path`` and each event's line,
    so a refusal can name ``path:lineno``.
    """

    ids: list
    codes: np.ndarray
    times: np.ndarray
    amounts: np.ndarray
    path: object = None
    lines: np.ndarray | None = None

    @classmethod
    def of(cls, events) -> "_Events":
        index, m = {}, len(events)
        codes = np.fromiter((index.setdefault(e.project_id, len(index)) for e in events), np.int64, m)
        return cls(list(index), codes, np.fromiter((e.timestamp for e in events), np.int64, m),
                   np.fromiter((e.amount for e in events), np.float64, m))

    def at(self, k: int) -> str:
        """The prefix that locates a refusal of event k: ``path:lineno: `` or nothing."""
        return "" if self.lines is None else f"{self.path}:{self.lines[k]}: "


class EventLog:
    """One project's investment events, time-sorted: a view into the market's event table."""

    __slots__ = ("times", "amounts")

    def __init__(self, times: np.ndarray, amounts: np.ndarray):
        self.times = times
        self.amounts = amounts

    def __len__(self) -> int:
        return self.times.size


class Market:
    """A project table and an event table.

    Projects are rows sorted by (published_time, id); ``row`` maps an id to
    its row, and ``published``, ``ends`` and ``goals`` are the columns the
    selections and formulas read.  ``categories`` holds one int code per
    row, equal for two rows exactly when their category strings are.
    Events are grouped by row and sorted by time within each row (amount
    breaks ties).  Each row's running totals start from 0, so a window
    total is the difference of two of them.
    Every event must fall inside its project's live window
    [published_time, end_time), and each project's pledges must sum to a
    finite float.
    """

    def __init__(self, projects, events):
        """`events`: `InvestmentEvent` records, or an event table as `_Events` columns."""
        if not isinstance(events, _Events):
            events = _Events.of(events)
        ordered = sorted(projects, key=lambda p: (p.published_time, p.id))
        n = len(ordered)
        self.projects = np.empty(n, dtype=object)
        self.projects[:] = ordered
        self.row = {p.id: i for i, p in enumerate(ordered)}
        if len(self.row) != n:
            # row keeps each id's last row, so a repeated id's earlier row disagrees
            pid = next(p.id for i, p in enumerate(ordered) if self.row[p.id] != i)
            raise DataError(f"duplicate project id {pid!r}")
        self.published = np.fromiter((p.published_time for p in ordered), np.int64, n)
        self.ends = np.fromiter((p.end_time for p in ordered), np.int64, n)
        self.goals = np.fromiter((p.goal for p in ordered), np.float64, n)
        # a dict, not np.unique: numpy's fixed-width strings drop trailing NULs
        codes = {}
        self.categories = np.fromiter((codes.setdefault(p.category, len(codes)) for p in ordered),
                                      np.intp, n)

        rows = np.array([self.row.get(pid, -1) for pid in events.ids], np.int64)[events.codes]
        times, amounts = events.times, events.amounts
        if np.any(rows < 0):
            k = int(np.argmax(rows < 0))
            raise DataError(f"{events.at(k)}investment references unknown project id "
                            f"{events.ids[events.codes[k]]!r}")
        outside = (times < self.published[rows]) | (times >= self.ends[rows])
        if np.any(outside):
            k = int(np.argmax(outside))
            raise DataError(
                f"{events.at(k)}investment in {events.ids[events.codes[k]]!r} at {times[k]} lies "
                f"outside its live window [{self.published[rows[k]]}, {self.ends[rows[k]]})")

        order = np.lexsort((amounts, times, rows))
        rows, self._times, self._amounts = rows[order], times[order], amounts[order]
        # Row r owns events [starts[r], starts[r + 1]) and running totals
        # [starts[r] + r, starts[r + 1] + r] of _prefix, the first being 0.
        # Each row sums on its own (one cumsum per row, once per market), so
        # its totals carry the bits of that row's own sequential sum.
        self._starts = np.searchsorted(rows, np.arange(n + 1))
        self._prefix = np.zeros(times.size + n)
        with np.errstate(over="ignore"):  # a total past the float range is refused below
            for r in np.flatnonzero(np.diff(self._starts)):
                lo, hi = self._starts[r], self._starts[r + 1]
                self._prefix[lo + r + 1:hi + r + 1] = np.cumsum(self._amounts[lo:hi])
        # Pledges are positive, so a row's totals are finite if its last one is.
        overflow = np.isinf(self._prefix[self._starts[1:] + np.arange(n)])
        if np.any(overflow):
            raise DataError(f"investments in {ordered[int(np.argmax(overflow))].id!r} "
                            f"sum past the float range")
        # One sorted (row, time) key: every time a query needs lies in [t0, t0 + span).
        self._t0 = int(self.published[0]) if n else 0
        self._span = int(self.ends.max()) - self._t0 + 1 if n else 1
        if self._span * max(n, 1) >= 2 ** 62:
            raise DataError("market spans too long a time to index its events")
        self._keys = rows * self._span + (self._times - self._t0)

    def log(self, project_id: str) -> EventLog:
        r = self.row[project_id]
        lo, hi = self._starts[r], self._starts[r + 1]
        return EventLog(self._times[lo:hi], self._amounts[lo:hi])

    def raised_before(self, rows, t) -> np.ndarray:
        """Funds each row raised strictly before t; rows and t broadcast together."""
        rows = np.asarray(rows, dtype=np.int64)
        return self._prefix[self._first_at(rows, t) + rows]

    def _first_at(self, rows, t) -> np.ndarray:
        """Where each row's first event at or after t sits in the event table (int64 `rows`;
        rows and t broadcast).  Row r's running total before t is then ``_prefix[that + r]``."""
        t = np.minimum(np.maximum(t, self._t0), self._t0 + self._span - 1)  # np.clip costs 3-4x more
        return np.searchsorted(self._keys, rows * self._span + (t - self._t0), side="left")

    @classmethod
    def from_files(cls, projects_path, investments_path) -> "Market":
        return cls(load_projects(projects_path), _read_investments(investments_path))


def fundraising_target(market: Market, rows, tau_hours: int) -> np.ndarray:
    """log2(1 + funds in the first tau hours / goal), one entry per row.

    No pledge precedes a launch, so the funds raised before the end of the
    first tau hours are the funds raised in them.
    """
    raised = market.raised_before(rows, market.published[rows] + tau_hours * HOUR)
    return np.log2(1.0 + raised / market.goals[rows])


def early_stage_amount(market: Market, rows, tau_hours: int) -> np.ndarray:
    """log2(1 + funds in the first tau hours), one entry per row."""
    return np.log2(1.0 + market.raised_before(rows, market.published[rows] + tau_hours * HOUR))


def hourly_series(market: Market, rows, t_obs: int) -> np.ndarray:
    """SERIES_HOURS hourly log2(1 + amount) values before t_obs per row, newest first.

    Entry k covers [t_obs - (k+1)h, t_obs - k*h); hours before a row's
    first event are zero by construction.  Two searches find each row's
    events in the window; counting them by hour gives where every inner
    hour bound falls, so each bound reads the running total that a search
    for it would.
    """
    rows = np.asarray(rows, dtype=np.int64)
    start = t_obs - SERIES_HOURS * HOUR
    first, stop = market._first_at(rows[:, None], [start, t_obs]).T
    counts = stop - first
    before = np.cumsum(counts) - counts  # window events of the rows before each row
    owner = np.repeat(np.arange(rows.size), counts)  # the window's events, row by row
    at = np.arange(owner.size) + np.repeat(first - before, counts)
    # An event in hour h from the window's start counts toward bound k (newest
    # first, k in [0, SERIES_HOURS]) when h >= SERIES_HOURS - k: its cell is
    # (owner, SERIES_HOURS - h), and a running count over the row-major cells
    # adds the events of earlier rows, which `before` takes out again.
    cells = owner * (SERIES_HOURS + 1) + (SERIES_HOURS - (market._times[at] - start) // HOUR)
    newer = np.bincount(cells, minlength=rows.size * (SERIES_HOURS + 1)).cumsum()
    index = (stop + before + rows)[:, None] - newer.reshape(rows.size, SERIES_HOURS + 1)
    totals = market._prefix[index]  # running totals at the bounds, newest first
    series = totals[:, :-1] - totals[:, 1:]
    series += 1.0
    return np.log2(series, out=series)


def prior_trend(market: Market, rows, t_obs: int):
    """Achieved-progress trend in [0, 1] per row, plus its uint8 bin index.

    trend = clamp((raised_so_far / goal) / log2(days_funded + 1), 0, 1) with
    days_funded = ceil(elapsed days), at least 1.  Bin k of `TREND_BINS` holds
    trends in [k / TREND_BINS, (k + 1) / TREND_BINS), and the last bin holds 1 as well.
    """
    elapsed = t_obs - market.published[rows]
    if np.any(elapsed < 0):
        pid = market.projects[rows[int(np.argmax(elapsed < 0))]].id
        raise DataError(f"project {pid}: observation predates publication")
    days = np.maximum(1, -(-elapsed // DAY))
    trend = (market.raised_before(rows, t_obs) / market.goals[rows]) / np.log2(days + 1)
    trend = np.minimum(np.maximum(trend, 0.0), 1.0)  # not NaN: goals are positive, the divisor >= 1
    index = np.minimum(TREND_BINS - 1, (trend * TREND_BINS).astype(np.int64))
    return trend, index.astype(np.uint8)


def running_set(market: Market, t: int) -> np.ndarray:
    """Rows live at t: published_time <= t < end_time."""
    return np.flatnonzero((market.published <= t) & (t < market.ends))


def observable_set(market: Market, t_ref: int, history_days: int, tau_hours: int) -> np.ndarray:
    """Rows whose age at t_ref lies strictly inside (tau, tau * history_days) hours."""
    age = t_ref - market.published
    return np.flatnonzero((tau_hours * HOUR < age) & (age < tau_hours * history_days * HOUR))


@dataclass(frozen=True)
class TargetSet:
    """The projects published in one (local day, intra-day segment) bucket:
    market rows `rows`, one run of the market's (published_time, id) order."""

    day: int
    segment: int
    rows: range
    observation_time: int  # min published time over the bucket


def segment_target_sets(market: Market, tz_offset: int = 0) -> list[TargetSet]:
    """Partition the market's rows into chronologically ordered target sets.

    A bucket never decreases with launch time, so each is one run of rows.
    The offset is split into whole days and seconds before it is added, so
    no offset that fits in int64 makes a local time wrap.
    """
    offset_days, offset_seconds = divmod(tz_offset, DAY)
    seconds = market.published % DAY + offset_seconds  # in [0, 2 days)
    days = market.published // DAY + seconds // DAY + offset_days
    segments = np.searchsorted(SEGMENT_STARTS, seconds % DAY // HOUR, side="right") - 1
    changed = (np.diff(days) != 0) | (np.diff(segments) != 0)
    bounds = [0, *(np.flatnonzero(changed) + 1).tolist(), days.size] if days.size else []
    return [TargetSet(day=days.item(lo), segment=segments.item(lo), rows=range(lo, hi),
                      observation_time=market.published.item(lo))
            for lo, hi in zip(bounds, bounds[1:])]


def _token_slot(token: str, dim: int) -> tuple[int, float]:
    """(column, sign) of one text token in a hashed text block `dim` wide."""
    digest = hashlib.sha256(f"gme-text-v1:{token}".encode("utf-8")).digest()
    return (digest[0] | (digest[1] << 8)) % dim, 1.0 if digest[2] & 1 else -1.0


# (EncoderConfig field, ProjectRecord field) of each vocabulary block, in column order.
VOCABULARY_BLOCKS = (("categories", "category"), ("creator_types", "creator_type"),
                     ("currencies", "currency"))


@dataclass(frozen=True)
class EncoderConfig:
    """Static-feature layout: the text block, one one-hot block per vocabulary of
    `VOCABULARY_BLOCKS`, then the duration bins and the goal bins.

    Vocabularies come from the training split; each block keeps one extra
    overflow slot so unseen values still encode, and a value listed twice
    takes its first slot.  Duration and goal bins are half-open on
    duration_days and log2(goal), with the first and last bins absorbing
    under- and overflow.  The text block is either the hashed `text` or the
    precomputed `vec` of each project, and every project must carry the
    form in use.
    """

    categories: tuple[str, ...]
    creator_types: tuple[str, ...]
    currencies: tuple[str, ...]
    goal_log2_edges: tuple[float, ...] = tuple(float(e) for e in range(7, 22))
    duration_day_edges: tuple[int, ...] = (16, 31, 46)
    text_mode: str = "hashed"
    text_dim: int = 50

    def __post_init__(self):
        check_fields(self, "EncoderConfig")
        if self.text_mode not in ("hashed", "precomputed"):
            raise DataError(f"unknown text mode {self.text_mode!r}")
        if self.text_dim < (1 if self.text_mode == "hashed" else 0):
            raise DataError(f"text_dim {self.text_dim} is too small for {self.text_mode} text")
        if list(self.goal_log2_edges) != sorted(set(self.goal_log2_edges)):
            raise DataError("goal bin edges must be strictly increasing")
        if list(self.duration_day_edges) != sorted(set(self.duration_day_edges)):
            raise DataError("duration bin edges must be strictly increasing")

    @classmethod
    def fit(cls, projects, **overrides) -> "EncoderConfig":
        """Vocabularies from `projects`; the text block is their precomputed `vec`
        (as wide as the first) when any carries one, and their hashed `text` otherwise."""
        vec = next((p.vec for p in projects if p.vec is not None), None)
        text = {} if vec is None else {"text_mode": "precomputed", "text_dim": len(vec)}
        vocabularies = {vocab: tuple(sorted({getattr(p, field) for p in projects}))
                        for vocab, field in VOCABULARY_BLOCKS}
        return cls(**vocabularies, **{**text, **overrides})

    @property
    def goal_bins(self) -> int:
        return len(self.goal_log2_edges) + 1

    @property
    def duration_bins(self) -> int:
        return len(self.duration_day_edges) + 1

    @property
    def feature_dim(self) -> int:
        return self.text_dim + sum(width for width, _ in self._one_hot_slots(()))

    def _one_hot_slots(self, projects):
        """(width, each project's slot) of every block after the text block, in column order."""
        for vocab, field in VOCABULARY_BLOCKS:
            values = getattr(self, vocab)
            first = {value: slot for slot, value in reversed(list(enumerate(values)))}
            yield len(values) + 1, [first.get(getattr(p, field), len(values)) for p in projects]
        yield self.duration_bins, [bisect_right(self.duration_day_edges, p.duration_days)
                                   for p in projects]
        yield self.goal_bins, [bisect_right(self.goal_log2_edges, math.log2(p.goal))
                               for p in projects]

    def encode(self, projects) -> np.ndarray:
        """The (len(projects), feature_dim) static-feature matrix, one row per project.

        Hashed text is a signed bag of tokens: each distinct token is hashed
        once, its sign added at its column of each row that holds it, and a
        non-empty row divided by its L2 norm.  Until then the entries are
        integers, so each row's sum of squares is exact.
        """
        features = np.zeros((len(projects), self.feature_dim))
        hashed = {}  # token -> (column, sign): each distinct token is hashed once
        for row, project in zip(features, projects):
            text = self._text(project)
            if self.text_mode == "precomputed":
                row[:self.text_dim] = text
                continue
            for token in re.findall(r"[a-z0-9]+", text.lower()):
                if token not in hashed:
                    hashed[token] = _token_slot(token, self.text_dim)
                column, sign = hashed[token]
                row[column] += sign
        if self.text_mode == "hashed":
            text = features[:, :self.text_dim]
            norms = np.sqrt(np.einsum("ij,ij->i", text, text))[:, None]
            np.divide(text, norms, out=text, where=norms > 0)
        rows, at = np.arange(len(projects)), self.text_dim
        for width, slots in self._one_hot_slots(projects):
            features[rows, at + np.asarray(slots, dtype=np.intp)] = 1.0
            at += width
        return features

    def _text(self, project: ProjectRecord):
        """One project's `vec` or hashed text (None as ""), refused if it lacks the form in use."""
        if self.text_mode == "precomputed":
            if project.vec is None:
                raise DataError(f"project {project.id}: field 'vec' required in precomputed text mode")
            if len(project.vec) != self.text_dim:
                raise DataError(f"project {project.id}: field 'vec' has length {len(project.vec)}, expected {self.text_dim}")
            return project.vec
        if project.text is None and project.vec is not None:
            raise DataError(f"project {project.id}: field 'text' required in hashed text mode "
                            f"(the project carries only 'vec')")
        return project.text or ""

    to_json = config_json
    from_json = classmethod(config_from_json)


def _project_from_doc(doc, where: str) -> ProjectRecord:
    values = _arguments(doc, _kinds(ProjectRecord), where)
    try:
        project = ProjectRecord(**values)
    except DataError as exc:
        raise DataError(f"{where}: {exc}") from exc
    if "text" not in doc and "vec" not in doc:
        raise DataError(f"{where}: needs a 'text' or 'vec' description field")
    return project


def _line_bounds(raw) -> tuple[np.ndarray, np.ndarray]:
    """(starts, ends): line k of a JSONL file is raw[starts[k]:ends[k]], its line end left out.

    Lines are split as text mode's line iterator splits them: at LF, CR LF or a
    lone CR only, so a U+2028 or a form feed inside a line does not end it.  The
    last line runs to the end of the file (it is empty if the file ends a line).
    Line ends are found `BLOCK` bytes at a time, so no mask the size of the file is made.
    """
    buf = np.frombuffer(raw, np.uint8)
    has_cr = raw.find(b"\r") >= 0
    starts, ends = [np.zeros(1, np.int64)], []
    for b in range(0, buf.size, BLOCK):
        block = buf[b:b + BLOCK]
        at, step = np.flatnonzero(block == ord("\n")) + b, 1
        if has_cr:  # a CR LF ends one line, at its CR
            at = np.union1d(np.flatnonzero(block == ord("\r")) + b,
                            at[buf[np.maximum(at - 1, 0)] != ord("\r")])
            step = 1 + ((buf[at] == ord("\r")) & (buf[np.minimum(at + 1, buf.size - 1)] == ord("\n")))
        starts.append(at + step)
        ends.append(at)
    ends.append(np.array([len(raw)], np.int64))
    return np.concatenate(starts), np.concatenate(ends)


def _decode_line(where: str, line: bytes):
    """The JSON value on one line, or None if it is blank.

    The line comes with the first byte of its line end, LF or CR: json reads
    either as it reads the LF that text mode gives (whitespace outside a
    string, a control character inside one).
    """
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{where}: not UTF-8 text ({exc.reason})") from exc
    if not text.strip():
        return None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{where}: invalid JSON ({exc.msg})") from exc
    except ValueError as exc:  # an integer literal longer than int() converts (Python 3.10.7+)
        raise DataError(f"{where}: invalid JSON (an integer of more than "
                        f"{sys.get_int_max_str_digits()} digits)") from exc
    except RecursionError as exc:
        raise DataError(f"{where}: invalid JSON (nested too deeply)") from exc


def _jsonl_records(path):
    """(path:lineno, decoded record) for every non-blank line of a JSONL file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    starts, ends = _line_bounds(raw)
    for lineno, (start, end) in enumerate(zip(starts.tolist(), ends.tolist()), start=1):
        where = f"{path}:{lineno}"
        doc = _decode_line(where, raw[start:end + 1])
        if doc is not None:
            yield where, doc


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


# One investment as `save_investments` writes it: no spaces, keys in order, an
# id of at most 64 printable ASCII bytes without quote or backslash, a
# timestamp of at most 18 digits (so always within int64) and an amount of
# at most 72 characters.  Everything after the id is free of colons, so a
# line's last two colons open its timestamp and its amount.
_COMPACT_EVENT = (rb'\{"project_id":"[ !#-\[\]-\x7f]{0,64}","timestamp":-?(?:0|[1-9][0-9]{0,17}),'
                  rb'"amount":-?(?:0|[1-9][0-9]{0,31})(?:\.[0-9]{1,32})?(?:[eE][-+]?[0-9]{1,4})?\}')
# A run of at most 256 such lines: a bounded repeat keeps the regular
# expression engine's backtracking stack small (an unbounded `*` holds one
# entry per line matched, over 200 MB on a 250,000-line file).
_COMPACT_RUN = re.compile(rb"(?:" + _COMPACT_EVENT + rb"(?:\n|\r\n?|\Z)){0,256}")


def _spans(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The byte strings buf[lo[k]:hi[k]] as one fixed-width bytes array."""
    width = max(int((hi - lo).max(initial=0)), 1)
    out = np.empty((lo.size, width), np.uint8)
    for j in range(width):  # a byte position at a time, so no index matrix is built
        out[:, j] = buf[np.minimum(lo + j, buf.size - 1)]
    out[np.arange(width) >= (hi - lo)[:, None]] = 0
    return out.view(f"S{width}").ravel()


def _read_investments(path) -> _Events:
    """Every investment in a JSONL file as event columns, refused as a line-by-line reader would.

    `_COMPACT_RUN` finds the runs of lines in `save_investments`' layout, and
    those are cut into columns a block at a time; each other line (blank, spaced,
    reordered, escaped or malformed) is decoded on its own.  The first
    refusal in file order is raised, naming ``path:lineno``.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    buf = np.frombuffer(raw, np.uint8)
    starts, ends = _line_bounds(raw)
    compact = ends > starts
    others, records, failure = [], {}, None  # records: line index -> fields of a record in another layout
    pos = i = 0  # line i starts at byte pos
    while pos < len(raw):
        if (run_end := _COMPACT_RUN.match(raw, pos).end()) > pos:
            pos, i = run_end, int(starts.searchsorted(run_end))
            continue
        others.append(i)
        where = f"{path}:{i + 1}"
        try:
            doc = _decode_line(where, raw[pos:ends.item(i) + 1])
            if doc is not None:
                records[i] = typed_fields(doc, _kinds(InvestmentEvent), where)
        except DataError as exc:
            failure, compact[i:] = exc, False  # later lines are not read
            break
        pos, i = starts.item(i + 1) if i + 1 < starts.size else len(raw), i + 1
    compact[others] = False

    # One slot per line; the compact lines that start in each block of `BLOCK`
    # bytes are cut into their slots together, so no column spans the file.
    (code_at, time_at), amount_at = np.zeros((2, ends.size), np.int64), np.zeros(ends.size)
    index = {}
    for b in range(0, buf.size, BLOCK):
        lo, hi = starts.searchsorted([b, b + BLOCK])
        lines = lo + np.flatnonzero(compact[lo:hi])
        if lines.size == 0:
            continue
        first = starts.item(lines[0])
        colons = np.flatnonzero(buf[first:ends.item(lines[-1])] == ord(":")) + first
        last = np.searchsorted(colons, ends[lines]) - 1
        at_time, at_amount = colons[last - 1], colons[last]
        ids = _spans(buf, starts[lines] + len('{"project_id":"'), at_time - len('","timestamp"'))
        names, codes = np.unique(ids, return_inverse=True)
        code_at[lines] = np.array([index.setdefault(name.decode("ascii"), len(index))
                                   for name in names.tolist()], np.int64)[codes]
        time_at[lines] = _spans(buf, at_time + 1, at_amount - len(',"amount"')).astype(np.int64)
        amount_at[lines] = _spans(buf, at_amount + 1, ends[lines] - 1).astype(np.float64)
    del raw, buf  # free the file's bytes before the tables are built
    at = np.fromiter(records, np.int64, len(records))
    code_at[at] = [index.setdefault(fields["project_id"], len(index)) for fields in records.values()]
    time_at[at] = [fields["timestamp"] for fields in records.values()]
    amount_at[at] = [fields["amount"] for fields in records.values()]
    compact[at] = True
    events = _Events(list(index), code_at[compact], time_at[compact], amount_at[compact], path,
                     np.flatnonzero(compact) + 1)

    bad = (events.codes == index.get("", -1)) | ~((events.amounts > 0) & (events.amounts < np.inf))
    if np.any(bad):
        k = int(np.argmax(bad))
        pid = events.ids[events.codes[k]]
        raise DataError(f"{events.at(k)}investment field 'project_id' is empty" if not pid else
                        f"{events.at(k)}investment in {pid}: field 'amount' must be positive and finite")
    if failure is not None:
        raise failure
    return events


def save_projects(path, projects) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in projects:
            # a None `vec` is left out, and so is a None `text` beside a `vec`
            drop = "vec" if p.vec is None else "text" if p.text is None else None
            doc = {key: value for key, value in config_json(p).items() if key != drop}
            fh.write(json.dumps(doc, separators=(",", ":")) + "\n")


def save_investments(path, market: Market) -> int:
    """Write a market's event table, one investment a line in `_COMPACT_EVENT`'s layout, by
    project row and in time order within it; returns the number of lines written."""
    ids = [json.dumps(p.id) for p in market.projects]
    rows = np.repeat(np.arange(len(ids)), np.diff(market._starts)).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f'{{"project_id":{ids[r]},"timestamp":{t},"amount":{a!r}}}\n'
                      for r, t, a in zip(rows, market._times.tolist(), market._amounts.tolist()))
    return len(rows)
