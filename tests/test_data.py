"""Data-layer tests: targets, series, trend bins, selections, segmentation, encoding, IO."""

import json
import re
import tracemalloc
from dataclasses import asdict, astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from gme import autodiff as ad
from gme import cli
from gme import data as d
from gme.model import TrainConfig


def make_project(pid="p0", t=1_000_000, cat="art", creator="individual", cur="USD",
                 dur=30, goal=100.0, text="a small art project"):
    return d.ProjectRecord(
        id=pid, published_time=t, category=cat, creator_type=creator,
        currency=cur, duration_days=dur, goal=goal, text=text,
    )


def market_of(pairs, project=None):
    """A one-project market holding (timestamp, amount) pledges; the project is row 0."""
    project = project or make_project()
    return d.Market([project], [d.InvestmentEvent(project.id, t, a) for t, a in pairs])


def series_of(pairs, t_obs):
    return d.hourly_series(market_of(pairs, make_project(t=t_obs - 2 * d.DAY)), [0], t_obs)[0]


class TestFundraisingTarget:
    def test_zero_raised(self):
        p = make_project(goal=50.0)
        assert d.fundraising_target(market_of([], p), [0], 24)[0] == 0.0

    def test_alpha_equals_goal(self):
        p = make_project(goal=80.0)
        market = market_of([(p.published_time + 100, 80.0)], p)
        assert d.fundraising_target(market, [0], 24)[0] == pytest.approx(1.0, abs=1e-12)

    def test_alpha_three_times_goal(self):
        p = make_project(goal=10.0)
        market = market_of([(p.published_time + 5, 30.0)], p)
        assert d.fundraising_target(market, [0], 24)[0] == pytest.approx(2.0, abs=1e-12)

    def test_window_is_half_open(self):
        p = make_project(goal=10.0)
        inside = p.published_time + 24 * d.HOUR - 1
        boundary = p.published_time + 24 * d.HOUR
        market = market_of([(inside, 10.0), (boundary, 999.0)], p)
        assert d.fundraising_target(market, [0], 24)[0] == pytest.approx(1.0, abs=1e-12)


class TestHourlySeries:
    def test_single_event_lands_in_newest_slot(self):
        t_obs = 500_000
        series = series_of([(t_obs - 30 * 60, 7.0)], t_obs)
        assert series[0] == pytest.approx(3.0, abs=1e-12)  # log2(1+7)
        assert np.count_nonzero(series) == 1

    def test_empty_log_is_all_zero(self):
        assert np.array_equal(series_of([], 500_000), np.zeros(24))

    def test_two_events_same_window_sum_before_log(self):
        t_obs = 500_000
        lo = t_obs - 5 * d.HOUR  # window k=4 spans [t-5h, t-4h)
        series = series_of([(lo, 1.0), (lo + 10, 2.0)], t_obs)
        assert series[4] == pytest.approx(2.0, abs=1e-12)  # log2(1+3)

    def test_matches_bruteforce_window_sums(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            t_obs = int(rng.integers(10**6, 10**7))
            n = int(rng.integers(0, 40))
            times = rng.integers(t_obs - 30 * d.HOUR, t_obs + 2 * d.HOUR, n)
            amounts = rng.uniform(0.5, 50.0, n)
            got = series_of(list(zip(times.tolist(), amounts.tolist())), t_obs)
            want = np.zeros(24)
            for k in range(24):
                lo, hi = t_obs - (k + 1) * d.HOUR, t_obs - k * d.HOUR
                total = sum(a for t, a in zip(times, amounts) if lo <= t < hi)
                want[k] = np.log2(1.0 + total)
            np.testing.assert_allclose(got, want, atol=1e-9)


class TestEarlyStageAmount:
    def test_simple_value(self):
        p = make_project()
        market = market_of([(p.published_time + 60, 7.0)], p)
        assert d.early_stage_amount(market, [0], 24)[0] == pytest.approx(3.0, abs=1e-12)

    def test_no_events(self):
        assert d.early_stage_amount(market_of([]), [0], 24)[0] == 0.0

    def test_boundary_event_excluded(self):
        p = make_project()
        edge = p.published_time + 24 * d.HOUR
        market = market_of([(edge - 1, 1.0), (edge, 100.0)], p)
        assert d.early_stage_amount(market, [0], 24)[0] == pytest.approx(1.0, abs=1e-12)


def trend_of(p, pairs, t_obs):
    trend, index = d.prior_trend(market_of(pairs, p), [0], t_obs)
    return trend[0], index[0]


class TestPriorTrend:
    def test_half_progress_first_day(self):
        p = make_project(goal=100.0)
        t_obs = p.published_time + 12 * d.HOUR
        trend, _ = trend_of(p, [(p.published_time + 1, 50.0)], t_obs)
        assert trend == pytest.approx(0.5, abs=1e-12)  # log2(1+1) = 1

    def test_clamped_to_unit_interval(self):
        p = make_project(goal=1.0)
        t_obs = p.published_time + 2 * d.HOUR
        trend, index = trend_of(p, [(p.published_time + 1, 1000.0)], t_obs)
        assert trend == 1.0
        assert index == 5  # the last of six bins holds 1.0 too

    def test_bin_with_six_bins(self):
        p = make_project(goal=100.0)
        t_obs = p.published_time + 6 * d.HOUR
        _, index = trend_of(p, [(p.published_time + 1, 10.0)], t_obs)
        assert index == 0

    def test_days_funded_rounds_up(self):
        p = make_project(goal=100.0)
        t_obs = p.published_time + d.DAY + 1  # just over one day -> 2 funded days
        trend, _ = trend_of(p, [(p.published_time, 100.0)], t_obs)
        assert trend == pytest.approx(1.0 / np.log2(3.0), abs=1e-12)


def ids_at(market, rows):
    return [market.projects[r].id for r in rows]


class TestSelections:
    def test_running_set_boundaries(self):
        base = 1_000_000
        market = d.Market([make_project(pid="a", t=base, dur=2)], [])
        assert ids_at(market, d.running_set(market, base)) == ["a"]
        assert ids_at(market, d.running_set(market, base + 2 * d.DAY - 1)) == ["a"]
        assert ids_at(market, d.running_set(market, base + 2 * d.DAY)) == []
        assert ids_at(market, d.running_set(market, base - 1)) == []

    def test_observable_window_strict(self):
        base = 10_000_000
        tau = 24
        gap_lo = make_project(pid="lo", t=base - tau * d.HOUR)          # gap == tau: out
        inside = make_project(pid="mid", t=base - 2 * tau * d.HOUR)     # gap == 2 tau: in for t_h=3
        gap_hi = make_project(pid="hi", t=base - 3 * tau * d.HOUR)      # gap == tau*t_h: out
        market = d.Market([gap_lo, inside, gap_hi], [])
        got = d.observable_set(market, base, history_days=3, tau_hours=tau)
        assert ids_at(market, got) == ["mid"]

    def test_against_bruteforce_scan(self):
        rng = np.random.default_rng(77)
        for trial in range(400):
            n = int(rng.integers(1, 40))
            base = int(rng.integers(10**6, 10**8))
            projects = [
                make_project(
                    pid=f"p{trial}_{i}",
                    t=base + int(rng.integers(-12 * d.DAY, 2 * d.DAY)),
                    dur=int(rng.integers(1, 40)),
                )
                for i in range(n)
            ]
            market = d.Market(projects, [])
            t_ref = base
            t_h = int(rng.integers(1, 8))
            tau = int(rng.choice([24, 48]))
            run = set(ids_at(market, d.running_set(market, t_ref)))
            obs = set(ids_at(market, d.observable_set(market, t_ref, t_h, tau)))
            run_brute = {p.id for p in projects
                         if p.published_time <= t_ref < p.published_time + p.duration_days * d.DAY}
            obs_brute = {p.id for p in projects
                         if tau * d.HOUR < t_ref - p.published_time < tau * t_h * d.HOUR}
            assert run == run_brute
            assert obs == obs_brute


def set_ids(market, ts):
    return tuple(p.id for p in market.projects[ts.rows.start:ts.rows.stop])


def bucketed(projects, tz_offset):
    """(day, segment, rows, observation_time) per target set, one record at a time."""
    ordered = sorted(projects, key=lambda p: (p.published_time, p.id))
    sets = []
    for row, p in enumerate(ordered):
        local = p.published_time + tz_offset  # a Python int: never wraps
        key = (local // d.DAY, oracles.segment_index(local % d.DAY // d.HOUR))
        if sets and sets[-1][:2] == key:
            sets[-1][2].append(row)
        else:
            sets.append((*key, [row], p.published_time))
    return [(day, seg, range(rows[0], rows[-1] + 1), t) for day, seg, rows, t in sets]


class TestSegmentation:
    def test_same_morning_segment_grouped(self):
        day0 = 0
        p1 = make_project(pid="a", t=day0 + 9 * d.HOUR)
        p2 = make_project(pid="b", t=day0 + 11 * d.HOUR + 30 * 60)
        p3 = make_project(pid="c", t=day0 + 13 * d.HOUR)
        market = d.Market([p1, p2, p3], [])
        sets = d.segment_target_sets(market)
        assert len(sets) == 2
        assert sets[0].rows == range(0, 2) and set_ids(market, sets[0]) == ("a", "b")
        assert sets[0].observation_time == p1.published_time
        assert sets[1].rows == range(2, 3) and set_ids(market, sets[1]) == ("c",)

    def test_night_segment_precedes_morning(self):
        p_night = make_project(pid="n", t=3 * d.HOUR)
        p_morning = make_project(pid="m", t=9 * d.HOUR)
        market = d.Market([p_morning, p_night], [])
        sets = d.segment_target_sets(market)
        assert [set_ids(market, s) for s in sets] == [("n",), ("m",)]

    def test_partition_covers_each_project_once(self):
        rng = np.random.default_rng(13)
        projects = [
            make_project(pid=f"p{i}", t=int(rng.integers(0, 40 * d.DAY)))
            for i in range(300)
        ]
        market = d.Market(projects, [])
        sets = d.segment_target_sets(market, tz_offset=int(rng.integers(0, 12)) * d.HOUR)
        assert [r for s in sets for r in s.rows] == list(range(len(projects)))
        keys = [(s.day, s.segment) for s in sets]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        assert all(s.rows for s in sets)
        assert d.segment_target_sets(d.Market([], [])) == []

    @pytest.mark.parametrize("offset", ["zero", "hours", 2**62, -2**63, 2**63 - 1])
    def test_columns_match_per_record_bucketing(self, offset):
        """TrainConfig admits any int64 offset: the columnar local time must not wrap."""
        rng = np.random.default_rng(31)
        stamps = rng.integers(-5 * d.DAY, 60 * d.DAY, size=400)
        stamps[1::7] = stamps[::7][:stamps[1::7].size]  # launch-time ties, ordered by id
        stamps[2::11] = stamps[2::11] // d.HOUR * d.HOUR  # on segment and day edges
        projects = [make_project(pid=f"p{i:03d}", t=int(t)) for i, t in enumerate(stamps)]
        tz_offset = {"zero": 0, "hours": int(rng.integers(-48, 48)) * d.HOUR}.get(offset, offset)
        TrainConfig(tz_offset=tz_offset)
        sets = d.segment_target_sets(d.Market(projects, []), tz_offset)
        got = [(s.day, s.segment, s.rows, s.observation_time) for s in sets]
        assert got == bucketed(projects, tz_offset)
        assert all(type(v) is int for s in sets for v in (s.day, s.segment, s.observation_time))

    def test_segment_boundaries(self):
        # one project a day, so each is its own target set
        hours = {0: 0, 7: 0, 8: 1, 11: 1, 12: 2, 14: 3, 17: 4, 20: 5, 23: 5}
        projects = [make_project(pid=f"p{day}", t=day * d.DAY + hour * d.HOUR)
                    for day, hour in enumerate(hours)]
        sets = d.segment_target_sets(d.Market(projects, []))
        assert [s.segment for s in sets] == list(hours.values())


class TestEncoder:
    def fit(self, **kw):
        projects = [
            make_project(pid="x", cat="art", creator="individual", cur="USD"),
            make_project(pid="y", cat="games", creator="organization", cur="EUR"),
        ]
        return d.EncoderConfig.fit(projects, **kw), projects

    def test_feature_dim_and_block_sums(self):
        enc, projects = self.fit()
        assert enc.encode([]).shape == (0, enc.feature_dim)
        vec = enc.encode(projects[:1])[0]
        assert vec.shape == (enc.feature_dim,)
        at = enc.text_dim
        for block in (len(enc.categories) + 1, len(enc.creator_types) + 1,
                      len(enc.currencies) + 1, enc.duration_bins, enc.goal_bins):
            assert vec[at:at + block].sum() == 1.0
            at += block

    def test_goal_exact_lower_edge_of_bin_three(self):
        enc, _ = self.fit()
        p = make_project(goal=2.0 ** enc.goal_log2_edges[2])  # lower edge of bin 3
        vec = enc.encode([p])[0]
        goal_block = vec[-enc.goal_bins:]
        assert goal_block[3] == 1.0

    def test_goal_overflow_and_underflow(self):
        enc, _ = self.fit()
        assert enc.encode([make_project(goal=2.0 ** 25)])[0][-enc.goal_bins:][-1] == 1.0
        assert enc.encode([make_project(goal=4.0)])[0][-enc.goal_bins:][0] == 1.0

    def test_duration_sixty_days_tops_out(self):
        enc, _ = self.fit()
        vec = enc.encode([make_project(dur=60)])[0]
        dur_block = vec[-(enc.duration_bins + enc.goal_bins):-enc.goal_bins]
        assert dur_block[-1] == 1.0
        vec15 = enc.encode([make_project(dur=15)])[0]
        assert vec15[-(enc.duration_bins + enc.goal_bins):-enc.goal_bins][0] == 1.0

    def test_unseen_category_goes_to_overflow(self):
        enc, _ = self.fit()
        vec = enc.encode([make_project(cat="never-seen")])[0]
        cat_block = vec[enc.text_dim:enc.text_dim + len(enc.categories) + 1]
        assert cat_block[-1] == 1.0

    def test_identical_projects_encode_identically(self):
        enc, _ = self.fit()
        a = enc.encode([make_project(pid="a")])[0]
        b = enc.encode([make_project(pid="b")])[0]
        assert np.array_equal(a, b)

    def test_precomputed_mode_uses_vec(self):
        enc, _ = self.fit(text_mode="precomputed")
        vec50 = tuple(np.linspace(-1, 1, 50))
        p = d.ProjectRecord(id="v", published_time=0, category="art", creator_type="individual",
                            currency="USD", duration_days=10, goal=100.0, vec=vec50)
        out = enc.encode([p])[0]
        np.testing.assert_array_equal(out[:50], vec50)
        with pytest.raises(d.DataError, match="vec"):
            enc.encode([make_project()])[0]

    def test_config_roundtrip(self):
        enc, projects = self.fit()
        clone = d.EncoderConfig.from_json(enc.to_json())
        assert np.array_equal(clone.encode(projects), enc.encode(projects))

    @pytest.mark.parametrize("field, value", [("text_dim", 2**63), ("duration_day_edges", (16, 2**63))])
    def test_integers_outside_int64_are_refused(self, field, value):
        """An encoder is built only if its `encoder.json` would load again."""
        with pytest.raises(d.DataError, match=f"EncoderConfig: field '{field}' must fit in 64 bits"):
            self.fit(**{field: value})


# A few bytes: line ends, CR LF pairs, colons and compact runs then straddle blocks.
TINY_BLOCK = 7


@pytest.fixture(params=["default", "tiny"])
def block(request, monkeypatch):
    """Loaders run at the default `data.BLOCK` and at `TINY_BLOCK`, where every line
    of a file spans blocks.  Tests take it through `usefixtures`: hypothesis refuses a
    function-scoped fixture only as an argument."""
    if request.param == "tiny":
        monkeypatch.setattr(d, "BLOCK", TINY_BLOCK)


@pytest.mark.usefixtures("block")
class TestIO:
    def test_roundtrip(self, tmp_path):
        projects = [make_project(pid="a", t=100), make_project(pid="b", t=200, goal=5000.0)]
        events = [d.InvestmentEvent("a", 150, 10.0), d.InvestmentEvent("b", 260, 2.5)]
        pp, ip = tmp_path / "projects.jsonl", tmp_path / "investments.jsonl"
        d.save_projects(pp, projects)
        d.save_investments(ip, d.Market(projects, events))
        market = d.Market.from_files(pp, ip)
        assert [p.id for p in market.projects] == ["a", "b"]
        assert market.raised_before([market.row["a"]], 10**9)[0] == 10.0

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "projects.jsonl"
        path.write_text('{"id":"a","published_time":1,"category":"c","creator_type":"i","currency":"USD","duration_days":3,"goal":10.0,"text":""}\nnot json\n')
        with pytest.raises(d.DataError, match=r":2"):
            d.load_projects(path)
        path.write_text('5\n')
        with pytest.raises(d.DataError, match=r":1: record is not a JSON object"):
            d.load_projects(path)

    def test_missing_field_is_named(self, tmp_path):
        path = tmp_path / "projects.jsonl"
        path.write_text('{"id":"a","published_time":1,"category":"c","creator_type":"i","currency":"USD","duration_days":3,"text":""}\n')
        with pytest.raises(d.DataError, match="goal"):
            d.load_projects(path)

    def test_bad_amount_is_named(self, tmp_path):
        path = tmp_path / "inv.jsonl"
        path.write_text('{"project_id":"a","timestamp":5,"amount":-3.0}\n')
        with pytest.raises(d.DataError, match="amount"):
            d._read_investments(path)

    PROJECT_LINE = {"id": "a", "published_time": 1, "category": "c", "creator_type": "i",
                    "currency": "USD", "duration_days": 3, "goal": 10.0, "text": ""}
    EVENT_LINE = {"project_id": "a", "timestamp": 5, "amount": 3.0}

    @pytest.mark.parametrize("loader, field, value", [
        ("projects", "published_time", 1.9),
        ("projects", "duration_days", 7.8),
        ("projects", "category", None),
        ("projects", "creator_type", True),
        ("investments", "timestamp", True),
        ("investments", "amount", "5"),
        ("projects", "vec", [True, False, 0.5]),
        ("projects", "vec", "abc"),
    ])
    def test_field_types_are_enforced_not_coerced(self, tmp_path, loader, field, value):
        base = self.PROJECT_LINE if loader == "projects" else self.EVENT_LINE
        path = tmp_path / f"{loader}.jsonl"
        path.write_text(json.dumps(base) + "\n" + json.dumps({**base, field: value}) + "\n")
        load, owner = (d.load_projects, "project a: ") if loader == "projects" else (d._read_investments, "")
        with pytest.raises(d.DataError, match=re.escape(f"{path}:2: {owner}field '{field}' must be")):
            load(path)

    @pytest.mark.parametrize("loader, field, value", [
        ("projects", "published_time", 10**20),
        ("projects", "duration_days", -2**63 - 1),
        ("investments", "timestamp", 2**63),
    ])
    def test_integers_outside_int64_are_refused(self, tmp_path, loader, field, value):
        base = self.PROJECT_LINE if loader == "projects" else self.EVENT_LINE
        path = tmp_path / f"{loader}.jsonl"
        path.write_text(json.dumps(base) + "\n" + json.dumps({**base, field: value}) + "\n")
        load, owner = (d.load_projects, "project a: ") if loader == "projects" else (d._read_investments, "")
        with pytest.raises(d.DataError, match=re.escape(
                f"{path}:2: {owner}field '{field}' must fit in 64 bits, got {value}")):
            load(path)

    def test_live_window_past_int64_is_refused(self, tmp_path):
        path = tmp_path / "projects.jsonl"
        path.write_text(json.dumps({**self.PROJECT_LINE, "published_time": 2**63 - 1}) + "\n")
        with pytest.raises(d.DataError, match=re.escape(f"{path}:1: project a: live window")):
            d.load_projects(path)

    def test_duplicate_id_names_id_and_second_line(self, tmp_path):
        path = tmp_path / "projects.jsonl"
        line = json.dumps(self.PROJECT_LINE)
        other = json.dumps({**self.PROJECT_LINE, "id": "b"})
        path.write_text(f"{line}\n{other}\n{line}\n")
        with pytest.raises(d.DataError, match=re.escape(f"{path}:3: duplicate project id 'a'")):
            d.load_projects(path)

    def test_events_outside_live_window_rejected(self):
        p = make_project(pid="a", t=1_000_000, dur=2)
        end = p.published_time + 2 * d.DAY
        for t in (p.published_time - 5, end):
            with pytest.raises(d.DataError, match=re.escape(
                    f"investment in 'a' at {t} lies outside its live window "
                    f"[{p.published_time}, {end})")):
                d.Market([p], [d.InvestmentEvent("a", t, 50.0)])
        edges = d.Market([p], [d.InvestmentEvent("a", p.published_time, 1.0),
                               d.InvestmentEvent("a", end - 1, 2.0)])
        np.testing.assert_array_equal(edges.log("a").times, [p.published_time, end - 1])

    def test_pledges_summing_past_the_float_range_are_refused(self, tmp_path):
        p = make_project(pid="a")
        events = [d.InvestmentEvent("a", p.published_time + h, 1e308) for h in (1, 2)]
        message = "investments in 'a' sum past the float range"
        with pytest.raises(d.DataError, match=re.escape(message)):
            d.Market([p, make_project(pid="b")], events)
        d.save_projects(tmp_path / "p.jsonl", [p])
        write_events(tmp_path / "i.jsonl", events)
        with pytest.raises(d.DataError, match=re.escape(message)):
            d.Market.from_files(tmp_path / "p.jsonl", tmp_path / "i.jsonl")
        assert d.fundraising_target(d.Market([p], events[:1]), [0], 24)[0] < np.inf

    def test_unknown_event_project(self):
        with pytest.raises(d.DataError, match="unknown project"):
            d.Market([make_project(pid="a")], [d.InvestmentEvent("ghost", 5, 1.0)])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(d.DataError, match="duplicate project id 'a'"):
            d.Market([make_project(pid="a"), make_project(pid="a")], [])
        apart = [make_project(pid="b", t=100), make_project(pid="a", t=200),
                 make_project(pid="c", t=300), make_project(pid="a", t=400)]
        with pytest.raises(d.DataError, match="duplicate project id 'a'"):
            d.Market(apart, [])


@pytest.mark.parametrize("field, value", [
    ("published_time", 1000.7),
    ("published_time", True),
    ("published_time", 2**63),
    ("published_time", np.uint64(2**64 - 1)),
    ("duration_days", 7.0),
    ("duration_days", np.True_),
    ("timestamp", 1500.9),
    ("timestamp", 2**70),
    ("timestamp", -2**63 - 1),
    ("timestamp", False),
    ("timestamp", np.float64(1500.0)),
])
def test_api_times_must_be_int64_integers(field, value):
    """Records built in Python refuse what the JSONL loader refuses, naming the id and value."""
    if field == "timestamp":
        owner, build = "investment in a", lambda: d.InvestmentEvent("a", value, 5.0)
    else:
        keyword = {"published_time": "t", "duration_days": "dur"}[field]
        owner, build = "project a", lambda: make_project(pid="a", **{keyword: value})
    shown = json.dumps(value.item() if isinstance(value, np.generic) else value)
    with pytest.raises(d.DataError, match=re.escape(f"{owner}: field '{field}' must ")
                       + "(be an integer|fit in 64 bits)" + re.escape(f", got {shown}")):
        build()


@pytest.mark.parametrize("field, value", [
    ("amount", 10**400),
    ("amount", -10**400),
    ("goal", 10**400),
    ("vec", 10**400),
    ("vec", 10**5000),  # past the digits an int may print in
], ids=["amount", "negative-amount", "goal", "vec", "vec-5001-digits"])
def test_api_numbers_past_the_float_range_are_refused(field, value):
    """An integer float() cannot hold is refused by name, as the JSONL loader refuses it."""
    if field == "amount":
        owner, build = "investment in a", lambda: d.InvestmentEvent("a", 0, value)
    elif field == "goal":
        owner, build = "project a", lambda: make_project(pid="a", goal=value)
    else:
        owner, build = "project a", lambda: d.ProjectRecord(
            id="a", published_time=0, category="art", creator_type="individual",
            currency="USD", duration_days=3, goal=5.0, vec=(0.5, value))
    with pytest.raises(d.DataError, match=re.escape(f"{owner}: field '{field}' must fit in 64 bits")):
        build()


def nested(depth):
    value = []
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize("field, value, message", [
    ("category", object(), "must be a string, got a value of type object"),
    ("category", nested(100_000), "must be a string, got a value of type list"),
    ("published_time", 10**5000, "must fit in 64 bits, got a value of type int"),
], ids=["category-object", "category-nested", "time-5001-digits"])
def test_api_values_json_cannot_write_are_refused_by_name(field, value, message):
    """A refusal names the field even when its value has no JSON form to print."""
    with pytest.raises(d.DataError, match=re.escape(f"project a: field '{field}' {message}")):
        d.ProjectRecord(**{**vars(make_project(pid="a")), field: value})


def test_api_times_take_numpy_integers_as_python_ints():
    p = make_project(pid="a", t=np.int64(1_000_000), dur=np.int8(2))
    e = d.InvestmentEvent("a", np.int32(1_000_500), 5.0)
    assert (type(p.published_time), type(p.duration_days), type(e.timestamp)) == (int, int, int)
    assert p.end_time == 1_000_000 + 2 * d.DAY
    market = d.Market([p], [e])
    assert market.published[0] == 1_000_000 and market.raised_before([0], 1_000_501)[0] == 5.0


def test_hashed_embedding_properties():
    a = d.hashed_text_embedding("solar powered garden lamp", 50)
    b = d.hashed_text_embedding("solar powered garden lamp", 50)
    c = d.hashed_text_embedding("documentary film about rivers", 50)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(d.hashed_text_embedding("", 50), np.zeros(50))


def test_project_validation():
    with pytest.raises(d.DataError, match="goal"):
        make_project(goal=0.0)
    with pytest.raises(d.DataError, match="duration"):
        make_project(dur=0)


# --- whole-market helpers against the per-project references -----------------

T0 = 1_600_000_000


@st.composite
def random_markets(draw):
    """Markets of up to 6 projects with pledges on and inside their live-window edges."""
    projects, events = [], []
    for i in range(draw(st.integers(0, 6))):
        t = T0 + draw(st.integers(0, 12)) * 6 * d.HOUR + draw(st.sampled_from([0, 1, 1799]))
        p = make_project(pid=f"p{i}", t=t, dur=draw(st.integers(1, 4)),
                         goal=draw(st.sampled_from([1.0, 50.0, 333.3])))
        projects.append(p)
        edges = [e for e in (t, t + 1, t + 24 * d.HOUR - 1, t + 24 * d.HOUR, p.end_time - 1)
                 if e < p.end_time]
        stamps = draw(st.lists(st.one_of(st.sampled_from(edges),
                                         st.integers(t, p.end_time - 1)), max_size=8))
        events += [d.InvestmentEvent(p.id, s, draw(st.sampled_from([0.5, 7.0, 1e-3, 123.25])))
                   for s in stamps]
    return projects, events


@settings(max_examples=150, deadline=None, derandomize=True)
@given(market=random_markets(), data=st.data())
def test_whole_set_helpers_match_per_project_references(market, data):
    market = d.Market(*market)
    n = len(market.projects)
    rows = np.asarray(data.draw(st.lists(st.integers(0, max(n - 1, 0)),
                                         max_size=5 if n else 0)), dtype=np.int64)
    tau = data.draw(st.sampled_from([24, 48]))
    # an observation time anywhere, or on a launch plus a window edge
    launches = st.sampled_from([int(v) for v in market.published] or [T0])
    edges = st.sampled_from([k * tau * d.HOUR + e for k in (0, 1, 2, 3) for e in (-1, 0, 1)])
    t = data.draw(st.one_of(st.integers(T0 - d.DAY, T0 + 8 * d.DAY),
                            st.builds(lambda a, b: a + b, launches, edges)))
    projects = [market.projects[r] for r in rows]
    logs = [oracles.ProjectLog(market.log(p.id).times, market.log(p.id).amounts)
            for p in projects]

    # The whole-set helpers keep the references' arithmetic: exact equality.
    np.testing.assert_array_equal(market.raised_before(rows, t),
                                  [log.total_before(t) for log in logs])
    np.testing.assert_array_equal(
        d.fundraising_target(market, rows, tau),
        [oracles.fundraising_target(p, log, tau) for p, log in zip(projects, logs)])
    np.testing.assert_array_equal(
        d.early_stage_amount(market, rows, tau),
        [oracles.early_stage_amount(p, log, tau) for p, log in zip(projects, logs)])
    np.testing.assert_array_equal(
        d.hourly_series(market, rows, t),
        np.reshape([oracles.hourly_series(log, t) for log in logs], (len(rows), 24)))
    assert ids_at(market, d.running_set(market, t)) == [
        p.id for p in oracles.running_set(market.projects, t)]
    assert ids_at(market, d.observable_set(market, t, 3, tau)) == [
        p.id for p in oracles.observable_set(market.projects, t, 3, tau)]

    # np.log2 of the funded-day count may differ from math.log2 in the last
    # bit, so the trend is held to 1e-15 relative; its bins must agree exactly.
    if any(p.published_time > t for p in projects):
        with pytest.raises(d.DataError, match="predates publication"):
            d.prior_trend(market, rows, t)
        return
    trend, index = d.prior_trend(market, rows, t)
    want = [oracles.prior_trend(p, log, t) for p, log in zip(projects, logs)]
    np.testing.assert_allclose(trend, [w[0] for w in want], rtol=1e-15, atol=0)
    np.testing.assert_array_equal(index, [w[1] for w in want])
    assert index.dtype == np.uint8


FINITE = st.floats(allow_nan=False, allow_infinity=False)
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(d.INT64_MIN, d.INT64_MAX), FINITE,
              st.text(max_size=6)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def kind_values(kind):
    """Values of one field kind (`data._Kind`), as a dataclass holds them."""
    if kind.entry:
        values = st.lists(kind_values(kind.entry), max_size=4).map(tuple)
    else:
        values = {str: st.text(max_size=6), int: st.integers(d.INT64_MIN, d.INT64_MAX),
                  float: FINITE}[kind.stored]
    return st.none() | values if kind.absent is None else values


def records(cls, **rules):
    """Instances of dataclass `cls`, each field drawn by its kind (`data._kinds`) or by `rules`
    where a value rule narrows it: a field added later is drawn with no edit here."""
    return st.builds(cls, **{name: rules.get(name, kind_values(kind))
                             for name, kind in d._kinds(cls).items()})


def events_in(projects, data):
    """Up to three investments inside each project's live window."""
    return [data.draw(records(d.InvestmentEvent, project_id=st.just(p.id), amount=POSITIVE,
                              timestamp=st.integers(p.published_time, p.end_time - 1)))
            for p in projects for _ in range(data.draw(st.integers(0, 3)))]


def write_events(path, events):
    """Investment records as a JSONL file, one a line, in list order."""
    path.write_text("".join(json.dumps(asdict(e)) + "\n" for e in events))


def assert_market_reloads(folder, projects, events):
    """`Market.from_files` on the written records builds the tables `Market` builds from
    them, or refuses them with the message `Market` refuses them with."""
    d.save_projects(folder / "p.jsonl", projects)
    try:
        market = d.Market(projects, events)
    except d.DataError as exc:  # drawn pledges may sum past the float range
        assert "sum past the float range" in str(exc)
        write_events(folder / "i.jsonl", events)
        with pytest.raises(d.DataError) as refused:
            d.Market.from_files(folder / "p.jsonl", folder / "i.jsonl")
        assert str(refused.value) == str(exc)
        return
    d.save_investments(folder / "i.jsonl", market)
    assert_same_tables(d.Market.from_files(folder / "p.jsonl", folder / "i.jsonl"), market)


def read_events(path):
    """(project id, timestamp, amount) of each investment in a JSONL file, in file order."""
    events = d._read_investments(path)
    return list(zip([events.ids[c] for c in events.codes.tolist()], events.times.tolist(),
                    events.amounts.tolist()))


MARKET_TABLES = ("published", "ends", "goals", "categories", "_times", "_amounts", "_starts", "_prefix", "_keys")


def assert_same_tables(a, b):
    for name in MARKET_TABLES:
        assert getattr(a, name).dtype == getattr(b, name).dtype, name
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


# trailing NULs and case matter: numpy's fixed-width strings would merge the first three
@settings(max_examples=60, deadline=None, derandomize=True)
@given(categories=st.lists(st.sampled_from(["art", "art\x00", "art\x00\x00", "Art", "ar", "é"]),
                           max_size=8))
def test_category_codes_are_equal_exactly_when_the_strings_are(categories):
    market = d.Market([make_project(pid=f"p{i}", cat=c) for i, c in enumerate(categories)], [])
    codes = market.categories
    assert codes.shape == (len(categories),) and codes.dtype == np.intp
    for i, p in enumerate(market.projects):
        for j, q in enumerate(market.projects):
            assert (codes[i] == codes[j]) == (p.category == q.category)


# Small pools, so that repeated and unseen vocabulary values, durations and log2(goal)
# on a bin edge, and goals at powers of two all turn up.
VOCABULARY = st.lists(st.sampled_from(["art", "games", "Art"]), max_size=5).map(tuple)
WORDS = st.sampled_from(["art", "games", "Art", "film"])
GOAL_EDGES = st.sets(st.sampled_from([-1.0, 0.0, 0.5, 3.0, 7.0, 7.5]), max_size=3)


@st.composite
def encoders_and_projects(draw):
    """An encoder and 1-6 projects with distinct ids, in half the cases with text fields
    that the encoder may refuse."""
    text_mode = draw(st.sampled_from(["hashed", "precomputed"]))
    text_dim = draw(st.integers(1 if text_mode == "hashed" else 0, 6))
    encoder = d.EncoderConfig(
        **{vocab: draw(VOCABULARY) for vocab, _ in d.VOCABULARY_BLOCKS},
        goal_log2_edges=tuple(sorted(draw(GOAL_EDGES))),
        duration_day_edges=tuple(sorted(draw(st.sets(st.integers(1, 8), max_size=3)))),
        text_mode=text_mode, text_dim=text_dim)
    vec = st.lists(FINITE, min_size=text_dim, max_size=text_dim).map(tuple)
    text = st.text(max_size=12)
    if draw(st.booleans()):  # a project may lack the text form in use
        vec = st.none() | vec | st.lists(FINITE, max_size=3).map(tuple)
        text = st.none() | text
    goals = st.sampled_from([2.0 ** k for k in (-1, 0, 0.5, 3, 7, 7.5, 9)] + [3.0, 100.0])
    projects = [d.ProjectRecord(
        id=f"p{i}", published_time=0, category=draw(WORDS), creator_type=draw(WORDS),
        currency=draw(WORDS), duration_days=draw(st.integers(1, 9)), goal=draw(goals),
        text=draw(text), vec=draw(vec))
        for i in range(draw(st.integers(1, 6)))]
    return encoder, projects


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=encoders_and_projects())
def test_encode_matches_the_per_project_reference_bit_for_bit(case):
    encoder, projects = case
    empty = encoder.encode([])
    assert empty.dtype == np.float64 and empty.shape == (0, encoder.feature_dim)
    try:
        rows = [oracles.encode_project(encoder, p) for p in projects]
    except d.DataError as exc:  # the first project the reference refuses names the refusal
        with pytest.raises(d.DataError) as refused:
            encoder.encode(projects)
        assert str(refused.value) == str(exc)
        return
    want = np.array(rows).reshape(len(projects), encoder.feature_dim)
    got = encoder.encode(projects)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.usefixtures("block")
@settings(max_examples=60, deadline=None, derandomize=True)
@given(projects=st.lists(records(
    d.ProjectRecord, id=st.text(min_size=1, max_size=6), published_time=st.integers(-10**12, 10**12),
    duration_days=st.integers(1, 60), goal=st.floats(min_value=1e-6, max_value=1e12),
), max_size=5, unique_by=lambda p: p.id), data=st.data())
def test_jsonl_round_trip_keeps_records_and_event_columns(tmp_path_factory, projects, data):
    folder = tmp_path_factory.mktemp("roundtrip")
    assert_market_reloads(folder, projects, events_in(projects, data))
    assert d.load_projects(folder / "p.jsonl") == projects


@pytest.mark.usefixtures("block")
@settings(max_examples=60, deadline=None, derandomize=True)
@given(market=random_markets(), layout=st.lists(st.sampled_from(
    ["compact", "spaced", "reordered", "escaped", "blank"]), min_size=1, max_size=4),
       newline=st.sampled_from(["\n", "\r\n", "\r"]))
def test_from_files_builds_the_tables_the_records_build(tmp_path_factory, market, layout, newline):
    """The columnar load and the record path agree bit for bit, whatever the line layout."""
    projects, events = market
    folder = tmp_path_factory.mktemp("columnar")
    d.save_projects(folder / "p.jsonl", projects)
    lines = []
    for k, e in enumerate(events):
        doc = {"project_id": e.project_id, "timestamp": e.timestamp, "amount": e.amount}
        form = layout[k % len(layout)]
        if form == "blank":  # a blank line, then the record as written
            lines.append(" ")
        if form == "spaced":
            lines.append(json.dumps(doc))
        elif form == "reordered":
            lines.append(json.dumps(dict(reversed(doc.items())), separators=(",", ":")))
        elif form == "escaped":  # the id spelled with a \u escape
            lines.append(json.dumps(doc, separators=(",", ":")).replace(':"p', ':"\\u0070', 1))
        else:
            lines.append(json.dumps(doc, separators=(",", ":")))
    (folder / "i.jsonl").write_bytes("".join(line + newline for line in lines).encode())
    assert read_events(folder / "i.jsonl") == [astuple(e) for e in events]
    assert_same_tables(d.Market.from_files(folder / "p.jsonl", folder / "i.jsonl"),
                       d.Market(d.load_projects(folder / "p.jsonl"), events))


@pytest.mark.usefixtures("block")
def test_from_files_constructs_no_investment_event(tmp_path, monkeypatch):
    projects = [make_project(pid=f"p{k}", t=T0 + k * d.HOUR, dur=2) for k in range(4)]
    events = [d.InvestmentEvent(p.id, p.published_time + h, 1.5 * h)
              for p in projects for h in (1, 60, 3600)]
    want = d.Market(projects, events)
    d.save_projects(tmp_path / "p.jsonl", projects)
    d.save_investments(tmp_path / "i.jsonl", want)

    def refuse(*args, **kwargs):
        raise AssertionError("Market.from_files built an InvestmentEvent")

    monkeypatch.setattr(d.InvestmentEvent, "__init__", refuse)
    assert_same_tables(d.Market.from_files(tmp_path / "p.jsonl", tmp_path / "i.jsonl"), want)


@pytest.mark.usefixtures("block")
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_long_compact_runs_load_every_line_once(tmp_path, newline):
    """Compact lines are matched a bounded run at a time; runs meet without losing a line."""
    projects = [make_project(pid=f"p{k}") for k in range(3)]
    events = [d.InvestmentEvent(f"p{k % 3}", 1_000_000 + k, 1.0 + k / 7) for k in range(1000)]
    lines = [json.dumps({"project_id": e.project_id, "timestamp": e.timestamp, "amount": e.amount},
                        separators=(",", ":")) for e in events]
    lines[513] = json.dumps(json.loads(lines[513]))  # one spaced line inside a run
    d.save_projects(tmp_path / "p.jsonl", projects)
    (tmp_path / "i.jsonl").write_bytes(newline.join(lines).encode())  # no line end at the end
    assert read_events(tmp_path / "i.jsonl") == [astuple(e) for e in events]
    assert_same_tables(d.Market.from_files(tmp_path / "p.jsonl", tmp_path / "i.jsonl"),
                       d.Market(projects, events))

    lines[700] = lines[700][:-1]  # truncated: the refusal names line 701
    (tmp_path / "i.jsonl").write_bytes(newline.join(lines).encode())
    with pytest.raises(d.DataError, match=re.escape(f"{tmp_path / 'i.jsonl'}:701: invalid JSON")):
        d.Market.from_files(tmp_path / "p.jsonl", tmp_path / "i.jsonl")


@pytest.mark.parametrize("line, message", [
    ('{"project_id":"p1","timestamp":1000500,"amount":2.0', "invalid JSON"),
    ('{"project_id":"p1","timestamp":1000500,"amount":-2.0}', "field 'amount' must be positive"),
    ('{"project_id":"","timestamp":1000500,"amount":2.0}', "field 'project_id' is empty"),
    ('{"project_id": "p1", "timestamp": 1000500, "amount": "2"}', "field 'amount' must be"),
    ('{"project_id":"ghost","timestamp":1000500,"amount":2.0}', "unknown project id"),
    ('{"project_id":"p1","timestamp":5,"amount":2.0}', "outside its live window"),
])
def test_a_refusal_in_a_later_block_names_its_line(tmp_path, monkeypatch, line, message):
    """A refusal past the first block names the same `path:lineno` at every block size."""
    projects = [make_project(pid=f"p{k}") for k in range(3)]
    lines = [f'{{"project_id":"p{k % 3}","timestamp":{1_000_000 + k},"amount":{1.0 + k / 7!r}}}'
             for k in range(400)]
    lines[300] = line
    d.save_projects(tmp_path / "p.jsonl", projects)
    (tmp_path / "i.jsonl").write_text("\r\n".join(lines))
    refusals = set()
    for size in (d.BLOCK, 4096, TINY_BLOCK):  # line 301 lies in a later block at the last two
        monkeypatch.setattr(d, "BLOCK", size)
        with pytest.raises(d.DataError, match=re.escape(f"{tmp_path / 'i.jsonl'}:301: ")) as refused:
            d.Market.from_files(tmp_path / "p.jsonl", tmp_path / "i.jsonl")
        assert message in str(refused.value)
        refusals.add(str(refused.value))
    assert len(refusals) == 1


def test_reading_investments_holds_the_file_and_a_few_columns_a_line(tmp_path):
    """The reader's peak is the file's bytes, a few int64 columns a line and a fixed number
    of blocks: no mask, index or span matrix grows with the file.  At 100,000 lines the
    per-line part decides: a reader with such temporaries (176 bytes a line) fails."""
    n, rng = 100_000, np.random.default_rng(0)
    projects = [make_project(pid=f"p{k}", t=T0 + k) for k in range(200)]
    market = d.Market(projects, d._Events(
        [p.id for p in projects], rng.integers(0, 200, n), T0 + 200 + rng.integers(0, 29 * d.DAY, n),
        rng.lognormal(3.0, 1.0, n)))
    assert d.save_investments(tmp_path / "i.jsonl", market) == n
    tracemalloc.start()
    try:
        events = d._read_investments(tmp_path / "i.jsonl")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert events.times.size == n
    # line bounds, the compact mask and the three per-line slots take 41 bytes a line
    assert peak <= (tmp_path / "i.jsonl").stat().st_size + 64 * n + 4 * d.BLOCK


# Launches near one shared time anywhere in int64, so a market of them can index its events.
PROJECT_RULES = dict(
    id=st.text(min_size=1, max_size=6), duration_days=st.integers(1, 10**5), goal=POSITIVE,
    published_time=st.shared(st.integers(-2**62, 2**62), key="launch").flatmap(
        lambda t: st.integers(t, t + 2**40)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(both=records(d.ProjectRecord, **PROJECT_RULES, text=st.text(max_size=12),
                    vec=st.lists(FINITE, min_size=1, max_size=4).map(tuple)),
       projects=st.lists(records(d.ProjectRecord, **PROJECT_RULES), max_size=4),
       data=st.data(),
       arrays=st.dictionaries(st.text(max_size=8), hnp.arrays(
           np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)),
           max_size=4),
       meta=st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=4),
       encoder=records(
           d.EncoderConfig, goal_log2_edges=st.sets(FINITE, max_size=4).map(sorted).map(tuple),
           duration_day_edges=st.sets(st.integers(d.INT64_MIN, d.INT64_MAX), max_size=4).map(sorted).map(tuple),
           text_mode=st.sampled_from(["hashed", "precomputed"]), text_dim=st.integers(1, 10**6)))
def test_every_file_gme_writes_reloads_equal(tmp_path_factory, both, projects, data, arrays,
                                             meta, encoder):
    folder = tmp_path_factory.mktemp("written")
    projects = [both, *(p for p in projects if p.id != both.id)]
    projects = list({p.id: p for p in projects}.values())  # loading refuses a repeated id
    assert_market_reloads(folder, projects, events_in(projects, data))
    assert d.load_projects(folder / "p.jsonl") == projects

    params = [ad.Parameter(a, name) for name, a in arrays.items()]
    ad.save_checkpoint(folder / "checkpoint.json", params, meta=meta)
    values, loaded_meta = ad.load_checkpoint(folder / "checkpoint.json")
    assert loaded_meta == meta and list(values) == list(arrays)
    for p in params:  # bit for bit, NaN payloads and signed zeros included
        assert values[p.name].shape == p.data.shape
        assert values[p.name].tobytes() == p.data.tobytes()

    cli._write_json(folder / "encoder.json", encoder.to_json())
    assert cli._load_encoder(folder / "encoder.json") == encoder


ENCODER = d.EncoderConfig(categories=("art", "games"), creator_types=("individual",),
                          currencies=("USD",))


def _field_refusals(config):
    """(field, doc) pairs: `config.to_json()` with one field left out or holding a wrong value.

    Every field gets a boolean; an integer field an integer outside int64; a number
    field NaN and the infinities.  In an array the wrong value replaces the last entry.
    """
    good = config.to_json()
    for name, value in good.items():
        yield name, {k: v for k, v in good.items() if k != name}
        sample = value[-1] if type(value) is list else value
        wrong = [True, *{int: [2**63, -2**63 - 1],
                         float: [float("nan"), float("inf"), float("-inf")]}.get(type(sample), [])]
        for bad in wrong:
            yield name, {**good, name: [*value[:-1], bad] if type(value) is list else bad}


@pytest.mark.parametrize("config", [TrainConfig(), ENCODER], ids=["train", "encoder"])
def test_config_json_refuses_each_bad_field_by_name(config):
    """Every field is required, of its JSON type, within int64 and finite; `to_json` reloads."""
    assert type(config).from_json(config.to_json()) == config
    for name, doc in _field_refusals(config):
        with pytest.raises(d.DataError, match=f"field '{name}'"):
            type(config).from_json(json.loads(json.dumps(doc)))  # NaN as JSON writes it


BASES = {d.ProjectRecord: make_project(pid="a"), d.InvestmentEvent: d.InvestmentEvent("a", 5, 1.0),
         d.EncoderConfig: ENCODER, TrainConfig: TrainConfig()}
NUMPY_SCALARS = st.one_of(
    st.integers(d.INT64_MIN, d.INT64_MAX).map(np.int64), st.integers(0, 2**64 - 1).map(np.uint64),
    st.floats().map(np.float64), st.booleans().map(np.bool_), st.text(max_size=3).map(np.str_))
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70), st.floats(),
                    st.text(max_size=6), NUMPY_SCALARS)


def as_numpy(value):
    """`value` with each string and number in it as a numpy scalar."""
    if type(value) is tuple:
        return tuple(map(as_numpy, value))
    return {str: np.str_, int: np.int64, float: np.float64}.get(type(value), lambda v: v)(value)


def any_value(kind):
    """A value of `kind`, the same as numpy scalars, or a value of any kind."""
    return st.one_of(kind_values(kind), kind_values(kind).map(as_numpy),
                     st.one_of(SCALARS, JSON_VALUES, st.lists(SCALARS, max_size=3).map(tuple)))


def reloaded(cls, values, path):
    """`cls` read back from `values` written as JSON, by the reader of the file gme writes it in."""
    path.write_text(json.dumps(values, default=lambda v: v.item(), separators=(",", ":")) + "\n")
    if cls is d.ProjectRecord:
        return d.load_projects(path)[0]
    if cls is d.InvestmentEvent:
        return d.InvestmentEvent(*read_events(path)[0])
    return cls.from_json(json.loads(path.read_text()))


def assert_builds_iff_json_form_reloads_equal(cls, values, path):
    try:
        built = cls(**values)
    except ValueError:
        built = None
    try:
        got = reloaded(cls, values, path)
    except ValueError:
        got = None
    assert got == built
    if built is not None:
        assert reloaded(cls, vars(built), path) == built


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
@pytest.mark.parametrize("cls", list(BASES), ids=lambda cls: cls.__name__)
def test_a_record_builds_iff_its_json_form_reloads_equal(tmp_path_factory, cls, data):
    """Records and configs built in Python refuse what their readers refuse, and nothing more."""
    kinds, values = d._kinds(cls), dict(vars(BASES[cls]))
    for name in data.draw(st.lists(st.sampled_from(list(kinds)), max_size=3)):
        values[name] = data.draw(any_value(kinds[name]))
    assert_builds_iff_json_form_reloads_equal(
        cls, values, tmp_path_factory.getbasetemp() / f"{cls.__name__}.jsonl")


@pytest.mark.parametrize("cls, change", [
    (d.ProjectRecord, {"category": 7, "vec": (True, 0.5)}),
    (TrainConfig, {"eta": True}),
    (TrainConfig, {"tau": 24.0}),
    (TrainConfig, {"hidden": 50.0}),
    (TrainConfig, {"seed": 2**64}),
], ids=["project-category-7-vec-true", "eta-true", "tau-float", "hidden-float", "seed-2**64"])
def test_records_gme_refused_to_reload_are_refused_when_built(tmp_path, cls, change):
    assert_builds_iff_json_form_reloads_equal(cls, {**vars(BASES[cls]), **change},
                                              tmp_path / "record.jsonl")
