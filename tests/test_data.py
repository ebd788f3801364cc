"""Data-layer tests: targets, series, trend bins, selections, segmentation, encoding, IO."""

import json
import re

import numpy as np
import pytest

from gme import data as d


def make_project(pid="p0", t=1_000_000, cat="art", creator="individual", cur="USD",
                 dur=30, goal=100.0, text="a small art project"):
    return d.ProjectRecord(
        id=pid, published_time=t, category=cat, creator_type=creator,
        currency=cur, duration_days=dur, goal=goal, text=text,
    )


def log_of(pairs):
    return d.EventLog([t for t, _ in pairs], [a for _, a in pairs])


class TestFundraisingTarget:
    def test_zero_raised(self):
        p = make_project(goal=50.0)
        assert d.fundraising_target(p, log_of([]), 24) == 0.0

    def test_alpha_equals_goal(self):
        p = make_project(goal=80.0)
        log = log_of([(p.published_time + 100, 80.0)])
        assert d.fundraising_target(p, log, 24) == pytest.approx(1.0, abs=1e-12)

    def test_alpha_three_times_goal(self):
        p = make_project(goal=10.0)
        log = log_of([(p.published_time + 5, 30.0)])
        assert d.fundraising_target(p, log, 24) == pytest.approx(2.0, abs=1e-12)

    def test_window_is_half_open(self):
        p = make_project(goal=10.0)
        inside = p.published_time + 24 * d.HOUR - 1
        boundary = p.published_time + 24 * d.HOUR
        log = log_of([(inside, 10.0), (boundary, 999.0)])
        assert d.fundraising_target(p, log, 24) == pytest.approx(1.0, abs=1e-12)


class TestHourlySeries:
    def test_single_event_lands_in_newest_slot(self):
        t_obs = 500_000
        series = d.hourly_series(log_of([(t_obs - 30 * 60, 7.0)]), t_obs)
        assert series[0] == pytest.approx(3.0, abs=1e-12)  # log2(1+7)
        assert np.count_nonzero(series) == 1

    def test_empty_log_is_all_zero(self):
        assert np.array_equal(d.hourly_series(log_of([]), 500_000), np.zeros(24))

    def test_two_events_same_window_sum_before_log(self):
        t_obs = 500_000
        lo = t_obs - 5 * d.HOUR  # window k=4 spans [t-5h, t-4h)
        series = d.hourly_series(log_of([(lo, 1.0), (lo + 10, 2.0)]), t_obs)
        assert series[4] == pytest.approx(2.0, abs=1e-12)  # log2(1+3)

    def test_matches_bruteforce_window_sums(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            t_obs = int(rng.integers(10**6, 10**7))
            n = int(rng.integers(0, 40))
            times = rng.integers(t_obs - 30 * d.HOUR, t_obs + 2 * d.HOUR, n)
            amounts = rng.uniform(0.5, 50.0, n)
            log = log_of(list(zip(times.tolist(), amounts.tolist())))
            got = d.hourly_series(log, t_obs)
            want = np.zeros(24)
            for k in range(24):
                lo, hi = t_obs - (k + 1) * d.HOUR, t_obs - k * d.HOUR
                total = sum(a for t, a in zip(times, amounts) if lo <= t < hi)
                want[k] = np.log2(1.0 + total)
            np.testing.assert_allclose(got, want, atol=1e-9)


class TestEarlyStageAmount:
    def test_simple_value(self):
        p = make_project()
        log = log_of([(p.published_time + 60, 7.0)])
        assert d.early_stage_amount(p, log, 24) == pytest.approx(3.0, abs=1e-12)

    def test_no_events(self):
        assert d.early_stage_amount(make_project(), log_of([]), 24) == 0.0

    def test_boundary_event_excluded(self):
        p = make_project()
        edge = p.published_time + 24 * d.HOUR
        log = log_of([(edge - 1, 1.0), (edge, 100.0)])
        assert d.early_stage_amount(p, log, 24) == pytest.approx(1.0, abs=1e-12)


class TestPriorTrend:
    def test_half_progress_first_day(self):
        p = make_project(goal=100.0)
        t_obs = p.published_time + 12 * d.HOUR
        trend, _ = d.prior_trend(p, log_of([(p.published_time + 1, 50.0)]), t_obs)
        assert trend == pytest.approx(0.5, abs=1e-12)  # log2(1+1) = 1

    def test_clamped_to_unit_interval(self):
        p = make_project(goal=1.0)
        t_obs = p.published_time + 2 * d.HOUR
        trend, onehot = d.prior_trend(p, log_of([(p.published_time + 1, 1000.0)]), t_obs)
        assert trend == 1.0
        assert onehot[-1] == 1.0 and onehot.sum() == 1.0

    def test_bin_with_five_bins(self):
        p = make_project(goal=100.0)
        t_obs = p.published_time + 6 * d.HOUR
        trend, onehot = d.prior_trend(p, log_of([(p.published_time + 1, 10.0)]), t_obs, bins=5)
        assert trend == pytest.approx(0.1, abs=1e-12)
        np.testing.assert_array_equal(onehot, [1, 0, 0, 0, 0])

    def test_bin_with_six_bins(self):
        p = make_project(goal=100.0)
        t_obs = p.published_time + 6 * d.HOUR
        _, onehot = d.prior_trend(p, log_of([(p.published_time + 1, 10.0)]), t_obs, bins=6)
        np.testing.assert_array_equal(onehot, [1, 0, 0, 0, 0, 0])

    def test_days_funded_rounds_up(self):
        p = make_project(goal=100.0)
        t_obs = p.published_time + d.DAY + 1  # just over one day -> 2 funded days
        trend, _ = d.prior_trend(p, log_of([(p.published_time, 100.0)]), t_obs)
        assert trend == pytest.approx(1.0 / np.log2(3.0), abs=1e-12)


class TestSelections:
    def test_running_set_boundaries(self):
        base = 1_000_000
        p = make_project(pid="a", t=base, dur=2)
        assert [q.id for q in d.running_set([p], base)] == ["a"]
        assert [q.id for q in d.running_set([p], base + 2 * d.DAY - 1)] == ["a"]
        assert d.running_set([p], base + 2 * d.DAY) == []
        assert d.running_set([p], base - 1) == []

    def test_observable_window_strict(self):
        base = 10_000_000
        tau = 24
        gap_lo = make_project(pid="lo", t=base - tau * d.HOUR)          # gap == tau: out
        inside = make_project(pid="mid", t=base - 2 * tau * d.HOUR)     # gap == 2 tau: in for t_h=3
        gap_hi = make_project(pid="hi", t=base - 3 * tau * d.HOUR)      # gap == tau*t_h: out
        got = d.observable_set([gap_lo, inside, gap_hi], base, history_days=3, tau_hours=tau)
        assert [p.id for p in got] == ["mid"]

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
            t_ref = base
            t_h = int(rng.integers(1, 8))
            tau = int(rng.choice([24, 48]))
            run = {p.id for p in d.running_set(projects, t_ref)}
            obs = {p.id for p in d.observable_set(projects, t_ref, t_h, tau)}
            run_brute = {p.id for p in projects
                         if p.published_time <= t_ref < p.published_time + p.duration_days * d.DAY}
            obs_brute = {p.id for p in projects
                         if tau * d.HOUR < t_ref - p.published_time < tau * t_h * d.HOUR}
            assert run == run_brute
            assert obs == obs_brute


class TestSegmentation:
    def test_same_morning_segment_grouped(self):
        day0 = 0
        p1 = make_project(pid="a", t=day0 + 9 * d.HOUR)
        p2 = make_project(pid="b", t=day0 + 11 * d.HOUR + 30 * 60)
        p3 = make_project(pid="c", t=day0 + 13 * d.HOUR)
        sets = d.segment_target_sets([p1, p2, p3])
        assert len(sets) == 2
        assert sets[0].project_ids == ("a", "b")
        assert sets[0].observation_time == p1.published_time
        assert sets[1].project_ids == ("c",)

    def test_night_segment_precedes_morning(self):
        p_night = make_project(pid="n", t=3 * d.HOUR)
        p_morning = make_project(pid="m", t=9 * d.HOUR)
        sets = d.segment_target_sets([p_morning, p_night])
        assert [s.project_ids for s in sets] == [("n",), ("m",)]

    def test_partition_covers_each_project_once(self):
        rng = np.random.default_rng(13)
        projects = [
            make_project(pid=f"p{i}", t=int(rng.integers(0, 40 * d.DAY)))
            for i in range(300)
        ]
        sets = d.segment_target_sets(projects, tz_offset=int(rng.integers(0, 12)) * d.HOUR)
        seen = [pid for s in sets for pid in s.project_ids]
        assert sorted(seen) == sorted(p.id for p in projects)
        keys = [(s.day, s.segment) for s in sets]
        assert keys == sorted(keys)
        assert all(s.project_ids for s in sets)

    def test_segment_boundaries(self):
        assert d.segment_index(0) == 0
        assert d.segment_index(7) == 0
        assert d.segment_index(8) == 1
        assert d.segment_index(11) == 1
        assert d.segment_index(12) == 2
        assert d.segment_index(14) == 3
        assert d.segment_index(17) == 4
        assert d.segment_index(20) == 5
        assert d.segment_index(23) == 5


class TestEncoder:
    def fit(self, **kw):
        projects = [
            make_project(pid="x", cat="art", creator="individual", cur="USD"),
            make_project(pid="y", cat="games", creator="organization", cur="EUR"),
        ]
        return d.EncoderConfig.fit(projects, **kw), projects

    def test_feature_dim_and_block_sums(self):
        enc, projects = self.fit()
        vec = enc.encode(projects[0])
        assert vec.shape == (enc.feature_dim,)
        at = enc.text_dim
        for block in (len(enc.categories) + 1, len(enc.creator_types) + 1,
                      len(enc.currencies) + 1, enc.duration_bins, enc.goal_bins):
            assert vec[at:at + block].sum() == 1.0
            at += block

    def test_goal_exact_lower_edge_of_bin_three(self):
        enc, _ = self.fit()
        p = make_project(goal=2.0 ** enc.goal_log2_edges[2])  # lower edge of bin 3
        vec = enc.encode(p)
        goal_block = vec[-enc.goal_bins:]
        assert goal_block[3] == 1.0

    def test_goal_overflow_and_underflow(self):
        enc, _ = self.fit()
        assert enc.encode(make_project(goal=2.0 ** 25))[-enc.goal_bins:][-1] == 1.0
        assert enc.encode(make_project(goal=4.0))[-enc.goal_bins:][0] == 1.0

    def test_duration_sixty_days_tops_out(self):
        enc, _ = self.fit()
        vec = enc.encode(make_project(dur=60))
        dur_block = vec[-(enc.duration_bins + enc.goal_bins):-enc.goal_bins]
        assert dur_block[-1] == 1.0
        vec15 = enc.encode(make_project(dur=15))
        assert vec15[-(enc.duration_bins + enc.goal_bins):-enc.goal_bins][0] == 1.0

    def test_unseen_category_goes_to_overflow(self):
        enc, _ = self.fit()
        vec = enc.encode(make_project(cat="never-seen"))
        cat_block = vec[enc.text_dim:enc.text_dim + len(enc.categories) + 1]
        assert cat_block[-1] == 1.0

    def test_identical_projects_encode_identically(self):
        enc, _ = self.fit()
        a = enc.encode(make_project(pid="a"))
        b = enc.encode(make_project(pid="b"))
        assert np.array_equal(a, b)

    def test_precomputed_mode_uses_vec(self):
        enc, _ = self.fit(text_mode="precomputed")
        vec50 = tuple(np.linspace(-1, 1, 50))
        p = d.ProjectRecord(id="v", published_time=0, category="art", creator_type="individual",
                            currency="USD", duration_days=10, goal=100.0, vec=vec50)
        out = enc.encode(p)
        np.testing.assert_array_equal(out[:50], vec50)
        with pytest.raises(d.DataError, match="vec"):
            enc.encode(make_project())

    def test_config_roundtrip(self):
        enc, projects = self.fit()
        clone = d.EncoderConfig.from_json(enc.to_json())
        assert np.array_equal(clone.encode(projects[1]), enc.encode(projects[1]))


class TestIO:
    def test_roundtrip(self, tmp_path):
        projects = [make_project(pid="a", t=100), make_project(pid="b", t=200, goal=5000.0)]
        events = [d.InvestmentEvent("a", 150, 10.0), d.InvestmentEvent("b", 260, 2.5)]
        pp, ip = tmp_path / "projects.jsonl", tmp_path / "investments.jsonl"
        d.save_projects(pp, projects)
        d.save_investments(ip, events)
        market = d.Market.from_files(pp, ip)
        assert [p.id for p in market.projects] == ["a", "b"]
        assert market.log("a").total_between(0, 10**9) == 10.0

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
            d.load_investments(path)

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
    ])
    def test_field_types_are_enforced_not_coerced(self, tmp_path, loader, field, value):
        base = self.PROJECT_LINE if loader == "projects" else self.EVENT_LINE
        path = tmp_path / f"{loader}.jsonl"
        path.write_text(json.dumps(base) + "\n" + json.dumps({**base, field: value}) + "\n")
        load = d.load_projects if loader == "projects" else d.load_investments
        with pytest.raises(d.DataError, match=re.escape(f"{path}:2: field '{field}' must be")):
            load(path)

    def test_duplicate_id_names_id_and_second_line(self, tmp_path):
        path = tmp_path / "projects.jsonl"
        line = json.dumps(self.PROJECT_LINE)
        other = json.dumps({**self.PROJECT_LINE, "id": "b"})
        path.write_text(f"{line}\n{other}\n{line}\n")
        with pytest.raises(d.DataError, match=re.escape(f"{path}:3: duplicate project id 'a'")):
            d.load_projects(path)

    def test_unknown_event_project(self):
        with pytest.raises(d.DataError, match="unknown project"):
            d.Market([make_project(pid="a")], [d.InvestmentEvent("ghost", 5, 1.0)])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(d.DataError, match="duplicate"):
            d.Market([make_project(pid="a"), make_project(pid="a")], [])


def test_hashed_embedding_properties():
    a = d.hashed_text_embedding("solar powered garden lamp")
    b = d.hashed_text_embedding("solar powered garden lamp")
    c = d.hashed_text_embedding("documentary film about rivers")
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(d.hashed_text_embedding(""), np.zeros(50))


def test_project_validation():
    with pytest.raises(d.DataError, match="goal"):
        make_project(goal=0.0)
    with pytest.raises(d.DataError, match="duration"):
        make_project(dur=0)
