"""Synthetic-market generator tests: determinism, scaling laws, planted signal."""

import json

import numpy as np
import pytest

import oracles
from gme.data import DAY, HOUR
from gme.synth import DURATIONS, GOALS, SynthConfig, generate_market, write_trace


def small_config(**kw):
    base = dict(n_projects=120, days=20, seed=5)
    base.update(kw)
    return SynthConfig(**base)


class TestDeterminism:
    def test_equal_configs_give_identical_markets(self):
        a_market, a_trace = generate_market(small_config())
        b_market, b_trace = generate_market(small_config())
        assert [p.id for p in a_market.projects] == [p.id for p in b_market.projects]
        for pa, pb in zip(a_market.projects, b_market.projects):
            assert pa == pb
        for pid in a_market.row:
            la, lb = a_market.log(pid), b_market.log(pid)
            np.testing.assert_array_equal(la.times, lb.times)
            np.testing.assert_array_equal(la.amounts, lb.amounts)
        assert a_trace == b_trace

    def test_trace_file_is_byte_stable(self, tmp_path):
        _, trace = generate_market(small_config())
        write_trace(tmp_path / "a.jsonl", trace)
        write_trace(tmp_path / "b.jsonl", trace)
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
        first = (tmp_path / "a.jsonl").read_text().splitlines()[0]
        assert json.loads(first)["kind"] == "config"

    def test_different_seeds_differ(self):
        a, _ = generate_market(small_config(seed=1))
        b, _ = generate_market(small_config(seed=2))
        assert [p.published_time for p in a.projects] != [p.published_time for p in b.projects]


class TestScalingLaws:
    def test_doubling_budget_exactly_doubles_every_amount(self):
        for noise in (0.0, 0.3):
            base, _ = generate_market(small_config(noise=noise, budget=500.0))
            double, _ = generate_market(small_config(noise=noise, budget=1000.0))
            for pid in base.row:
                la, lb = base.log(pid), double.log(pid)
                np.testing.assert_array_equal(la.times, lb.times)
                np.testing.assert_array_equal(la.amounts * 2.0, lb.amounts)

    def test_intake_decays_monotonically_without_competition(self):
        market, _ = generate_market(small_config(kappa=0.0, pref_drift=0.0, noise=0.0))
        checked = 0
        for p in market.projects:
            log = market.log(p.id)
            if len(log) < 12:
                continue
            daily = []
            for d in range(p.duration_days):
                lo = p.published_time - (p.published_time % DAY) + d * DAY
                window = [max(lo, p.published_time), lo + DAY]
                total = np.diff(market.raised_before(market.row[p.id], window))[0]
                if total > 0:
                    daily.append(total)
            full_days = daily[1:]  # launch day is truncated by the launch hour
            assert all(a > b for a, b in zip(full_days, full_days[1:]))
            checked += 1
        assert checked >= 50

    def test_noise_zero_emits_six_equal_amounts_per_full_day(self):
        market, _ = generate_market(small_config(noise=0.0))
        p = market.projects[0]
        log = market.log(p.id)
        day_start = p.published_time - (p.published_time % DAY) + DAY
        in_day = (log.times >= day_start) & (log.times < day_start + DAY)
        assert int(in_day.sum()) == 6
        amounts = log.amounts[in_day]
        assert np.all(amounts == amounts[0])


class TestLatentStructure:
    def test_preferences_sum_to_one_each_day(self):
        _, trace = generate_market(small_config())
        for row in trace["days"]:
            assert sum(row["preferences"].values()) == pytest.approx(1.0, abs=1e-12)

    def test_zero_drift_keeps_preferences_uniform(self):
        _, trace = generate_market(small_config(pref_drift=0.0))
        for row in trace["days"]:
            for v in row["preferences"].values():
                assert v == pytest.approx(0.25, abs=1e-12)

    def test_kappa_zero_pins_divisor_to_one(self):
        _, trace = generate_market(small_config(kappa=0.0))
        assert all(row["divisor"] == 1.0 for row in trace["days"])

    def test_launches_cover_all_six_segments(self):
        market, _ = generate_market(SynthConfig(n_projects=400, days=30, seed=3))
        seen = {oracles.segment_index((p.published_time % DAY) // HOUR) for p in market.projects}
        assert seen == {0, 1, 2, 3, 4, 5}

    def test_crowding_suppresses_intake(self):
        # flat preferences so the divisor is the only day-level driver
        cfg = SynthConfig(n_projects=400, days=30, seed=9, kappa=0.8, noise=0.0,
                          pref_drift=0.0)
        market, trace = generate_market(cfg)
        divisors = {row["day"]: row["divisor"] for row in trace["days"]}
        attract = {row["id"]: row["attractiveness"] for row in trace["projects"]}
        launch = {row["id"]: row["launch_day"] for row in trace["projects"]}
        ratios, crowd = [], []
        for p in market.projects:
            raised = market.raised_before(market.row[p.id], p.published_time + 24 * HOUR)
            if raised <= 0:
                continue
            ratios.append(np.log(raised / attract[p.id]))
            crowd.append(np.log(divisors[launch[p.id]]))
        assert len(ratios) >= 200
        corr = np.corrcoef(ratios, crowd)[0, 1]
        assert corr < -0.5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(n_projects=0)
        with pytest.raises(ValueError):
            SynthConfig(kappa=-0.1)
        with pytest.raises(ValueError):
            SynthConfig(budget=0.0)

    def test_budget_whose_pledges_underflow_is_refused(self):
        """A positive budget so small that every pledge rounds to 0.0 would write
        a market that does not load."""
        with pytest.raises(ValueError, match="not positive and finite"):
            generate_market(SynthConfig(n_projects=60, days=5, budget=1e-320))

    def test_goal_grid_and_duration_grid_respected(self):
        market, _ = generate_market(small_config())
        assert {p.goal for p in market.projects} <= set(GOALS)
        assert {p.duration_days for p in market.projects} <= set(DURATIONS)
