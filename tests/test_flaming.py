"""Time bucketing, z-score outlier detection, bursts and reports."""

import csv
import inspect
import json
import math
import time
import tracemalloc
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flamewatch import flaming
from flamewatch.flaming import (
    MAX_BUCKETS,
    BurstWindow,
    ZScoreStats,
    aggregate,
    burst_profile,
    detect,
    event_to_dict,
    largest_z,
    post_stats,
    write_report,
    zscores,
)
from flamewatch.lexicon import LabeledComment, SentimentLabel

from conftest import EPOCH, make_clean


def labeled(label, post_id="p1", comment_id="c1", minutes=0.0):
    comment = make_clean(
        ["tok"], post_id=post_id, comment_id=comment_id, minutes=minutes
    )
    return LabeledComment(comment, float(int(label)) - 2.0, SentimentLabel(label))


def post_with_counts(vn_counts):
    """One comment per unit count; post ids p000, p001, ... in order."""
    out = []
    serial = 0
    for i, vn in enumerate(vn_counts):
        post_id = f"p{i:03d}"
        for _ in range(vn):
            out.append(labeled(0, post_id, f"c{serial}", minutes=serial))
            serial += 1
        # one neutral comment so every post exists even with 0 VN
        out.append(labeled(2, post_id, f"c{serial}", minutes=serial))
        serial += 1
    return out


class TestAggregate:
    def test_same_day_single_bucket(self):
        comments = [labeled(0, comment_id=f"c{i}", minutes=i * 60) for i in range(3)]
        buckets = aggregate(comments, width="day")
        assert len(buckets) == 1
        assert buckets[0].counts[0] == 3

    def test_gap_day_filled_with_zeros(self):
        comments = [
            labeled(0, comment_id="c1", minutes=0),
            labeled(4, comment_id="c2", minutes=2 * 24 * 60),
        ]
        buckets = aggregate(comments, width="day")
        assert len(buckets) == 3
        assert buckets[1].counts == [0] * 5
        assert [b.start for b in buckets] == sorted(b.start for b in buckets)

    def test_totals_match_corpus_recount(self):
        rng = np.random.default_rng(0)
        comments = [
            labeled(int(rng.integers(0, 5)), comment_id=f"c{i}",
                    minutes=float(rng.uniform(0, 10 * 24 * 60)))
            for i in range(300)
        ]
        for width in ("day", "hour"):
            buckets = aggregate(comments, width=width)
            totals = np.sum([b.counts for b in buckets], axis=0)
            expected = np.bincount([int(c.label) for c in comments], minlength=5)
            assert (totals == expected).all()

    def test_hour_width_buckets_on_the_hour(self):
        comments = [labeled(0, minutes=95.0)]
        buckets = aggregate(comments, width="hour")
        assert buckets[0].start.minute == 0 and buckets[0].start.hour == 1

    def test_empty_list(self):
        assert aggregate([]) == []

    @settings(max_examples=200, deadline=None)
    @given(st.datetimes(min_value=datetime(1900, 1, 1), max_value=datetime(2100, 1, 1),
                        timezones=st.just(timezone.utc)),
           st.sampled_from(["day", "hour"]))
    def test_bucket_start_is_the_calendar_floor(self, ts, width):
        comment = labeled(3, minutes=0.0)
        comment.comment.created_time = ts
        floor = {"day": dict(hour=0, minute=0, second=0, microsecond=0),
                 "hour": dict(minute=0, second=0, microsecond=0)}[width]
        [bucket] = aggregate([comment], width=width)
        assert bucket.start == ts.replace(**floor) and bucket.start.tzinfo is timezone.utc
        assert bucket.counts == [0, 0, 0, 1, 0]

    def test_unknown_width_raises(self):
        with pytest.raises(ValueError, match="unknown bucket width 'week'"):
            aggregate([labeled(0)], width="week")

    def test_span_up_to_max_buckets(self, monkeypatch):
        monkeypatch.setattr(flaming, "MAX_BUCKETS", 4)
        comments = [labeled(1, minutes=30.0), labeled(2, minutes=3 * 60.0)]
        assert len(aggregate(comments, width="hour")) == 4
        comments.append(labeled(3, minutes=4 * 60.0 + 59))
        with pytest.raises(ValueError, match=(
                r"^comments from 2018-02-01T00:30:00Z to 2018-02-01T04:59:00Z "
                r"span 5 hour buckets, above MAX_BUCKETS 4$")):
            aggregate(comments, width="hour")

    def test_stray_timestamp_refused_before_filling(self):
        stray = labeled(0)
        stray.comment.created_time = datetime(1, 1, 1, tzinfo=timezone.utc)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=(
                    f"^comments from 0001-01-01T00:00:00Z to 2018-02-01T00:00:00Z "
                    f"span 736726 day buckets, above MAX_BUCKETS {MAX_BUCKETS}$")):
                aggregate([labeled(1), stray], width="day")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16


class TestPostStats:
    def test_hand_case(self):
        comments = [
            labeled(0, "p1", "c1"), labeled(0, "p1", "c2"), labeled(2, "p1", "c3"),
        ]
        stats = post_stats(comments)
        assert len(stats) == 1
        assert stats[0].vn_count == 2
        assert stats[0].vn_share == pytest.approx(2 / 3)

    def test_no_vn_share_zero(self):
        stats = post_stats([labeled(3, "p1"), labeled(2, "p1", "c2", 1)])
        assert stats[0].vn_count == 0 and stats[0].vn_share == 0.0

    def test_sorted_by_post_id_and_recount(self):
        rng = np.random.default_rng(1)
        comments = [
            labeled(int(rng.integers(0, 5)), f"p{int(rng.integers(0, 8)):02d}",
                    f"c{i}", minutes=i)
            for i in range(200)
        ]
        stats = post_stats(comments)
        assert [s.post_id for s in stats] == sorted(s.post_id for s in stats)
        for s in stats:
            group = [c for c in comments if c.comment.post_id == s.post_id]
            vn = sum(1 for c in group if c.label == SentimentLabel.VERY_NEGATIVE)
            assert s.total == len(group)
            assert s.vn_count == vn
            assert s.vn_share == pytest.approx(vn / len(group))
            assert sum(s.label_counts) == s.total
            assert s.vn_times == [c.comment.created_time for c in group
                                  if c.label == SentimentLabel.VERY_NEGATIVE]


class TestZScores:
    def test_hand_case(self):
        stats = post_stats(post_with_counts([1, 1, 1, 1, 6]))
        zs = zscores(stats)
        assert zs.mean == pytest.approx(2.0)
        assert zs.std == pytest.approx(2.0)
        assert zs.z["p004"] == pytest.approx(2.0)

    def test_all_equal_zero_std_rule(self):
        zs = zscores(post_stats(post_with_counts([3, 3, 3])))
        assert zs.std == 0.0
        assert all(v == 0.0 for v in zs.z.values())

    def test_matches_two_pass_formula(self):
        rng = np.random.default_rng(2)
        counts = list(rng.integers(0, 40, size=60))
        zs = zscores(post_stats(post_with_counts(counts)))
        mean = sum(counts) / len(counts)
        std = math.sqrt(sum((x - mean) ** 2 for x in counts) / len(counts))
        for i, x in enumerate(counts):
            assert zs.z[f"p{i:03d}"] == pytest.approx((x - mean) / std, abs=1e-12)

    def test_standardization_invariants(self):
        rng = np.random.default_rng(3)
        counts = list(rng.integers(0, 25, size=50))
        zs = zscores(post_stats(post_with_counts(counts)))
        values = np.array(list(zs.z.values()))
        assert abs(values.sum()) < 1e-9 * len(values)
        assert values.var() == pytest.approx(1.0)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=30), min_size=3, max_size=20),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=7),
    )
    def test_affine_invariance(self, counts, a, b):
        base = zscores(post_stats(post_with_counts(counts)))
        scaled = zscores(post_stats(post_with_counts([a * x + b for x in counts])))
        for post_id, z in base.z.items():
            assert scaled.z[post_id] == pytest.approx(z, abs=1e-9)

    def test_sample_std_flag(self):
        counts = [1, 1, 1, 1, 6]
        zs = zscores(post_stats(post_with_counts(counts)), sample_std=True)
        std = math.sqrt(sum((x - 2) ** 2 for x in counts) / 4)
        assert zs.std == pytest.approx(std)

    def test_include_negative_flag(self):
        comments = [
            labeled(0, "p1", "c1"), labeled(1, "p1", "c2"),
            labeled(0, "p2", "c3", 1), labeled(2, "p2", "c4", 2),
        ]
        stats = post_stats(comments)
        vn_only = zscores(stats)
        widened = zscores(stats, include_negative=True)
        assert vn_only.mean == pytest.approx(1.0)
        assert widened.mean == pytest.approx(1.5)

    def test_fewer_than_two_posts_raises(self):
        with pytest.raises(ValueError):
            zscores(post_stats([labeled(0)]))


def quadratic_burst_profile(vn_times, window_hours=3.0):
    """The original O(n^2) scan, kept as the reference for burst_profile."""
    times = sorted(vn_times)
    width = timedelta(hours=window_hours)
    best_start, best_count = times[0], 1
    for i, start in enumerate(times):
        count = sum(1 for t in times[i:] if t <= start + width)
        if count > best_count:
            best_start, best_count = start, count
    return BurstWindow(best_start, window_hours, best_count, best_count / len(times))


class TestBurst:
    def _times(self, hours):
        return [EPOCH + timedelta(hours=h) for h in hours]

    # minutes on a coarse grid, so draws hold duplicates and points exactly
    # one window width apart; the lists come unsorted
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=600), min_size=1, max_size=60),
        st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 1 / 60, 1e-6, 100.0]),
    )
    def test_matches_quadratic_reference(self, minutes, window_hours):
        times = [EPOCH + timedelta(minutes=m) for m in minutes]
        assert burst_profile(times, window_hours) == quadratic_burst_profile(
            times, window_hours
        )

    @pytest.mark.parametrize("hours, window, start, contained", [
        ([1, 1, 1, 5, 5], 1.0, 1, 3),  # each duplicate is one comment
        ([0, 2, 4], 2.0, 0, 2),  # exactly width apart is inside
        ([0, 2, 2, 4, 4], 2.0, 2, 4),  # a later start wins only on more
        ([0, 1, 3, 4], 1.0, 0, 2),  # tie: the earliest start wins
        ([9, 0, 5, 0.5, 1], 1.0, 0, 3),  # unsorted input
        ([7], 1.0, 7, 1),  # n = 1
        ([0, 1, 2, 3], 1e-6, 0, 1),  # far below the spread
        ([0, 1, 2, 3], 1e5, 0, 4),  # far above the spread
    ])
    def test_hand_cases(self, hours, window, start, contained):
        times = self._times(hours)
        burst = burst_profile(times, window)
        assert burst == quadratic_burst_profile(times, window)
        assert burst.start == EPOCH + timedelta(hours=start)
        assert burst.contained == contained

    def test_width_beyond_timedelta_is_clamped(self):
        times = self._times([0, 50_000, 100_000])
        burst = burst_profile(times, 1e15)
        assert burst.contained == 3 and burst.window_hours == 1e15

    def test_hundred_thousand_times_is_fast(self):
        rng = np.random.default_rng(9)
        times = self._times(rng.uniform(0, 24 * 365, size=100_000))
        began = time.perf_counter()
        burst = burst_profile(times, 3.0)
        assert time.perf_counter() - began < 10.0  # the quadratic scan needs minutes
        assert 1 < burst.contained < len(times)

    def test_all_within_one_hour(self):
        burst = burst_profile(self._times([0, 0.2, 0.5, 0.9]), window_hours=3.0)
        assert burst.fraction == 1.0 and burst.contained == 4

    def test_uniform_spread_fraction(self):
        times = self._times(range(30))  # one per hour over 30h
        burst = burst_profile(times, window_hours=3.0)
        # a 3h window catches 4 hourly comments; ±1 comment granularity of 10%
        assert abs(burst.contained - 0.1 * len(times)) <= 1
        assert burst.fraction == pytest.approx(burst.contained / len(times))

    def test_single_comment(self):
        times = self._times([5])
        burst = burst_profile(times, window_hours=3.0)
        assert burst.fraction == 1.0 and burst.start == times[0]

    def test_finds_densest_window(self):
        times = self._times([0, 10, 10.5, 11, 20])
        burst = burst_profile(times, window_hours=2.0)
        assert burst.start == times[1] and burst.contained == 3

    def test_widening_never_decreases_count(self):
        rng = np.random.default_rng(4)
        times = self._times(sorted(rng.uniform(0, 48, size=25)))
        counts = [
            burst_profile(times, window_hours=w).contained
            for w in (1.0, 2.0, 4.0, 8.0)
        ]
        assert counts == sorted(counts)

    def test_no_comments_raises(self):
        with pytest.raises(ValueError):
            burst_profile([])


class TestDetect:
    def test_reads_the_callers_zscores(self):
        assert list(inspect.signature(detect).parameters) == [
            "stats", "zs", "z_threshold", "share_threshold", "window_hours",
        ]
        stats = post_stats(post_with_counts([1] * 20 + [30]))
        for zs in (zscores(stats), zscores(stats, sample_std=True)):
            events = detect(stats, zs, z_threshold=3.0)
            assert [(e.post_id, e.z) for e in events] == [("p020", zs.z["p020"])]

    @pytest.mark.parametrize("window_hours", [math.inf, -math.inf, math.nan, -1.0, 0.0])
    def test_bad_window_refused_before_any_work(self, window_hours):
        # no posts at all: the window check has to come first to be seen
        with pytest.raises(ValueError, match="window_hours"):
            detect([], ZScoreStats(0.0, 0.0, {}), window_hours=window_hours)

    def test_huge_window_holds_every_vn_comment(self):
        counts = [1] * 30 + [40]
        comments = post_with_counts(counts)
        stats = post_stats(comments)
        events = detect(stats, zscores(stats), window_hours=1e9)
        assert [e.post_id for e in events] == ["p030"]
        assert events[0].burst.contained == 40 and events[0].burst.fraction == 1.0

    @pytest.mark.parametrize("include_negative", [False, True])
    def test_event_reports_the_count_it_was_flagged_on(self, include_negative):
        comments = post_with_counts([1] * 21)
        # the last post also takes 30 Negative comments, which only VN+N can see
        comments += [labeled(1, "p020", f"n{i}", minutes=i) for i in range(30)]
        stats = post_stats(comments)
        zs = zscores(stats, include_negative=include_negative)
        events = detect(stats, zs, z_threshold=3.0)
        assert [(e.post_id, e.count, e.vn_count) for e in events] == (
            [("p020", 31, 1)] if include_negative else [])
        for e in events:
            assert e.z == pytest.approx((e.count - zs.mean) / zs.std, abs=1e-12)
            assert event_to_dict(e)["count"] == e.count

    @pytest.mark.parametrize("sample_std", [False, True])
    @pytest.mark.parametrize("posts", [2, 3, 21, 27, 200])
    def test_largest_z_is_one_post_above_equal_ones(self, posts, sample_std):
        stats = post_stats(post_with_counts([1] * (posts - 1) + [9]))
        top = max(zscores(stats, sample_std=sample_std).z.values())
        assert top == pytest.approx(largest_z(posts, sample_std), rel=1e-12)
        rng = np.random.default_rng(posts)
        for _ in range(20):
            stats = post_stats(post_with_counts(rng.integers(0, 6, size=posts).tolist()))
            z = zscores(stats, sample_std=sample_std).z.values()
            assert max(z) <= largest_z(posts, sample_std) + 1e-12

    def test_uniform_counts_no_events(self):
        stats = post_stats(post_with_counts([2] * 10))
        events = detect(stats, zscores(stats))
        assert events == []

    def test_plant_and_recover(self):
        counts = [int(x) for x in np.random.default_rng(5).integers(0, 3, size=197)]
        counts += [150, 160, 170]
        comments = post_with_counts(counts)
        stats = post_stats(comments)
        events = detect(stats, zscores(stats), z_threshold=5.0)
        assert {e.post_id for e in events} == {"p197", "p198", "p199"}
        assert [e.post_id for e in events] == ["p199", "p198", "p197"]  # z desc
        for e in events:
            assert e.share_exceeded and e.vn_share > 0.20
            assert e.burst is not None and 0 < e.burst.fraction <= 1

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(6)
        counts = list(rng.integers(0, 10, size=50)) + [200, 250]
        stats = post_stats(post_with_counts(counts))
        zs = zscores(stats)
        previous = None
        for threshold in (0.5, 1.0, 2.0, 5.0, 10.0):
            flagged = {e.post_id for e in detect(stats, zs, z_threshold=threshold)}
            if previous is not None:
                assert flagged <= previous
            previous = flagged

    def test_share_annotation_without_exceeding(self):
        # one heavy-traffic post: large VN count but small VN share
        comments = post_with_counts([0] * 30)
        serial = 10000
        for i in range(50):
            comments.append(labeled(0, "p000", f"x{serial}", minutes=serial))
            serial += 1
        for i in range(450):
            comments.append(labeled(3, "p000", f"x{serial}", minutes=serial))
            serial += 1
        stats = post_stats(comments)
        events = detect(stats, zscores(stats))
        assert [e.post_id for e in events] == ["p000"]
        assert events[0].vn_share == pytest.approx(50 / 501)
        assert not events[0].share_exceeded

    def test_high_share_flagged(self):
        # a post whose comments are ~64% Very Negative, like a genuine pile-on
        comments = post_with_counts([1] * 40)
        serial = 20000
        for i in range(61):
            comments.append(labeled(0, "p000", f"y{serial}", minutes=serial))
            serial += 1
        for i in range(35):
            comments.append(labeled(2, "p000", f"y{serial}", minutes=serial))
            serial += 1
        stats = post_stats(comments)
        events = detect(stats, zscores(stats))
        flagged = {e.post_id: e for e in events}
        assert "p000" in flagged
        assert flagged["p000"].share_exceeded
        assert flagged["p000"].vn_share > 0.6


class TestReport:
    def _events_and_buckets(self):
        counts = [1, 1, 1, 1, 50]
        comments = post_with_counts(counts)
        stats = post_stats(comments)
        events = detect(stats, zscores(stats), z_threshold=1.0)
        buckets = aggregate(comments, width="hour")
        return events, buckets

    def test_json_holds_event_dicts(self, tmp_path):
        events, buckets = self._events_and_buckets()
        json_path = tmp_path / "events.json"
        csv_path = tmp_path / "timeseries.csv"
        write_report(events, buckets, json_path, csv_path)
        with open(json_path, encoding="utf-8") as fh:
            assert json.load(fh) == {"events": [event_to_dict(e) for e in events]}

    def test_csv_row_count_and_header(self, tmp_path):
        events, buckets = self._events_and_buckets()
        json_path = tmp_path / "events.json"
        csv_path = tmp_path / "timeseries.csv"
        write_report(events, buckets, json_path, csv_path)
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["bucket_start", "label0", "label1", "label2",
                           "label3", "label4"]
        assert len(rows) == len(buckets) + 1

    def test_empty_events_valid_report(self, tmp_path):
        json_path = tmp_path / "events.json"
        csv_path = tmp_path / "timeseries.csv"
        write_report([], [], json_path, csv_path)
        with open(json_path, encoding="utf-8") as fh:
            assert json.load(fh) == {"events": []}

    def test_event_dict_fields(self):
        events, _ = self._events_and_buckets()
        payload = event_to_dict(events[0])
        assert set(payload) == {
            "post_id", "z", "count", "vn_count", "vn_share", "share_exceeded", "burst",
        }
        assert set(payload["burst"]) == {
            "start", "window_hours", "contained", "fraction",
        }

    def test_failed_write_leaves_previous_report(self, tmp_path):
        events, buckets = self._events_and_buckets()
        json_path = tmp_path / "events.json"
        csv_path = tmp_path / "timeseries.csv"
        write_report(events, buckets, json_path, csv_path)
        before = json_path.read_bytes(), csv_path.read_bytes()
        buckets[-1].counts = None  # the CSV row cannot be built
        with pytest.raises(TypeError):
            write_report([], buckets, json_path, csv_path)
        assert (json_path.read_bytes(), csv_path.read_bytes()) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["events.json", "timeseries.csv"]
