"""Flaming-event detection over labeled comment streams.

Pipeline: one pass over the labeled comments (`post_stats`) keeps, per post,
the comment total, the five label counts and the Very-Negative times;
`zscores` standardizes the per-post Very-Negative counts (optionally VN+N);
`detect` flags the posts above the z threshold and annotates each with the
count its z-score standardized, its Very-Negative count and share, and the
densest short time window of its Very-Negative times. No z-score of n posts
exceeds `largest_z` (sqrt(n - 1) for the population std), so too few posts
can flag none. `aggregate` buckets the comments into the daily/hourly time
series that `write_report` writes beside the events.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

from . import atomic_write
from .lexicon import CLASSES, LabeledComment, SentimentLabel
from .preprocess import format_timestamp

VERY_NEGATIVE = SentimentLabel.VERY_NEGATIVE
NEGATIVE = SentimentLabel.NEGATIVE


@dataclass
class TimeBucket:
    start: datetime
    counts: list[int]  # indexed by label code 0..4


@dataclass
class PostStats:
    post_id: str
    total: int
    label_counts: list[int]  # indexed by label code 0..4
    vn_times: list[datetime]  # in input order

    @property
    def vn_count(self) -> int:
        return self.label_counts[VERY_NEGATIVE]

    @property
    def vn_share(self) -> float:
        return self.vn_count / self.total

    def count(self, include_negative: bool = False) -> int:
        """The count `zscores` standardizes: Very-Negative, or VN+N."""
        return self.vn_count + (self.label_counts[NEGATIVE] if include_negative else 0)


@dataclass
class ZScoreStats:
    mean: float
    std: float  # population by default
    z: dict[str, float]  # post_id -> z value
    include_negative: bool = False  # whether the standardized counts are VN+N


@dataclass
class BurstWindow:
    start: datetime
    window_hours: float
    contained: int
    fraction: float


@dataclass
class FlamingEvent:
    post_id: str
    z: float
    count: int  # the count z standardized: vn_count, or VN+N with include_negative
    vn_count: int
    vn_share: float
    share_exceeded: bool
    burst: BurstWindow | None = None


_UNIX_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_BUCKET_STEPS = {"day": timedelta(days=1), "hour": timedelta(hours=1)}
# Most buckets a time series may span: about 30 years of hours or 700 years of
# days. Filling 2**18 hourly buckets peaks near 60 MiB (tracemalloc), where one
# stray comment dated in year 1 could ask for millions of empty buckets.
MAX_BUCKETS = 2 ** 18
# What `detect` flags by default: a z-score above Z_THRESHOLD; its event says
# whether the Very-Negative share is above SHARE_THRESHOLD and gives the densest
# WINDOW_HOURS window of the post's Very-Negative times (`burst_profile`)
Z_THRESHOLD = 5.0
SHARE_THRESHOLD = 0.20
WINDOW_HOURS = 3.0


def aggregate(labeled: list[LabeledComment], width: str = "day") -> list[TimeBucket]:
    """Per-bucket label counts, with empty buckets filled between first and last.

    A comment's bucket is the whole number of steps from the Unix epoch to its
    time, so a bucket starts at a UTC midnight (day) or a UTC hour (hour). A
    span of more than MAX_BUCKETS buckets raises ValueError naming the first
    and last comment times.
    """
    step = _BUCKET_STEPS.get(width)
    if step is None:
        raise ValueError(f"unknown bucket width {width!r}")
    counts: dict[int, list[int]] = {}
    for lc in labeled:
        index = (lc.comment.created_time - _UNIX_EPOCH) // step
        counts.setdefault(index, [0] * CLASSES)[lc.label] += 1
    if not counts:
        return []
    first, last = min(counts), max(counts)
    if last - first >= MAX_BUCKETS:
        times = [lc.comment.created_time for lc in labeled]
        raise ValueError(
            f"comments from {format_timestamp(min(times))} to {format_timestamp(max(times))} "
            f"span {last - first + 1} {width} buckets, above MAX_BUCKETS {MAX_BUCKETS}")
    return [
        TimeBucket(_UNIX_EPOCH + index * step, counts.get(index, [0] * CLASSES))
        for index in range(first, last + 1)
    ]


def post_stats(labeled: list[LabeledComment]) -> list[PostStats]:
    """Per-post counters and Very-Negative times from one pass, by post id."""
    by_post: dict[str, PostStats] = {}
    for lc in labeled:
        comment = lc.comment
        s = by_post.get(comment.post_id)
        if s is None:
            s = by_post[comment.post_id] = PostStats(comment.post_id, 0, [0] * CLASSES, [])
        s.total += 1
        s.label_counts[lc.label] += 1
        if lc.label == VERY_NEGATIVE:
            s.vn_times.append(comment.created_time)
    return [by_post[post_id] for post_id in sorted(by_post)]


def zscores(
    stats: list[PostStats],
    sample_std: bool = False,
    include_negative: bool = False,
) -> ZScoreStats:
    """Standardize per-post Very-Negative counts (optionally VN+N)."""
    if len(stats) < 2:
        raise ValueError("need at least 2 posts to compute z-scores")

    xs = [s.count(include_negative) for s in stats]
    n = len(xs)
    mean = sum(xs) / n
    var = sum((x - mean) ** 2 for x in xs) / (n - 1 if sample_std else n)
    std = math.sqrt(var)
    if std == 0:
        z = {s.post_id: 0.0 for s in stats}
    else:
        z = {s.post_id: (x - mean) / std for s, x in zip(stats, xs)}
    return ZScoreStats(mean=mean, std=std, z=z, include_negative=include_negative)


def largest_z(n: int, sample_std: bool = False) -> float:
    """The largest z-score any of n posts can reach, that of one post above
    n - 1 equal ones: sqrt(n - 1), or (n - 1) / sqrt(n) with the sample std."""
    return (n - 1) / math.sqrt(n) if sample_std else math.sqrt(n - 1)


def burst_profile(
    vn_times: list[datetime], window_hours: float = WINDOW_HOURS
) -> BurstWindow:
    """Window of the given width holding the most Very-Negative comments.

    Candidate windows are anchored at each comment timestamp, which is
    sufficient: any optimal window can be slid right until its left edge
    touches a comment. The times are sorted once and swept with two
    pointers; the right one never moves back, so the sweep is linear. A
    window is inclusive (t is in it when t - start <= width), and on a tie
    the earliest start wins. Differences are compared, never start + width,
    and a width beyond what timedelta can hold is clamped to timedelta.max,
    so no width overflows datetime.
    """
    if not vn_times:
        raise ValueError("post has no Very Negative comments")
    times = sorted(vn_times)
    try:
        width = timedelta(hours=window_hours)
    except OverflowError:
        width = timedelta.max
    best_start, best_count = times[0], 1
    end = 0
    for i, start in enumerate(times):
        while end < len(times) and times[end] - start <= width:
            end += 1
        if end - i > best_count:
            best_start, best_count = start, end - i
    return BurstWindow(
        start=best_start,
        window_hours=window_hours,
        contained=best_count,
        fraction=best_count / len(times),
    )


def detect(
    stats: list[PostStats],
    zs: ZScoreStats,
    z_threshold: float = Z_THRESHOLD,
    share_threshold: float = SHARE_THRESHOLD,
    window_hours: float = WINDOW_HOURS,
) -> list[FlamingEvent]:
    """Posts whose z-score in `zs` exceeds the threshold, z-descending, each
    with the densest burst of its Very-Negative times."""
    if not (math.isfinite(window_hours) and window_hours > 0):
        raise ValueError(f"window_hours must be finite and above 0, got {window_hours!r}")
    for name, value in (("z_threshold", z_threshold), ("share_threshold", share_threshold)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    events = []
    for s in stats:
        z = zs.z[s.post_id]
        if z > z_threshold:
            burst = burst_profile(s.vn_times, window_hours) if s.vn_times else None
            events.append(FlamingEvent(
                post_id=s.post_id,
                z=z,
                count=s.count(zs.include_negative),
                vn_count=s.vn_count,
                vn_share=s.vn_share,
                share_exceeded=s.vn_share > share_threshold,
                burst=burst,
            ))
    events.sort(key=lambda e: (-e.z, e.post_id))
    return events


def event_to_dict(e: FlamingEvent) -> dict:
    """The event's fields in declaration order, with the burst start as text."""
    d = asdict(e)
    if e.burst is not None:
        d["burst"]["start"] = format_timestamp(e.burst.start)
    return d


def write_report(
    events: list[FlamingEvent], buckets: list[TimeBucket], json_path, csv_path
) -> None:
    """Events as JSON plus the time series as a plottable CSV, atomically;
    both texts are built before either file is replaced."""
    report = json.dumps({"events": [event_to_dict(e) for e in events]}, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["bucket_start"] + [f"label{label:d}" for label in SentimentLabel])
    for b in buckets:
        writer.writerow([format_timestamp(b.start)] + list(b.counts))
    table = buf.getvalue()
    atomic_write(json_path, lambda tmp: Path(tmp).write_text(report, encoding="utf-8"))
    atomic_write(csv_path, lambda tmp: Path(tmp).write_text(table, encoding="utf-8"))
