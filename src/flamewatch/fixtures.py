"""Deterministic synthetic corpora for tests, demos and the shipped fixtures.

Comments are assembled from phrase pools chosen so the bundled mini
lexicon assigns them a known target class, letting end-to-end runs work
offline with predictable label distributions.
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone

import numpy as np

from . import check_int
from .preprocess import RawComment, write_jsonl

VERY_NEGATIVE_POOL = [
    "absolutely disgusting and horrible",
    "this is the worst thing ever",
    "what a terrible and sickening act",
    "hate it so much, truly awful",
    "evil and cruel, a total nightmare",
    "pathetic and horrific decision",
]

NEGATIVE_POOL = [
    "this is wrong in my view",
    "too bad it went this way",
    "a rather boring segment",
    "i disagree with the statement",
    "seems crazy to plan it this way",
]

NEUTRAL_POOL = [
    "the report covers the meeting from yesterday",
    "here is the schedule for the weekend",
    "they announced the update this morning",
    "the statement mentions three committees",
    "more details should follow tomorrow",
]

POSITIVE_POOL = [
    "much better than the last time",
    "an interesting angle on the story",
    "i agree with the main point",
    "not bad for a first attempt",
    "there is hope for a deal",
]

VERY_POSITIVE_POOL = [
    "great coverage, love it",
    "amazing work from the whole team",
    "excellent and well done",
    "wonderful story, thank you",
    "fantastic reporting as always",
]

POOLS = [
    VERY_NEGATIVE_POOL,
    NEGATIVE_POOL,
    NEUTRAL_POOL,
    POSITIVE_POOL,
    VERY_POSITIVE_POOL,
]

_EPOCH = datetime(2018, 2, 1, tzinfo=timezone.utc)
# Comments `synthetic_comments` (and `make-fixture --kind synthetic`) writes by default
SYNTHETIC_COMMENTS = 500


def _record(post_id: str, comment_id: str, minutes: float, message: str) -> dict:
    """The raw JSONL record of a comment `minutes` after the fixture epoch."""
    created_time = _EPOCH + timedelta(minutes=float(minutes))
    return RawComment(post_id, comment_id, created_time, message).to_dict()


def synthetic_comments(
    n_comments: int = SYNTHETIC_COMMENTS, n_posts: int = 20, seed: int = 7
) -> list[dict]:
    """Mixed-class corpus: one JSONL-ready dict per comment."""
    check_int("n_comments", n_comments, 0)
    check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n_comments):
        label = int(rng.integers(0, 5))
        pool = POOLS[label]
        message = pool[int(rng.integers(0, len(pool)))]
        # decorations are restricted to the extreme classes so they can
        # only push the score deeper into the same class
        decor = rng.random()
        if decor < 0.1 and label in (0, 4):
            message += " 🙂" if label == 4 else " 😡"
        elif decor < 0.2 and label in (0, 4):
            message += "!"
        post_id = f"p{int(rng.integers(0, n_posts)):03d}"
        records.append(_record(post_id, f"c{i:05d}", rng.uniform(0, 28 * 24 * 60), message))
    return records


def flaming_comments(
    n_posts: int = 200,
    planted: int = 3,
    planted_vn: int = 150,
    seed: int = 11,
) -> tuple[list[dict], list[str]]:
    """A month of comments with a few posts engineered to flame.

    Planted posts receive `planted_vn` very-negative comments inside a
    2-hour burst plus some positive chatter (share > 20% by a wide
    margin); background posts get a handful of mixed comments with at
    most 2 very-negative ones. Returns (records, planted_post_ids).
    """
    check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    planted_ids = [f"p{int(i):03d}" for i in
                   sorted(rng.choice(n_posts, size=planted, replace=False))]
    records = []
    serial = 0

    def add(post_id, minutes, message):
        nonlocal serial
        records.append(_record(post_id, f"c{serial:06d}", minutes, message))
        serial += 1

    for p in range(n_posts):
        post_id = f"p{p:03d}"
        post_start = rng.uniform(0, 27 * 24 * 60)
        if post_id in planted_ids:
            for _ in range(planted_vn):
                add(post_id, post_start + rng.uniform(0, 120),
                    VERY_NEGATIVE_POOL[int(rng.integers(0, len(VERY_NEGATIVE_POOL)))])
            for _ in range(40):
                add(post_id, post_start + rng.uniform(0, 24 * 60),
                    VERY_POSITIVE_POOL[int(rng.integers(0, len(VERY_POSITIVE_POOL)))])
        else:
            n_vn = int(rng.integers(0, 3))
            for _ in range(n_vn):
                add(post_id, post_start + rng.uniform(0, 24 * 60),
                    VERY_NEGATIVE_POOL[int(rng.integers(0, len(VERY_NEGATIVE_POOL)))])
            for _ in range(int(rng.integers(3, 8))):
                pool = POOLS[int(rng.integers(1, 5))]
                add(post_id, post_start + rng.uniform(0, 24 * 60),
                    pool[int(rng.integers(0, len(pool)))])
    return records, planted_ids


# the name perfbench/workloads.py writes its raw corpora with
write_raw_jsonl = write_jsonl
