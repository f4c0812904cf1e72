"""Seeded input generators for the benchmark workloads.

Every generator takes the workload seed and a path and writes raw comment
JSONL there. The main-corpus generators (`MAIN`) also return the facts the
output checks need (lines written, planted posts). Sizes are fixed; the
seed only changes content, order and timestamps, so runs on different
seeds do the same amount of work.

Comment text comes from the `flamewatch.fixtures` phrase pools, so the
bundled mini lexicon gives every comment a known class. Decorations that
could move a comment across a class boundary (CAPS, "!!!", emoji) are put
only on the two extreme classes, where they push the score deeper into the
same class, as `fixtures.synthetic_comments` does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from flamewatch import data_path, fixtures, lexicon, porter

VN, NEU, VP = 0, 2, 4  # label codes used here
_EPOCH = datetime(2018, 2, 1, tzinfo=timezone.utc)
_MONTH_MIN = 27 * 24 * 60
_DAY_MIN = 24 * 60

# Filler tokens used as noise; none of them (nor what preprocessing turns
# them into: "lol", "hm", "oh", "ugh", "omg", "yes") is a lexicon token.
_RUN_FILLERS = ("lolll", "hmmmm", "ohhhh", "ughhh")
_SPACED_FILLERS = ("o m g", "l o l", "y e s")
_NEG_EMOJI = ("😡", "😠", "🤬")
_POS_EMOJI = ("😀", "😊", "😃")

BIGVOCAB_WORDS = 6000  # filler vocabulary of the bigvocab corpus
BIGVOCAB_COMMENTS = 700
TAIL_COMMENTS = 400
SIDE_COMMENTS = 300


@dataclass
class Generated:
    """A workload's main corpus and the facts its output checks need."""

    main_raw: Path
    main_lines: int
    planted: list[str]


def _timestamp(minutes: float) -> str:
    return (_EPOCH + timedelta(minutes=float(minutes))).isoformat().replace("+00:00", "Z")


def _pick(rng, pool):
    return pool[int(rng.integers(0, len(pool)))]


def _write(lines: list[str], path: Path) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
    return len(lines)


class _Posts:
    """Collects comment records; `post()` hands out post ids in order."""

    def __init__(self, rng):
        self.rng = rng
        self.records: list[dict] = []
        self.n_posts = 0

    def post(self) -> tuple[str, float]:
        post_id = f"p{self.n_posts:05d}"
        self.n_posts += 1
        return post_id, float(self.rng.uniform(0, _MONTH_MIN))

    def add(self, post_id: str, minutes: float, message: str) -> None:
        self.records.append({
            "post_id": post_id,
            "comment_id": f"c{len(self.records):07d}",
            "created_time": _timestamp(minutes),
            "message": message,
        })

    def background(self, post_id: str, start: float, n: int, text) -> None:
        """n comments over a day: at most 2 Very Negative, the rest mixed."""
        n_vn = int(self.rng.integers(0, 3))
        for i in range(n):
            label = VN if i < n_vn else int(self.rng.integers(1, 5))
            self.add(post_id, start + self.rng.uniform(0, _DAY_MIN), text(label))

    def pile_on(self, post_id: str, start: float, n_vn: int, text, chatter: int) -> None:
        """n_vn Very Negative comments inside two hours, plus positive chatter."""
        for _ in range(n_vn):
            self.add(post_id, start + self.rng.uniform(0, 120), text(VN))
        for _ in range(chatter):
            self.add(post_id, start + self.rng.uniform(0, _DAY_MIN), text(VP))

    def build(self, text, n_background: int, pile_sizes, per_post, chatter: int) -> list[str]:
        """Background posts and one pile-on per entry of `pile_sizes`, placed
        at seeded positions; returns the planted post ids."""
        n_posts = n_background + len(pile_sizes)
        at = sorted(int(i) for i in self.rng.choice(n_posts, size=len(pile_sizes), replace=False))
        sizes = dict(zip(at, pile_sizes))
        planted = []
        for i in range(n_posts):
            post_id, start = self.post()
            if i in sizes:
                self.pile_on(post_id, start, sizes[i], text, chatter)
                planted.append(post_id)
            else:
                self.background(post_id, start, per_post(), text)
        return planted

    def fill(self, comments: int, text) -> None:
        """Top up to `comments` records with one more ordinary post."""
        post_id, start = self.post()
        for _ in range(comments - len(self.records)):
            label = int(self.rng.integers(1, 5))
            self.add(post_id, start + self.rng.uniform(0, _DAY_MIN), text(label))

    def lines(self) -> list[str]:
        return [json.dumps(r, ensure_ascii=False) for r in self.records]


def _noisy_text(rng, label: int) -> str:
    """One pool phrase wrapped in social-media noise the preprocessor strips."""
    words = [_pick(rng, fixtures.POOLS[label])]
    if label in (VN, VP):
        r = rng.random()
        if r < 0.25:
            words[0] = words[0].upper()
        elif r < 0.5:
            words[0] += "!!!"
        if rng.random() < 0.3:
            words.append(_pick(rng, _NEG_EMOJI if label == VN else _POS_EMOJI))
    if rng.random() < 0.3:
        words.append(f"https://t.co/{int(rng.integers(0, 1 << 40)):x}")
    if rng.random() < 0.2:
        words.insert(0, f"@user{int(rng.integers(0, 10000))}")
    if rng.random() < 0.2:
        words.append(f"#topic{int(rng.integers(0, 500))}")
    if rng.random() < 0.1:
        words.insert(0, "RT")
    if rng.random() < 0.2:
        words.append(_pick(rng, _RUN_FILLERS))
    if rng.random() < 0.1:
        words.append(_pick(rng, _SPACED_FILLERS))
    return " ".join(words)


def ingest_pileup(seed: int, path: Path) -> Generated:
    """Noisy raw JSONL: many small posts plus three two-hour pile-ons of
    thousands of Very Negative comments."""
    rng = np.random.default_rng([seed, 1])
    posts = _Posts(rng)
    text = lambda label: _noisy_text(rng, label)  # noqa: E731
    planted = posts.build(text, 750, (2000, 1000, 1000),
                          per_post=lambda: int(rng.integers(2, 7)), chatter=40)
    lines = posts.lines()
    # URL-only comments (dropped by preprocess) and malformed lines (line errors)
    for k in range(len(lines) // 50):
        at = int(rng.integers(0, len(lines)))
        post_id = json.loads(lines[at])["post_id"]
        lines.insert(at, json.dumps({
            "post_id": post_id, "comment_id": f"u{k:06d}",
            "created_time": _timestamp(rng.uniform(0, _MONTH_MIN)),
            "message": f"https://example.com/{k} @someone #tag",
        }))
    for k in range(len(lines) // 200):
        at = int(rng.integers(0, len(lines)))
        lines.insert(at, '{"post_id": "p0", "comment_id": ' if k % 2 else
                     json.dumps({"post_id": "p0", "comment_id": f"e{k}", "message": "hi"}))
    return Generated(path, _write(lines, path), planted)


def _pseudo_words(rng, n: int) -> list[str]:
    """n distinct consonant-vowel words that preprocessing leaves unchanged
    and that are not lexicon tokens."""
    consonants = np.array(list("bdfgklmnprtvz"))
    vowels = np.array(list("aiou"))
    lex, _ = lexicon.load_lexicon(data_path("mini_lexicon.tsv"))
    reserved = {tok for entry in lex.entries for tok in entry.phrase}
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < n:
        syllables = int(rng.integers(2, 5))
        word = "".join(
            c + v for c, v in zip(rng.choice(consonants, syllables), rng.choice(vowels, syllables))
        )
        if word in seen or word in reserved or porter.stem(word) != word:
            continue
        seen.add(word)
        words.append(word)
    return words


def train_bigvocab(seed: int, path: Path) -> Generated:
    """Clean text with a Zipf filler vocabulary of `BIGVOCAB_WORDS` words.

    Every filler word occurs at least once, so with --min-count 1 the
    embedding vocabulary is about `BIGVOCAB_WORDS` plus the pool words. On
    top of that coverage, 500 extra filler tokens follow a Zipf(1) law.
    """
    rng = np.random.default_rng([seed, 2])
    words = _pseudo_words(rng, BIGVOCAB_WORDS)
    ranks = 1.0 / np.arange(1, BIGVOCAB_WORDS + 1)
    extra = rng.choice(BIGVOCAB_WORDS, size=500, p=ranks / ranks.sum())
    fillers = np.concatenate([rng.permutation(BIGVOCAB_WORDS), extra])
    slot = iter(np.array_split(fillers, BIGVOCAB_COMMENTS))

    def text(label: int) -> str:
        phrase = _pick(rng, fixtures.POOLS[label])
        return " ".join([phrase, *(words[i] for i in next(slot))])

    posts = _Posts(rng)
    planted = posts.build(text, 98, (40, 40), per_post=lambda: 6, chatter=10)
    posts.fill(BIGVOCAB_COMMENTS, text)  # the coverage slots left over
    return Generated(path, _write(posts.lines(), path), planted)


def _long_text(rng, label: int, extra: int) -> str:
    """One phrase of the class, then `extra` neutral sentences, each followed
    by another phrase of the class."""
    parts = [_pick(rng, fixtures.POOLS[label])]
    for _ in range(extra):
        parts.append(_pick(rng, fixtures.NEUTRAL_POOL))
        if label != NEU:
            parts.append(_pick(rng, fixtures.POOLS[label]))
    return " ".join(parts)


def long_tail(seed: int, path: Path) -> None:
    """Comments whose token counts have a long tail past max_tokens=30.

    The number of extra sentences per comment follows the quantiles of
    2 * Lomax(1.2), capped at 30, in a seeded order: every seed gets the same
    lengths, so the work does not depend on the seed. About a third of the
    comments exceed 30 tokens.
    """
    rng = np.random.default_rng([seed, 3])
    quantiles = (np.arange(TAIL_COMMENTS) + 0.5) / TAIL_COMMENTS
    extras = np.minimum(2.0 * ((1 - quantiles) ** (-1 / 1.2) - 1), 30).astype(int)
    posts = _Posts(rng)
    for extra in rng.permutation(extras):
        post_id, start = posts.post()
        posts.add(post_id, start, _long_text(rng, int(rng.integers(0, 5)), int(extra)))
    _write(posts.lines(), path)


def side_corpus(seed: int, path: Path) -> None:
    """A small mixed-class corpus for the stages a workload does not stress."""
    fixtures.write_raw_jsonl(fixtures.synthetic_comments(SIDE_COMMENTS, n_posts=20, seed=seed),
                             path)


# The main corpus of each workload, and the extra corpora a plan can name.
MAIN = {
    "ingest-pileup": ingest_pileup,
    "model-bigvocab-longtail": train_bigvocab,
}
EXTRA = {"side": side_corpus, "tail": long_tail}
