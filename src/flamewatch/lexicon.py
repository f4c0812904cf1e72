"""Phrase-lexicon sentiment scoring and 5-class labeling.

A comment's score is

    (sum of matched phrase scores + C + S + E) / (N + |C| + |S| + |E|)

where N counts matched phrases, C rewards fully-capitalized matches,
S rewards matches ending in "!", and E sums emoji polarities. The
absolute values in the denominator keep the score inside [-1, 1]; a
strict mode with the raw signed denominator is available, and raises when
that denominator is zero or negative, which would flip or lose the sign.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from enum import IntEnum

from . import check_int
from .preprocess import (
    CleanComment, LineError, _bad_line, normalize_text, read_jsonl, read_lines, stem, tokenize,
    write_jsonl,
)


class SentimentLabel(IntEnum):
    VERY_NEGATIVE = 0
    NEGATIVE = 1
    NEUTRAL = 2
    POSITIVE = 3
    VERY_POSITIVE = 4


CLASSES = len(SentimentLabel)


@dataclass(frozen=True)
class LexiconEntry:
    phrase: tuple[str, ...]
    score: float


@dataclass
class Lexicon:
    """Phrase entries plus two derived lookups: `index` maps a phrase to its
    entry, and `starts` maps a phrase's first token to the phrase lengths
    present, longest first. `starts` keeps only lengths up to `max_n`, so a
    longer phrase can never match."""

    entries: list[LexiconEntry]
    max_n: int = 4
    index: dict[tuple[str, ...], LexiconEntry] = field(init=False, repr=False)
    starts: dict[str, tuple[int, ...]] = field(init=False, repr=False)

    def __post_init__(self):
        self.index = {e.phrase: e for e in self.entries}
        lengths: dict[str, set[int]] = {}
        for phrase in self.index:
            if 1 <= len(phrase) <= self.max_n:
                lengths.setdefault(phrase[0], set()).add(len(phrase))
        self.starts = {tok: tuple(sorted(ns, reverse=True)) for tok, ns in lengths.items()}


@dataclass(frozen=True)
class Match:
    entry: LexiconEntry
    start: int
    end: int  # exclusive


@dataclass
class ScoreBreakdown:
    matches: list[Match]
    sum_L: float
    C: int
    S: int
    E: int

    @property
    def N(self) -> int:
        return len(self.matches)


class StrictDenominatorError(ValueError):
    """Raised in strict mode when N + C + S + E is zero or negative while any
    of them is not zero."""


def preprocess_phrase(raw_phrase: str) -> tuple[str, ...]:
    """Run a lexicon phrase through the same normalize/stem pipeline as comments."""
    return tuple(stem(tok) for tok, _, _ in tokenize(normalize_text(raw_phrase)))


def load_lexicon(path, max_n: int = Lexicon.max_n) -> tuple[Lexicon, list[LineError]]:
    """Load "phrase<TAB>score" lines; an invalid entry is skipped and recorded
    as a LineError, and a line that is not UTF-8 raises as `read_lines`."""
    check_int("max_n", max_n, 1)
    entries: list[LexiconEntry] = []
    seen: dict[tuple[str, ...], int] = {}
    rejects: list[LineError] = []
    for lineno, line in read_lines(path):
        line = line.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            _bad_line(path, lineno, "expected phrase<TAB>score", rejects)
            continue
        try:
            score = float(parts[1])
        except ValueError:
            _bad_line(path, lineno, f"bad score {parts[1]!r}", rejects)
            continue
        if not -1.0 <= score <= 1.0:
            _bad_line(path, lineno, f"score {score} outside [-1, 1]", rejects)
            continue
        phrase = preprocess_phrase(parts[0])
        if not 1 <= len(phrase) <= max_n:
            _bad_line(path, lineno, f"phrase has {len(phrase)} tokens (limit {max_n})", rejects)
            continue
        if phrase in seen:
            _bad_line(path, lineno, f"duplicate of line {seen[phrase]}", rejects)
            continue
        seen[phrase] = lineno
        entries.append(LexiconEntry(phrase, score))
    return Lexicon(entries, max_n=max_n), rejects


def load_emoji_table(path) -> dict[str, int]:
    """Load "emoji<TAB>+1|-1" lines; a bad line, or one that repeats an earlier
    line's emoji, raises ValueError naming the file and line."""
    table: dict[str, int] = {}
    seen: dict[str, int] = {}
    for lineno, line in read_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            emoji, polarity = line.split("\t")
            value = int(polarity)
        except ValueError:
            _bad_line(path, lineno, f"expected emoji<TAB>+1|-1, got {line!r}")
        if value not in (1, -1):
            _bad_line(path, lineno, f"emoji polarity must be +1 or -1, got {polarity}")
        if emoji in seen:
            _bad_line(path, lineno, f"emoji {emoji!r} repeats line {seen[emoji]}")
        seen[emoji] = lineno
        table[emoji] = value
    return table


def match_lexicons(comment: CleanComment, lex: Lexicon) -> list[Match]:
    """Greedy left-to-right longest match over stemmed token n-grams, at most
    `lex.max_n` tokens long.

    At each position, `lex.starts` gives the phrase lengths that begin with
    that token, longest first; a token that starts no phrase is passed over
    with one lookup, and only lengths that fit before the end are tried.
    """
    tokens = comment.tokens
    index, starts = lex.index, lex.starts
    end = len(tokens)
    matches: list[Match] = []
    i = 0
    while i < end:
        for n in starts.get(tokens[i], ()):
            if i + n <= end:
                entry = index.get(tuple(tokens[i:i + n]))
                if entry is not None:
                    matches.append(Match(entry, i, i + n))
                    i += n
                    break
        else:
            i += 1
    return matches


def _polarity(score: float) -> int:
    return 1 if score > 0 else (-1 if score < 0 else 0)


def compute_C(matches: list[Match], caps_flags: list[bool]) -> int:
    """+/-1 per match whose whole span was written in capitals."""
    return sum(
        _polarity(m.entry.score)
        for m in matches
        if all(caps_flags[m.start:m.end])
    )


def compute_S(matches: list[Match], exclaim_flags: list[bool]) -> int:
    """+/-1 per match whose final token is attached to a "!"."""
    return sum(
        _polarity(m.entry.score) for m in matches if exclaim_flags[m.end - 1]
    )


def compute_E(emojis: list[str], table: dict[str, int]) -> int:
    return sum(table.get(e, 0) for e in emojis)


def senti_score(b: ScoreBreakdown, strict: bool = False) -> float:
    if strict:
        denom = b.N + b.C + b.S + b.E
        if denom <= 0 and (b.N or b.C or b.S or b.E):
            raise StrictDenominatorError(
                f"signed denominator {denom} is not positive (N={b.N} C={b.C} S={b.S} E={b.E})"
            )
    else:
        denom = b.N + abs(b.C) + abs(b.S) + abs(b.E)
    if denom == 0:
        return 0.0
    return (b.sum_L + b.C + b.S + b.E) / denom


def classify(score: float) -> SentimentLabel:
    if score >= 0.5:
        return SentimentLabel.VERY_POSITIVE
    if score > 0:
        return SentimentLabel.POSITIVE
    if score == 0:
        return SentimentLabel.NEUTRAL
    if score > -0.5:
        return SentimentLabel.NEGATIVE
    return SentimentLabel.VERY_NEGATIVE


def score_comment(
    comment: CleanComment,
    lex: Lexicon,
    emoji_table: dict[str, int],
    strict: bool = False,
) -> tuple[ScoreBreakdown, float]:
    matches = match_lexicons(comment, lex)
    breakdown = ScoreBreakdown(
        matches=matches,
        sum_L=sum(m.entry.score for m in matches),
        C=compute_C(matches, comment.caps_flags),
        S=compute_S(matches, comment.exclaim_flags),
        E=compute_E(comment.emojis, emoji_table),
    )
    return breakdown, senti_score(breakdown, strict=strict)


@dataclass
class LabeledComment:
    comment: CleanComment
    score: float
    label: SentimentLabel

    def to_dict(self) -> dict:
        """The clean record plus "score" and "label"."""
        return {**self.comment.to_dict(), "score": self.score, "label": int(self.label)}

    @classmethod
    def from_dict(cls, obj: dict) -> LabeledComment:
        """Inverse of to_dict: the clean record, "score" a finite JSON number and
        "label" a JSON integer, a SentimentLabel code (a bool is neither)."""
        comment = CleanComment.from_dict(obj)
        score, label = obj["score"], obj["label"]
        if type(score) not in (int, float) or not math.isfinite(score):
            raise ValueError(f"score must be a finite number, got {score!r}")
        if type(label) is not int or not 0 <= label < CLASSES:
            raise ValueError(f"label must be an integer 0-{CLASSES - 1}, got {label!r}")
        return cls(comment, float(score), SentimentLabel(label))


def label_corpus(
    comments: list[CleanComment],
    lex: Lexicon,
    emoji_table: dict[str, int],
    strict: bool = False,
) -> tuple[list[LabeledComment], Counter]:
    """Score every comment; returns the labeled list and a class distribution.
    In strict mode a StrictDenominatorError names the comment id."""
    labeled: list[LabeledComment] = []
    distribution: Counter = Counter()
    for comment in comments:
        try:
            _, score = score_comment(comment, lex, emoji_table, strict=strict)
        except StrictDenominatorError as exc:
            raise StrictDenominatorError(f"comment {comment.comment_id}: {exc}") from None
        label = classify(score)
        labeled.append(LabeledComment(comment, score, label))
        distribution[label] += 1
    return labeled, distribution


def save_labeled_jsonl(labeled: list[LabeledComment], path) -> None:
    write_jsonl((lc.to_dict() for lc in labeled), path)


def load_labeled_jsonl(path) -> list[LabeledComment]:
    return list(read_jsonl(path, LabeledComment.from_dict))
