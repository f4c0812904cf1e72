"""Shared builders for the test suite."""

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import settings

from flamewatch.lexicon import Lexicon, LexiconEntry
from flamewatch.preprocess import CleanComment

EPOCH = datetime(2018, 2, 1, tzinfo=timezone.utc)

# Property tests draw the same examples on every run (seeded from each test
# function; a test's own @seed still wins) and keep no example database.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def make_clean(
    tokens,
    caps=None,
    excl=None,
    emojis=None,
    post_id="p1",
    comment_id="c1",
    minutes=0.0,
    text="",
):
    """CleanComment with sane defaults for flag lists and timestamps."""
    return CleanComment(
        post_id=post_id,
        comment_id=comment_id,
        created_time=EPOCH + timedelta(minutes=minutes),
        tokens=list(tokens),
        emojis=list(emojis or []),
        caps_flags=list(caps) if caps is not None else [False] * len(tokens),
        exclaim_flags=list(excl) if excl is not None else [False] * len(tokens),
        original_text=text,
    )


def ten_letter_sentences(words=4000, seed=0):
    """Sentences of ten random ten-letter words, in which each of `words` words
    occurs twice. At the default 4000 words the n-grams of the vocabulary hash
    to over 100k distinct ids at 2**21 buckets."""
    rng = np.random.default_rng(seed)
    letters = rng.integers(ord("a"), ord("z") + 1, size=(words, 10), dtype=np.uint32)
    vocab = [row.tobytes().decode("utf-32-le") for row in letters]
    tokens = [vocab[i] for i in rng.permutation(np.repeat(np.arange(words), 2))]
    return [tokens[i:i + 10] for i in range(0, len(tokens), 10)]


def make_lexicon(phrase_scores, max_n=4):
    """Lexicon from {"already stemmed phrase": score}; no normalization applied."""
    entries = [
        LexiconEntry(tuple(phrase.split()), score)
        for phrase, score in phrase_scores.items()
    ]
    return Lexicon(entries, max_n=max_n)


@pytest.fixture
def simple_lexicon():
    return make_lexicon({
        "good": 0.6,
        "not good": -0.5,
        "great": 0.7,
        "aw": -0.8,  # stem of "awful"
        "bad": -0.3,
    })


@pytest.fixture
def emoji_table():
    return {"🙂": 1, "😡": -1}
