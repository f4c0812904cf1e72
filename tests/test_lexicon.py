"""Phrase matching, SentiScore arithmetic and 5-class labeling."""

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from flamewatch import data_path
from flamewatch.lexicon import (
    LabeledComment,
    Lexicon,
    LexiconEntry,
    Match,
    ScoreBreakdown,
    SentimentLabel,
    StrictDenominatorError,
    classify,
    compute_C,
    compute_E,
    compute_S,
    label_corpus,
    load_emoji_table,
    load_lexicon,
    load_labeled_jsonl,
    match_lexicons,
    match_lexicons as _match,
    save_labeled_jsonl,
    score_comment,
    senti_score,
)

from flamewatch.preprocess import save_clean_jsonl

from conftest import make_clean, make_lexicon


class TestLoadLexicon:
    def test_bundled_lexicon_loads_clean(self):
        lex, rejects = load_lexicon(data_path("mini_lexicon.tsv"))
        assert rejects == []
        assert len(lex.entries) > 100

    def test_four_word_phrase_kept(self):
        lex, _ = load_lexicon(data_path("mini_lexicon.tsv"))
        entry = lex.index.get(("would", "be", "veri", "easi"))
        assert entry is not None and entry.score == 0.472

    def test_two_word_negative_entry(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("not good\t-0.5\n")
        lex, rejects = load_lexicon(path)
        assert rejects == []
        assert lex.index[("not", "good")].score == -0.5

    def test_too_long_phrase_rejected_with_lineno(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("good\t0.5\nnot at all very good\t0.1\n")
        lex, rejects = load_lexicon(path)
        assert len(lex.entries) == 1
        assert len(rejects) == 1 and rejects[0][0] == 2

    def test_spaced_single_letters_merge_before_length_check(self, tmp_path):
        # "a b c d e" collapses to one token in the shared pipeline, so it is
        # accepted as a single-word phrase rather than rejected as five words
        path = tmp_path / "lex.tsv"
        path.write_text("a b c d e\t0.1\n")
        lex, rejects = load_lexicon(path)
        assert rejects == [] and len(lex.entries) == 1
        assert len(lex.entries[0].phrase) == 1

    def test_bad_score_rejected(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("good\tnot-a-number\n")
        _, rejects = load_lexicon(path)
        assert rejects and rejects[0][0] == 1

    def test_out_of_range_score_rejected(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("good\t1.5\n")
        _, rejects = load_lexicon(path)
        assert rejects and "outside" in rejects[0][1]

    def test_duplicate_after_stemming_rejected(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("hopeful\t0.5\nhopefulness\t0.6\n")  # both stem to "hope"
        lex, rejects = load_lexicon(path)
        assert len(lex.entries) == 1
        assert rejects and "duplicate" in rejects[0][1]

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("# header\n\ngood\t0.5\n")
        lex, rejects = load_lexicon(path)
        assert rejects == [] and len(lex.entries) == 1

    @pytest.mark.parametrize("max_n", [0, -3])
    def test_max_n_below_one_refused_before_reading(self, tmp_path, max_n):
        with pytest.raises(ValueError, match=f"max_n must be at least 1, got {max_n}"):
            load_lexicon(tmp_path / "missing.tsv", max_n=max_n)

    def test_emoji_table_rejects_other_polarity(self, tmp_path):
        path = tmp_path / "emoji.tsv"
        path.write_text("🙂\t2\n")
        with pytest.raises(ValueError):
            load_emoji_table(path)

    def test_bundled_emoji_table(self):
        table = load_emoji_table(data_path("emoji_polarity.tsv"))
        assert table["🙂"] == 1 and table["😡"] == -1
        assert set(table.values()) == {1, -1}


def _reference_matches(tokens, lex):
    """Independent selection: list every in-lexicon subspan, then repeatedly
    take the candidate with the smallest start (longest span on ties) that
    does not overlap anything already chosen left of it."""
    candidates = [
        (i, j)
        for i in range(len(tokens))
        for j in range(i + 1, min(i + lex.max_n, len(tokens)) + 1)
        if tuple(tokens[i:j]) in lex.index
    ]
    chosen = []
    cursor = 0
    while True:
        viable = [(i, j) for i, j in candidates if i >= cursor]
        if not viable:
            break
        start = min(i for i, _ in viable)
        end = max(j for i, j in viable if i == start)
        chosen.append((start, end))
        cursor = end
    return chosen


def reference_match_lexicons(comment, lex):
    """The matcher before the first-token index: at every position, every
    length from max_n down to 1 is looked up in the index."""
    tokens = comment.tokens
    matches = []
    i = 0
    while i < len(tokens):
        for n in range(min(lex.max_n, len(tokens) - i), 0, -1):
            entry = lex.index.get(tuple(tokens[i:i + n]))
            if entry is not None:
                matches.append(Match(entry, i, i + n))
                i += n
                break
        else:
            i += 1
    return matches


# phrases up to 6 tokens over 4 letters: several lengths share a first token,
# and some phrases are longer than max_n; "z" starts no phrase
_PHRASES = st.lists(st.tuples(st.sampled_from("abcd")).flatmap(
    lambda first: st.lists(st.sampled_from("abcd"), max_size=5).map(
        lambda rest: first + tuple(rest))), min_size=1, max_size=12)


class TestMatching:
    @seed(19)
    @settings(max_examples=300, deadline=None, database=None)
    @given(_PHRASES, st.booleans(), st.integers(1, 4),
           st.lists(st.lists(st.sampled_from("abcdz"), max_size=14), max_size=5))
    @example([("a", "b", "c", "d", "a"), ("b",)], True, 3, [list("abcdab"), list("zab")])
    def test_matches_reference_on_random_lexicons(self, phrases, with_prefixes, max_n,
                                                  comments):
        if with_prefixes:  # each phrase's prefixes are phrases too
            phrases = phrases + [p[:k] for p in phrases for k in range(1, len(p))]
        entries = [LexiconEntry(p, round(0.1 + 0.01 * k, 2)) for k, p in enumerate(phrases)]
        lex = Lexicon(entries, max_n=max_n)
        for tokens in comments:
            comment = make_clean(tokens)
            assert match_lexicons(comment, lex) == reference_match_lexicons(comment, lex)

    def test_starts_lists_lengths_up_to_max_n_longest_first(self):
        lex = make_lexicon({"a": 0.1, "a b c": 0.2, "a b": 0.3, "a b c d": 0.4, "b": 0.5},
                           max_n=3)
        assert lex.starts == {"a": (3, 2, 1), "b": (1,)}

    def test_longest_match_consumes_tokens(self):
        lex = make_lexicon({"not good": -0.5, "good": 0.6})
        comment = make_clean(["not", "good", "day"])
        matches = match_lexicons(comment, lex)
        assert [(m.start, m.end) for m in matches] == [(0, 2)]
        assert matches[0].entry.score == -0.5

    def test_no_matches(self, simple_lexicon):
        assert match_lexicons(make_clean(["x", "y"]), simple_lexicon) == []

    def test_spans_never_overlap(self, simple_lexicon):
        matches = match_lexicons(
            make_clean(["good", "good", "not", "good", "bad"]), simple_lexicon
        )
        for a, b in zip(matches, matches[1:]):
            assert a.end <= b.start

    def test_matches_reference_on_random_cases(self):
        rng = np.random.default_rng(42)
        vocab = ["a", "b", "c", "d", "e"]
        phrases = {}
        for _ in range(12):
            n = int(rng.integers(1, 5))
            phrase = " ".join(rng.choice(vocab, size=n))
            phrases[phrase] = float(rng.uniform(-1, 1)) or 0.1
        lex = make_lexicon(phrases)
        for _ in range(1000):
            tokens = list(rng.choice(vocab, size=int(rng.integers(0, 13))))
            got = [(m.start, m.end) for m in _match(make_clean(tokens), lex)]
            assert got == _reference_matches(tokens, lex), tokens

    def test_max_n_3_ignores_four_token_phrases(self):
        lex = make_lexicon({"a b c d": 0.5, "a": 0.2}, max_n=3)
        matches = match_lexicons(make_clean(["a", "b", "c", "d"]), lex)
        assert [(m.start, m.end) for m in matches] == [(0, 1)]


class TestModifiers:
    def _one_match(self, score, n_tokens=1):
        entry = LexiconEntry(tuple("w" * 1 for _ in range(n_tokens)), score)
        from flamewatch.lexicon import Match

        return [Match(entry, 0, n_tokens)]

    def test_capitalized_positive_match(self):
        assert compute_C(self._one_match(0.6), [True]) == 1

    def test_capitalized_negative_match(self):
        assert compute_C(self._one_match(-0.3), [True]) == -1

    def test_no_capitalized_match(self):
        assert compute_C(self._one_match(0.6), [False]) == 0

    def test_partial_caps_span_does_not_count(self):
        assert compute_C(self._one_match(0.6, n_tokens=2), [True, False]) == 0

    def test_exclaimed_positive_match(self):
        assert compute_S(self._one_match(0.7), [True]) == 1

    def test_exclaimed_negative_match(self):
        assert compute_S(self._one_match(-0.8), [True]) == -1

    def test_no_exclaim(self):
        assert compute_S(self._one_match(0.7), [False]) == 0

    def test_exclaim_checks_last_token_of_span(self):
        assert compute_S(self._one_match(0.7, n_tokens=2), [True, False]) == 0
        assert compute_S(self._one_match(0.7, n_tokens=2), [False, True]) == 1

    def test_positive_emoji(self, emoji_table):
        assert compute_E(["🙂"], emoji_table) == 1

    def test_no_emoji(self, emoji_table):
        assert compute_E([], emoji_table) == 0

    def test_mixed_emoji_cancel(self, emoji_table):
        assert compute_E(["🙂", "😡"], emoji_table) == 0

    def test_unlisted_emoji_ignored(self, emoji_table):
        assert compute_E(["🚀"], emoji_table) == 0

    def test_two_positive_emoji_sum(self, emoji_table):
        assert compute_E(["🙂", "🙂"], emoji_table) == 2


def _breakdown(n, sum_L, C=0, S=0, E=0):
    from flamewatch.lexicon import Match

    matches = [Match(LexiconEntry(("w",), sum_L / n if n else 0.0), i, i + 1)
               for i in range(n)]
    return ScoreBreakdown(matches=matches, sum_L=sum_L, C=C, S=S, E=E)


class TestSentiScore:
    def test_single_match(self):
        assert senti_score(_breakdown(1, 0.6)) == pytest.approx(0.6)

    def test_capitalization_boost(self):
        assert senti_score(_breakdown(1, 0.6, C=1)) == pytest.approx(0.8)

    def test_no_signal_is_zero(self):
        assert senti_score(_breakdown(0, 0.0)) == 0.0

    def test_negative_emoji_absolute_denominator(self):
        assert senti_score(_breakdown(1, -0.3, E=-1)) == pytest.approx(-0.65)

    def test_strict_mode_zero_denominator_raises(self):
        with pytest.raises(StrictDenominatorError):
            senti_score(_breakdown(1, 0.6, C=-1), strict=True)

    @pytest.mark.parametrize("N, C, S, E", [(1, -1, -1, 0), (0, 0, 0, -1), (1, 0, -1, -2)])
    def test_strict_mode_negative_denominator_raises(self, N, C, S, E):
        # the signed sum would flip the score's sign ("TERRIBLE!" scored +2.85)
        with pytest.raises(StrictDenominatorError, match="not positive"):
            senti_score(_breakdown(N, -0.85 * N, C=C, S=S, E=E), strict=True)

    def test_strict_mode_no_signal_is_zero(self):
        assert senti_score(_breakdown(0, 0.0), strict=True) == 0.0

    def test_strict_mode_matches_default_when_modifiers_nonnegative(self):
        b = _breakdown(2, 0.9, C=1, S=1, E=2)
        assert senti_score(b, strict=True) == senti_score(b)


class TestClassify:
    @pytest.mark.parametrize("score,expected", [
        (0.5, SentimentLabel.VERY_POSITIVE),
        (0.51, SentimentLabel.VERY_POSITIVE),
        (1.0, SentimentLabel.VERY_POSITIVE),
        (0.49, SentimentLabel.POSITIVE),
        (0.01, SentimentLabel.POSITIVE),
        (0.0, SentimentLabel.NEUTRAL),
        (-0.01, SentimentLabel.NEGATIVE),
        (-0.49, SentimentLabel.NEGATIVE),
        (-0.5, SentimentLabel.VERY_NEGATIVE),
        (-1.0, SentimentLabel.VERY_NEGATIVE),
    ])
    def test_thresholds(self, score, expected):
        assert classify(score) is expected

    @settings(max_examples=300)
    @given(st.floats(min_value=-1, max_value=1, allow_nan=False))
    def test_total_and_monotone(self, score):
        label = classify(score)
        assert label in SentimentLabel
        # monotone: a strictly larger score never gets a lower label
        assert classify(min(score + 0.25, 1.0)) >= label


class TestScoreComment:
    def test_full_pipeline_example(self, simple_lexicon, emoji_table):
        # "GREAT coverage, love it! 🙂" style comment, pre-tokenized
        comment = make_clean(
            ["great", "stuff", "🙂"],
            caps=[True, False, False],
            excl=[False, True, False],
            emojis=["🙂"],
        )
        breakdown, score = score_comment(comment, simple_lexicon, emoji_table)
        assert breakdown.N == 1 and breakdown.C == 1
        assert breakdown.S == 0  # exclaim must be on the matched span itself
        assert breakdown.E == 1
        assert score == pytest.approx((0.7 + 1 + 1) / 3)

    def test_boundedness_and_neutral_fixed_point_randomized(self, emoji_table):
        rng = np.random.default_rng(5)
        vocab = ["good", "bad", "not", "great", "aw", "x", "y", "z"]
        lex = make_lexicon({
            "good": 0.6, "not good": -0.5, "great": 0.7, "aw": -0.8, "bad": -0.3,
        })
        for _ in range(2000):
            n = int(rng.integers(1, 9))
            tokens = list(rng.choice(vocab, size=n))
            caps = list(rng.random(n) < 0.3)
            excl = list(rng.random(n) < 0.3)
            emojis = list(rng.choice(["🙂", "😡"], size=int(rng.integers(0, 3))))
            comment = make_clean(tokens, caps=caps, excl=excl, emojis=emojis)
            b, score = score_comment(comment, lex, emoji_table)
            if b.N or b.C or b.S or b.E:
                assert abs(score) <= 1.0
            if b.N == 0 and b.E == 0:
                assert score == 0.0 and classify(score) is SentimentLabel.NEUTRAL

    def test_positive_emoji_monotonicity(self, simple_lexicon, emoji_table):
        rng = np.random.default_rng(6)
        vocab = ["good", "bad", "not", "great", "aw", "x"]
        for _ in range(500):
            n = int(rng.integers(1, 7))
            tokens = list(rng.choice(vocab, size=n))
            emojis = list(rng.choice(["🙂", "😡"], size=int(rng.integers(0, 3))))
            base = make_clean(tokens, emojis=emojis)
            plus = make_clean(tokens, emojis=emojis + ["🙂"])
            minus = make_clean(tokens, emojis=emojis + ["😡"])
            _, s0 = score_comment(base, simple_lexicon, emoji_table)
            _, s_plus = score_comment(plus, simple_lexicon, emoji_table)
            _, s_minus = score_comment(minus, simple_lexicon, emoji_table)
            assert s_plus >= s0 - 1e-12
            assert s_minus <= s0 + 1e-12


class TestLabelCorpus:
    def test_three_way_labels(self, simple_lexicon, emoji_table):
        comments = [
            make_clean(["great"], comment_id="c1"),
            make_clean(["bad"], comment_id="c2"),
            make_clean(["x"], comment_id="c3"),
        ]
        labeled, dist = label_corpus(comments, simple_lexicon, emoji_table)
        assert labeled[0].label == SentimentLabel.VERY_POSITIVE
        assert labeled[1].label == SentimentLabel.NEGATIVE
        assert labeled[2].label == SentimentLabel.NEUTRAL
        assert sum(dist.values()) == 3

    def test_deterministic_output(self, simple_lexicon, emoji_table, tmp_path):
        comments = [make_clean(["great", "bad"], comment_id=f"c{i}") for i in range(5)]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            labeled, _ = label_corpus(comments, simple_lexicon, emoji_table)
            save_labeled_jsonl(labeled, path)
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip(self, simple_lexicon, emoji_table, tmp_path):
        comments = [make_clean(["great", "🙂"], emojis=["🙂"])]
        labeled, _ = label_corpus(comments, simple_lexicon, emoji_table)
        path = tmp_path / "labeled.jsonl"
        save_labeled_jsonl(labeled, path)
        assert load_labeled_jsonl(path) == labeled


class TestRecordFormat:
    CLEAN_LINE = (
        '{"post_id": "p1", "comment_id": "c7", "created_time": "2018-02-01T12:30:05Z", '
        '"tokens": ["great", "day", "🙂"], "emojis": ["🙂"], '
        '"caps_flags": [true, false, false], "exclaim_flags": [false, true, false], '
        '"original_text": "GREAT day! 🙂 \\"ok\\""'
    )

    def test_clean_and_labeled_lines_byte_exact(self, tmp_path):
        comment = make_clean(["great", "day", "🙂"], caps=[True, False, False],
                             excl=[False, True, False], emojis=["🙂"], comment_id="c7",
                             minutes=12 * 60 + 30 + 5 / 60, text='GREAT day! 🙂 "ok"')
        clean, labeled = tmp_path / "clean.jsonl", tmp_path / "labeled.jsonl"
        save_clean_jsonl([comment], clean)
        save_labeled_jsonl([LabeledComment(comment, 0.75, SentimentLabel.VERY_POSITIVE)],
                           labeled)
        assert clean.read_bytes() == (self.CLEAN_LINE + "}\n").encode("utf-8")
        assert labeled.read_bytes() == (
            self.CLEAN_LINE + ', "score": 0.75, "label": 4}\n'
        ).encode("utf-8")
