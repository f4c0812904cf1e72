"""Text normalization, tokenization, stemming and corpus ingestion."""

import json
import re
from collections import Counter

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from flamewatch import data_path, porter, preprocess
from flamewatch.preprocess import (
    RawComment,
    build_corpus,
    is_emoji,
    load_clean_jsonl,
    load_jsonl,
    normalize_text,
    parse_timestamp,
    save_clean_jsonl,
    stem,
    tokenize,
)

# frozen reference pairs for the classic stemming algorithm, taken from its
# published step-by-step examples
PORTER_PAIRS = {
    "caresses": "caress", "ponies": "poni", "ties": "ti", "cats": "cat",
    "feed": "feed", "agreed": "agre", "plastered": "plaster",
    "motoring": "motor", "sing": "sing", "conflated": "conflat",
    "sized": "size", "hopping": "hop", "falling": "fall", "filing": "file",
    "happy": "happi", "sky": "sky", "relational": "relat",
    "conditional": "condit", "rational": "ration", "operator": "oper",
    "feudalism": "feudal", "hopefulness": "hope", "formative": "form",
    "hopeful": "hope", "goodness": "good", "allowance": "allow",
    "inference": "infer", "replacement": "replac", "adjustment": "adjust",
    "dependent": "depend", "adoption": "adopt", "communism": "commun",
    "activate": "activ", "effective": "effect", "probate": "probat",
    "rate": "rate", "cease": "ceas", "generalizations": "gener",
    "oscillators": "oscil", "running": "run", "troubled": "troubl",
    "troubles": "troubl", "controll": "control", "roll": "roll",
    "electriciti": "electr", "sensitiviti": "sensit", "radicalli": "radic",
}


# The per-character implementations that the regexes in preprocess replaced,
# kept as references for the exactness tests below.


def reference_is_emoji(ch: str) -> bool:
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in preprocess._EMOJI_RANGES)


def reference_keep_char(ch: str) -> bool:
    return ch.isalnum() or ch == "!" or ch.isspace() or reference_is_emoji(ch)


def reference_normalize_text(text: str) -> str:
    text = preprocess._URL_RE.sub(" ", text)
    text = preprocess._MENTION_RE.sub(" ", text)
    text = preprocess._HASHTAG_RE.sub(" ", text)
    text = "".join(
        ch if reference_keep_char(ch) else (" " if ch != "'" else "") for ch in text
    )
    # the rule rounds run until one changes nothing; normalize_text stops
    # after the first round in which no letter run collapsed
    prev = None
    while text != prev:
        prev = text
        text = preprocess._RETWEET_RE.sub(" ", text)
        text = preprocess._SPACES_RE.sub(" ", text).strip()
        text = preprocess._SPACED_LETTERS_RE.sub(
            lambda m: re.sub(r"[ .]+", "", m.group(0)), text
        )
        text = preprocess._LETTER_RUN_RE.sub(r"\1", text)
    return text


def reference_tokenize(text: str) -> list[tuple[str, bool, bool]]:
    out: list[tuple[str, bool, bool]] = []
    for chunk in text.split():
        # segment the chunk into word runs, emoji chars and "!" runs
        segments: list[str] = []

        def _is_word_segment(seg: str) -> bool:
            return not seg.endswith("!") and not (len(seg) == 1 and reference_is_emoji(seg))

        for ch in chunk:
            if reference_is_emoji(ch):
                segments.append(ch)
            elif ch == "!":
                if segments and segments[-1].endswith("!"):
                    segments[-1] += "!"
                else:
                    segments.append("!")
            elif segments and _is_word_segment(segments[-1]):
                segments[-1] += ch
            else:
                segments.append(ch)
        for i, seg in enumerate(segments):
            if seg.startswith("!"):
                continue
            caps = len(seg) >= 2 and seg.isalpha() and seg.isupper()
            excl = i + 1 < len(segments) and segments[i + 1].startswith("!")
            out.append((seg.lower(), caps, excl))
    return out


# CAPS, "!", "_", "'", Unicode spaces, combining marks, ZWJ, variation
# selector, regional-indicator flags, emoji, other scripts and digits
MIXED_ALPHABET = (
    "abzABZ!!_'., \t\n\u00a0\u2003\u3000\u0301\u200d\ufe0f"
    "\U0001F1FA\U0001F1F8🙂😡🤬☀✂⬛éßΣж٣Ⅻ²1@#RT:/w"
)
mixed_text = st.text(
    alphabet=st.one_of(st.sampled_from(MIXED_ALPHABET), st.characters()), max_size=60
)


class TestAgainstReference:
    ALL_CODE_POINTS = "".join(map(chr, range(0x110000)))

    def test_drop_class_matches_reference_on_every_code_point(self):
        text = self.ALL_CODE_POINTS
        dropped = set()
        for m in preprocess._DROP_RE.finditer(text):
            dropped.update(range(m.start(), m.end()))
        expected = {cp for cp, ch in enumerate(text) if not reference_keep_char(ch)}
        assert dropped == expected

    def test_emoji_class_matches_reference_on_every_code_point(self):
        text = self.ALL_CODE_POINTS
        found = {m.start() for m in preprocess._EMOJI_RE.finditer(text)}
        expected = {cp for cp, ch in enumerate(text) if reference_is_emoji(ch)}
        assert found == expected
        assert all(is_emoji(chr(cp)) for cp in expected)

    @settings(max_examples=400)
    @given(mixed_text)
    def test_normalize_text_matches_reference(self, text):
        assert normalize_text(text) == reference_normalize_text(text)

    # pieces that feed the rules into each other: runs that collapse into an
    # "RT" marker or into spaced letters, and spaced letters beside runs
    @settings(max_examples=1000)
    @given(st.lists(st.sampled_from(
        ["R", "RR", "RRR", "T", "TTT", "a", "aaa", "b", "bbbb", "A", "AAA",
         " ", "  ", ".", ". ", "1", "9", "!", "_", "RT", "\t"]
    ), max_size=30).map("".join))
    def test_normalize_text_matches_fixed_point_loop(self, text):
        assert normalize_text(text) == reference_normalize_text(text)

    @settings(max_examples=400)
    @given(mixed_text)
    def test_tokenize_matches_reference(self, text):
        assert tokenize(text) == reference_tokenize(text)


class TestNormalize:
    def test_elongated_word_collapsed(self):
        assert normalize_text("haaappy") == "happy"

    def test_double_letters_kept(self):
        # only runs of 3+ collapse; "pp" must survive
        assert normalize_text("happy") == "happy"

    def test_dotted_letters_merged(self):
        assert normalize_text("h.a.p.p.y") == "happy"

    def test_spaced_letters_merged(self):
        assert normalize_text("h a p p y") == "happy"

    def test_two_spaced_letters_not_merged(self):
        # the merge needs at least 3 consecutive single-letter units
        assert normalize_text("I a") == "I a"

    def test_url_becomes_space(self):
        assert normalize_text("see https://x.co now") == "see now"

    def test_www_url_removed(self):
        assert normalize_text("go www.example.com ok") == "go ok"

    def test_mention_hashtag_retweet_removed(self):
        assert normalize_text("RT @user #topic hello") == "hello"

    def test_exclamation_kept(self):
        assert normalize_text("wow!") == "wow!"

    def test_emoji_kept(self):
        assert normalize_text("nice 🙂 day") == "nice 🙂 day"

    def test_apostrophe_deleted_not_spaced(self):
        assert normalize_text("don't") == "dont"

    def test_other_punctuation_becomes_space(self):
        assert normalize_text("ab,cd;ef") == "ab cd ef"

    def test_punctuated_single_letters_merge(self):
        # punctuation becomes spaces first, so 3+ single letters then merge
        assert normalize_text("a,b;c") == "abc"

    @settings(max_examples=300)
    @given(st.text(max_size=80))
    def test_idempotent(self, text):
        once = normalize_text(text)
        assert normalize_text(once) == once

    @settings(max_examples=200)
    @given(st.text(alphabet="ab c.!🙂😡@#x", max_size=40))
    def test_emoji_count_preserved(self, text):
        before = sum(1 for ch in text if is_emoji(ch))
        after = sum(1 for ch in normalize_text(text) if is_emoji(ch))
        assert after == before


class TestTokenize:
    def test_caps_and_exclaim_flags(self):
        assert tokenize("GREAT job!") == [
            ("great", True, False),
            ("job", False, True),
        ]

    def test_single_word(self):
        assert tokenize("ok") == [("ok", False, False)]

    def test_emoji_is_its_own_token(self):
        assert tokenize("wow 🙂") == [("wow", False, False), ("🙂", False, False)]

    def test_attached_emoji_split_off(self):
        assert tokenize("wow🙂") == [("wow", False, False), ("🙂", False, False)]

    def test_bang_never_a_token(self):
        tokens = [t for t, _, _ in tokenize("stop !! now!")]
        assert "!" not in tokens and tokens == ["stop", "now"]

    def test_single_letter_not_caps(self):
        assert tokenize("I") == [("i", False, False)]

    def test_multiple_bangs_one_flag(self):
        assert tokenize("no!!!") == [("no", False, True)]


# Steps 2-4 of the stemmer as they were before their suffix rules were
# grouped by final letter: every suffix of a step tried in list order.


def reference_apply_rules(word: str, rules, min_measure: int) -> str:
    for suffix, repl in rules:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if porter._measure(stem) > min_measure:
                return stem + repl
            return word
    return word


def reference_step4(word: str) -> str:
    for suffix in porter._STEP4:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if suffix == "ion" and not stem.endswith(("s", "t")):
                return word
            if porter._measure(stem) > 1:
                return stem
            return word
    return word


def reference_stem(word: str) -> str:
    if len(word) <= 2 or not word.isascii() or not word.isalpha():
        return word
    word = porter._step1a(word)
    word = porter._step1b(word)
    word = porter._step1c(word)
    word = reference_apply_rules(word, porter._STEP2, 0)
    word = reference_apply_rules(word, porter._STEP3, 0)
    word = reference_step4(word)
    return porter._step5(word)


STEP_SUFFIXES = sorted(
    {suffix for suffix, _ in porter._STEP2 + porter._STEP3} | set(porter._STEP4)
)


def mini_lexicon_words() -> list[str]:
    words = set()
    for line in data_path("mini_lexicon.tsv").read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            words.update(line.split("\t")[0].lower().split())
    return sorted(words)


class TestStem:
    @pytest.mark.parametrize("word,expected", sorted(PORTER_PAIRS.items()))
    def test_reference_pairs(self, word, expected):
        assert stem(word) == expected

    def test_matches_reference_on_porter_pairs_and_mini_lexicon(self):
        words = sorted(PORTER_PAIRS) + mini_lexicon_words()
        assert len(words) > 150
        assert [stem(w) for w in words] == [reference_stem(w) for w in words]

    @seed(19)
    @settings(max_examples=1000, deadline=None, database=None)
    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", max_size=8),
           st.sampled_from(STEP_SUFFIXES))
    def test_matches_reference_on_words_ending_in_a_step_suffix(self, head, suffix):
        assert stem(head + suffix) == reference_stem(head + suffix)

    def test_emoji_passthrough(self):
        assert stem("🙂") == "🙂"

    def test_number_passthrough(self):
        assert stem("42") == "42"

    def test_short_word_passthrough(self):
        assert stem("is") == "is"


class TestLoadJsonl(object):
    def test_valid_line(self, tmp_path):
        path = tmp_path / "in.jsonl"
        path.write_text(json.dumps({
            "post_id": "p1", "comment_id": "c1",
            "created_time": "2018-02-14T10:00:00Z", "message": "hi",
        }) + "\n")
        comments, errors = load_jsonl(path)
        assert len(comments) == 1 and not errors
        assert comments[0].post_id == "p1"
        assert comments[0].created_time == parse_timestamp("2018-02-14T10:00:00Z")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "in.jsonl"
        path.write_text("")
        comments, errors = load_jsonl(path)
        assert comments == [] and errors == []

    def test_malformed_line_skipped_with_lineno(self, tmp_path):
        path = tmp_path / "in.jsonl"
        good = json.dumps({
            "post_id": "p1", "comment_id": "c1",
            "created_time": "2018-02-14T10:00:00Z", "message": "hi",
        })
        path.write_text(good + "\n{not json}\n")
        comments, errors = load_jsonl(path)
        assert len(comments) == 1
        assert len(errors) == 1 and errors[0].lineno == 2

    def test_raw_codec_round_trip(self):
        obj = {"post_id": "p1", "comment_id": "c1",
               "created_time": "2018-02-14T10:00:00Z", "message": "hi 🙂"}
        raw = RawComment.from_dict(obj)
        assert raw == RawComment("p1", "c1", parse_timestamp(obj["created_time"]), "hi 🙂")
        assert raw.to_dict() == obj and list(raw.to_dict()) == list(obj)

    def test_cr_line_endings_and_non_utf8_line(self, tmp_path):
        path = tmp_path / "in.jsonl"
        good = [json.dumps({"post_id": "p1", "comment_id": f"c{i}",
                            "created_time": "2018-02-14T10:00:00Z", "message": "é"},
                           ensure_ascii=False).encode() for i in range(3)]
        path.write_bytes(good[0] + b"\r" + good[1].replace(b"\xc3\xa9", b"\xe9") + b"\r\n"
                         + good[2] + b"\n")
        comments, errors = load_jsonl(path)
        assert [c.comment_id for c in comments] == ["c0", "c2"]
        assert [e.lineno for e in errors] == [2]
        assert errors[0].message.startswith("UnicodeDecodeError: 'utf-8' codec can't decode")

    def test_naive_timestamp_assumed_utc(self):
        dt = parse_timestamp("2018-02-14T10:00:00")
        assert dt.utcoffset().total_seconds() == 0


class TestPreprocess:
    def _raw(self, text):
        return RawComment("p1", "c1", parse_timestamp("2018-02-14T10:00:00Z"), text)

    def test_url_only_dropped(self):
        corpus = build_corpus([self._raw("https://a.b/c")])
        assert corpus.comments == [] and corpus.dropped == 1

    def test_empty_dropped(self):
        corpus = build_corpus([self._raw("")])
        assert corpus.comments == [] and corpus.dropped == 1

    def test_elongated_with_emoji(self):
        [clean] = build_corpus([self._raw("haaappy 🙂")]).comments
        assert clean.tokens == ["happi", "🙂"]
        assert clean.emojis == ["🙂"]

    def test_flag_lists_match_token_count(self):
        [clean] = build_corpus([self._raw("GREAT stuff! really 🙂")]).comments
        n = len(clean.tokens)
        assert len(clean.caps_flags) == n and len(clean.exclaim_flags) == n

    def test_build_corpus_counts(self):
        raws = [self._raw("hello there"), self._raw("https://x.co"), self._raw("ok")]
        corpus = build_corpus(raws)
        assert corpus.kept == 2 and corpus.dropped == 1

    def test_build_corpus_stems_each_distinct_token_once(self, monkeypatch):
        texts = ["Running dogs RUNNING!", "the dogs ran 🙂🙂", "https://x.co",
                 "running again and again"]
        calls = Counter()

        def counting_stem(word):
            calls[word] += 1
            return stem(word)

        monkeypatch.setattr(preprocess, "stem", counting_stem)
        corpus = build_corpus([self._raw(t) for t in texts])
        expected = [
            [stem(tok) for tok, _, _ in reference_tokenize(reference_normalize_text(t))]
            for t in texts
        ]
        assert [c.tokens for c in corpus.comments] == [e for e in expected if e]
        distinct = {tok for t in texts for tok, _, _ in tokenize(normalize_text(t))}
        assert set(calls) == distinct and set(calls.values()) == {1}
        # the memo lives for one call: a second corpus stems its tokens again
        build_corpus([self._raw(texts[0])])
        assert calls["running"] == 2

    def test_deterministic(self):
        a = build_corpus([self._raw("Some TEXT here! 🙂")]).comments
        b = build_corpus([self._raw("Some TEXT here! 🙂")]).comments
        assert a == b and len(a) == 1

    def test_clean_jsonl_round_trip(self, tmp_path):
        [clean] = build_corpus([self._raw("GREAT daaay today! 🙂")]).comments
        path = tmp_path / "clean.jsonl"
        save_clean_jsonl([clean], path)
        assert load_clean_jsonl(path) == [clean]
