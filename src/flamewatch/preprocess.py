"""Comment ingestion and text normalization.

The cleaning pipeline mirrors what the rest of the package expects:
URLs/mentions/hashtags stripped, elongated words squeezed, spaced-out
letters merged, emoji kept, everything stemmed, stopwords kept.

The per-character work runs inside `re`, through two regexes built from
`_EMOJI_RANGES`. `_DROP_RE` matches runs of the characters that
`normalize_text` turns into spaces: not alphanumeric (`[^\\W_]`, which
is `str.isalnum`), not "!", not whitespace (`\\s`, which is
`str.isspace`) and not emoji; the apostrophe is deleted before it runs.
`_TOKEN_RE` splits normalized text into one emoji or one run of other
non-"!", non-space characters, plus the "!" that may follow it.
`build_corpus` stems each distinct token once: its memo lives for that
one call, so it is bounded by the distinct tokens of the corpus it builds.

`read_lines` is the one loop over the lines of a text input (JSONL, the
lexicon, the emoji table, JSON and embedding files): it checks each line is
UTF-8. `read_jsonl` parses its lines with the record kind's `from_dict`
(`RawComment`, `CleanComment`, `lexicon.LabeledComment`). `load_jsonl`
skips bad raw lines and `lexicon.load_lexicon` bad entries, recording each
as a `LineError`; any other bad line raises ValueError. `_bad_line` builds
every `LineError` and every "<path>: line N: <detail>" message.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import NamedTuple

from . import atomic_write
from .porter import stem

# Unicode blocks treated as emoji. Variation selectors and ZWJ are stripped
# as special characters, so multi-codepoint sequences decompose into their
# base emoji.
_EMOJI_RANGES = (
    (0x1F300, 0x1F5FF),
    (0x1F600, 0x1F64F),
    (0x1F680, 0x1F6FF),
    (0x1F900, 0x1FAFF),
    (0x2600, 0x26FF),
    (0x2700, 0x27BF),
    (0x2B00, 0x2BFF),
    (0x1F1E6, 0x1F1FF),
)

_URL_RE = re.compile(r"(?:(?:https?|ftp)://|www\.)\S+", re.IGNORECASE)
_MENTION_RE = re.compile(r"@\w+")
_HASHTAG_RE = re.compile(r"#\w+")
_RETWEET_RE = re.compile(r"\bRT\b")
# >=3 single-letter units separated by spaces or dots ("h a p p y", "h.a.p.p.y")
_SPACED_LETTERS_RE = re.compile(
    r"(?<![A-Za-z0-9])[A-Za-z](?:[ .]+[A-Za-z]){2,}(?![A-Za-z0-9])"
)
_LETTER_RUN_RE = re.compile(r"([A-Za-z])\1{2,}")
_SPACES_RE = re.compile(r"\s+")

_EMOJI_CLASS = "".join(f"\\U{lo:08X}-\\U{hi:08X}" for lo, hi in _EMOJI_RANGES)
_EMOJI_RE = re.compile(f"[{_EMOJI_CLASS}]")
# runs of characters that are not alphanumeric, "!", whitespace or emoji
_DROP_RE = re.compile(f"(?:_|[^\\w!\\s{_EMOJI_CLASS}])+")
# (one emoji | a run of anything but "!", whitespace and emoji)(an optional "!")
_TOKEN_RE = re.compile(f"([{_EMOJI_CLASS}]|[^!\\s{_EMOJI_CLASS}]+)(!?)")


def is_emoji(ch: str) -> bool:
    return _EMOJI_RE.fullmatch(ch) is not None


@dataclass
class RawComment:
    post_id: str
    comment_id: str
    created_time: datetime
    text: str

    def to_dict(self) -> dict:
        """The raw JSONL record; its key order is the file format."""
        return {
            "post_id": self.post_id,
            "comment_id": self.comment_id,
            "created_time": format_timestamp(self.created_time),
            "message": self.text,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> RawComment:
        """Inverse of to_dict; the ids must be non-empty strings, created_time
        an ISO-8601 string and message a string."""
        raw = cls(
            post_id=_record_id("post_id", obj["post_id"]),
            comment_id=_record_id("comment_id", obj["comment_id"]),
            created_time=parse_timestamp(obj["created_time"]),
            text=obj["message"],
        )
        if not isinstance(raw.text, str):
            raise TypeError(f"message must be a string, got {type(raw.text).__name__}")
        return raw


@dataclass
class CleanComment:
    post_id: str
    comment_id: str
    created_time: datetime
    tokens: list[str]
    emojis: list[str]
    caps_flags: list[bool]
    exclaim_flags: list[bool]
    original_text: str

    def to_dict(self) -> dict:
        """The JSONL record; its key order is the file format."""
        return {
            "post_id": self.post_id,
            "comment_id": self.comment_id,
            "created_time": format_timestamp(self.created_time),
            "tokens": self.tokens,
            "emojis": self.emojis,
            "caps_flags": self.caps_flags,
            "exclaim_flags": self.exclaim_flags,
            "original_text": self.original_text,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> CleanComment:
        """Inverse of to_dict; every field is required (KeyError names a missing one),
        has its documented type (TypeError names it), and a comment must have
        at least one token. The lists are taken as they are, not copied."""
        post_id, comment_id = obj["post_id"], obj["comment_id"]
        created_time = obj["created_time"]
        tokens, emojis = obj["tokens"], obj["emojis"]
        caps_flags, exclaim_flags = obj["caps_flags"], obj["exclaim_flags"]
        original_text = obj["original_text"]
        _record_id("post_id", post_id)
        _record_id("comment_id", comment_id)
        _require_list("tokens", tokens, _STR)
        _require_list("emojis", emojis, _STR)
        _require_list("caps_flags", caps_flags, _BOOL)
        _require_list("exclaim_flags", exclaim_flags, _BOOL)
        if type(original_text) is not str:
            raise TypeError(
                f"original_text must be a string, got {type(original_text).__name__}"
            )
        comment = cls(
            post_id=post_id,
            comment_id=comment_id,
            created_time=parse_timestamp(created_time),
            tokens=tokens,
            emojis=emojis,
            caps_flags=caps_flags,
            exclaim_flags=exclaim_flags,
            original_text=original_text,
        )
        n = len(comment.tokens)
        if not n:
            raise ValueError("empty token list")
        if len(comment.caps_flags) != n or len(comment.exclaim_flags) != n:
            raise ValueError(f"caps_flags and exclaim_flags need {n} entries, one per token")
        return comment


def _record_id(key: str, value) -> str:
    """`value`, a record's `key` id, if it is a non-empty string."""
    if type(value) is not str:
        raise TypeError(f"{key} must be a string, got {type(value).__name__}")
    if not value:
        raise ValueError(f"empty {key}")
    return value


_STR = frozenset((str,))
_BOOL = frozenset((bool,))


def _require_list(key: str, value, kinds: frozenset) -> None:
    """Raise TypeError unless `value`, a record's `key` field, is a list whose
    items all have the one type in `kinds`."""
    # map and issuperset check the item types in C, not per item in Python
    if type(value) is not list or not kinds.issuperset(map(type, value)):
        (kind,) = kinds
        raise TypeError(f"{key} must be a list of {kind.__name__}")


@dataclass
class Corpus:
    comments: list[CleanComment]
    dropped: int = 0

    @property
    def kept(self) -> int:
        return len(self.comments)


class LineError(NamedTuple):
    lineno: int
    message: str


def parse_timestamp(value: str) -> datetime:
    """ISO-8601 -> aware UTC datetime; naive inputs are assumed UTC."""
    if not isinstance(value, str):
        raise TypeError(f"timestamp must be an ISO-8601 string, got {type(value).__name__}")
    dt = datetime.fromisoformat(value.replace("Z", "+00:00"))
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    try:
        return dt.astimezone(timezone.utc)
    except OverflowError:
        raise ValueError(f"timestamp {value!r} is out of range in UTC") from None


def format_timestamp(dt: datetime) -> str:
    """Aware UTC datetime -> ISO-8601 with a "Z" suffix (inverse of parse_timestamp)."""
    return dt.isoformat().replace("+00:00", "Z")


def load_jsonl(path) -> tuple[list[RawComment], list[LineError]]:
    """Read one comment per line; malformed lines are skipped and reported."""
    errors: list[LineError] = []
    return list(read_jsonl(path, RawComment.from_dict, errors)), errors


def normalize_text(text: str) -> str:
    text = _URL_RE.sub(" ", text)
    text = _MENTION_RE.sub(" ", text)
    text = _HASHTAG_RE.sub(" ", text)
    text = _DROP_RE.sub(" ", text.replace("'", ""))
    # A round of the remaining rules leaves text that no earlier rule of the
    # round matches again, unless the letter-run rule fired: only collapsing
    # a run can expose a new match ("RRRT" becomes an "RT" marker, "a bbb c"
    # becomes spaced letters). So another round runs only after it fired;
    # each such round shrinks the text, and the earlier filters cannot
    # re-trigger on filtered text, so the whole function is idempotent.
    while True:
        text = _RETWEET_RE.sub(" ", text)
        text = _SPACES_RE.sub(" ", text).strip()
        text = _SPACED_LETTERS_RE.sub(lambda m: re.sub(r"[ .]+", "", m.group(0)), text)
        text, runs = _LETTER_RUN_RE.subn(r"\1", text)
        if not runs:
            return text


def tokenize(text: str) -> list[tuple[str, bool, bool]]:
    """Split normalized text into (token, caps_flag, exclaim_flag) triples.

    Emoji are emitted as standalone tokens; "!" marks the preceding token
    and is never a token itself.
    """
    return [
        (tok.lower(), len(tok) >= 2 and tok.isalpha() and tok.isupper(), bool(bang))
        for tok, bang in _TOKEN_RE.findall(text)
    ]


def _clean(raw: RawComment, stems: dict[str, str]) -> CleanComment | None:
    """normalize -> tokenize -> stem, looking stems up in (and adding them to)
    `stems`; None when no token survives."""
    triples = tokenize(normalize_text(raw.text))
    if not triples:
        return None
    tokens = []
    for tok, _, _ in triples:
        stemmed = stems.get(tok)
        if stemmed is None:
            stemmed = stems[tok] = stem(tok)
        tokens.append(stemmed)
    return CleanComment(
        post_id=raw.post_id,
        comment_id=raw.comment_id,
        created_time=raw.created_time,
        tokens=tokens,
        emojis=[t for t in tokens if len(t) == 1 and is_emoji(t)],
        caps_flags=[c for _, c, _ in triples],
        exclaim_flags=[e for _, _, e in triples],
        original_text=raw.text,
    )


def build_corpus(raws) -> Corpus:
    """Clean every comment (`_clean`), stemming each distinct token once."""
    corpus = Corpus(comments=[])
    stems: dict[str, str] = {}
    for raw in raws:
        clean = _clean(raw, stems)
        if clean is None:
            corpus.dropped += 1
        else:
            corpus.comments.append(clean)
    return corpus


def write_jsonl(records, path) -> None:
    """One dict per line, as UTF-8 JSON, written atomically (`atomic_write`)."""
    def write(tmp):
        with open(tmp, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record, ensure_ascii=False) + "\n")

    atomic_write(path, write)


def read_lines(path, errors: list[LineError] | None = None):
    """Yield (lineno, line) for each line of a UTF-8 text file, split as in
    text mode. A line that is not UTF-8 is skipped and appended to `errors`,
    or with no `errors` raises ValueError "<path>: line N: ...". Its bytes
    stay lone surrogates (surrogateescape) until the line is checked."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                if not line.isascii():
                    # raises UnicodeDecodeError (a ValueError) at the first bad byte
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
            except ValueError as exc:
                _bad_line(path, lineno, exc, errors)
            else:
                yield lineno, line


def read_jsonl(path, from_dict, errors: list[LineError] | None = None):
    """Yield from_dict(obj) for each non-blank line of a UTF-8 JSONL file.
    A line that is not UTF-8, not JSON, or that from_dict refuses is handled
    as `read_lines` handles one that is not UTF-8."""
    for lineno, line in read_lines(path, errors):
        line = line.strip()
        if not line:
            continue
        try:
            record = from_dict(json.loads(line))
        except (KeyError, TypeError, ValueError) as exc:
            _bad_line(path, lineno, exc, errors)
        else:
            yield record


def read_json(path):
    """The JSON value of a whole UTF-8 file; a bad file raises as `read_lines`."""
    try:
        return json.loads("".join(line for _, line in read_lines(path)))
    except json.JSONDecodeError as exc:
        _bad_line(path, exc.lineno, exc)


def _bad_line(path, lineno: int, exc: Exception | str, errors: list[LineError] | None = None):
    """Append the line's LineError "<ExcType>: <message>" to `errors`, or with
    no `errors` raise ValueError "<path>: line N: <detail>". A str `exc` is
    the message of a ValueError. This is the one place that formats either."""
    if isinstance(exc, str):
        exc = ValueError(exc)
    if errors is not None:
        errors.append(LineError(lineno, f"{type(exc).__name__}: {exc}"))
        return
    if isinstance(exc, KeyError):
        detail = f"missing field {exc}"
    elif isinstance(exc, json.JSONDecodeError):
        detail = f"bad JSON: {exc.msg} (column {exc.colno})"
    else:
        detail = str(exc)
    raise ValueError(f"{path}: line {lineno}: {detail}") from None


def save_clean_jsonl(comments: list[CleanComment], path) -> None:
    write_jsonl((c.to_dict() for c in comments), path)


def load_clean_jsonl(path) -> list[CleanComment]:
    return list(read_jsonl(path, CleanComment.from_dict))
