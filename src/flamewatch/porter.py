"""Porter stemmer (original 1980 algorithm), dependency-free.

Only the classic algorithm is implemented: no Snowball extensions, no
special-casing beyond the conventional "leave words of length <= 2 alone"
rule used by the reference C implementation.

As in the reference implementation, which switches on a letter of the word,
steps 2, 3 and 4 test only the suffixes that can match: their rules are
grouped by the suffix's final letter, in list order within each group, and
a word is checked against the group of its own final letter. The first
matching suffix still wins.
"""

from __future__ import annotations

_VOWELS = "aeiou"


def _is_consonant(word: str, i: int) -> bool:
    c = word[i]
    if c in _VOWELS:
        return False
    if c == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of VC sequences in the stem ([C](VC)^m[V])."""
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        if _is_consonant(stem, i):
            if prev_vowel:
                m += 1
            prev_vowel = False
        else:
            prev_vowel = True
    return m


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    # *o: consonant-vowel-consonant where the final consonant is not w, x, y
    if len(word) < 3:
        return False
    return (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


def _by_final_letter(rules: list) -> dict[str, tuple]:
    """Group suffix rules by the suffix's last letter, keeping list order."""
    groups: dict[str, list] = {}
    for rule in rules:
        suffix = rule if isinstance(rule, str) else rule[0]
        groups.setdefault(suffix[-1], []).append(rule)
    return {letter: tuple(group) for letter, group in groups.items()}


def _apply_rules(word: str, rules: dict[str, tuple], min_measure: int) -> str:
    """First matching suffix wins; replacement applies only if m(stem) > min_measure.
    `rules` is grouped by final letter (`_by_final_letter`)."""
    for suffix, repl in rules.get(word[-1:], ()):
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if _measure(stem) > min_measure:
                return stem + repl
            return word
    return word


_STEP2 = [
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
]

_STEP3 = [
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
]

_STEP4 = [
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
]

_STEP2_BY_LAST = _by_final_letter(_STEP2)
_STEP3_BY_LAST = _by_final_letter(_STEP3)
_STEP4_BY_LAST = _by_final_letter(_STEP4)


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            return word[:-1]
        return word
    fired = False
    if word.endswith("ed") and _contains_vowel(word[:-2]):
        word = word[:-2]
        fired = True
    elif word.endswith("ing") and _contains_vowel(word[:-3]):
        word = word[:-3]
        fired = True
    if not fired:
        return word
    if word.endswith(("at", "bl", "iz")):
        return word + "e"
    if _ends_double_consonant(word) and word[-1] not in "lsz":
        return word[:-1]
    if _measure(word) == 1 and _ends_cvc(word):
        return word + "e"
    return word


def _step1c(word: str) -> str:
    if word.endswith("y") and _contains_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


def _step4(word: str) -> str:
    for suffix in _STEP4_BY_LAST.get(word[-1:], ()):
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if suffix == "ion" and not stem.endswith(("s", "t")):
                return word
            if _measure(stem) > 1:
                return stem
            return word
    return word


def _step5(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            word = stem
    if _ends_double_consonant(word) and word[-1] == "l" and _measure(word) > 1:
        word = word[:-1]
    return word


def stem(word: str) -> str:
    """Stem a lowercase token; tokens with non-letters pass through unchanged."""
    if len(word) <= 2 or not word.isascii() or not word.isalpha():
        return word
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _apply_rules(word, _STEP2_BY_LAST, 0)
    word = _apply_rules(word, _STEP3_BY_LAST, 0)
    word = _step4(word)
    word = _step5(word)
    return word
