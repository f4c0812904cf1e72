"""From raw social-media comments to 5-class sentiment labels.

Walks the first half of the pipeline: load raw JSONL, normalize and
tokenize the messages, stem the tokens, match them against the bundled
sentiment lexicon, and combine lexicon scores with the caps / exclamation /
emoji modifiers into a single score and label per comment.

Run:  python3 demos/01_preprocess_and_label.py
"""

from flamewatch import data_path
from flamewatch.lexicon import (
    label_corpus,
    load_emoji_table,
    load_lexicon,
    match_lexicons,
    score_comment,
)
from flamewatch.preprocess import build_corpus, load_jsonl, normalize_text

raws, errors = load_jsonl(data_path("synthetic_comments.jsonl"))
print(f"loaded {len(raws)} raw comments ({len(errors)} malformed lines)")

corpus = build_corpus(raws)
print(f"kept {corpus.kept} after cleaning "
      f"(dropped {corpus.dropped} that normalized to nothing)")

# the normalizer strips URLs/mentions/hashtags, merges spaced-out letters
# and collapses repeated characters -- a few before/after examples:
for text in ("This is soooo G R E A T!!! 🙂 https://example.com",
             "RT @someone I don't like it... 😡"):
    print(f"  {text!r:58} -> {normalize_text(text)!r}")

lexicon, rejects = load_lexicon(data_path("mini_lexicon.tsv"))
emoji_table = load_emoji_table(data_path("emoji_polarity.tsv"))
print(f"\nlexicon: {len(lexicon.index)} phrases, emoji table: {len(emoji_table)}")

# score one comment by hand to show the breakdown
sample = corpus.comments[0]
matches = match_lexicons(sample, lexicon)
breakdown, score = score_comment(sample, lexicon, emoji_table)
print(f"\nsample comment tokens: {sample.tokens}")
print(f"  matches: {[(' '.join(m.entry.phrase), m.entry.score) for m in matches]}")
print(f"  N={breakdown.N} C={breakdown.C} S={breakdown.S} E={breakdown.E}"
      f"  ->  score {score:+.3f}")

labeled, distribution = label_corpus(corpus.comments, lexicon, emoji_table)
print(f"\nlabeled {len(labeled)} comments:")
for label, count in sorted(distribution.items()):
    print(f"  {label.name:14} {count:4}  {'#' * (count // 5)}")
