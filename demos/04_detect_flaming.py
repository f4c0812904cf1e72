"""Finding flaming events: posts hit by abnormal pile-ons of hostility.

Generates a synthetic month of news-page activity with three planted
pile-ons, runs the full pipeline (preprocess, lexicon labeling, per-post
Very-Negative counts, z-scores), and recovers exactly the planted posts.

Run:  python3 demos/04_detect_flaming.py
"""

from flamewatch import data_path
from flamewatch.fixtures import flaming_comments
from flamewatch.flaming import aggregate, detect, post_stats, zscores
from flamewatch.lexicon import label_corpus, load_emoji_table, load_lexicon
from flamewatch.preprocess import RawComment, build_corpus

records, planted = flaming_comments(seed=11)
print(f"synthetic month: {len(records)} comments, "
      f"planted pile-ons on {sorted(planted)}")

corpus = build_corpus(RawComment.from_dict(r) for r in records)
lexicon, _ = load_lexicon(data_path("mini_lexicon.tsv"))
emoji_table = load_emoji_table(data_path("emoji_polarity.tsv"))
labeled, _ = label_corpus(corpus.comments, lexicon, emoji_table)

stats = post_stats(labeled)
zs = zscores(stats)
top = sorted(stats, key=lambda s: zs.z[s.post_id], reverse=True)[:6]
print(f"\n{len(stats)} posts; Very-Negative count mean {zs.mean:.2f}, "
      f"std {zs.std:.2f}; top z-scores:")
for s in top:
    print(f"  {s.post_id:8} vn={s.vn_count:4}  z={zs.z[s.post_id]:+7.2f}")

events = detect(stats, zs, z_threshold=5.0)
print(f"\ndetected {len(events)} events at z >= 5:")
for e in events:
    window = e.burst
    print(f"  {e.post_id}: z={e.z:.1f}, Very-Negative share {e.vn_share:.0%},"
          f" densest window {window.start.isoformat()} "
          f"({window.contained} hostile comments)")
print("recovered == planted:", {e.post_id for e in events} == set(planted))

# the daily time series behind the detection, as a quick text plot
buckets = aggregate(labeled, width="day")
print("\ndaily Very-Negative counts:")
for b in buckets:
    vn = b.counts[0]
    print(f"  {b.start.date()}  {vn:4}  {'#' * min(vn // 3, 60)}")
