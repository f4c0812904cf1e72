"""Training word vectors from scratch: skip-gram and the subword variant.

Trains negative-sampling skip-gram embeddings on a small synthetic corpus,
shows the per-epoch loss falling, then trains the subword (hashed character
n-gram) variant and demonstrates that it can build a sensible vector for a
misspelling it never saw during training.

Run:  python3 demos/02_train_embeddings.py
"""

import numpy as np

from flamewatch.embeddings import (
    EmbedConfig,
    SubwordConfig,
    lookup,
    train_fasttext,
    train_word2vec,
)


def make_corpus(seed=0):
    # "happy" always appears between a small pool of feeling-words, so it
    # gets a distinctive context signature the model can learn
    rng = np.random.default_rng(seed)
    filler = [f"word{i}" for i in range(40)]
    contexts = ["veryfeel", "sofeel", "feelgood", "todayfeel"]
    sentences = []
    for i in range(1250):
        if i % 2 == 0:
            s = [str(rng.choice(contexts)), "happy",
                 str(rng.choice(contexts)), "happy"]
            s += list(rng.choice(filler, size=4))
        else:
            s = list(rng.choice(filler, size=8))
        sentences.append(s)
    return sentences


def cosine(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


sentences = make_corpus()
print(f"corpus: {len(sentences)} sentences, "
      f"{sum(len(s) for s in sentences)} tokens")

config = EmbedConfig(dim=16, window=2, negatives=2, epochs=3, min_count=1,
                     seed=0)
matrix = train_word2vec(sentences, config)
print("skip-gram epoch losses:",
      " -> ".join(f"{loss:.4f}" for loss in matrix.epoch_losses))

subword = SubwordConfig(min_n=3, max_n=6, buckets=2 ** 12)
config = EmbedConfig(dim=16, window=2, negatives=5, epochs=6, min_count=1,
                     seed=1)
ft = train_fasttext(sentences, config, subword)
print("subword epoch losses:  ",
      " -> ".join(f"{loss:.4f}" for loss in ft.epoch_losses))

# "happyy" never occurs in the corpus; its vector is composed purely from
# character n-grams shared with "happy"
variant = lookup(ft, "happyy")
base = lookup(ft, "happy")
rng = np.random.default_rng(3)
n = len(ft.vocab)
random_sims = [
    cosine(ft.vectors[a], ft.vectors[b])
    for a, b in (rng.choice(n, size=2, replace=False) for _ in range(300))
]
print(f"\ncos(happyy, happy)          = {cosine(variant, base):.4f}")
print(f"median random-pair cosine   = {float(np.median(random_sims)):.4f}")
print("the unseen misspelling lands closer to its base word than chance")
