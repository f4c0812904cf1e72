"""Skip-gram and subword embedding training, lookup and persistence."""

import math
import re
import resource
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from flamewatch import embeddings
from flamewatch.embeddings import (
    BLOCK_CENTERS,
    MAX_DIM,
    MAX_TABLE_VALUES,
    EmbedConfig,
    EmbeddingMatrix,
    SubwordConfig,
    Vocabulary,
    _hash_ngrams,
    build_vocab,
    compose_word,
    load_embeddings,
    lookup,
    negative_sampling_distribution,
    ngram_ids,
    save_embeddings,
    train_fasttext,
    train_word2vec,
)

from conftest import ten_letter_sentences

SMALL_SUB = SubwordConfig(min_n=3, max_n=4, buckets=2 ** 12)
# characters of 1, 2, 3 and 4 UTF-8 bytes, at the edges of each width
MIXED_WIDTH = "az<\x00\x7f\x80éж\u07ff\u0800€中\uffff\U00010000😀\U0010ffff"


def _cos(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def toy_corpus(seed=0, sentences=200, length=8):
    rng = np.random.default_rng(seed)
    vocab = [f"word{i}" for i in range(20)] + ["happy"]
    return [
        list(rng.choice(vocab, size=length)) for _ in range(sentences)
    ]


def fnv1a_hash(data: bytes) -> int:
    """32-bit FNV-1a, one byte at a time."""
    h = 2166136261
    for byte in data:
        h ^= byte
        h = (h * 16777619) & 0xFFFFFFFF
    return h


def char_ngrams(word: str, min_n: int, max_n: int) -> list[str]:
    """The n-grams of "<word>", by length, then start."""
    padded = f"<{word}>"
    grams = []
    for n in range(min_n, min(max_n, len(padded)) + 1):
        for i in range(len(padded) - n + 1):
            grams.append(padded[i:i + n])
    return grams


def reference_ngram_ids(word, min_n, max_n, buckets):
    return [fnv1a_hash(g.encode("utf-8")) % buckets for g in char_ngrams(word, min_n, max_n)]


def reference_train(sentences, config, sub=None):
    """Block SGD written out pair by pair in plain Python.

    Blocks are runs of consecutive centers of the whole corpus, and a
    center's contexts stay inside its sentence. Draws from the RNG in the
    documented order, reads every score and gradient from the parameters
    as they stood at the block's start, and accumulates the updates into
    the live parameters. Returns the input
    vectors, the bucket vectors (or None), the stored vectors and the
    epoch losses. With a SubwordConfig `sub` it trains the subword variant.
    """
    vocab = build_vocab(sentences, config.min_count)
    rng = np.random.default_rng(config.seed)
    bound = 0.5 / config.dim
    w_in = rng.uniform(-bound, bound, size=(len(vocab), config.dim))
    w_out = np.zeros((len(vocab), config.dim))
    buckets = None
    if sub is not None:
        buckets = rng.uniform(-bound, bound, size=(sub.buckets, config.dim))
        grams = [reference_ngram_ids(w, sub.min_n, sub.max_n, sub.buckets)
                 for w in vocab.id_to_token]
    cdf = np.cumsum(negative_sampling_distribution(vocab))
    cdf[-1] = 1.0
    corpus, bounds = [], []
    for sent in sentences:
        kept = [vocab.token_to_id[t] for t in sent if t in vocab.token_to_id]
        bounds += [(len(corpus), len(corpus) + len(kept))] * len(kept)
        corpus += kept
    total = len(corpus) * config.epochs

    def vector(word, w_in, buckets):
        if sub is None:
            return w_in[word]
        rows = [w_in[word]] + [buckets[b] for b in grams[word]]
        return sum(rows) / len(rows)

    processed = 0
    losses = []
    for _ in range(config.epochs):
        loss, pairs_seen = 0.0, 0
        for first in range(0, len(corpus), BLOCK_CENTERS):
            block = range(first, min(first + BLOCK_CENTERS, len(corpus)))
            radii = rng.integers(1, config.window + 1, size=len(block))
            pairs = []
            for pos, radius in zip(block, radii):
                lr = config.initial_lr * max(1e-4, 1 - processed / (total + 1))
                processed += 1
                begin, end = bounds[pos]
                for ctx in range(max(begin, pos - radius), min(end, pos + radius + 1)):
                    if ctx != pos:
                        pairs.append((corpus[pos], corpus[ctx], lr))
            if not pairs:
                continue
            negs = np.searchsorted(cdf, rng.random((len(pairs), config.negatives)))
            start_in, start_out = w_in.copy(), w_out.copy()
            start_buckets = None if sub is None else buckets.copy()
            for (center, context, lr), neg in zip(pairs, negs):
                v = vector(center, start_in, start_buckets)
                for target, label in [(context, 1.0)] + [(n, 0.0) for n in neg]:
                    score = float(start_out[target] @ v)
                    loss += math.log1p(math.exp(score if label == 0 else -score))
                    clipped = max(-30.0, min(30.0, score))
                    g = lr * (1 / (1 + math.exp(-clipped)) - label)
                    w_out[target] -= g * v
                    grad = g * start_out[target]
                    if sub is None:
                        w_in[center] -= grad
                    else:
                        share = grad / (1 + len(grams[center]))
                        w_in[center] -= share
                        for b in grams[center]:
                            buckets[b] -= share
                pairs_seen += 1
        losses.append(loss / pairs_seen)
    stored = np.array([vector(i, w_in, buckets) for i in range(len(vocab))])
    return w_in, buckets, stored, losses


def block_corpus():
    """Short words (so buckets=7 collides n-grams), words repeated inside a
    sentence, one sentence longer than two blocks, a one-word sentence, a
    word below min_count=2 and a sentence of only such a word. The third
    block holds the end of the long sentence, four whole ones and the start
    of the last, so the boundary after it falls inside that sentence."""
    rng = np.random.default_rng(5)
    words = ["ab", "abc", "bcd", "cab", "dab", "abba", "cd", "dc"]
    long = [str(w) for w in rng.choice(words, size=2 * BLOCK_CENTERS + 9)]
    return [
        long,
        ["ab", "cd", "ab", "ab", "dc", "ab"],
        ["abc"],
        ["lone"],
        [str(w) for w in rng.choice(words, size=12)],
        ["rare", "ab", "cd"],
        [str(w) for w in rng.choice(words, size=40)],
    ]


def block_sentences(sentences, vocab):
    """For each block, the indices of the sentences its centers belong to."""
    owners = [i for i, s in enumerate(sentences) for t in s if t in vocab.token_to_id]
    return [sorted(set(owners[first:first + BLOCK_CENTERS]))
            for first in range(0, len(owners), BLOCK_CENTERS)]


class TestBlockStep:
    @pytest.mark.parametrize("subword", [None, SubwordConfig(min_n=2, max_n=3, buckets=7)],
                             ids=["word2vec", "subword"])
    def test_train_matches_pairwise_reference(self, subword):
        sentences = block_corpus()
        assert max(len(s) for s in sentences) > 2 * BLOCK_CENTERS
        blocks = block_sentences(sentences, build_vocab(sentences, 2))
        # blocks span sentences, and a boundary cuts a sentence other than the first
        assert max(len(b) for b in blocks) >= 3
        assert set(blocks[2]) & set(blocks[3]) == {6}
        config = EmbedConfig(dim=6, window=3, negatives=3, epochs=2, initial_lr=0.2,
                             min_count=2, seed=3)
        if subword is None:
            matrix = train_word2vec(sentences, config, dtype=np.float64)
        else:
            matrix = train_fasttext(sentences, config, subword, dtype=np.float64)
        w_in, buckets, stored, losses = reference_train(sentences, config, subword)
        assert "rare" not in matrix.vocab.token_to_id
        assert np.abs(matrix.vectors - stored).max() < 1e-12
        assert np.abs(np.array(matrix.epoch_losses) - losses).max() < 1e-12
        if subword is not None:
            assert np.abs(matrix.subword.word_raw_vectors - w_in).max() < 1e-12
            rows = matrix.subword.bucket_rows(np.arange(subword.buckets))
            assert np.abs(rows - buckets).max() < 1e-12

    @pytest.mark.parametrize("train", [train_word2vec, train_fasttext])
    def test_bit_identical_given_seed(self, train):
        config = EmbedConfig(dim=6, window=3, negatives=3, epochs=2, min_count=2, seed=9)
        sub = [] if train is train_word2vec else [SubwordConfig(min_n=2, max_n=3, buckets=7)]
        a, b = (train(block_corpus(), config, *sub) for _ in range(2))
        assert a.vectors.tobytes() == b.vectors.tobytes()
        assert a.epoch_losses == b.epoch_losses

    def test_huge_window_allocates_only_the_longest_sentence(self):
        # radii are still drawn from 1..window, but a step's offsets reach
        # only across the longest sentence (137 words), not to +-10**9; an
        # address-space cap of 1 GiB over what the process holds turns a
        # regression into a MemoryError instead of gigabytes of pages
        config = EmbedConfig(dim=6, window=10 ** 9, negatives=3, epochs=1,
                             initial_lr=0.005, min_count=2, seed=3)
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        with open("/proc/self/statm") as fh:
            held = int(fh.read().split()[0]) * resource.getpagesize()
        cap = held + 2 ** 30
        resource.setrlimit(resource.RLIMIT_AS,
                           (cap if hard == resource.RLIM_INFINITY else min(cap, hard), hard))
        tracemalloc.start()
        try:
            matrix = train_word2vec(block_corpus(), config, dtype=np.float64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
        _, _, stored, losses = reference_train(block_corpus(), config)
        assert np.abs(matrix.vectors - stored).max() < 1e-12
        np.testing.assert_allclose(matrix.epoch_losses, losses, rtol=1e-12)
        assert peak < 16 * 2 ** 20

    def test_one_word_sentences_have_no_pair(self):
        # consecutive centers share a block but never a sentence
        sentences = [["a"], ["b"], ["c"], ["a"], ["b"], ["c"]] * 30
        config = EmbedConfig(dim=4, window=5, negatives=2, epochs=2, min_count=1)
        for train in (train_word2vec, train_fasttext):
            with pytest.raises(ValueError, match=r"no \(center, context\) pair"):
                train(sentences, config)


class TestVocab:
    def test_min_count_filters(self):
        vocab = build_vocab([["a", "a", "b"]], min_count=2)
        assert vocab.id_to_token == ["a"]

    def test_ordering_count_desc_then_token(self):
        vocab = build_vocab([["b", "b", "a", "a", "c", "c", "c"]], min_count=1)
        assert vocab.id_to_token == ["c", "a", "b"]

    def test_deterministic(self):
        sents = toy_corpus()
        assert build_vocab(sents).id_to_token == build_vocab(sents).id_to_token

    def test_empty_corpus_raises(self):
        with pytest.raises(ValueError):
            build_vocab([[]])

    def test_unreachable_min_count_raises(self):
        with pytest.raises(ValueError):
            build_vocab([["a", "b"]], min_count=5)


class TestNoiseDistribution:
    def test_proportional_to_count_power(self):
        vocab = build_vocab([["a"] * 16 + ["b"] * 4 + ["c"] * 2], min_count=1)
        dist = negative_sampling_distribution(vocab)
        weights = vocab.counts.astype(float) ** 0.75
        assert dist == pytest.approx(weights / weights.sum(), abs=1e-15)

    def test_sums_to_one(self):
        vocab = build_vocab(toy_corpus(), min_count=1)
        dist = negative_sampling_distribution(vocab)
        assert abs(dist.sum() - 1.0) < 1e-12
        assert (dist > 0).all()


def noise_cdf(counts):
    """The noise CDF that training draws negatives from, for word counts `counts`."""
    words = [f"w{i}" for i in range(len(counts))]
    vocab = Vocabulary({w: i for i, w in enumerate(words)}, words,
                       np.asarray(counts, dtype=np.int64))
    cdf = np.cumsum(negative_sampling_distribution(vocab))
    cdf[-1] = 1.0
    return cdf


class TestNoiseSampler:
    @pytest.mark.parametrize("counts", [
        [10 ** 9] + [1] * 6000,  # one word holds nearly all the mass
        [3] * 1000,
        [7],
        (10 ** 7 // np.arange(1, 50_001)) + 1,  # Zipf over 50k words
        2 ** np.arange(40, -1, -1),  # each word half the one before
    ], ids=["dominant", "flat", "single", "zipf-50k", "geometric"])
    def test_draws_equal_searchsorted(self, counts):
        cdf = noise_cdf(counts)
        sampler = embeddings.NoiseSampler.from_cdf(cdf)
        cells = sampler.guide.size - 1
        assert cells >= 4 * cdf.size and cells & (cells - 1) == 0
        assert sampler.rounds <= math.ceil(math.log2(cdf.size)) + 1
        # random draws, the ends of [0, 1), every CDF value and cell edge, and
        # the doubles on either side of each
        edges = np.concatenate(([0.0, 1.0], cdf, np.arange(cells + 1) / cells))
        u = np.concatenate((np.random.default_rng(len(counts)).random(200_000), edges,
                            np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)))
        u = u[(u >= 0.0) & (u < 1.0)]
        assert u.min() == 0.0 and u.max() == np.nextafter(1.0, 0.0)
        assert sampler.draw(u).tolist() == np.searchsorted(cdf, u).tolist()
        block = u[:300].reshape(100, 3)
        assert sampler.draw(block).tolist() == np.searchsorted(cdf, block).tolist()


class TestSubwordPieces:
    def test_char_ngrams_with_boundaries(self):
        assert char_ngrams("ab", 3, 4) == ["<ab", "ab>", "<ab>"]

    def test_fnv1a_reference_values(self):
        # published 32-bit FNV-1a test vectors
        assert fnv1a_hash(b"") == 0x811C9DC5
        assert fnv1a_hash(b"a") == 0xE40C292C
        assert fnv1a_hash(b"foobar") == 0xBF9CF968

    @settings(max_examples=300)
    @given(
        st.lists(st.text(alphabet=st.sampled_from(MIXED_WIDTH), max_size=9), max_size=6),
        st.sampled_from([(1, 1, 7), (2, 3, 7), (3, 6, 2 ** 21), (1, 40, 2 ** 33),
                         (4, 5, 2 ** 32), (3, 10 ** 9, 1009), (12, 14, 7)]),
    )
    def test_vectorized_ids_equal_scalar_reference(self, words, ngram_range):
        min_n, max_n, buckets = ngram_range
        ids, starts = _hash_ngrams(words, min_n, max_n, buckets)
        assert starts[0] == 0 and starts[-1] == ids.size
        for i, word in enumerate(words):
            expected = reference_ngram_ids(word, min_n, max_n, buckets)
            assert ids[starts[i]:starts[i + 1]].tolist() == expected
            if buckets <= 2 ** 31 - 1:  # what SubwordConfig accepts
                sub = SubwordConfig(min_n=min_n, max_n=max_n, buckets=buckets)
                assert ngram_ids(word, sub) == expected

    def test_lone_surrogate_raises(self):
        with pytest.raises(UnicodeEncodeError):
            ngram_ids("ab\ud800", SMALL_SUB)

    def test_ngram_ids_in_bucket_range(self):
        ids = ngram_ids("hello", SMALL_SUB)
        assert ids and all(0 <= i < SMALL_SUB.buckets for i in ids)

    def test_min_n_above_max_n_rejected(self):
        with pytest.raises(ValueError):
            SubwordConfig(min_n=5, max_n=3)

    @pytest.mark.parametrize("min_n", [0, -1, -2])
    def test_min_n_below_one_rejected(self, min_n):
        with pytest.raises(ValueError, match="min_n"):
            SubwordConfig(min_n=min_n, max_n=3)

    @pytest.mark.parametrize("field", ["min_n", "max_n", "buckets"])
    def test_beyond_int32_rejected(self, field):
        fields = {"min_n": 3, "max_n": 2 ** 31 - 1, "buckets": 2 ** 31 - 1}
        SubwordConfig(**fields)  # the largest values the sidecar header holds
        fields[field] = 2 ** 31
        if field == "min_n":
            fields["max_n"] = 2 ** 31
        message = f"{field} 2147483648 outside [1, 2147483647]"
        with pytest.raises(ValueError, match=re.escape(message)):
            SubwordConfig(**fields)


@pytest.mark.parametrize("field, value", [
    ("dim", 0), ("window", 0), ("epochs", 0), ("negatives", -1),
    ("negatives", embeddings.MAX_NEGATIVES + 1), ("negatives", 10 ** 9),
    ("initial_lr", 0.0), ("initial_lr", -0.1), ("initial_lr", float("nan")),
])
def test_embed_config_rejects_out_of_range(field, value):
    with pytest.raises(ValueError, match=field):
        EmbedConfig(**{field: value})


def test_embed_config_allows_zero_negatives():
    EmbedConfig(negatives=embeddings.MAX_NEGATIVES)  # the bound itself is allowed
    config = EmbedConfig(dim=4, window=2, negatives=0, epochs=1, min_count=1)
    assert np.isfinite(train_word2vec(toy_corpus(sentences=10), config).vectors).all()


class TestTraining:
    def test_loss_decreases_word2vec(self):
        config = EmbedConfig(dim=16, window=3, negatives=3, epochs=3,
                             min_count=1, seed=4)
        matrix = train_word2vec(toy_corpus(), config)
        assert matrix.epoch_losses[-1] < matrix.epoch_losses[0]

    def test_cooccurring_pair_more_similar_than_random(self):
        # "sun" and "moon" co-occur in every sentence and draw their
        # immediate neighbours from the same small context pool, so their
        # vectors should end up close; cosines are taken after removing the
        # corpus-wide mean, which all vectors drift along during training
        rng = np.random.default_rng(9)
        ctx = [f"c{i}" for i in range(6)]
        filler = [f"f{i}" for i in range(30)]
        sents = []
        for _ in range(300):
            sents.append(
                [str(rng.choice(ctx)), "sun", str(rng.choice(ctx))]
                + list(rng.choice(filler, size=3))
                + [str(rng.choice(ctx)), "moon", str(rng.choice(ctx))]
            )
        config = EmbedConfig(dim=24, window=1, negatives=4, epochs=5,
                             min_count=1, seed=1)
        matrix = train_word2vec(sents, config)
        centered = matrix.vectors - matrix.vectors.mean(axis=0)
        ids = matrix.vocab.token_to_id
        pair = _cos(centered[ids["sun"]], centered[ids["moon"]])
        sims = []
        for _ in range(300):
            a, b = rng.choice(len(ids), size=2, replace=False)
            sims.append(_cos(centered[a], centered[b]))
        assert pair > np.percentile(sims, 95)

    @pytest.mark.parametrize("dim", [0, MAX_DIM + 1, 10 ** 8])
    def test_dim_bounded(self, dim):
        with pytest.raises(ValueError, match=rf"^dim {dim} outside \[1, {MAX_DIM}\]$"):
            EmbedConfig(dim=dim)
        assert EmbedConfig(dim=MAX_DIM).dim == MAX_DIM

    def test_bucket_table_bounded(self):
        # the bound counts the rows stored, one per distinct n-gram id of the
        # vocabulary, and is checked before anything is drawn: the 4000 x 4096
        # input vectors alone would be 125 MiB
        sentences = ten_letter_sentences()
        vocab = build_vocab(sentences)
        hashed, _ = _hash_ngrams(vocab.id_to_token, 3, 6, SubwordConfig().buckets)
        seen = np.unique(hashed).size
        assert seen * MAX_DIM > MAX_TABLE_VALUES
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=rf"^{seen} seen n-gram buckets x {MAX_DIM} dims "
                                                 rf"exceed MAX_TABLE_VALUES {MAX_TABLE_VALUES}; "
                                                 r"lower --dim or --buckets$"):
                train_fasttext(sentences, EmbedConfig(dim=MAX_DIM))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

    def test_dim_one_smoke(self):
        config = EmbedConfig(dim=1, window=2, negatives=2, epochs=1,
                             min_count=1, seed=0)
        matrix = train_word2vec(toy_corpus(sentences=20), config)
        assert matrix.vectors.shape[1] == 1

    def test_deterministic_given_seed(self):
        config = EmbedConfig(dim=8, window=2, negatives=2, epochs=2,
                             min_count=1, seed=7)
        a = train_word2vec(toy_corpus(sentences=50), config)
        b = train_word2vec(toy_corpus(sentences=50), config)
        assert (a.vectors == b.vectors).all()

    def test_corpus_below_min_count_raises(self):
        with pytest.raises(ValueError):
            train_word2vec([["a", "b", "c"]], EmbedConfig(dim=4, min_count=2))


@pytest.fixture(scope="module")
def matrix():
    config = EmbedConfig(dim=16, window=3, negatives=3, epochs=3,
                         min_count=1, seed=2)
    return train_fasttext(toy_corpus(sentences=150), config, SMALL_SUB)


class TestFasttext:
    def test_stored_vectors_are_composed(self, matrix):
        # every stored row must equal the mean of the word's raw vector and
        # its n-gram bucket vectors, recomputed independently
        sub = matrix.subword
        for wid, word in enumerate(matrix.vocab.id_to_token):
            grams = ngram_ids(word, sub.config)
            stack = np.vstack((sub.word_raw_vectors[wid], sub.bucket_rows(grams)))
            assert matrix.vectors[wid] == pytest.approx(stack.mean(axis=0))

    def test_oov_composition_nonzero(self, matrix):
        vec = lookup(matrix, "zzzqqq")
        assert np.linalg.norm(vec) > 0

    def test_oov_variant_similar_to_base(self, matrix):
        # shared character n-grams should pull the misspelling towards its
        # base word; compare against random pairs with the common mean removed
        rng = np.random.default_rng(3)
        mean = matrix.vectors.mean(axis=0)
        variant = lookup(matrix, "happyy") - mean
        base = lookup(matrix, "happy") - mean
        centered = matrix.vectors - mean
        sims = []
        n = len(matrix.vocab)
        for _ in range(200):
            a, b = rng.choice(n, size=2, replace=False)
            sims.append(_cos(centered[a], centered[b]))
        assert _cos(variant, base) > np.median(sims)

    def test_compose_word_requires_subword(self):
        config = EmbedConfig(dim=4, window=2, negatives=2, epochs=1, min_count=1)
        w2v = train_word2vec(toy_corpus(sentences=20), config)
        with pytest.raises(ValueError):
            compose_word(w2v, "happy")

    def test_word2vec_oov_is_zero_vector(self):
        config = EmbedConfig(dim=4, window=2, negatives=2, epochs=1, min_count=1)
        w2v = train_word2vec(toy_corpus(sentences=20), config)
        assert (lookup(w2v, "zzzqqq") == 0).all()


# The subword trainer as it was when it drew the whole (buckets, dim) table in
# one call and indexed it by hashed id, with the float32 step of `_train`, kept
# to pin that drawing only the seen rows changes no bit.
@np.errstate(over="ignore", invalid="ignore")
def full_table_train(sentences, config, sub):
    """Vectors, epoch losses, raw input vectors and the whole bucket table."""
    vocab = build_vocab(sentences, config.min_count)
    ids, sent_begin, sent_end = embeddings._corpus_ids(sentences, vocab)
    longest = int((sent_end - sent_begin).max())
    rng = np.random.default_rng(config.seed)
    dim = config.dim
    vocab_size = len(vocab)
    bound = 0.5 / dim
    # the input vectors, then every bucket row, as one float32 table
    w_in = np.concatenate((rng.uniform(-bound, bound, size=(vocab_size, dim)),
                           rng.uniform(-bound, bound, size=(sub.buckets, dim))))
    w_in = w_in.astype(np.float32)
    w_out = np.zeros((vocab_size, dim), np.float32)
    hashed, starts = _hash_ngrams(vocab.id_to_token, sub.min_n, sub.max_n, sub.buckets)
    runs = embeddings._runs(hashed, starts, vocab_size)
    noise_cdf = np.cumsum(negative_sampling_distribution(vocab))
    noise_cdf[-1] = 1.0
    flip = np.array([-1] + [1] * config.negatives, np.float32)
    total_centers = ids.size * config.epochs
    widest = min(config.window, longest - 1)
    offsets = np.concatenate((np.arange(-widest, 0), np.arange(1, widest + 1)))
    reach = np.abs(offsets)
    processed = 0
    losses = []
    for _epoch in range(config.epochs):
        epoch_loss = 0.0
        epoch_pairs = 0
        for first in range(0, ids.size, BLOCK_CENTERS):
            last = min(first + BLOCK_CENTERS, ids.size)
            lr = config.initial_lr * np.maximum(
                1e-4, 1.0 - np.arange(processed, processed + last - first) / (total_centers + 1)
            )
            processed += last - first
            radius = rng.integers(1, config.window + 1, size=last - first)
            ctx = np.arange(first, last)[:, None] + offsets
            keep = (
                (reach <= radius[:, None])
                & (ctx >= sent_begin[first:last, None])
                & (ctx < sent_end[first:last, None])
            )
            pair_center, pair_slot = np.nonzero(keep)
            if not pair_center.size:
                continue
            negs = np.searchsorted(noise_cdf, rng.random((pair_center.size, config.negatives)))
            targets = np.concatenate((ids[ctx[pair_center, pair_slot]][:, None], negs), axis=1)
            flat, start, size = embeddings._gather(*runs, ids[first:last])
            v = embeddings._compose(w_in, flat, start, size)[pair_center]
            u = w_out[targets]
            scores = np.einsum("pkd,pd->pk", u, v)
            epoch_loss += float(np.logaddexp(0, flip * scores).sum(dtype=np.float64))
            epoch_pairs += pair_center.size
            g = 1.0 / (1.0 + np.exp(-np.clip(scores, -30, 30)))
            g[:, 0] -= 1.0
            g *= (-lr).astype(np.float32)[pair_center][:, None]
            embeddings._scatter_add(
                w_out, targets.ravel(), (g[:, :, None] * v[:, None, :]).reshape(-1, dim)
            )
            grad = np.zeros((last - first, dim), np.float32)
            embeddings._scatter_add(grad, pair_center, np.einsum("pk,pkd->pd", g, u))
            grad /= size[:, None]
            embeddings._scatter_add(w_in, flat, np.repeat(grad, size, axis=0))
        losses.append(epoch_loss / epoch_pairs)
    vectors = np.empty((vocab_size, dim), np.float32)
    for first in range(0, vocab_size, BLOCK_CENTERS):
        words = np.arange(first, min(first + BLOCK_CENTERS, vocab_size))
        vectors[words] = embeddings._compose(w_in, *embeddings._gather(*runs, words))
    return vectors, losses, w_in[:vocab_size], w_in[vocab_size:]


def full_table_compose(vocab, w_in, buckets, sub, word):
    """compose_word as it read the whole table."""
    rows = [buckets[i] for i in ngram_ids(word, sub)]
    wid = vocab.token_to_id.get(word)
    if wid is not None:
        rows.insert(0, w_in[wid])
    if not rows:
        return np.zeros(w_in.shape[1], w_in.dtype)
    return np.vstack(rows).mean(axis=0)


class TestSeenRows:
    CONFIG = EmbedConfig(dim=4, window=3, negatives=3, epochs=2, initial_lr=0.2,
                         min_count=2, seed=3)

    @pytest.mark.parametrize("sub", [
        SubwordConfig(min_n=2, max_n=3, buckets=7),
        SubwordConfig(min_n=2, max_n=4, buckets=4096),
        SubwordConfig(min_n=2, max_n=4, buckets=65536),
        SubwordConfig(buckets=2 ** 21),
        SubwordConfig(min_n=12, max_n=14, buckets=2 ** 21),  # no word has an n-gram
    ], ids=["7", "4096", "65536", "2**21", "no-ngrams"])
    def test_bit_identical_to_full_table(self, sub):
        sentences = block_corpus()
        matrix = train_fasttext(sentences, self.CONFIG, sub)
        vectors, losses, w_in, buckets = full_table_train(sentences, self.CONFIG, sub)
        assert matrix.vectors.tobytes() == vectors.tobytes()
        assert matrix.epoch_losses == losses
        table = matrix.subword
        assert table.word_raw_vectors.tobytes() == w_in.tobytes()
        hashed, _ = _hash_ngrams(matrix.vocab.id_to_token, sub.min_n, sub.max_n, sub.buckets)
        assert table.seen.tolist() == sorted(set(hashed.tolist()))
        assert table.rows.shape == (table.seen.size, self.CONFIG.dim)
        # the seen rows trained, the others as drawn, first and last bucket included
        rng = np.random.default_rng(0)
        probe = np.unique(np.concatenate((
            [0, sub.buckets - 1], table.seen, rng.integers(0, sub.buckets, size=200))))
        assert table.bucket_rows(probe).tobytes() == buckets[probe].tobytes()
        for word in ["ab", "zzzqqq", "abbba", "dab", "é中😀"]:
            expected = full_table_compose(matrix.vocab, w_in, buckets, sub, word)
            assert compose_word(matrix, word).tobytes() == expected.tobytes()
            if word not in matrix.vocab.token_to_id:
                assert lookup(matrix, word).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("buckets, dim", [(1, 1), (7, 3), (5000, 1), (5000, 100),
                                              (70_001, 4), (2 ** 21, 2)])
    def test_draw_rows_equals_one_call_draw(self, buckets, dim):
        rng = np.random.default_rng(buckets + dim)
        rng.uniform(size=(5, dim))  # the input vectors come first
        state = rng.bit_generator.state
        table = rng.uniform(-0.125, 0.125, size=(buckets, dim))
        after = rng.integers(1, 6, size=9), rng.random((4, 3))
        for size in (1, 2, 50, 3000):
            picks = rng.integers(0, buckets, size=size)
            rows = np.unique(np.concatenate((picks, [0, buckets - 1])))
            drawn = embeddings._draw_rows(state, 0.125, rows, np.empty((rows.size, dim)))
            assert drawn.tobytes() == table[rows].tobytes()
            # a float32 table gets each double rounded once
            drawn = embeddings._draw_rows(state, 0.125, rows,
                                          np.empty((rows.size, dim), np.float32))
            assert drawn.tobytes() == table[rows].astype(np.float32).tobytes()
        empty = embeddings._draw_rows(state, 0.125, np.array([], dtype=np.int64),
                                      np.empty((0, dim)))
        assert empty.shape == (0, dim)
        # the training generator jumps over the table and then draws as before
        jumped = np.random.default_rng(buckets + dim)
        jumped.uniform(size=(5, dim))
        jumped.bit_generator.advance(buckets * dim)
        assert jumped.integers(1, 6, size=9).tolist() == after[0].tolist()
        assert jumped.random((4, 3)).tobytes() == after[1].tobytes()

    def test_memory_follows_the_vocabulary(self):
        # the whole table at the default 2**21 buckets would be 128 MiB at dim 8
        config = EmbedConfig(dim=8, window=3, negatives=3, epochs=1, min_count=1, seed=1)
        tracemalloc.start()
        try:
            matrix = train_fasttext(toy_corpus(sentences=50), config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert matrix.subword.config.buckets == 2 ** 21
        assert matrix.subword.rows.nbytes < 2 ** 20
        assert peak < 4 * 2 ** 20


class TestStepPieces:
    def test_compose_words_without_ngrams(self):
        # at min_n 5, "<ab>" and "<xy>" have no n-gram: such words open, sit
        # inside and close the block, and "<abcd>" has three
        words = ["ab", "abcd", "xy", "abcdef", "ab", "abcd", "xy"]
        vocab = sorted(set(words))
        hashed, starts = _hash_ngrams(vocab, 5, 6, 64)
        seen, compact = np.unique(hashed, return_inverse=True)
        runs = embeddings._runs(compact, starts, len(vocab))
        # whole numbers, so that every sum is exact whatever its order
        w_in = np.random.default_rng(2).integers(-999, 1000, size=(len(vocab) + seen.size, 5))
        w_in = w_in.astype(np.float32)
        block = np.array([vocab.index(w) for w in words])
        assert [starts[w + 1] - starts[w] for w in block] == [0, 3, 0, 7, 0, 3, 0]
        # the add.at sum: the word's own row, then its n-gram rows in order
        total = w_in[block]
        for i, w in enumerate(block):
            grams = compact[starts[w]:starts[w + 1]] + len(vocab)
            np.add.at(total, np.full(grams.size, i), w_in[grams])
        size = 1 + np.diff(starts)[block]
        expected = total / size[:, None].astype(np.float32)
        composed = embeddings._compose(w_in, *embeddings._gather(*runs, block))
        assert composed.dtype == np.float32
        assert composed.tobytes() == expected.tobytes()

    def test_state_is_float32(self):
        config = EmbedConfig(dim=8, window=2, negatives=2, epochs=1, min_count=1, seed=1)
        sentences = toy_corpus(sentences=30)
        w2v = train_word2vec(sentences, config)
        matrix = train_fasttext(sentences, config, SMALL_SUB)
        table = matrix.subword
        unseen = np.setdiff1d(np.arange(SMALL_SUB.buckets), table.seen)[::50]
        assert unseen.size
        for array in (w2v.vectors, matrix.vectors, table.word_raw_vectors, table.rows,
                      table.bucket_rows(unseen), lookup(w2v, "zzzqqq"),
                      lookup(matrix, "zzzqqq")):
            assert array.dtype == np.float32
        # an unseen row is its initial draw, rounded once to float32
        double = train_fasttext(sentences, config, SMALL_SUB, dtype=np.float64).subword
        assert double.rows.dtype == np.float64
        assert (table.bucket_rows(unseen).tobytes()
                == double.bucket_rows(unseen).astype(np.float32).tobytes())

    def test_fasttext_holds_no_float64_copy_of_the_seen_rows(self):
        # 1000 ten-letter words hash to about 31k distinct ids; the float32
        # table and its bounded draw blocks stay below the bytes of one
        # float64 copy of those rows
        sentences = ten_letter_sentences(words=1000)
        config = EmbedConfig(dim=64, window=2, negatives=2, epochs=1, min_count=2, seed=1)
        tracemalloc.start()
        try:
            matrix = train_fasttext(sentences, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        seen_bytes = matrix.subword.seen.size * config.dim
        assert matrix.subword.rows.nbytes == 4 * seen_bytes
        assert peak < 8 * seen_bytes, f"peak {peak} >= float64 rows {8 * seen_bytes}"


class TestPersistence:
    def test_word2vec_round_trip(self, tmp_path):
        config = EmbedConfig(dim=8, window=2, negatives=2, epochs=1,
                             min_count=1, seed=0)
        matrix = train_word2vec(toy_corpus(sentences=30), config)
        path = tmp_path / "vectors.txt"
        save_embeddings(matrix, path)
        back = load_embeddings(path)
        assert back.vocab.id_to_token == matrix.vocab.id_to_token
        assert back.vectors == pytest.approx(matrix.vectors, abs=1e-6)
        assert back.subword is None

    def test_fasttext_round_trip_with_sidecar(self, tmp_path):
        # the file holds the composed vectors only; a reloaded matrix has no
        # subword table, so an OOV word looks up as zeros, as for word2vec
        config = EmbedConfig(dim=8, window=2, negatives=2, epochs=1,
                             min_count=1, seed=0)
        matrix = train_fasttext(toy_corpus(sentences=30), config, SMALL_SUB)
        path = tmp_path / "vectors.txt"
        save_embeddings(matrix, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["vectors.txt"]
        back = load_embeddings(path)
        assert back.vocab.id_to_token == matrix.vocab.id_to_token
        assert back.vectors == pytest.approx(matrix.vectors, abs=1e-6)
        assert back.subword is None
        assert (lookup(back, "happyy") == 0).all()

    def test_bad_header_line_numbered(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("garbage header line\n")
        with pytest.raises(ValueError, match="line 1"):
            load_embeddings(path)

    @pytest.mark.parametrize("header", ["x 3", "2 3.5", "-1 3", "1 0"])
    def test_header_values_checked_line_numbered(self, tmp_path, header):
        path = tmp_path / "vectors.txt"
        path.write_text(header + "\n")
        with pytest.raises(ValueError, match="line 1"):
            load_embeddings(path)

    def test_non_numeric_component_line_numbered(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("2 2\nword 0.1 0.2\nother 0.3 abc\n")
        with pytest.raises(ValueError, match="line 3: .*'abc'"):
            load_embeddings(path)

    def test_save_bytes_match_per_value_formatter(self, tmp_path):
        rng = np.random.default_rng(4)
        values = 10.0 ** rng.uniform(-12, 4, size=(50, 7))
        values *= rng.choice([-1.0, 1.0], size=values.shape)
        values[0, :3] = [0.0, -0.0, 5e-324]
        words = [f"w{i}" for i in range(len(values))]
        vocab = Vocabulary({w: i for i, w in enumerate(words)}, words,
                           np.ones(len(words), dtype=np.int64))
        path = tmp_path / "vectors.txt"
        save_embeddings(EmbeddingMatrix(dim=7, vocab=vocab, vectors=values), path)
        expected = f"{len(words)} 7\n" + "".join(
            f"{w} " + " ".join(f"{v:.8e}" for v in row) + "\n"
            for w, row in zip(words, values)
        )
        assert path.read_bytes() == expected.encode("utf-8")

    def test_wrong_component_count_line_numbered(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("1 3\nword 0.1 0.2\n")
        with pytest.raises(ValueError, match="line 2"):
            load_embeddings(path)

    def test_truncated_body_reported(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("2 2\nword 0.1 0.2\n")
        with pytest.raises(ValueError, match="file ended"):
            load_embeddings(path)

    def test_trailing_data_reported(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("1 2\nword 0.1 0.2\nextra stuff\n")
        with pytest.raises(ValueError, match="trailing"):
            load_embeddings(path)
        # a row after blank lines is refused too, named by its own line
        path.write_text("1 2\nword 0.1 0.2\n\nextra 9 9\n")
        with pytest.raises(ValueError, match="line 4: trailing data"):
            load_embeddings(path)

    def test_header_count_is_not_preallocated(self, tmp_path):
        # a count of 10^12 rows at dim 100 would need ~728 TiB up front
        path = tmp_path / "vectors.txt"
        row = " ".join(["0.5"] * 100)
        path.write_text(f"1000000000000 100\nword {row}\n")
        with pytest.raises(ValueError, match="line 3: expected 1000000000000"):
            load_embeddings(path)

    def test_non_finite_component_line_numbered(self, tmp_path):
        path = tmp_path / "vectors.txt"
        for bad in ("nan", "inf", "-inf", "-NaN", "Infinity"):
            path.write_text(f"3 2\nword 0.1 0.2\nother 0.3 {bad}\nlast 0.5 0.6\n")
            with pytest.raises(ValueError,
                               match=f"^{path}: line 3: component 2 is not finite: "):
                load_embeddings(path)

    # tokens that float() and numpy's own parser read differently, beside
    # texts of save_embeddings' layout that fall just outside what it writes
    @pytest.mark.parametrize("token", [
        "1_0", "0x1p3", "1e400", "nan", "infinity", "\u22121", "\u0661.5", "1.00000000e+00\t",
        "\t1.5", "", "1.00000000e+00 ", "1.00000000E+00", "+1.00000000e+00", "1.0000000e+00",
        "1.00000000e+3", "1.00000000e+030", "1.00000000e-15", "1.00000000e+31", "--1.00000000e+00",
        "1.00000000e+0-", "1.00000000x+00", "1,00000000e+00", "-0.00000000e+00", "9.99999999e+29",
    ])
    def test_loader_accepts_what_float_accepts(self, tmp_path, token):
        path = tmp_path / "vectors.txt"
        lines = ["w0 5.00000000e-01 -2.50000000e-01", f"w1 -1.00000000e+00 {token}"]
        path.write_text(f"2 2\n" + "\n".join(lines) + "\n", encoding="utf-8")
        parts = lines[1].split(" ")
        if len(parts) != 3:
            with pytest.raises(ValueError, match="^.*: line 3: expected 2 components"):
                load_embeddings(path)
            return
        try:
            value = float(token)
        except ValueError:
            with pytest.raises(ValueError, match="^.*: line 3: could not convert"):
                load_embeddings(path)
            return
        if not math.isfinite(value):
            with pytest.raises(ValueError,
                               match="^.*: line 3: component 2 is not finite"):
                load_embeddings(path)
            return
        expected = np.array([[0.5, -0.25], [-1.0, value]])
        assert load_embeddings(path).vectors.tobytes() == expected.tobytes()

    def test_written_values_are_parsed_in_bulk_as_float_reads_them(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        values = 10.0 ** rng.uniform(-14, 30, size=(300, 9))
        values *= rng.choice([-1.0, 1.0], size=values.shape)
        values[0, :4] = [0.0, -0.0, 1e-14, 9.999999996e29]
        path = tmp_path / "vectors.txt"
        text, words = _save_bytes(values, path)
        parse, blocks = embeddings._parse_written, []
        monkeypatch.setattr(embeddings, "_parse_written",
                            lambda texts, dim: blocks.append(len(texts)) or parse(texts, dim))
        monkeypatch.setattr(embeddings, "SAVE_BLOCK_VALUES", 7 * 9)  # 42 blocks, 6 rows over
        back = load_embeddings(path)
        # every block went to the bulk parser, the last one short
        assert blocks == [7] * 42 + [6]
        expected = [[float(v) for v in line.split(" ")[1:]]
                    for line in text.decode().splitlines()[1:]]
        assert back.vocab.id_to_token == words
        assert back.vectors.tobytes() == np.array(expected).tobytes()

    @pytest.fixture
    def written(self, tmp_path, monkeypatch):
        """A written 10 x 2 file read in blocks of three rows, and its lines."""
        monkeypatch.setattr(embeddings, "SAVE_BLOCK_VALUES", 3 * 2)
        values = np.random.default_rng(8).standard_normal((10, 2))
        text, _ = _save_bytes(values, tmp_path / "vectors.txt")
        return tmp_path / "vectors.txt", text.decode().splitlines()

    def test_foreign_value_in_last_block_read_by_float(self, written):
        path, lines = written
        lines[-1] = lines[-1].rsplit(" ", 1)[0] + " 0.1"  # %.8e would write 1.00000000e-01
        path.write_text("\n".join(lines) + "\n")
        expected = [[float(v) for v in line.split(" ")[1:]] for line in lines[1:]]
        assert load_embeddings(path).vectors.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("lineno", [9, 11])
    def test_bad_token_in_late_block_named_by_its_line(self, written, lineno):
        path, lines = written
        lines[lineno - 1] = lines[lineno - 1].rsplit(" ", 1)[0] + " x1"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError,
                           match=f"^.*: line {lineno}: could not convert string to float: 'x1'$"):
            load_embeddings(path)

    def test_first_bad_line_named_before_a_later_error(self, written):
        # line 6 is bad inside the block that the end of the file (line 7) cuts short
        path, lines = written
        lines[5] = lines[5] + " 1.0"
        path.write_text("\n".join(lines[:6]) + "\n")
        with pytest.raises(ValueError, match="line 6: expected 2 components, got 3"):
            load_embeddings(path)

    def test_truncated_written_file_opened_once(self, written, monkeypatch):
        path, lines = written
        path.write_text("\n".join(lines[:8]) + "\n")
        read, opened = embeddings.read_lines, []
        monkeypatch.setattr(embeddings, "read_lines",
                            lambda path: opened.append(path) or read(path))
        with pytest.raises(ValueError, match="line 9: expected 10 vector lines"):
            load_embeddings(path)
        assert opened == [path]

    def test_repeated_word_refused_naming_both_lines(self, written):
        path, lines = written
        lines[7] = "w2" + lines[7][2:]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="^.*: line 8: word 'w2' repeats line 4$"):
            load_embeddings(path)


def _expected_text(words, values) -> bytes:
    """The file as a per-value f"{v:.8e}" writer makes it."""
    return (f"{len(words)} {values.shape[1]}\n" + "".join(
        f"{w} " + " ".join(f"{v:.8e}" for v in row) + "\n" for w, row in zip(words, values)
    )).encode("utf-8")


def _save_bytes(values, path) -> tuple[bytes, list[str]]:
    words = [f"w{i}" for i in range(len(values))]
    save_embeddings(EmbeddingMatrix(values.shape[1], Vocabulary.from_tokens(words), values),
                    path)
    return path.read_bytes(), words


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _nudged(value: float, steps: int) -> float:
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


_NEAR_TIES = st.builds(lambda digits, k, steps: _nudged(float(f"{digits}5e{k}"), steps),
                       st.integers(10 ** 8, 10 ** 9 - 1), st.integers(-25, 22),
                       st.integers(-2, 2))
_DECADE_EDGES = st.builds(lambda k, steps: _nudged(float(f"9.999999995e{k}"), steps),
                          st.integers(-16, 31), st.integers(-2, 2))
_DOMAIN_EDGES = st.builds(_nudged, st.sampled_from([1e-14, 1e30]), st.integers(-3, 3))
_SPECIALS = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
                     2.2250738585072009e-308, 1e-100, 1e100, 1.7976931348623157e308]),
    st.integers(1, 2 ** 52 - 1).map(_from_bits),  # subnormals
    st.floats(min_value=1e-300, max_value=1e-100),  # 3-digit exponents
    st.floats(min_value=1e100, max_value=1e300),
)
_VALUES = st.builds(
    lambda value, negative: -value if negative else value,
    st.one_of(st.integers(0, 2 ** 64 - 1).map(_from_bits), _NEAR_TIES, _DECADE_EDGES,
              _DOMAIN_EDGES, _SPECIALS, st.floats(min_value=1e-3, max_value=1.0)),
    st.booleans(),
)


class TestSaveFormatter:
    """save_embeddings writes the bytes of a per-value f"{v:.8e}" writer."""

    @seed(17)
    @settings(max_examples=400, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(_VALUES, min_size=1, max_size=24), st.integers(1, 4))
    # at the first exponent 9.999999995 scales to 999999999.5: 9.99999999e+00
    # is right, and checking the tie only after moving the exponent gave 1.00000000e+01
    @example([9.999999995], 1)
    @example([-9.999999995e-5, 9.999999995e20, 0.5, 1e-14, 1e30], 1)
    def test_bytes_equal_per_value_formatter(self, tmp_path, values, dim):
        values = values + [0.25] * (-len(values) % dim)
        matrix = np.array(values, dtype=np.float64).reshape(-1, dim)
        text, words = _save_bytes(matrix, tmp_path / "vectors.txt")
        assert text == _expected_text(words, matrix)

    @pytest.mark.parametrize("block_values", [1, 5, 12, 1000])
    def test_blocks_of_rows_join_seamlessly(self, tmp_path, monkeypatch, block_values):
        # 7 rows of dim 4, with a fallback row (nan) and a tie row inside a block
        rng = np.random.default_rng(7)
        values = rng.standard_normal((7, 4)) * 10.0 ** rng.integers(-5, 5, (7, 4))
        values[2, 1] = math.nan
        values[5, 3] = 1.2345678850000000
        monkeypatch.setattr(embeddings, "SAVE_BLOCK_VALUES", block_values)
        text, words = _save_bytes(values, tmp_path / "vectors.txt")
        assert text == _expected_text(words, values)

    def test_float32_vectors_write_their_float64_values(self, tmp_path):
        values = (np.random.default_rng(3).standard_normal((5, 3)) / 7).astype(np.float32)
        text, words = _save_bytes(values, tmp_path / "vectors.txt")
        assert text == _expected_text(words, values.astype(np.float64))

    @pytest.mark.parametrize("shape", [(2, 3), (4, 3), (3, 2), (9,)])
    def test_vectors_that_do_not_fit_the_vocabulary_refused(self, tmp_path, shape):
        # three words of dim 3; a short matrix once wrote a file that could not be read
        matrix = EmbeddingMatrix(3, Vocabulary.from_tokens(["a", "b", "c"]), np.ones(shape))
        path = tmp_path / "vectors.txt"
        with pytest.raises(ValueError, match="do not fit 3 words of dim 3"):
            save_embeddings(matrix, path)
        assert not path.exists()

    def test_writer_memory_does_not_grow_with_vocabulary(self, tmp_path):
        # 50k x 100 float64 is 40 MB; the writer formats blocks of
        # SAVE_BLOCK_VALUES values, so its own peak stays a few MB
        values = np.random.default_rng(5).standard_normal((50_000, 100))
        matrix = EmbeddingMatrix(100, Vocabulary.from_tokens(
            [f"w{i}" for i in range(len(values))]), values)
        path = tmp_path / "vectors.txt"
        tracemalloc.start()
        try:
            save_embeddings(matrix, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        path.unlink()
        assert size > 50_000 * 100 * 15
        assert peak < 8 * 2 ** 20, f"writer peaked {peak / 2 ** 20:.1f} MiB above the matrix"
