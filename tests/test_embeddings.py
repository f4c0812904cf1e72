"""Skip-gram and subword embedding training, lookup and persistence."""

import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from flamewatch import embeddings
from flamewatch.embeddings import (
    BLOCK_CENTERS,
    EmbedConfig,
    EmbeddingFormatError,
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


def reference_train(sentences, config):
    """Block SGD written out pair by pair in plain Python.

    Blocks are runs of consecutive centers of the whole corpus, and a
    center's contexts stay inside its sentence. Draws from the RNG in the
    documented order, reads every score and gradient from the parameters
    as they stood at the block's start, and accumulates the updates into
    the live parameters. Returns the input
    vectors, the bucket vectors (or None), the stored vectors and the
    epoch losses.
    """
    vocab = build_vocab(sentences, config.min_count)
    rng = np.random.default_rng(config.seed)
    bound = 0.5 / config.dim
    w_in = rng.uniform(-bound, bound, size=(len(vocab), config.dim))
    w_out = np.zeros((len(vocab), config.dim))
    sub = config.subword
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
                             min_count=2, seed=3, subword=subword)
        train = train_word2vec if subword is None else train_fasttext
        matrix = train(sentences, config)
        w_in, buckets, stored, losses = reference_train(sentences, config)
        assert "rare" not in matrix.vocab.token_to_id
        assert np.abs(matrix.vectors - stored).max() < 1e-12
        assert np.abs(np.array(matrix.epoch_losses) - losses).max() < 1e-12
        if subword is not None:
            assert np.abs(matrix.subword.word_raw_vectors - w_in).max() < 1e-12
            assert np.abs(matrix.subword.bucket_vectors - buckets).max() < 1e-12

    @pytest.mark.parametrize("train", [train_word2vec, train_fasttext])
    def test_bit_identical_given_seed(self, train):
        config = EmbedConfig(dim=6, window=3, negatives=3, epochs=2, min_count=2,
                             seed=9, subword=SubwordConfig(min_n=2, max_n=3, buckets=7))
        a, b = train(block_corpus(), config), train(block_corpus(), config)
        assert a.vectors.tobytes() == b.vectors.tobytes()
        assert a.epoch_losses == b.epoch_losses


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
        with pytest.raises(ValueError, match=f"{field} must be <= 2147483647, got 2147483648"):
            SubwordConfig(**fields)


@pytest.mark.parametrize("field, value", [
    ("dim", 0), ("window", 0), ("epochs", 0), ("negatives", -1),
    ("initial_lr", 0.0), ("initial_lr", -0.1), ("initial_lr", float("nan")),
])
def test_embed_config_rejects_out_of_range(field, value):
    with pytest.raises(ValueError, match=field):
        EmbedConfig(**{field: value})


def test_embed_config_allows_zero_negatives():
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
                         min_count=1, seed=2, subword=SMALL_SUB)
    return train_fasttext(toy_corpus(sentences=150), config)


class TestFasttext:
    def test_stored_vectors_are_composed(self, matrix):
        # every stored row must equal the mean of the word's raw vector and
        # its n-gram bucket vectors, recomputed independently
        sub = matrix.subword
        for wid, word in enumerate(matrix.vocab.id_to_token):
            grams = ngram_ids(word, sub)
            stack = np.vstack(
                [sub.word_raw_vectors[wid]] + [sub.bucket_vectors[g] for g in grams]
            )
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
                             min_count=1, seed=0, subword=SMALL_SUB)
        matrix = train_fasttext(toy_corpus(sentences=30), config)
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
        with pytest.raises(EmbeddingFormatError, match="line 1"):
            load_embeddings(path)

    @pytest.mark.parametrize("header", ["x 3", "2 3.5", "-1 3", "1 0"])
    def test_header_values_checked_line_numbered(self, tmp_path, header):
        path = tmp_path / "vectors.txt"
        path.write_text(header + "\n")
        with pytest.raises(EmbeddingFormatError, match="line 1"):
            load_embeddings(path)

    def test_non_numeric_component_line_numbered(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("2 2\nword 0.1 0.2\nother 0.3 abc\n")
        with pytest.raises(EmbeddingFormatError, match="line 3: .*'abc'"):
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
        with pytest.raises(EmbeddingFormatError, match="line 2"):
            load_embeddings(path)

    def test_truncated_body_reported(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("2 2\nword 0.1 0.2\n")
        with pytest.raises(EmbeddingFormatError, match="file ended"):
            load_embeddings(path)

    def test_trailing_data_reported(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("1 2\nword 0.1 0.2\nextra stuff\n")
        with pytest.raises(EmbeddingFormatError, match="trailing"):
            load_embeddings(path)
        # a row after blank lines is refused too, named by its own line
        path.write_text("1 2\nword 0.1 0.2\n\nextra 9 9\n")
        with pytest.raises(EmbeddingFormatError, match="line 4: trailing data"):
            load_embeddings(path)

    def test_header_count_is_not_preallocated(self, tmp_path):
        # a count of 10^12 rows at dim 100 would need ~728 TiB up front
        path = tmp_path / "vectors.txt"
        row = " ".join(["0.5"] * 100)
        path.write_text(f"1000000000000 100\nword {row}\n")
        with pytest.raises(EmbeddingFormatError, match="line 3: expected 1000000000000"):
            load_embeddings(path)

    def test_non_finite_component_line_numbered(self, tmp_path):
        path = tmp_path / "vectors.txt"
        for bad in ("nan", "inf", "-inf", "-NaN", "Infinity"):
            path.write_text(f"3 2\nword 0.1 0.2\nother 0.3 {bad}\nlast 0.5 0.6\n")
            with pytest.raises(EmbeddingFormatError,
                               match=f"^{path}: line 3: component 2 is not finite: "):
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
