"""Skip-gram word embeddings with negative sampling, plus a subword variant.

Both trainers share the same objective; the subword variant represents a
word as the mean of its own vector and hashed character n-gram vectors,
which also gives out-of-vocabulary words a usable vector. The trainer that
runs is the choice of method: `EmbedConfig` holds the settings both share,
and only `train_fasttext` takes n-gram settings (`SubwordConfig`).

Training runs in float32, as word2vec.c and fastText do, unless the
trainer's `dtype` says otherwise: the input and output vectors, the bucket
rows, the per-center learning rates and every temporary of a step. Epoch
losses are summed in float64. A float64 run is the same code.

Training is mini-batch SGD over the corpus as one sequence: the sentences'
in-vocabulary ids back to back, each position knowing its sentence's
bounds. One step takes a block of up to `BLOCK_CENTERS` consecutive
centers of that sequence, which may span several sentences or start and
end inside one. A step builds every (center, context) pair of its block
(contexts stay inside the center's sentence but may lie outside the
block), computes all scores and gradients from the parameters as they
stood at the block's start, and then adds the updates, so that repeated
words, repeated targets and n-gram hash collisions accumulate. Each center
keeps its own linearly decaying learning rate. A corpus in which no
sentence keeps two vocabulary words has no pair and is refused before
training; a run whose vectors or losses end up not finite is refused after.
A step looks at context offsets out to the smaller of the window and the
longest sentence less one, so a window wider than every sentence costs
nothing more. Within that, a step's pairs still grow with the window times
the lengths of its sentences: three 3000-token comments at window 2000 ask
for a (758592, dim) array in one step. Bounding a step's pairs is ROADMAP
item 4(a).

Runs are reproducible for a seed. One `numpy.random.default_rng(seed)`
(PCG64) draws, in this order: the input vectors (uniform in +-0.5/dim,
|V| x dim); for the subword variant, the bucket vectors (same law, buckets x
dim); then per epoch and block of n centers, the window radii
`integers(1, window + 1, size=n)` and, if the block has any pair, the
negatives `random((pairs, negatives))` mapped through the noise CDF as
`searchsorted` maps them (`NoiseSampler`, a guide table that finds the same
index in a step or two). Pairs are ordered by center, then by context
position. Each initial value is drawn as a double and rounded once to the
training dtype.

The subword variant keeps the words' input vectors and the bucket rows it
stores in one table, the words' rows first. A word's input rows are its own
row, then those of its n-grams by length and start (`_runs`), so none is
empty; a step composes each center once, as the mean of its rows summed by
`np.add.reduceat`, and adds each center's share of its gradient to every
one of them.

The bucket table is never drawn whole. Each of its values is one double of
the stream, so row r is values r*dim .. r*dim + dim - 1 after the saved
state. `_train` hashes the vocabulary's n-grams first, keeps only the rows
they hash to (`seen`), and draws just those (`_draw_rows`: bounded blocks,
the others jumped over with PCG64's `advance`); the training generator then
advances by buckets x dim, so the radii and negatives are those of the
one-call draw. Training touches no other row, so every other row keeps its
initial draw: `SubwordTable.bucket_rows` draws it again from the saved
state when an out-of-vocabulary word's n-gram hashes there. Memory follows
the vocabulary's distinct n-gram ids, not the bucket count.

A word's n-grams are those of "<word>" at lengths min_n..max_n, ordered by
length, then start; an n-gram's id is the 32-bit FNV-1a hash of its UTF-8
bytes, modulo the bucket count. `_hash_ngrams` computes them for many words
at once: it runs the hash once per start position, one character per step,
and emits it at every length in range.

Vectors are saved as one text file, a "count dim" header and then one
"word v1 ... vdim" line per word; the subword variant saves its composed
vectors, as fastText's .vec output does. The subword table lives only in
the matrix that `train_fasttext` returns, so composing out-of-vocabulary
words works there and not on vectors read back from a file. Each value is
written as f"{v:.8e}" writes it. A numpy kernel makes those bytes for
blocks of rows: it scales each value to nine digits by one exact power of
ten and looks the digits up in tables. It vouches only for zero and for
finite values with 1e-14 <= |v| < 1e30 whose scaled value is not within
1e-6 of a rounding tie; a row holding any other value is formatted by
Python's "%.8e" instead. Reading a file back, numpy's C parser
(`np.loadtxt`) reads each block of lines, and float() reads a block line by
line only where numpy refuses it, naming the first bad line; both read a
value alike (`_parse_lines`). The reader refuses a value that is not finite
and a repeated word.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from . import atomic_write, check_int, check_number
from .preprocess import _bad_line, read_lines

# Centers per SGD step; bounds the step's memory and how stale its reads get
# on long sentences.
BLOCK_CENTERS = 64
# Upper bound on negative samples per pair: word2vec and fastText use 5-20,
# and each step draws a (pairs, negatives) array.
MAX_NEGATIVES = 100
# Upper bound on the vector width: published word2vec and fastText vectors are
# 100-300 wide. A step at the default window and negatives updates up to 3840
# target rows, 63 MB of float32 at 4096 dims, and each table row is 16 KiB.
MAX_DIM = 4096
# Most values the stored fastText bucket rows (the distinct n-gram ids of the
# vocabulary x dim) may hold: 2**28 float32 values are 1 GiB. A 4096-dim table
# reaches it at 65,537 distinct ids, about 2k words of ten letters.
MAX_TABLE_VALUES = 2 ** 28
# Values per block that `_draw_rows` draws at once; bounds its float64 scratch
# memory (8 bytes a value, 512 KiB) whatever the bucket count is.
DRAW_BLOCK_VALUES = 2 ** 16


@dataclass
class SubwordConfig:
    min_n: int = 3
    max_n: int = 6
    buckets: int = 2 ** 21

    def __post_init__(self):
        for name in ("min_n", "max_n", "buckets"):
            # a 32-bit signed int, as in fastText's own options
            check_int(name, getattr(self, name), 1, 2 ** 31 - 1)
        if self.min_n > self.max_n:
            raise ValueError(f"min_n {self.min_n} > max_n {self.max_n}")


@dataclass
class EmbedConfig:
    dim: int = 100
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    initial_lr: float = 0.025
    min_count: int = 2
    seed: int = 1

    def __post_init__(self):
        check_int("dim", self.dim, 1, MAX_DIM)
        check_int("window", self.window, 1)
        check_int("negatives", self.negatives, 0, MAX_NEGATIVES)
        check_int("epochs", self.epochs, 1)
        check_number("initial_lr", self.initial_lr, 0, math.inf, open_low=True)
        # a min_count below 1 would keep every word, as 1 does
        check_int("min_count", self.min_count, 1)
        check_int("seed", self.seed, 0)


@dataclass
class Vocabulary:
    token_to_id: dict[str, int]
    id_to_token: list[str]
    counts: np.ndarray

    @classmethod
    def from_tokens(cls, tokens: list[str]) -> Vocabulary:
        """The tokens in id order, with no counts (as read back from a file)."""
        ids = {t: i for i, t in enumerate(tokens)}
        return cls(ids, list(tokens), np.zeros(len(tokens), dtype=np.int64))

    def __len__(self) -> int:
        return len(self.id_to_token)


def _draw_rows(state: dict, bound: float, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Rows `rows` (sorted, distinct) of `uniform(-bound, bound, (buckets, dim))`
    drawn in one call by a PCG64 generator in `state`, bit for bit, written
    into `out` (len(rows) x dim, of any float dtype) and returned.

    Each value is one double of the stream, so row r begins r * dim values
    after `state`. The table is cut into blocks of DRAW_BLOCK_VALUES values: a
    block that holds no requested row is jumped over with `advance`, and one
    that does is drawn from its first to its last requested row and written
    into `out` at once, so a float32 `out` never has a float64 copy.
    """
    gen = np.random.Generator(np.random.PCG64())
    gen.bit_generator.state = state
    dim = out.shape[1]
    block = rows // max(1, DRAW_BLOCK_VALUES // dim)
    # for consecutive cuts i and j, rows[i:j] are the rows in one block
    cuts = np.flatnonzero(np.diff(block, prepend=-1, append=-1)).tolist()
    at = 0  # the row the generator stands at
    for i, j in zip(cuts, cuts[1:]):
        first, last = int(rows[i]), int(rows[j - 1])
        gen.bit_generator.advance((first - at) * dim)
        drawn = gen.uniform(-bound, bound, size=(last + 1 - first, dim))
        out[i:j] = drawn[rows[i:j] - first]
        at = last + 1
    return out


@dataclass
class SubwordTable:
    """A trained bucket table that stores only the rows training saw.

    `rows` holds the trained rows of the sorted hashed ids `seen`. Every other
    row still holds its initial draw, which `bucket_rows` draws again from
    `state`, the generator state just before the table was drawn."""
    config: SubwordConfig
    seen: np.ndarray  # sorted distinct n-gram ids of the vocabulary
    rows: np.ndarray  # len(seen) x dim, trained
    state: dict  # bit-generator state before the (buckets, dim) draw
    bound: float  # that draw's half-width
    word_raw_vectors: np.ndarray  # |V| x dim, pre-composition input vectors

    def bucket_rows(self, ids) -> np.ndarray:
        """The rows of hashed ids `ids`, in order and in the table's dtype:
        trained for a seen id, the initial draw for any other."""
        ids = np.asarray(ids, dtype=np.int64)
        at = np.searchsorted(self.seen, ids)
        hit = at < self.seen.size
        hit[hit] = self.seen[at[hit]] == ids[hit]
        dim = self.rows.shape[1]
        out = np.empty((ids.size, dim), self.rows.dtype)
        out[hit] = self.rows[at[hit]]
        unseen, back = np.unique(ids[~hit], return_inverse=True)
        drawn = np.empty((unseen.size, dim), out.dtype)
        out[~hit] = _draw_rows(self.state, self.bound, unseen, drawn)[back]
        return out


@dataclass
class EmbeddingMatrix:
    dim: int
    vocab: Vocabulary
    vectors: np.ndarray  # |V| x dim; for the subword variant these are composed
    subword: SubwordTable | None = None
    epoch_losses: list[float] = field(default_factory=list)


def build_vocab(sentences: list[list[str]], min_count: int = 2) -> Vocabulary:
    """Count tokens and keep those at or above min_count, ids by (count desc, token asc)."""
    counts = Counter(chain.from_iterable(sentences))
    if not counts:
        raise ValueError("empty corpus")
    # by token, then stably by count: equal counts keep the token order
    id_to_token = sorted(tok for tok, c in counts.items() if c >= min_count)
    if not id_to_token:
        raise ValueError(f"no token reaches min_count={min_count}")
    id_to_token.sort(key=counts.__getitem__, reverse=True)
    return Vocabulary(
        token_to_id={tok: i for i, tok in enumerate(id_to_token)},
        id_to_token=id_to_token,
        counts=np.fromiter(map(counts.__getitem__, id_to_token), dtype=np.int64,
                           count=len(id_to_token)),
    )


def negative_sampling_distribution(vocab: Vocabulary) -> np.ndarray:
    """Unigram distribution raised to the 3/4 power, normalized."""
    weighted = vocab.counts.astype(np.float64) ** 0.75
    return weighted / weighted.sum()


_FNV_OFFSET = np.uint32(2166136261)
_FNV_PRIME = np.uint32(16777619)
_UTF8_LEAD = np.array([0, 0, 0xC0, 0xE0, 0xF0], dtype=np.uint32)


def _utf8_bytes(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Each character's UTF-8 bytes, as column c of a 4 x len(text) array,
    and each character's byte count. A lone surrogate raises
    UnicodeEncodeError, as str.encode("utf-8") does."""
    cp = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    width = 1 + (cp >= 0x80) + (cp >= 0x800) + (cp >= 0x10000)
    rows = np.empty((4, cp.size), dtype=np.uint32)
    rows[0] = _UTF8_LEAD[width] | (cp >> 6 * (width - 1))
    for k in range(1, 4):
        rows[k] = 0x80 | ((cp >> 6 * np.maximum(width - 1 - k, 0)) & 0x3F)
    return rows, width


def _hash_ngrams(
    words: list[str], min_n: int, max_n: int, buckets: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every word's n-gram ids in CSR layout (ids, starts): word i owns
    ids[starts[i]:starts[i + 1]], ordered by length, then start.

    One FNV-1a hash runs per start position of the padded words that
    begins an n-gram, one character per step, in uint32 arithmetic (which
    wraps mod 2**32), and is written out at each length min_n..max_n. The
    starts are sorted by the characters left in their word, so those still
    running form a prefix; the steps stop at the longest padded word,
    whatever max_n is.
    """
    padded = [f"<{w}>" for w in words]
    size = np.array([len(p) for p in padded], dtype=np.int64)
    # word w has size - n + 1 n-grams at each length n in min_n..longest
    longest = np.minimum(size, max_n)
    lengths = np.maximum(longest - min_n + 1, 0)
    counts = lengths * (size + 1) - lengths * (min_n + longest) // 2
    starts = np.zeros(len(words) + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    hashes = np.empty(int(starts[-1]), dtype=np.uint32)

    rows, width = _utf8_bytes("".join(padded))
    # each start position's word, its index in that padded word and the
    # characters left from it; only those with min_n left begin an n-gram
    word = np.repeat(np.arange(len(words)), size)
    offset = np.arange(word.size) - (np.cumsum(size) - size)[word]
    left = size[word] - offset
    at = np.flatnonzero(left >= min_n)
    at = at[np.argsort(-left[at], kind="stable")]
    word, offset, left = word[at], offset[at], left[at]
    h = np.full(at.size, _FNV_OFFSET, dtype=np.uint32)
    base = starts[:-1].copy()  # where each word's next length begins
    widest = int(width.max(initial=1))
    steps = min(max_n, int(left.max(initial=0)))
    # at step j, the first running[j] starts have more than j characters left
    running = np.searchsorted(-left, -np.arange(steps))
    for j, k in enumerate(running):
        char = at[:k] + j
        hk = h[:k]
        hk ^= rows[0][char]
        hk *= _FNV_PRIME
        for b in range(1, widest):
            np.copyto(hk, (hk ^ rows[b][char]) * _FNV_PRIME, where=width[char] > b)
        n = j + 1
        if n >= min_n:
            hashes[base[word[:k]] + offset[:k]] = hk
            base += np.maximum(size - n + 1, 0)
    ids = hashes.astype(np.int64)
    ids %= buckets
    return ids, starts


def ngram_ids(word: str, sub: SubwordConfig) -> list[int]:
    """The bucket ids of `word`'s n-grams, by length, then start."""
    return _hash_ngrams([word], sub.min_n, sub.max_n, sub.buckets)[0].tolist()


def _corpus_ids(
    sentences: list[list[str]], vocab: Vocabulary
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The in-vocabulary ids of all sentences back to back, and for each
    position the start and end of its sentence in that sequence."""
    lengths = []
    ids = []
    for sent in sentences:
        kept = [vocab.token_to_id[t] for t in sent if t in vocab.token_to_id]
        lengths.append(len(kept))
        ids.extend(kept)
    lengths = np.array(lengths, dtype=np.int64)
    end = np.cumsum(lengths)
    return (np.array(ids, dtype=np.int64),
            np.repeat(end - lengths, lengths), np.repeat(end, lengths))


def _scatter_add(table: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """table[rows] += values, where repeated rows accumulate.

    np.add.at on the flat view of a C-contiguous table: numpy's 1-D fast
    path is several times faster than np.add.at on the 2-D table.
    """
    dim = table.shape[1]
    flat = (rows[:, None] * dim + np.arange(dim)).ravel()
    np.add.at(table.reshape(-1), flat, values.ravel())


def _runs(ids, starts, offset) -> tuple[np.ndarray, np.ndarray]:
    """Each word's input rows in CSR layout (run_ids, run_starts), from its
    n-gram rows in CSR layout (ids, starts): word w's own row w, then row
    offset + i for each of its n-grams' ids i, in their order. No run is
    empty, even for a word with no n-gram."""
    words = np.arange(starts.size - 1)
    return np.insert(ids + offset, starts[:-1], words), starts + np.arange(starts.size)


def _gather(run_ids, run_starts, words) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """From each vocabulary word's input rows in CSR layout (word w owns
    run_ids[run_starts[w]:run_starts[w + 1]]), the rows of `words` back to
    back, where each word's run begins in them, and each run's length."""
    size = run_starts[words + 1] - run_starts[words]
    first = np.cumsum(size) - size
    at = np.repeat(run_starts[words] - first, size) + np.arange(first[-1] + size[-1])
    return run_ids[at], first, size


def _compose(w_in, flat, first, size) -> np.ndarray:
    """Mean of each word's run of input rows (`_gather`): its raw vector and
    its n-gram bucket rows."""
    total = np.add.reduceat(w_in[flat], first, axis=0)
    total /= size[:, None]
    return total


@dataclass(frozen=True)
class NoiseSampler:
    """Inverse-CDF draws from the noise distribution: `draw(u)` equals
    `np.searchsorted(cdf, u)` bit for bit for every u in [0, 1).

    This is Chen and Asau's indexed search. With `cells` a power of two of
    at least 4|V|, `guide[k]` is the first index whose CDF reaches k / cells.
    A draw u lies in cell k = floor(u * cells), exactly so as cells is a
    power of two, and its index in [guide[k], guide[k + 1]]. A bisection of
    `rounds` halving steps then finds it for every draw at once: the bit
    length of the widest cell's span, at most ceil(log2 |V|). It is 1 on
    Zipf vocabularies of 6k and 50k words, and 8 for one word of count
    10**9 beside 6000 singletons. A step may probe past guide[k + 1], where
    the CDF already reaches u; `cdf` holds 2**(rounds - 1) infinities after
    the vocabulary's values, so that a probe past the last word does too."""
    cdf: np.ndarray
    guide: np.ndarray
    rounds: int

    @classmethod
    def from_cdf(cls, cdf: np.ndarray) -> NoiseSampler:
        cells = 1 << (4 * cdf.size - 1).bit_length()
        guide = np.searchsorted(cdf, np.arange(cells + 1) / cells)
        rounds = int(np.diff(guide).max()).bit_length()
        return cls(np.concatenate((cdf, np.full(1 << rounds >> 1, np.inf))), guide, rounds)

    def draw(self, u: np.ndarray) -> np.ndarray:
        at = self.guide[(u * (self.guide.size - 1)).astype(np.intp)]
        step = 1 << self.rounds
        for _ in range(self.rounds):
            step >>= 1
            # the answer lies in at .. at + 2 * step - 1
            np.add(at, step, out=at, where=self.cdf[at + (step - 1)] < u)
        return at


# A diverging run overflows in exp and adds inf to -inf; the non-finite check
# after training refuses the result, so numpy's warnings would only repeat it.
@np.errstate(over="ignore", invalid="ignore")
def _train(
    sentences: list[list[str]],
    config: EmbedConfig,
    sub: SubwordConfig | None,
    dtype,
) -> EmbeddingMatrix:
    """Skip-gram training, with each word also its n-grams when `sub` is given."""
    vocab = build_vocab(sentences, config.min_count)
    ids, sent_begin, sent_end = _corpus_ids(sentences, vocab)
    # Every center is visited each epoch and a radius keeps at least its +-1
    # neighbours, so each epoch has a pair exactly when a sentence keeps two
    # words. Every vocabulary word occurs in the corpus, so ids is not empty.
    longest = int((sent_end - sent_begin).max())
    if longest < 2:
        raise ValueError("corpus too small: no (center, context) pair")
    dim = config.dim
    vocab_size = len(vocab)
    table_rows = vocab_size
    if sub is not None:
        # the table keeps one row per distinct n-gram id, after the words' rows
        hashed, starts = _hash_ngrams(vocab.id_to_token, sub.min_n, sub.max_n, sub.buckets)
        seen, compact = np.unique(hashed, return_inverse=True)
        if seen.size * dim > MAX_TABLE_VALUES:
            raise ValueError(f"{seen.size} seen n-gram buckets x {dim} dims exceed "
                             f"MAX_TABLE_VALUES {MAX_TABLE_VALUES}; lower --dim or --buckets")
        runs = _runs(compact, starts, vocab_size)
        table_rows += seen.size
    rng = np.random.default_rng(config.seed)

    bound = 0.5 / dim
    # the input vectors, then for the subword variant the seen bucket rows
    w_in = np.empty((table_rows, dim), dtype)
    _draw_rows(rng.bit_generator.state, bound, np.arange(vocab_size), w_in[:vocab_size])
    rng.bit_generator.advance(vocab_size * dim)
    w_out = np.zeros((vocab_size, dim), dtype)
    if sub is not None:
        # only doubles came before, so no half-used 32-bit output is dropped
        state = rng.bit_generator.state
        rng.bit_generator.advance(sub.buckets * dim)
        _draw_rows(state, bound, seen, w_in[vocab_size:])

    noise_cdf = np.cumsum(negative_sampling_distribution(vocab))
    noise_cdf[-1] = 1.0
    noise = NoiseSampler.from_cdf(noise_cdf)
    # a pair's loss is log(1 + exp(flip * score)) at each target: the context
    # first, then the negatives
    flip = np.array([-1] + [1] * config.negatives, dtype)

    total_centers = ids.size * config.epochs
    # context offsets -widest..-1, 1..widest; a center keeps those within its
    # radius. An offset past the longest sentence never stays inside one, so
    # leaving it out keeps every pair and its order.
    widest = min(config.window, longest - 1)
    offsets = np.concatenate((np.arange(-widest, 0), np.arange(1, widest + 1)))
    reach = np.abs(offsets)
    losses = []

    for epoch in range(config.epochs):
        # each center's linearly decaying learning rate, negated, so that
        # every update below is added
        rate = np.arange(epoch * ids.size, (epoch + 1) * ids.size) / (total_centers + 1)
        np.subtract(1.0, rate, out=rate)
        np.maximum(1e-4, rate, out=rate)
        rate = np.multiply(-config.initial_lr, rate, out=rate).astype(dtype, copy=False)
        epoch_loss = 0.0
        epoch_pairs = 0
        for first in range(0, ids.size, BLOCK_CENTERS):
            last = min(first + BLOCK_CENTERS, ids.size)
            radius = rng.integers(1, config.window + 1, size=last - first)
            ctx = np.arange(first, last)[:, None] + offsets
            keep = (
                (reach <= radius[:, None])
                & (ctx >= sent_begin[first:last, None])
                & (ctx < sent_end[first:last, None])
            )
            # pairs in center-major order, contexts by ascending position
            pair_center, pair_slot = np.nonzero(keep)
            if not pair_center.size:
                continue
            targets = np.empty((pair_center.size, 1 + config.negatives), np.intp)
            targets[:, 0] = ids[ctx[pair_center, pair_slot]]
            targets[:, 1:] = noise.draw(rng.random((pair_center.size, config.negatives)))
            centers = ids[first:last]
            if sub is None:
                pair_word = centers[pair_center]
                v = w_in[pair_word]
            else:
                # each center is composed once
                flat, start, size = _gather(*runs, centers)
                v = _compose(w_in, flat, start, size)[pair_center]
            u = w_out[targets]
            scores = np.einsum("pkd,pd->pk", u, v)
            epoch_loss += float(np.logaddexp(0, flip * scores).sum(dtype=np.float64))
            epoch_pairs += pair_center.size
            g = 1.0 / (1.0 + np.exp(-np.clip(scores, -30, 30)))
            g[:, 0] -= 1.0
            g *= rate[first:last][pair_center][:, None]
            _scatter_add(w_out, targets.ravel(), (g[:, :, None] * v[:, None, :]).reshape(-1, dim))
            grad_v = np.einsum("pk,pkd->pd", g, u)
            if sub is None:
                _scatter_add(w_in, pair_word, grad_v)
            else:
                grad = np.zeros((last - first, dim), dtype)
                _scatter_add(grad, pair_center, grad_v)
                grad /= size[:, None]
                _scatter_add(w_in, flat, np.repeat(grad, size, axis=0))
        losses.append(epoch_loss / epoch_pairs)

    if sub is None:
        vectors, table = w_in, None
    else:
        # composed in chunks, so the gathered rows stay small
        vectors = np.empty((vocab_size, dim), dtype)
        for first in range(0, vocab_size, BLOCK_CENTERS):
            words = np.arange(first, min(first + BLOCK_CENTERS, vocab_size))
            vectors[words] = _compose(w_in, *_gather(*runs, words))
        table = SubwordTable(config=sub, seen=seen, rows=w_in[vocab_size:], state=state,
                             bound=bound, word_raw_vectors=w_in[:vocab_size])
    if not (np.isfinite(vectors).all() and np.isfinite(losses).all()):
        raise ValueError(f"training diverged at initial_lr {config.initial_lr}: "
                         "the vectors or epoch losses are not finite")
    return EmbeddingMatrix(
        dim=dim, vocab=vocab, vectors=vectors, subword=table, epoch_losses=losses
    )


def train_word2vec(sentences: list[list[str]], config: EmbedConfig, *,
                   dtype=np.float32) -> EmbeddingMatrix:
    """Skip-gram with negative sampling (Mikolov et al., arXiv:1310.4546),
    trained in `dtype`."""
    return _train(sentences, config, None, dtype)


def train_fasttext(
    sentences: list[list[str]], config: EmbedConfig, subword: SubwordConfig | None = None, *,
    dtype=np.float32,
) -> EmbeddingMatrix:
    """Skip-gram in which a word is also its hashed character n-grams
    (Bojanowski et al., arXiv:1607.04606), trained in `dtype`; None means
    SubwordConfig(). Only the bucket rows that the vocabulary's n-grams hash
    to are stored; more than MAX_TABLE_VALUES of their values are refused
    before anything is drawn."""
    return _train(sentences, config, SubwordConfig() if subword is None else subword, dtype)


def compose_word(matrix: EmbeddingMatrix, word: str) -> np.ndarray:
    """Mean of the word's raw vector (if in vocab) and its n-gram bucket vectors."""
    sub = matrix.subword
    if sub is None:
        raise ValueError("matrix has no subword table")
    rows = sub.bucket_rows(ngram_ids(word, sub.config))
    wid = matrix.vocab.token_to_id.get(word)
    if wid is not None:
        rows = np.vstack((sub.word_raw_vectors[wid], rows))
    if not len(rows):
        return np.zeros(matrix.dim, rows.dtype)
    return rows.mean(axis=0)


def lookup(matrix: EmbeddingMatrix, word: str) -> np.ndarray:
    """In-vocab -> stored row; OOV -> subword composition or a zero vector."""
    wid = matrix.vocab.token_to_id.get(word)
    if wid is not None:
        return matrix.vectors[wid]
    if matrix.subword is not None:
        return compose_word(matrix, word)
    return np.zeros(matrix.dim, matrix.vectors.dtype)


# Values per block that `save_embeddings` formats, and `load_embeddings` parses,
# at once; bounds their scratch memory whatever |V| is. At dims 32-300,
# tracemalloc peaks at about 105 bytes a value for the writer and 45 for the
# reader (one block read whole by np.loadtxt).
SAVE_BLOCK_VALUES = 2 ** 15

# The kernel's domain besides zero. Scaling a value in it to nine digits
# multiplies or divides by an exact power of ten (at most 10**22), and its
# exponent has two digits.
_SMALLEST, _LARGEST = 1e-14, 1e30
_POW10 = np.array([float(10 ** k) for k in range(23)])
# A scaled value carries an error of at most about 1.2e-7, so one this
# close to a .5 fraction may round either way.
_TIE_MARGIN = 1e-6


def _cells(texts: list[str]) -> np.ndarray:
    """Each 4-byte ASCII text as one native uint32, so that tobytes() gives
    the text back whatever the byte order."""
    return np.frombuffer("".join(texts).encode("ascii"), dtype=np.uint32)


# A value's text is four cells, " " sign lead "." | 4 digits | 4 digits |
# "e" sign 2 digits, where a plus sign is a NUL that the writer strips.
_LEADS = _cells([f" {sign}{d}." for sign in ("\0", "-") for d in range(10)])
_DIGITS = _cells([f"{i:04d}" for i in range(10_000)])
_EXPONENTS = _cells([f"e{e:+03d}" for e in range(-14, 31)])  # index e + 14
_NEWLINE = _cells(["\n\0\0\0"])[0]


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """m + 0.5 for m = a * 10**(8 - e), rounded once, and whether m lies
    within _TIE_MARGIN of a .5 fraction."""
    k = 8 - e
    scale = _POW10.take(np.abs(k).astype(np.intp))
    r = np.where(k >= 0, a * scale, a / scale) + 0.5
    frac = r - np.floor(r)
    return r, (frac < _TIE_MARGIN) | (frac > 1 - _TIE_MARGIN)


def _format_rows(block: np.ndarray) -> tuple[list[bytes], np.ndarray]:
    """The text of each row of the 2-D float64 `block` as `save_embeddings`
    writes it after the word: each value as " " + f"{v:.8e}", then "\n".
    Also the mask of rows holding a value whose text the kernel cannot
    vouch for: one that is not finite, nonzero outside [1e-14, 1e30), or
    near a rounding tie. Those rows' texts are left to the caller.

    For |v| in the domain, e = floor(log10|v|) and the nine digits are
    n = floor(m + 0.5), m = |v| * 10**(8 - e). log10 may be off by one
    near a power of ten, and rounding may carry into a tenth digit, so a
    value whose n falls outside [1e8, 1e9) moves e by one and is scaled
    again. Every m is checked for a tie, the first one above all: at the
    first exponent, 9.999999995 scales to 999999999.5, so a tie there
    decides between 9.99999999e+00 and 1.00000000e+01.
    """
    rows, dim = block.shape
    x = block.ravel()
    a = np.abs(x)
    inside = (a >= _SMALLEST) & (a < _LARGEST)  # false for nan and inf
    a[~inside] = 1.0
    e = (np.log10(a) + 15).astype(np.int32) - 15  # floor, as log10(a) > -15
    np.clip(e, -14, 29, out=e)
    r, unsafe = _scaled(a, e)
    moved = np.flatnonzero((r >= 1e9) | (r < 1e8))
    if moved.size:
        e[moved] += np.where(r[moved] >= 1e9, 1, -1).astype(np.int32)
        r[moved], tie = _scaled(a[moved], e[moved])
        unsafe[moved] |= tie | (r[moved] >= 1e9) | (r[moved] < 1e8) | (e[moved] < -14)
    unsafe |= ~inside & (x != 0)
    blank = unsafe | ~inside  # zeros, and values whose row is redone
    r[blank] = 0.0
    e[blank] = 0
    n = r.astype(np.int32)
    lead = n // 100_000_000
    n -= lead * 100_000_000
    high = n // 10_000
    n -= high * 10_000

    text = np.empty((rows, 4 * dim + 1), dtype=np.uint32)
    cells = text[:, :-1].reshape(rows, dim, 4)
    lead += 10 * np.signbit(x)
    for i, (table, index) in enumerate(((_LEADS, lead), (_DIGITS, high), (_DIGITS, n),
                                        (_EXPONENTS, e + 14))):
        cells[:, :, i] = table.take(index.astype(np.intp)).reshape(rows, dim)
    text[:, -1] = _NEWLINE
    lines = text.tobytes().replace(b"\0", b"").splitlines(keepends=True)
    return lines, unsafe.reshape(rows, dim).any(axis=1)


def save_embeddings(matrix: EmbeddingMatrix, path) -> None:
    """Write the text format: a "count dim" header, then "word v1 ... vdim"
    per word in id order, each value as f"{v:.8e}" writes it. For the
    subword variant the rows are the composed vectors, as fastText's own
    .vec output has them; the subword table is not saved. The file is
    written atomically, so a failed save leaves it as it was.

    The values are formatted by a numpy kernel (`_format_rows`), one block
    of about `SAVE_BLOCK_VALUES` values at a time, so the writer's scratch
    memory does not grow with the vocabulary. A row holding a value the
    kernel cannot vouch for (not finite, nonzero outside [1e-14, 1e30), or
    within 1e-6 of a rounding tie once scaled to nine digits) is formatted
    by Python's own "%.8e" instead, so every byte is that formatter's.
    """
    dim = matrix.dim
    vectors = matrix.vectors
    words = matrix.vocab.id_to_token
    if vectors.shape != (len(words), dim):
        raise ValueError(f"vectors of shape {vectors.shape} do not fit "
                         f"{len(words)} words of dim {dim}")
    block_rows = max(1, SAVE_BLOCK_VALUES // dim)
    row_format = " %.8e" * dim + "\n"

    def write_text(tmp):
        with open(tmp, "wb") as fh:
            fh.write(f"{len(words)} {dim}\n".encode())
            for first in range(0, len(words), block_rows):
                block = np.asarray(vectors[first:first + block_rows], dtype=np.float64)
                lines, redo = _format_rows(block)
                for i in np.flatnonzero(redo):
                    lines[i] = (row_format % tuple(block[i].tolist())).encode()
                heads = [word.encode() for word in words[first:first + len(block)]]
                fh.write(b"".join([part for pair in zip(heads, lines) for part in pair]))

    atomic_write(path, write_text)


def load_embeddings(path) -> EmbeddingMatrix:
    """The vectors of a text file written by `save_embeddings`, with no
    subword table: an out-of-vocabulary word looks up as a zero vector.
    A malformed file, one that repeats a word, one holding a value that is
    not finite (nan, inf), or one with a line that is not UTF-8 raises
    ValueError "<path>: line N: ...", as does a header whose count is below 0
    or whose dim is outside [1, MAX_DIM], the widths `train-embed` makes.
    The file is read once, in blocks of about `SAVE_BLOCK_VALUES` values,
    each parsed by numpy's C parser or, if it refuses the block, by float()
    line by line (`_parse_lines`). The first bad line is the one named, save
    that a line that is not UTF-8 is named as its block is read, before it
    is parsed."""
    lines = read_lines(path)
    header = next(lines, (1, ""))[1].split()
    if len(header) != 2:
        _bad_line(path, 1, "header must be 'count dim'")
    try:
        count, dim = int(header[0]), int(header[1])
    except ValueError as exc:
        _bad_line(path, 1, f"header must be 'count dim': {exc}")
    try:
        check_int("count", count, 0)
        check_int("dim", dim, 1, MAX_DIM)
    except ValueError as exc:
        _bad_line(path, 1, exc)
    # values grow with the lines actually read, never from the header's count
    words, blocks = [], [np.empty((0, dim))]
    body, block_rows = islice(lines, count), max(1, SAVE_BLOCK_VALUES // dim)
    while block := [line.rstrip("\n").partition(" ") for _, line in islice(body, block_rows)]:
        blocks.append(_parse_lines(block, words, dim, path))
    if len(words) < count:
        _bad_line(path, len(words) + 2, f"expected {count} vector lines, file ended")
    for lineno, line in lines:
        if line.strip():
            _bad_line(path, lineno, "trailing data after body")
    vectors = np.concatenate(blocks)
    if not np.isfinite(vectors).all():
        row, col = np.argwhere(~np.isfinite(vectors))[0]
        _bad_line(path, int(row) + 2, f"component {col + 1} is not finite: {vectors[row, col]}")
    vocab = Vocabulary.from_tokens(words)
    if len(vocab.token_to_id) < len(words):
        seen = {}
        for lineno, word in enumerate(words, 2):
            if seen.setdefault(word, lineno) != lineno:
                _bad_line(path, lineno, f"word {word!r} repeats line {seen[word]}")
    return EmbeddingMatrix(dim=dim, vocab=vocab, vectors=vectors)


def _parse_lines(lines: list[tuple], words: list[str], dim: int, path) -> np.ndarray:
    """The (len(lines), dim) values of the vectors lines of file `path` that
    follow those of `words`, each line given as its partition(" "); appends
    their words to `words`.

    numpy's C parser (`np.loadtxt`) reads the block first. It accepts only
    values that float() accepts and reads them as float() does, except that
    it strips the separators \\x1c-\\x1f off a value, which float() refuses,
    and skips an empty line, so a block holding either is not given to it.
    Any block it refuses, or reads to another shape, is read by float() line
    by line, which names the first bad line."""
    first = len(words) + 2  # the first line's number, after the header
    words += [word for word, _, _ in lines]
    texts = [text for _, _, text in lines]
    joined = "".join(texts)
    if all(texts) and not any(c in joined for c in "\x1c\x1d\x1e\x1f"):
        try:
            values = np.loadtxt(texts, dtype=np.float64, delimiter=" ", comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if values.shape == (len(lines), dim):
                return values
    values = array("d")
    for lineno, (_, space, text) in enumerate(lines, first):
        parts = text.split(" ") if space else []
        if len(parts) != dim:
            _bad_line(path, lineno, f"expected {dim} components, got {len(parts)}")
        try:
            values.extend(map(float, parts))
        except ValueError as exc:
            _bad_line(path, lineno, exc)
    return np.frombuffer(values, dtype=np.float64).reshape(len(lines), dim)
