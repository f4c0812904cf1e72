"""Skip-gram word embeddings with negative sampling, plus a subword variant.

Both trainers share the same objective; the subword variant represents a
word as the mean of its own vector and hashed character n-gram vectors,
which also gives out-of-vocabulary words a usable vector.

Training is mini-batch SGD over the corpus as one sequence: the sentences'
in-vocabulary ids back to back, each position knowing its sentence's
bounds. One step takes a block of up to `BLOCK_CENTERS` consecutive
centers of that sequence, which may span several sentences or start and
end inside one. A step builds every (center, context) pair of its block
(contexts stay inside the center's sentence but may lie outside the
block), computes all scores and gradients from the parameters as they
stood at the block's start, and then adds the updates, so that repeated
words, repeated targets and n-gram hash collisions accumulate. Each center
keeps its own linearly decaying learning rate.

Runs are reproducible for a seed. One `numpy.random.default_rng(seed)`
draws, in this order: the input vectors (uniform in +-0.5/dim, |V| x dim);
for the subword variant, the bucket vectors (same law, buckets x dim); then
per epoch and block of n centers, the window radii
`integers(1, window + 1, size=n)` and, if the block has any pair, the
negatives `random((pairs, negatives))` mapped through the noise CDF with
`searchsorted`. Pairs are ordered by center, then by context position.

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
Python's "%.8e" instead. Reading a file back refuses a value that is not
finite.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

import numpy as np

from . import atomic_write
from .preprocess import read_lines

# Centers per SGD step; bounds the step's memory and how stale its reads get
# on long sentences.
BLOCK_CENTERS = 64


@dataclass
class SubwordConfig:
    min_n: int = 3
    max_n: int = 6
    buckets: int = 2 ** 21

    def __post_init__(self):
        if self.min_n < 1:
            raise ValueError(f"min_n must be >= 1, got {self.min_n}")
        for name in ("min_n", "max_n", "buckets"):
            value = getattr(self, name)
            if value > 2 ** 31 - 1:  # a 32-bit signed int, as in fastText's own options
                raise ValueError(f"{name} must be <= 2147483647, got {value}")
        if self.min_n > self.max_n:
            raise ValueError(f"min_n {self.min_n} > max_n {self.max_n}")
        if self.buckets < 1:
            raise ValueError("buckets must be positive")


@dataclass
class EmbedConfig:
    dim: int = 100
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    initial_lr: float = 0.025
    min_count: int = 2
    seed: int = 1
    subword: SubwordConfig | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.negatives < 0:
            raise ValueError("negatives must be >= 0")
        if not self.initial_lr > 0:
            raise ValueError("initial_lr must be > 0")


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


@dataclass
class SubwordTable:
    min_n: int
    max_n: int
    buckets: int
    bucket_vectors: np.ndarray  # buckets x dim
    word_raw_vectors: np.ndarray  # |V| x dim, pre-composition input vectors


@dataclass
class EmbeddingMatrix:
    dim: int
    vocab: Vocabulary
    vectors: np.ndarray  # |V| x dim; for the subword variant these are composed
    subword: SubwordTable | None = None
    epoch_losses: list[float] = field(default_factory=list)


def build_vocab(sentences: list[list[str]], min_count: int = 2) -> Vocabulary:
    """Count tokens and keep those at or above min_count, ids by (count desc, token asc)."""
    counts: dict[str, int] = {}
    for sent in sentences:
        for tok in sent:
            counts[tok] = counts.get(tok, 0) + 1
    if not counts:
        raise ValueError("empty corpus")
    kept = sorted(
        ((tok, c) for tok, c in counts.items() if c >= min_count),
        key=lambda tc: (-tc[1], tc[0]),
    )
    if not kept:
        raise ValueError(f"no token reaches min_count={min_count}")
    id_to_token = [tok for tok, _ in kept]
    return Vocabulary(
        token_to_id={tok: i for i, tok in enumerate(id_to_token)},
        id_to_token=id_to_token,
        counts=np.array([c for _, c in kept], dtype=np.int64),
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
    if buckets < 2 ** 32:
        ids %= buckets
    return ids, starts


def ngram_ids(word: str, sub: SubwordConfig | SubwordTable) -> list[int]:
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


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    # numerically stable log(sigmoid(x))
    return np.where(x >= 0, -np.log1p(np.exp(-x)), x - np.log1p(np.exp(x)))


def _scatter_add(table: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """table[rows] += values, where repeated rows accumulate.

    np.add.at on the flat view of a C-contiguous table: numpy's 1-D fast
    path is several times faster than np.add.at on the 2-D table.
    """
    dim = table.shape[1]
    flat = (rows[:, None] * dim + np.arange(dim)).ravel()
    np.add.at(table.reshape(-1), flat, values.ravel())


def _gather(ids, starts, words) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """From the vocabulary's n-gram ids in CSR layout (`_hash_ngrams`), the
    n-gram ids of `words` back to back, the position in `words` that each
    belongs to, and 1 + each word's n-gram count (the number of rows its
    composition averages)."""
    counts = starts[words + 1] - starts[words]
    owner = np.repeat(np.arange(len(words)), counts)
    first = np.cumsum(counts) - counts
    flat = ids[starts[words][owner] + np.arange(owner.size) - first[owner]]
    return flat, owner, 1 + counts


def _compose(w_in, buckets, words, flat, owner, size) -> np.ndarray:
    """Mean of each word's raw vector and its n-gram bucket vectors."""
    total = w_in[words]
    _scatter_add(total, owner, buckets[flat])
    return total / size[:, None]


def _train(
    sentences: list[list[str]],
    config: EmbedConfig,
) -> EmbeddingMatrix:
    vocab = build_vocab(sentences, config.min_count)
    rng = np.random.default_rng(config.seed)
    dim = config.dim
    vocab_size = len(vocab)

    bound = 0.5 / dim
    w_in = rng.uniform(-bound, bound, size=(vocab_size, dim))
    w_out = np.zeros((vocab_size, dim))
    sub = config.subword
    if sub is not None:
        buckets = rng.uniform(-bound, bound, size=(sub.buckets, dim))
        grams = _hash_ngrams(vocab.id_to_token, sub.min_n, sub.max_n, sub.buckets)

    noise = negative_sampling_distribution(vocab)
    noise_cdf = np.cumsum(noise)
    noise_cdf[-1] = 1.0

    ids, sent_begin, sent_end = _corpus_ids(sentences, vocab)
    total_centers = ids.size * config.epochs
    if total_centers == 0:
        raise ValueError("corpus too small: no training pairs")
    # context offsets -window..-1, 1..window; a center keeps those within its radius
    offsets = np.concatenate(
        (np.arange(-config.window, 0), np.arange(1, config.window + 1))
    )
    reach = np.abs(offsets)
    processed = 0
    pair_seen = False
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
            # pairs in center-major order, contexts by ascending position
            pair_center, pair_slot = np.nonzero(keep)
            if not pair_center.size:
                continue
            negs = np.searchsorted(
                noise_cdf, rng.random((pair_center.size, config.negatives))
            )
            targets = np.concatenate(
                (ids[ctx[pair_center, pair_slot]][:, None], negs), axis=1
            )
            # each distinct center word is read (and composed) once
            words, word_of_center = np.unique(ids[first:last], return_inverse=True)
            pair_word = word_of_center[pair_center]
            if sub is None:
                v_words = w_in[words]
            else:
                flat, owner, size = _gather(*grams, words)
                v_words = _compose(w_in, buckets, words, flat, owner, size)
            v = v_words[pair_word]
            u = w_out[targets]
            scores = np.einsum("pkd,pd->pk", u, v)
            epoch_loss += float(
                -_log_sigmoid(scores[:, 0]).sum() - _log_sigmoid(-scores[:, 1:]).sum()
            )
            epoch_pairs += pair_center.size
            pair_seen = True
            g = 1.0 / (1.0 + np.exp(-np.clip(scores, -30, 30)))
            g[:, 0] -= 1.0
            g *= lr[pair_center][:, None]
            grad_v = np.einsum("pk,pkd->pd", g, u)
            _scatter_add(
                w_out, targets.ravel(), -(g[:, :, None] * v[:, None, :]).reshape(-1, dim)
            )
            grad_words = np.zeros_like(v_words)
            _scatter_add(grad_words, pair_word, grad_v)
            if sub is None:
                w_in[words] -= grad_words
            else:
                share = grad_words / size[:, None]
                w_in[words] -= share
                _scatter_add(buckets, flat, -share[owner])
        if epoch_pairs:
            losses.append(epoch_loss / epoch_pairs)
        else:
            losses.append(float("nan"))

    if not pair_seen:
        raise ValueError("corpus too small: no (center, context) pair")

    if sub is None:
        return EmbeddingMatrix(dim=dim, vocab=vocab, vectors=w_in, epoch_losses=losses)
    # composed in chunks, so the gathered bucket rows stay small
    composed = np.empty_like(w_in)
    for first in range(0, vocab_size, BLOCK_CENTERS):
        words = np.arange(first, min(first + BLOCK_CENTERS, vocab_size))
        composed[words] = _compose(w_in, buckets, words, *_gather(*grams, words))
    table = SubwordTable(min_n=sub.min_n, max_n=sub.max_n, buckets=sub.buckets,
                         bucket_vectors=buckets, word_raw_vectors=w_in)
    return EmbeddingMatrix(
        dim=dim, vocab=vocab, vectors=composed, subword=table, epoch_losses=losses
    )


def train_word2vec(sentences: list[list[str]], config: EmbedConfig) -> EmbeddingMatrix:
    if config.subword is not None:
        config = EmbedConfig(**{**config.__dict__, "subword": None})
    return _train(sentences, config)


def train_fasttext(sentences: list[list[str]], config: EmbedConfig) -> EmbeddingMatrix:
    if config.subword is None:
        config = EmbedConfig(**{**config.__dict__, "subword": SubwordConfig()})
    return _train(sentences, config)


def compose_word(matrix: EmbeddingMatrix, word: str) -> np.ndarray:
    """Mean of the word's raw vector (if in vocab) and its n-gram bucket vectors."""
    sub = matrix.subword
    if sub is None:
        raise ValueError("matrix has no subword table")
    rows = [sub.bucket_vectors[i] for i in ngram_ids(word, sub)]
    wid = matrix.vocab.token_to_id.get(word)
    if wid is not None:
        rows.insert(0, sub.word_raw_vectors[wid])
    if not rows:
        return np.zeros(matrix.dim)
    return np.vstack(rows).mean(axis=0)


def lookup(matrix: EmbeddingMatrix, word: str) -> np.ndarray:
    """In-vocab -> stored row; OOV -> subword composition or a zero vector."""
    wid = matrix.vocab.token_to_id.get(word)
    if wid is not None:
        return matrix.vectors[wid]
    if matrix.subword is not None:
        return compose_word(matrix, word)
    return np.zeros(matrix.dim)


# Values per block that `save_embeddings` formats at once; bounds the
# writer's scratch memory (about 100 bytes a value) whatever |V| is.
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


class EmbeddingFormatError(ValueError):
    pass


def load_embeddings(path) -> EmbeddingMatrix:
    """The vectors of a text file written by `save_embeddings`, with no
    subword table: an out-of-vocabulary word looks up as a zero vector.
    A malformed file, or one holding a value that is not finite (nan, inf),
    raises EmbeddingFormatError "<path>: line N: ...", and a line that is
    not UTF-8 a ValueError of the same form."""
    lines = read_lines(path)

    def bad(lineno: int, detail) -> EmbeddingFormatError:
        return EmbeddingFormatError(f"{path}: line {lineno}: {detail}")

    header = next(lines, (1, ""))[1].split()
    if len(header) != 2:
        raise bad(1, "header must be 'count dim'")
    try:
        count, dim = int(header[0]), int(header[1])
    except ValueError as exc:
        raise bad(1, f"header must be 'count dim': {exc}") from exc
    if count < 0 or dim < 1:
        raise bad(1, f"bad count {count} or dim {dim}")
    # values grow with the lines actually read, never from the header's count
    words = []
    values = array("d")
    for lineno in range(2, count + 2):
        line = next(lines, (lineno, None))[1]
        if line is None:
            raise bad(lineno, f"expected {count} vector lines, file ended")
        parts = line.rstrip("\n").split(" ")
        if len(parts) != dim + 1:
            raise bad(lineno, f"expected {dim} components, got {len(parts) - 1}")
        words.append(parts[0])
        try:
            values.extend(map(float, parts[1:]))
        except ValueError as exc:
            raise bad(lineno, exc) from exc
    for lineno, line in lines:
        if line.strip():
            raise bad(lineno, "trailing data after body")
    vectors = np.frombuffer(values, dtype=np.float64).reshape(count, dim)
    finite = np.isfinite(vectors)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise bad(int(row) + 2, f"component {col + 1} is not finite: {vectors[row, col]}")
    return EmbeddingMatrix(dim=dim, vocab=Vocabulary.from_tokens(words), vectors=vectors)
