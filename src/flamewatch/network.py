"""CNN + BiLSTM sentiment classifier in plain numpy.

Layer stack: embedding lookup, three same-padded 1-D convolutions of one
shape (`filters`, `kernel`) with ReLU and max-pooling over pairs of steps, a
masked bidirectional LSTM (final forward and backward states concatenated),
two sigmoid dense layers with dropout, and a softmax over the five sentiment
labels. CLASSES, CONV_LAYERS and POOL are constants, not config fields; a
checkpoint still stores them as "classes": 5, three equal "conv_layers" pairs
and "pool": 2, and one that stores other values is refused. Forward,
reverse-mode gradients and the Adam update are all hand-written and
reproducible from the seed. The only threads are BLAS's, whose number follows
the environment (e.g. OPENBLAS_NUM_THREADS).

Every parameter lives in one vector, `flat`, laid out in the order backward
writes the gradients: the output layer first, the embedding last. `params`
maps each name to its view into `flat`, so an entry must be written in place
(`params[k][...] = x`); rebinding it cuts it off from training. The trainable
part is a prefix of `flat`: all of it with fine_tune_embeddings, all but the
embedding without. The gradient `grad` and the Adam moments `adam_m` and
`adam_v` are vectors as long as that prefix, with the same layout.
`adam_step` updates the moments in place, through two scratch vectors of that
length made with them, so a step allocates no array.

Precision: `flat` is float32 unless the constructor's `dtype` says otherwise,
as the reference tools train (Keras' default floatx, word2vec.c's and
fastText's `real`), and checkpoints store float32. Every array the network
computes follows `flat`'s dtype: the gradient, the Adam state, the
activations and their gradients. Only the softmax, the loss and the chunk
means are float64, so each probability row sums to 1 within float64
rounding. A float64 network (`dtype=np.float64`) runs the same code; the
finite-difference gradient checks use one.

Training and inference share one forward. `forward(batch, infer=True)` only
draws no dropout and keeps no cache; its probabilities equal those of a
forward with no `rng`, bit for bit. Each convolution is one
(B*(T+K-1), C) @ (C, K*F) product over the padded input, whose K column
blocks are each tap's response, followed by K shifted adds; there is no
(B*T, C*K) window matrix. The cache keeps the padded input, and backward
fills the tap gradients (B, T+K-1, K, F) with K shifted copies of the output
gradient, so the weight and the input gradients are one product each. Each
LSTM direction projects every step's input in one (B*T, C) @ (C, 4H) product
before its time loop (Appleyard, Kocisky and Blunsom, arXiv:1604.01946), and
backward finds the input, recurrent, bias and sequence gradients in one
product or sum each after its loop. Tests pin the SHA-256 of the seeded
float32 training state.

Inference cuts every comment into chunks of at most max_tokens tokens and
packs the chunks of many comments, in order, into forwards of at most
PREDICT_ROWS rows; a comment's probability vector is the mean of its chunks'.
`make_batch` and inference map tokens to ids through one encoder, `_encode`.
`load` checks every part of a checkpoint, then fills a model that `_allocate`
made for the stored config and vocabulary, drawing nothing.
"""

from __future__ import annotations

import json
import math
import operator
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import atomic_write
from .embeddings import EmbeddingMatrix
from .lexicon import CLASSES, SentimentLabel
from .metrics import ConfusionMatrix, confusion

PAD_ID = 0
OOV_ID = 1
CHECKPOINT_MAGIC = b"FWCK"
CHECKPOINT_VERSION = 1
# Chunk rows per inference forward; it bounds the memory of predict and evaluate.
# On a dim-32 model, 400 long-tail comments and one OpenBLAS thread (2-core Xeon),
# the float32 forward without cache ran at 8.8k comments/s with a 3.3 MiB
# tracemalloc peak at 64 rows, at 8.9k/s with 10.9 MiB at 256 rows, and at 1.1k/s
# with one row per forward (medians of 21 interleaved runs).
PREDICT_ROWS = 64
# Largest max_tokens a config may ask for. Inference holds float32 activations of
# (PREDICT_ROWS, max_tokens, filters) and tap responses `kernel` times as large: at
# 1024 tokens, 64 filters and kernel 3 that is 16 and 48 MiB per convolution, where
# an unchecked value from a checkpoint could ask for TiB.
MAX_TOKENS = 1024
CONV_LAYERS = 3
POOL = 2
# Most parameters besides the embedding that a model may have. Training holds six
# float32 vectors that long (flat, grad, two Adam moments, two scratch vectors), 24
# bytes a parameter: 2**24 is about 0.4 GB. The default config has about 135k.
MAX_PARAMETERS = 2 ** 24
# What `SentimentNet.train` runs by default: epochs, and the share of the data held
# out for validation loss and early stopping
TRAIN_EPOCHS = 40
VAL_SPLIT = 0.1
# Adam's moment decay rates and denominator guard (Kingma & Ba, arXiv:1412.6980)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def _is_int(value) -> bool:
    """An int that is not a bool (JSON true would otherwise count as 1)."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class ModelConfig:
    embed_dim: int
    max_tokens: int = 30
    filters: int = 64  # of each conv layer
    kernel: int = 3  # width of each conv layer's kernel
    lstm_hidden: int = 64
    dense_sizes: tuple = (128, 64)
    dropout_lstm: float = 0.5
    dropout_dense: float = 0.5
    seed: int = 0
    batch_size: int = 16
    learning_rate: float = 1e-4
    fine_tune_embeddings: bool = False

    def __post_init__(self):
        self.dense_sizes = tuple(self.dense_sizes)
        if len(self.dense_sizes) != 2:
            raise ValueError("expected exactly 2 dense layers")
        sizes = {"embed_dim": self.embed_dim, "filters": self.filters,
                 "kernel width": self.kernel, "lstm_hidden": self.lstm_hidden,
                 **{f"dense_sizes[{i}]": d for i, d in enumerate(self.dense_sizes)},
                 "batch_size": self.batch_size}
        for name, size in sizes.items():
            if not (_is_int(size) and size >= 1):
                raise ValueError(f"{name} {size!r} must be an integer >= 1")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ValueError(f"seed {self.seed!r} must be an integer >= 0")
        if not (_is_int(self.max_tokens) and 1 <= self.max_tokens <= MAX_TOKENS):
            raise ValueError(f"max_tokens {self.max_tokens!r} outside [1, {MAX_TOKENS}]")
        if not isinstance(self.fine_tune_embeddings, bool):
            raise ValueError(
                f"fine_tune_embeddings {self.fine_tune_embeddings!r} must be true or false"
            )
        if self.kernel > self.max_tokens:
            raise ValueError(f"kernel width {self.kernel} outside [1, {self.max_tokens}]")
        # a bool is an int, so JSON true would otherwise count as 1.0
        for name in ("dropout_lstm", "dropout_dense"):
            p = getattr(self, name)
            if isinstance(p, bool) or not 0.0 <= p < 1.0:
                raise ValueError(f"{name} {p!r} must be a number in [0, 1)")
        lr = self.learning_rate
        if isinstance(lr, bool) or not (lr > 0 and math.isfinite(lr)):
            raise ValueError(f"learning_rate {lr!r} must be finite and > 0")


@dataclass
class Batch:
    ids: np.ndarray  # (B, max_tokens) int, right-padded with PAD_ID
    lengths: np.ndarray  # (B,)
    labels: np.ndarray | None = None  # (B, 5) one-hot

    def rows(self, index) -> Batch:
        """The batch of the rows that `index` (a slice or an index array) selects."""
        labels = None if self.labels is None else self.labels[index]
        return Batch(ids=self.ids[index], lengths=self.lengths[index], labels=labels)


@dataclass
class TrainReport:
    train_loss: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)
    best_epoch: int = -1
    early_stopped: bool = False


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60, 60)))


class NonFiniteError(FloatingPointError):
    def __init__(self, where: str):
        super().__init__(f"non-finite values in {where}")


def _check_finite(x, where: str):
    if not np.isfinite(x).all():
        raise NonFiniteError(where)


def read_exact(fh, size: int, section: str) -> bytes:
    """Read the `size` bytes of one section of a binary file, or raise
    ValueError naming the section if `size` is negative or the file ends first."""
    if size < 0:
        raise ValueError(f"{section} size {size} is negative")
    data = fh.read(min(size, os.fstat(fh.fileno()).st_size - fh.tell()))
    if len(data) != size:
        raise ValueError(f"truncated {section}: expected {size} bytes, read {len(data)}")
    return data


def param_shapes(config: ModelConfig, vocab_size: int) -> dict[str, tuple[int, ...]]:
    """The shape of every parameter, in the order the constructor draws them.

    Allocates nothing, so a checkpoint's config can be checked before a model
    is built. A size that is not an integer raises TypeError.
    """
    shapes = {"embedding": (vocab_size + 2, config.embed_dim)}
    cin = config.embed_dim
    for li in range(CONV_LAYERS):
        shapes[f"conv{li}_w"] = (config.filters, config.kernel, cin)
        shapes[f"conv{li}_b"] = (config.filters,)
        cin = config.filters
    h = config.lstm_hidden
    for d in ("fwd", "bwd"):
        shapes[f"lstm_{d}_wx"] = (cin, 4 * h)
        shapes[f"lstm_{d}_wh"] = (h, 4 * h)
        shapes[f"lstm_{d}_b"] = (4 * h,)
    d1, d2 = config.dense_sizes
    shapes["dense1_w"] = (2 * h, d1)
    shapes["dense1_b"] = (d1,)
    shapes["dense2_w"] = (d1, d2)
    shapes["dense2_b"] = (d2,)
    shapes["out_w"] = (d2, CLASSES)
    shapes["out_b"] = (CLASSES,)
    return {name: tuple(map(operator.index, shape)) for name, shape in shapes.items()}


def _layout(shapes: dict[str, tuple[int, ...]]) -> dict[str, tuple[int, ...]]:
    """`shapes` in the order backward writes the gradients: the layers reversed,
    each keeping its tensors' order, so the embedding comes last."""
    layers: dict[str, list[str]] = {}
    for name in shapes:
        layers.setdefault(name.rsplit("_", 1)[0], []).append(name)
    return {name: shapes[name] for layer in reversed(layers.values()) for name in layer}


def _flat(shapes: dict[str, tuple[int, ...]], dtype) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """A zeroed vector of `dtype` and its consecutive views, one per shape, in order."""
    buffer = np.zeros(sum(math.prod(shape) for shape in shapes.values()), dtype=dtype)
    views, offset = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = buffer[offset:offset + size].reshape(shape)
        offset += size
    return buffer, views


def _check_size(config: ModelConfig, shapes: dict[str, tuple[int, ...]]) -> None:
    """Refuse more than MAX_PARAMETERS parameters besides the embedding, naming
    the largest tensor and the field that gives its longest axis."""
    counts = {name: math.prod(shape) for name, shape in shapes.items() if name != "embedding"}
    if sum(counts.values()) > MAX_PARAMETERS:
        largest = max(counts, key=counts.get)
        h, (d1, d2) = config.lstm_hidden, config.dense_sizes
        # every axis length but CLASSES, which no tensor that large has as its longest
        field = {config.kernel: "kernel width", config.embed_dim: "embed_dim",
                 config.filters: "filters", **dict.fromkeys((h, 2 * h, 4 * h), "lstm_hidden"),
                 d1: "dense_sizes[0]", d2: "dense_sizes[1]"}[max(shapes[largest])]
        raise ValueError(f"{sum(counts.values())} parameters besides the embedding exceed "
                         f"MAX_PARAMETERS {MAX_PARAMETERS}; the largest tensor, {largest} "
                         f"{shapes[largest]}, is sized by {field}")


def _pad_rows(ids, begin, lengths, t: int) -> np.ndarray:
    """Rows of width t, row i holding ids[begin[i]:][:lengths[i]] and then PAD_ID."""
    used = np.arange(t) < lengths[:, None]
    rows = np.full(used.shape, PAD_ID, dtype=np.int64)
    rows[used] = ids[(begin[:, None] + np.arange(t))[used]]
    return rows


class SentimentNet:
    """Parameter container plus forward/backward/update for the classifier."""

    def __init__(self, config: ModelConfig, embeddings: EmbeddingMatrix, *,
                 dtype=np.float32):
        if embeddings.dim != config.embed_dim:
            raise ValueError(
                f"embedding dim {embeddings.dim} != config.embed_dim {config.embed_dim}"
            )
        self._allocate(config, embeddings.vocab.id_to_token, dtype)
        rng = np.random.default_rng(config.seed)
        for name, p in self.params.items():
            if name == "embedding":  # rows 0/1 are pad and OOV, kept at zero init
                p[2:] = embeddings.vectors
            elif p.ndim > 1:
                # conv (filters, kernel, in) sees kernel*in inputs; a matrix sees its rows
                fan_in = math.prod(p.shape[1:]) if name.startswith("conv") else p.shape[0]
                bound = 1.0 / np.sqrt(fan_in)
                p[...] = rng.uniform(-bound, bound, size=p.shape)

    def _allocate(self, config: ModelConfig, id_to_token: list[str], dtype) -> None:
        """Token ids (token i is id i + 2) and zeroed parameters, gradient and Adam state."""
        self.config = config
        self.id_to_token = list(id_to_token)
        self.token_to_id = {tok: i + 2 for i, tok in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            repeated = next(tok for i, tok in enumerate(self.id_to_token)
                            if self.token_to_id[tok] != i + 2)
            raise ValueError(f"vocabulary repeats token {repeated!r}")
        shapes = param_shapes(config, len(self.id_to_token))
        _check_size(config, shapes)
        layout = _layout(shapes)
        self.flat, views = _flat(layout, dtype)
        self.params = {name: views[name] for name in shapes}  # in the draw order
        if not config.fine_tune_embeddings:
            del layout["embedding"]
        self.grad, self._grads = _flat(layout, dtype)
        self.adam_m = np.zeros_like(self.grad)
        self.adam_v = np.zeros_like(self.grad)
        self._adam_scratch = (np.empty_like(self.grad), np.empty_like(self.grad))
        self.adam_t = 0

    # ----- helpers ---------------------------------------------------------

    def num_parameters(self) -> int:
        return self.flat.size

    def _encode(self, token_lists) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every token's id, comment after comment, and where each comment's
        ids begin and how many it has. An empty comment is refused."""
        lengths = np.fromiter(map(len, token_lists), dtype=np.int64, count=len(token_lists))
        if not lengths.all():
            raise ValueError(f"comment {lengths.argmin()}: empty token list")
        get = self.token_to_id.get
        ids = np.fromiter((get(tok, OOV_ID) for tokens in token_lists for tok in tokens),
                          dtype=np.int64, count=int(lengths.sum()))
        return ids, np.cumsum(lengths) - lengths, lengths

    def make_batch(self, token_lists, labels=None) -> Batch:
        """The first max_tokens tokens of each comment, one row each."""
        t = self.config.max_tokens
        ids, begin, lengths = self._encode([tokens[:t] for tokens in token_lists])
        one_hot = None if labels is None else np.eye(CLASSES)[np.asarray(labels, dtype=int)]
        return Batch(ids=_pad_rows(ids, begin, lengths, t), lengths=lengths, labels=one_hot)

    # ----- forward ---------------------------------------------------------

    def _conv_taps(self, x, w, b):
        """Same-padded convolution of x (B,T,C) with w (F,K,C): one
        (B*(T+K-1), C) @ (C, K*F) product gives every tap's response at every
        padded step, and output step t adds tap k's response at step t + k.
        Returns z (B,T,F) and the padded input, which backward reuses."""
        bsz, t, c = x.shape
        filters, kernel, _ = w.shape
        pl = (kernel - 1) // 2
        xp = np.zeros((bsz, t + kernel - 1, c), dtype=x.dtype)
        xp[:, pl:pl + t, :] = x
        taps = (xp.reshape(-1, c) @ w.transpose(2, 1, 0).reshape(c, kernel * filters)).reshape(
            bsz, t + kernel - 1, kernel, filters)
        z = taps[:, :t, 0, :] + b
        for k in range(1, kernel):
            z += taps[:, k:k + t, k, :]
        return z, xp

    def _conv_backward(self, dz, w, xp, dw, db, input_grad=True):
        """Writes the weight and bias gradients into dw and db; returns dx, or
        None without `input_grad`. Tap k's response at padded step s fed output
        step s - k, so its gradient dtaps[:, s, k] is dz[:, s - k]."""
        bsz, t, filters = dz.shape
        _, kernel, c = w.shape
        pl = (kernel - 1) // 2
        dtaps = np.zeros((bsz, t + kernel - 1, kernel, filters), dtype=dz.dtype)
        for k in range(kernel):
            dtaps[:, k:k + t, k, :] = dz
        dtaps = dtaps.reshape(-1, kernel * filters)
        dw[...] = (xp.reshape(-1, c).T @ dtaps).reshape(c, kernel, filters).transpose(2, 1, 0)
        db[...] = dz.sum(axis=(0, 1))
        if not input_grad:
            return None
        dxp = dtaps @ w.transpose(1, 0, 2).reshape(kernel * filters, c)
        return dxp.reshape(bsz, t + kernel - 1, c)[:, pl:pl + t, :]

    def _lstm_forward(self, seq, mask, direction: str, cache):
        """The direction's final hidden state. Every step's input projection
        is one product before the time loop; with a forward cache, each
        step's values go to its list for the direction."""
        p = self.params
        wh = p[f"lstm_{direction}_wh"]
        b, t, cin = seq.shape
        hdim = self.config.lstm_hidden
        xw = (seq.reshape(-1, cin) @ p[f"lstm_{direction}_wx"]
              + p[f"lstm_{direction}_b"]).reshape(b, t, 4 * hdim)
        h = np.zeros((b, hdim), dtype=seq.dtype)
        c = np.zeros((b, hdim), dtype=seq.dtype)
        steps = range(t) if direction == "fwd" else range(t - 1, -1, -1)
        keep = 1 - mask
        kept = None if cache is None else cache[f"lstm_{direction}"]
        for ti in steps:
            z = xw[:, ti, :] + h @ wh
            # gates i, f, g, o; the sigmoid of the g block is replaced by 1, which
            # backward's product with `gates` then leaves exact
            gates = _sigmoid(z)
            gg = np.tanh(z[:, 2 * hdim:3 * hdim])
            gates[:, 2 * hdim:3 * hdim] = 1.0
            gi, gf, go = gates[:, :hdim], gates[:, hdim:2 * hdim], gates[:, 3 * hdim:]
            c_new = gf * c + gi * gg
            tc = np.tanh(c_new)
            h_new = go * tc
            m, k = mask[:, ti:ti + 1], keep[:, ti:ti + 1]
            if kept is not None:
                kept.append((ti, h, c, gates, gg, tc, m, k))
            h = m * h_new + k * h
            c = m * c_new + k * c
        return h

    def _lstm_backward(self, dh_final, seq, cache, direction: str):
        """Writes the direction's gradients and returns its gradient of `seq`.
        The time loop finds each step's gate gradient; the products with the
        inputs, the previous hidden states and wx are one each after it."""
        wx = self.params[f"lstm_{direction}_wx"]
        wh = self.params[f"lstm_{direction}_wh"]
        b, t, cin = seq.shape
        hdim = self.config.lstm_hidden
        di, df, dg, do = (slice(j * hdim, (j + 1) * hdim) for j in range(4))
        dzs = np.empty((b, t, 4 * hdim), dtype=seq.dtype)
        h_prevs = np.empty((b, t, hdim), dtype=seq.dtype)
        slope = np.empty((b, 4 * hdim), dtype=seq.dtype)
        dh = dh_final
        dc = np.zeros_like(dh_final)
        for ti, h_prev, c_prev, gates, gg, tc, m, k in reversed(cache):
            dz = dzs[:, ti, :]
            h_prevs[:, ti, :] = h_prev
            gi, gf, go = gates[:, di], gates[:, df], gates[:, do]
            dh_new = dh * m
            dh_carry = dh * k
            dc_new = dc * m
            dc_carry = dc * k
            dc_new = dc_new + dh_new * go * (1 - tc ** 2)
            # the gate gradients, then times g * (1 - g) for the sigmoid gates and
            # 1 * (1 - gg ** 2) for the tanh one
            np.multiply(dc_new, gg, out=dz[:, di])
            np.multiply(dc_new, c_prev, out=dz[:, df])
            np.multiply(dc_new, gi, out=dz[:, dg])
            np.multiply(dh_new, tc, out=dz[:, do])
            dc_prev = dc_new * gf + dc_carry
            np.subtract(1, gates, out=slope)
            np.subtract(1, gg ** 2, out=slope[:, dg])
            dz *= gates
            dz *= slope
            dh = dz @ wh.T + dh_carry
            dc = dc_prev
        dzs = dzs.reshape(-1, 4 * hdim)
        self._grads[f"lstm_{direction}_wx"][...] = seq.reshape(-1, cin).T @ dzs
        self._grads[f"lstm_{direction}_wh"][...] = h_prevs.reshape(-1, hdim).T @ dzs
        self._grads[f"lstm_{direction}_b"][...] = dzs.sum(axis=0)
        return (dzs @ wx.T).reshape(b, t, cin)

    def forward(self, batch: Batch, rng=None, *, infer: bool = False):
        """Returns (probabilities, cache); dropout draws from `rng` when one is given.

        Everything up to the logits computes in the dtype of `flat`; the
        softmax is float64. With `infer`, the forward draws no dropout and
        keeps no cache (None); its probabilities are those of a forward with
        no `rng`, bit for bit.
        """
        cfg = self.config
        p = self.params
        dtype = self.flat.dtype
        # pad positions are zero vectors by contract
        x = p["embedding"][batch.ids] * (batch.ids != PAD_ID)[:, :, None]
        lengths = np.minimum(batch.lengths, cfg.max_tokens).astype(np.int64)
        cache = None if infer else {"ids": batch.ids, "convs": []}

        for li in range(CONV_LAYERS):
            z, xp = self._conv_taps(x, p[f"conv{li}_w"], p[f"conv{li}_b"])
            _check_finite(z, f"conv{li}")
            x = np.maximum(z, 0.0)
            wins = None  # a sequence shorter than POOL passes unpooled
            if x.shape[1] >= POOL:
                tp = x.shape[1] // POOL
                pairs = x[:, :tp * POOL, :].reshape(x.shape[0], tp, POOL, x.shape[2])
                # the strict > keeps the first of a tie, as argmax does
                wins = pairs[:, :, 1, :] > pairs[:, :, 0, :]
                x = np.where(wins, pairs[:, :, 1, :], pairs[:, :, 0, :])
                lengths = np.minimum(tp, (lengths - 1) // POOL + 1)
            if cache is not None:
                cache["convs"].append((xp, z, wins))

        mask = (np.arange(x.shape[1])[None, :] < lengths[:, None]).astype(dtype)
        if cache is not None:
            cache.update(seq=x, lstm_fwd=[], lstm_bwd=[])
        h_fwd = self._lstm_forward(x, mask, "fwd", cache)
        h_bwd = self._lstm_forward(x, mask, "bwd", cache)
        hcat = np.concatenate([h_fwd, h_bwd], axis=1)
        _check_finite(hcat, "bilstm")

        def dropout_mask(shape, rate):
            if infer or rng is None or rate == 0.0:
                return np.ones(shape, dtype)
            return ((rng.random(shape) >= rate) / (1.0 - rate)).astype(dtype)

        m0 = dropout_mask(hcat.shape, cfg.dropout_lstm)
        a0 = hcat * m0
        z1 = a0 @ p["dense1_w"] + p["dense1_b"]
        a1 = _sigmoid(z1)
        m1 = dropout_mask(a1.shape, cfg.dropout_dense)
        a1d = a1 * m1
        z2 = a1d @ p["dense2_w"] + p["dense2_b"]
        a2 = _sigmoid(z2)
        logits = (a2 @ p["out_w"] + p["out_b"]).astype(np.float64, copy=False)
        _check_finite(logits, "output")
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=1, keepdims=True)

        if cache is not None:
            cache.update(m0=m0, a0=a0, a1=a1, m1=m1, a1d=a1d, a2=a2, probs=probs)
        return probs, cache

    # ----- loss and gradients ---------------------------------------------

    @staticmethod
    def loss(probs: np.ndarray, labels: np.ndarray) -> float:
        """Mean categorical cross-entropy with probabilities clamped away from 0."""
        clamped = np.clip(probs, 1e-12, 1.0)
        return float(-(labels * np.log(clamped)).sum(axis=1).mean())

    def backward(self, cache: dict, labels: np.ndarray) -> dict[str, np.ndarray]:
        """Writes the gradient into `grad` and returns its views by name."""
        cfg = self.config
        p = self.params
        g = self._grads
        b = labels.shape[0]

        dlogits = ((cache["probs"] - labels) / b).astype(self.flat.dtype, copy=False)
        g["out_w"][...] = cache["a2"].T @ dlogits
        g["out_b"][...] = dlogits.sum(axis=0)
        da2 = dlogits @ p["out_w"].T
        dz2 = da2 * cache["a2"] * (1 - cache["a2"])
        g["dense2_w"][...] = cache["a1d"].T @ dz2
        g["dense2_b"][...] = dz2.sum(axis=0)
        da1 = (dz2 @ p["dense2_w"].T) * cache["m1"]
        dz1 = da1 * cache["a1"] * (1 - cache["a1"])
        g["dense1_w"][...] = cache["a0"].T @ dz1
        g["dense1_b"][...] = dz1.sum(axis=0)
        dhcat = (dz1 @ p["dense1_w"].T) * cache["m0"]

        hdim = cfg.lstm_hidden
        seq = cache["seq"]
        dx = (self._lstm_backward(dhcat[:, hdim:], seq, cache["lstm_bwd"], "bwd")
              + self._lstm_backward(dhcat[:, :hdim], seq, cache["lstm_fwd"], "fwd"))

        for li in range(CONV_LAYERS - 1, -1, -1):
            xp, z, wins = cache["convs"][li]
            if wins is not None:
                bsz, tp, filters = wins.shape
                da = np.zeros_like(z)
                # a view of da: splitting an axis never copies
                pairs = da[:, :tp * POOL, :].reshape(bsz, tp, POOL, filters)
                np.copyto(pairs[:, :, 0, :], dx, where=~wins)
                np.copyto(pairs[:, :, 1, :], dx, where=wins)
                dx = da
            dz = dx * (z > 0)
            # conv0's input gradient is read only to fine-tune the embedding
            dx = self._conv_backward(dz, p[f"conv{li}_w"], xp, g[f"conv{li}_w"],
                                     g[f"conv{li}_b"], li > 0 or cfg.fine_tune_embeddings)

        # a frozen embedding is outside grad and gets no gradient; PAD
        # positions scatter into row PAD_ID, which is zeroed after
        if cfg.fine_tune_embeddings:
            demb = g["embedding"]
            demb.fill(0.0)
            np.add.at(demb, cache["ids"].ravel(), dx.reshape(-1, dx.shape[2]))
            demb[PAD_ID] = 0.0

        if not np.isfinite(self.grad).all():
            # views are in backward's order: name the first tensor it spoiled
            name = next(k for k, v in g.items() if not np.isfinite(v).all())
            raise NonFiniteError(f"gradient of {name}")
        return g

    # ----- optimization ----------------------------------------------------

    def adam_step(self):
        """One Adam update of the trainable prefix of `flat` from `grad`."""
        self.adam_t += 1
        t = self.adam_t
        g, m, v = self.grad, self.adam_m, self.adam_v
        step, scratch = self._adam_scratch
        # the arithmetic and its order are those of
        # m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
        # flat -= lr*(m/(1-b1**t)) / (sqrt(v/(1-b2**t)) + eps)
        m *= ADAM_BETA1
        np.multiply(g, 1 - ADAM_BETA1, out=scratch)
        m += scratch
        v *= ADAM_BETA2
        np.multiply(g, 1 - ADAM_BETA2, out=scratch)
        scratch *= g
        v += scratch
        np.divide(v, 1 - ADAM_BETA2 ** t, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += ADAM_EPS
        np.divide(m, 1 - ADAM_BETA1 ** t, out=step)
        step *= self.config.learning_rate
        step /= scratch
        self.flat[:g.size] -= step

    def train(
        self,
        data: list[tuple[list[str], int]],
        epochs: int = TRAIN_EPOCHS,
        val_split: float = VAL_SPLIT,
    ) -> TrainReport:
        """Mini-batch Adam; keeps the parameters of the min-validation-loss epoch."""
        if not (isinstance(epochs, int) and epochs >= 1):
            raise ValueError(f"epochs {epochs!r} must be an integer >= 1")
        if not 0.0 <= val_split < 1.0:
            raise ValueError(f"val_split {val_split!r} must be in [0, 1)")
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        encoded = self.make_batch([toks for toks, _ in data], [lab for _, lab in data])
        order = rng.permutation(len(data))
        n_val = int(round(len(data) * val_split))
        val_set = encoded.rows(order[:n_val])
        train_idx = order[n_val:]

        present = {data[i][1] for i in train_idx}
        missing = set(range(CLASSES)) - present
        if missing:
            raise ValueError(f"classes missing from training split: {sorted(missing)}")

        report = TrainReport()
        best_loss = np.inf
        trainable = self.flat[:self.grad.size]
        best = None
        for epoch in range(epochs):
            perm = rng.permutation(len(train_idx))
            epoch_loss = 0.0
            correct = 0
            for start in range(0, len(train_idx), cfg.batch_size):
                batch = encoded.rows(train_idx[perm[start:start + cfg.batch_size]])
                probs, cache = self.forward(batch, rng=rng)
                epoch_loss += self.loss(probs, batch.labels) * len(batch.ids)
                correct += int((probs.argmax(1) == batch.labels.argmax(1)).sum())
                self.backward(cache, batch.labels)
                self.adam_step()
            report.train_loss.append(epoch_loss / len(train_idx))
            report.train_accuracy.append(correct / len(train_idx))

            if n_val:
                vloss, vacc = self._evaluate_loss(val_set)
                report.val_loss.append(vloss)
                report.val_accuracy.append(vacc)
                if vloss < best_loss:
                    best_loss = vloss
                    best = trainable.copy()
                    report.best_epoch = epoch

        if n_val and best is not None:
            trainable[...] = best
            report.early_stopped = report.best_epoch < epochs - 1
        else:
            report.best_epoch = epochs - 1
        return report

    def _evaluate_loss(self, batch: Batch) -> tuple[float, float]:
        n = len(batch.ids)
        total = 0.0
        correct = 0
        for start in range(0, n, self.config.batch_size):
            part = batch.rows(slice(start, start + self.config.batch_size))
            probs, _ = self.forward(part, infer=True)
            total += self.loss(probs, part.labels) * len(part.ids)
            correct += int((probs.argmax(1) == part.labels.argmax(1)).sum())
        return total / n, correct / n

    # ----- inference -------------------------------------------------------

    def predict_many(self, token_lists) -> tuple[np.ndarray, np.ndarray]:
        """Labels (N,) and mean chunk probabilities (N, 5) of N comments.

        Every token is mapped to its id once, and each comment's ids are cut
        into max_tokens chunks. The chunks of all comments, in order, go
        through forwards of at most PREDICT_ROWS rows, and each comment's row
        is the mean of its chunks' rows. The label is the row's argmax, so
        ties go to the lower class code.
        """
        t = self.config.max_tokens
        ids, begin, lengths = self._encode(token_lists)
        # chunk k of comment i holds ids[begin[i] + k*t:][:t]
        per_comment = -(-lengths // t)
        owner = np.repeat(np.arange(len(token_lists)), per_comment)
        rank = np.arange(owner.size) - (np.cumsum(per_comment) - per_comment)[owner]
        chunk_begin = begin[owner] + rank * t
        chunk_len = np.minimum(t, lengths[owner] - rank * t)
        sums = np.zeros((len(token_lists), CLASSES))
        for start in range(0, owner.size, PREDICT_ROWS):
            rows = slice(start, start + PREDICT_ROWS)
            batch_ids = _pad_rows(ids, chunk_begin[rows], chunk_len[rows], t)
            probs, _ = self.forward(Batch(ids=batch_ids, lengths=chunk_len[rows]), infer=True)
            np.add.at(sums, owner[rows], probs)
        means = sums / np.bincount(owner, minlength=len(token_lists))[:, None]
        return means.argmax(axis=1), means

    def predict_tokens(self, tokens: list[str]) -> tuple[SentimentLabel, np.ndarray]:
        """Label and mean chunk probabilities of one comment."""
        labels, means = self.predict_many([tokens])
        return SentimentLabel(int(labels[0])), means[0]

    def evaluate(self, data: list[tuple[list[str], int]]) -> tuple[float, ConfusionMatrix]:
        if not data:
            raise ValueError("empty test set")
        predicted, _ = self.predict_many([tokens for tokens, _ in data])
        actual = np.array([int(label) for _, label in data])
        cm = confusion(predicted, actual, CLASSES, [lbl.name for lbl in SentimentLabel])
        return int((predicted == actual).sum()) / len(data), cm

    # ----- persistence -----------------------------------------------------

    def save(self, path) -> None:
        """Write the checkpoint atomically (`atomic_write`)."""
        names = sorted(self.params)
        cfg = self.config
        meta = {
            "config": {
                "embed_dim": cfg.embed_dim, "max_tokens": cfg.max_tokens, "pool": POOL,
                "lstm_hidden": cfg.lstm_hidden, "dropout_lstm": cfg.dropout_lstm,
                "dropout_dense": cfg.dropout_dense, "classes": CLASSES, "seed": cfg.seed,
                "batch_size": cfg.batch_size, "learning_rate": cfg.learning_rate,
                "fine_tune_embeddings": cfg.fine_tune_embeddings,
                "conv_layers": [[cfg.filters, cfg.kernel]] * CONV_LAYERS,
                "dense_sizes": list(cfg.dense_sizes),
            },
            "id_to_token": self.id_to_token,
            "tensors": [[n, list(self.params[n].shape)] for n in names],
        }
        blob = json.dumps(meta).encode("utf-8")

        def write(tmp):
            with open(tmp, "wb") as fh:
                fh.write(CHECKPOINT_MAGIC)
                fh.write(struct.pack("<ii", CHECKPOINT_VERSION, len(blob)))
                fh.write(blob)
                for n in names:
                    fh.write(self.params[n].astype("<f4").tobytes())

        atomic_write(path, write)

    @classmethod
    def load(cls, path) -> SentimentNet:
        """Any malformed checkpoint raises ValueError naming the file and the section."""
        try:
            with open(path, "rb") as fh:
                return cls._read(fh)
        except ValueError as exc:
            raise ValueError(f"checkpoint {path}: {exc}") from None

    @classmethod
    def _read(cls, fh) -> SentimentNet:
        if read_exact(fh, 4, "magic") != CHECKPOINT_MAGIC:
            raise ValueError("not a checkpoint file (bad magic bytes)")
        version, blob_len = struct.unpack("<ii", read_exact(fh, 8, "header"))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        blob = read_exact(fh, blob_len, "metadata")
        try:
            meta = json.loads(blob.decode("utf-8"))
            stored_config = {**meta["config"]}
            if stored_config.pop("classes", CLASSES) != CLASSES:
                raise ValueError(f"model is fixed to {CLASSES} classes")
            pool, conv = stored_config.pop("pool"), stored_config.pop("conv_layers")
            if not (_is_int(pool) and pool == POOL):
                raise ValueError(f"pool {pool!r} must be {POOL}")
            # repr tells 2.0 and true apart from 2 and 1, which == does not
            if not (isinstance(conv, list) and len(conv) == CONV_LAYERS
                    and isinstance(conv[0], list) and len(conv[0]) == 2
                    and len({repr(pair) for pair in conv}) == 1):
                raise ValueError(f"conv_layers {conv!r} must be {CONV_LAYERS} equal pairs")
            stored_config["filters"], stored_config["kernel"] = conv[0]
            config = ModelConfig(**stored_config)
            tokens = meta["id_to_token"]
            if not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)
                    and len(set(tokens)) == len(tokens)):
                raise ValueError("id_to_token must be a list of distinct strings")
            shapes = param_shapes(config, len(tokens))
            stored = meta["tensors"]
        except KeyError as exc:
            raise ValueError(f"metadata: missing {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"metadata: {exc}") from None
        expected = [[n, list(shapes[n])] for n in sorted(shapes)]
        if stored != expected:
            raise ValueError(f"metadata: tensors {stored} do not match the config's {expected}")
        # every tensor is read before the model is built, so a config that implies
        # more bytes than the file holds fails here and allocates nothing
        tensors = {
            name: np.frombuffer(read_exact(fh, 4 * math.prod(shape), f"tensor {name}"),
                                dtype="<f4").reshape(shape)
            for name, shape in expected
        }
        if fh.read(1):
            raise ValueError("trailing data after the last tensor")
        for name, data in tensors.items():
            if not np.isfinite(data).all():
                raise ValueError(f"tensor {name} holds a value that is not finite")
        model = cls.__new__(cls)
        model._allocate(config, tokens, np.float32)
        for name, data in tensors.items():
            model.params[name][...] = data
        return model
