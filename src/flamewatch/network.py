"""CNN + BiLSTM sentiment classifier in plain numpy.

Layer stack: embedding lookup, three same-padded 1-D convolutions with
ReLU and max-pooling, a masked bidirectional LSTM (final forward and
backward states concatenated), two sigmoid dense layers with dropout,
and a softmax over the five sentiment labels. The class count is the
constant CLASSES, not a config field; a checkpoint still stores it as
"classes": 5, and one that stores another value is refused. Forward,
reverse-mode gradients and the Adam update are all hand-written; everything
runs in double precision and is reproducible from the seed. The only threads
are BLAS's, whose number follows the environment (e.g. OPENBLAS_NUM_THREADS).

Every parameter lives in one float64 vector, `flat`, laid out in the order
backward writes the gradients: the output layer first, the embedding last.
`params` maps each name to its view into `flat`, so an entry must be written
in place (`params[k][...] = x`); rebinding it cuts it off from training. The
trainable part is a prefix of `flat`: all of it with fine_tune_embeddings,
all but the embedding without. The gradient `grad` and the Adam moments
`adam_m` and `adam_v` are vectors as long as that prefix, with the same layout.
`adam_step` updates the moments in place, through two scratch vectors of that
length made with them, so a step allocates no array.

Each convolution builds its im2col window matrix, (B*T, C*K), once in forward;
the matrix lives in the forward cache, and backward reuses it for the weight
gradient. The kernels save numpy calls, not arithmetic: each product and sum
keeps its operands, its association and the memory layout it hands BLAS, and
tests pin the SHA-256 of the seeded float64 training state.

Inference cuts every comment into chunks of at most max_tokens tokens and
packs the chunks of many comments, in order, into forwards of at most
PREDICT_ROWS rows; a comment's probability vector is the mean of its chunks'.
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
from .embeddings import EmbeddingMatrix, Vocabulary
from .lexicon import SentimentLabel
from .metrics import ConfusionMatrix, confusion

PAD_ID = 0
OOV_ID = 1
CHECKPOINT_MAGIC = b"FWCK"
CHECKPOINT_VERSION = 1
# Chunk rows per inference forward; it bounds the memory of predict and evaluate.
# On a dim-32 model, 400 long-tail comments and one OpenBLAS thread (Xeon), 64
# rows peaked 10 MB above the process base at 3.7k comments/s, 256 rows 33 MB
# above it at 4.0k/s, and one row per forward ran at 340/s.
PREDICT_ROWS = 64
# Largest max_tokens a config may ask for. Inference holds float64 activations of
# (PREDICT_ROWS, max_tokens, filters): at 1024 tokens and 64 filters that is 32 MiB
# per convolution, where an unchecked value from a checkpoint could ask for TiB.
MAX_TOKENS = 1024
CLASSES = len(SentimentLabel)
# Adam's moment decay rates and denominator guard (Kingma & Ba, arXiv:1412.6980)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def _is_int(value) -> bool:
    """An int that is not a bool (JSON true would otherwise count as 1)."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class ModelConfig:
    embed_dim: int
    max_tokens: int = 30
    conv_layers: tuple = ((64, 3), (64, 3), (64, 3))  # (filters, kernel_width)
    pool: int = 2
    lstm_hidden: int = 64
    dense_sizes: tuple = (128, 64)
    dropout_lstm: float = 0.5
    dropout_dense: float = 0.5
    seed: int = 0
    batch_size: int = 16
    learning_rate: float = 1e-4
    fine_tune_embeddings: bool = False

    def __post_init__(self):
        self.conv_layers = tuple(tuple(c) for c in self.conv_layers)
        self.dense_sizes = tuple(self.dense_sizes)
        if len(self.conv_layers) != 3:
            raise ValueError("expected exactly 3 conv layers")
        if len(self.dense_sizes) != 2:
            raise ValueError("expected exactly 2 dense layers")
        if any(len(c) != 2 for c in self.conv_layers):
            raise ValueError("each conv layer must be a (filters, kernel_width) pair")
        sizes = {"embed_dim": self.embed_dim,
                 **{f"conv_layers[{i}] {part}": size
                    for i, conv in enumerate(self.conv_layers)
                    for part, size in zip(("filters", "kernel width"), conv)},
                 "pool": self.pool, "lstm_hidden": self.lstm_hidden,
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
        for i, (_, kernel) in enumerate(self.conv_layers):
            if kernel > self.max_tokens:
                raise ValueError(
                    f"conv_layers[{i}] kernel width {kernel} outside [1, {self.max_tokens}]"
                )
        for p in (self.dropout_lstm, self.dropout_dense):
            if not 0.0 <= p < 1.0:
                raise ValueError("dropout must be in [0, 1)")
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ValueError(f"learning_rate {self.learning_rate!r} must be finite and > 0")


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
    for li, (filters, kernel) in enumerate(config.conv_layers):
        shapes[f"conv{li}_w"] = (filters, kernel, cin)
        shapes[f"conv{li}_b"] = (filters,)
        cin = filters
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


def _flat(shapes: dict[str, tuple[int, ...]]) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """A zeroed float64 vector and its consecutive views, one per shape, in order."""
    buffer = np.zeros(sum(math.prod(shape) for shape in shapes.values()))
    views, offset = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = buffer[offset:offset + size].reshape(shape)
        offset += size
    return buffer, views


class SentimentNet:
    """Parameter container plus forward/backward/update for the classifier."""

    def __init__(self, config: ModelConfig, embeddings: EmbeddingMatrix):
        if embeddings.dim != config.embed_dim:
            raise ValueError(
                f"embedding dim {embeddings.dim} != config.embed_dim {config.embed_dim}"
            )
        self.config = config
        self.token_to_id = {
            tok: i + 2 for i, tok in enumerate(embeddings.vocab.id_to_token)
        }
        self.id_to_token = list(embeddings.vocab.id_to_token)
        rng = np.random.default_rng(config.seed)
        shapes = param_shapes(config, len(self.id_to_token))
        layout = _layout(shapes)
        self.flat, views = _flat(layout)
        self.params = {name: views[name] for name in shapes}  # in the draw order
        for name, p in self.params.items():
            if name == "embedding":  # rows 0/1 are pad and OOV, kept at zero init
                p[2:] = embeddings.vectors
            elif p.ndim > 1:
                # conv (filters, kernel, in) sees kernel*in inputs; a matrix sees its rows
                fan_in = math.prod(p.shape[1:]) if name.startswith("conv") else p.shape[0]
                bound = 1.0 / np.sqrt(fan_in)
                p[...] = rng.uniform(-bound, bound, size=p.shape)

        if not config.fine_tune_embeddings:
            del layout["embedding"]
        self.grad, self._grads = _flat(layout)
        self.adam_m = np.zeros_like(self.grad)
        self.adam_v = np.zeros_like(self.grad)
        self._adam_scratch = (np.empty_like(self.grad), np.empty_like(self.grad))
        self.adam_t = 0

    # ----- helpers ---------------------------------------------------------

    def num_parameters(self) -> int:
        return self.flat.size

    def encode_tokens(self, tokens: list[str]) -> list[int]:
        return [self.token_to_id.get(t, OOV_ID) for t in tokens]

    def make_batch(self, token_lists, labels=None) -> Batch:
        t = self.config.max_tokens
        ids = np.full((len(token_lists), t), PAD_ID, dtype=np.int64)
        lengths = np.zeros(len(token_lists), dtype=np.int64)
        for i, toks in enumerate(token_lists):
            if not toks:
                raise ValueError(f"row {i}: empty token list")
            enc = self.encode_tokens(toks)[:t]
            ids[i, : len(enc)] = enc
            lengths[i] = len(enc)
        one_hot = None
        if labels is not None:
            one_hot = np.zeros((len(token_lists), CLASSES))
            one_hot[np.arange(len(token_lists)), np.asarray(labels, dtype=int)] = 1.0
        return Batch(ids=ids, lengths=lengths, labels=one_hot)

    # ----- forward ---------------------------------------------------------

    def _conv_forward(self, x, w, b):
        # x (B,T,C), w (F,K,C) -> same-padded (B,T,F)
        bsz, t, c = x.shape
        filters, kernel, _ = w.shape
        pl = (kernel - 1) // 2
        xp = np.zeros((bsz, t + kernel - 1, c))
        xp[:, pl:pl + t, :] = x
        # the im2col window matrix: row (b, t), column (c, k) holds xp[b, t + k, c]
        cols = np.lib.stride_tricks.sliding_window_view(xp, kernel, axis=1).reshape(
            bsz * t, c * kernel)
        z = (cols @ w.transpose(2, 1, 0).reshape(c * kernel, filters)).reshape(
            bsz, t, filters) + b
        return z, (cols, pl)

    def _conv_backward(self, dz, w, cache, dw, db):
        """Writes the weight and bias gradients into dw and db; returns dx."""
        cols, pl = cache
        bsz, t, filters = dz.shape
        _, kernel, c = w.shape
        dz2 = dz.reshape(bsz * t, filters)
        # dz2.T is a transposed view, as tensordot passed it: a contiguous copy
        # would change how BLAS sums the product
        dw[...] = (dz2.T @ cols).reshape(filters, c, kernel).transpose(0, 2, 1)
        db[...] = dz.sum(axis=(0, 1))
        dwin = (dz2 @ w.reshape(filters, kernel * c)).reshape(bsz, t, kernel, c)
        dxp = np.zeros((bsz, t + kernel - 1, c))
        for k in range(kernel):
            dxp[:, k:k + t, :] += dwin[:, :, k, :]
        return dxp[:, pl:pl + t, :]

    def _lstm_forward(self, seq, mask, direction: str):
        wx = self.params[f"lstm_{direction}_wx"]
        wh = self.params[f"lstm_{direction}_wh"]
        bias = self.params[f"lstm_{direction}_b"]
        b, t, _ = seq.shape
        hdim = self.config.lstm_hidden
        h = np.zeros((b, hdim))
        c = np.zeros((b, hdim))
        steps = range(t) if direction == "fwd" else range(t - 1, -1, -1)
        keep = 1 - mask
        cache = []
        for ti in steps:
            x = seq[:, ti, :]
            z = x @ wx + h @ wh + bias
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
            cache.append((ti, x, h, c, gates, gg, tc, m, k))
            h = m * h_new + k * h
            c = m * c_new + k * c
        return h, cache

    def _lstm_backward(self, dh_final, cache, direction: str, dseq):
        """Adds into the direction's gradient views, which start at zero."""
        wx = self.params[f"lstm_{direction}_wx"]
        wh = self.params[f"lstm_{direction}_wh"]
        dwx = self._grads[f"lstm_{direction}_wx"]
        dwh = self._grads[f"lstm_{direction}_wh"]
        db = self._grads[f"lstm_{direction}_b"]
        hdim = self.config.lstm_hidden
        di, df, dg, do = (slice(j * hdim, (j + 1) * hdim) for j in range(4))
        dh = dh_final
        dc = np.zeros_like(dh_final)
        dz = np.empty((dh.shape[0], 4 * hdim))
        slope = np.empty_like(dz)
        for ti, x, h_prev, c_prev, gates, gg, tc, m, k in reversed(cache):
            gi, gf, go = gates[:, di], gates[:, df], gates[:, do]
            dh_new = dh * m
            dh_carry = dh * k
            dc_new = dc * m
            dc_carry = dc * k
            dc_new = dc_new + dh_new * go * (1 - tc ** 2)
            # the gate gradients, then times g * (1 - g) for the sigmoid gates and
            # 1 * (1 - gg ** 2) for the tanh one, each product associated as written
            np.multiply(dc_new, gg, out=dz[:, di])
            np.multiply(dc_new, c_prev, out=dz[:, df])
            np.multiply(dc_new, gi, out=dz[:, dg])
            np.multiply(dh_new, tc, out=dz[:, do])
            dc_prev = dc_new * gf + dc_carry
            np.subtract(1, gates, out=slope)
            np.subtract(1, gg ** 2, out=slope[:, dg])
            dz *= gates
            dz *= slope
            dwx += x.T @ dz
            dwh += h_prev.T @ dz
            db += dz.sum(axis=0)
            dseq[:, ti, :] += dz @ wx.T
            dh = dz @ wh.T + dh_carry
            dc = dc_prev

    def forward(self, batch: Batch, rng=None):
        """Returns (probabilities, cache); dropout draws from `rng` when one is given."""
        cfg = self.config
        p = self.params
        emb = p["embedding"]
        pad_mask = (batch.ids != PAD_ID)[:, :, None].astype(np.float64)
        x = emb[batch.ids] * pad_mask  # pad positions are zero vectors by contract
        lengths = np.minimum(batch.lengths, cfg.max_tokens).astype(np.int64)
        cache: dict = {"ids": batch.ids, "convs": [], "pools": []}

        for li in range(len(cfg.conv_layers)):
            z, conv_cache = self._conv_forward(x, p[f"conv{li}_w"], p[f"conv{li}_b"])
            _check_finite(z, f"conv{li}")
            a = np.maximum(z, 0.0)
            cache["convs"].append((conv_cache, z))
            t = a.shape[1]
            if t >= cfg.pool:
                tp = t // cfg.pool
                trimmed = a[:, : tp * cfg.pool, :].reshape(
                    a.shape[0], tp, cfg.pool, a.shape[2]
                )
                # a running max over the window's offsets; the strict > keeps the
                # first maximum, as argmax does. idx is the winning offset, and
                # pool <= t <= MAX_TOKENS fits int16.
                pooled = trimmed[:, :, 0, :].copy()
                idx = np.zeros(pooled.shape, dtype=np.int16)
                for j in range(1, cfg.pool):
                    later = trimmed[:, :, j, :]
                    wins = later > pooled
                    np.copyto(pooled, later, where=wins)
                    np.copyto(idx, j, where=wins)
                cache["pools"].append((t, tp, idx))
                x = pooled
                lengths = np.minimum(tp, (lengths - 1) // cfg.pool + 1)
            else:
                cache["pools"].append(None)
                x = a

        b, t3, _ = x.shape
        mask = (np.arange(t3)[None, :] < lengths[:, None]).astype(np.float64)
        cache["seq"] = x
        cache["mask"] = mask
        h_fwd, cache_fwd = self._lstm_forward(x, mask, "fwd")
        h_bwd, cache_bwd = self._lstm_forward(x, mask, "bwd")
        cache["lstm_fwd"] = cache_fwd
        cache["lstm_bwd"] = cache_bwd
        hcat = np.concatenate([h_fwd, h_bwd], axis=1)
        _check_finite(hcat, "bilstm")

        def dropout_mask(shape, rate):
            if rng is None or rate == 0.0:
                return np.ones(shape)
            return (rng.random(shape) >= rate) / (1.0 - rate)

        m0 = dropout_mask(hcat.shape, cfg.dropout_lstm)
        a0 = hcat * m0
        z1 = a0 @ p["dense1_w"] + p["dense1_b"]
        a1 = _sigmoid(z1)
        m1 = dropout_mask(a1.shape, cfg.dropout_dense)
        a1d = a1 * m1
        z2 = a1d @ p["dense2_w"] + p["dense2_b"]
        a2 = _sigmoid(z2)
        logits = a2 @ p["out_w"] + p["out_b"]
        _check_finite(logits, "output")
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=1, keepdims=True)

        cache.update(hcat=hcat, m0=m0, a0=a0, a1=a1, m1=m1, a1d=a1d,
                     a2=a2, probs=probs)
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
        self.grad.fill(0.0)  # the LSTM and embedding gradients accumulate

        dlogits = (cache["probs"] - labels) / b
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
        dseq = np.zeros_like(cache["seq"])
        # each dseq cell gets one term per direction, so their order is exact
        for direction, sl in (("bwd", slice(hdim, None)), ("fwd", slice(0, hdim))):
            self._lstm_backward(dhcat[:, sl], cache[f"lstm_{direction}"], direction, dseq)

        dx = dseq
        for li in range(len(cfg.conv_layers) - 1, -1, -1):
            pool = cache["pools"][li]
            conv_cache, z = cache["convs"][li]
            if pool is not None:
                t, tp, idx = pool
                da = np.zeros((dx.shape[0], t, dx.shape[2]))
                dtr = da[:, : tp * cfg.pool, :].reshape(
                    dx.shape[0], tp, cfg.pool, dx.shape[2]
                )
                # dtr is a view of da: splitting an axis never copies
                for j in range(cfg.pool):
                    np.copyto(dtr[:, :, j, :], dx, where=idx == j)
            else:
                da = dx
            dz = da * (z > 0)
            dx = self._conv_backward(dz, p[f"conv{li}_w"], conv_cache,
                                     g[f"conv{li}_w"], g[f"conv{li}_b"])

        # a frozen embedding is outside grad and gets no gradient; PAD
        # positions scatter into row PAD_ID, which is zeroed after
        if cfg.fine_tune_embeddings:
            demb = g["embedding"]
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
        epochs: int,
        val_split: float = 0.1,
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
            probs, _ = self.forward(part)
            total += self.loss(probs, part.labels) * len(part.ids)
            correct += int((probs.argmax(1) == part.labels.argmax(1)).sum())
        return total / n, correct / n

    # ----- inference -------------------------------------------------------

    def predict_many(self, token_lists) -> tuple[np.ndarray, np.ndarray]:
        """Labels (N,) and mean chunk probabilities (N, 5) of N comments.

        Each comment is cut into max_tokens chunks. The chunks of all comments,
        in order, go through forwards of at most PREDICT_ROWS rows, and each
        comment's row is the mean of its chunks' rows. The label is the row's
        argmax, so ties go to the lower class code.
        """
        t = self.config.max_tokens
        chunks: list[list[str]] = []
        owners: list[int] = []
        for i, tokens in enumerate(token_lists):
            if not tokens:
                raise ValueError(f"comment {i}: empty token list")
            for start in range(0, len(tokens), t):
                chunks.append(tokens[start:start + t])
                owners.append(i)
        owner = np.asarray(owners, dtype=np.int64)
        sums = np.zeros((len(token_lists), CLASSES))
        for start in range(0, len(chunks), PREDICT_ROWS):
            probs, _ = self.forward(self.make_batch(chunks[start:start + PREDICT_ROWS]))
            np.add.at(sums, owner[start:start + PREDICT_ROWS], probs)
        means = sums / np.bincount(owner, minlength=len(token_lists))[:, None]
        return means.argmax(axis=1), means

    def predict_tokens(self, tokens: list[str]) -> tuple[SentimentLabel, np.ndarray]:
        """Label and mean chunk probabilities of one comment."""
        labels, means = self.predict_many([tokens])
        return SentimentLabel(int(labels[0])), means[0]

    def evaluate(
        self, data: list[tuple[list[str], int]]
    ) -> tuple[float, ConfusionMatrix]:
        if not data:
            raise ValueError("empty test set")
        predicted, _ = self.predict_many([tokens for tokens, _ in data])
        actual = np.array([int(label) for _, label in data])
        cm = confusion(
            predicted, actual, CLASSES,
            [lbl.name for lbl in SentimentLabel],
        )
        return int((predicted == actual).sum()) / len(data), cm

    # ----- persistence -----------------------------------------------------

    def save(self, path) -> None:
        """Write the checkpoint atomically (`atomic_write`)."""
        names = sorted(self.params)
        meta = {
            "config": {
                **{k: CLASSES if k == "classes" else getattr(self.config, k) for k in (
                    "embed_dim", "max_tokens", "pool", "lstm_hidden",
                    "dropout_lstm", "dropout_dense", "classes", "seed",
                    "batch_size", "learning_rate", "fine_tune_embeddings",
                )},
                "conv_layers": [list(c) for c in self.config.conv_layers],
                "dense_sizes": list(self.config.dense_sizes),
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
            config = ModelConfig(**stored_config)
            vocab = Vocabulary.from_tokens(meta["id_to_token"])
            shapes = param_shapes(config, len(vocab))
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
        embedding = EmbeddingMatrix(config.embed_dim, vocab, tensors["embedding"][2:])
        model = cls(config, embedding)
        for name, data in tensors.items():
            model.params[name][...] = data
        return model
