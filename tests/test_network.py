"""Forward/backward correctness, optimization and persistence of the classifier."""

import copy
import dataclasses
import hashlib
import json
import re
import struct
import tracemalloc

import numpy as np
import pytest

from flamewatch import data_path, network
from flamewatch.embeddings import (EmbedConfig, EmbeddingMatrix, SubwordConfig, Vocabulary,
                                   train_word2vec)
from flamewatch.fixtures import flaming_comments, synthetic_comments
from flamewatch.lexicon import SentimentLabel, label_corpus, load_emoji_table, load_lexicon
from flamewatch.network import (
    CONV_LAYERS,
    MAX_PARAMETERS,
    MAX_TOKENS,
    OOV_ID,
    PAD_ID,
    POOL,
    PREDICT_ROWS,
    ModelConfig,
    NonFiniteError,
    SentimentNet,
    param_shapes,
)
from flamewatch.preprocess import RawComment, build_corpus, load_jsonl

TOKENS = [f"w{i}" for i in range(10)]


def make_embeddings(dim=8, seed=0, scale=0.1):
    rng = np.random.default_rng(seed)
    vocab = Vocabulary(
        token_to_id={t: i for i, t in enumerate(TOKENS)},
        id_to_token=list(TOKENS),
        counts=np.ones(len(TOKENS), dtype=np.int64),
    )
    return EmbeddingMatrix(
        dim=dim, vocab=vocab, vectors=rng.normal(0, scale, (len(TOKENS), dim))
    )


def toy_config(**overrides):
    base = dict(
        embed_dim=8, max_tokens=12, filters=4, kernel=3,
        lstm_hidden=8, dense_sizes=(16, 8), dropout_lstm=0.0,
        dropout_dense=0.0, seed=1, fine_tune_embeddings=True,
    )
    base.update(overrides)
    return ModelConfig(**base)


def toy_model(dtype=np.float64, **overrides):
    """A toy network, float64 unless `dtype` says otherwise: the exact
    identities and finite differences below need double precision, and the
    float64 network runs the same code as the float32 one that trains."""
    return SentimentNet(toy_config(**overrides), make_embeddings(), dtype=dtype)


def toy_batch(model, rows=4, seed=0, max_len=11):
    rng = np.random.default_rng(seed)
    token_lists = [
        [TOKENS[int(i)] for i in rng.integers(0, len(TOKENS),
                                              size=int(rng.integers(1, max_len + 1)))]
        for _ in range(rows)
    ]
    labels = [int(rng.integers(0, 5)) for _ in range(rows)]
    return model.make_batch(token_lists, labels), token_lists, labels


def randomize_params(model, seed=0, scale=0.2):
    """Move every parameter to a generic point away from ReLU/pooling ties."""
    rng = np.random.default_rng(seed)
    for k in model.params:
        model.params[k][...] = rng.normal(0, scale, model.params[k].shape)
    model.params["embedding"][PAD_ID] = 0.0


# ----- independent scalar reference ----------------------------------------


def _ref_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60, 60)))


def reference_forward(model, batch):
    """Plain-loop recomputation of the full forward pass, one example and one
    position at a time, sharing nothing with the vectorized implementation."""
    cfg = model.config
    p = model.params
    n, t = batch.ids.shape
    out = np.zeros((n, len(SentimentLabel)))
    for bi in range(n):
        x = []
        for ti in range(t):
            tok = int(batch.ids[bi, ti])
            x.append(np.zeros(cfg.embed_dim) if tok == PAD_ID
                     else np.array(p["embedding"][tok]))
        length = min(int(batch.lengths[bi]), cfg.max_tokens)

        for li in range(CONV_LAYERS):
            w = p[f"conv{li}_w"]
            bias = p[f"conv{li}_b"]
            pl = (cfg.kernel - 1) // 2
            cur = len(x)
            activated = []
            for ti in range(cur):
                row = np.zeros(cfg.filters)
                for f in range(cfg.filters):
                    s = bias[f]
                    for k in range(cfg.kernel):
                        src = ti - pl + k
                        if 0 <= src < cur:
                            for c in range(len(x[src])):
                                s += w[f, k, c] * x[src][c]
                    row[f] = max(s, 0.0)
                activated.append(row)
            if cur >= POOL:
                tp = cur // POOL
                pooled = []
                for ti in range(tp):
                    window = activated[ti * POOL:(ti + 1) * POOL]
                    pooled.append(np.maximum.reduce(window))
                x = pooled
                length = min(tp, (length - 1) // POOL + 1)
            else:
                x = activated

        def lstm(seq, direction):
            wx = p[f"lstm_{direction}_wx"]
            wh = p[f"lstm_{direction}_wh"]
            b = p[f"lstm_{direction}_b"]
            h = np.zeros(cfg.lstm_hidden)
            c = np.zeros(cfg.lstm_hidden)
            order = range(len(seq)) if direction == "fwd" else reversed(range(len(seq)))
            for ti in order:
                if ti >= length:
                    continue
                z = seq[ti] @ wx + h @ wh + b
                zi, zf, zg, zo = np.split(z, 4)
                gi, gf, go = _ref_sigmoid(zi), _ref_sigmoid(zf), _ref_sigmoid(zo)
                gg = np.tanh(zg)
                c = gf * c + gi * gg
                h = go * np.tanh(c)
            return h

        h = np.concatenate([lstm(x, "fwd"), lstm(x, "bwd")])
        a1 = _ref_sigmoid(h @ p["dense1_w"] + p["dense1_b"])
        a2 = _ref_sigmoid(a1 @ p["dense2_w"] + p["dense2_b"])
        logits = a2 @ p["out_w"] + p["out_b"]
        e = np.exp(logits - logits.max())
        out[bi] = e / e.sum()
    return out


# Layer shapes beside the toy default of kernel width 3 and max_tokens 12: even
# kernel widths pad one more step on the right than on the left; max_tokens 7
# (7, 3, 1 steps) and 13 (13, 6, 3) leave a trimmed tail at the pooling layers;
# and the last layer at 7 tokens, and every layer after the first at 3 tokens,
# sees fewer than POOL steps and passes them unpooled.
SHAPE_CASES = {
    "kernel_2_tokens_7": dict(kernel=2, max_tokens=7),
    "kernel_4_tokens_13": dict(kernel=4, max_tokens=13),
    "kernel_1_tokens_3": dict(kernel=1, max_tokens=3),
}


# ----- construction ---------------------------------------------------------


class TestConstruction:
    def test_parameter_count_matches_shape_algebra(self):
        model = toy_model()
        d, f, k, h, d1, d2, cls = 8, 4, 3, 8, 16, 8, 5
        vocab_rows = len(TOKENS) + 2
        expected = vocab_rows * d
        cin = d
        for _ in range(3):
            expected += f * k * cin + f
            cin = f
        for _ in ("fwd", "bwd"):
            expected += cin * 4 * h + h * 4 * h + 4 * h
        expected += 2 * h * d1 + d1 + d1 * d2 + d2 + d2 * cls + cls
        assert model.num_parameters() == expected

    def test_pad_and_oov_rows_start_zero(self):
        model = toy_model()
        assert (model.params["embedding"][PAD_ID] == 0).all()
        assert (model.params["embedding"][OOV_ID] == 0).all()

    def test_embedding_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SentimentNet(toy_config(embed_dim=4), make_embeddings(dim=8))

    def test_repeated_token_refused(self):
        # a checkpoint of such a vocabulary would be written, then refused by load
        config = ModelConfig(embed_dim=2, filters=2, lstm_hidden=2, dense_sizes=(2, 2))
        vocab = Vocabulary.from_tokens(["b", "a", "c", "a"])
        with pytest.raises(ValueError, match="^vocabulary repeats token 'a'$"):
            SentimentNet(config, EmbeddingMatrix(2, vocab, np.zeros((4, 2))))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            toy_config(dense_sizes=(16,))
        with pytest.raises(ValueError):
            toy_config(dropout_dense=1.0)
        with pytest.raises(ValueError):
            toy_config(kernel=99)
        for kernel in (0, -1, 2.0):
            with pytest.raises(ValueError, match="^kernel width .* must be an integer >= 1"):
                toy_config(kernel=kernel)

    @pytest.mark.parametrize("overrides, message", [
        (dict(seed=3.0), "seed 3.0 must be an integer >= 0"),
        (dict(seed=-1), "seed -1 must be an integer >= 0"),
        (dict(embed_dim=8.0), "embed_dim 8.0 must be an integer >= 1"),
        (dict(filters=4.0), "filters 4.0 must be an integer >= 1"),
        (dict(filters=0), "filters 0 must be an integer >= 1"),
        (dict(kernel=3.0), "kernel width 3.0 must be an integer >= 1"),
        (dict(kernel=13), "kernel width 13 outside [1, 12]"),
    ], ids=["seed-float", "seed-negative", "embed-dim-float", "filters-float", "filters-0",
            "kernel-float", "kernel-too-wide"])
    def test_config_names_the_bad_field(self, overrides, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            toy_config(**overrides)

    @pytest.mark.parametrize("overrides, message", [
        (dict(embed_dim=True), "embed_dim True must be an integer >= 1"),
        (dict(filters=True), "filters True must be an integer >= 1"),
        (dict(kernel=True), "kernel width True must be an integer >= 1"),
        (dict(lstm_hidden=True), "lstm_hidden True must be an integer >= 1"),
        (dict(dense_sizes=(16, True)), "dense_sizes[1] True must be an integer >= 1"),
        (dict(batch_size=True), "batch_size True must be an integer >= 1"),
        (dict(max_tokens=True), f"max_tokens True outside [1, {MAX_TOKENS}]"),
        (dict(seed=False), "seed False must be an integer >= 0"),
        (dict(seed=True), "seed True must be an integer >= 0"),
        (dict(fine_tune_embeddings="no"), "fine_tune_embeddings 'no' must be true or false"),
        (dict(fine_tune_embeddings=1), "fine_tune_embeddings 1 must be true or false"),
        (dict(fine_tune_embeddings=None),
         "fine_tune_embeddings None must be true or false"),
        (dict(learning_rate=True), "learning_rate True must be a number in (0, inf)"),
        (dict(dropout_lstm=False), "dropout_lstm False must be a number in [0, 1)"),
        (dict(dropout_dense=False), "dropout_dense False must be a number in [0, 1)"),
    ], ids=["embed-dim", "filters", "kernel", "lstm-hidden", "dense", "batch-size",
            "max-tokens", "seed-false", "seed-true", "fine-tune-str", "fine-tune-int",
            "fine-tune-none", "learning-rate-true", "dropout-lstm-false",
            "dropout-dense-false"])
    def test_config_refuses_bools_as_integers(self, overrides, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            toy_config(**overrides)

    @pytest.mark.parametrize("cls, name", [
        pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
        for cls in (EmbedConfig, SubwordConfig, ModelConfig)
        for f in dataclasses.fields(cls) if f.type == "int"
    ])
    @pytest.mark.parametrize("value", [True, 2.5])
    def test_int_field_refuses_bool_and_float(self, cls, name, value):
        required = {"embed_dim": 8} if cls is ModelConfig else {}
        # ModelConfig names its kernel "kernel width"
        with pytest.raises(ValueError, match=rf"^{name}( width)? {value!r} "):
            cls(**{**required, name: value})

    @pytest.mark.parametrize("max_tokens", [0, MAX_TOKENS + 1, 2 ** 40, 12.0, "12"])
    def test_max_tokens_bounded(self, max_tokens):
        with pytest.raises(ValueError, match="^max_tokens .* outside"):
            toy_config(max_tokens=max_tokens)
        assert toy_config(max_tokens=MAX_TOKENS).max_tokens == MAX_TOKENS

    @pytest.mark.parametrize("overrides, field, largest", [
        (dict(filters=10 ** 9), "filters", "conv1_w (1000000000, 3, 1000000000)"),
        (dict(lstm_hidden=10 ** 8), "lstm_hidden", "lstm_fwd_wh (100000000, 400000000)"),
        (dict(dense_sizes=(10 ** 9, 4)), "dense_sizes[0]", "dense1_w (16, 1000000000)"),
        (dict(dense_sizes=(16, 10 ** 9)), "dense_sizes[1]", "dense2_w (16, 1000000000)"),
        # 4 * lstm_hidden is as long as filters, and conv1_w has no lstm_hidden axis
        (dict(filters=4096, lstm_hidden=1024), "filters", "conv1_w (4096, 3, 4096)"),
    ], ids=["filters", "lstm-hidden", "dense-0", "dense-1", "filters-as-long-as-4-lstm-hidden"])
    def test_size_budget_names_the_field(self, overrides, field, largest):
        config = toy_config(**overrides)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=(
                    rf"^\d+ parameters besides the embedding exceed MAX_PARAMETERS "
                    rf"{MAX_PARAMETERS}; the largest tensor, {re.escape(largest)}, "
                    rf"is sized by {re.escape(field)}$")):
                SentimentNet(config, make_embeddings())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_size_budget_boundary(self, monkeypatch):
        model = toy_model()
        size = model.num_parameters() - model.params["embedding"].size
        monkeypatch.setattr(network, "MAX_PARAMETERS", size)
        toy_model()
        monkeypatch.setattr(network, "MAX_PARAMETERS", size - 1)
        with pytest.raises(ValueError, match=f"^{size} parameters besides the embedding"):
            toy_model()
        # the default config is far inside the real budget
        shapes = param_shapes(ModelConfig(embed_dim=100), 0)
        assert sum(np.prod(s) for n, s in shapes.items() if n != "embedding") == 135109

    def test_embedding_frozen_by_default(self):
        model = SentimentNet(toy_config(fine_tune_embeddings=False),
                             make_embeddings())
        # the embedding is last in flat and outside the trainable prefix
        assert model.grad.size == model.flat.size - model.params["embedding"].size
        assert np.shares_memory(model.params["embedding"], model.flat[model.grad.size:])

    def test_make_batch_rejects_empty_row(self):
        # one message for training batches and for inference
        model = toy_model()
        with pytest.raises(ValueError, match="^comment 1: empty token list$"):
            model.make_batch([["w0"], []])
        with pytest.raises(ValueError, match="^comment 1: empty token list$"):
            model.predict_many([["w0"], []])

    def test_unknown_token_maps_to_oov(self):
        model = toy_model()
        batch = model.make_batch([["w0", "zzz"]])
        assert batch.ids.tolist() == [[2, OOV_ID] + [PAD_ID] * 10]
        assert batch.lengths.tolist() == [2]

    def test_make_batch_rows_are_the_first_chunks_predict_sees(self):
        model = toy_model()
        rng = np.random.default_rng(3)
        token_lists = [[TOKENS[int(i)] for i in rng.integers(0, len(TOKENS), size=n)]
                       + ["zzz"] * int(n % 3 == 0) for n in (1, 5, 11, 12, 13, 30, 2)]
        seen = []
        forward = model.forward
        model.forward = lambda batch, rng=None, infer=False: (
            seen.append(batch) or forward(batch, rng, infer=infer))
        model.predict_many(token_lists)
        batch = model.make_batch(token_lists)
        t = model.config.max_tokens
        firsts = np.cumsum([0] + [-(-len(toks) // t) for toks in token_lists])[:-1]
        assert (seen[0].ids[firsts] == batch.ids).all()
        assert (seen[0].lengths[firsts] == batch.lengths).all()
        assert batch.lengths.tolist() == [min(len(toks), t) for toks in token_lists]


# ----- forward --------------------------------------------------------------


def check_layer_dtypes(monkeypatch, model, dtype):
    """Every layer of an inference and of a training forward, the gradient and
    the Adam state of `model` are `dtype`; the logits are float64."""
    seen = []
    check = network._check_finite

    def spy(x, where):
        seen.append((where, x.dtype))
        check(x, where)

    monkeypatch.setattr(network, "_check_finite", spy)
    batch, _, _ = toy_batch(model, rows=3)
    want, f64 = np.dtype(dtype), np.dtype(np.float64)
    layers = [("conv0", want), ("conv1", want), ("conv2", want), ("bilstm", want),
              ("output", f64)]
    model.forward(batch, infer=True)
    assert seen == layers
    seen.clear()
    _, cache = model.forward(batch, rng=np.random.default_rng(0))
    assert seen == layers
    grads = model.backward(cache, batch.labels)
    assert {g.dtype for g in grads.values()} == {want}
    model.adam_step()
    assert {a.dtype for a in (model.flat, model.grad, model.adam_m, model.adam_v,
                              *model._adam_scratch)} == {want}


class TestForward:
    def test_softmax_rows_sum_to_one(self):
        model = toy_model()
        batch, _, _ = toy_batch(model, rows=6)
        probs, _ = model.forward(batch)
        assert probs.sum(axis=1) == pytest.approx(np.ones(6), abs=1e-12)
        assert (probs > 0).all() and (probs < 1).all()

    def test_matches_scalar_reference_on_random_batches(self):
        model = toy_model()
        randomize_params(model, seed=3)
        for seed in range(3):
            batch, _, _ = toy_batch(model, rows=4, seed=seed)
            probs, _ = model.forward(batch)
            assert probs == pytest.approx(reference_forward(model, batch),
                                          abs=1e-9)

    @pytest.mark.parametrize("case", sorted(SHAPE_CASES))
    def test_matches_scalar_reference_at_other_shapes(self, case):
        model = toy_model(**SHAPE_CASES[case])
        randomize_params(model, seed=3)
        # rows up to two tokens past max_tokens, so the trimmed tail can hold tokens
        batch, _, _ = toy_batch(model, rows=4, seed=0, max_len=model.config.max_tokens + 2)
        probs, _ = model.forward(batch)
        assert probs == pytest.approx(reference_forward(model, batch), abs=1e-9)

    @pytest.mark.parametrize("case", ["toy", *sorted(SHAPE_CASES)])
    def test_inference_matches_scalar_reference(self, case):
        model = toy_model(np.float32, **SHAPE_CASES.get(case, {}))
        randomize_params(model, seed=3)
        batch, _, _ = toy_batch(model, rows=4, seed=0, max_len=model.config.max_tokens + 2)
        probs, cache = model.forward(batch, infer=True)
        assert cache is None
        # float32 activations; the largest difference seen over these cases and
        # seeds 0-4 was 2.1e-8
        assert np.abs(probs - reference_forward(model, batch)).max() <= 1e-6
        assert probs.dtype == np.float64
        assert probs.sum(axis=1) == pytest.approx(np.ones(4), abs=1e-12)

    def test_inference_computes_in_float32(self, monkeypatch):
        # training too, and by default; one float64 temporary would promote
        # every later layer to float64
        config = toy_config(dropout_lstm=0.5, dropout_dense=0.5)
        check_layer_dtypes(monkeypatch, SentimentNet(config, make_embeddings()), np.float32)

    def test_float64_network_stays_float64(self, monkeypatch):
        # so the gradient checks test the code that trains
        model = toy_model(np.float64, dropout_lstm=0.5, dropout_dense=0.5)
        check_layer_dtypes(monkeypatch, model, np.float64)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_inference_equals_forward_without_rng(self, dtype):
        # dropout is configured, but a forward without rng draws none
        model = toy_model(dtype, dropout_lstm=0.5, dropout_dense=0.5)
        randomize_params(model, seed=3)
        batch, _, _ = toy_batch(model, rows=5, seed=2)
        inferred, cache = model.forward(batch, infer=True)
        assert cache is None
        trained, cache = model.forward(batch)
        assert cache is not None
        assert inferred.tobytes() == trained.tobytes()

    def test_padding_does_not_change_output(self):
        # same tokens, different amount of right padding -> same probabilities
        model = toy_model()
        randomize_params(model, seed=4)
        short = model.make_batch([["w1", "w2", "w3"]])
        probs_short, _ = model.forward(short)
        alone = model.make_batch([["w1", "w2", "w3"], ["w4"] * 11])
        probs_both, _ = model.forward(alone)
        assert probs_both[0] == pytest.approx(probs_short[0], abs=1e-12)

    def test_dropout_off_at_inference(self):
        model = SentimentNet(
            toy_config(dropout_lstm=0.5, dropout_dense=0.5), make_embeddings()
        )
        batch, _, _ = toy_batch(model)
        a, _ = model.forward(batch)
        b, _ = model.forward(batch)
        assert (a == b).all()

    def test_nonfinite_parameters_reported_by_tensor(self):
        model = toy_model()
        model.params["out_w"][0, 0] = np.nan
        batch, _, _ = toy_batch(model)
        with pytest.raises(NonFiniteError, match="output"):
            model.forward(batch)


class TestLoss:
    def test_uniform_probs_anchor(self):
        probs = np.full((4, 5), 0.2)
        labels = np.eye(5)[[0, 1, 2, 3]]
        assert SentimentNet.loss(probs, labels) == pytest.approx(np.log(5))

    def test_matches_scalar_recomputation(self):
        rng = np.random.default_rng(0)
        raw = rng.random((6, 5))
        probs = raw / raw.sum(axis=1, keepdims=True)
        labels = np.eye(5)[rng.integers(0, 5, size=6)]
        expected = np.mean([
            -np.log(probs[i, labels[i].argmax()]) for i in range(6)
        ])
        assert SentimentNet.loss(probs, labels) == pytest.approx(expected)

    def test_perfect_prediction_near_zero_loss(self):
        labels = np.eye(5)[[2]]
        probs = labels.copy()
        assert SentimentNet.loss(probs, labels) == pytest.approx(0.0, abs=1e-10)


# ----- gradients ------------------------------------------------------------


def worst_fd_error(model, batch, per_tensor=None, seed=0):
    """The largest relative gap between backward's gradient and a central finite
    difference, over every parameter or over `per_tensor` seeded indices of each."""
    _, cache = model.forward(batch)
    grads = model.backward(cache, batch.labels)

    def loss_at_current_params():
        probs, _ = model.forward(batch)
        return model.loss(probs, batch.labels)

    rng = np.random.default_rng(seed)
    eps = 1e-4
    worst = 0.0
    for key, grad in grads.items():
        param = model.params[key]
        indices = list(np.ndindex(param.shape))
        if per_tensor is not None and len(indices) > per_tensor:
            indices = [indices[i] for i in rng.choice(len(indices), per_tensor,
                                                      replace=False)]
        for idx in indices:
            keep = param[idx]
            param[idx] = keep + eps
            up = loss_at_current_params()
            param[idx] = keep - eps
            down = loss_at_current_params()
            param[idx] = keep
            fd = (up - down) / (2 * eps)
            rel = abs(fd - grad[idx]) / max(abs(fd), abs(grad[idx]), 1e-6)
            worst = max(worst, rel)
    return worst


class TestGradients:
    def test_finite_difference_check(self):
        model = toy_model()
        randomize_params(model, seed=0)
        batch, _, _ = toy_batch(model, rows=4, seed=1)
        assert worst_fd_error(model, batch) <= 1e-4

    @pytest.mark.parametrize("case", sorted(SHAPE_CASES))
    def test_finite_difference_check_at_other_shapes(self, case):
        model = toy_model(**SHAPE_CASES[case])
        randomize_params(model, seed=0)
        # rows that fill max_tokens
        batch, _, _ = toy_batch(model, rows=4, seed=2, max_len=model.config.max_tokens + 2)
        assert worst_fd_error(model, batch, per_tensor=6, seed=2) <= 1e-4

    @pytest.mark.parametrize("pool, max_tokens", [(POOL, 12), (POOL, 13)])
    def test_pooling_tie_sends_gradient_to_first_slot(self, pool, max_tokens):
        # a zero conv0 kernel and a positive bias give the same activation at
        # every step, so every pooling window of conv0 is a tie; at 13 tokens
        # the last step is trimmed and gets no gradient either
        model = toy_model(max_tokens=max_tokens)
        randomize_params(model, seed=6)
        model.params["conv0_w"][...] = 0.0
        model.params["conv0_b"][...] = 0.5
        batch, _, _ = toy_batch(model, rows=4, seed=3)
        _, cache = model.forward(batch)
        seen = []
        conv_backward = model._conv_backward

        def record(dz, *args):
            seen.append(dz.copy())
            return conv_backward(dz, *args)

        model._conv_backward = record
        model.backward(cache, batch.labels)
        dz0 = seen[-1]  # backward runs the conv layers last to first
        steps = np.arange(max_tokens)
        winners = (steps % pool == 0) & (steps < max_tokens // pool * pool)
        assert not dz0[:, ~winners, :].any()
        assert dz0[:, winners, :].any()

    def test_pad_row_gradient_zero(self):
        model = toy_model()
        randomize_params(model, seed=1)
        batch, _, _ = toy_batch(model)
        _, cache = model.forward(batch)
        grads = model.backward(cache, batch.labels)
        assert (grads["embedding"][PAD_ID] == 0).all()

    def test_nonfinite_gradient_names_its_tensor(self):
        # NaN in one label cell spoils every gradient; the first one backward
        # writes is the output weight's
        model = toy_model()
        batch, _, _ = toy_batch(model)
        _, cache = model.forward(batch)
        labels = batch.labels.copy()
        labels[0, 0] = np.nan
        with pytest.raises(NonFiniteError, match="^non-finite values in gradient of out_w$"):
            model.backward(cache, labels)

    def test_zero_loss_configuration_small_gradients(self):
        # drive one logit to dominance so the loss is ~0, gradients ~0
        model = toy_model()
        batch = model.make_batch([["w0", "w1"]], [2])
        model.params["out_w"][:] = 0.0
        model.params["out_b"][:] = 0.0
        model.params["out_b"][2] = 60.0
        probs, cache = model.forward(batch)
        assert model.loss(probs, batch.labels) < 1e-8
        grads = model.backward(cache, batch.labels)
        total = sum(float(np.abs(g).sum()) for g in grads.values())
        assert total < 1e-8


class TestAdam:
    def test_first_step_matches_hand_computation(self):
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        model = toy_model(learning_rate=lr)  # fine-tunes, so all of flat is trainable
        before = model.flat.copy()
        rng = np.random.default_rng(0)
        g = rng.normal(0, 1, model.flat.shape)
        model.grad[...] = g
        model.adam_step()
        m_hat = ((1 - b1) * g) / (1 - b1)
        v_hat = ((1 - b2) * g * g) / (1 - b2)
        expected = before - lr * m_hat / (np.sqrt(v_hat) + eps)
        assert model.flat == pytest.approx(expected, abs=1e-12)

    def test_step_allocates_no_gradient_sized_array(self):
        model = toy_model(lstm_hidden=64, dense_sizes=(128, 64))
        model.grad[...] = np.random.default_rng(0).normal(0, 1, model.grad.shape)
        model.adam_step()  # the first step may set up what later steps reuse
        tracemalloc.start()
        try:
            model.adam_step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.grad.nbytes > 2 ** 18
        assert peak < model.grad.nbytes // 64

    def test_zero_gradient_is_noop(self):
        model = toy_model()
        before = copy.deepcopy(model.params)
        model.grad[...] = 0.0
        model.adam_step()
        for key, value in model.params.items():
            assert (value == before[key]).all()

    def test_frozen_embedding_not_updated(self):
        model = SentimentNet(toy_config(fine_tune_embeddings=False),
                             make_embeddings())
        before = copy.deepcopy(model.params)
        model.grad[...] = 1.0
        model.adam_step()
        assert (model.params["embedding"] == before["embedding"]).all()
        assert (model.params["out_w"] != before["out_w"]).all()


# ----- training -------------------------------------------------------------


def separable_dataset(n=40, seed=0):
    rng = np.random.default_rng(seed)
    data = []
    for i in range(n):
        c = i % 5
        toks = [TOKENS[2 * (c % 5) % len(TOKENS)]] * int(rng.integers(2, 6))
        data.append((toks, c))
    return data


class TestTraining:
    def test_deterministic_given_seed(self):
        data = separable_dataset()
        results = []
        for _ in range(2):
            model = toy_model()
            model.train(data, epochs=2, val_split=0.0)
            results.append(copy.deepcopy(model.params))
        for key in results[0]:
            assert (results[0][key] == results[1][key]).all()

    def test_missing_class_raises(self):
        model = toy_model()
        data = [(["w0"], 0), (["w1"], 1)]
        with pytest.raises(ValueError, match="missing"):
            model.train(data, epochs=1, val_split=0.0)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(epochs=True), "epochs True must be an integer >= 1"),
        (dict(epochs=2.0), "epochs 2.0 must be an integer >= 1"),
        (dict(val_split=False), "val_split False must be a number in [0, 1)"),
    ], ids=["epochs-bool", "epochs-float", "val-split-bool"])
    def test_train_refuses_a_bad_setting(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            toy_model().train(separable_dataset(), **kwargs)

    def test_validation_keeps_best_epoch(self):
        model = toy_model()
        data = separable_dataset(n=50)
        report = model.train(data, epochs=3, val_split=0.2)
        assert len(report.val_loss) == 3
        assert report.best_epoch == int(np.argmin(report.val_loss))
        assert report.early_stopped == (report.best_epoch < 2)

    def test_restored_best_epoch_keeps_the_views(self):
        data = separable_dataset(n=50)
        model = toy_model(fine_tune_embeddings=False, learning_rate=1e-2)
        embedding = model.params["embedding"].copy()
        report = model.train(data, epochs=3, val_split=0.2)
        assert report.early_stopped and report.best_epoch == 0
        # epoch 0 of that run is a whole one-epoch run of a twin model
        twin = toy_model(fine_tune_embeddings=False, learning_rate=1e-2)
        twin.train(data, epochs=1, val_split=0.2)
        assert (model.flat == twin.flat).all()
        for value in model.params.values():
            assert np.shares_memory(value, model.flat)
        assert model.params["embedding"].tobytes() == embedding.tobytes()
        before = copy.deepcopy(model.params)
        model.grad[...] = 1.0
        model.adam_step()
        assert (model.params["out_w"] != before["out_w"]).all()
        assert (model.params["conv0_w"] != before["conv0_w"]).all()

    def test_loss_decreases_early(self):
        model = toy_model(batch_size=4)
        data = separable_dataset(n=40)
        report = model.train(data, epochs=3, val_split=0.0)
        # allow one non-decrease, per the training contract
        increases = sum(
            1 for a, b in zip(report.train_loss, report.train_loss[1:]) if b >= a
        )
        assert increases <= 1


def random_dataset(n, seed, max_len=30):
    """n seeded comments of 1 to max_len tokens, labels cycling through the classes."""
    rng = np.random.default_rng(seed)
    return [([TOKENS[int(i)] for i in rng.integers(0, len(TOKENS),
                                                   size=int(rng.integers(1, max_len + 1)))],
             k % 5) for k in range(n)]


# SHA-256 of the bytes of the float32 `flat`, `adam_m` and `adam_v` and of the
# float64 predict_many probabilities after the seeded float32 training runs below
# (numpy on x86-64 with OpenBLAS, the same caveat as the checkpoint pins in
# test_cli.py). A checkpoint holds only `flat`, so it can hide drift in the Adam
# moments that these cannot.
TRAINED_STATE_SHA256 = {
    "fine_tune": {
        "flat": "f82ab3bafe92c788300a2ffc74a70d6de26bbfc6361ce1a785d52907c25c5718",
        "adam_m": "26e0fa80156ca1af0d728e0c1b89b8f915f8871fc317cf6646934a6a84eab96c",
        "adam_v": "5b91c88bdc49a4e4cf88b05bae58a4230c57d9a75f3ab1d24cc3b1d8b8147d2d",
        "probs": "6df36ffb714e8232be41838f2543ff05f24cf501105611d74b4c389400809a2f",
    },
    "frozen": {
        "flat": "da9105458418dd20bd05798326c6a3482bc17406bb44cb002c767e94d51b19a9",
        "adam_m": "b9c44110385b1a48cdcd420612984546508bd1cd0c546b0b2e4167e94ec2b101",
        "adam_v": "f56788243b6a2b3ad640b748d7c8f08b403e4b41f5dd6cd4b355ace87742ba42",
        "probs": "5709c486a6c283418c29d5d3967c279d8b7bc438aca7fbcdcf630b53a628d0c0",
    },
    "odd_shapes": {
        "flat": "92df7037e8ce72419cb105cb402bb28187eec839307f03490f3499ae512290a5",
        "adam_m": "5b3c8d737ebbb037f1a28e925e0786df5919f039e210fb1fb2689e0d6b16810f",
        "adam_v": "ab96705df135c241ceafa3e1ed21ecdaeaa70fae47905bd32024a070d1a3ee64",
        "probs": "646e181dbdda2604f0f6399340df67c9afe34d6a1b823d18f8ac244fb467e703",
    },
}
PIN_CASES = {
    "frozen": dict(fine_tune_embeddings=False),
    "fine_tune": dict(fine_tune_embeddings=True),
    # an even kernel width, and a max_tokens that leaves trimmed tails
    "odd_shapes": dict(fine_tune_embeddings=True, max_tokens=13, kernel=4),
}


@pytest.mark.parametrize("case", sorted(PIN_CASES))
def test_trained_state_pinned(case):
    model = toy_model(np.float32, dropout_lstm=0.5, dropout_dense=0.5, batch_size=4,
                      learning_rate=1e-2, **PIN_CASES[case])
    report = model.train(random_dataset(60, seed=11), epochs=3, val_split=0.2)
    _, probs = model.predict_many([toks for toks, _ in random_dataset(20, seed=12)])
    digests = {name: hashlib.sha256(value.tobytes()).hexdigest()
               for name, value in (("flat", model.flat), ("adam_m", model.adam_m),
                                   ("adam_v", model.adam_v), ("probs", probs))}
    assert report.best_epoch >= 0
    assert digests == TRAINED_STATE_SHA256[case]


# ----- inference ------------------------------------------------------------


class TestPredict:
    def test_short_comment_identical_to_direct_forward(self):
        model = toy_model()
        randomize_params(model, seed=2)
        tokens = [TOKENS[i % len(TOKENS)] for i in range(9)]
        _, mean_probs = model.predict_tokens(tokens)
        direct, _ = model.forward(model.make_batch([tokens]), infer=True)
        assert (mean_probs == direct[0]).all()  # bitwise

    def test_long_comment_mean_of_chunks(self):
        model = toy_model(max_tokens=12)
        randomize_params(model, seed=3)
        tokens = [TOKENS[i % len(TOKENS)] for i in range(30)]  # 12 + 12 + 6
        _, mean_probs = model.predict_tokens(tokens)
        chunks = [tokens[0:12], tokens[12:24], tokens[24:30]]
        parts = [model.forward(model.make_batch([c]), infer=True)[0][0] for c in chunks]
        assert mean_probs == pytest.approx(
            np.mean(parts, axis=0), abs=1e-9
        )

    def test_tie_breaks_toward_lower_class_code(self):
        model = toy_model()
        tied = np.array([[0.3, 0.3, 0.2, 0.1, 0.1]])
        model.forward = lambda batch, rng=None, infer=False: (
            np.repeat(tied, batch.ids.shape[0], axis=0), None
        )
        label, _ = model.predict_tokens(["w0"])
        assert label is SentimentLabel.VERY_NEGATIVE

    def test_empty_tokens_rejected(self):
        with pytest.raises(ValueError):
            toy_model().predict_tokens([])

    def test_evaluate_matches_manual_recount(self):
        model = toy_model()
        randomize_params(model, seed=5)
        rng = np.random.default_rng(6)
        data = [
            ([TOKENS[int(i)] for i in rng.integers(0, 10, size=5)],
             int(rng.integers(0, 5)))
            for _ in range(30)
        ]
        accuracy, cm = model.evaluate(data)
        manual = np.zeros((5, 5), dtype=int)
        hits = 0
        for tokens, label in data:
            pred, _ = model.predict_tokens(tokens)
            manual[label, int(pred)] += 1
            hits += int(pred) == label
        assert (cm.counts == manual).all()
        assert accuracy == pytest.approx(hits / len(data))


def per_comment_reference(model, tokens):
    """The mean chunk probabilities of one comment from a B = chunks inference forward."""
    t = model.config.max_tokens
    chunks = [tokens[i:i + t] for i in range(0, len(tokens), t)]
    probs, _ = model.forward(model.make_batch(chunks), infer=True)
    return probs.mean(axis=0)


class TestPredictMany:
    MAX_TOKENS = 12

    @pytest.fixture
    def model(self):
        model = toy_model(max_tokens=self.MAX_TOKENS)
        randomize_params(model, seed=8)
        return model

    @pytest.fixture
    def token_lists(self):
        """A seeded mixed set of 1-100 tokens, with max_tokens and max_tokens + 1."""
        rng = np.random.default_rng(9)
        lengths = [int(n) for n in rng.integers(1, 101, size=40)]
        lengths[3], lengths[17] = self.MAX_TOKENS, self.MAX_TOKENS + 1
        return [[TOKENS[int(i)] for i in rng.integers(0, len(TOKENS), size=n)]
                for n in lengths]

    def test_matches_per_comment_reference(self, model, token_lists):
        labels, means = model.predict_many(token_lists)
        reference = np.array([per_comment_reference(model, toks) for toks in token_lists])
        assert means.shape == (len(token_lists), 5)
        assert np.abs(means - reference).max() <= 1e-12
        assert (labels == reference.argmax(axis=1)).all()

    def test_chunks_span_blocks_and_one_comment_straddles(self, model, token_lists):
        owners = [i for i, toks in enumerate(token_lists)
                  for _ in range(0, len(toks), self.MAX_TOKENS)]
        assert len(owners) > 2 * PREDICT_ROWS
        assert owners[PREDICT_ROWS - 1] == owners[PREDICT_ROWS]
        straddler = owners[PREDICT_ROWS]
        _, means = model.predict_many(token_lists)
        reference = per_comment_reference(model, token_lists[straddler])
        assert np.abs(means[straddler] - reference).max() <= 1e-12

    def test_forward_never_sees_more_than_the_cap(self, model, token_lists):
        rows = []
        forward = model.forward

        def wrapped(batch, rng=None, infer=False):
            rows.append(batch.ids.shape[0])
            assert infer
            return forward(batch, rng, infer=infer)

        model.forward = wrapped
        model.predict_many(token_lists)
        chunks = sum(-(-len(toks) // self.MAX_TOKENS) for toks in token_lists)
        assert max(rows) <= PREDICT_ROWS
        assert sum(rows) == chunks
        assert len(rows) == -(-chunks // PREDICT_ROWS)

    def test_evaluate_equals_recount(self, model, token_lists):
        actual = [i % 5 for i in range(len(token_lists))]
        accuracy, cm = model.evaluate(list(zip(token_lists, actual)))
        labels, _ = model.predict_many(token_lists)
        manual = np.zeros((5, 5), dtype=int)
        for label, pred in zip(actual, labels):
            manual[label, pred] += 1
        assert (cm.counts == manual).all()
        assert accuracy == np.trace(manual) / len(actual)

    def test_empty_token_list_named_by_index(self, model):
        with pytest.raises(ValueError, match="^comment 2: empty token list$"):
            model.predict_many([["w1"], ["w2", "w3"], [], ["w4"]])

    def test_no_comments_gives_empty_arrays(self, model):
        labels, means = model.predict_many([])
        assert labels.shape == (0,) and means.shape == (0, 5)


def float64_copy(model):
    """A float64-built network holding `model`'s parameters."""
    embedding = model.params["embedding"][2:]
    vocab = Vocabulary.from_tokens(model.id_to_token)
    copy64 = SentimentNet(model.config, EmbeddingMatrix(embedding.shape[1], vocab, embedding),
                          dtype=np.float64)
    copy64.flat[...] = model.flat
    return copy64


def _clean_tokens(raws):
    return [c.tokens for c in build_corpus(raws).comments]


# The comments of the golden pipeline (tests/test_golden.py: make-fixture --seed 5
# --comments 300), the shipped fixture of criterion 10 and the flaming fixture of
# criterion 09.
AGREEMENT_CORPORA = {
    "golden": lambda: _clean_tokens(RawComment.from_dict(r)
                                    for r in synthetic_comments(300, seed=5)),
    "shipped": lambda: _clean_tokens(load_jsonl(data_path("synthetic_comments.jsonl"))[0]),
    "flaming": lambda: _clean_tokens(RawComment.from_dict(r)
                                     for r in flaming_comments(seed=11)[0]),
}


class TestFloat32Inference:
    """A network trains and infers in float32 and computes the softmax and chunk
    means in float64; at the default ModelConfig it agrees with a float64-built
    network holding the same parameters."""

    @pytest.fixture(scope="class", params=["frozen", "fine_tune"])
    def trained(self, request):
        raws = [RawComment.from_dict(r) for r in synthetic_comments(300, seed=5)]
        comments = build_corpus(raws).comments
        lex, _ = load_lexicon(data_path("mini_lexicon.tsv"))
        labeled, _ = label_corpus(comments, lex, load_emoji_table(data_path("emoji_polarity.tsv")))
        vectors = train_word2vec([c.tokens for c in comments],
                                 EmbedConfig(dim=100, epochs=1, min_count=1))
        config = ModelConfig(embed_dim=100, fine_tune_embeddings=request.param == "fine_tune")
        model = SentimentNet(config, vectors)
        model.train([(lc.comment.tokens, int(lc.label)) for lc in labeled], epochs=2)
        return model

    @pytest.mark.parametrize("corpus", sorted(AGREEMENT_CORPORA))
    def test_agrees_with_float64_forward(self, trained, corpus):
        token_lists = AGREEMENT_CORPORA[corpus]()
        labels, means = trained.predict_many(token_lists)
        labels64, means64 = float64_copy(trained).predict_many(token_lists)
        # the largest difference measured over these cases was 2.1e-8
        assert np.abs(means - means64).max() <= 1e-6
        assert (labels == labels64).all()
        assert np.abs(means.sum(axis=1) - 1.0).max() <= 1e-12

    def test_predict_keeps_no_cache(self):
        # a kept float64 cache peaked at 21 MB here, the cacheless float32
        # forward at 4.3 MB (tracemalloc, numpy 2.4 on x86-64)
        model = SentimentNet(ModelConfig(embed_dim=100), make_embeddings(dim=100, scale=0.3))
        comments = [[TOKENS[(i + j) % len(TOKENS)] for j in range(30)] for i in range(640)]
        model.predict_many(comments[:PREDICT_ROWS])
        tracemalloc.start()
        try:
            model.predict_many(comments)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


# ----- persistence ----------------------------------------------------------


class TestCheckpoint:
    def test_round_trip_params_and_predictions(self, tmp_path):
        model = toy_model()
        randomize_params(model, seed=7)
        path = tmp_path / "model.ckpt"
        model.save(path)
        loaded = SentimentNet.load(path)
        for key, value in model.params.items():
            quantized = value.astype("<f4").astype(np.float64)
            assert (loaded.params[key] == quantized).all()
        tokens = ["w1", "w2", "w3"]
        # load-then-save must be byte-stable
        path2 = tmp_path / "model2.ckpt"
        loaded.save(path2)
        assert path2.read_bytes() == path.read_bytes()
        label_a, _ = loaded.predict_tokens(tokens)
        label_b, _ = SentimentNet.load(path2).predict_tokens(tokens)
        assert label_a == label_b

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(ValueError, match="magic"):
            SentimentNet.load(path)

    def test_truncated_checkpoint_rejected(self, tmp_path):
        model = toy_model()
        path = tmp_path / "model.ckpt"
        model.save(path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-64])
        with pytest.raises(ValueError, match="truncated"):
            SentimentNet.load(path)


class TestCheckpointReader:
    @pytest.fixture
    def blob(self, tmp_path):
        model = SentimentNet(
            toy_config(embed_dim=2, filters=1, lstm_hidden=1, dense_sizes=(2, 2)),
            make_embeddings(dim=2),
        )
        path = tmp_path / "full.ckpt"
        model.save(path)
        return path.read_bytes()

    def test_every_truncation_names_the_file(self, tmp_path, blob):
        path = tmp_path / "cut.ckpt"
        for size in range(len(blob)):
            path.write_bytes(blob[:size])
            with pytest.raises(ValueError, match=f"^checkpoint {re.escape(str(path))}: "):
                SentimentNet.load(path)

    def test_trailing_bytes_rejected(self, tmp_path, blob):
        path = tmp_path / "long.ckpt"
        path.write_bytes(blob + b"\0")
        with pytest.raises(ValueError, match="trailing data"):
            SentimentNet.load(path)

    def test_negative_metadata_size_rejected(self, tmp_path, blob):
        path = tmp_path / "neg.ckpt"
        path.write_bytes(blob[:8] + struct.pack("<i", -1) + blob[12:])
        with pytest.raises(ValueError, match="metadata size -1 is negative"):
            SentimentNet.load(path)

    @pytest.mark.parametrize("tokens", [
        list(range(10)), ["w0"] * 10, ["w0"] + TOKENS[:9], "w0w1w2w3w4", {"w0": 0}, None,
    ], ids=["ints", "one-string", "repeat", "string", "object", "null"])
    def test_vocabulary_of_distinct_strings_required(self, tmp_path, blob, tokens):
        (size,) = struct.unpack("<i", blob[8:12])
        meta = json.loads(blob[12:12 + size])
        meta["id_to_token"] = tokens
        text = json.dumps(meta).encode("utf-8")
        path = tmp_path / "vocab.ckpt"
        path.write_bytes(blob[:8] + struct.pack("<i", len(text)) + text + blob[12 + size:])
        with pytest.raises(ValueError, match=f"^checkpoint {re.escape(str(path))}: metadata: "
                                             "id_to_token must be a list of distinct strings$"):
            SentimentNet.load(path)

    @pytest.mark.parametrize("fine_tune", [False, True])
    def test_load_draws_nothing(self, tmp_path, monkeypatch, fine_tune):
        model = SentimentNet(toy_config(fine_tune_embeddings=fine_tune), make_embeddings())
        randomize_params(model, seed=2)
        path = tmp_path / "model.ckpt"
        model.save(path)

        def no_draw(*args, **kwargs):
            raise AssertionError("load drew from a generator")

        monkeypatch.setattr(network.np.random, "default_rng", no_draw)
        loaded = SentimentNet.load(path)
        assert loaded.flat.tobytes() == model.flat.tobytes()
        assert loaded.grad.size == model.grad.size
        assert loaded.token_to_id == model.token_to_id
        loaded.save(tmp_path / "again.ckpt")
        assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()

    def test_loaded_model_has_fresh_adam_state(self, tmp_path, blob):
        path = tmp_path / "model.ckpt"
        path.write_bytes(blob)
        model = SentimentNet.load(path)
        assert model.adam_t == 0
        # the blob's model fine-tunes, so every parameter is trainable
        assert model.adam_m.shape == model.adam_v.shape == model.flat.shape
        assert not model.adam_m.any() and not model.adam_v.any()
        SentimentNet(toy_config(fine_tune_embeddings=False), make_embeddings()).save(path)
        frozen = SentimentNet.load(path)
        prefix = frozen.flat.size - frozen.params["embedding"].size
        assert frozen.adam_m.shape == frozen.adam_v.shape == (prefix,)
        assert not frozen.adam_m.any() and not frozen.adam_v.any()
