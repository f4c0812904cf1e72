"""Forward/backward correctness, optimization and persistence of the classifier."""

import copy
import hashlib
import re
import struct
import tracemalloc

import numpy as np
import pytest

from flamewatch.embeddings import EmbeddingMatrix, Vocabulary
from flamewatch.lexicon import SentimentLabel
from flamewatch.network import (
    MAX_TOKENS,
    OOV_ID,
    PAD_ID,
    PREDICT_ROWS,
    ModelConfig,
    NonFiniteError,
    SentimentNet,
)

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
        embed_dim=8, max_tokens=12, conv_layers=((4, 3), (4, 3), (4, 3)),
        lstm_hidden=8, dense_sizes=(16, 8), dropout_lstm=0.0,
        dropout_dense=0.0, seed=1, fine_tune_embeddings=True,
    )
    base.update(overrides)
    return ModelConfig(**base)


def toy_model(**overrides):
    return SentimentNet(toy_config(**overrides), make_embeddings())


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

        for li, (filters, kernel) in enumerate(cfg.conv_layers):
            w = p[f"conv{li}_w"]
            bias = p[f"conv{li}_b"]
            pl = (kernel - 1) // 2
            cur = len(x)
            activated = []
            for ti in range(cur):
                row = np.zeros(filters)
                for f in range(filters):
                    s = bias[f]
                    for k in range(kernel):
                        src = ti - pl + k
                        if 0 <= src < cur:
                            for c in range(len(x[src])):
                                s += w[f, k, c] * x[src][c]
                    row[f] = max(s, 0.0)
                activated.append(row)
            if cur >= cfg.pool:
                tp = cur // cfg.pool
                pooled = []
                for ti in range(tp):
                    window = activated[ti * cfg.pool:(ti + 1) * cfg.pool]
                    pooled.append(np.maximum.reduce(window))
                x = pooled
                length = min(tp, (length - 1) // cfg.pool + 1)
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


# Layer shapes beside the toy default of kernel width 3, pool 2 and max_tokens 12:
# even kernel widths pad one more step on the right than on the left, pool 1
# keeps every step, and a max_tokens that the pool does not divide leaves a
# trimmed tail at every pooling layer.
SHAPE_CASES = {
    "kernels_1_2_4": dict(conv_layers=((4, 1), (4, 2), (4, 4))),
    "pool_1": dict(pool=1, max_tokens=7, conv_layers=((4, 2), (4, 3), (4, 4))),
    "pool_3_tail": dict(pool=3, max_tokens=13, conv_layers=((4, 4), (4, 2), (4, 1))),
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

    def test_config_validation(self):
        with pytest.raises(ValueError):
            toy_config(conv_layers=((4, 3),))
        with pytest.raises(ValueError):
            toy_config(dense_sizes=(16,))
        with pytest.raises(ValueError):
            toy_config(dropout_dense=1.0)
        with pytest.raises(ValueError):
            toy_config(conv_layers=((4, 99), (4, 3), (4, 3)))
        for pool in (0, -1, 2.0):
            with pytest.raises(ValueError, match="^pool .* must be an integer >= 1"):
                toy_config(pool=pool)

    @pytest.mark.parametrize("overrides, message", [
        (dict(seed=3.0), "seed 3.0 must be an integer >= 0"),
        (dict(seed=-1), "seed -1 must be an integer >= 0"),
        (dict(embed_dim=8.0), "embed_dim 8.0 must be an integer >= 1"),
        (dict(conv_layers=((4, 3), (4.0, 3), (4, 3))),
         "conv_layers[1] filters 4.0 must be an integer >= 1"),
        (dict(conv_layers=((4, 3), (4, 3), (0, 3))),
         "conv_layers[2] filters 0 must be an integer >= 1"),
        (dict(conv_layers=((4, 3.0), (4, 3), (4, 3))),
         "conv_layers[0] kernel width 3.0 must be an integer >= 1"),
        (dict(conv_layers=((4, 3), (4, 13), (4, 3))),
         "conv_layers[1] kernel width 13 outside [1, 12]"),
        (dict(conv_layers=((4, 3), (4, 3, 1), (4, 3))),
         "each conv layer must be a (filters, kernel_width) pair"),
    ], ids=["seed-float", "seed-negative", "embed-dim-float", "filters-float", "filters-0",
            "kernel-float", "kernel-too-wide", "conv-triple"])
    def test_config_names_the_bad_field(self, overrides, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            toy_config(**overrides)

    @pytest.mark.parametrize("overrides, message", [
        (dict(embed_dim=True), "embed_dim True must be an integer >= 1"),
        (dict(conv_layers=((4, 3), (True, 3), (4, 3))),
         "conv_layers[1] filters True must be an integer >= 1"),
        (dict(conv_layers=((4, 3), (4, 3), (4, True))),
         "conv_layers[2] kernel width True must be an integer >= 1"),
        (dict(pool=True), "pool True must be an integer >= 1"),
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
    ], ids=["embed-dim", "filters", "kernel", "pool", "lstm-hidden", "dense", "batch-size",
            "max-tokens", "seed-false", "seed-true", "fine-tune-str", "fine-tune-int",
            "fine-tune-none"])
    def test_config_refuses_bools_as_integers(self, overrides, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            toy_config(**overrides)

    @pytest.mark.parametrize("max_tokens", [0, MAX_TOKENS + 1, 2 ** 40, 12.0, "12"])
    def test_max_tokens_bounded(self, max_tokens):
        with pytest.raises(ValueError, match="^max_tokens .* outside"):
            toy_config(max_tokens=max_tokens)
        assert toy_config(max_tokens=MAX_TOKENS).max_tokens == MAX_TOKENS

    def test_embedding_frozen_by_default(self):
        model = SentimentNet(toy_config(fine_tune_embeddings=False),
                             make_embeddings())
        # the embedding is last in flat and outside the trainable prefix
        assert model.grad.size == model.flat.size - model.params["embedding"].size
        assert np.shares_memory(model.params["embedding"], model.flat[model.grad.size:])

    def test_make_batch_rejects_empty_row(self):
        model = toy_model()
        with pytest.raises(ValueError, match="row 1"):
            model.make_batch([["w0"], []])

    def test_unknown_token_maps_to_oov(self):
        model = toy_model()
        assert model.encode_tokens(["w0", "zzz"]) == [2, OOV_ID]


# ----- forward --------------------------------------------------------------


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
        # rows that fill max_tokens. Batch seed 0 would put a ReLU kink within eps
        # of pool_3_tail's conv0_b[1]: there the difference quotient reaches the
        # gradient only for eps <= 3e-5, at the parent's code as well.
        batch, _, _ = toy_batch(model, rows=4, seed=2, max_len=model.config.max_tokens + 2)
        assert worst_fd_error(model, batch, per_tensor=6, seed=2) <= 1e-4

    @pytest.mark.parametrize("pool, max_tokens", [(2, 12), (3, 13)])
    def test_pooling_tie_sends_gradient_to_first_slot(self, pool, max_tokens):
        # a zero conv0 kernel and a positive bias give the same activation at
        # every step, so every pooling window of conv0 is a tie
        model = toy_model(pool=pool, max_tokens=max_tokens)
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


# SHA-256 of the float64 bytes of `flat`, `adam_m`, `adam_v` and the predict_many
# probabilities after the seeded runs below (numpy 64-bit floats on x86-64 with
# OpenBLAS, the same caveat as the checkpoint pins in test_cli.py). A checkpoint
# stores float32, so it can hide last-bit drift that these cannot.
TRAINED_STATE_SHA256 = {
    "fine_tune": {
        "flat": "454eab898967b459d47e6c92c38b4357869d9759e7e14c72eb1350c90e40d1c8",
        "adam_m": "d09260bcb6234342a4fb8dfca80f70028e7b78379aa85610d0f4d7f3db13cd8f",
        "adam_v": "5b7d2a0f78497c0730ef422827e1ab06840d865ab052247498acc8f67a7047f6",
        "probs": "6a986a87a2e76776b1bc89532f1ff287ff6b22235a799c5ffe72469a00f236a1",
    },
    "frozen": {
        "flat": "f1a6300f9d86d27da45a08f5438f37a747683ceab5cc323f19bd2a35376c7377",
        "adam_m": "9e40625795a6b3fdfb4385f4cdfd8fc0fb4798562c77b8b1e2c2a4fb4256a9bc",
        "adam_v": "ec5a4f0077e7b30524bcc18032bb59f50ce2ae5409b3c4468aec06999874496b",
        "probs": "749fc47fed6527b78b2202f9b7402ffba5ebf8fbca6de4b0b669a03951205c70",
    },
    "odd_shapes": {
        "flat": "8b75e6f134e09836c5ab36241bdd95d84427aeb64555aa99cbbab8b85edfceef",
        "adam_m": "48ebcced6517af7584eaa1ec758fb7673f435667f384ae01444a890d16cbf9e2",
        "adam_v": "142bc32363c6ffae8149d5df32b74bc20298e3572222b1f016329f7ea2f3be09",
        "probs": "894b7500825ac14d908fcae5824f86a4a57ac5616699744520d997c5d99560a4",
    },
}
PIN_CASES = {
    "frozen": dict(fine_tune_embeddings=False),
    "fine_tune": dict(fine_tune_embeddings=True),
    # even and unit kernel widths, and a pool that leaves a trimmed tail
    "odd_shapes": dict(fine_tune_embeddings=True, max_tokens=13, pool=3,
                       conv_layers=((4, 2), (4, 1), (4, 4))),
}


@pytest.mark.parametrize("case", sorted(PIN_CASES))
def test_trained_float64_state_pinned(case):
    model = toy_model(dropout_lstm=0.5, dropout_dense=0.5, batch_size=4,
                      learning_rate=1e-2, **PIN_CASES[case])
    report = model.train(random_dataset(60, seed=11), epochs=3, val_split=0.2)
    _, probs = model.predict_many([toks for toks, _ in random_dataset(20, seed=12)])
    digests = {name: hashlib.sha256(np.ascontiguousarray(value, dtype=np.float64)
                                    .tobytes()).hexdigest()
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
        direct, _ = model.forward(model.make_batch([tokens]))
        assert (mean_probs == direct[0]).all()  # bitwise

    def test_long_comment_mean_of_chunks(self):
        model = toy_model(max_tokens=12)
        randomize_params(model, seed=3)
        tokens = [TOKENS[i % len(TOKENS)] for i in range(30)]  # 12 + 12 + 6
        _, mean_probs = model.predict_tokens(tokens)
        chunks = [tokens[0:12], tokens[12:24], tokens[24:30]]
        parts = [model.forward(model.make_batch([c]))[0][0] for c in chunks]
        assert mean_probs == pytest.approx(
            np.mean(parts, axis=0), abs=1e-9
        )

    def test_tie_breaks_toward_lower_class_code(self):
        model = toy_model()
        tied = np.array([[0.3, 0.3, 0.2, 0.1, 0.1]])
        model.forward = lambda batch, train=False, rng=None: (
            np.repeat(tied, batch.ids.shape[0], axis=0), {}
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
    """The mean chunk probabilities of one comment from a B = chunks forward."""
    t = model.config.max_tokens
    chunks = [tokens[i:i + t] for i in range(0, len(tokens), t)]
    probs, _ = model.forward(model.make_batch(chunks))
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

        def wrapped(batch, rng=None):
            rows.append(batch.ids.shape[0])
            return forward(batch, rng)

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
            toy_config(embed_dim=2, conv_layers=((1, 3),) * 3, lstm_hidden=1,
                       dense_sizes=(2, 2)),
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
