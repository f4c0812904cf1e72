"""Release acceptance suite.

One test per acceptance criterion, each printing a single pass/fail line
through pytest's verbose output. Runtime budgets are asserted where a
criterion states one. Criterion 2 is split in two: the column rates hold,
but the published macro-precision figure cannot be derived from the
published matrix itself (see test docstring), so that assertion is
expected to fail and is kept failing rather than weakened.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from flamewatch import data_path
from flamewatch.embeddings import (
    EmbedConfig,
    EmbeddingMatrix,
    SubwordConfig,
    Vocabulary,
    lookup,
    train_fasttext,
    train_word2vec,
)
from flamewatch.fixtures import flaming_comments
from flamewatch.flaming import detect, post_stats, zscores
from flamewatch.lexicon import (
    SentimentLabel,
    classify,
    label_corpus,
    load_emoji_table,
    load_lexicon,
    match_lexicons,
    score_comment,
)
from flamewatch.metrics import ConfusionMatrix, macro_metrics
from flamewatch.network import PAD_ID, ModelConfig, SentimentNet
from flamewatch.preprocess import RawComment, build_corpus

from conftest import make_clean, make_lexicon

LEXICON_TABLE = [[128, 19, 35], [57, 83, 37], [37, 12, 90]]
BASELINE_TABLE = [[24, 12, 156], [0, 15, 162], [1, 1, 137]]
NAMES = ["Pos", "Neg", "Neu"]


def test_criterion_01_metrics_reproduce_published_lexicon_table():
    """3-class matrix of the lexicon labeler: macros ±0.1, per-class ±0.01."""
    start = time.monotonic()
    mm = macro_metrics(ConfusionMatrix(np.array(LEXICON_TABLE), NAMES), "paper")
    assert mm.macro_precision * 100 == pytest.approx(60.66, abs=0.1)
    assert mm.macro_recall * 100 == pytest.approx(62.01, abs=0.1)
    assert mm.macro_f1 * 100 == pytest.approx(61.31, abs=0.1)
    assert mm.per_class_precision * 100 == pytest.approx(
        [70.33, 46.89, 64.75], abs=0.01
    )
    assert mm.per_class_recall * 100 == pytest.approx(
        [57.66, 72.81, 55.56], abs=0.01
    )
    assert time.monotonic() - start < 1.0


def test_criterion_02_baseline_table_column_rates():
    """Baseline matrix column rates for Neg and Neu; the Pos column is
    excluded as internally inconsistent in the published table."""
    start = time.monotonic()
    mm = macro_metrics(ConfusionMatrix(np.array(BASELINE_TABLE), NAMES), "paper")
    assert mm.per_class_recall[1] * 100 == pytest.approx(53.57, abs=0.01)
    assert mm.per_class_recall[2] * 100 == pytest.approx(30.11, abs=0.01)
    assert time.monotonic() - start < 1.0


def test_criterion_02_baseline_table_macro_precision():
    """EXPECTED FAILURE (kept deliberately): the published caption says
    macro precision 37.85%, but that figure averages the table's printed
    per-class cells, one of which (Neu 92.57%) implies a row total of 148
    while the published matrix row sums to 139. Recomputing from the matrix
    itself -- the only self-consistent reading -- gives 39.85%, outside the
    ±0.1 tolerance. The implementation follows the matrix."""
    mm = macro_metrics(ConfusionMatrix(np.array(BASELINE_TABLE), NAMES), "paper")
    assert mm.macro_precision * 100 == pytest.approx(37.85, abs=0.1)


def test_criterion_03_sentiscore_property_suite():
    """10,000 randomized comments: boundedness, neutral fixed point,
    threshold mapping with exact boundary values, modifier monotonicity."""
    start = time.monotonic()
    lex = make_lexicon({
        "good": 0.6, "not good": -0.5, "great": 0.7, "aw": -0.8,
        "bad": -0.3, "the worst": -0.8, "love": 0.75,
    })
    emoji_table = {"🙂": 1, "😡": -1}
    vocab = ["good", "bad", "not", "great", "aw", "the", "worst", "love",
             "x", "y", "z"]
    rng = np.random.default_rng(11)

    def reference_label(score):
        if score >= 0.5:
            return SentimentLabel.VERY_POSITIVE
        if score > 0:
            return SentimentLabel.POSITIVE
        if score == 0:
            return SentimentLabel.NEUTRAL
        if score > -0.5:
            return SentimentLabel.NEGATIVE
        return SentimentLabel.VERY_NEGATIVE

    for boundary, expected in (
        (0.5, SentimentLabel.VERY_POSITIVE),
        (0.0, SentimentLabel.NEUTRAL),
        (-0.5, SentimentLabel.VERY_NEGATIVE),
        (-0.49, SentimentLabel.NEGATIVE),
        (0.49, SentimentLabel.POSITIVE),
    ):
        assert classify(boundary) is expected

    for _ in range(10_000):
        n = int(rng.integers(1, 9))
        tokens = list(rng.choice(vocab, size=n))
        caps = list(rng.random(n) < 0.25)
        excl = list(rng.random(n) < 0.25)
        emojis = list(rng.choice(["🙂", "😡"], size=int(rng.integers(0, 3))))
        comment = make_clean(tokens, caps=caps, excl=excl, emojis=emojis)
        breakdown, score = score_comment(comment, lex, emoji_table)
        if breakdown.N or breakdown.C or breakdown.S or breakdown.E:
            assert abs(score) <= 1.0
        if breakdown.N == 0 and breakdown.E == 0:
            assert score == 0.0
        assert classify(score) is reference_label(score)
        richer = make_clean(tokens, caps=caps, excl=excl, emojis=emojis + ["🙂"])
        _, richer_score = score_comment(richer, lex, emoji_table)
        assert richer_score >= score - 1e-12
    assert time.monotonic() - start < 10.0


def test_criterion_04_greedy_matching_equals_exhaustive_reference():
    """5,000 random inputs of at most 12 tokens against an independent
    enumerate-all-spans reference."""
    start = time.monotonic()
    rng = np.random.default_rng(12)
    vocab = ["a", "b", "c", "d", "e", "f"]
    phrases = {}
    while len(phrases) < 15:
        n = int(rng.integers(1, 5))
        phrases[" ".join(rng.choice(vocab, size=n))] = float(rng.uniform(0.1, 1))
    lex = make_lexicon(phrases)

    def reference(tokens):
        candidates = [
            (i, j)
            for i in range(len(tokens))
            for j in range(i + 1, min(i + lex.max_n, len(tokens)) + 1)
            if tuple(tokens[i:j]) in lex.index
        ]
        chosen, cursor = [], 0
        while True:
            viable = [(i, j) for i, j in candidates if i >= cursor]
            if not viable:
                return chosen
            first = min(i for i, _ in viable)
            last = max(j for i, j in viable if i == first)
            chosen.append((first, last))
            cursor = last

    for _ in range(5_000):
        tokens = list(rng.choice(vocab, size=int(rng.integers(0, 13))))
        got = [(m.start, m.end) for m in match_lexicons(make_clean(tokens), lex)]
        assert got == reference(tokens), tokens
    assert time.monotonic() - start < 30.0


def _toy_embeddings(dim=8, seed=0, scale=0.1):
    tokens = [f"w{i}" for i in range(10)]
    vocab = Vocabulary(
        token_to_id={t: i for i, t in enumerate(tokens)},
        id_to_token=tokens,
        counts=np.ones(10, dtype=np.int64),
    )
    rng = np.random.default_rng(seed)
    return EmbeddingMatrix(dim=dim, vocab=vocab,
                           vectors=rng.normal(0, scale, (10, dim)))


def test_criterion_05_gradient_check_toy_model():
    """Reverse-mode gradients vs central finite differences (ε=1e-4) on the
    toy configuration; max relative error ≤ 1e-4 over every parameter."""
    start = time.monotonic()
    config = ModelConfig(
        embed_dim=8, max_tokens=12, filters=4, kernel=3,
        lstm_hidden=8, dense_sizes=(16, 8), dropout_lstm=0.0,
        dropout_dense=0.0, seed=1, fine_tune_embeddings=True,
    )
    # finite differences need double precision; the float64 network runs the
    # same code as the float32 one that trains
    model = SentimentNet(config, _toy_embeddings(), dtype=np.float64)
    # move to a generic point so no ReLU or pooling tie sits exactly at a kink
    rng = np.random.default_rng(0)
    for key in model.params:
        model.params[key][...] = rng.normal(0, 0.2, model.params[key].shape)
    model.params["embedding"][PAD_ID] = 0.0

    tokens = model.id_to_token
    lists = [
        [tokens[(i + j) % len(tokens)] for i in range(1 + 2 * j)]
        for j in range(4)
    ]
    batch = model.make_batch(lists, [0, 1, 3, 4])
    _, cache = model.forward(batch)
    grads = model.backward(cache, batch.labels)

    def loss_now():
        probs, _ = model.forward(batch)
        return model.loss(probs, batch.labels)

    eps = 1e-4
    worst = 0.0
    for key, grad in grads.items():
        param = model.params[key]
        it = np.nditer(param, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            keep = param[idx]
            param[idx] = keep + eps
            up = loss_now()
            param[idx] = keep - eps
            down = loss_now()
            param[idx] = keep
            fd = (up - down) / (2 * eps)
            worst = max(worst, abs(fd - grad[idx])
                        / max(abs(fd), abs(grad[idx]), 1e-6))
    assert worst <= 1e-4
    assert time.monotonic() - start < 120.0


def test_criterion_06_overfit_separable_toy_set():
    """≥95% training accuracy on 64 separable samples within 200 epochs at
    lr 1e-4; softmax rows keep summing to 1 ± 1e-6 throughout."""
    start = time.monotonic()
    rng = np.random.default_rng(3)
    tokens = [f"tok{c}{i}" for c in range(5) for i in range(4)]
    vocab = Vocabulary(
        token_to_id={t: i for i, t in enumerate(tokens)},
        id_to_token=tokens,
        counts=np.ones(len(tokens), dtype=np.int64),
    )
    # each class gets a distinct 4-bit activation pattern
    codes = np.array([[2.0 * ((c >> b) & 1) for b in range(4)] for c in range(5)])
    codes[0] = [2.0, 2.0, 2.0, 2.0]
    vectors = np.zeros((len(tokens), 8))
    for idx, token in enumerate(tokens):
        vectors[idx, :4] = codes[int(token[3])]
    config = ModelConfig(
        embed_dim=8, max_tokens=10, filters=4, kernel=3,
        lstm_hidden=8, dense_sizes=(16, 8), dropout_lstm=0.0,
        dropout_dense=0.0, seed=1, batch_size=1, learning_rate=1e-4,
        fine_tune_embeddings=True,
    )
    model = SentimentNet(config, EmbeddingMatrix(dim=8, vocab=vocab,
                                                 vectors=vectors))
    # centre-tap pass-through convolutions keep the class pattern visible
    for li in range(3):
        w = np.zeros_like(model.params[f"conv{li}_w"])
        for f in range(w.shape[0]):
            w[f, w.shape[1] // 2, f] = 1.0
        model.params[f"conv{li}_w"][...] = w

    data = []
    for i in range(64):
        c = i % 5
        length = int(rng.integers(5, 11))
        data.append(([f"tok{c}{int(rng.integers(0, 4))}" for _ in range(length)], c))

    full_batch = model.make_batch([t for t, _ in data], [c for _, c in data])
    epochs_run = 0
    accuracy = 0.0
    while epochs_run < 200 and accuracy < 0.95:
        report = model.train(data, epochs=20, val_split=0.0)
        epochs_run += 20
        accuracy = report.train_accuracy[-1]
        probs, _ = model.forward(full_batch)
        assert probs.sum(axis=1) == pytest.approx(np.ones(64), abs=1e-6)
    assert accuracy >= 0.95, f"{accuracy:.2%} after {epochs_run} epochs"
    assert time.monotonic() - start < 300.0


def test_criterion_07_chunking_identity():
    """≤30-token comments: prediction equals a direct inference forward pass
    bitwise. 65 tokens: output equals the mean of the three chunk outputs to 1e-9."""
    config = ModelConfig(
        embed_dim=8, max_tokens=30, filters=4, kernel=3,
        lstm_hidden=8, dense_sizes=(16, 8), dropout_lstm=0.0,
        dropout_dense=0.0, seed=2, fine_tune_embeddings=True,
    )
    model = SentimentNet(config, _toy_embeddings())
    rng = np.random.default_rng(1)
    for key in model.params:
        model.params[key][...] = rng.normal(0, 0.2, model.params[key].shape)
    model.params["embedding"][PAD_ID] = 0.0
    names = model.id_to_token

    short = [names[i % len(names)] for i in range(23)]
    _, mean_probs = model.predict_tokens(short)
    direct, _ = model.forward(model.make_batch([short]), infer=True)
    assert (mean_probs == direct[0]).all()

    long = [names[(i * 3) % len(names)] for i in range(65)]
    _, mean_probs = model.predict_tokens(long)
    chunks = [long[0:30], long[30:60], long[60:65]]
    parts = [model.forward(model.make_batch([c]), infer=True)[0][0] for c in chunks]
    assert mean_probs == pytest.approx(np.mean(parts, axis=0), abs=1e-9)


def _embedding_corpus():
    rng = np.random.default_rng(0)
    vocab = [f"word{i}" for i in range(40)]
    contexts = ["veryfeel", "sofeel", "feelgood", "todayfeel"]
    sentences = []
    for i in range(1250):  # 1250 x 8 = 10,000 tokens
        if i % 2 == 0:
            sentence = [str(rng.choice(contexts)), "happy",
                        str(rng.choice(contexts)), "happy"]
            sentence += list(rng.choice(vocab, size=4))
        else:
            sentence = list(rng.choice(vocab, size=8))
        sentences.append(sentence)
    return sentences


def test_criterion_08_embedding_sanity():
    """Skip-gram loss decreases epoch over epoch on a 10k-token corpus for
    5 seeds; a subword-composed OOV variant sits closer to its base word
    than the median random pair."""
    start = time.monotonic()
    sentences = _embedding_corpus()
    for seed in range(5):
        config = EmbedConfig(dim=16, window=2, negatives=2, epochs=3,
                             min_count=1, seed=seed)
        matrix = train_word2vec(sentences, config)
        assert all(
            later < earlier
            for earlier, later in zip(matrix.epoch_losses,
                                      matrix.epoch_losses[1:])
        ), matrix.epoch_losses

    subword = SubwordConfig(min_n=3, max_n=6, buckets=2 ** 12)
    config = EmbedConfig(dim=16, window=2, negatives=5, epochs=6,
                         min_count=1, seed=1)
    matrix = train_fasttext(sentences, config, subword)

    def cosine(a, b):
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

    variant = lookup(matrix, "happyy")
    base = lookup(matrix, "happy")
    rng = np.random.default_rng(3)
    n = len(matrix.vocab)
    random_pairs = [
        cosine(matrix.vectors[a], matrix.vectors[b])
        for a, b in (rng.choice(n, size=2, replace=False) for _ in range(300))
    ]
    assert cosine(variant, base) > float(np.median(random_pairs))
    assert time.monotonic() - start < 120.0


def test_criterion_09_flaming_plant_and_recover():
    """Synthetic month, 200 posts, 3 planted pile-ons: detect flags exactly
    those 3; z-scores match the direct two-pass formula to 1e-12."""
    start = time.monotonic()
    records, planted = flaming_comments(seed=11)
    corpus = build_corpus(RawComment.from_dict(r) for r in records)
    lex, rejects = load_lexicon(data_path("mini_lexicon.tsv"))
    assert rejects == []
    table = load_emoji_table(data_path("emoji_polarity.tsv"))
    labeled, _ = label_corpus(corpus.comments, lex, table)
    stats = post_stats(labeled)
    zs = zscores(stats)
    events = detect(stats, zs, z_threshold=5.0)
    assert {e.post_id for e in events} == set(planted)
    for e in events:
        assert e.vn_share > 0.20

    counts = [s.vn_count for s in stats]
    mean = sum(counts) / len(counts)
    std = math.sqrt(sum((x - mean) ** 2 for x in counts) / len(counts))
    for s, x in zip(stats, counts):
        assert zs.z[s.post_id] == pytest.approx((x - mean) / std, abs=1e-12)
    assert time.monotonic() - start < 5.0


def test_criterion_10_end_to_end_pipeline(tmp_path):
    """The shipped 500-comment fixture runs preprocess → label →
    train-embed → train-clf → evaluate → detect through the command line
    with exit 0 and a byte-identical report on a second run."""
    start = time.monotonic()

    def cli(*args):
        result = subprocess.run(
            [sys.executable, "-m", "flamewatch.cli", *map(str, args)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        return result

    fixture = data_path("synthetic_comments.jsonl")
    clean = tmp_path / "clean.jsonl"
    labeled = tmp_path / "labeled.jsonl"
    vectors = tmp_path / "vectors.txt"
    model = tmp_path / "model.ckpt"

    cli("preprocess", fixture, clean)
    cli("label", clean, labeled)
    cli("train-embed", clean, vectors,
        "--dim", 8, "--epochs", 2, "--window", 2, "--negatives", 2,
        "--min-count", 1)
    cli("train-clf", labeled, model, "--embeddings", vectors,
        "--epochs", 2, "--filters", 4, "--lstm-hidden", 4,
        "--dense", 8, 4, "--max-tokens", 12, "--batch-size", 32)
    evaluated = cli("evaluate", labeled, "--model", model)
    summary = json.loads(evaluated.stdout)
    assert 0.0 <= summary["accuracy"] <= 1.0

    report_a = tmp_path / "report_a"
    report_b = tmp_path / "report_b"
    cli("detect", labeled, report_a)
    cli("detect", labeled, report_b)
    events_a = (report_a / "events.json").read_bytes()
    assert events_a == (report_b / "events.json").read_bytes()
    assert json.loads(events_a)["events"] is not None
    assert (report_a / "timeseries.csv").read_bytes() == (
        report_b / "timeseries.csv"
    ).read_bytes()

    # the report must also be stable against a full re-run of the labeling
    relabeled = tmp_path / "labeled2.jsonl"
    cli("label", clean, relabeled)
    assert relabeled.read_bytes() == labeled.read_bytes()
    assert time.monotonic() - start < 600.0
