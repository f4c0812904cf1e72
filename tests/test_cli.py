"""Exit codes, summaries and small end-to-end runs of the command line."""

import json
import subprocess
import sys

import pytest

from flamewatch import data_path
from flamewatch.cli import main
from flamewatch.fixtures import synthetic_comments, write_raw_jsonl


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "flamewatch.cli", *map(str, args)],
        capture_output=True, text=True, **kwargs,
    )


@pytest.fixture(scope="module")
def raw_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "raw.jsonl"
    write_raw_jsonl(synthetic_comments(n_comments=80, seed=3), path)
    return path


@pytest.fixture(scope="module")
def clean_corpus(raw_corpus, tmp_path_factory):
    path = tmp_path_factory.mktemp("clean") / "clean.jsonl"
    result = run_cli("preprocess", raw_corpus, path)
    assert result.returncode == 0
    return path


@pytest.fixture(scope="module")
def labeled_corpus(clean_corpus, tmp_path_factory):
    path = tmp_path_factory.mktemp("labeled") / "labeled.jsonl"
    result = run_cli("label", clean_corpus, path)
    assert result.returncode == 0
    return path


class TestPreprocessCommand:
    def test_valid_file_summary(self, raw_corpus, tmp_path):
        out = tmp_path / "clean.jsonl"
        result = run_cli("preprocess", raw_corpus, out)
        assert result.returncode == 0
        assert "kept=" in result.stderr and "dropped=" in result.stderr
        summary = json.loads(result.stdout)
        assert summary["command"] == "preprocess" and summary["kept"] > 0

    def test_missing_file_exit_2_names_path(self, tmp_path):
        result = run_cli("preprocess", tmp_path / "nope.jsonl", tmp_path / "o.jsonl")
        assert result.returncode == 2
        assert "nope.jsonl" in result.stderr

    def test_url_only_corpus_keeps_nothing_exit_0(self, tmp_path):
        raw = tmp_path / "urls.jsonl"
        raw.write_text(json.dumps({
            "post_id": "p1", "comment_id": "c1",
            "created_time": "2018-02-01T00:00:00Z",
            "message": "https://example.com/x",
        }) + "\n")
        out = tmp_path / "clean.jsonl"
        result = run_cli("preprocess", raw, out)
        assert result.returncode == 0
        assert json.loads(result.stdout)["kept"] == 0


class TestLabelCommand:
    def test_labels_with_bundled_lexicon(self, clean_corpus, tmp_path):
        out = tmp_path / "labeled.jsonl"
        result = run_cli("label", clean_corpus, out)
        assert result.returncode == 0
        summary = json.loads(result.stdout)
        assert summary["labeled"] > 0 and summary["lexicon_rejects"] == 0
        assert sum(summary["distribution"].values()) == summary["labeled"]

    def test_output_is_deterministic(self, clean_corpus, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run_cli("label", clean_corpus, a).returncode == 0
        assert run_cli("label", clean_corpus, b).returncode == 0
        assert a.read_bytes() == b.read_bytes()


class TestEvaluateCommand:
    def test_published_matrix_reproduces_macro_metrics(self):
        result = run_cli(
            "evaluate", "--matrix-json", data_path("published_eval_matrices.json"),
            "--key", "lexicon", "--orientation", "paper",
        )
        assert result.returncode == 0
        summary = json.loads(result.stdout)
        assert summary["macro_precision"] * 100 == pytest.approx(60.66, abs=0.1)
        assert summary["macro_recall"] * 100 == pytest.approx(62.01, abs=0.1)
        assert summary["macro_f1"] * 100 == pytest.approx(61.31, abs=0.1)

    def test_requires_matrix_or_model(self):
        result = run_cli("evaluate")
        assert result.returncode == 2

    def test_standard_orientation_differs(self):
        paper = json.loads(run_cli(
            "evaluate", "--matrix-json", data_path("published_eval_matrices.json"),
            "--key", "lexicon", "--orientation", "paper",
        ).stdout)
        std = json.loads(run_cli(
            "evaluate", "--matrix-json", data_path("published_eval_matrices.json"),
            "--key", "lexicon",
        ).stdout)
        assert std["orientation"] == "standard"
        assert std["macro_precision"] == pytest.approx(paper["macro_recall"])


class TestDetectCommand:
    def test_planted_flaming_posts_recovered(self, tmp_path):
        raw = tmp_path / "raw.jsonl"
        fixture = run_cli("make-fixture", raw, "--kind", "flaming")
        assert fixture.returncode == 0
        planted = fixture.stderr.strip().split("planted=")[1].split(",")
        clean = tmp_path / "clean.jsonl"
        labeled = tmp_path / "labeled.jsonl"
        assert run_cli("preprocess", raw, clean).returncode == 0
        assert run_cli("label", clean, labeled).returncode == 0
        result = run_cli("detect", labeled, tmp_path / "report")
        assert result.returncode == 0
        summary = json.loads(result.stdout)
        assert {e["post_id"] for e in summary["events"]} == set(planted)
        report = json.loads((tmp_path / "report" / "events.json").read_text())
        assert {e["post_id"] for e in report["events"]} == set(planted)
        assert (tmp_path / "report" / "timeseries.csv").exists()

    def test_missing_input_exit_2(self, tmp_path):
        assert run_cli("detect", tmp_path / "nope.jsonl", tmp_path).returncode == 2


class TestTrainingCommands:
    def test_embed_train_and_classify_round(self, labeled_corpus, clean_corpus,
                                            tmp_path):
        vectors = tmp_path / "vectors.txt"
        result = run_cli(
            "train-embed", clean_corpus, vectors,
            "--dim", 8, "--epochs", 1, "--window", 2, "--negatives", 2,
            "--min-count", 1,
        )
        assert result.returncode == 0
        losses = json.loads(result.stdout)["epoch_losses"]
        assert len(losses) == 1

        model = tmp_path / "model.ckpt"
        result = run_cli(
            "train-clf", labeled_corpus, model, "--embeddings", vectors,
            "--epochs", 1, "--filters", 4, "--lstm-hidden", 4,
            "--dense", 8, 4, "--val-split", 0.2, "--max-tokens", 12,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["examples"] > 0

        predictions = tmp_path / "pred.jsonl"
        result = run_cli("predict", clean_corpus, predictions, "--model", model)
        assert result.returncode == 0
        lines = predictions.read_text().strip().splitlines()
        first = json.loads(lines[0])
        assert set(first) == {"post_id", "comment_id", "label", "probabilities"}
        assert sum(first["probabilities"]) == pytest.approx(1.0, abs=1e-6)

    def test_bad_embeddings_file_exit_2(self, labeled_corpus, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("this is not a vector file\n")
        result = run_cli(
            "train-clf", labeled_corpus, tmp_path / "m.ckpt", "--embeddings", bad,
        )
        assert result.returncode == 2

    @pytest.mark.parametrize("keep, section", [(14, "header"), (-5, "bucket vectors")],
                             ids=["in-header", "in-body"])
    def test_truncated_sidecar_exit_2(self, labeled_corpus, truncated_fasttext_vectors,
                                      tmp_path, capsys, keep, section):
        vectors = truncated_fasttext_vectors(keep)
        code = main(["train-clf", str(labeled_corpus), str(tmp_path / "m.ckpt"),
                     "--embeddings", str(vectors)])
        assert code == 2
        assert f"error: sidecar: truncated {section}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, field", [
        ("--window", 0, "window"), ("--epochs", 0, "epochs"),
        ("--negatives", -1, "negatives"), ("--lr", 0, "initial_lr"),
    ])
    def test_out_of_range_embed_option_exit_2(self, clean_corpus, tmp_path, capsys,
                                              flag, value, field):
        code = main(["train-embed", str(clean_corpus), str(tmp_path / "v.txt"),
                     flag, str(value)])
        assert code == 2
        assert f"error: {field} must be" in capsys.readouterr().err


class TestConfigFile:
    def test_config_supplies_lexicon_path(self, clean_corpus, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(
            "[paths]\n"
            f"lexicon = {data_path('mini_lexicon.tsv')}\n"
            f"emoji_table = {data_path('emoji_polarity.tsv')}\n"
        )
        out = tmp_path / "labeled.jsonl"
        result = run_cli("--config", config, "label", clean_corpus, out)
        assert result.returncode == 0

    def test_missing_config_exit_2(self, clean_corpus, tmp_path):
        result = run_cli(
            "--config", tmp_path / "none.ini", "label", clean_corpus,
            tmp_path / "out.jsonl",
        )
        assert result.returncode == 2
