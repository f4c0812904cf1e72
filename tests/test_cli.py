"""Exit codes, summaries and small end-to-end runs of the command line."""

import argparse
import dataclasses
import hashlib
import inspect
import io
import json
import os
import resource
import struct
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from flamewatch import (data_path, embeddings, fixtures, flaming, lexicon, metrics, network,
                        preprocess)
from flamewatch.cli import build_parser, main
from flamewatch.embeddings import EmbedConfig, EmbeddingMatrix, SubwordConfig, Vocabulary
from flamewatch.fixtures import synthetic_comments
from flamewatch.network import ModelConfig, SentimentNet, param_shapes
from flamewatch.preprocess import CleanComment, write_jsonl

from conftest import make_clean, ten_letter_sentences


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "flamewatch.cli", *map(str, args)],
        capture_output=True, text=True, **kwargs,
    )


def run_capped(*args):
    """run_cli in a child whose address space is capped at 2 GiB, so that an
    unbounded allocation fails there rather than paging the host."""
    def cap():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        limit = 2 ** 31 if hard == resource.RLIM_INFINITY else min(2 ** 31, hard)
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    # one BLAS thread, whose buffers fit under the cap on a many-core host
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    return run_cli(*args, preexec_fn=cap, env=env)


@pytest.fixture(scope="module")
def raw_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "raw.jsonl"
    write_jsonl(synthetic_comments(n_comments=80, seed=3), path)
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

    def test_every_non_blank_line_is_kept_dropped_or_an_error(self, tmp_path, capsys):
        good = [json.dumps(r, ensure_ascii=False) for r in synthetic_comments(10, seed=4)]
        url_only = _edit_record(lambda o: o.update(message="https://example.com/x"))
        lines = [
            *good[:4], "", "{not json", _insert_byte_ff(good[4]), "   ",
            _edit_record(lambda o: o.update(message=5))(good[5]), url_only(good[6]),
            *good[7:],
        ]
        raw = tmp_path / "raw.jsonl"
        raw.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")
        assert main(["preprocess", str(raw), str(tmp_path / "clean.jsonl")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert (summary["kept"], summary["dropped"], summary["line_errors"]) == (7, 1, 3)
        non_blank = sum(1 for line in raw.read_bytes().splitlines() if line.strip())
        assert summary["kept"] + summary["dropped"] + summary["line_errors"] == non_blank


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

    @pytest.mark.parametrize("message", ["TERRIBLE", "TERRIBLE!"])
    def test_strict_non_positive_denominator_exit_2(self, tmp_path, capsys, message):
        # N=1 and C=-1 give a zero signed denominator; the "!" (S=-1) a negative one
        records = synthetic_comments(3, seed=1)
        records[1].update(comment_id="c-strict", message=message)
        raw, clean = tmp_path / "raw.jsonl", tmp_path / "clean.jsonl"
        write_jsonl(records, raw)
        assert main(["preprocess", str(raw), str(clean)]) == 0
        out = tmp_path / "labeled.jsonl"
        assert main(["label", str(clean), str(out)]) == 0
        capsys.readouterr()
        assert main(["label", str(clean), str(tmp_path / "strict.jsonl"), "--strict-eq1"]) == 2
        assert "error: comment c-strict: signed denominator" in capsys.readouterr().err

    @pytest.mark.parametrize("max_n", [0, -1])
    def test_max_n_below_one_exit_2(self, clean_corpus, tmp_path, capsys, max_n):
        out = tmp_path / "labeled.jsonl"
        assert main(["label", str(clean_corpus), str(out), "--max-n", str(max_n)]) == 2
        assert f"error: max_n {max_n} must be an integer >= 1" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize("argv, message", [
        (["in.jsonl", "--model", "m.ckpt", "--key", "lexicon"],
         "--key applies only to --matrix-json"),
        (["in.jsonl", "--model", "m.ckpt", "--matrix-json", "m.json"],
         "--matrix-json takes neither --model nor INPUT"),
    ], ids=["key-without-matrix", "matrix-with-model"])
    def test_ignored_flags_exit_2(self, capsys, argv, message):
        # refused before any file is opened, so none of these paths need exist
        assert main(["evaluate", *argv]) == 2
        assert f"error: {message}\n" in capsys.readouterr().err

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

    def test_output_dir_is_a_file_exit_2(self, labeled_corpus, tmp_path, capsys):
        out = tmp_path / "report"
        out.write_text("previous\n")
        assert main(["detect", str(labeled_corpus), str(out)]) == 2
        assert f"error: output directory is not a directory: {out}" in capsys.readouterr().err
        assert out.read_text() == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report"]

    @pytest.fixture(scope="class")
    def flaming_labeled(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("flaming")
        assert main(["make-fixture", str(d / "raw.jsonl"), "--kind", "flaming"]) == 0
        assert main(["preprocess", str(d / "raw.jsonl"), str(d / "clean.jsonl")]) == 0
        assert main(["label", str(d / "clean.jsonl"), str(d / "labeled.jsonl")]) == 0
        return d / "labeled.jsonl"

    @pytest.mark.parametrize("value", ["inf", "nan", "-1", "0"])
    def test_bad_window_hours_exit_2(self, flaming_labeled, tmp_path, capsys, value):
        code = main(["detect", str(flaming_labeled), str(tmp_path / "report"),
                     "--window-hours", value])
        assert code == 2
        assert (f"error: window_hours {float(value)!r} must be a number in (0, inf)"
                in capsys.readouterr().err)
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("flag", ["--z-threshold", "--share-threshold"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_exit_2(self, flaming_labeled, tmp_path, capsys, flag,
                                         value):
        code = main(["detect", str(flaming_labeled), str(tmp_path / "report"),
                     f"{flag}={value}"])
        assert code == 2
        name = flag[2:].replace("-", "_")
        assert (f"error: {name} {float(value)!r} must be a number in (-inf, inf)"
                in capsys.readouterr().err)
        assert not (tmp_path / "report").exists()

    def test_huge_window_hours_holds_every_vn_comment(self, flaming_labeled, tmp_path,
                                                      capsys):
        code = main(["detect", str(flaming_labeled), str(tmp_path / "report"),
                     "--window-hours", "1e9"])
        assert code == 0
        events = json.loads(capsys.readouterr().out)["events"]
        assert events and all(e["burst"]["contained"] == e["vn_count"] for e in events)

    @pytest.mark.parametrize("flags", [[], ["--include-negative", "--sample-std"]])
    def test_summary_reports_count_mean_and_std(self, flaming_labeled, tmp_path, capsys,
                                                flags):
        code = main(["detect", str(flaming_labeled), str(tmp_path / "report"), *flags])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        stats = flaming.post_stats(lexicon.load_labeled_jsonl(flaming_labeled))
        zs = flaming.zscores(stats, sample_std=bool(flags), include_negative=bool(flags))
        assert (summary["count_mean"], summary["count_std"]) == (zs.mean, zs.std)
        counts = {s.post_id: s.count(bool(flags)) for s in stats}
        assert summary["events"]
        for e in summary["events"]:
            assert e["count"] == counts[e["post_id"]]
            assert e["z"] == pytest.approx((e["count"] - zs.mean) / zs.std, abs=1e-12)
        report = json.loads((tmp_path / "report" / "events.json").read_text())
        assert report == {"events": summary["events"]}

    def test_too_few_posts_to_flag_says_so(self, flaming_labeled, tmp_path, capsys):
        # 21 posts allow z = sqrt(20) = 4.47 at most, below the default 5, even
        # for one post at 31 Very-Negative comments over twenty at 1
        counts = [1] * 20 + [31]
        labeled = [
            lexicon.LabeledComment(make_clean(["tok"], post_id=f"p{i:02d}", comment_id=f"c{i}-{k}"),
                                   -2.0, lexicon.SentimentLabel.VERY_NEGATIVE)
            for i, count in enumerate(counts) for k in range(count)
        ]
        few = tmp_path / "few.jsonl"
        lexicon.save_labeled_jsonl(labeled, few)
        assert main(["detect", str(few), str(tmp_path / "report")]) == 0
        out, err = capsys.readouterr()
        assert err == ("warning: no post can be flagged: the largest z-score 21 posts allow "
                       "is 4.47214, not above --z-threshold 5\n")
        assert json.loads(out)["events"] == []
        assert main(["detect", str(few), str(tmp_path / "r2"), "--z-threshold", "4.4"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert [e["post_id"] for e in json.loads(out)["events"]] == ["p20"]
        assert main(["detect", str(few), str(tmp_path / "r3"), "--z-threshold", "4.4",
                     "--sample-std"]) == 0
        assert "the largest z-score 21 posts allow is 4.36436, not above --z-threshold 4.4\n" in (
            capsys.readouterr().err)
        # the 200 posts of the flaming fixture can pass the default threshold
        assert main(["detect", str(flaming_labeled), str(tmp_path / "r4")]) == 0
        assert capsys.readouterr().err == ""

    def test_one_walk_for_the_events_and_one_zscores(self, flaming_labeled, tmp_path,
                                                     monkeypatch):
        calls = {"zscores": 0, "walks": 0}

        class CountedWalks(list):
            def __iter__(self):
                calls["walks"] += 1
                return super().__iter__()

        load, zscores = lexicon.load_labeled_jsonl, flaming.zscores
        monkeypatch.setattr(lexicon, "load_labeled_jsonl", lambda p: CountedWalks(load(p)))

        def counted_zscores(*args, **kwargs):
            calls["zscores"] += 1
            return zscores(*args, **kwargs)

        monkeypatch.setattr(flaming, "zscores", counted_zscores)
        assert main(["detect", str(flaming_labeled), str(tmp_path / "report")]) == 0
        # post_stats for the events, aggregate for the time series
        assert calls == {"zscores": 1, "walks": 2}


class TestHostileSizes:
    """Sizes that would ask for gigabytes exit 2 naming the field or the span, in a
    child capped at 2 GiB, and write nothing; a size whose memory follows the
    input instead runs there."""

    @pytest.mark.parametrize("flags, field", [
        (["--lstm-hidden", "100000000"], "lstm_hidden"),
        (["--dense", "1000000000", "4"], "dense_sizes[0]"),
        (["--filters", "1000000000"], "filters"),
    ])
    def test_train_clf_parameter_budget(self, labeled_corpus, tmp_path, flags, field):
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("1 2\ngood 0.5 -0.5\n")
        result = run_capped("train-clf", labeled_corpus, tmp_path / "m.ckpt",
                            "--embeddings", vectors, *flags)
        assert result.returncode == 2
        assert result.stderr.startswith("error: ")
        assert "exceed MAX_PARAMETERS 16777216" in result.stderr
        assert result.stderr.endswith(f"is sized by {field}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["vectors.txt"]

    def test_train_embed_dim_bound(self, clean_corpus, tmp_path):
        result = run_capped("train-embed", clean_corpus, tmp_path / "v.txt", "--dim", "100000000")
        assert result.returncode == 2
        assert result.stderr == "error: dim 100000000 outside [1, 4096]\n"
        assert list(tmp_path.iterdir()) == []

    def test_train_embed_bucket_table_bound(self, tmp_path):
        # 4000 ten-letter words hash to over 65,536 buckets, whose rows at
        # --dim 4096 would hold more than 2 GiB
        sentences = ten_letter_sentences()
        corpus = tmp_path / "words.jsonl"
        preprocess.save_clean_jsonl(
            [make_clean(s, comment_id=f"c{i}") for i, s in enumerate(sentences)], corpus)
        vocab = embeddings.build_vocab(sentences)
        seen = np.unique(embeddings._hash_ngrams(vocab.id_to_token, 3, 6, 2 ** 21)[0]).size
        result = run_capped("train-embed", corpus, tmp_path / "v.txt",
                            "--method", "fasttext", "--dim", "4096")
        assert result.returncode == 2
        assert result.stderr == (f"error: {seen} seen n-gram buckets x 4096 dims exceed "
                                 "MAX_TABLE_VALUES 268435456; lower --dim or --buckets\n")
        assert [p.name for p in tmp_path.iterdir()] == ["words.jsonl"]

    def test_train_embed_default_buckets_at_dim_4096(self, clean_corpus, tmp_path):
        # the stored rows follow the vocabulary, not the 2**21 default buckets,
        # whose whole table at 4096 dims would be 64 GiB
        result = run_capped("train-embed", clean_corpus, tmp_path / "v.txt",
                            "--method", "fasttext", "--dim", "4096", "--epochs", "1")
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["dim"] == 4096
        assert (tmp_path / "v.txt").read_bytes().split(b"\n", 1)[0].endswith(b" 4096")

    def test_detect_stray_timestamp(self, labeled_corpus, tmp_path):
        stray = tmp_path / "stray.jsonl"
        _rewrite_line(labeled_corpus, stray, 1,
                      _edit_record(lambda o: o.update(created_time="0001-01-01T00:00:00Z")))
        result = run_capped("detect", stray, tmp_path / "report", "--width", "day")
        assert result.returncode == 2
        assert result.stderr.startswith("error: comments from 0001-01-01T00:00:00Z to 2018-")
        assert result.stderr.endswith(" day buckets, above MAX_BUCKETS 262144\n")
        assert [p.name for p in tmp_path.iterdir()] == ["stray.jsonl"]

    def test_non_finite_checkpoint(self, clean_corpus, tiny_checkpoint, tmp_path):
        model = SentimentNet.load(tiny_checkpoint)
        model.params["lstm_fwd_wh"][0, 0] = np.inf
        bad = tmp_path / "inf.ckpt"
        model.save(bad)
        result = run_capped("predict", clean_corpus, tmp_path / "pred.jsonl", "--model", bad)
        assert result.returncode == 2
        assert result.stderr == (f"error: checkpoint {bad}: tensor lstm_fwd_wh holds a value "
                                 "that is not finite\n")
        assert not (tmp_path / "pred.jsonl").exists()


# Options whose dest differs from the name of the config field they set, and the
# options that set no config field (paths, the method, and train()'s arguments).
# embed_dim comes from the vectors file; seed from the global --seed.
CONFIG_FLAGS = {
    "train-clf": (["in", "out", "--embeddings", "v"], (ModelConfig,),
                  {"dense": "dense_sizes", "lr": "learning_rate",
                   "fine_tune": "fine_tune_embeddings"},
                  {"input", "output", "embeddings", "epochs", "val_split"}),
    "train-embed": (["in", "out"], (EmbedConfig, SubwordConfig),
                    {"lr": "initial_lr", "subword_min_n": "min_n", "subword_max_n": "max_n"},
                    {"input", "output", "method"}),
}


@pytest.mark.parametrize("command", sorted(CONFIG_FLAGS))
def test_each_config_field_has_exactly_one_flag(command):
    argv, configs, aliases, others = CONFIG_FLAGS[command]
    dests = vars(build_parser().parse_args([command, *argv]))
    set_fields = [aliases.get(d, d) for d in dests if d not in others | {"command", "func"}]
    fields = [f.name for c in configs for f in dataclasses.fields(c) if f.name != "embed_dim"]
    assert sorted(set_fields) == sorted(fields)


# Each command's arguments, by flag (or positional name), with the type each takes:
# a dest may be renamed, but not a flag that a user types.
ARGUMENTS = {
    None: {"--seed": "int"},
    "preprocess": {"input": "str", "output": "str"},
    "label": {"input": "str", "output": "str", "--lexicon": "str", "--emoji-table": "str",
              "--max-n": "int", "--strict-eq1": "flag"},
    "train-embed": {"input": "str", "output": "str", "--method": "word2vec|fasttext",
                    "--dim": "int", "--window": "int", "--negatives": "int", "--epochs": "int",
                    "--lr": "float", "--min-count": "int", "--subword-min-n": "int",
                    "--subword-max-n": "int", "--buckets": "int"},
    "train-clf": {"input": "str", "output": "str", "--embeddings": "str", "--epochs": "int",
                  "--val-split": "float", "--max-tokens": "int", "--filters": "int",
                  "--kernel": "int", "--lstm-hidden": "int", "--dense": "int 2",
                  "--dropout-lstm": "float", "--dropout-dense": "float",
                  "--batch-size": "int", "--lr": "float", "--fine-tune": "flag"},
    "predict": {"input": "str", "output": "str", "--model": "str"},
    "evaluate": {"input": "str ?", "--model": "str", "--matrix-json": "str", "--key": "str",
                 "--orientation": "standard|paper"},
    "detect": {"input": "str", "output_dir": "str", "--z-threshold": "float",
               "--share-threshold": "float", "--window-hours": "float",
               "--width": "day|hour", "--sample-std": "flag", "--include-negative": "flag"},
    "make-fixture": {"output": "str", "--kind": "synthetic|flaming", "--comments": "int"},
}


def _arguments(parser):
    """{flag or positional name: type} of the parser's own arguments; and its
    subcommands' parsers by name."""
    arguments, commands = {}, {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            commands = action.choices
        elif not isinstance(action, argparse._HelpAction):
            kind = "|".join(action.choices or ()) or getattr(action.type, "__name__", "str")
            kind = {0: "flag", None: kind}.get(action.nargs, f"{kind} {action.nargs}")
            arguments["/".join(action.option_strings) or action.dest] = kind
    return arguments, commands


def test_flags_and_types_are_pinned():
    top, commands = _arguments(build_parser())
    found = {None: top, **{name: _arguments(p)[0] for name, p in commands.items()}}
    assert found == ARGUMENTS


# the commands that read the global --seed
SEEDED_COMMANDS = ("train-embed", "train-clf", "make-fixture")


def _numeric_options():
    """(command, option) for every int or float option of every command, and for
    the global --seed under each command that reads it."""
    parser = build_parser()

    def numeric(p):
        return [a for a in p._actions if a.option_strings and a.type in (int, float)]

    _, commands = _arguments(parser)
    return ([(command, a) for command in SEEDED_COMMANDS for a in numeric(parser)]
            + [(command, a) for command, p in commands.items() for a in numeric(p)])


@pytest.mark.parametrize("command, option", [
    pytest.param(command, option, id=f"{command}{option.option_strings[0]}")
    for command, option in _numeric_options()
])
def test_bad_numeric_option_exit_2_names_the_field(clean_corpus, labeled_corpus, tmp_path,
                                                   capsys, command, option):
    # an int option gets -5 and a float option nan; each is refused with one
    # line that names the option's field and repeats the value
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("1 2\ngood 0.5 -0.5\n")
    out = tmp_path / "out"
    inputs = {"label": [clean_corpus, out],
              "train-embed": [clean_corpus, out, "--method", "fasttext"],
              "train-clf": [labeled_corpus, out, "--embeddings", vectors],
              "detect": [labeled_corpus, out], "make-fixture": [out]}[command]
    value = "-5" if option.type is int else "nan"
    flags = [option.option_strings[0], *[value] * (option.nargs or 1)]
    argv = ([*flags, command, *inputs] if option.dest == "seed"
            else [command, *inputs, *flags])
    assert main(list(map(str, argv))) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert option.dest in err and f" {value} " in err
    assert list(tmp_path.iterdir()) == [vectors]


@pytest.mark.parametrize("command", sorted(_arguments(build_parser())[1]))
def test_negative_seed_refused_by_every_command(raw_corpus, clean_corpus, labeled_corpus,
                                                tmp_path, capsys, command):
    # the global --seed is checked before any command runs, so a command that
    # draws nothing refuses it as train-embed does, and writes nothing
    matrix = tmp_path / "matrix.json"
    matrix.write_text('{"class_names": ["a", "b"], "counts": [[1, 0], [0, 1]]}')
    out = tmp_path / "out"
    inputs = {"preprocess": [raw_corpus, out], "label": [clean_corpus, out],
              "train-embed": [clean_corpus, out],
              "train-clf": [labeled_corpus, out, "--embeddings", matrix],
              "predict": [clean_corpus, out, "--model", matrix],
              "evaluate": ["--matrix-json", matrix], "detect": [labeled_corpus, out],
              "make-fixture": [out]}[command]
    assert main(list(map(str, ["--seed", "-5", command, *inputs]))) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: seed -5 must be an integer >= 0\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [matrix]


class TestDefaultsAreTheLibrarys:
    """With no options, each command builds the library's default config (and
    the default global --seed, 0). Configs are captured where they are used."""

    @pytest.mark.parametrize("method", ["word2vec", "fasttext"])
    def test_train_embed(self, clean_corpus, tmp_path, monkeypatch, capsys, method):
        built = []

        def train(sentences, *configs):
            built.extend(configs)
            return SimpleNamespace(vocab=[], dim=0, epoch_losses=[])

        monkeypatch.setattr(embeddings, f"train_{method}", train)
        monkeypatch.setattr(embeddings, "save_embeddings", lambda matrix, path: None)
        argv = ["train-embed", str(clean_corpus), str(tmp_path / "v"), "--method", method]
        assert main(argv) == 0
        subword = [SubwordConfig()] if method == "fasttext" else []
        assert built == [EmbedConfig(seed=0), *subword]

    def test_train_clf(self, labeled_corpus, tmp_path, monkeypatch, capsys):
        built = []
        defaults = inspect.signature(network.SentimentNet.train).parameters

        class Net:
            def __init__(self, config, matrix):
                built.append(config)

            def train(self, data, epochs, val_split):
                built.append({"epochs": epochs, "val_split": val_split})
                return network.TrainReport()

            def save(self, path):
                pass

            def num_parameters(self):
                return 0

        monkeypatch.setattr(embeddings, "load_embeddings", lambda path: SimpleNamespace(dim=7))
        monkeypatch.setattr(network, "SentimentNet", Net)
        argv = ["train-clf", str(labeled_corpus), str(tmp_path / "m"), "--embeddings", "v"]
        assert main(argv) == 0
        assert built == [ModelConfig(embed_dim=7, seed=0),
                         {name: defaults[name].default for name in ("epochs", "val_split")}]

    def test_label(self, clean_corpus, tmp_path, monkeypatch, capsys):
        load, seen = lexicon.load_lexicon, []

        def load_lexicon(path, max_n):
            seen.append(max_n)
            return load(path, max_n)

        monkeypatch.setattr(lexicon, "load_lexicon", load_lexicon)
        assert main(["label", str(clean_corpus), str(tmp_path / "labeled.jsonl")]) == 0
        assert seen == [lexicon.Lexicon.max_n]
        assert inspect.signature(load).parameters["max_n"].default == lexicon.Lexicon.max_n

    def test_detect(self, labeled_corpus, tmp_path, monkeypatch, capsys):
        detect, passed = flaming.detect, []

        def spy(stats, zs, *thresholds):
            passed.append(thresholds)
            return detect(stats, zs, *thresholds)

        monkeypatch.setattr(flaming, "detect", spy)
        assert main(["detect", str(labeled_corpus), str(tmp_path / "report")]) == 0
        defaults = inspect.signature(detect).parameters
        names = ("z_threshold", "share_threshold", "window_hours")
        assert passed == [tuple(defaults[name].default for name in names)]
        burst = inspect.signature(flaming.burst_profile).parameters["window_hours"]
        assert burst.default == defaults["window_hours"].default

    def test_make_fixture(self, tmp_path, monkeypatch, capsys):
        counts = []
        monkeypatch.setattr(fixtures, "synthetic_comments",
                            lambda n_comments, seed: counts.append(n_comments) or [])
        assert main(["make-fixture", str(tmp_path / "raw.jsonl")]) == 0
        default = inspect.signature(synthetic_comments).parameters["n_comments"].default
        assert counts == [default]


def test_make_fixture_comments_with_flaming_exit_2(tmp_path, capsys):
    out = tmp_path / "raw.jsonl"
    assert main(["make-fixture", str(out), "--kind", "flaming", "--comments", "5"]) == 2
    assert "error: --comments applies only to --kind synthetic" in capsys.readouterr().err
    assert not out.exists()


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
        summary = json.loads(result.stdout)
        assert summary["examples"] > 0
        assert len(summary["val_loss"]) == len(summary["val_accuracy"]) == 1
        assert 0.0 <= summary["val_accuracy"][0] <= 1.0

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

    def test_bad_embeddings_error_names_the_file(self, labeled_corpus, tmp_path, capsys):
        bad = tmp_path / "bad.vec"
        bad.write_text("2 3\nword 0.1 0.2 0.3\nother 0.1 0.2\n")
        code = main(["train-clf", str(labeled_corpus), str(tmp_path / "m.ckpt"),
                     "--embeddings", str(bad)])
        assert code == 2
        assert f"error: {bad}: line 3: expected 3 components, got 2" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    def test_non_finite_embedding_exit_2_names_the_line(self, labeled_corpus, tmp_path,
                                                         capsys):
        bad = tmp_path / "nan.vec"
        bad.write_text("2 3\nword 0.1 0.2 0.3\nother 0.1 nan 0.3\n")
        code = main(["train-clf", str(labeled_corpus), str(tmp_path / "m.ckpt"),
                     "--embeddings", str(bad)])
        assert code == 2
        assert (f"error: {bad}: line 3: component 2 is not finite: nan\n"
                in capsys.readouterr().err)
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("flag, value, field", [
        ("--window", 0, "window"), ("--epochs", 0, "epochs"),
        ("--negatives", -1, "negatives"), ("--negatives", 10 ** 9, "negatives"),
        ("--lr", 0, "initial_lr"),
    ])
    def test_out_of_range_embed_option_exit_2(self, clean_corpus, tmp_path, capsys,
                                              flag, value, field):
        code = main(["train-embed", str(clean_corpus), str(tmp_path / "v.txt"),
                     flag, str(value)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {field} ")

    @pytest.mark.parametrize("method", ["word2vec", "fasttext"])
    @pytest.mark.parametrize("lr, message", [
        ("inf", "initial_lr inf must be a number in (0, inf)"),
        ("1e308", "training diverged at initial_lr 1e+308: "
                  "the vectors or epoch losses are not finite"),
    ], ids=["inf", "diverges"])
    def test_non_finite_lr_or_vectors_exit_2(self, clean_corpus, tmp_path, capsys, lr,
                                             message, method):
        # no vectors file that load_embeddings would refuse, and no NaN in the summary
        out = tmp_path / "v.txt"
        code = main(["train-embed", str(clean_corpus), str(out), "--method", method,
                     "--dim", "8", "--epochs", "1", "--min-count", "1", "--buckets", "1024",
                     "--lr", lr])
        assert code == 2
        captured = capsys.readouterr()
        assert f"error: {message}\n" in captured.err and captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("method", ["word2vec", "fasttext"])
    def test_diverging_run_prints_only_its_error_line(self, clean_corpus, tmp_path, method):
        # a child process, so that numpy's RuntimeWarnings would reach stderr
        result = run_cli("train-embed", clean_corpus, tmp_path / "v.txt", "--method", method,
                         "--dim", "8", "--epochs", "1", "--min-count", "1",
                         "--buckets", "1024", "--lr", "1e308")
        assert result.returncode == 2
        assert result.stderr == ("error: training diverged at initial_lr 1e+308: "
                                 "the vectors or epoch losses are not finite\n")

    def test_huge_max_tokens_exit_2(self, labeled_corpus, tmp_path, capsys):
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("1 2\ngood 0.5 -0.5\n")
        code = main(["train-clf", str(labeled_corpus), str(tmp_path / "m.ckpt"),
                     "--embeddings", str(vectors), "--max-tokens", str(2 ** 40)])
        assert code == 2
        assert f"error: max_tokens {2 ** 40} outside [1, 1024]" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--lr", "nan", "learning_rate nan must be a number in (0, inf)"),
        ("--lr", "inf", "learning_rate inf must be a number in (0, inf)"),
        ("--lr", "-1", "learning_rate -1.0 must be a number in (0, inf)"),
        ("--lr", "0", "learning_rate 0.0 must be a number in (0, inf)"),
        ("--batch-size", "0", "batch_size 0 must be an integer >= 1"),
        ("--epochs", "0", "epochs 0 must be an integer >= 1"),
        ("--val-split", "nan", "val_split nan must be a number in [0, 1)"),
        ("--val-split", "1", "val_split 1.0 must be a number in [0, 1)"),
        ("--val-split", "-0.1", "val_split -0.1 must be a number in [0, 1)"),
        ("--lstm-hidden", "0", "lstm_hidden 0 must be an integer >= 1"),
        ("--lstm-hidden", "-1", "lstm_hidden -1 must be an integer >= 1"),
        ("--dense", "0 4", "dense_sizes[0] 0 must be an integer >= 1"),
    ])
    def test_bad_train_clf_option_exit_2(self, labeled_corpus, tmp_path, capsys,
                                         flag, value, message):
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("1 2\ngood 0.5 -0.5\n")
        code = main(["train-clf", str(labeled_corpus), str(tmp_path / "m.ckpt"),
                     "--embeddings", str(vectors), flag, *value.split()])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()


def _rewrite_line(src, dst, lineno, edit):
    """Copy a JSONL file with line `lineno` (1-based) replaced by edit(line).
    A lone surrogate "\\udcXX" that edit inserts is written as the byte 0xXX."""
    lines = src.read_text(encoding="utf-8").splitlines()
    lines[lineno - 1] = edit(lines[lineno - 1])
    dst.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")


def _insert_byte_ff(line):
    """The line with the byte 0xff, never valid in UTF-8, after its first character."""
    return line[:1] + "\udcff" + line[1:]


def _edit_record(change):
    def edit(line):
        obj = json.loads(line)
        change(obj)
        return json.dumps(obj, ensure_ascii=False)
    return edit


class TestRecordLineErrors:
    """Clean and labeled JSONL inputs: a bad line exits 2 and names its line."""

    CASES = {
        "missing-tokens": (5, _edit_record(lambda o: o.pop("tokens")),
                           "line 5: missing field 'tokens'"),
        "missing-original-text": (9, _edit_record(lambda o: o.pop("original_text")),
                                  "line 9: missing field 'original_text'"),
        "flag-length": (7, _edit_record(lambda o: o["caps_flags"].append(True)),
                        "line 7: caps_flags and exclaim_flags need"),
        "bad-json": (21, lambda line: line[:-1], "line 21: bad JSON"),
        "int-post-id": (3, _edit_record(lambda o: o.update(post_id=7)),
                        "line 3: post_id must be a string, got int"),
        "empty-comment-id": (4, _edit_record(lambda o: o.update(comment_id="")),
                             "line 4: empty comment_id"),
        "string-tokens": (6, _edit_record(lambda o: o.update(tokens="abc")),
                          "line 6: tokens must be a list of str"),
        "number-emoji": (10, _edit_record(lambda o: o.update(emojis=[1])),
                         "line 10: emojis must be a list of str"),
        "string-flags": (8, _edit_record(
            lambda o: o.update(caps_flags=["false"] * len(o["tokens"]))),
            "line 8: caps_flags must be a list of bool"),
        "number-flags": (11, _edit_record(
            lambda o: o.update(exclaim_flags=[0] * len(o["tokens"]))),
            "line 11: exclaim_flags must be a list of bool"),
        "null-original-text": (12, _edit_record(lambda o: o.update(original_text=None)),
                               "line 12: original_text must be a string, got NoneType"),
        "non-utf8": (13, _insert_byte_ff,
                     "line 13: 'utf-8' codec can't decode byte 0xff in position 1"),
    }
    # fields of a labeled record only
    LABELED_CASES = {
        "float-label": (2, _edit_record(lambda o: o.update(label=3.9)),
                        "line 2: label must be an integer 0-4, got 3.9"),
        "string-label": (3, _edit_record(lambda o: o.update(label="4")),
                         "line 3: label must be an integer 0-4, got '4'"),
        "bool-label": (4, _edit_record(lambda o: o.update(label=True)),
                       "line 4: label must be an integer 0-4, got True"),
        "label-5": (5, _edit_record(lambda o: o.update(label=5)),
                    "line 5: label must be an integer 0-4, got 5"),
        "missing-label": (6, _edit_record(lambda o: o.pop("label")),
                          "line 6: missing field 'label'"),
        "string-score": (7, _edit_record(lambda o: o.update(score="0.5")),
                         "line 7: score must be a finite number, got '0.5'"),
        "nan-score": (8, lambda line: line.replace('"score": ', '"score": NaN, "x": '),
                      "line 8: score must be a finite number, got nan"),
        "huge-score": (9, lambda line: line.replace('"score": ', '"score": 1e999, "x": '),
                       "line 9: score must be a finite number, got inf"),
        "bool-score": (10, _edit_record(lambda o: o.update(score=True)),
                       "line 10: score must be a finite number, got True"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("command, corpus", [
        ("label", "clean_corpus"), ("detect", "labeled_corpus"),
    ])
    def test_bad_line_exit_2_names_line(self, request, tmp_path, capsys, command, corpus,
                                        case):
        lineno, edit, message = self.CASES[case]
        bad = tmp_path / "bad.jsonl"
        _rewrite_line(request.getfixturevalue(corpus), bad, lineno, edit)
        assert main([command, str(bad), str(tmp_path / "out")]) == 2
        assert f"error: {bad}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("case", list(LABELED_CASES))
    @pytest.mark.parametrize("command", ["detect", "evaluate"])
    def test_bad_labeled_field_exit_2_names_line(self, labeled_corpus, tiny_checkpoint,
                                                 tmp_path, capsys, command, case):
        lineno, edit, message = self.LABELED_CASES[case]
        bad = tmp_path / "bad.jsonl"
        _rewrite_line(labeled_corpus, bad, lineno, edit)
        argv = {
            "detect": ["detect", str(bad), str(tmp_path / "out")],
            "evaluate": ["evaluate", str(bad), "--model", str(tiny_checkpoint)],
        }[command]
        assert main(argv) == 2
        assert f"error: {bad}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("reader", ["clean", "labeled", "emoji", "matrix", "vectors"])
def test_each_text_reader_names_its_bad_line(clean_corpus, labeled_corpus, tmp_path, capsys,
                                             reader):
    """One bad line in any text input that a command reads exits 2 with
    "error: <path>: line N: "."""
    bad, out = tmp_path / "bad", str(tmp_path / "out")
    if reader in ("clean", "labeled"):
        lineno = 4  # cut short, so that it is not JSON
        corpus = clean_corpus if reader == "clean" else labeled_corpus
        _rewrite_line(corpus, bad, lineno, lambda line: line[:-1])
    else:
        lineno, text = {
            "emoji": (3, "😀\t1\n😡\t-1\n🙂 1\n"),
            "matrix": (2, '{"a": {"counts": [[1]],\n  "class_names" ["x"]}}\n'),
            "vectors": (3, "2 3\nword 0.1 0.2 0.3\nother 0.1 0.2\n"),
        }[reader]
        bad.write_text(text, encoding="utf-8")
    argv = {
        "clean": ["label", str(bad), out],
        "labeled": ["detect", str(bad), out],
        "emoji": ["label", str(clean_corpus), out, "--emoji-table", str(bad)],
        "matrix": ["evaluate", "--matrix-json", str(bad)],
        "vectors": ["train-clf", str(labeled_corpus), out, "--embeddings", str(bad)],
    }[reader]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: line {lineno}: ")


def test_bad_lexicon_line_skipped_and_counted(clean_corpus, tmp_path, capsys):
    lex = tmp_path / "lex.tsv"
    lex.write_text("good\t0.5\nbad\tnot-a-number\nawful\t-0.8\n", encoding="utf-8")
    _, rejects = lexicon.load_lexicon(lex)
    assert rejects == [preprocess.LineError(2, "ValueError: bad score 'not-a-number'")]
    out = tmp_path / "labeled.jsonl"
    assert main(["label", str(clean_corpus), str(out), "--lexicon", str(lex)]) == 0
    assert json.loads(capsys.readouterr().out)["lexicon_rejects"] == 1


class TestEvaluateMatrixErrors:
    def test_unknown_key_exit_2_lists_keys(self, capsys):
        path = data_path("published_eval_matrices.json")
        code = main(["evaluate", "--matrix-json", str(path), "--key", "b"])
        assert code == 2
        assert "no key 'b'; available keys: baseline, lexicon" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["counts", "class_names"])
    def test_matrix_missing_field_exit_2_lists_keys(self, tmp_path, capsys, field):
        matrix = {"class_names": ["a", "b"], "counts": [[1, 0], [0, 1]], "note": ""}
        del matrix[field]
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"m": matrix}))
        assert main(["evaluate", "--matrix-json", str(path), "--key", "m"]) == 2
        keys = ", ".join(sorted(matrix))
        assert f"available keys: {keys}" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ('{"m":\n  {"counts": [[1]],\n   "class_names": ["\udcff"]}}\n',
         "line 3: 'utf-8' codec can't decode byte 0xff in position 20"),
        ('{"m":\n  {"counts": [[1]],,\n}}\n', "line 2: bad JSON: Expecting property name"),
        ("", "line 1: bad JSON: Expecting value (column 1)"),
    ], ids=["non-utf8", "bad-json", "empty"])
    def test_bad_matrix_file_exit_2_names_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "m.json"
        path.write_text(text, encoding="utf-8", errors="surrogateescape")
        assert main(["evaluate", "--matrix-json", str(path), "--key", "m"]) == 2
        assert f"error: {path}: {message}" in capsys.readouterr().err


# Matrix fields that once made `evaluate --matrix-json` exit 1, or exit 0 on a
# count JSON does not hold as an integer, or warn before its error line.
BAD_MATRICES = {
    "names-not-a-list": ({"class_names": 5}, "class_names must be a list of strings"),
    "names-not-strings": ({"class_names": [1, 2]}, "class_names must be a list of strings"),
    "float-count": ({"counts": [[1.5, 2], [3, 4]]}, "counts must be non-negative integers"),
    "bool-count": ({"counts": [[True, 2], [3, 4]]}, "counts must be non-negative integers"),
    "count-past-int64": ({"counts": [[10 ** 30, 0], [0, 1]]},
                         f"counts total {10 ** 30 + 1} exceeds {2 ** 63 - 1}"),
    "huge-float-count": ({"counts": [[1e30, 0], [0, 1]]}, "counts must be non-negative integers"),
    "all-zero": ({"counts": [[0, 0], [0, 0]]}, "empty confusion matrix: counts sum to 0"),
}


def _evaluate_matrix(path, counts, class_names):
    """(exit code, stdout, stderr) of `evaluate --matrix-json` on one matrix, with
    every warning raised as an error, so that a warning cannot pass unseen."""
    path.write_text(json.dumps({"counts": counts, "class_names": class_names}))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["evaluate", "--matrix-json", str(path)])
    return code, out.getvalue(), err.getvalue()


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=2),
    max_leaves=8,
)


@st.composite
def _matrices(draw):
    """A well-typed matrix of 0-4 classes, then perhaps one of its fields, rows,
    counts or names swapped for any JSON value."""
    n = draw(st.integers(0, 4))
    cells = st.integers(0, 9) | st.integers(0, 2 ** 62)
    matrix = {"counts": draw(st.lists(st.lists(cells, min_size=n, max_size=n),
                                      min_size=n, max_size=n)),
              "class_names": draw(st.lists(st.text(max_size=3), min_size=n, max_size=n))}
    where = draw(st.sampled_from(["nothing", "counts", "class_names", "row", "count", "name"]))
    value = draw(_json_values)
    if where in ("counts", "class_names"):
        matrix[where] = value
    elif n and where == "row":
        matrix["counts"][draw(st.integers(0, n - 1))] = value
    elif n and where == "count":
        matrix["counts"][draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = value
    elif n and where == "name":
        matrix["class_names"][draw(st.integers(0, n - 1))] = value
    return matrix


@pytest.fixture(scope="module")
def matrix_path(tmp_path_factory):
    return tmp_path_factory.mktemp("matrix") / "m.json"


class TestEvaluateMatrixFields:
    @pytest.mark.parametrize("case", list(BAD_MATRICES))
    def test_bad_field_exit_2_with_one_line(self, tmp_path, case):
        change, message = BAD_MATRICES[case]
        matrix = {"counts": [[1, 0], [0, 1]], "class_names": ["a", "b"], **change}
        code, out, err = _evaluate_matrix(tmp_path / "m.json", **matrix)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_published_matrices_still_read(self):
        # the type checks accept every matrix the package ships
        matrices = preprocess.read_json(data_path("published_eval_matrices.json"))
        for matrix in matrices.values():
            cm = metrics.ConfusionMatrix.from_dict(matrix)
            assert cm.counts.tolist() == matrix["counts"]
            assert cm.class_names == matrix["class_names"]

    @seed(25)
    @settings(max_examples=300, deadline=None, database=None)
    @example({"counts": [[1, 0], [0, 1]], "class_names": 5})
    @example({"counts": [[1, 0], [0, 1]], "class_names": [1, 2]})
    @example({"counts": [[1.5, 2], [3, 4]], "class_names": ["a", "b"]})
    @example({"counts": [[True, 2], [3, 4]], "class_names": ["a", "b"]})
    @example({"counts": [[10 ** 30, 0], [0, 1]], "class_names": ["a", "b"]})
    @example({"counts": [[1e30, 0], [0, 1]], "class_names": ["a", "b"]})
    @example({"counts": [[0, 0], [0, 0]], "class_names": ["a", "b"]})
    @given(_matrices())
    def test_mutated_matrix_exits_0_or_2(self, matrix_path, matrix):
        code, out, err = _evaluate_matrix(matrix_path, **matrix)
        if code == 0:
            assert all(isinstance(name, str) for name in matrix["class_names"])
            assert all(type(v) is int for row in matrix["counts"] for v in row)
            assert json.loads(out)["command"] == "evaluate"
        else:
            assert code == 2 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1


class TestAtomicOutputs:
    def test_failed_writer_leaves_previous_output(self, raw_corpus, tmp_path, monkeypatch):
        out = tmp_path / "clean.jsonl"
        out.write_text("previous\n")

        def fail(self):
            raise RuntimeError("writer failed")

        monkeypatch.setattr(CleanComment, "to_dict", fail)
        assert main(["preprocess", str(raw_corpus), str(out)]) == 1
        assert out.read_text() == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["clean.jsonl"]

    def test_failed_sidecar_leaves_previous_vectors(self, clean_corpus, tmp_path,
                                                    monkeypatch):
        # a fastText save that fails after a few rows leaves the previous
        # vectors file and no temp file
        out = tmp_path / "vectors.txt"
        out.write_text("previous\n")
        train = embeddings.train_fasttext

        def failing(sentences, config, subword=None):
            matrix = train(sentences, config, subword)

            def rows():
                yield from matrix.vectors[:3]
                raise OSError("disk full")

            matrix.vectors = rows()
            return matrix

        monkeypatch.setattr(embeddings, "train_fasttext", failing)
        code = main(["train-embed", str(clean_corpus), str(out), "--method", "fasttext",
                     "--dim", "8", "--epochs", "1", "--min-count", "1", "--buckets", "1024"])
        assert code == 1
        assert out.read_text() == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["vectors.txt"]

    def test_word2vec_output_drops_stale_sidecar(self, clean_corpus, labeled_corpus,
                                                 tmp_path):
        # fastText vectors are one file, and a corrupt ".subword" file that an
        # earlier version left beside them changes nothing in train-clf
        vectors = tmp_path / "vectors.txt"
        assert main(["train-embed", str(clean_corpus), str(vectors), "--method", "fasttext",
                     "--dim", "8", "--epochs", "1", "--min-count", "1",
                     "--buckets", "1024"]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["vectors.txt"]
        clf = ["--embeddings", str(vectors), "--epochs", "1", "--filters", "4",
               "--lstm-hidden", "4", "--dense", "8", "4", "--max-tokens", "12"]
        assert main(["train-clf", str(labeled_corpus), str(tmp_path / "a.ckpt"), *clf]) == 0
        (tmp_path / "vectors.txt.subword").write_bytes(b"XXXX\0\0\0")
        assert main(["train-clf", str(labeled_corpus), str(tmp_path / "b.ckpt"), *clf]) == 0
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    @pytest.mark.parametrize("command, name", [
        ("preprocess", "out"), ("label", "out/"), ("train-embed", "new/"), ("preprocess", ""),
    ])
    def test_output_directory_exit_2(self, request, tmp_path, capsys, monkeypatch,
                                     command, name):
        source = request.getfixturevalue("raw_corpus" if command == "preprocess"
                                         else "clean_corpus")
        (tmp_path / "out").mkdir()
        monkeypatch.chdir(tmp_path)  # an empty path would put its temp file here
        output = f"{tmp_path}/{name}" if name else ""
        argv = [command, str(source), output]
        if command == "train-embed":
            argv += ["--dim", "8", "--epochs", "1", "--min-count", "1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        message = "output path " + (f"names a directory: {output}" if name else "is empty: ''")
        assert f"error: {message}\n" in err
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert list((tmp_path / "out").iterdir()) == []

    def test_failed_write_jsonl_leaves_previous_file(self, tmp_path):
        out = tmp_path / "records.jsonl"
        out.write_text("previous\n")

        def records():
            yield {"post_id": "p1"}
            raise RuntimeError("records failed")

        with pytest.raises(RuntimeError, match="records failed"):
            write_jsonl(records(), out)
        assert out.read_text() == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["records.jsonl"]

    def test_failed_save_leaves_previous_checkpoint(self, tiny_checkpoint, tmp_path,
                                                    monkeypatch):
        model = SentimentNet.load(tiny_checkpoint)
        previous = tiny_checkpoint.read_bytes()
        # the first write into the temp file fails: bytes are required
        monkeypatch.setattr(network, "CHECKPOINT_MAGIC", None)
        with pytest.raises(TypeError):
            model.save(tiny_checkpoint)
        assert tiny_checkpoint.read_bytes() == previous
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    @pytest.mark.parametrize("command, output, directory", [
        ("preprocess", "afile/out.jsonl", "afile"), ("detect", "afile/sub", "afile/sub"),
    ])
    def test_output_under_a_file_exit_2(self, request, tmp_path, capsys, command, output,
                                        directory):
        source = request.getfixturevalue("raw_corpus" if command == "preprocess"
                                         else "labeled_corpus")
        (tmp_path / "afile").write_text("previous\n")
        assert main([command, str(source), f"{tmp_path}/{output}"]) == 2
        err = capsys.readouterr().err
        assert f"error: output directory is not a directory: {tmp_path}/{directory}\n" in err
        assert (tmp_path / "afile").read_text() == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]

    def test_huge_embedding_header_exit_2(self, labeled_corpus, tmp_path, capsys):
        vectors = tmp_path / "vectors.txt"
        row = " ".join(["0.5"] * 100)
        vectors.write_text(f"1000000000000 100\nword {row}\n")
        code = main(["train-clf", str(labeled_corpus), str(tmp_path / "m.ckpt"),
                     "--embeddings", str(vectors)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {vectors}: line 3: expected 1000000000000 vector lines" in err


# SHA-256 of the checkpoint below, trained in float32 through the forward that
# inference runs (numpy on x86-64 with OpenBLAS).
FROZEN_CHECKPOINT_SHA256 = "a027b4d79fecf361b1389a4738c6fa9f703ebce80e6b1343ec815aaea9d3d27f"


def test_frozen_embedding_checkpoint_unchanged(labeled_corpus, tmp_path):
    tokens = sorted({t for line in labeled_corpus.read_text(encoding="utf-8").splitlines()
                     for t in json.loads(line)["tokens"]})
    vectors = tmp_path / "vectors.txt"
    with open(vectors, "w", encoding="utf-8") as fh:
        fh.write(f"{len(tokens)} 6\n")
        for i, tok in enumerate(tokens):
            row = " ".join(f"{((7 * i + 3 * j) % 11 - 5) / 10:.8e}" for j in range(6))
            fh.write(f"{tok} {row}\n")
    ckpt = tmp_path / "model.ckpt"
    code = main(["--seed", "1", "train-clf", str(labeled_corpus), str(ckpt),
                 "--embeddings", str(vectors), "--epochs", "2", "--filters", "4",
                 "--lstm-hidden", "4", "--dense", "8", "4", "--val-split", "0.2",
                 "--max-tokens", "12"])
    assert code == 0
    assert hashlib.sha256(ckpt.read_bytes()).hexdigest() == FROZEN_CHECKPOINT_SHA256


# SHA-256 of the --fine-tune checkpoint below, with the same arithmetic caveat
# as FROZEN_CHECKPOINT_SHA256 (numpy on x86-64 with OpenBLAS).
FINE_TUNE_CHECKPOINT_SHA256 = "46a2309d9914385a79ee060fcc3d804e433fe320564eab1fcf36d6bcc4cb95a5"


def test_fine_tune_checkpoint_unchanged(labeled_corpus, tmp_path):
    tokens = sorted({t for line in labeled_corpus.read_text(encoding="utf-8").splitlines()
                     for t in json.loads(line)["tokens"]})
    vectors = tmp_path / "vectors.txt"
    with open(vectors, "w", encoding="utf-8") as fh:
        fh.write(f"{len(tokens)} 6\n")
        for i, tok in enumerate(tokens):
            row = " ".join(f"{((7 * i + 3 * j) % 11 - 5) / 10:.8e}" for j in range(6))
            fh.write(f"{tok} {row}\n")
    ckpt = tmp_path / "model.ckpt"
    code = main(["--seed", "1", "train-clf", str(labeled_corpus), str(ckpt),
                 "--embeddings", str(vectors), "--epochs", "2", "--filters", "4",
                 "--lstm-hidden", "4", "--dense", "8", "4", "--val-split", "0.2",
                 "--max-tokens", "12", "--fine-tune"])
    assert code == 0
    assert hashlib.sha256(ckpt.read_bytes()).hexdigest() == FINE_TUNE_CHECKPOINT_SHA256


def _rewrite_metadata(src, dst, change):
    """Copy a checkpoint with change(meta) applied to its JSON metadata."""
    blob = src.read_bytes()
    (size,) = struct.unpack("<i", blob[8:12])
    meta = json.loads(blob[12:12 + size])
    change(meta)
    text = json.dumps(meta).encode("utf-8")
    dst.write_bytes(blob[:8] + struct.pack("<i", len(text)) + text + blob[12 + size:])


def _set_config_and_tensors(**fields):
    """A metadata change that sets config fields and the tensor list they imply,
    so only the config check can refuse the checkpoint."""
    def change(meta):
        meta["config"].update(fields)
        filters, kernel = meta["config"]["conv_layers"][0]
        config = SimpleNamespace(**meta["config"], filters=filters, kernel=kernel)
        shapes = param_shapes(config, len(meta["id_to_token"]))
        meta["tensors"] = [[n, list(shapes[n])] for n in sorted(shapes)]
    return change


class TestBadCheckpoint:
    """predict --model: a truncated or malformed checkpoint exits 2 and names the file."""

    @pytest.fixture
    def checkpoint(self, tmp_path):
        vocab = Vocabulary.from_tokens(["good", "bad"])
        matrix = EmbeddingMatrix(dim=2, vocab=vocab, vectors=np.zeros((2, 2)))
        config = ModelConfig(embed_dim=2, max_tokens=6, filters=2, lstm_hidden=2,
                             dense_sizes=(4, 2))
        path = tmp_path / "model.ckpt"
        SentimentNet(config, matrix).save(path)
        return path

    def _predict(self, clean_corpus, model, tmp_path, capsys):
        code = main(["predict", str(clean_corpus), str(tmp_path / "pred.jsonl"),
                     "--model", str(model)])
        return code, capsys.readouterr().err

    def test_intact_checkpoint_predicts(self, clean_corpus, checkpoint, tmp_path, capsys):
        assert self._predict(clean_corpus, checkpoint, tmp_path, capsys)[0] == 0

    # -10 keeps 30 of the last tensor's 40 bytes: not a whole number of float32s
    @pytest.mark.parametrize("cut, section", [
        (6, "truncated header"), (20, "truncated metadata"),
        (-10, "truncated tensor out_w"),
    ])
    def test_truncated_exit_2(self, clean_corpus, checkpoint, tmp_path, capsys, cut,
                              section):
        bad = tmp_path / "cut.ckpt"
        bad.write_bytes(checkpoint.read_bytes()[:cut])
        code, err = self._predict(clean_corpus, bad, tmp_path, capsys)
        assert code == 2
        assert f"error: checkpoint {bad}: {section}" in err

    @pytest.mark.parametrize("change, detail", [
        (lambda m: m.pop("tensors"), "missing 'tensors'"),
        (lambda m: m["config"].update(colour="red"), "'colour'"),
        (lambda m: m["tensors"][0][1].append(1), "do not match the config's"),
        (lambda m: m["config"].update(classes=4), "model is fixed to 5 classes"),
        (_set_config_and_tensors(lstm_hidden=0), "lstm_hidden 0 must be an integer >= 1"),
        (lambda m: m["config"].update(pool=3), "pool 3 must be 2"),
        (lambda m: m["config"]["conv_layers"].pop(),
         "conv_layers [[2, 3], [2, 3]] must be 3 equal pairs"),
    ], ids=["no-tensors", "unknown-config-key", "shape-mismatch", "classes-4",
            "lstm-hidden-0", "pool-3", "two-conv-pairs"])
    def test_bad_metadata_exit_2(self, clean_corpus, checkpoint, tmp_path, capsys, change,
                                 detail):
        bad = tmp_path / "bad.ckpt"
        _rewrite_metadata(checkpoint, bad, change)
        code, err = self._predict(clean_corpus, bad, tmp_path, capsys)
        assert code == 2
        assert f"error: checkpoint {bad}: metadata: " in err and detail in err

    def _run(self, command, clean_corpus, labeled_corpus, model, tmp_path, capsys):
        if command == "predict":
            return self._predict(clean_corpus, model, tmp_path, capsys)
        code = main(["evaluate", str(labeled_corpus), "--model", str(model)])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_huge_config_refused_before_allocation(self, clean_corpus, labeled_corpus,
                                                   checkpoint, tmp_path, capsys, command):
        bad = tmp_path / "huge.ckpt"
        _rewrite_metadata(checkpoint, bad, lambda m: m["config"].update(embed_dim=2 ** 40))
        code, err = self._run(command, clean_corpus, labeled_corpus, bad, tmp_path, capsys)
        assert code == 2
        assert f"error: checkpoint {bad}: metadata: tensors " in err

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_huge_config_and_tensor_list_refused(self, clean_corpus, labeled_corpus,
                                                 checkpoint, tmp_path, capsys, command):
        bad = tmp_path / "huge.ckpt"
        _rewrite_metadata(checkpoint, bad, _set_config_and_tensors(embed_dim=2 ** 40))
        code, err = self._run(command, clean_corpus, labeled_corpus, bad, tmp_path, capsys)
        assert code == 2
        assert f"error: checkpoint {bad}: truncated tensor conv0_w: expected " in err

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_huge_max_tokens_refused(self, clean_corpus, labeled_corpus, checkpoint,
                                     tmp_path, capsys, command):
        # max_tokens sizes no tensor, so the stored tensor list still matches
        bad = tmp_path / "long.ckpt"
        _rewrite_metadata(checkpoint, bad, lambda m: m["config"].update(max_tokens=2 ** 40))
        code, err = self._run(command, clean_corpus, labeled_corpus, bad, tmp_path, capsys)
        assert code == 2
        assert f"error: checkpoint {bad}: metadata: max_tokens {2 ** 40} outside" in err

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_non_finite_tensor_exit_2_names_it(self, clean_corpus, labeled_corpus,
                                               checkpoint, tmp_path, capsys, command):
        model = SentimentNet.load(checkpoint)
        model.params["conv0_w"][0, 0, 0] = np.nan
        bad = tmp_path / "nan.ckpt"
        model.save(bad)
        code, err = self._run(command, clean_corpus, labeled_corpus, bad, tmp_path, capsys)
        assert code == 2
        assert f"error: checkpoint {bad}: tensor conv0_w holds a value that is not finite\n" in err
        assert not (tmp_path / "pred.jsonl").exists()

    @pytest.mark.parametrize("change, detail", [
        (lambda m: m["config"].update(seed=3.0), "seed 3.0 must be an integer >= 0"),
        (lambda m: m["config"].update(seed=-1), "seed -1 must be an integer >= 0"),
        (lambda m: m["config"].update(embed_dim=2.0),
         "embed_dim 2.0 must be an integer >= 1"),
        (lambda m: m["config"]["conv_layers"][1].__setitem__(0, 2.0),
         "conv_layers [[2, 3], [2.0, 3], [2, 3]] must be 3 equal pairs"),
        (lambda m: m["config"]["conv_layers"][0].__setitem__(1, 3.0),
         "conv_layers [[2, 3.0], [2, 3], [2, 3]] must be 3 equal pairs"),
        (lambda m: m["config"].update(conv_layers=[[2.0, 3]] * 3),
         "filters 2.0 must be an integer >= 1"),
        (lambda m: m["config"].update(conv_layers=[[2, 3.0]] * 3),
         "kernel width 3.0 must be an integer >= 1"),
    ], ids=["seed-float", "seed-negative", "embed-dim-float", "filters-float",
            "kernel-float", "filters-float-in-every-pair", "kernel-float-in-every-pair"])
    def test_bad_integer_in_config_names_the_field(self, clean_corpus, checkpoint,
                                                    tmp_path, capsys, change, detail):
        # each float equals the stored integer, so the tensor list still matches
        bad = tmp_path / "bad.ckpt"
        _rewrite_metadata(checkpoint, bad, change)
        code, err = self._predict(clean_corpus, bad, tmp_path, capsys)
        assert code == 2
        assert f"error: checkpoint {bad}: metadata: {detail}\n" in err

    @pytest.mark.parametrize("field, value, detail", [
        ("pool", True, "pool True must be 2"),
        ("batch_size", True, "batch_size True must be an integer >= 1"),
        ("seed", False, "seed False must be an integer >= 0"),
        ("fine_tune_embeddings", "no", "fine_tune_embeddings 'no' must be true or false"),
    ])
    def test_json_boolean_in_config_names_the_field(self, clean_corpus, checkpoint,
                                                    tmp_path, capsys, field, value, detail):
        # JSON true and false are Python bools, which count as the ints 1 and 0
        bad = tmp_path / "bool.ckpt"
        _rewrite_metadata(checkpoint, bad, lambda m: m["config"].update({field: value}))
        code, err = self._predict(clean_corpus, bad, tmp_path, capsys)
        assert code == 2
        assert f"error: checkpoint {bad}: metadata: {detail}\n" in err

    def test_float_size_in_config_exit_2(self, clean_corpus, checkpoint, tmp_path, capsys):
        # 2.0 == 2, so the stored tensor list still matches the config's
        bad = tmp_path / "float.ckpt"
        _rewrite_metadata(checkpoint, bad, lambda m: m["config"].update(dense_sizes=[4, 2.0]))
        code, err = self._predict(clean_corpus, bad, tmp_path, capsys)
        assert code == 2
        assert f"error: checkpoint {bad}: metadata: dense_sizes[1] 2.0 must be an integer" in err


@pytest.fixture
def tiny_checkpoint(tmp_path):
    vocab = Vocabulary.from_tokens(["good", "bad"])
    matrix = EmbeddingMatrix(dim=2, vocab=vocab, vectors=np.zeros((2, 2)))
    config = ModelConfig(embed_dim=2, max_tokens=6, filters=2, lstm_hidden=2,
                         dense_sizes=(4, 2))
    path = tmp_path / "model.ckpt"
    SentimentNet(config, matrix).save(path)
    return path


@pytest.mark.parametrize("flag, kind", [
    ("input", "missing"), ("input", "directory"), ("--model", "missing"),
    ("--model", "directory"),
])
@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_unopenable_input_exit_2_names_path(clean_corpus, labeled_corpus, tiny_checkpoint,
                                            tmp_path, capsys, command, flag, kind):
    bad = tmp_path / "bad"
    if kind == "directory":
        bad.mkdir()
    corpus = clean_corpus if command == "predict" else labeled_corpus
    source, model = (bad, tiny_checkpoint) if flag == "input" else (corpus, bad)
    out = tmp_path / "out.jsonl"
    argv = [command, str(source), *([str(out)] if command == "predict" else []),
            "--model", str(model)]
    assert main(argv) == 2
    reason = "Is a directory" if kind == "directory" else "No such file or directory"
    assert f"{reason}: '{bad}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, corpus", [
    ("label", "clean_corpus"), ("predict", "clean_corpus"), ("evaluate", "labeled_corpus"),
])
def test_empty_token_list_names_file_and_line(request, tmp_path, capsys, tiny_checkpoint,
                                              command, corpus):
    bad = tmp_path / "empty.jsonl"
    _rewrite_line(request.getfixturevalue(corpus), bad, 4, _edit_record(
        lambda o: o.update(tokens=[], caps_flags=[], exclaim_flags=[])))
    argv = {
        "label": ["label", str(bad), str(tmp_path / "out.jsonl")],
        "predict": ["predict", str(bad), str(tmp_path / "out.jsonl"),
                    "--model", str(tiny_checkpoint)],
        "evaluate": ["evaluate", str(bad), "--model", str(tiny_checkpoint)],
    }[command]
    assert main(argv) == 2
    assert f"error: {bad}: line 4: empty token list" in capsys.readouterr().err


class TestTimestampType:
    """A created_time that is not a string is a bad line, not an internal error."""

    def test_raw_line_counted_as_line_error(self, tmp_path, capsys):
        raw = tmp_path / "raw.jsonl"
        write_jsonl(synthetic_comments(n_comments=5, seed=3), raw)
        _rewrite_line(raw, raw, 2, _edit_record(lambda o: o.update(created_time=5)))
        assert main(["preprocess", str(raw), str(tmp_path / "clean.jsonl")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["kept"] == 4 and summary["line_errors"] == 1

    @pytest.mark.parametrize("command, corpus", [
        ("label", "clean_corpus"), ("detect", "labeled_corpus"),
    ])
    def test_record_line_exit_2(self, request, tmp_path, capsys, command, corpus):
        bad = tmp_path / "bad.jsonl"
        _rewrite_line(request.getfixturevalue(corpus), bad, 3,
                      _edit_record(lambda o: o.update(created_time=5)))
        assert main([command, str(bad), str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: line 3: timestamp must be an ISO-8601 string, got int" in err


class TestTimestampRange:
    """A created_time that exists only outside UTC's range is a bad line."""

    OUT_OF_RANGE = ["0001-01-01T00:00:00+01:00", "9999-12-31T23:30:00-01:00"]

    @pytest.mark.parametrize("value", OUT_OF_RANGE)
    def test_raw_line_counted_as_line_error(self, tmp_path, capsys, value):
        raw = tmp_path / "raw.jsonl"
        write_jsonl(synthetic_comments(n_comments=5, seed=3), raw)
        _rewrite_line(raw, raw, 2, _edit_record(lambda o: o.update(created_time=value)))
        assert main(["preprocess", str(raw), str(tmp_path / "clean.jsonl")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["kept"] == 4 and summary["line_errors"] == 1

    @pytest.mark.parametrize("value", OUT_OF_RANGE)
    @pytest.mark.parametrize("command, corpus", [
        ("label", "clean_corpus"), ("detect", "labeled_corpus"),
    ])
    def test_record_line_exit_2(self, request, tmp_path, capsys, command, corpus, value):
        bad = tmp_path / "bad.jsonl"
        _rewrite_line(request.getfixturevalue(corpus), bad, 3,
                      _edit_record(lambda o: o.update(created_time=value)))
        assert main([command, str(bad), str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: line 3: timestamp '{value}' is out of range in UTC" in err


@pytest.mark.parametrize("message, type_name", [
    (None, "NoneType"), (42, "int"), (["a"], "list"),
], ids=["null", "number", "list"])
def test_non_string_message_is_line_error(tmp_path, capsys, message, type_name):
    raw = tmp_path / "raw.jsonl"
    write_jsonl(synthetic_comments(n_comments=5, seed=3), raw)
    _rewrite_line(raw, raw, 4, _edit_record(lambda o: o.update(message=message)))
    clean = tmp_path / "clean.jsonl"
    assert main(["preprocess", str(raw), str(clean)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["kept"] == 4 and summary["line_errors"] == 1
    texts = [json.loads(line)["original_text"] for line in clean.read_text().splitlines()]
    assert str(message) not in texts


@pytest.mark.parametrize("edit, message", [
    (_edit_record(lambda o: o.update(post_id=["a"])),
     "TypeError: post_id must be a string, got list"),
    (_edit_record(lambda o: o.update(post_id=7)), "TypeError: post_id must be a string, got int"),
    (_edit_record(lambda o: o.update(comment_id=1.5)),
     "TypeError: comment_id must be a string, got float"),
    (_edit_record(lambda o: o.update(comment_id=None)),
     "TypeError: comment_id must be a string, got NoneType"),
    (_edit_record(lambda o: o.update(post_id="")), "ValueError: empty post_id"),
    (_insert_byte_ff, "UnicodeDecodeError: 'utf-8' codec can't decode byte 0xff in position 1:"
                      " invalid start byte"),
], ids=["list", "int", "float", "null", "empty", "non-utf8"])
def test_non_string_raw_id_is_line_error(tmp_path, capsys, edit, message):
    raw = tmp_path / "raw.jsonl"
    write_jsonl(synthetic_comments(n_comments=5, seed=3), raw)
    _rewrite_line(raw, raw, 2, edit)
    clean = tmp_path / "clean.jsonl"
    assert main(["preprocess", str(raw), str(clean)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["kept"] == 4 and summary["line_errors"] == 1
    _, errors = preprocess.load_jsonl(raw)
    assert [(e.lineno, e.message) for e in errors] == [(2, message)]


class TestSubwordLengths:
    """train-embed --method fasttext with n-gram lengths out of range."""

    ARGS = ["--method", "fasttext", "--dim", "8", "--epochs", "1", "--buckets", "4096",
            "--min-count", "1"]

    @pytest.mark.parametrize("min_n", [0, -1, -2])
    def test_min_n_below_one_exit_2(self, clean_corpus, tmp_path, capsys, min_n):
        code = main(["train-embed", str(clean_corpus), str(tmp_path / "v.txt"), *self.ARGS,
                     "--subword-min-n", str(min_n)])
        assert code == 2
        assert f"error: min_n {min_n} outside [1, 2147483647]" in capsys.readouterr().err
        assert not (tmp_path / "v.txt").exists()

    @pytest.mark.parametrize("flags, field", [
        (["--subword-max-n", "3000000000"], "max_n"),
        (["--subword-min-n", "2147483648", "--subword-max-n", "2147483648"], "min_n"),
        (["--buckets", "2147483648"], "buckets"),
    ], ids=["max_n", "min_n", "buckets"])
    def test_beyond_the_sidecar_header_exit_2(self, clean_corpus, tmp_path, capsys, flags,
                                              field):
        # refused while the config is checked, before training allocates anything
        code = main(["train-embed", str(clean_corpus), str(tmp_path / "v.txt"), *self.ARGS,
                     *flags])
        assert code == 2
        assert (f"error: {field} {flags[-1]} outside [1, 2147483647]"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    def test_huge_max_n_equals_longest_word(self, clean_corpus, tmp_path, capsys):
        tokens = [t for c in preprocess.load_clean_jsonl(clean_corpus) for t in c.tokens]
        longest = max(len(t) for t in tokens) + 2  # with the "<" and ">" padding
        out = {}
        for max_n in (longest, 10 ** 9):
            path = tmp_path / f"v{max_n}.txt"
            assert main(["train-embed", str(clean_corpus), str(path), *self.ARGS,
                         "--subword-max-n", str(max_n)]) == 0
            out[max_n] = path
        assert out[longest].read_bytes() == out[10 ** 9].read_bytes()
        sentences = [c.tokens for c in preprocess.load_clean_jsonl(clean_corpus)]
        config = embeddings.EmbedConfig(dim=8, epochs=1, min_count=1, seed=0)
        huge, capped = [
            embeddings.train_fasttext(
                sentences, config, embeddings.SubwordConfig(max_n=max_n, buckets=4096)
            ).subword
            for max_n in (10 ** 9, longest)
        ]
        assert (huge.config.max_n, capped.config.max_n) == (10 ** 9, longest)
        every = np.arange(4096)
        assert (huge.bucket_rows(every) == capped.bucket_rows(every)).all()
        assert (huge.word_raw_vectors == capped.word_raw_vectors).all()


@pytest.mark.parametrize("text, message", [
    ("🙂\t1\n😡\t-1\textra\n", "line 2: expected emoji<TAB>+1|-1"),
    ("# table\n🙂\tone\n", "line 2: expected emoji<TAB>+1|-1"),
    ("🙂\t1\n\n😡\t2\n", "line 3: emoji polarity must be +1 or -1, got 2"),
    ("🙂\t1\n\udcff\t-1\n", "line 2: 'utf-8' codec can't decode byte 0xff in position 0"),
    ("🙂\t1\n😡\t-1\n🙂\t-1\n", "line 3: emoji '🙂' repeats line 1"),
], ids=["field-count", "not-integer", "out-of-range", "non-utf8", "repeat"])
def test_bad_emoji_table_exit_2(clean_corpus, tmp_path, capsys, text, message):
    table = tmp_path / "emoji.tsv"
    table.write_text(text, encoding="utf-8", errors="surrogateescape")
    code = main(["label", str(clean_corpus), str(tmp_path / "out.jsonl"),
                 "--emoji-table", str(table)])
    assert code == 2
    assert f"error: {table}: {message}" in capsys.readouterr().err


def test_non_utf8_lexicon_exit_2(clean_corpus, tmp_path, capsys):
    lex = tmp_path / "lexicon.tsv"
    lex.write_text("good\t0.5\nb\udcffd\t-0.5\n", encoding="utf-8", errors="surrogateescape")
    code = main(["label", str(clean_corpus), str(tmp_path / "out.jsonl"),
                 "--lexicon", str(lex)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {lex}: line 2: 'utf-8' codec can't decode byte 0xff in position 1" in err
    assert not (tmp_path / "out.jsonl").exists()
