"""Golden-output manifest: a small seeded pipeline must write the same bytes.

Every command of the pipeline below runs in process through `cli.main`,
in a scratch directory and with relative paths, so that no absolute path
reaches an output. The manifest records the SHA-256 of every file written
and of each command's stdout and stderr, and each command's exit code.
`tests/golden.json` holds the expected manifest; a mismatch names every
entry that moved.

Float outputs carry the same caveat as the pinned checkpoint hashes in
test_cli.py: numpy 64-bit float arithmetic on x86-64 with OpenBLAS. A
change that moves an output on purpose rewrites the manifest with

    PYTHONPATH=src python tests/test_golden.py

and says which entries moved and why.
"""

import hashlib
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from flamewatch.cli import main

GOLDEN = Path(__file__).with_name("golden.json")

SMALL_EMBED = ["--dim", "12", "--epochs", "2", "--window", "2", "--negatives", "2",
               "--min-count", "1"]
SMALL_CLF = ["--epochs", "2", "--filters", "4", "--lstm-hidden", "4", "--dense", "8", "4",
             "--val-split", "0.2", "--max-tokens", "12"]

# (step name, argv after the global --seed, files the step writes)
PIPELINE = [
    ("make-fixture-synthetic", ["make-fixture", "raw.jsonl", "--comments", "300"],
     ["raw.jsonl"]),
    ("make-fixture-flaming", ["make-fixture", "flaming_raw.jsonl", "--kind", "flaming"],
     ["flaming_raw.jsonl"]),
    ("preprocess", ["preprocess", "raw.jsonl", "clean.jsonl"], ["clean.jsonl"]),
    ("label", ["label", "clean.jsonl", "labeled.jsonl"], ["labeled.jsonl"]),
    ("preprocess-flaming", ["preprocess", "flaming_raw.jsonl", "flaming_clean.jsonl"],
     ["flaming_clean.jsonl"]),
    ("label-flaming", ["label", "flaming_clean.jsonl", "flaming_labeled.jsonl"],
     ["flaming_labeled.jsonl"]),
    ("train-embed-word2vec",
     ["train-embed", "clean.jsonl", "word2vec.vec", "--method", "word2vec", *SMALL_EMBED],
     ["word2vec.vec"]),
    ("train-embed-fasttext",
     ["train-embed", "clean.jsonl", "fasttext.vec", "--method", "fasttext", *SMALL_EMBED,
      "--buckets", "4096"],
     ["fasttext.vec"]),
    ("train-clf-frozen",
     ["train-clf", "labeled.jsonl", "frozen.ckpt", "--embeddings", "word2vec.vec",
      *SMALL_CLF],
     ["frozen.ckpt"]),
    ("train-clf-fine-tune",
     ["train-clf", "labeled.jsonl", "tuned.ckpt", "--embeddings", "fasttext.vec",
      *SMALL_CLF, "--fine-tune"],
     ["tuned.ckpt"]),
    ("predict-frozen", ["predict", "clean.jsonl", "pred_frozen.jsonl", "--model", "frozen.ckpt"],
     ["pred_frozen.jsonl"]),
    ("predict-fine-tune", ["predict", "clean.jsonl", "pred_tuned.jsonl", "--model", "tuned.ckpt"],
     ["pred_tuned.jsonl"]),
    ("evaluate-frozen", ["evaluate", "labeled.jsonl", "--model", "frozen.ckpt"], []),
    ("evaluate-fine-tune", ["evaluate", "labeled.jsonl", "--model", "tuned.ckpt"], []),
    ("detect-day", ["detect", "flaming_labeled.jsonl", "day", "--width", "day"],
     ["day/events.json", "day/timeseries.csv"]),
    ("detect-hour", ["detect", "flaming_labeled.jsonl", "hour", "--width", "hour"],
     ["hour/events.json", "hour/timeseries.csv"]),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_pipeline(workdir) -> dict:
    """The manifest of one seeded pipeline run inside `workdir`."""
    manifest = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, argv, outputs in PIPELINE:
            out, err = StringIO(), StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(["--seed", "5", *argv])
            manifest[f"{name}.exit"] = code
            manifest[f"{name}.stdout"] = _sha256(out.getvalue().encode("utf-8"))
            manifest[f"{name}.stderr"] = _sha256(err.getvalue().encode("utf-8"))
            for output in outputs:
                manifest[f"{name}:{output}"] = _sha256(Path(output).read_bytes())
    finally:
        os.chdir(cwd)
    return manifest


def test_pipeline_outputs_match_golden_manifest(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = run_pipeline(tmp_path)
    moved = sorted(k for k in expected.keys() | actual.keys()
                   if expected.get(k) != actual.get(k))
    assert not moved, f"golden entries moved: {', '.join(moved)}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        manifest = run_pipeline(scratch)
    GOLDEN.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.exit(0)
