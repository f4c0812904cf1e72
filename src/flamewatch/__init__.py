"""flamewatch: sentiment labeling and flaming-event detection for comment streams.

Submodules:
    preprocess  comment ingestion and text cleanup
    porter      Porter stemmer
    lexicon     phrase-lexicon scoring and 5-class labels
    embeddings  skip-gram / subword word vectors
    network     CNN + BiLSTM classifier (numpy, manual backprop)
    metrics     confusion matrices and macro precision/recall/F1
    flaming     z-score outlier and burst detection
    cli         command-line pipeline
"""

import os
import tempfile
from importlib import resources


def data_path(name: str):
    """Path to a bundled data file (emoji table, mini lexicon, fixtures)."""
    return resources.files("flamewatch") / "data" / name


def atomic_write(path, write) -> None:
    """Run write(tmp_path) on a temp file beside path, then rename it over path.

    If write raises, path is left as it was and the temp file is removed.
    A path that names a directory raises ValueError before anything is written.
    """
    if os.path.isdir(path) or str(path).endswith(os.sep):
        raise ValueError(f"output path names a directory: {path}")
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    os.close(fd)
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


__all__ = ["atomic_write", "data_path"]
__version__ = "0.1.0"
