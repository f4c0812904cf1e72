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

    This is the one check of where an output goes. A path that is empty or
    names a directory, or whose directory is or lies under a regular file,
    raises ValueError before any temp file is made; a missing directory is
    created. If write raises, path is left as it was and the temp file is
    removed.
    """
    if not os.fspath(path):
        raise ValueError("output path is empty: ''")
    if os.path.isdir(path) or str(path).endswith(os.sep):
        raise ValueError(f"output path names a directory: {path}")
    directory = os.path.dirname(os.fspath(path)) or os.curdir
    try:
        os.makedirs(directory, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ValueError(f"output directory is not a directory: {directory}") from None
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
