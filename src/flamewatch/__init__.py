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

import math
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


def check_int(name: str, value, low: int, high: int | None = None) -> None:
    """Refuse a setting that is not an int (a bool is not) in [low, high], or
    >= low if high is None, naming it: "<name> <value> must be an integer >=
    <low>", or "<name> <value> outside [<low>, <high>]"."""
    if type(value) is not int or value < low or (high is not None and value > high):
        need = f"must be an integer >= {low}" if high is None else f"outside [{low}, {high}]"
        raise ValueError(f"{name} {value!r} {need}")


def check_number(name: str, value, low: float, high: float, *, open_low: bool = False) -> None:
    """Refuse a setting that is not a finite int or float (a bool is not) in
    [low, high), or in (low, high) if open_low, naming it: "<name> <value> must
    be a number in [<low>, <high>)"."""
    if type(value) not in (int, float) or not (
            -math.inf < value < high and (low < value if open_low else low <= value)):
        raise ValueError(f"{name} {value!r} must be a number in "
                         f"{'(' if open_low else '['}{low:g}, {high:g})")


__all__ = ["atomic_write", "check_int", "check_number", "data_path"]
__version__ = "0.1.0"
