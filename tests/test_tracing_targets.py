"""Every function the benchmark's tracer wraps still exists in the package.

`perfbench/tracing.py` patches each `(module, attr)` of its `TARGETS` list in
a traced run, so a deleted or renamed name would only fail there.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr) for module, attr, _, _ in tracing.TARGETS]


@pytest.mark.parametrize("module_name, attr", _targets(),
                         ids=lambda v: v if isinstance(v, str) else None)
def test_traced_target_resolves(module_name, attr):
    module = importlib.import_module(f"flamewatch.{module_name}")
    if "." in attr:
        cls_name, method = attr.split(".")
        assert method in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))


@pytest.mark.parametrize("trainer", ["train_word2vec", "train_fasttext"])
def test_trainer_takes_config_second(trainer):
    # the tracer's train-embed hook reads the config as argument 1 or as "config"
    embeddings = importlib.import_module("flamewatch.embeddings")
    params = list(inspect.signature(getattr(embeddings, trainer)).parameters)
    assert params[:2] == ["sentences", "config"]
