"""Span tracing installed from outside the flamewatch package.

`Tracer.install()` replaces each public function listed in `TARGETS` with a
timing wrapper, wherever a flamewatch module holds a reference to it (a
module that imported the function by name holds its own reference), and
methods on their class. `uninstall()` puts the originals back.

Every wrapped call pushes a frame, so self time (a call's duration minus
the time of the wrapped calls under it) is exact for all of them. Calls
that run once per token, comment or batch are `hot`: they add to a count
and a time total instead of recording a span, so memory stays bounded.
The other calls record one span each (name, start, end, parent, run id);
spans stay in memory until `write_spans()`.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
from collections import defaultdict
from time import perf_counter


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _corpus(t, args, kwargs, corpus):
    t.counters["preprocess.comments_kept"] += corpus.kept
    t.counters["preprocess.tokens"] += sum(len(c.tokens) for c in corpus.comments)


def _stem(t, args, kwargs, result):
    t.stem_inputs.add(args[0])


def _matches(t, args, kwargs, matches):
    t.counters["lexicon.matches"] += len(matches)


def _burst(t, args, kwargs, result):
    n = len(_arg(args, kwargs, 0, "vn_times"))
    t.counters["flaming.burst_profile.max_n"] = max(t.counters["flaming.burst_profile.max_n"], n)


def _buckets(t, args, kwargs, buckets):
    t.counters["flaming.buckets"] += len(buckets)


def _vocab(t, args, kwargs, vocab):
    t.counters["embeddings.vocab_size"] = max(t.counters["embeddings.vocab_size"], len(vocab))


def _trained(t, args, kwargs, matrix):
    config = _arg(args, kwargs, 1, "config")
    t.counters["embeddings.tokens_trained"] += int(matrix.vocab.counts.sum()) * config.epochs


def _forward(t, args, kwargs, result):
    net, batch = args[0], _arg(args, kwargs, 1, "batch")
    t.counters["network.forward.rows"] += batch.ids.shape[0]
    rows = net.params["embedding"].shape[0]
    t.counters["network.embedding_rows"] = max(t.counters["network.embedding_rows"], rows)


def _val_accuracy(t, args, kwargs, report):
    # The train-clf summary lists validation losses only; keep the last
    # validation accuracy of the last training run.
    if report.val_accuracy:
        t.counters["network.train.val_accuracy"] = report.val_accuracy[-1]


def _chunks(t, args, kwargs, result):
    net, tokens = args[0], _arg(args, kwargs, 1, "tokens")
    t.counters["network.chunks"] += math.ceil(len(tokens) / net.config.max_tokens)


# (module, attribute, hot, counter hook). "Class.method" names a method.
TARGETS = [
    ("preprocess", "load_jsonl", False, None),
    ("preprocess", "build_corpus", False, _corpus),
    ("preprocess", "normalize_text", True, None),
    ("preprocess", "tokenize", True, None),
    ("preprocess", "save_clean_jsonl", False, None),
    ("preprocess", "load_clean_jsonl", False, None),
    ("porter", "stem", True, _stem),
    ("lexicon", "load_lexicon", False, None),
    ("lexicon", "label_corpus", False, None),
    ("lexicon", "match_lexicons", True, _matches),
    ("lexicon", "save_labeled_jsonl", False, None),
    ("lexicon", "load_labeled_jsonl", False, None),
    ("flaming", "post_stats", False, None),
    ("flaming", "detect", False, None),
    ("flaming", "burst_profile", False, _burst),
    ("flaming", "aggregate", False, _buckets),
    ("flaming", "write_report", False, None),
    ("embeddings", "build_vocab", False, _vocab),
    ("embeddings", "train_word2vec", False, _trained),
    ("embeddings", "train_fasttext", False, _trained),
    ("embeddings", "save_embeddings", False, None),
    ("embeddings", "load_embeddings", False, None),
    ("network", "SentimentNet.make_batch", True, None),
    ("network", "SentimentNet.forward", True, _forward),
    ("network", "SentimentNet.backward", True, None),
    ("network", "SentimentNet.adam_step", True, None),
    ("network", "SentimentNet.train", False, _val_accuracy),
    ("network", "SentimentNet.save", False, None),
    ("network", "SentimentNet.load", False, None),
    ("network", "SentimentNet.predict_tokens", True, _chunks),
    ("network", "SentimentNet.evaluate", False, None),
    ("metrics", "confusion", False, None),
    ("metrics", "macro_metrics", False, None),
]

# Calls counted per function, reported as `<name>.calls`.
CALL_COUNTS = ("porter.stem", "flaming.burst_profile", "network.forward",
               "network.predict_tokens")
COUNTERS = ("preprocess.comments_kept", "preprocess.tokens", "lexicon.matches",
            "flaming.burst_profile.max_n", "flaming.buckets", "embeddings.vocab_size",
            "embeddings.tokens_trained", "network.forward.rows", "network.embedding_rows",
            "network.chunks", "network.train.val_accuracy")
COMMANDS = ("preprocess", "label", "detect", "train-embed", "train-clf", "predict", "evaluate")


def _metric_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def metric_names() -> list[str]:
    """Every per-layer metric `Tracer.metrics()` reports, in report order."""
    names = [f"{_metric_name(m, a)}.s" for m, a, _, _ in TARGETS]
    names += [f"{n}.calls" for n in CALL_COUNTS]
    names += ["porter.stem.unique_ratio", *COUNTERS]
    names += [f"cli.{c}.self_s" for c in COMMANDS]
    return names


class Tracer:
    def __init__(self):
        self.stack: list[list[float]] = []  # [start, time of wrapped children]
        self.spans: list[tuple] = []  # (name, start, end, parent, run_id, span_id)
        self.current_span: int | None = None
        self.next_span = 0
        self.run_id: str | None = None
        self.reset()
        self._restore: list[tuple] = []

    def reset(self) -> None:
        """Clear per-iteration totals; spans are kept for `write_spans`."""
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.stem_inputs: set[str] = set()

    def call(self, name, fn, hot, hook, args, kwargs):
        frame = [perf_counter(), 0.0]
        self.stack.append(frame)
        parent = self.current_span
        if not hot:
            self.next_span += 1
            frame.append(self.next_span)
            self.current_span = self.next_span
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            duration = end - frame[0]
            if self.stack:
                self.stack[-1][1] += duration
            self.calls[name] += 1
            self.self_s[name] += duration - frame[1]
            if not hot:
                self.current_span = parent
                self.spans.append((name, frame[0], end, parent, self.run_id, frame[2]))
        if hook is not None:
            hook(self, args, kwargs, result)
        return result

    def span(self, name, fn, *args):
        """Run fn(*args) as a root span, e.g. one CLI command."""
        return self.call(name, fn, False, None, args, {})

    def _wrap(self, name, fn, hot, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, hot, hook, args, kwargs)
        return wrapper

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k.startswith("flamewatch") and m]
        for module_name, attr, hot, hook in TARGETS:
            module = importlib.import_module(f"flamewatch.{module_name}")
            name = _metric_name(module_name, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, hot, hook))
                else:
                    wrapped = self._wrap(name, raw, hot, hook)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, hot, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything run since the last `reset()`."""
        out = {f"{name}.s": self.self_s[name] for name in
               (_metric_name(m, a) for m, a, _, _ in TARGETS)}
        out.update({f"{n}.calls": float(self.calls[n]) for n in CALL_COUNTS})
        stems = self.calls["porter.stem"]
        out["porter.stem.unique_ratio"] = len(self.stem_inputs) / stems if stems else 0.0
        out.update({n: float(self.counters[n]) for n in COUNTERS})
        out.update({f"cli.{c}.self_s": self.self_s[f"cli.{c}"] for c in COMMANDS})
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run_id, span_id in sorted(self.spans, key=lambda s: s[5]):
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id}) + "\n")
