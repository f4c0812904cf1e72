"""flamewatch benchmark: drive the CLI on generated workloads and report metrics.

Usage, from the root of a flamewatch checkout:

    python3 perfbench/run.py --workload ingest-pileup --seed 1 --seconds 30 --trace 0

One closed-loop client runs the pipeline's CLI commands one after another,
in process, through `flamewatch.cli.main(argv)`, and repeats the whole
pipeline until `--seconds` have passed (at least `MIN_ITERATIONS` times).
Each command run counts as one operation; it fails when it exits non-zero
or its output fails the check written for it. Stage throughputs are
medians over the iterations. The inputs are generated once; the program's
set-up commands (preprocess and label of the extra corpora) run
`SETUP_REPEATS` times before each untraced iteration, and `setup_s` is the
median of those runs.

With `--trace 0` the run is untraced and reports the end-to-end metrics.
With `--trace 1` it alternates untraced and traced iterations and reports
the per-layer metrics from the traced ones (see tracing.py) plus the
tracing overhead. The last line of standard output is the JSON result;
the lines before it list every metric with its unit, the workload's
properties and the machine facts. The same, plus the span file, is
written under `.perfbench_work/` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BLAS_THREADS = 1
# Before numpy loads: single-threaded BLAS, as the package documents.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

MIN_ITERATIONS = 3
# Set-up runs this many times before each untraced iteration, so that its
# samples spread over the whole run as the stage samples do.
SETUP_REPEATS = 2
MAX_TOKENS = 30
W2V_EPOCHS = 2  # two, so that the check can see the epoch loss fall
FT_EPOCHS = 1
CLF_EPOCHS = 2

# Model sizes for every train-clf: half the CLI defaults, so that a training
# stage takes about a second.
CLF_ARGS = ["--filters", "32", "--lstm-hidden", "32", "--dense", "64", "32",
            "--val-split", "0.2", "--max-tokens", str(MAX_TOKENS)]
# --min-count 1 keeps every word of the generated vocabulary.
EMBED_ARGS = ["--dim", "32", "--window", "2", "--negatives", "2", "--min-count", "1",
              "--buckets", "65536"]


@dataclass
class Plan:
    """Which corpus each stage reads, and how often, for one workload.

    Preprocess, label and detect always run on the workload's generated
    "main" corpus. The embedding trainers and train-clf (`embed_on`) and
    predict and evaluate (`predict_on`) run on "main", on "tail" (long-tail
    comment lengths) or on "side" (a small fixtures mix), so that every
    stage reports a number on every workload. `repeats` runs a short stage
    several times per iteration. Every command run is one timing sample,
    and a stage's throughput is the median over its samples.
    """

    embed_on: str
    predict_on: str
    repeats: dict[str, int] = field(default_factory=dict)


PLANS = {
    "ingest-pileup": Plan(embed_on="side", predict_on="side",
                          repeats={"detect": 2, "embed": 2, "subword": 2, "train_clf": 2,
                                   "predict": 2, "evaluate": 2}),
    "model-bigvocab-longtail": Plan(embed_on="main", predict_on="tail",
                                    repeats={"preprocess": 3, "label": 10, "detect": 20,
                                             "train_clf": 3, "predict": 2, "evaluate": 2}),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "preprocess_comments_per_s": "1/s",
    "label_comments_per_s": "1/s",
    "detect_comments_per_s": "1/s",
    "embed_tokens_per_s": "1/s",
    "subword_tokens_per_s": "1/s",
    "train_clf_examples_per_s": "1/s",
    "predict_comments_per_s": "1/s",
    "evaluate_comments_per_s": "1/s",
    "peak_rss_mb": "MB",
}
STAGE_METRICS = {
    "preprocess": "preprocess_comments_per_s",
    "label": "label_comments_per_s",
    "detect": "detect_comments_per_s",
    "embed": "embed_tokens_per_s",
    "subword": "subword_tokens_per_s",
    "train_clf": "train_clf_examples_per_s",
    "predict": "predict_comments_per_s",
    "evaluate": "evaluate_comments_per_s",
}


class CheckFailed(Exception):
    pass


@dataclass
class Op:
    stage: str
    argv: list[str]
    check: object  # callable(summary) raising CheckFailed
    repeat: int = 1


@dataclass
class Iteration:
    stage_s: dict[str, list[float]] = field(default_factory=dict)  # runs that passed
    run_s: float = 0.0
    attempted: int = 0
    failed: list[str] = field(default_factory=list)


def _read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class Bench:
    def __init__(self, workload: str, seed: int, root: Path):
        from flamewatch import cli

        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.plan = PLANS[workload]
        self.work = root / ".perfbench_work" / f"{workload}-seed{seed}"
        self.data = self.work / "data"
        self.kept = None  # from the last preprocess summary

    def run_cli(self, argv: list[str], tracer=None) -> tuple[int, dict | None, float]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            if tracer is None:
                code = self.cli.main(argv)
            else:
                code = tracer.span(f"cli.{argv[0]}", self.cli.main, argv)
            elapsed = perf_counter() - start
        self.last_stderr = err.getvalue()
        lines = out.getvalue().strip().splitlines()
        summary = json.loads(lines[-1]) if code == 0 and lines else None
        return code, summary, elapsed

    # ----- set-up -------------------------------------------------------------

    def extra_corpora(self) -> list[str]:
        return sorted({self.plan.embed_on, self.plan.predict_on} - {"main"})

    def generate(self) -> None:
        """Write the workload's raw inputs (benchmark code, not timed)."""
        import workloads

        shutil.rmtree(self.data, ignore_errors=True)
        self.data.mkdir(parents=True)
        self.gen = workloads.MAIN[self.workload](self.seed, self.data / "main_raw.jsonl")
        for name in self.extra_corpora():
            workloads.EXTRA[name](self.seed, self.data / f"{name}_raw.jsonl")

    def setup(self) -> float:
        """The program's set-up: preprocess and label the extra corpora."""
        start = perf_counter()
        for name in self.extra_corpora():
            raw = self.data / f"{name}_raw.jsonl"
            clean, labeled = self.corpus(name)
            for argv in (["preprocess", str(raw), str(clean)],
                         ["label", str(clean), str(labeled)]):
                code, _, _ = self.run_cli(argv)
                if code != 0:
                    raise RuntimeError(f"set-up {argv[0]} exited {code}: {self.last_stderr}")
        return perf_counter() - start

    # ----- the pipeline -------------------------------------------------------

    def ops(self) -> list[Op]:
        d, plan, s = self.data, self.plan, str
        main_clean, main_labeled = self.corpus("main")
        embed_clean, embed_labeled = self.corpus(plan.embed_on)
        pred_clean, pred_labeled = self.corpus(plan.predict_on)
        model, preds = d / "clf.ckpt", d / "predictions.jsonl"
        ops = [
            Op("preprocess", ["preprocess", s(self.gen.main_raw), s(main_clean)],
               self.check_preprocess),
            Op("label", ["label", s(main_clean), s(main_labeled)], self.check_label),
            Op("detect", ["detect", s(main_labeled), s(d / "report")], self.check_detect),
            Op("embed", ["train-embed", s(embed_clean), s(d / "w2v.vec"), "--method",
                         "word2vec", "--epochs", s(W2V_EPOCHS), *EMBED_ARGS],
               lambda summary: self.check_embed(summary, decreasing=True)),
            Op("subword", ["train-embed", s(embed_clean), s(d / "ft.vec"), "--method",
                           "fasttext", "--epochs", s(FT_EPOCHS), *EMBED_ARGS],
               lambda summary: self.check_embed(summary, decreasing=False)),
            Op("train_clf", ["train-clf", s(embed_labeled), s(model), "--embeddings",
                             s(d / "w2v.vec"), "--epochs", s(CLF_EPOCHS), *CLF_ARGS],
               self.check_train_clf),
            Op("predict", ["predict", s(pred_clean), s(preds), "--model", s(model)],
               lambda summary: self.check_predict(summary, pred_clean, preds)),
            Op("evaluate", ["evaluate", s(pred_labeled), "--model", s(model)],
               lambda summary: self.check_evaluate(summary, pred_labeled, preds)),
        ]
        for op in ops:
            op.repeat = plan.repeats.get(op.stage, 1)
        return ops

    def corpus(self, name: str) -> tuple[Path, Path]:
        return self.data / f"{name}_clean.jsonl", self.data / f"{name}_labeled.jsonl"

    def count_work(self) -> None:
        """Work per command run and the workload's properties, from the outputs."""
        main = _read_jsonl(self.corpus("main")[0])
        embed = _read_jsonl(self.corpus(self.plan.embed_on)[0])
        predict = _read_jsonl(self.corpus(self.plan.predict_on)[0])
        tokens = sum(len(c["tokens"]) for c in embed)  # all kept: --min-count 1
        self.work_items = {
            "preprocess": self.gen.main_lines, "label": len(main),
            "detect": len(main), "embed": tokens * W2V_EPOCHS,
            "subword": tokens * FT_EPOCHS, "train_clf": len(embed) * CLF_EPOCHS,
            "predict": len(predict), "evaluate": len(predict),
        }
        vn_per_post: dict[str, int] = {}
        for lc in _read_jsonl(self.corpus("main")[1]):
            if lc["label"] == 0:
                vn_per_post[lc["post_id"]] = vn_per_post.get(lc["post_id"], 0) + 1
        over = sum(1 for c in predict if len(c["tokens"]) > MAX_TOKENS)
        self.props = {
            "embed_vocab_size": len({t for c in embed for t in c["tokens"]}),
            "predict_over_max_tokens_share": over / len(predict),
            "max_post_vn": max(vn_per_post.values(), default=0),
        }

    def iterate(self, ops: list[Op], tracer=None) -> Iteration:
        it = Iteration()
        for op in ops:
            for _ in range(op.repeat):
                it.attempted += 1
                code, summary, seconds = self.run_cli(op.argv, tracer)
                it.run_s += seconds
                try:
                    if code != 0:
                        raise CheckFailed(f"exit {code}: {self.last_stderr.strip()[-300:]}")
                    op.check(summary)
                except (CheckFailed, OSError, ValueError, KeyError) as exc:
                    it.failed.append(f"{op.stage}: {exc}")
                    continue
                it.stage_s.setdefault(op.stage, []).append(seconds)
        return it

    # ----- output checks ------------------------------------------------------

    def check_preprocess(self, s: dict) -> None:
        self.kept = s["kept"]
        total = s["kept"] + s["dropped"] + s["line_errors"]
        if total != self.gen.main_lines:
            raise CheckFailed(f"kept+dropped+line_errors={total} != {self.gen.main_lines} lines")

    def check_label(self, s: dict) -> None:
        if s["labeled"] != self.kept:
            raise CheckFailed(f"labeled {s['labeled']} of {self.kept} clean comments")

    def check_detect(self, s: dict) -> None:
        flagged = sorted(e["post_id"] for e in s["events"])
        if flagged != sorted(self.gen.planted):
            raise CheckFailed(f"flagged {flagged}, planted {sorted(self.gen.planted)}")

    @staticmethod
    def check_embed(s: dict, decreasing: bool) -> None:
        losses = s["epoch_losses"]
        if not losses or not all(math.isfinite(x) for x in losses):
            raise CheckFailed(f"non-finite epoch losses {losses}")
        if decreasing and not all(b < a for a, b in zip(losses, losses[1:])):
            raise CheckFailed(f"epoch losses do not decrease: {losses}")

    def check_train_clf(self, s: dict) -> None:
        from flamewatch.network import SentimentNet

        losses = s["train_loss"] + s["val_loss"]
        if not losses or not all(math.isfinite(x) for x in losses):
            raise CheckFailed(f"non-finite losses {losses}")
        model = SentimentNet.load(self.data / "clf.ckpt")
        if model.num_parameters() != s["parameters"]:
            raise CheckFailed("checkpoint does not load back with the trained shapes")

    @staticmethod
    def check_predict(s: dict, clean: Path, preds: Path) -> None:
        expected = [c["comment_id"] for c in _read_jsonl(clean)]
        rows = _read_jsonl(preds)
        if [r["comment_id"] for r in rows] != expected or s["predicted"] != len(expected):
            raise CheckFailed("not one prediction line per input comment")
        for r in rows:
            probs = r["probabilities"]
            if abs(sum(probs) - 1.0) > 1e-9:
                raise CheckFailed(f"{r['comment_id']}: probabilities sum to {sum(probs)}")
            if r["label"] != max(range(len(probs)), key=probs.__getitem__):
                raise CheckFailed(f"{r['comment_id']}: label is not the argmax")

    @staticmethod
    def check_evaluate(s: dict, labeled: Path, preds: Path) -> None:
        truth = [c["label"] for c in _read_jsonl(labeled)]
        predicted = [r["label"] for r in _read_jsonl(preds)]
        if len(truth) != len(predicted):
            raise CheckFailed("predictions and labeled corpus differ in length")
        accuracy = sum(p == a for p, a in zip(predicted, truth)) / len(truth)
        if abs(accuracy - s["accuracy"]) > 1e-12:
            raise CheckFailed(f"accuracy {s['accuracy']} != {accuracy} from predictions")


# ----- reporting ---------------------------------------------------------------


def machine_facts() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                   cpu)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "peak_rss_source": "resource.getrusage(RUSAGE_SELF).ru_maxrss of this "
                           "one-workload process, set-up included",
    }


def end_to_end(bench: Bench, setup_s: list[float], iterations: list[Iteration]) -> dict:
    values = {
        "setup_s": statistics.median(setup_s),
        "run_s": statistics.median(it.run_s for it in iterations),
    }
    for stage, name in STAGE_METRICS.items():
        rates = [bench.work_items[stage] / seconds
                 for it in iterations for seconds in it.stage_s.get(stage, ())]
        values[name] = statistics.median(rates) if rates else 0.0
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return values


def _layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("ratio", "share", "accuracy")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "flamewatch" / "cli.py").is_file():
        print(f"error: no flamewatch source under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import tracing

    bench = Bench(args.workload, args.seed, root)
    bench.generate()
    ops = bench.ops()

    setup_s: list[float] = []
    untraced: list[Iteration] = []
    traced: list[Iteration] = []
    layer_samples: list[dict[str, float]] = []
    tracer = tracing.Tracer() if args.trace else None
    start = perf_counter()
    while True:
        setup_s.extend(bench.setup() for _ in range(SETUP_REPEATS))
        untraced.append(bench.iterate(ops))
        if len(untraced) == 1:
            bench.count_work()
        if tracer is not None:
            tracer.reset()
            tracer.run_id = f"iteration{len(traced)}"
            tracer.install()
            try:
                traced.append(bench.iterate(ops, tracer))
            finally:
                tracer.uninstall()
            layer_samples.append(tracer.metrics())
        elapsed = perf_counter() - start
        step = elapsed / len(untraced)
        enough = len(untraced) >= (1 if tracer else MIN_ITERATIONS)
        # stop when one more iteration would end more than half of one late
        if enough and elapsed + step > args.seconds + step / 2:
            break

    iterations = untraced + traced
    attempted = sum(it.attempted for it in iterations)
    failures = [f for it in iterations for f in it.failed]
    readings = {"failed_ops_ratio": len(failures) / attempted}
    e2e = end_to_end(bench, setup_s, untraced)
    layers: dict[str, float] = {}
    if tracer is not None:
        layers = {name: statistics.median(s[name] for s in layer_samples)
                  for name in tracing.metric_names()}
        readings["clf_val_accuracy"] = layers["network.train.val_accuracy"]
        untraced_run = statistics.median(it.run_s for it in untraced)
        traced_run = statistics.median(it.run_s for it in traced)
        layers["trace.untraced_run_s"] = untraced_run
        layers["trace.traced_run_s"] = traced_run
        layers["trace.overhead_s"] = traced_run - untraced_run
        layers.update({f"workload.{k}": float(v) for k, v in bench.props.items()})

    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "iterations": len(untraced), "traced_iterations": len(traced),
        "attempted": attempted, "failed": len(failures), "failures": failures[:20],
        "readings": readings, "workload_props": bench.props, "machine": machine_facts(),
        "setup_samples_s": setup_s,
        "end_to_end": e2e, "per_layer": layers,
        "stage_seconds": [it.stage_s for it in untraced],
        "repeats": bench.plan.repeats,
    }
    (bench.work / "results").mkdir(exist_ok=True)
    with open(bench.work / "results" / f"trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2)
    if tracer is not None:
        tracer.write_spans(bench.work / "results" / "spans.jsonl")
    shutil.rmtree(bench.data, ignore_errors=True)

    for key, value in results["machine"].items():
        print(f"# machine.{key} = {value}")
    for key, value in bench.props.items():
        print(f"# workload.{key} = {value}")
    print(f"# iterations = {len(untraced)} untraced, {len(traced)} traced; "
          f"ops failed {len(failures)} of {attempted}")
    for failure in failures[:20]:
        print(f"# FAILED {failure}")
    for name, value in readings.items():
        print(f"# {name} = {value} ratio (reading, no bound)")
    for name, value in e2e.items():
        print(f"# {name} = {value} {END_TO_END_UNITS[name]}")
    for name, value in layers.items():
        print(f"# {name} = {value} {_layer_unit(name)}")

    if tracer is None:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    else:
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in layers.items()}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # report and exit non-zero without a result line
        traceback.print_exc()
        sys.exit(1)
