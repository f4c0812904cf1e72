"""Command-line pipeline: preprocess, label, train-embed, train-clf,
predict, evaluate, detect.

Every command prints a one-line JSON summary on stdout and uses exit
codes 0 (ok), 1 (internal error), 2 (input error: a ValueError, or an
OSError that names a file). `label` reads the bundled lexicon and emoji
table unless --lexicon or --emoji-table names another. This module keeps no
file rules: the library's readers open the paths given, and its writers are
atomic and check where each output goes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import check_int, data_path
from . import embeddings, fixtures, flaming, lexicon, metrics, network, preprocess


def _emit(summary: dict) -> None:
    print(json.dumps(summary, ensure_ascii=False))


def _config(cls, args, **given):
    """A `cls` whose fields come from the parsed options of the same names,
    except those in `given`."""
    return cls(**{f.name: getattr(args, f.name) for f in dataclasses.fields(cls)
                  if f.name not in given}, **given)


# ----- subcommands ----------------------------------------------------------


def cmd_preprocess(args) -> int:
    raws, errors = preprocess.load_jsonl(args.input)
    corpus = preprocess.build_corpus(raws)
    preprocess.save_clean_jsonl(corpus.comments, args.output)
    print(f"kept={corpus.kept} dropped={corpus.dropped}", file=sys.stderr)
    _emit({
        "command": "preprocess",
        "kept": corpus.kept,
        "dropped": corpus.dropped,
        "line_errors": len(errors),
    })
    return 0


def cmd_label(args) -> int:
    lex, rejects = lexicon.load_lexicon(args.lexicon, max_n=args.max_n)
    table = lexicon.load_emoji_table(args.emoji_table)
    comments = preprocess.load_clean_jsonl(args.input)
    labeled, dist = lexicon.label_corpus(
        comments, lex, table, strict=args.strict_eq1
    )
    lexicon.save_labeled_jsonl(labeled, args.output)
    _emit({
        "command": "label",
        "labeled": len(labeled),
        "lexicon_rejects": len(rejects),
        "distribution": {str(int(k)): v for k, v in sorted(dist.items())},
    })
    return 0


def cmd_train_embed(args) -> int:
    comments = preprocess.load_clean_jsonl(args.input)
    sentences = [c.tokens for c in comments]
    config = _config(embeddings.EmbedConfig, args)
    if args.method == "fasttext":
        matrix = embeddings.train_fasttext(
            sentences, config, _config(embeddings.SubwordConfig, args)
        )
    else:
        matrix = embeddings.train_word2vec(sentences, config)
    embeddings.save_embeddings(matrix, args.output)
    _emit({
        "command": "train-embed",
        "method": args.method,
        "vocab": len(matrix.vocab),
        "dim": matrix.dim,
        "epoch_losses": matrix.epoch_losses,
    })
    return 0


def cmd_train_clf(args) -> int:
    labeled = lexicon.load_labeled_jsonl(args.input)
    matrix = embeddings.load_embeddings(args.embeddings)
    config = _config(network.ModelConfig, args, embed_dim=matrix.dim)
    model = network.SentimentNet(config, matrix)
    data = [(lc.comment.tokens, int(lc.label)) for lc in labeled]
    report = model.train(data, epochs=args.epochs, val_split=args.val_split)
    model.save(args.output)
    _emit({
        "command": "train-clf",
        "examples": len(data),
        "parameters": model.num_parameters(),
        "best_epoch": report.best_epoch,
        "early_stopped": report.early_stopped,
        "train_loss": report.train_loss,
        "val_loss": report.val_loss,
        "val_accuracy": report.val_accuracy,
    })
    return 0


def cmd_predict(args) -> int:
    model = network.SentimentNet.load(args.model)
    comments = preprocess.load_clean_jsonl(args.input)

    labels, probs = model.predict_many([c.tokens for c in comments])

    def records():
        for c, label, row in zip(comments, labels.tolist(), probs.tolist()):
            yield {
                "post_id": c.post_id,
                "comment_id": c.comment_id,
                "label": label,
                "probabilities": row,
            }

    preprocess.write_jsonl(records(), args.output)
    _emit({"command": "predict", "predicted": len(comments)})
    return 0


def cmd_evaluate(args) -> int:
    if args.matrix_json:
        if args.model is not None or args.input is not None:
            raise ValueError("--matrix-json takes neither --model nor INPUT")
        obj = preprocess.read_json(args.matrix_json)
        if args.key:
            if not isinstance(obj, dict) or args.key not in obj:
                keys = ", ".join(sorted(obj)) if isinstance(obj, dict) else "none"
                raise ValueError(
                    f"{args.matrix_json}: no key {args.key!r}; available keys: {keys}"
                )
            obj = obj[args.key]
        cm = metrics.ConfusionMatrix.from_dict(obj)
    else:
        if args.key is not None:
            raise ValueError("--key applies only to --matrix-json")
        if not args.model or not args.input:
            raise ValueError("evaluate needs either --matrix-json or --model and INPUT")
        model = network.SentimentNet.load(args.model)
        labeled = lexicon.load_labeled_jsonl(args.input)
        data = [(lc.comment.tokens, int(lc.label)) for lc in labeled]
        _, cm = model.evaluate(data)
    mm = metrics.macro_metrics(cm, orientation=args.orientation)  # refuses an empty matrix
    print(metrics.format_table(cm, mm), file=sys.stderr)
    _emit({
        "command": "evaluate",
        "accuracy": float(cm.counts.trace() / cm.counts.sum()),
        "orientation": mm.orientation,
        "macro_precision": mm.macro_precision,
        "macro_recall": mm.macro_recall,
        "macro_f1": mm.macro_f1,
        "per_class_precision": mm.per_class_precision.tolist(),
        "per_class_recall": mm.per_class_recall.tolist(),
    })
    return 0


def cmd_detect(args) -> int:
    labeled = lexicon.load_labeled_jsonl(args.input)
    stats = flaming.post_stats(labeled)
    zs = flaming.zscores(stats, sample_std=args.sample_std,
                         include_negative=args.include_negative)
    events = flaming.detect(stats, zs, args.z_threshold, args.share_threshold,
                            args.window_hours)
    buckets = flaming.aggregate(labeled, width=args.width)
    json_path = os.path.join(args.output_dir, "events.json")
    csv_path = os.path.join(args.output_dir, "timeseries.csv")
    flaming.write_report(events, buckets, json_path, csv_path)
    ceiling = flaming.largest_z(len(stats), args.sample_std)
    if ceiling <= args.z_threshold:
        print(f"warning: no post can be flagged: the largest z-score {len(stats)} posts allow "
              f"is {ceiling:.6g}, not above --z-threshold {args.z_threshold:g}", file=sys.stderr)
    _emit({
        "command": "detect",
        "posts": len(stats),
        "count_mean": zs.mean,
        "count_std": zs.std,
        "events": [flaming.event_to_dict(e) for e in events],
        "report_json": json_path,
        "timeseries_csv": csv_path,
    })
    return 0


def cmd_make_fixture(args) -> int:
    if args.kind == "synthetic":
        count = fixtures.SYNTHETIC_COMMENTS if args.comments is None else args.comments
        records = fixtures.synthetic_comments(count, seed=args.seed)
    elif args.comments is not None:
        raise ValueError("--comments applies only to --kind synthetic")
    else:
        records, planted = fixtures.flaming_comments(seed=args.seed)
        print(f"planted={','.join(planted)}", file=sys.stderr)
    preprocess.write_jsonl(records, args.output)
    _emit({"command": "make-fixture", "kind": args.kind, "records": len(records)})
    return 0


# ----- argument wiring ------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flamewatch",
        description="Sentiment labeling and flaming-event detection pipeline.",
    )
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="clean a raw comment JSONL file")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("label", help="lexicon-score a preprocessed corpus")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--lexicon", default=str(data_path("mini_lexicon.tsv")))
    p.add_argument("--emoji-table", default=str(data_path("emoji_polarity.tsv")))
    p.add_argument("--max-n", type=int, default=lexicon.Lexicon.max_n)
    p.add_argument("--strict-eq1", action="store_true",
                   help="use the raw signed score denominator (may raise)")
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("train-embed", help="train word vectors")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--method", choices=("word2vec", "fasttext"), default="word2vec")
    # `_config` reads these by dest, so each dest is a field name, each default the field's
    embed, subword = embeddings.EmbedConfig, embeddings.SubwordConfig
    p.add_argument("--dim", type=int, default=embed.dim)
    p.add_argument("--window", type=int, default=embed.window)
    p.add_argument("--negatives", type=int, default=embed.negatives)
    p.add_argument("--epochs", type=int, default=embed.epochs)
    p.add_argument("--lr", dest="initial_lr", type=float, default=embed.initial_lr)
    p.add_argument("--min-count", type=int, default=embed.min_count)
    p.add_argument("--subword-min-n", dest="min_n", type=int, default=subword.min_n)
    p.add_argument("--subword-max-n", dest="max_n", type=int, default=subword.max_n)
    p.add_argument("--buckets", type=int, default=subword.buckets)
    p.set_defaults(func=cmd_train_embed)

    p = sub.add_parser("train-clf", help="train the CNN+BiLSTM classifier")
    p.add_argument("input", help="labeled JSONL")
    p.add_argument("output", help="checkpoint path")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--epochs", type=int, default=network.TRAIN_EPOCHS)
    p.add_argument("--val-split", type=float, default=network.VAL_SPLIT)
    clf = network.ModelConfig  # as for train-embed
    p.add_argument("--max-tokens", type=int, default=clf.max_tokens)
    p.add_argument("--filters", type=int, default=clf.filters)
    p.add_argument("--kernel", type=int, default=clf.kernel)
    p.add_argument("--lstm-hidden", type=int, default=clf.lstm_hidden)
    p.add_argument("--dense", dest="dense_sizes", type=int, nargs=2, default=clf.dense_sizes)
    p.add_argument("--dropout-lstm", type=float, default=clf.dropout_lstm)
    p.add_argument("--dropout-dense", type=float, default=clf.dropout_dense)
    p.add_argument("--batch-size", type=int, default=clf.batch_size)
    p.add_argument("--lr", dest="learning_rate", type=float, default=clf.learning_rate)
    p.add_argument("--fine-tune", dest="fine_tune_embeddings", action="store_true",
                   default=clf.fine_tune_embeddings)
    p.set_defaults(func=cmd_train_clf)

    p = sub.add_parser("predict", help="predict labels for a clean corpus")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="macro metrics from a model or a matrix")
    p.add_argument("input", nargs="?")
    p.add_argument("--model")
    p.add_argument("--matrix-json")
    p.add_argument("--key", help="object key when the JSON holds several matrices")
    p.add_argument("--orientation", choices=("standard", "paper"), default="standard")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("detect", help="flag flaming posts in a labeled corpus")
    p.add_argument("input")
    p.add_argument("output_dir")
    p.add_argument("--z-threshold", type=float, default=flaming.Z_THRESHOLD)
    p.add_argument("--share-threshold", type=float, default=flaming.SHARE_THRESHOLD)
    p.add_argument("--window-hours", type=float, default=flaming.WINDOW_HOURS)
    p.add_argument("--width", choices=("day", "hour"), default="day")
    p.add_argument("--sample-std", action="store_true")
    p.add_argument("--include-negative", action="store_true",
                   help="count Negative together with Very Negative")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("make-fixture", help="write a synthetic corpus")
    p.add_argument("output")
    p.add_argument("--kind", choices=("synthetic", "flaming"), default="synthetic")
    p.add_argument("--comments", type=int,
                   help=f"synthetic comments (default {fixtures.SYNTHETIC_COMMENTS})")
    p.set_defaults(func=cmd_make_fixture)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # checked for every command, whether or not it draws anything
        check_int("seed", args.seed, 0)
        return args.func(args)
    except Exception as exc:
        named = isinstance(exc, OSError) and exc.filename is not None
        if isinstance(exc, ValueError) or named:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
