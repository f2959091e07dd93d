"""Command-line entry point.

Subcommands: train, eval-sts, layer-sweep, inspect-attention, embed,
index build, index search, index eval. Exit codes: 0 success, 1 failure
(one-line `error: ...` on stderr), 2 usage. Outputs are written atomically
(temp file or directory + rename, see `artifact`). --threads caps BLAS
parallelism; default 1 keeps runs reproducible.
"""

from __future__ import annotations

import argparse
import os
import sys


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="layerpool")
    parser.add_argument("--threads", type=int, default=1,
                        help="BLAS thread cap (default 1, reproducible)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train encoder+pooler with a contrastive objective")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, help="override config seed (not with --resume)")
    p.add_argument("--epochs", type=int, help="override config epochs (not with --resume)")
    p.add_argument("--output-dir", help="override config output_dir")
    p.add_argument("--resume",
                   help="checkpoint directory to resume from; its training config is used")
    p.add_argument("--init-from",
                   help="checkpoint to warm-start the encoder from (fresh pooler)")

    p = sub.add_parser("eval-sts", help="Spearman score of a checkpoint on STS data")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--strategy", help="pooling strategy (default: checkpoint's)")

    p = sub.add_parser("layer-sweep", help="per-layer CLS/AVG Spearman sweep")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("inspect-attention", help="layer-attention weight CSVs per text")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--texts", required=True, help="file with one sentence per line")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("embed", help="embed texts into a .npy matrix")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--texts", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pooling", choices=["detached", "trained-pooler"],
                   default="detached")

    index = sub.add_parser("index", help="IVF-flat index operations")
    isub = index.add_subparsers(dest="index_command", required=True)

    p = isub.add_parser("build", help="build an IVF-flat index from embeddings")
    p.add_argument("--embeddings", required=True, help=".npy embedding matrix")
    p.add_argument("--nlist", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output index directory")

    p = isub.add_parser("search", help="query an index, print JSONL results")
    p.add_argument("--index", required=True)
    p.add_argument("--query-embeddings", required=True)
    p.add_argument("--top-k", type=int, default=10)
    p.add_argument("--nprobe", type=int, default=8)

    p = isub.add_parser("eval", help="MRR@10 / p50, p99 latency / memory metrics")
    p.add_argument("--index", required=True)
    p.add_argument("--query-embeddings", required=True)
    p.add_argument("--gold", required=True, help="file with one gold id per query line")
    p.add_argument("--nprobe", type=int, default=8)
    return parser


def _read_gold(path: str) -> list[int]:
    """One integer id per non-blank line; a line that is not one is named by path:line."""
    from .corpus import numbered_lines

    gold = []
    for lineno, line in numbered_lines(path):
        try:
            gold.append(int(line))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: gold id must be an integer, "
                             f"got {line!r}") from None
    return gold


def _cmd_train(args) -> int:
    from dataclasses import replace

    from .artifact import dumps_json, write_file
    from .config import effective_config_doc, load_config
    from .corpus import load_jsonl
    from .trainer import load_checkpoint, save_checkpoint, train, write_loss_trace

    config = load_config(args.config)
    resume = load_checkpoint(args.resume) if args.resume else None
    init = load_checkpoint(args.init_from) if args.init_from else None
    overrides = {k: v for k in ("seed", "epochs") if (v := getattr(args, k)) is not None}
    config = replace(
        config, train=resume.config if resume else replace(config.train, **overrides),
        output_dir=config.output_dir if args.output_dir is None else args.output_dir)
    ckpt, trace = train(config.train, load_jsonl(config.corpus), resume_from=resume,
                        init_from=init)
    ckpt_dir = os.path.join(config.output_dir, config.checkpoint_dir)
    save_checkpoint(ckpt, ckpt_dir)
    # only a run whose checkpoint saved writes or creates anything else; an
    # empty output_dir is the working directory, as os.path.join takes it
    os.makedirs(config.output_dir or ".", exist_ok=True)
    doc = dumps_json(effective_config_doc(config), indent=1) + "\n"
    write_file(os.path.join(config.output_dir, "effective_config.json"), [doc.encode()])
    write_loss_trace(trace, os.path.join(config.output_dir, "loss.csv"))
    print(ckpt_dir)
    return 0


def _cmd_eval_sts(args) -> int:
    from .sts_eval import evaluate, load_sts_records
    from .trainer import load_checkpoint

    ckpt = load_checkpoint(args.checkpoint)
    records = load_sts_records(args.data)
    strategy = args.strategy or ckpt.config.strategy
    print(repr(evaluate(ckpt, strategy, records)))
    return 0


def _cmd_layer_sweep(args) -> int:
    from .sts_eval import layer_sweep, load_sts_records
    from .trainer import load_checkpoint

    result = layer_sweep(load_checkpoint(args.checkpoint), load_sts_records(args.data))
    result.write_csv(args.out)
    return 0


def _cmd_inspect_attention(args) -> int:
    from .corpus import numbered_lines
    from .sts_eval import attention_report
    from .trainer import load_checkpoint

    reports = attention_report(load_checkpoint(args.checkpoint),
                               [line for _, line in numbered_lines(args.texts)])
    # only a run that has its reports creates --out-dir
    os.makedirs(args.out_dir, exist_ok=True)
    for i, report in enumerate(reports):
        report.write_csv(os.path.join(args.out_dir, f"attention_{i:04d}.csv"))
    return 0


def _cmd_embed(args) -> int:
    from .artifact import write_npy
    from .corpus import numbered_lines
    from .search import embed_corpus
    from .trainer import load_checkpoint

    ckpt = load_checkpoint(args.checkpoint)
    matrix = embed_corpus(ckpt, [line for _, line in numbered_lines(args.texts)],
                          inference_pooling=args.pooling)
    write_npy(args.out, matrix.vectors)
    return 0


def _load_embeddings(path):
    from .artifact import read_npy
    from .search import EmbeddingMatrix

    return EmbeddingMatrix(vectors=read_npy(path))


def _cmd_index(args) -> int:
    from dataclasses import asdict

    from .artifact import dumps_json
    from .autodiff import Rng
    from .search import build_index, evaluate_search, load_index, query, save_index

    if args.index_command == "build":
        index = build_index(_load_embeddings(args.embeddings), args.nlist, Rng(args.seed))
        save_index(index, args.out)
        return 0
    index, matrix = load_index(args.index), _load_embeddings(args.query_embeddings)
    if args.index_command == "search":
        for row in matrix.vectors:
            hits = query(index, row, top_k=args.top_k, nprobe=args.nprobe)
            print(dumps_json([{"id": i, "similarity": s} for i, s in hits]))
        return 0
    gold = _read_gold(args.gold)
    metrics = evaluate_search(index, matrix.vectors, gold, nprobe=args.nprobe)
    print(dumps_json(asdict(metrics)))
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "eval-sts": _cmd_eval_sts,
    "layer-sweep": _cmd_layer_sweep,
    "inspect-attention": _cmd_inspect_attention,
    "embed": _cmd_embed,
    "index": _cmd_index,
}


def dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("--threads must be >= 1")
    if args.command == "train" and args.resume and (
            args.seed is not None or args.epochs is not None):
        parser.error("--seed and --epochs cannot be combined with --resume")
    # numpy is not loaded yet (the package imports lazily), so BLAS reads these
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.threads)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
