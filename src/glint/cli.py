"""Command-line interface: gen, train, index, search, eval, ablate.

numpy fixes its BLAS thread pool at import time, so this module imports
nothing heavy at module level; --threads is applied to the environment
before the first numerical import. Exit codes: 0 success, 2 configuration
or argument error (a missing input file included), 3 artifact integrity
error, 1 training divergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path


def _token_list(text: str) -> list[int]:
    parts = text.replace(",", " ").split()
    if not parts:
        raise argparse.ArgumentTypeError("query must contain at least one token id")
    try:
        return [int(p) for p in parts]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"query token ids must be integers: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None, help="run config YAML")
    common.add_argument("--seed", type=int, default=None, help="override every seed in the config")
    common.add_argument("--threads", type=int, default=None, help="BLAS/OpenMP thread count")

    parser = argparse.ArgumentParser(
        prog="glint",
        description="Global-token late-interaction retrieval over synthetic layout corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common], help="generate a corpus")
    p.add_argument("--out", type=Path, required=True, help="corpus output path (.jsonl)")

    p = sub.add_parser("train", parents=[common], help="train a checkpoint")
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="checkpoint output path")
    p.add_argument("--log", type=Path, default=None, help="training log path (default <out>.log.json)")
    p.add_argument("--variant", default="full", help="loss-switch variant to train")
    p.add_argument("--resume", type=Path, default=None, help="checkpoint to continue from")

    p = sub.add_parser("index", parents=[common], help="encode corpus pages into an index")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="index output path")

    p = sub.add_parser("search", parents=[common], help="rank indexed pages for one query")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--index", type=Path, required=True)
    p.add_argument("--query", type=_token_list, required=True, help="token ids, e.g. '21,22,23'")
    p.add_argument("-k", type=int, default=5, help="number of results")

    p = sub.add_parser("eval", parents=[common], help="evaluate a checkpoint on a split")
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--index", type=Path, default=None, help="score from a persisted index")
    p.add_argument("--report-out", type=Path, default=None, help="write delimited metric rows here")

    p = sub.add_parser("ablate", parents=[common], help="run the ablation table")
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--checkpoints", type=Path, required=True, help="directory of <role>.ckpt files")
    p.add_argument("--report-out", type=Path, default=None, help="write delimited metric rows here")

    return parser


def _apply_threads(n: int | None) -> None:
    if n is None:
        return
    if n < 1:
        raise ValueError(f"--threads must be >= 1, got {n}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(n)


def _load_run_config(args):
    from .config import RunConfig, load_config

    config = load_config(args.config) if args.config is not None else RunConfig()
    if args.seed is not None:
        config = config.with_seed(args.seed)
    return config


def _check_output_dirs(args) -> None:
    """Refuse an output path whose directory does not exist, before any work."""
    from .errors import ConfigurationError

    for flag in ("out", "log", "report_out"):
        path = getattr(args, flag, None)
        if path is not None and not path.parent.is_dir():
            raise ConfigurationError(f"output directory not found for --{flag.replace('_', '-')}: {path}")


def _write_report(path: Path, text: str) -> None:
    from .atomic import write_atomic

    write_atomic(path, text.encode("utf-8"))
    print(f"wrote {path}")


def _dispatch(args) -> int:
    _check_output_dirs(args)
    config = _load_run_config(args)

    if args.command == "gen":
        from .pipeline import run_gen

        summary = run_gen(config, args.out)
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0

    if args.command == "train":
        from .pipeline import run_train

        summary = run_train(
            config, args.corpus, args.out, log_out=args.log,
            variant=args.variant, resume_from=args.resume,
        )
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0

    if args.command == "index":
        from .pipeline import run_index

        summary = run_index(args.checkpoint, args.corpus, args.out)
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0

    if args.command == "search":
        from .pipeline import run_search

        ranking = run_search(args.checkpoint, args.index, args.query, args.k, flags=config.scoring)
        for pos, (pid, score) in enumerate(zip(ranking.doc_ids, ranking.scores), start=1):
            print(f"{pos:4d}  page {pid:6d}  score {score:.6f}")
        return 0

    if args.command == "eval":
        from .evaluation import format_report_table
        from .pipeline import run_eval

        report = run_eval(config, args.corpus, args.checkpoint, index_path=args.index)
        print(format_report_table([report]))
        if args.report_out is not None:
            _write_report(args.report_out, report.to_delimited())
        return 0

    if args.command == "ablate":
        from .pipeline import run_ablate

        report = run_ablate(config, args.corpus, args.checkpoints)
        print(report.to_table())
        if args.report_out is not None:
            _write_report(args.report_out, report.to_delimited())
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _apply_threads(args.threads)
        from .errors import ConfigurationError, IntegrityError, TrainingDivergedError

        try:
            return _dispatch(args)
        except ConfigurationError as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return 2
        except IntegrityError as exc:
            print(f"integrity error: {exc}", file=sys.stderr)
            return 3
        except TrainingDivergedError as exc:
            print(f"training diverged: {exc}", file=sys.stderr)
            if exc.diagnostics:
                print(json.dumps(exc.diagnostics, indent=2, sort_keys=True), file=sys.stderr)
            return 1
    except ValueError as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
