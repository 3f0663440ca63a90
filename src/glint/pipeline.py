"""End-to-end command implementations behind the CLI.

Each run_* function is the full body of one subcommand: generate a corpus,
train a checkpoint, build an index, search it, evaluate, or run the ablation
table. They are plain functions over paths and RunConfig so tests can drive
them in-process.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from .config import RunConfig
from .corpus import descriptor_path, generate_corpus, load_corpus, save_corpus
from .encoder import Encoder, load_checkpoint, save_checkpoint
from .errors import ConfigurationError, TrainingDivergedError
from .evaluation import AblationReport, EvalReport, evaluate, run_ablations
from .index_store import read_index, write_index
from .scoring import ALL_ROWS, Ranking, ScoringFlags, rank
from .training import TrainerConfig, train

#: Loss-switch overrides for trainable ablation variants.
TRAIN_VARIANTS = {
    "full": {},
    "loss_no_global": {"enable_global": False},
    "loss_no_local": {"enable_local": False},
    "retrieval_only": {"enable_global": False, "enable_local": False},
}

#: Checkpoint role -> filename inside an ablation checkpoint directory.
CHECKPOINT_ROLES = tuple(TRAIN_VARIANTS)


def run_gen(config: RunConfig, out_path) -> dict:
    """Generate, validate, and persist a corpus; returns a summary."""
    corpus = generate_corpus(config.corpus)
    save_corpus(corpus, out_path)
    qtypes = [q.qtype for q in corpus.queries.values()]
    return {
        "corpus": str(out_path),
        "descriptors": str(descriptor_path(out_path)),
        "n_pages": len(corpus.pages),
        "n_queries": len(corpus.queries),
        "n_global": sum(1 for t in qtypes if t == "global"),
        "n_local": sum(1 for t in qtypes if t == "local"),
        "splits": {name: len(s.query_ids) for name, s in corpus.splits.items()},
    }


def trainer_for_variant(config: RunConfig, variant: str) -> TrainerConfig:
    """Resolve the effective TrainerConfig for a training variant.

    The finetuned cross-context mode trains retrieval-only with descriptor
    rows concatenated to the document rows; it composes with variant "full"
    only (loss-switch variants contradict it).
    """
    if variant not in TRAIN_VARIANTS:
        raise ConfigurationError(f"unknown training variant {variant!r}; choose from {CHECKPOINT_ROLES}")
    overrides = dict(TRAIN_VARIANTS[variant])
    if config.cross_context == "finetuned":
        if variant != "full":
            raise ConfigurationError("cross_context=finetuned only composes with variant 'full'")
        overrides.update(enable_global=False, enable_local=False, cross_context=True)
    return dataclasses.replace(config.trainer, **overrides)


def run_train(
    config: RunConfig,
    corpus_path,
    checkpoint_out,
    log_out=None,
    variant: str = "full",
    resume_from=None,
) -> dict:
    """Train one checkpoint; on divergence the partial log is still written."""
    tcfg = trainer_for_variant(config, variant)
    corpus = load_corpus(corpus_path, with_descriptors=tcfg.needs_descriptors())
    initial_params = None
    start_step = 0
    if resume_from is not None:
        ckpt_config, initial_params, start_step = load_checkpoint(resume_from)
        if ckpt_config != config.encoder:
            raise ConfigurationError(
                f"resume checkpoint encoder config does not match the run config ({resume_from})"
            )
    log_path = Path(log_out) if log_out is not None else Path(str(checkpoint_out) + ".log.json")
    try:
        result = train(corpus, config.encoder, tcfg, initial_params=initial_params, start_step=start_step)
    except TrainingDivergedError as exc:
        if getattr(exc, "partial_log", None) is not None:
            exc.partial_log.save(log_path)
        raise
    save_checkpoint(checkpoint_out, config.encoder, result.params, steps_trained=result.steps_trained)
    result.log.save(log_path)
    return {
        "checkpoint": str(checkpoint_out),
        "log": str(log_path),
        "variant": variant,
        "steps_trained": result.steps_trained,
        "best_epoch": result.log.best_epoch,
        "best_dev_ndcg": result.log.best_dev_ndcg,
        "early_stopped_epoch": result.log.early_stopped_epoch,
    }


def run_index(checkpoint_path, corpus_path, index_out) -> dict:
    """Encode every corpus page with the checkpoint and persist the index.

    The checkpoint is validated before anything is written, so a corrupted
    checkpoint never leaves a partial index. Descriptors are neither read
    nor required.
    """
    enc_config, params, _ = load_checkpoint(checkpoint_path)
    encoder = Encoder(enc_config, params)
    corpus = load_corpus(corpus_path)
    docs = [encoder.encode_page(corpus.patch_features(pid), pid) for pid in sorted(corpus.pages)]
    write_index(docs, index_out)
    return {"index": str(index_out), "n_docs": len(docs), "d": enc_config.retrieval_dim}


def run_search(checkpoint_path, index_path, query_tokens: list[int], k: int,
               flags: ScoringFlags = ALL_ROWS) -> Ranking:
    """Rank the whole index against one query; k is clamped to the corpus."""
    enc_config, params, _ = load_checkpoint(checkpoint_path)
    encoder = Encoder(enc_config, params)
    docs = read_index(index_path)
    emb = encoder.encode_query(query_tokens, query_id=-1)
    return rank(emb, docs, k, flags=flags)


def run_eval(config: RunConfig, corpus_path, checkpoint_path, index_path=None,
             variant: str = "full") -> EvalReport:
    """Evaluate a checkpoint on the configured split.

    Normal mode never reads the descriptor file; the cross-context modes
    require it (they append contextualized descriptor rows at scoring time)
    and fail with a configuration error when it is absent.
    """
    cross = config.cross_context != "off"
    corpus = load_corpus(corpus_path, with_descriptors=cross)
    enc_config, params, _ = load_checkpoint(checkpoint_path)
    encoder = Encoder(enc_config, params)
    base_docs = read_index(index_path) if index_path is not None else None
    return evaluate(
        encoder,
        corpus,
        split=config.eval_split,
        k=config.eval_k,
        flags=config.scoring,
        variant=variant,
        cross_context=cross,
        base_docs=base_docs,
    )


def run_ablate(config: RunConfig, corpus_path, checkpoint_dir) -> AblationReport:
    """Score every configured ablation row from a directory of checkpoints.

    Expects `<role>.ckpt` files for the roles each selected row needs; a row
    whose checkpoint is missing raises a configuration error naming the row.
    The optional retrieval_only.ckpt enables the significance column.
    """
    corpus = load_corpus(corpus_path)
    checkpoint_dir = Path(checkpoint_dir)
    encoders: dict[str, Encoder] = {}
    for role in CHECKPOINT_ROLES:
        path = checkpoint_dir / f"{role}.ckpt"
        if path.exists():
            enc_config, params, _ = load_checkpoint(path)
            encoders[role] = Encoder(enc_config, params)
    return run_ablations(
        corpus, encoders, split=config.eval_split, k=config.eval_k, rows=config.ablation_rows
    )
