"""End-to-end command implementations behind the CLI.

Each run_* function is the full body of one subcommand: generate a corpus,
train a checkpoint, build an index, search it, evaluate, or run the ablation
table. They are plain functions over paths and RunConfig so tests can drive
them in-process.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

from .config import RunConfig
from .corpus import Corpus, generate_corpus, load_corpus, save_corpus
from .encoder import Encoder, load_checkpoint, save_checkpoint
from .errors import ConfigurationError, TrainingDivergedError
from .evaluation import AblationReport, EvalReport, evaluate, run_ablations
from .index_store import read_index, write_index
from .scoring import ALL_ROWS, DocumentIndex, Ranking, ScoringFlags, rank
from .training import TrainerConfig, train

#: Loss-weight overrides for trainable ablation variants: a zero weight
#: switches its loss off.
TRAIN_VARIANTS = {
    "full": {},
    "loss_no_global": {"weight_global": 0.0},
    "loss_no_local": {"weight_local": 0.0},
    "retrieval_only": {"weight_global": 0.0, "weight_local": 0.0},
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
        overrides.update(weight_global=0.0, weight_local=0.0, cross_context=True)
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
    corpus = load_corpus(corpus_path)
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
    checkpoint never leaves a partial index. No descriptor is derived.
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

    Normal mode derives no descriptor; the cross-context modes append each
    page's contextualized descriptor rows at scoring time.
    """
    cross = config.cross_context != "off"
    corpus = load_corpus(corpus_path)
    enc_config, params, _ = load_checkpoint(checkpoint_path)
    encoder = Encoder(enc_config, params)
    base_docs = None
    if index_path is not None:
        base_docs = read_index(index_path)
        _check_index_matches(encoder, corpus, config.eval_split, base_docs, index_path)
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


def _check_index_matches(encoder: Encoder, corpus: Corpus, split: str, docs: DocumentIndex, index_path) -> None:
    """Refuse an index of another corpus or checkpoint, which the index does not
    record: the split's first page, re-encoded, must match its indexed rows. A
    page absent from the index is left to evaluate's own error."""
    page_ids = corpus.splits[split].page_ids if split in corpus.splits else []
    if not page_ids or page_ids[0] not in docs.page_ids:
        return
    pid = page_ids[0]
    indexed = docs[docs.page_ids.index(pid)]
    fresh = encoder.encode_page(corpus.patch_features(pid), pid)
    if indexed.patches.shape != fresh.patches.shape or not (
        np.allclose(indexed.patches, fresh.patches, rtol=0.0, atol=1e-9)
        and np.allclose(indexed.global_vec, fresh.global_vec, rtol=0.0, atol=1e-9)
    ):
        raise ConfigurationError(
            f"index {index_path} does not hold page {pid} as this checkpoint encodes it; "
            "was it built from another corpus or checkpoint?"
        )


def run_ablate(config: RunConfig, corpus_path, checkpoint_dir) -> AblationReport:
    """Score every configured ablation row from a directory of checkpoints.

    Expects `<role>.ckpt` files for the roles each selected row needs; a row
    whose checkpoint is missing raises a configuration error naming the row.
    The optional retrieval_only.ckpt enables the significance column. The
    cross-context modes append each page's descriptor rows, as in `run_eval`.
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
        corpus, encoders, split=config.eval_split, k=config.eval_k, rows=config.ablation_rows,
        cross_context=config.cross_context != "off",
    )
